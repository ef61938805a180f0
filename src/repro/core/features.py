"""Feature generation (paper Sec. IV-B, Eq. 3).

The variability feature of cycle ``t`` is ``{V, T, x[t], x[t-1]}``: the
operating condition plus the bit-level current and previous input
words.  With two 32-bit operands each word contributes 64 bit features,
giving the 130-dimensional feature matrix of Eq. 3 (TEVoT-NH omits the
history half: 66 features).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..timing.corners import OperatingCondition
from ..workloads.streams import OperandStream

#: Version of the Eq.-3 feature layout.  Bump on any change to column
#: order/meaning — the model registry keys published artifacts by it so
#: a served model is never fed features from a different layout.
FEATURE_SPEC_VERSION = 1


@dataclass(frozen=True)
class FeatureSpec:
    """Column layout of a TEVoT feature matrix.

    ``include_history`` distinguishes TEVoT (x[t] and x[t-1]) from the
    TEVoT-NH ablation (x[t] only).
    """

    operand_width: int = 32
    include_history: bool = True

    @property
    def bits_per_cycle(self) -> int:
        return 2 * self.operand_width  # both operands, one word

    @property
    def n_features(self) -> int:
        words = 2 if self.include_history else 1
        return words * self.bits_per_cycle + 2  # + V + T

    def version_tag(self) -> str:
        """Registry tag: layout version + the knobs that change it."""
        return (f"fs{FEATURE_SPEC_VERSION}:w{self.operand_width}:"
                f"h{int(self.include_history)}")

    def column_names(self) -> List[str]:
        """Human-readable names, for importance reports."""
        names = [f"x_t[{i}]" for i in range(self.bits_per_cycle)]
        if self.include_history:
            names += [f"x_t-1[{i}]" for i in range(self.bits_per_cycle)]
        return names + ["V", "T"]


def operand_bits(words: np.ndarray, operand_width: int = 32) -> np.ndarray:
    """LSB-first bit expansion of operand words: ``(n, width)`` float32.

    The bit layout shared by offline training (:func:`stream_bits`)
    and the serving engine's feature matrices; :func:`feature_row`
    lays out its Python rows the same way.  Both sides must build
    identical feature columns for bit-exact parity.
    """
    # each word's little-endian bytes, unpacked LSB first
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    raw = raw.reshape(-1, 8)[:, :(operand_width + 7) // 8]
    return np.unpackbits(raw, axis=1, count=operand_width,
                         bitorder="little").astype(np.float32)


#: the bits of each byte value, LSB first, as Python floats
_BYTE_BITS = [tuple(float(byte >> i & 1) for i in range(8))
              for byte in range(256)]


def feature_row(words: Sequence[int], voltage: float, temperature: float,
                operand_width: int = 32) -> List[float]:
    """One feature row as Python floats, without numpy arrays.

    ``words`` is ``(a, b)``, or ``(a, b, prev_a, prev_b)`` for a history
    spec; each must lie in ``[0, 2**operand_width)``.  The row holds
    each word's bits LSB first, as :func:`operand_bits` lays them out,
    then ``V`` and ``T`` rounded to float32 — the float64 values of the
    matching :func:`build_feature_matrix` row.  The serving engine
    builds walk-sized batches this way.
    """
    packed = shift = 0
    for word in words:
        if word >> operand_width:  # also true for a negative word
            raise ValueError(f"operand {word!r} does not fit in "
                             f"{operand_width} bits")
        packed |= word << shift
        shift += operand_width
    row: List[float] = []
    for byte in packed.to_bytes((shift + 7) // 8, "little"):
        row += _BYTE_BITS[byte]
    del row[shift:]  # the last byte's bits above the last word
    row += np.array((voltage, temperature), np.float32).tolist()
    return row


def stream_bits(stream: OperandStream, operand_width: int = 32) -> np.ndarray:
    """Bit-expand a stream: ``(n_rows, 2 * width)`` float32 matrix."""
    return np.concatenate([operand_bits(stream.a, operand_width),
                           operand_bits(stream.b, operand_width)], axis=1)


def build_feature_matrix(stream: OperandStream,
                         condition: OperatingCondition,
                         spec: FeatureSpec = FeatureSpec()) -> np.ndarray:
    """Feature matrix for one stream at one operating condition.

    Returns ``(n_cycles, spec.n_features)`` float32: row ``t`` holds the
    bits of ``x[t]`` (input applied at cycle ``t``), optionally the bits
    of ``x[t-1]``, then ``V`` and ``T``.
    """
    bits = stream_bits(stream, spec.operand_width)
    current = bits[1:]
    parts = [current]
    if spec.include_history:
        parts.append(bits[:-1])
    n = current.shape[0]
    parts.append(np.full((n, 1), condition.voltage, dtype=np.float32))
    parts.append(np.full((n, 1), condition.temperature, dtype=np.float32))
    return np.concatenate(parts, axis=1)


def build_training_set(stream: OperandStream,
                       conditions: Sequence[OperatingCondition],
                       delays: np.ndarray,
                       spec: FeatureSpec = FeatureSpec(),
                       max_rows: Optional[int] = None,
                       seed: Optional[int] = 0):
    """Stack (features, delay) pairs over many operating conditions.

    ``delays`` is the ``(n_conditions, n_cycles)`` matrix from a
    :class:`~repro.sim.dta.DelayTrace`.  When the stacked set exceeds
    ``max_rows`` it is subsampled uniformly (the paper caps training at
    200 K rows).

    Returns ``(X, y)``.
    """
    delays = np.asarray(delays)
    if delays.shape[0] != len(conditions):
        raise ValueError(
            f"delays has {delays.shape[0]} condition rows for "
            f"{len(conditions)} conditions")
    if delays.shape[1] != stream.n_cycles:
        raise ValueError(
            f"delays has {delays.shape[1]} cycles, stream has "
            f"{stream.n_cycles}")

    n = stream.n_cycles
    X = np.empty((len(conditions) * n, spec.n_features), dtype=np.float32)
    for k, condition in enumerate(conditions):
        X[k * n:(k + 1) * n] = build_feature_matrix(stream, condition, spec)
    y = delays.astype(np.float32).reshape(-1)

    if max_rows is not None and X.shape[0] > max_rows:
        rng = np.random.default_rng(seed)
        pick = rng.choice(X.shape[0], max_rows, replace=False)
        X, y = X[pick], y[pick]
    return X, y
