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

    The single bit-layout definition shared by offline training
    (:func:`stream_bits`) and the serving engine — both sides must
    build identical feature columns for bit-exact parity.
    """
    shifts = np.arange(operand_width, dtype=np.uint64)
    words = np.asarray(words, dtype=np.uint64)
    return ((words[:, None] >> shifts) & 1).astype(np.float32)


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
