"""Functional-unit abstraction: a combinational netlist with registered IO.

The paper studies four FUs — 32-bit integer add/multiply and binary32
floating-point add/multiply.  A :class:`FunctionalUnit` bundles the
gate-level netlist with operand encode/decode helpers and a software
reference function, and defines the *register boundary*: primary inputs
are driven from input registers at each clock edge and primary outputs
feed output registers, so the per-cycle dynamic delay is the latest
arrival at the output-register D-pins — the paper's DTA definition.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import refmodels
from .adders import build_int_adder
from .float_units import build_fp_adder, build_fp_multiplier
from .multipliers import build_int_multiplier
from .netlist import Netlist


@dataclass
class FunctionalUnit:
    """A two-operand combinational FU with a register boundary.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"int_add"``.
    netlist:
        The combinational core.  ``primary_inputs`` hold operand ``a``
        bits (LSB-first) followed by operand ``b`` bits; outputs are the
        result bits (plus flags such as carry-out, depending on the FU).
    operand_width:
        Bits per operand (32 for all paper FUs).
    result_width:
        Bits of the architectural result word.
    reference:
        ``f(a_bits_int, b_bits_int) -> result_bits_int`` software model.

    The netlist is frozen once the unit is first used: :meth:`stats`
    and :meth:`netlist_fingerprint` are computed on first call and kept
    for the unit's lifetime (trace-store keys, model keys and pool
    registration all read them), so mutating ``netlist`` afterwards
    leaves them stale — build a new unit instead.  This is the
    contract :func:`~repro.sim.compile.compile_netlist` already states
    for a netlist's first simulation.
    """

    name: str
    netlist: Netlist
    operand_width: int
    result_width: int
    reference: Callable[[int, int], int]
    description: str = ""
    _stats: Optional[Dict[str, int]] = field(
        default=None, init=False, repr=False, compare=False)
    _fingerprint: Optional[Tuple[str, bytes]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        expected = 2 * self.operand_width
        if len(self.netlist.primary_inputs) != expected:
            raise ValueError(
                f"{self.name}: netlist has {len(self.netlist.primary_inputs)} "
                f"inputs, expected {expected}"
            )

    # -- operand packing -----------------------------------------------------

    def encode_inputs(self, a: int, b: int) -> List[int]:
        """Pack two operand words into the primary-input bit list."""
        w = self.operand_width
        mask = (1 << w) - 1
        a &= mask
        b &= mask
        return [(a >> i) & 1 for i in range(w)] + [(b >> i) & 1 for i in range(w)]

    def encode_inputs_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized packing: ``(n, 2*width)`` uint8 bit matrix."""
        w = self.operand_width
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        shifts = np.arange(w, dtype=np.uint64)
        bits_a = ((a[:, None] >> shifts) & 1).astype(np.uint8)
        bits_b = ((b[:, None] >> shifts) & 1).astype(np.uint8)
        return np.concatenate([bits_a, bits_b], axis=1)

    def decode_result(self, output_bits: Sequence[int]) -> int:
        """Unpack the architectural result word from output bit values."""
        value = 0
        for i in range(self.result_width):
            value |= (int(output_bits[i]) & 1) << i
        return value

    # -- software evaluation ---------------------------------------------------

    def compute(self, a: int, b: int) -> int:
        """Golden result via the software reference model."""
        return self.reference(a, b)

    def simulate_logic(self, a: int, b: int) -> int:
        """Zero-delay gate-level evaluation (slow; used in tests)."""
        out_bits = self.netlist.evaluate_outputs(self.encode_inputs(a, b))
        return self.decode_result(out_bits)

    def stats(self) -> Dict[str, int]:
        """The netlist's :meth:`~repro.circuits.netlist.Netlist.stats`,
        levelized once per unit."""
        if self._stats is None:
            self._stats = self.netlist.stats()
        return dict(self._stats)

    def netlist_fingerprint(self) -> Tuple[str, bytes]:
        """``(sha1 hex, pickle bytes)`` of the netlist, pickled once per
        unit: the content key and payload of pool registration."""
        if self._fingerprint is None:
            blob = pickle.dumps(self.netlist,
                                protocol=pickle.HIGHEST_PROTOCOL)
            self._fingerprint = (hashlib.sha1(blob).hexdigest(), blob)
        return self._fingerprint


_BUILDERS: Dict[str, Callable[[], FunctionalUnit]] = {}


def _register(name: str, factory: Callable[[], FunctionalUnit]) -> None:
    _BUILDERS[name] = factory


def available_units() -> List[str]:
    """Names of all registered FU generators."""
    return sorted(_BUILDERS)


def build_functional_unit(name: str, **kwargs) -> FunctionalUnit:
    """Build a registered FU by name (``int_add``/``int_mul``/``fp_add``/``fp_mul``).

    Extra keyword arguments are forwarded to the underlying netlist
    generator (e.g. ``architecture="cla"`` for ``int_add``).
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown FU {name!r}; available: {available_units()}")
    return _BUILDERS[name](**kwargs)


def _make_int_add(architecture: str = "ripple", width: int = 32) -> FunctionalUnit:
    return FunctionalUnit(
        name="int_add",
        netlist=build_int_adder(width, architecture),
        operand_width=width,
        result_width=width,
        reference=lambda a, b, _w=width: refmodels.int_add_ref(a, b, _w)[0],
        description=f"{width}-bit integer adder ({architecture})",
    )


def _make_int_mul(architecture: str = "wallace", width: int = 32) -> FunctionalUnit:
    return FunctionalUnit(
        name="int_mul",
        netlist=build_int_multiplier(width, architecture),
        operand_width=width,
        result_width=width,
        reference=lambda a, b, _w=width: refmodels.int_mul_ref(a, b, _w),
        description=f"{width}-bit integer multiplier ({architecture})",
    )


def _make_fp_add() -> FunctionalUnit:
    return FunctionalUnit(
        name="fp_add",
        netlist=build_fp_adder(),
        operand_width=32,
        result_width=32,
        reference=refmodels.fp32_add_ref,
        description="binary32 floating-point adder (RNE, DAZ/FTZ)",
    )


def _make_fp_mul() -> FunctionalUnit:
    return FunctionalUnit(
        name="fp_mul",
        netlist=build_fp_multiplier(),
        operand_width=32,
        result_width=32,
        reference=refmodels.fp32_mul_ref,
        description="binary32 floating-point multiplier (RNE, DAZ/FTZ)",
    )


_register("int_add", _make_int_add)
_register("int_mul", _make_int_mul)
_register("fp_add", _make_fp_add)
_register("fp_mul", _make_fp_mul)

#: The four functional units evaluated in the paper (Table III order).
PAPER_UNITS = ("int_add", "fp_add", "int_mul", "fp_mul")
