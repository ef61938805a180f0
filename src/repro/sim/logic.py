"""Vectorized gate evaluation over numpy arrays.

:func:`eval_gate_array` evaluates one gate's truth table on uint8 (0/1)
arrays of per-cycle values — the per-gate reference simulator's gate
kernel.  The compiled engine evaluates whole gate groups on packed
words instead (:func:`repro.sim.compile._eval_group`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuits.netlist import GateType


def eval_gate_array(gtype: GateType, inputs: Sequence[np.ndarray],
                    n: int) -> np.ndarray:
    """Evaluate a gate on vectors of input values.

    Parameters
    ----------
    gtype:
        Gate type.
    inputs:
        One uint8 0/1 array per input pin, each of shape ``(n,)``.
    n:
        Vector length (needed for constants which have no inputs).
    """
    if gtype is GateType.CONST0:
        return np.zeros(n, dtype=np.uint8)
    if gtype is GateType.CONST1:
        return np.ones(n, dtype=np.uint8)
    if gtype is GateType.BUF:
        return inputs[0]
    if gtype is GateType.NOT:
        return inputs[0] ^ 1
    if gtype is GateType.AND2:
        return inputs[0] & inputs[1]
    if gtype is GateType.OR2:
        return inputs[0] | inputs[1]
    if gtype is GateType.NAND2:
        return (inputs[0] & inputs[1]) ^ 1
    if gtype is GateType.NOR2:
        return (inputs[0] | inputs[1]) ^ 1
    if gtype is GateType.XOR2:
        return inputs[0] ^ inputs[1]
    if gtype is GateType.XNOR2:
        return (inputs[0] ^ inputs[1]) ^ 1
    if gtype is GateType.MUX2:
        sel, d0, d1 = inputs
        return (d0 & (sel ^ 1)) | (d1 & sel)
    raise ValueError(f"unknown gate type {gtype!r}")
