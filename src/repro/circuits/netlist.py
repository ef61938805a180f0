"""Gate-level netlist core.

A :class:`Netlist` is a flat, combinational gate-level circuit: a set of
*nets* (numbered ``0 .. n_nets-1``) connected by *gates*.  Primary inputs
are nets with no driving gate; every other net is driven by exactly one
gate.  Gates are stored in topological order (guaranteed by construction:
a gate's output net is allocated when the gate is added, so inputs always
refer to already-driven nets), which lets the simulators and STA evaluate
the circuit in a single forward pass.

This is the substrate that replaces the paper's post-layout gate-level
netlists produced by the Synopsys flow; see DESIGN.md section 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class GateType(str, enum.Enum):
    """Primitive cell types available in the technology library.

    The set mirrors a small standard-cell library: inverter/buffer, the
    basic 2-input functions, and a 2:1 mux (``MUX2`` inputs are ordered
    ``(sel, a, b)`` and computes ``b if sel else a``).
    """

    CONST0 = "CONST0"
    CONST1 = "CONST1"
    BUF = "BUF"
    NOT = "NOT"
    AND2 = "AND2"
    OR2 = "OR2"
    NAND2 = "NAND2"
    NOR2 = "NOR2"
    XOR2 = "XOR2"
    XNOR2 = "XNOR2"
    MUX2 = "MUX2"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Number of input pins for each gate type.
GATE_ARITY: Dict[GateType, int] = {
    GateType.CONST0: 0,
    GateType.CONST1: 0,
    GateType.BUF: 1,
    GateType.NOT: 1,
    GateType.AND2: 2,
    GateType.OR2: 2,
    GateType.NAND2: 2,
    GateType.NOR2: 2,
    GateType.XOR2: 2,
    GateType.XNOR2: 2,
    GateType.MUX2: 3,
}


def evaluate_gate(gtype: GateType, inputs: Sequence[int]) -> int:
    """Evaluate a single gate on scalar 0/1 inputs.

    This is the reference semantics used by both simulators; the
    vectorized simulator applies the same truth tables to numpy arrays.
    """
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    if gtype is GateType.BUF:
        return inputs[0]
    if gtype is GateType.NOT:
        return 1 - inputs[0]
    if gtype is GateType.MUX2:
        sel, d0, d1 = inputs
        return d1 if sel else d0
    a, b = inputs[0], inputs[1]
    if gtype is GateType.AND2:
        return a & b
    if gtype is GateType.OR2:
        return a | b
    if gtype is GateType.NAND2:
        return 1 - (a & b)
    if gtype is GateType.NOR2:
        return 1 - (a | b)
    if gtype is GateType.XOR2:
        return a ^ b
    if gtype is GateType.XNOR2:
        return 1 - (a ^ b)
    raise ValueError(f"unknown gate type: {gtype!r}")


@dataclass(frozen=True)
class Gate:
    """One gate instance: ``output = gtype(*inputs)``."""

    gtype: GateType
    inputs: Tuple[int, ...]
    output: int

    def __post_init__(self) -> None:
        expected = GATE_ARITY[self.gtype]
        if len(self.inputs) != expected:
            raise ValueError(
                f"{self.gtype} expects {expected} inputs, got {len(self.inputs)}"
            )


class NetlistError(Exception):
    """Structural problem in a netlist (multiple drivers, cycles, ...)."""


@dataclass
class Netlist:
    """A combinational gate-level circuit.

    Attributes
    ----------
    name:
        Human-readable circuit name (e.g. ``"int_add32"``).
    n_nets:
        Total number of nets.  Net ids are dense, ``0 .. n_nets-1``.
    gates:
        Gates in topological order.
    primary_inputs:
        Net ids driven from outside the circuit.
    primary_outputs:
        Net ids observed from outside (register D-pins in an FU).
    net_names:
        Optional debug names for nets (``{net_id: name}``).
    """

    name: str = "netlist"
    n_nets: int = 0
    gates: List[Gate] = field(default_factory=list)
    primary_inputs: List[int] = field(default_factory=list)
    primary_outputs: List[int] = field(default_factory=list)
    net_names: Dict[int, str] = field(default_factory=dict)

    # -- construction -----------------------------------------------------

    def new_net(self, name: Optional[str] = None) -> int:
        """Allocate a fresh net id."""
        net = self.n_nets
        self.n_nets += 1
        if name is not None:
            self.net_names[net] = name
        return net

    def add_input(self, name: Optional[str] = None) -> int:
        """Allocate a net and register it as a primary input."""
        net = self.new_net(name)
        self.primary_inputs.append(net)
        return net

    def add_gate(self, gtype: GateType, inputs: Sequence[int],
                 name: Optional[str] = None) -> int:
        """Add a gate driving a freshly-allocated net; return the net id.

        Inputs must already exist, which keeps ``gates`` topologically
        ordered by construction.
        """
        for i in inputs:
            if not (0 <= i < self.n_nets):
                raise NetlistError(f"gate input net {i} does not exist yet")
        out = self.new_net(name)
        self.gates.append(Gate(gtype, tuple(inputs), out))
        return out

    def mark_output(self, net: int, name: Optional[str] = None) -> None:
        """Register an existing net as a primary output."""
        if not (0 <= net < self.n_nets):
            raise NetlistError(f"output net {net} does not exist")
        self.primary_outputs.append(net)
        if name is not None:
            self.net_names[net] = name

    # -- structure queries ------------------------------------------------

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    def driver_of(self) -> Dict[int, Gate]:
        """Map net id -> driving gate (primary inputs absent)."""
        return {g.output: g for g in self.gates}

    def fanout_counts(self) -> List[int]:
        """Number of gate input pins each net drives.

        Primary outputs add one load each (the register D-pin), matching
        how a placed design would load the net.
        """
        counts = [0] * self.n_nets
        for g in self.gates:
            for i in g.inputs:
                counts[i] += 1
        for o in self.primary_outputs:
            counts[o] += 1
        return counts

    def levelize(self) -> List[int]:
        """Logic level of each net (primary inputs / consts at level 0).

        Level of a gate output is ``1 + max(level of inputs)``.  Because
        gates are stored topologically this is a single forward pass.
        """
        level = [0] * self.n_nets
        for g in self.gates:
            if g.inputs:
                level[g.output] = 1 + max(level[i] for i in g.inputs)
            else:
                level[g.output] = 0
        return level

    def depth(self) -> int:
        """Maximum logic level over the primary outputs."""
        if not self.gates:
            return 0
        level = self.levelize()
        if self.primary_outputs:
            return max(level[o] for o in self.primary_outputs)
        return max(level[g.output] for g in self.gates)

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`NetlistError` if broken.

        Invariants: single driver per net, every non-input net driven,
        topological gate order, ids in range, no duplicate primary inputs.
        """
        driven = set()
        for pi in self.primary_inputs:
            if pi in driven:
                raise NetlistError(f"duplicate primary input net {pi}")
            driven.add(pi)
        for g in self.gates:
            for i in g.inputs:
                if i not in driven:
                    raise NetlistError(
                        f"gate {g} reads net {i} before it is driven "
                        f"(not topological or floating net)"
                    )
            if g.output in driven:
                raise NetlistError(f"net {g.output} has multiple drivers")
            driven.add(g.output)
        for o in self.primary_outputs:
            if o not in driven:
                raise NetlistError(f"primary output net {o} is undriven")
        if len(driven) != self.n_nets:
            floating = sorted(set(range(self.n_nets)) - driven)
            raise NetlistError(f"floating nets (no driver, not inputs): {floating}")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, input_values: Dict[int, int]) -> Dict[int, int]:
        """Zero-delay functional evaluation.

        Parameters
        ----------
        input_values:
            ``{primary input net id: 0/1}``; must cover all inputs.

        Returns
        -------
        ``{net id: 0/1}`` for every net in the circuit.
        """
        values: Dict[int, int] = {}
        for pi in self.primary_inputs:
            if pi not in input_values:
                raise NetlistError(f"missing value for primary input net {pi}")
            values[pi] = 1 if input_values[pi] else 0
        for g in self.gates:
            values[g.output] = evaluate_gate(g.gtype, [values[i] for i in g.inputs])
        return values

    def evaluate_outputs(self, input_bits: Sequence[int]) -> List[int]:
        """Evaluate and return primary-output bit values.

        ``input_bits`` is ordered like :attr:`primary_inputs`.
        """
        if len(input_bits) != len(self.primary_inputs):
            raise NetlistError(
                f"expected {len(self.primary_inputs)} input bits, "
                f"got {len(input_bits)}"
            )
        values = self.evaluate(dict(zip(self.primary_inputs, input_bits)))
        return [values[o] for o in self.primary_outputs]

    def stats(self) -> Dict[str, int]:
        """Summary used in reports: gate/net counts and depth."""
        return {
            "nets": self.n_nets,
            "gates": self.n_gates,
            "inputs": len(self.primary_inputs),
            "outputs": len(self.primary_outputs),
            "depth": self.depth(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist({self.name!r}, gates={self.n_gates}, nets={self.n_nets}, "
            f"pi={len(self.primary_inputs)}, po={len(self.primary_outputs)})"
        )
