"""Event-driven gate-level timing simulator.

The reference engine standing in for ModelSim's back-annotated
simulation: a transport-delay event queue over the same per-gate delay
vector the other engines take, which models glitch trains.  It is
orders of magnitude slower than the compiled DTA engine (that gap *is*
the paper's "TEVoT is 100X faster than gate-level simulation" claim,
reproduced in ``benchmarks/test_bench_speedup.py``), so campaigns run
it only as the glitch-aware ``event`` engine, for cross-validation.

Semantics
---------
At each clock edge the primary inputs switch to the next vector; every
gate whose inputs changed re-evaluates and schedules its (possibly
transient) output value ``gate_delay`` later.  A scheduled value equal
to the net's value at fire time is dropped (no propagation).  The
dynamic delay of a cycle is the time of the last value change on any
primary output, relative to the clock edge — including changes caused
by glitch pulses, exactly as a waveform-dump extraction would see them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..circuits.netlist import Netlist, evaluate_gate


@dataclass
class EventTraceResult:
    """Per-cycle results of an event-driven run."""

    delays: np.ndarray            # (n_cycles,) float64, ps
    outputs: np.ndarray           # (n_cycles, n_outputs) uint8 settled values
    event_counts: np.ndarray      # (n_cycles,) int64, fired value changes


class EventDrivenSimulator:
    """Transport-delay event-driven simulator for one netlist."""

    def __init__(self, netlist: Netlist, gate_delays: Sequence[float]) -> None:
        netlist.validate()
        if len(gate_delays) != len(netlist.gates):
            raise ValueError(
                f"gate_delays must have {len(netlist.gates)} entries, "
                f"got {len(gate_delays)}"
            )
        self.netlist = netlist
        self.gate_delays = [float(d) for d in gate_delays]
        # net -> indices of gates reading it
        self._fanout: List[List[int]] = [[] for _ in range(netlist.n_nets)]
        for idx, gate in enumerate(netlist.gates):
            for i in gate.inputs:
                self._fanout[i].append(idx)

    # -- single-cycle engine ---------------------------------------------------

    def settle(self, input_bits: Sequence[int]) -> List[int]:
        """Zero-delay settling (used to establish the initial state)."""
        values = self.netlist.evaluate(
            dict(zip(self.netlist.primary_inputs, input_bits)))
        return [values[n] for n in range(self.netlist.n_nets)]

    def run_cycle(self, state: List[int], next_bits: Sequence[int]
                  ) -> Tuple[List[int], float, int]:
        """Apply one input transition and simulate to quiescence.

        Parameters
        ----------
        state:
            Current settled net values (mutated in place).
        next_bits:
            New primary-input vector applied at t = 0.

        Returns
        -------
        ``(state, dynamic_delay, n_events)`` where ``dynamic_delay`` is
        the last PO change time (0.0 if no output changed).
        """
        nl = self.netlist
        po_set = set(nl.primary_outputs)
        counter = itertools.count()
        queue: List[Tuple[float, int, int, int]] = []  # (time, seq, net, value)

        def schedule(time: float, net: int, value: int) -> None:
            heapq.heappush(queue, (time, next(counter), net, value))

        # Input transition at t=0.
        for pos, net in enumerate(nl.primary_inputs):
            new = 1 if next_bits[pos] else 0
            if state[net] != new:
                schedule(0.0, net, new)

        last_po_change = 0.0
        n_events = 0
        while queue:
            time, _seq, net, value = heapq.heappop(queue)
            if state[net] == value:
                continue  # transient cancelled or redundant
            state[net] = value
            n_events += 1
            if net in po_set and time > last_po_change:
                last_po_change = time
            for gate_idx in self._fanout[net]:
                gate = nl.gates[gate_idx]
                new_out = evaluate_gate(
                    gate.gtype, [state[i] for i in gate.inputs])
                schedule(time + self.gate_delays[gate_idx],
                         gate.output, new_out)
        return state, last_po_change, n_events

    # -- trace API -----------------------------------------------------------------

    def run_trace(self, input_matrix: np.ndarray) -> EventTraceResult:
        """Simulate a stream of input vectors (row 0 = initial state)."""
        inputs = np.asarray(input_matrix, dtype=np.uint8)
        if inputs.ndim != 2 or inputs.shape[1] != len(self.netlist.primary_inputs):
            raise ValueError("bad input matrix shape")
        n_cycles = inputs.shape[0] - 1
        if n_cycles < 1:
            raise ValueError("need at least 2 input rows")

        state = self.settle(list(inputs[0]))
        delays = np.zeros(n_cycles, dtype=np.float64)
        outputs = np.zeros((n_cycles, len(self.netlist.primary_outputs)),
                           dtype=np.uint8)
        event_counts = np.zeros(n_cycles, dtype=np.int64)
        for t in range(n_cycles):
            state, delay, n_events = self.run_cycle(state, inputs[t + 1])
            delays[t] = delay
            event_counts[t] = n_events
            outputs[t] = [state[po] for po in self.netlist.primary_outputs]
        return EventTraceResult(delays, outputs, event_counts)

