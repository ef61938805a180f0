"""Per-gate levelized dynamic-timing simulator: the DTA reference.

For a stream of input vectors it computes, for every cycle and every
operating corner, the *dynamic delay* — the arrival time of the last
toggling transition at the primary outputs (the register D-pins),
exactly the quantity the paper extracts from ModelSim VCD dumps.

Model
-----
Combinational logic settles to ``f(x[t])`` each cycle, so per-cycle
values are corner-independent and are evaluated once.  A net *toggles*
in cycle ``t`` when its settled value differs from cycle ``t-1``.  The
transition time of a toggling gate output is approximated as::

    arr[out] = max(arr[i] for toggling inputs i) + gate_delay

i.e. the last-arriving toggling input launches the output transition.
This is the graph-based DTA of Cherupalli & Sartori (ICCAD'15) that the
paper cites as [3]; it ignores glitch pulses on nets whose settled
value does not change (the event-driven simulator in
:mod:`repro.sim.eventsim` models those and is used to cross-validate).

Because toggle masks are corner-independent, arrival propagation is
vectorized over *both* cycles and corners: gate delays enter as a
``(n_corners, n_gates)`` matrix and delays come out ``(n_corners,
n_cycles)``.  Memory is bounded by chunking the cycle axis.

This module is the reference semantics: one python-level pass per
gate on per-cycle ``uint8`` values, with no lowering and no program
cache.  Campaigns run the level-parallel kernels of
:mod:`repro.sim.compile` (the ``compiled`` engine) instead; the parity
tests assert they are bit-identical to this loop, and the
``levelized_ref`` engine exposes it to campaigns for end-to-end
audits.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..circuits.netlist import Netlist
from .logic import eval_gate_array

NEG_INF = np.float32(-np.inf)


class LevelizedSimulator:
    """Per-gate reference simulator for one netlist.

    Precomputes the last structural use of every net so intermediate
    arrays can be freed eagerly during the forward pass.
    """

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        self._last_use = self._compute_last_use(netlist)
        self._po_set = frozenset(netlist.primary_outputs)

    @staticmethod
    def _compute_last_use(netlist: Netlist) -> np.ndarray:
        """Gate index after which each net is dead (POs never die)."""
        n_gates = len(netlist.gates)
        last = np.zeros(netlist.n_nets, dtype=np.int64)
        for idx, gate in enumerate(netlist.gates):
            for i in gate.inputs:
                last[i] = idx
        for po in netlist.primary_outputs:
            last[po] = n_gates  # keep until the end
        return last

    # -- public API -----------------------------------------------------------

    def run(self, input_matrix: np.ndarray, gate_delays: np.ndarray,
            chunk_cycles: Optional[int] = None) -> np.ndarray:
        """Simulate a stream of input vectors across corners.

        Parameters
        ----------
        input_matrix:
            ``(n_rows, n_inputs)`` uint8 bit matrix.  Row 0 sets the
            initial state; each subsequent row is one clock cycle, so
            ``n_cycles = n_rows - 1``.
        gate_delays:
            ``(n_gates,)`` for a single corner or ``(n_corners,
            n_gates)``; picoseconds per gate.  The returned float32
            delays are always ``(n_corners, n_cycles)`` — a 1-D input is
            treated as one corner and yields a ``(1, n_cycles)`` array
            (callers index ``delays[0]``; nothing is squeezed).
        chunk_cycles:
            Cycle-axis chunk size (>= 1).  Defaults to a ~100 MB memory
            budget; never affects results.
        """
        if chunk_cycles is not None and chunk_cycles < 1:
            raise ValueError("chunk_cycles must be >= 1")
        inputs = np.asarray(input_matrix, dtype=np.uint8)
        if inputs.ndim != 2 or inputs.shape[1] != len(self.netlist.primary_inputs):
            raise ValueError(
                f"input matrix must be (rows, {len(self.netlist.primary_inputs)}), "
                f"got {inputs.shape}"
            )
        if inputs.shape[0] < 2:
            raise ValueError("need at least 2 input rows (initial state + 1 cycle)")

        delays = np.asarray(gate_delays, dtype=np.float32)
        if delays.ndim == 1:
            delays = delays[None, :]
        if delays.shape[1] != len(self.netlist.gates):
            raise ValueError(
                f"gate_delays must have {len(self.netlist.gates)} per-gate "
                f"entries, got {delays.shape}"
            )

        n_cycles = inputs.shape[0] - 1
        n_corners = delays.shape[0]
        if chunk_cycles is None:
            budget_elems = 16 * 1024 * 1024  # ~64 MB of float32 live arrays
            width = max(64, self._live_width_estimate())
            chunk_cycles = max(64, budget_elems // max(1, n_corners * width))
        out_delays = np.zeros((n_corners, n_cycles), dtype=np.float32)

        start = 0
        while start < n_cycles:
            stop = min(start + chunk_cycles, n_cycles)
            # rows start..stop inclusive of the leading state row
            chunk = inputs[start:stop + 1]
            out_delays[:, start:stop] = self._run_chunk(chunk, delays)
            start = stop
        return out_delays

    def run_values(self, input_matrix: np.ndarray) -> np.ndarray:
        """Settled output values only: ``(n_rows, n_outputs)`` uint8."""
        inputs = np.asarray(input_matrix, dtype=np.uint8)
        if inputs.ndim != 2 or inputs.shape[1] != len(self.netlist.primary_inputs):
            raise ValueError("bad input matrix shape")
        n = inputs.shape[0]
        values: List[Optional[np.ndarray]] = [None] * self.netlist.n_nets
        for pos, net in enumerate(self.netlist.primary_inputs):
            values[net] = inputs[:, pos]
        for gate in self.netlist.gates:
            ins = [values[i] for i in gate.inputs]
            values[gate.output] = eval_gate_array(gate.gtype, ins, n)
        return np.stack(
            [values[o] for o in self.netlist.primary_outputs], axis=1)

    # -- internals -------------------------------------------------------------

    def _live_width_estimate(self) -> int:
        """Upper-ish estimate of simultaneously-live nets (for chunking)."""
        alive = len(self.netlist.primary_inputs)
        peak = alive
        deaths_at = {}
        for net, idx in enumerate(self._last_use):
            deaths_at.setdefault(int(idx), []).append(net)
        for idx in range(len(self.netlist.gates)):
            alive += 1
            peak = max(peak, alive)
            alive -= len(deaths_at.get(idx, ()))
        return max(peak, 1)

    def _run_chunk(self, inputs: np.ndarray,
                   delays: np.ndarray) -> np.ndarray:
        """Per-gate reference chunk: ``inputs`` has n_cycles+1 rows."""
        nl = self.netlist
        n_rows = inputs.shape[0]
        n_cycles = n_rows - 1
        n_corners = delays.shape[0]
        last_use = self._last_use
        n_gates = len(nl.gates)

        values: List[Optional[np.ndarray]] = [None] * nl.n_nets   # (n_rows,)
        toggles: List[Optional[np.ndarray]] = [None] * nl.n_nets  # (n_cycles,)
        arrival: List[Optional[np.ndarray]] = [None] * nl.n_nets  # (C, n_cycles)

        zero_arr = np.zeros(n_cycles, dtype=np.float32)
        for pos, net in enumerate(nl.primary_inputs):
            col = inputs[:, pos]
            values[net] = col
            tog = (col[1:] != col[:-1])
            toggles[net] = tog
            # PI transitions launch at the clock edge (t = 0)
            arr = np.where(tog, zero_arr, NEG_INF).astype(np.float32)
            arrival[net] = arr  # (n_cycles,) broadcast against corners

        for idx, gate in enumerate(nl.gates):
            ins = gate.inputs
            in_vals = [values[i] for i in ins]
            out_val = eval_gate_array(gate.gtype, in_vals, n_rows)
            out_tog = (out_val[1:] != out_val[:-1])

            if ins and out_tog.any():
                cand = None
                for i in ins:
                    masked = np.where(toggles[i], arrival[i], NEG_INF)
                    cand = masked if cand is None else np.maximum(cand, masked)
                # delays column: (C, 1) broadcasts over cycles
                arr = cand + delays[:, idx][:, None]
                arr = np.where(out_tog, arr, NEG_INF).astype(np.float32)
            else:
                arr = np.full(n_cycles, NEG_INF, dtype=np.float32)

            values[gate.output] = out_val
            toggles[gate.output] = out_tog
            arrival[gate.output] = arr

            # free dead nets
            for i in ins:
                if last_use[i] == idx and i not in self._po_set:
                    values[i] = None
                    toggles[i] = None
                    arrival[i] = None

        worst = None
        for po in nl.primary_outputs:
            arr = arrival[po]
            if arr.ndim == 1:
                arr = np.broadcast_to(arr, (n_corners, n_cycles))
            worst = arr if worst is None else np.maximum(worst, arr)
        return np.maximum(worst, 0.0)  # no toggle -> delay 0

