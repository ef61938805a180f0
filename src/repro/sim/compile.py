"""Compiled netlist programs: level-parallel simulation kernels.

The per-gate reference engine
(:class:`~repro.sim.levelized.LevelizedSimulator`) walks the netlist
one gate at a time in Python — a 32-bit array multiplier is ~5.6k numpy
dispatches per chunk, so its throughput is bounded by interpreter
overhead, not by array work.  This module removes that bound with a
one-time *lowering pass*: :func:`compile_netlist` turns a
:class:`~repro.circuits.netlist.Netlist` into a
:class:`CompiledNetlist` — flat structure-of-arrays form where gates
are bucketed by ``(logic level, gate type)`` with fanin/output/delay
index matrices per bucket.  Because a gate's inputs always sit at
strictly lower levels, every bucket can be evaluated with whole-bucket
fancy-indexed numpy ops, so the settled-value pass, the toggle pass,
and the float arrival pass each become a short loop over *levels*
instead of a Python loop over *gates*.

Settled values are bit-packed: the cycle axis is packed into
``uint64`` words — cycle ``t`` at bit ``t % 64`` of word ``t // 64`` —
so one bitwise op evaluates 64 cycles of a whole gate group.  Tail
bits past the last row are unspecified (inverting gates flip them);
toggle words are masked to the first ``n_cycles`` bits before any
``any()`` test or unpack.  Arrival times are floats and cannot be
packed; they run on the float32 arrival kernels below.

Every paper table simulates a grid of operating corners, so the
arrival pass works in one of two regimes, picked by
:meth:`CompiledNetlist.run` from the corner count and the program's
own crossover, :attr:`CompiledNetlist.compact_min_corners`:

* **Dense** (below the crossover: single-corner runs, and the 9-corner
  training grid on the adders).  The scratch is
  ``(n_live_rows, n_corners, chunk)`` float32 and every (row, corner,
  cycle) cell is computed; quiet cells carry a huge negative sentinel.
  Each net owns one contiguous ``(n_corners, chunk)`` tile, so block
  gathers move whole tiles.
* **Toggle-compacted** (from the crossover up: the training grid on
  the multipliers, campaign shards over the 100-corner Table-I grid
  on every unit).  Only the
  *observable* toggles of a chunk are computed, one float32 corner
  vector per (row, cycle) pair: the toggling pairs from which a chain
  of toggling gates reaches a toggling primary output
  (:meth:`CompiledNetlist.observable_toggles`).  On random operand
  streams 32-46% of the live (row, cycle) pairs toggle, and logic masks
  most of those on the way to the outputs: 22-23% of the toggling
  pairs are observable on the multipliers (7-8% of all live pairs),
  56-58% on the adders (19-27%).  The dense pass spends the rest of its
  work on cells no delay can read; the compact pass pays a backward
  bit-mask walk per chunk and an index gather per kept pair instead.

The crossover is ``ceil(3 + 72 / rows)``, with ``rows`` the program's
mean rows per arrival block (one block per logic level and fanin
width).  The compact pass does per-cell work that no corner count
amortizes (unpacking, indexing and the mask walk), worth about 3
corners of dense work, and its per-block dispatch costs more than the
dense pass's, which wide levels spread over more rows.  The constants
were fitted to both kernels forced, on 250- and 1000-cycle random
streams (the shard sizes a 2-worker campaign plans), median of 5, on 2
vCPUs; each cell is compact speed over dense:

========  ====  =========  =========  =========  =========  =========
unit      rows  3          5          9          16         25
========  ====  =========  =========  =========  =========  =========
int_add    2.5  0.37-0.54  0.43-0.54  0.58-0.60  0.71-0.79  0.84-1.18
fp_add     7.5  0.43-0.56  0.63-0.67  0.81-0.88  1.02-1.18  1.22-1.54
int_mul   45.4  0.73-0.90  1.04-1.24  1.78-1.79  2.50-2.93  3.97-4.18
fp_mul    25.0  0.85-0.93  1.04-1.19  1.71-1.83  2.12-2.58  3.23-4.03
========  ====  =========  =========  =========  =========  =========

So ``int_mul`` goes compact from 5 corners, ``fp_mul`` from 6,
``fp_add`` from 13 (0.97-1.01x there, 1.03-1.11x at 14) and
``int_add`` from 33 (1.0-1.3x at 30-34).  Every program is compact at
100 corners: ``rows`` is at least 1, so no crossover exceeds 75.

Shared by both regimes:

* **Dead-cone segregation.**  Gates from whose output no primary
  output is reachable cannot influence any delay; lowering orders
  their rows after every live row, and the simulation passes stop at
  ``n_live_rows`` — a 32-bit array multiplier carries ~17% dead logic
  (unused carry/sign cells) that the per-gate engines dutifully
  simulate.
* **Cache-sized sub-blocks.**  Arrival blocks are processed in pieces
  of at most :data:`_SUB_BLOCK_ELEMS` cells, so the gathered fanins
  stay L2-resident across the max and the delay add.  Without them the
  dense pass is 1.3-2x slower at 1 and 9 corners.

The dense pass also keeps the **level-1 corner collapse**: primary
inputs launch at the clock edge for *every* corner, so the fanin
``max`` of a level-1 gate is computed once on 2-D ``(n, chunk)`` rows
and only the delay add touches the corner axis.  On an array
multiplier the whole partial-product plane sits at level 1.

Delays are **bit-identical** to the per-gate reference engine: every
float32 operation on a *toggling* cycle is reproduced elementwise in
the same order (``max`` over fanins in pin order, then add the gate
delay), and quiet-cycle values — which the per-gate engine pins to
``-inf`` and these kernels hold at huge negative sentinels — never
reach a toggling cycle's delay (see
:meth:`CompiledNetlist._arrival_chunk`).  The engine parity tests
assert this against the ``levelized_ref`` reference path for both
kernels.

Programs are cached per netlist identity (a ``weakref``-evicted map),
so repeated ``run_delays`` calls — e.g. one per campaign shard — pay
for validation, levelization, and lowering exactly once per process,
and reuse one arrival scratch buffer while the corner count and chunk
stay the same.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.netlist import GATE_ARITY, GateType, Netlist

NEG_INF = np.float32(-np.inf)
_ZERO = np.float32(0.0)
_ONE = np.uint64(1)
_SIXTY_THREE = np.uint64(63)
_U64_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
#: Magnitude of the quiet-cycle arrival sentinel (an exact power of
#: two, ~1.27e30).  Quiet arrivals only need to (a) lose every ``max``
#: against a real arrival (reals are >= 0) and (b) stay negative under
#: any accumulation of gate delays along a quiet chain — circuit depth
#: times the largest gate delay is bounded far below this, and even
#: pathological overflow saturates to -inf, which also satisfies both.
_QUIET_SENTINEL = np.float32(2.0 ** 100)

#: float32 elements of the dense arrival scratch allowed per chunk, i.e.
#: chunks are sized so ``n_corners * n_live_rows * chunk`` stays under
#: this (28 MB).  The sweet spot is set by dispatch amortization against
#: scratch traffic: on ``int_mul`` at 9 corners, 256-cycle chunks beat
#: 128, 512 and 1024 by 10-40%.
_CHUNK_BUDGET_ELEMS = 7 * 1024 * 1024

#: A program's crossover to the toggle-compacted arrival pass is
#: ``ceil(_COMPACT_BASE_CORNERS + _COMPACT_DISPATCH_ROWS / rows)``
#: corners, ``rows`` its mean rows per arrival block (see the module
#: docs for how both were measured).
_COMPACT_BASE_CORNERS = 3
_COMPACT_DISPATCH_ROWS = 72

#: float32 arrival cells per sub-block, in either pass: the gathered
#: fanins and the output segment (~384 KB each) stay L2-resident across
#: the elementwise ops applied to them.  The dense pass splits row
#: ranges, the compact pass lists of toggling pairs.
_SUB_BLOCK_ELEMS = 96 * 1024


# -- bit packing primitives ---------------------------------------------------


def pack_columns(matrix: np.ndarray) -> np.ndarray:
    """Pack a ``(n_rows, n_cols)`` 0/1 matrix into per-column words.

    Returns ``(n_cols, ceil(n_rows / 64))`` uint64 with row ``t`` of
    column ``c`` at bit ``t % 64`` of ``out[c, t // 64]``.
    """
    cols = np.ascontiguousarray(np.asarray(matrix, dtype=np.uint8).T)
    packed = np.packbits(cols, axis=1, bitorder="little")
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return packed.view(np.uint64)


def toggle_word_rows(value_words: np.ndarray, n_cycles: int) -> np.ndarray:
    """Packed toggle masks for ``(n_nets, n_words)`` value words.

    Bit ``t`` of row ``i`` is set iff rows ``t`` and ``t+1`` of net
    ``i`` differ; bits past ``n_cycles`` are zeroed so ``any()`` tests
    and unpacks are exact.
    """
    shifted = value_words >> _ONE
    if value_words.shape[-1] > 1:
        shifted[..., :-1] |= value_words[..., 1:] << _SIXTY_THREE
    tog = value_words ^ shifted
    n_full, rem = divmod(n_cycles, 64)
    if rem:
        tog[..., n_full] &= np.uint64((1 << rem) - 1)
        tog[..., n_full + 1:] = 0
    else:
        tog[..., n_full:] = 0
    return tog


# -- lowering -----------------------------------------------------------------


@dataclass(frozen=True)
class GateGroup:
    """All gates of one type at one logic level, in index-array form.

    Nets are renumbered during lowering so that a group's output nets
    occupy the contiguous row range ``[start, stop)`` of every per-net
    state array — group writes are slice views, only fanin reads
    gather.  Dead-cone groups (``live=False``) sort after every live
    group, so the run-path passes stop at ``n_live_rows`` and never
    touch them.
    """

    level: int
    gtype: GateType
    arity: int
    #: ``(n,)`` original gate indices — columns of the delay matrix.
    gate_idx: np.ndarray
    #: output rows ``start .. stop-1``, aligned with ``gate_idx``.
    start: int
    stop: int
    #: ``(arity, n)`` fanin *rows* (renumbered), pin-major.
    fanin: np.ndarray
    #: some primary output is structurally reachable from these gates.
    live: bool


@dataclass(frozen=True)
class ArrivalBlock:
    """One level's worth of live gates for the float arrival pass.

    The arrival recurrence ``max(fanin arrivals) + delay`` does not
    depend on the gate function, so the pass merges live value groups
    level-wise into wider blocks: all 1- and 2-input gates of a level
    form one block with a ``(2, n)`` fanin matrix (single-input gates
    duplicate their pin — ``max(x, x) == x`` exactly), 3-input muxes
    form another.  :meth:`CompiledNetlist.arrival_plan` splits blocks
    into cache-sized :class:`ArrivalStep` row ranges at run time.
    """

    level: int
    #: number of fanin rows carried per gate (2 or 3).
    width: int
    #: ``(n,)`` original gate indices — columns of the delay matrix.
    gate_idx: np.ndarray
    #: output rows ``start .. stop-1``, aligned with ``gate_idx``.
    start: int
    stop: int
    #: ``(width, n)`` fanin rows, pin-major.
    fanin: np.ndarray


@dataclass(frozen=True)
class ObserveLevel:
    """One logic level of the backward walk that finds the observable
    toggles (see :meth:`CompiledNetlist.observable_toggles`)."""

    #: the level's arrival rows ``start .. stop-1`` (its blocks are
    #: adjacent: constants, the only other gates, sit at level 0).
    start: int
    stop: int
    #: ``(n_edges,)`` consumer rows of the level's (fanin -> gate)
    #: edges, sorted by fanin row (duplicate pins dropped).
    gate_rows: np.ndarray
    #: start of each fanin row's run of edges in ``gate_rows``.
    seg_starts: np.ndarray
    #: ``(len(seg_starts),)`` the distinct fanin rows, ascending.
    fanin_rows: np.ndarray


@dataclass(frozen=True)
class ArrivalStep:
    """One cache-sized slice of an :class:`ArrivalBlock`, with the gate
    delays of one run's delay matrix.

    Steps run in level order: each writes its own output row range and
    reads only strictly-lower-level rows.
    """

    start: int
    stop: int
    #: ``(width * n,)`` fanin rows, pin-major flattened — one fancy
    #: gather materializes every pin, then pin ``k`` is the view
    #: ``g[k*n:(k+1)*n]``.
    fanin_flat: np.ndarray
    #: ``(n, n_corners, 1)`` float32 gate delays, broadcast over the
    #: chunk's cycles.
    delay: np.ndarray
    #: all fanins are level-0 rows (PI / constant arrivals), which are
    #: corner-independent — the fanin ``max`` collapses to 2-D.
    pi_cone: bool
    width: int


def _eval_group(gtype: GateType, ins: np.ndarray, shape) -> np.ndarray:
    """Evaluate one gate type on stacked per-gate value words.

    ``ins`` is ``(arity, n_gates, n_words)`` packed ``uint64``.
    """
    ones = _U64_ONES
    if gtype is GateType.CONST0:
        return np.zeros(shape, np.uint64)
    if gtype is GateType.CONST1:
        return np.full(shape, ones, np.uint64)
    if gtype is GateType.BUF:
        return ins[0]
    if gtype is GateType.NOT:
        return ins[0] ^ ones
    if gtype is GateType.AND2:
        return ins[0] & ins[1]
    if gtype is GateType.OR2:
        return ins[0] | ins[1]
    if gtype is GateType.NAND2:
        return (ins[0] & ins[1]) ^ ones
    if gtype is GateType.NOR2:
        return (ins[0] | ins[1]) ^ ones
    if gtype is GateType.XOR2:
        return ins[0] ^ ins[1]
    if gtype is GateType.XNOR2:
        return (ins[0] ^ ins[1]) ^ ones
    if gtype is GateType.MUX2:
        sel, d0, d1 = ins
        return (d0 & (sel ^ ones)) | (d1 & sel)
    raise ValueError(f"unknown gate type {gtype!r}")


class CompiledNetlist:
    """One netlist lowered to level-parallel structure-of-arrays form.

    Construction validates and levelizes the netlist once; use
    :func:`compile_netlist` to get the per-netlist cached instance.
    The program holds only flat arrays (no reference to the source
    :class:`Netlist`), so cache eviction is driven purely by the
    netlist's lifetime.

    Nets are renumbered into *program row order*: primary inputs first
    (rows ``0 .. n_inputs-1`` in declaration order), then each live
    group's outputs as one contiguous block, then the dead-cone groups
    — every row below ``n_live_rows`` can reach a primary output, and
    no live gate reads a dead row.  ``net_row`` maps original net ids
    to rows.  All kernel arrays (values, toggles, arrivals) use row
    order, which turns every group write into a slice view; only fanin
    reads gather.
    """

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.name = netlist.name
        self.n_nets = netlist.n_nets
        self.n_gates = len(netlist.gates)
        self.n_inputs = len(netlist.primary_inputs)
        self.n_outputs = len(netlist.primary_outputs)

        level = netlist.levelize()
        gates = netlist.gates

        # Dead-cone sweep: a gate is live iff a primary output is
        # reachable from its output.  Consumers always sit at strictly
        # higher levels, so one descending-level pass suffices.
        live_net = np.zeros(self.n_nets, dtype=bool)
        if self.n_outputs:
            live_net[np.asarray(netlist.primary_outputs)] = True
        gate_live = np.zeros(self.n_gates, dtype=bool)
        by_level_desc = sorted(range(self.n_gates),
                               key=lambda i: level[gates[i].output],
                               reverse=True)
        for idx in by_level_desc:
            gate = gates[idx]
            if live_net[gate.output]:
                gate_live[idx] = True
                for i in gate.inputs:
                    live_net[i] = True

        buckets: Dict[Tuple[bool, int, GateType], List[int]] = {}
        for idx, gate in enumerate(gates):
            key = (not gate_live[idx], level[gate.output], gate.gtype)
            buckets.setdefault(key, []).append(idx)

        # Group order: live groups first (dead-cone rows trail every
        # live row), then by level, then fanin-width class (constants /
        # 1-2 pins / 3 pins), then type — so the gates of each arrival
        # block (see below) are contiguous rows.
        def width_class(arity: int) -> int:
            return 0 if arity == 0 else (1 if arity <= 2 else 2)

        ordered = sorted(
            buckets,
            key=lambda k: (k[0], k[1], width_class(GATE_ARITY[k[2]]),
                           k[2].value))

        #: original net id -> program row
        self.net_row = np.empty(self.n_nets, dtype=np.int64)
        for row, net in enumerate(netlist.primary_inputs):
            self.net_row[net] = row
        cursor = self.n_inputs
        for key in ordered:
            for idx in buckets[key]:
                self.net_row[gates[idx].output] = cursor
                cursor += 1

        self.groups: List[GateGroup] = []
        cursor = self.n_inputs
        for dead, lvl, gtype in ordered:
            idxs = buckets[(dead, lvl, gtype)]
            arity = GATE_ARITY[gtype]
            self.groups.append(GateGroup(
                level=lvl, gtype=gtype, arity=arity,
                gate_idx=np.asarray(idxs, dtype=np.int64),
                start=cursor, stop=cursor + len(idxs),
                fanin=np.asarray(
                    [[self.net_row[gates[i].inputs[k]] for i in idxs]
                     for k in range(arity)],
                    dtype=np.int64).reshape(arity, len(idxs)),
                live=not dead,
            ))
            cursor += len(idxs)
        #: groups[:n_live_groups] are the live ones (they sort first).
        self.n_live_groups = sum(1 for g in self.groups if g.live)
        #: rows below this are PIs or live gate outputs; the run-path
        #: value/toggle/arrival passes never touch rows past it.
        self.n_live_rows = (self.groups[self.n_live_groups - 1].stop
                            if self.n_live_groups else self.n_inputs)
        self.n_levels = 1 + max((g.level for g in self.groups), default=0)
        #: primary-output rows, in declaration order (always live).
        self.po_rows = self.net_row[
            np.asarray(netlist.primary_outputs, dtype=np.int64)
        ] if self.n_outputs else np.empty(0, dtype=np.int64)

        # Arrival blocks (live gates only): merge each level's 1-2 pin
        # groups into one (2, n) block — single-pin gates duplicate
        # their fanin, which is exact under max — and its muxes into
        # one (3, n) block.  Live constant rows are collected for -inf
        # initialization; dead rows are never written or read.
        self.const_rows: List[Tuple[int, int]] = []
        self.arrival_blocks: List[ArrivalBlock] = []
        pending: Dict[Tuple[int, int], List[GateGroup]] = {}
        for g in self.groups[:self.n_live_groups]:
            if g.arity == 0:
                self.const_rows.append((g.start, g.stop))
            else:
                pending.setdefault((g.level, width_class(g.arity)),
                                   []).append(g)
        for (lvl, wclass), members in sorted(pending.items()):
            width = 2 if wclass == 1 else 3
            fanin_rows = []
            for g in members:
                fan = g.fanin
                if g.arity == 1:
                    fan = np.vstack([fan[0], fan[0]])
                fanin_rows.append(fan)
            self.arrival_blocks.append(ArrivalBlock(
                level=lvl, width=width,
                gate_idx=np.concatenate([g.gate_idx for g in members]),
                start=members[0].start, stop=members[-1].stop,
                fanin=np.concatenate(fanin_rows, axis=1),
            ))
        #: gates the arrival pass actually computes (live, non-const).
        self.n_arrival_gates = sum(
            b.stop - b.start for b in self.arrival_blocks)
        # Per-row view of the arrival blocks for the toggle-compacted
        # pass, which indexes every toggling (row, cycle) pair of a
        # chunk at once: gate column and fanin rows of each arrival row
        # (pin 2 only for 3-pin rows), and the blocks' row edges.
        self._row_gate = np.zeros(self.n_live_rows, dtype=np.int64)
        self._row_fanin = np.zeros((3, self.n_live_rows), dtype=np.int64)
        for b in self.arrival_blocks:
            self._row_gate[b.start:b.stop] = b.gate_idx
            self._row_fanin[:b.width, b.start:b.stop] = b.fanin
        self._block_edges = np.asarray(
            [b.start for b in self.arrival_blocks]
            + [b.stop for b in self.arrival_blocks[-1:]], dtype=np.int64)
        # Reverse plan of the observability walk, highest level first:
        # each level's (fanin -> gate) edges sorted by fanin row, so one
        # bitwise_or.reduceat folds every consumer into its fanin.  All
        # edges are sorted at once as int64 keys ordered by level (top
        # first), fanin row, gate row, and deduplicated, which drops the
        # repeated pin of single-input gates.  (np.unique would do both
        # but imports numpy.ma, ~1.7 MB of resident memory.)
        by_level: Dict[int, List[ArrivalBlock]] = {}
        for b in self.arrival_blocks:
            by_level.setdefault(b.level, []).append(b)
        n, top = max(1, self.n_live_rows), self.n_levels
        keys = np.sort(np.concatenate(
            [(((top - b.level) * n + b.fanin) * n
              + np.arange(b.start, b.stop)).ravel()
             for b in self.arrival_blocks] or [np.empty(0, np.int64)]))
        keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0
        fan_key, gate = np.divmod(keys, n)
        starts = np.flatnonzero(np.diff(fan_key, prepend=-1))
        # edge and segment bounds of every level rank at once
        key_at = np.searchsorted(keys, np.arange(top + 1) * n * n)
        seg_at = np.searchsorted(starts, key_at)
        self._observe_plan: List[ObserveLevel] = []
        for lvl in sorted(by_level, reverse=True):
            lo, hi = key_at[top - lvl], key_at[top - lvl + 1]
            seg = starts[seg_at[top - lvl]:seg_at[top - lvl + 1]]
            self._observe_plan.append(ObserveLevel(
                start=by_level[lvl][0].start, stop=by_level[lvl][-1].stop,
                gate_rows=gate[lo:hi], seg_starts=seg - lo,
                fanin_rows=fan_key[seg] % n))
        #: rows below the first arrival row: primary inputs and constants
        self._n_source_rows = (int(self._block_edges[0])
                               if self.arrival_blocks else self.n_live_rows)
        #: runs with at least this many corners take the toggle-compacted
        #: arrival pass, the rest the dense one
        self.compact_min_corners = int(np.ceil(
            _COMPACT_BASE_CORNERS + _COMPACT_DISPATCH_ROWS
            * len(self.arrival_blocks) / max(1, self.n_arrival_gates)))
        # Single-slot cache for the arrival scratch (see run): repeated
        # runs at the same corner count and chunk reuse it instead of
        # faulting in tens of MB of fresh pages per call.  Not
        # thread-safe, like the rest of the program state.
        self._scratch_cache: Optional[Tuple[tuple, np.ndarray]] = None

    # -- kernels -----------------------------------------------------------

    def settled_net_values(self, inputs: np.ndarray,
                           out: Optional[np.ndarray] = None,
                           pi_values: Optional[np.ndarray] = None,
                           live_only: bool = False) -> np.ndarray:
        """Settle nets for a stream of input rows.

        Returns per-net packed rows in program row order (see class
        docs): ``(n_rows_out, ceil(n_rows / 64))`` uint64 words, tail
        bits past the last row unspecified.  ``n_rows_out`` is
        ``n_nets``, or ``n_live_rows`` with ``live_only`` (the run
        path: dead-cone values cannot influence any output or delay).
        ``out`` reuses a previous result buffer; ``pi_values`` supplies
        pre-packed primary-input rows (chunked runs pack the stream
        once).
        """
        n_rows_out, n_groups = ((self.n_live_rows, self.n_live_groups)
                                if live_only
                                else (self.n_nets, len(self.groups)))
        width = (inputs.shape[0] + 63) // 64
        if out is not None and out.shape == (n_rows_out, width):
            values = out
        else:
            values = np.empty((n_rows_out, width), dtype=np.uint64)
        values[:self.n_inputs] = (pack_columns(inputs) if pi_values is None
                                  else pi_values)
        for g in self.groups[:n_groups]:
            values[g.start:g.stop] = _eval_group(
                g.gtype, values[g.fanin], (g.stop - g.start, width))
        return values

    @staticmethod
    def _quiet_mask(bits: np.ndarray) -> np.ndarray:
        """Quiet float mask of a ``(n_rows, n_cycles)`` toggle matrix.

        ``0.0`` where a row toggles and a huge negative sentinel where
        it is quiet, float32.  It is both the primary-input arrival
        initialization and the output mask of the dense arrival pass,
        built with two vectorized arithmetic ops — ``np.where``/table
        gathers over the same data are several times slower.
        """
        # cast-and-subtract in one ufunc pass: toggling -> 0.0, quiet -> -1.0
        mask = np.subtract(bits, np.uint8(1), dtype=np.float32)
        mask *= _QUIET_SENTINEL
        return mask

    def arrival_plan(self, delays: np.ndarray,
                     chunk_cycles: int) -> List[ArrivalStep]:
        """Split the arrival blocks into cache-sized steps for one run.

        Row ranges are capped so a step holds at most
        :data:`_SUB_BLOCK_ELEMS` arrival cells, which keeps its gathered
        fanins L2-resident across the max and the delay add.  Each step
        carries its gates' delay column for every corner.
        """
        # (n_live_rows, n_corners, 1): each row's gate delays, so every
        # step's delay column is a view
        row_delay = np.asarray(delays, dtype=np.float32).T[
            self._row_gate][:, :, None]
        n_sub = max(8, _SUB_BLOCK_ELEMS
                    // max(1, row_delay.shape[1] * chunk_cycles))
        steps: List[ArrivalStep] = []
        for b in self.arrival_blocks:
            n = b.stop - b.start
            for lo in range(0, n, n_sub):
                hi = min(lo + n_sub, n)
                steps.append(ArrivalStep(
                    start=b.start + lo, stop=b.start + hi,
                    fanin_flat=np.ascontiguousarray(
                        b.fanin[:, lo:hi].reshape(-1)),
                    delay=row_delay[b.start + lo:b.start + hi],
                    pi_cone=(b.level == 1), width=b.width))
        return steps

    def _arrival_chunk(self, quiet: np.ndarray, plan: List[ArrivalStep],
                       arr: np.ndarray, n_cycles: int) -> None:
        """Float arrival pass for one chunk into ``arr``.

        ``arr`` is ``(n_live_rows, n_corners, chunk)`` with ``chunk >=
        n_cycles`` (the ragged final chunk slices); ``quiet`` is the
        :meth:`_quiet_mask` of the chunk's ``n_cycles`` columns.  The
        worst toggling PO arrival per cycle, clamped at 0, is
        elementwise identical to the per-gate arrival pass, which masks
        quiet arrivals to ``-inf`` at every fanin read.  Here quiet
        arrivals are huge negative sentinels maintained at gate outputs
        instead, which is exact because:

        * a settled value cannot change unless an input changed, so
          every *toggling* gate has at least one toggling fanin whose
          arrival is real (``>= 0``); the fanin ``max`` therefore picks
          the same real arrival either way, and quiet-cycle sentinel
          values never leak into a toggling cycle's delay;
        * quiet arrivals stay far below 0 under any delay accumulation
          (see :data:`_QUIET_SENTINEL`) and are clamped to 0 by the
          final ``max(worst, 0)`` exactly as ``-inf`` is;
        * the output mask is applied by *adding* the quiet mask:
          toggling cycles add ``+0.0``, which preserves bits because
          real arrivals are positive, never ``-0.0``.

        The same argument licenses every fast path that only perturbs
        quiet values: the level-1 corner collapse reorders the adds to
        ``(max + mask) + delay`` (identical on toggling cycles where
        the mask is ``+0.0``), constants enter the 2-D level-1 max as
        the sentinel rather than ``-inf`` (both lose to any real
        arrival), and the toggle-compacted pass
        (:meth:`_compact_chunk`) never computes a quiet cell at all.
        """
        arr = arr[:, :, :n_cycles]
        arr[:self.n_inputs] = quiet[:self.n_inputs][:, None, :]
        for start, stop in self.const_rows:
            arr[start:stop] = NEG_INF  # constants never toggle
        for st in plan:
            n = st.stop - st.start
            seg = arr[st.start:st.stop]
            if st.pi_cone:
                # level-1 fanins (PI / constant arrivals) are corner-
                # independent: one 2-D max, quiet mask applied 2-D,
                # only the delay add runs over the corner axis
                g = quiet[st.fanin_flat]
                cand = np.maximum(g[:n], g[n:2 * n])
                for k in range(2, st.width):
                    np.maximum(cand, g[k * n:(k + 1) * n], out=cand)
                cand += quiet[st.start:st.stop]
                np.add(cand[:, None, :], st.delay, out=seg)
            else:
                # one stacked gather materializes every pin; the max
                # lands straight in the output segment
                g = arr[st.fanin_flat]
                np.maximum(g[:n], g[n:2 * n], out=seg)
                for k in range(2, st.width):
                    np.maximum(seg, g[k * n:(k + 1) * n], out=seg)
                seg += st.delay
                seg += quiet[st.start:st.stop][:, None, :]

    def observable_toggles(self, tog: np.ndarray) -> np.ndarray:
        """Packed mask of the toggling pairs a delay can read.

        ``tog`` holds the ``(n_live_rows, n_words)`` packed toggle
        words of one chunk (:func:`toggle_word_rows`).  A (row, cycle)
        pair is *kept* when it toggles and either is a primary output
        or feeds a kept pair; the dynamic delay is the latest arrival
        at a toggling output, so only kept pairs can reach it.  One
        walk down the levels finds them: seed the toggling outputs,
        then at each level, highest first, AND the level's rows with
        their toggles (every consumer has been folded in by then) and
        OR them into their fanins.  Rows below the first arrival row
        (primary inputs, constants) are ANDed last.
        """
        keep = np.zeros_like(tog)
        keep[self.po_rows] = tog[self.po_rows]
        for lv in self._observe_plan:
            keep[lv.start:lv.stop] &= tog[lv.start:lv.stop]
            keep[lv.fanin_rows] |= np.bitwise_or.reduceat(
                keep[lv.gate_rows], lv.seg_starts, axis=0)
        n_src = self._n_source_rows
        keep[:n_src] &= tog[:n_src]
        return keep

    def _compact_chunk(self, bits: np.ndarray, delays_t: np.ndarray,
                       scratch: np.ndarray) -> np.ndarray:
        """Toggle-compacted arrival pass for one chunk.

        ``bits`` is the ``(n_live_rows, n_cycles)`` uint8 0/1 matrix of the
        observable toggles (:meth:`observable_toggles`), ``delays_t``
        the ``(n_gates, n_corners)`` float32 delays and ``scratch`` a
        flat float32 buffer of at least ``(n_live_rows * n_cycles + 1)
        * n_corners`` elements.  Returns the worst PO arrival per
        (cycle, corner), ``(n_cycles, n_corners)``, before the clamp at
        0.

        Only the kept (row, cycle) pairs are computed.  Each owns one
        corner vector of a compact ``(pairs + 1, n_corners)`` store,
        listed row-major, so every arrival block's pairs are one
        contiguous slice of it.  Row 0 holds the quiet sentinel and an
        int32 map points every other (row, cycle) cell at it.  This is
        exact for the reasons :meth:`_arrival_chunk` gives: a toggling
        gate has a toggling fanin with a real arrival, quiet fanins
        read a value that loses every ``max``, and constants (which
        never toggle) read the sentinel like any quiet row.  Dropping
        the toggles no output can observe changes nothing: every
        toggling fanin of a kept pair is itself kept, so each kept
        ``max`` sees the same real arrivals, and the dropped pairs'
        sentinel is read by no kept pair and no toggling output.  The
        dense path's ``+0.0`` output mask is dropped, which keeps the
        bits of every non-negative arrival.
        """
        n_rows, n_cycles = bits.shape
        n_corners = delays_t.shape[1]
        flat = np.flatnonzero(bits.view(bool))
        n_pairs = flat.size
        store = scratch[:(n_pairs + 1) * n_corners].reshape(
            n_pairs + 1, n_corners)
        store[0] = -_QUIET_SENTINEL
        pair_of = np.zeros(n_rows * n_cycles, dtype=np.int32)
        pair_of[flat] = np.arange(1, n_pairs + 1, dtype=np.int32)
        # pairs below the first arrival row are primary-input toggles
        # (constants never toggle): they launch at the clock edge
        edges = np.searchsorted(flat, self._block_edges * n_cycles)
        first = int(edges[0]) if edges.size else n_pairs
        store[1:1 + first] = _ZERO

        # per-pair indices, once per chunk: gate column and the pair
        # each of the first two pins reads (3-pin blocks add pin 2)
        cell = flat[first:]
        rows = cell // n_cycles
        cyc = cell - rows * n_cycles
        gate = self._row_gate[rows]
        pins = [pair_of[self._row_fanin[k][rows] * n_cycles + cyc]
                for k in range(2)]
        step = max(1, _SUB_BLOCK_ELEMS // n_corners)
        for b, lo, hi in zip(self.arrival_blocks, edges[:-1] - first,
                             edges[1:] - first):
            if b.width == 3:
                pin2 = pair_of[self._row_fanin[2][rows[lo:hi]] * n_cycles
                               + cyc[lo:hi]]
            # cache-sized sub-blocks, like the dense pass: the gathered
            # pins stay L2-resident across the max and the delay add
            for s in range(lo, hi, step):
                e = min(s + step, hi)
                seg = store[1 + first + s:1 + first + e]
                np.take(store, pins[0][s:e], axis=0, out=seg)
                np.maximum(seg, store[pins[1][s:e]], out=seg)
                if b.width == 3:
                    np.maximum(seg, store[pin2[s - lo:e - lo]], out=seg)
                seg += delays_t[gate[s:e]]
        po = pair_of.reshape(n_rows, n_cycles)[self.po_rows]
        return store[po].max(axis=0)

    # -- public API --------------------------------------------------------

    def default_chunk_cycles(self, n_corners: int) -> int:
        """Cycle-axis chunk derived from the dense scratch footprint.

        The dense pass holds ``n_corners * chunk`` float32 per live
        row, so the chunk shrinks as the corner grid grows; a floor
        keeps per-level dispatch overhead amortized when the per-cycle
        footprint is large, a cap bounds single-corner scratch.  The
        compact pass uses the same chunk: at 100 corners its time is
        flat from 64 to 512 cycles, and its pair store grows with the
        chunk.
        """
        per_cycle = n_corners * max(1, self.n_live_rows)
        chunk = _CHUNK_BUDGET_ELEMS // per_cycle
        return int(min(1024, max(128, (chunk // 64) * 64)))

    def run(self, input_matrix: np.ndarray, gate_delays: np.ndarray,
            chunk_cycles: Optional[int] = None) -> np.ndarray:
        """Simulate a stream of input vectors across corners.

        Same contract (and bit-identical delays) as
        :meth:`repro.sim.levelized.LevelizedSimulator.run`; chunk
        boundaries never affect results because cycle ``t`` only reads
        input rows ``t`` and ``t+1``.  ``chunk_cycles`` defaults to
        :meth:`default_chunk_cycles`; an explicit value exists for the
        chunk-invariance parity tests.  Runs with at least
        :attr:`compact_min_corners` corners take the toggle-compacted
        arrival pass, the rest the dense one.
        """
        if chunk_cycles is not None and chunk_cycles < 1:
            raise ValueError("chunk_cycles must be >= 1")
        inputs = np.asarray(input_matrix, dtype=np.uint8)
        if inputs.ndim != 2 or inputs.shape[1] != self.n_inputs:
            raise ValueError(
                f"input matrix must be (rows, {self.n_inputs}), "
                f"got {inputs.shape}")
        if inputs.shape[0] < 2:
            raise ValueError(
                "need at least 2 input rows (initial state + 1 cycle)")
        delays = np.asarray(gate_delays, dtype=np.float32)
        if delays.ndim == 1:
            delays = delays[None, :]
        if delays.shape[1] != self.n_gates:
            raise ValueError(
                f"gate_delays must have {self.n_gates} per-gate "
                f"entries, got {delays.shape}")

        n_cycles = inputs.shape[0] - 1
        n_corners = delays.shape[0]
        if chunk_cycles is None:
            chunk_cycles = self.default_chunk_cycles(n_corners)
        chunk_cycles = min(chunk_cycles, n_cycles)
        out_delays = np.zeros((n_corners, n_cycles), dtype=np.float32)
        compact = n_corners >= self.compact_min_corners

        # the primary inputs are packed once (chunks start at 64-cycle
        # boundaries, so packed chunks are word slices of the stream)
        all_pi = pack_columns(inputs)

        # scratch reused across chunks (the ragged final chunk slices)
        # and across runs at the same corner count / chunk (single-slot
        # cache — repeated runs skip faulting in a fresh multi-MB array).
        # One flat buffer serves either kernel: the dense pass views it
        # as (n_live_rows, n_corners, chunk), the compact pass as its
        # pair store (at most one pair per live row and cycle, plus
        # the sentinel row; only the touched pages become resident).
        val_buf: Optional[np.ndarray] = None
        scratch_key = (n_corners, chunk_cycles)
        if self._scratch_cache is not None \
                and self._scratch_cache[0] == scratch_key:
            scratch = self._scratch_cache[1]
        else:
            scratch = np.empty((self.n_live_rows * chunk_cycles + 1)
                               * n_corners, dtype=np.float32)
            self._scratch_cache = (scratch_key, scratch)
        # the delays in the layout each kernel reads: gate-major rows
        # for the compact pass, per-step delay columns for the dense one
        if compact:
            delays_t = np.ascontiguousarray(delays.T)
        else:
            plan = self.arrival_plan(delays, chunk_cycles)
            arr_buf = scratch[:self.n_live_rows * n_corners
                              * chunk_cycles].reshape(
                self.n_live_rows, n_corners, chunk_cycles)
        start = 0
        while start < n_cycles:
            stop = min(start + chunk_cycles, n_cycles)
            chunk = inputs[start:stop + 1]
            chunk_rows = chunk.shape[0]
            if start % 64 == 0:
                w0 = start // 64
                pi_vals = all_pi[:, w0:w0 + (chunk_rows + 63) // 64]
            else:  # explicit chunk_cycles not word-aligned
                pi_vals = pack_columns(chunk)
            values = self.settled_net_values(chunk, out=val_buf,
                                             pi_values=pi_vals,
                                             live_only=True)
            val_buf = values
            tog = toggle_word_rows(values, chunk_rows - 1)
            if compact:
                if self.n_outputs:
                    bits = np.unpackbits(
                        self.observable_toggles(tog).view(np.uint8),
                        axis=1, count=chunk_rows - 1, bitorder="little")
                    worst = self._compact_chunk(bits, delays_t, scratch)
                    out_delays[:, start:stop] = np.maximum(worst.T, _ZERO)
            else:
                bits = np.unpackbits(tog.view(np.uint8), axis=1,
                                     count=chunk_rows - 1, bitorder="little")
                self._arrival_chunk(self._quiet_mask(bits), plan, arr_buf,
                                    chunk_rows - 1)
                if self.n_outputs:
                    arr = arr_buf[:, :, :chunk_rows - 1]
                    worst = arr[self.po_rows].max(axis=0)
                    out_delays[:, start:stop] = np.maximum(worst, _ZERO)
            start = stop
        return out_delays

    def run_values(self, input_matrix: np.ndarray) -> np.ndarray:
        """Settled output values only: ``(n_rows, n_outputs)`` uint8."""
        inputs = np.asarray(input_matrix, dtype=np.uint8)
        if inputs.ndim != 2 or inputs.shape[1] != self.n_inputs:
            raise ValueError("bad input matrix shape")
        values = self.settled_net_values(inputs, live_only=True)
        po_vals = np.unpackbits(
            np.ascontiguousarray(values[self.po_rows]).view(np.uint8),
            axis=1, count=inputs.shape[0], bitorder="little")
        return np.ascontiguousarray(po_vals.T)


#: id(netlist) -> (weakref to netlist, program); evicted when the
#: netlist is garbage collected so id reuse can never alias programs.
_PROGRAM_CACHE: Dict[int, Tuple[weakref.ref, CompiledNetlist]] = {}

def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Lower ``netlist`` to a :class:`CompiledNetlist`, cached per identity.

    The cache is keyed by object identity (netlists are mutable and
    unhashable) and guarded by a weak reference: a hit is only served
    while the original object is alive, and entries disappear with it.
    A netlist must not be mutated after its first simulation — the
    lowered program would go stale.
    """
    key = id(netlist)
    entry = _PROGRAM_CACHE.get(key)
    if entry is not None and entry[0]() is netlist:
        return entry[1]
    program = CompiledNetlist(netlist)
    try:
        ref = weakref.ref(netlist,
                          lambda _, key=key: _PROGRAM_CACHE.pop(key, None))
    except TypeError:  # pragma: no cover - netlists support weakrefs
        return program
    _PROGRAM_CACHE[key] = (ref, program)
    return program

