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
packed; they run on the float32 arrival kernel below.

The multi-corner regime — every paper table simulates the full
operating-condition grid — is where the arrival pass spends its time,
so the kernels are organized around it:

* **Dead-cone segregation.**  Gates from whose output no primary
  output is reachable cannot influence any delay; lowering orders
  their rows after every live row, and the simulation passes stop at
  ``n_live_rows`` — a 32-bit array multiplier carries ~17% dead logic
  (unused carry/sign cells) that the per-gate engines dutifully
  simulate.
* **Corner-major scratch tiles.**  The arrival scratch is
  ``(n_live_rows, n_corners, chunk)`` float32: each net owns one
  contiguous ``(n_corners, chunk)`` tile, so per-block gathers move
  whole tiles and every elementwise op runs contiguous inner loops
  whatever the corner count.
* **Level-1 corner collapse.**  Primary inputs launch at the clock
  edge for *every* corner, so the fanin ``max`` of a level-1 gate is
  corner-independent: it is computed once on 2-D ``(n, chunk)`` rows
  and only the delay add touches the corner axis.  On an array
  multiplier the whole partial-product plane sits at level 1.
* **Cache-sized sub-blocks.**  Arrival blocks are split into row
  ranges whose gather/output tiles fit L2 (:data:`_SUB_BLOCK_ELEMS`),
  so the 3-4 elementwise ops of a sub-block re-read cache-hot data
  instead of round-tripping a multi-megabyte block through DRAM.
* **Quiet-block skipping.**  A sub-block none of whose outputs toggle
  anywhere in a chunk is filled with the quiet sentinel in one write —
  the sparsity-aware level loop that makes low-activity (application
  stream) chunks cheap.
* **Hoisted delay tiles.**  Per-sub-block ``(n, n_corners, chunk)``
  delay tiles are corner×gate constants, built once per ``run`` and
  only sliced per chunk.

Delays are **bit-identical** to the per-gate reference engine: every
float32 operation on a *toggling* cycle is reproduced elementwise in
the same order (``max`` over fanins in pin order, add the gate delay,
add the ``+0.0`` toggle mask), and quiet-cycle values — which the
per-gate engine pins to ``-inf`` and these kernels hold at huge
negative sentinels — never reach a toggling cycle's delay (see
:meth:`CompiledNetlist._arrival_chunk`).  The engine parity tests
assert this against the ``levelized_ref`` reference path.

Programs are cached per netlist identity (a ``weakref``-evicted map),
so repeated ``run_delays`` calls — e.g. one per campaign shard — pay
for validation, levelization, and lowering exactly once per process.
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

#: float32 elements of the per-corner-cycle arrival state (scratch row
#: + delay tile) allowed per chunk, i.e. chunks are sized so
#: ``n_corners * (n_live_rows + n_arrival_gates) * chunk`` stays under
#: this.  With the sub-blocked level loop the sweet spot is set by
#: dispatch amortization against total scratch traffic, not LLC size —
#: empirically flat from ~40 MB up on the paper FUs, rising sharply
#: below ~128 cycles per chunk.
_CHUNK_BUDGET_ELEMS = 14 * 1024 * 1024

#: float32 elements per arrival sub-block: row ranges are split so the
#: gathered fanin tile and the output segment (~2x this in bytes) stay
#: L2-resident across the 3-4 elementwise ops applied to them.  96k
#: elems = 384 KB per tile, sized for ~1-2 MB L2 slices; measured ~30%
#: faster than monolithic blocks on the 9-corner multiplier pass.
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
class ArrivalStep:
    """One cache-sized slice of an :class:`ArrivalBlock`, with the
    delay tile for a concrete ``(delay matrix, chunk)`` pair baked in.

    Steps run in level order: each writes its own output row range and
    reads only strictly-lower-level rows.
    """

    start: int
    stop: int
    #: ``(width * n,)`` fanin rows, pin-major flattened — one fancy
    #: gather materializes every pin, then pin ``k`` is the view
    #: ``g[k*n:(k+1)*n]``.
    fanin_flat: np.ndarray
    #: ``(n, n_corners, chunk)`` float32 gate-delay tile.
    dtile: np.ndarray
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
        # Single-slot caches for the per-run arrays (see arrival_plan /
        # run): repeated runs at the same corner count reuse the delay
        # tiles and the arrival scratch instead of faulting in tens of
        # MB of fresh pages per call.  Not thread-safe, like the rest
        # of the program state.
        self._plan_cache: Optional[Tuple[tuple, List[ArrivalStep]]] = None
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

    def _quiet_and_active(self, values: np.ndarray, n_cycles: int
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Quiet float mask plus per-row chunk activity.

        The mask is ``0.0`` where a row toggles and a huge negative
        sentinel where it is quiet, ``(n_rows, n_cycles)`` float32.  It
        is both the primary-input arrival initialization and the output
        mask of the arrival pass, built with two vectorized arithmetic
        ops — ``np.where``/table gathers over the same data are several
        times slower.  ``active[i]`` is True iff row ``i`` toggles at
        least once in the chunk; rows that never toggle let the arrival
        pass skip whole sub-blocks.
        """
        tog = toggle_word_rows(values, n_cycles)
        active = tog.any(axis=1)
        bits = np.unpackbits(tog.view(np.uint8), axis=1,
                             count=n_cycles, bitorder="little")
        # cast-and-subtract in one ufunc pass: toggling -> 0.0, quiet -> -1.0
        mask = np.subtract(bits, np.uint8(1), dtype=np.float32)
        mask *= _QUIET_SENTINEL
        return mask, active

    def arrival_plan(self, delays: np.ndarray,
                     chunk_cycles: int) -> List[ArrivalStep]:
        """Split the arrival blocks into cache-sized steps for one run.

        Each step carries its ``(n, n_corners, chunk)`` gate-delay
        tile: the delay column is materialized across the cycle axis
        so the arrival add runs contiguous-over-contiguous (a
        zero-stride broadcast operand defeats SIMD and is ~2x slower).
        Tiles are corner×gate constants — built once per :meth:`run`,
        outside the chunk loop, and only sliced for the ragged final
        chunk.  Row ranges are capped at :data:`_SUB_BLOCK_ELEMS`
        elements so each step's tiles stay L2-resident across its ops.

        Plans (the tiles are the better part of the run's allocations)
        are cached single-slot per program: repeated runs with the same
        delay matrix and chunk — bench reps, campaign shards in a warm
        worker, the serving fallback — reuse the previous plan instead
        of re-materializing tens of MB of tiles.
        """
        delays = np.ascontiguousarray(delays, dtype=np.float32)
        # exact key: the raw delay bytes (~150 KB for the largest FU) —
        # a digest could collide and silently serve another matrix's
        # tiles, voiding the bit-identical contract
        cache_key = (delays.tobytes(), delays.shape, int(chunk_cycles))
        cached = self._plan_cache
        if cached is not None and cached[0] == cache_key:
            return cached[1]
        n_corners = delays.shape[0]
        n_sub = max(8, _SUB_BLOCK_ELEMS // max(1, n_corners * chunk_cycles))
        delays_t = np.ascontiguousarray(delays.T)  # (n_gates, n_corners)
        steps: List[ArrivalStep] = []
        for b in self.arrival_blocks:
            n = b.stop - b.start
            for lo in range(0, n, n_sub):
                hi = min(lo + n_sub, n)
                gi = b.gate_idx[lo:hi]
                dtile = np.ascontiguousarray(np.broadcast_to(
                    delays_t[gi][:, :, None],
                    (hi - lo, n_corners, chunk_cycles)))
                steps.append(ArrivalStep(
                    start=b.start + lo, stop=b.start + hi,
                    fanin_flat=np.ascontiguousarray(
                        b.fanin[:, lo:hi].reshape(-1)),
                    dtile=dtile, pi_cone=(b.level == 1), width=b.width))
        self._plan_cache = (cache_key, steps)
        return steps

    def _arrival_chunk(self, quiet: np.ndarray, plan: List[ArrivalStep],
                       arr: np.ndarray, n_cycles: int,
                       active: Optional[np.ndarray]) -> None:
        """Float arrival pass for one chunk into ``arr``.

        ``arr`` is ``(n_live_rows, n_corners, chunk)`` with ``chunk >=
        n_cycles`` (the ragged final chunk slices); ``quiet`` is the
        :meth:`_quiet_and_active` mask with ``n_cycles`` columns and
        ``active`` its per-row chunk activity.  The worst toggling PO
        arrival per cycle, clamped at 0, is elementwise identical to
        the per-gate arrival pass, which masks quiet arrivals to
        ``-inf`` at every fanin read.  Here quiet arrivals are huge
        negative sentinels maintained at gate outputs instead, which is
        exact because:

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
        arrival), and fully-quiet sub-blocks are filled with the raw
        sentinel instead of computed (every skipped value is quiet by
        construction).
        """
        full = arr.shape[2] == n_cycles
        arr = arr if full else arr[:, :, :n_cycles]
        arr[:self.n_inputs] = quiet[:self.n_inputs][:, None, :]
        for start, stop in self.const_rows:
            arr[start:stop] = NEG_INF  # constants never toggle
        if active is not None and plan:
            # one reduceat gives per-step chunk activity (step row
            # ranges tile the arrival rows back-to-back) — replaces a
            # per-step .any() dispatch
            starts = np.fromiter((st.start for st in plan),
                                 dtype=np.int64, count=len(plan))
            step_active = np.maximum.reduceat(
                active.view(np.uint8), starts)
        else:
            step_active = None

        for si, st in enumerate(plan):
            if step_active is not None and not step_active[si]:
                # nothing in this row range toggles anywhere in the
                # chunk: every output is quiet, any huge negative value
                # is as good as the computed one (see docstring)
                arr[st.start:st.stop] = -_QUIET_SENTINEL
                continue
            n = st.stop - st.start
            dtile = st.dtile if full else st.dtile[:, :, :n_cycles]
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
                np.add(cand[:, None, :], dtile, out=seg)
            else:
                # one stacked gather materializes every pin; the max
                # lands straight in the output segment
                g = arr[st.fanin_flat]
                np.maximum(g[:n], g[n:2 * n], out=seg)
                for k in range(2, st.width):
                    np.maximum(seg, g[k * n:(k + 1) * n], out=seg)
                seg += dtile
                seg += quiet[st.start:st.stop][:, None, :]

    # -- public API --------------------------------------------------------

    def default_chunk_cycles(self, n_corners: int) -> int:
        """Cycle-axis chunk derived from the corner-major footprint.

        The arrival pass holds ``n_corners * chunk`` float32 per live
        row (scratch) plus the same per arrival gate (delay tiles), so
        the chunk shrinks as the corner grid grows; a floor keeps
        per-level dispatch overhead amortized when the per-cycle
        footprint is large, a cap bounds single-corner scratch.
        """
        per_cycle = n_corners * max(1, self.n_live_rows
                                    + self.n_arrival_gates)
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
        chunk-invariance parity tests.
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

        # per-run hoists: the arrival plan (delay tiles + fanin slices)
        # is chunk-invariant, and the primary inputs are packed once
        # (chunks start at 64-cycle boundaries, so packed chunks are
        # word slices of the stream)
        plan = self.arrival_plan(delays, chunk_cycles)
        all_pi = pack_columns(inputs)

        # scratch reused across chunks (the ragged final chunk slices)
        # and across runs at the same corner count / chunk (single-slot
        # cache — repeated runs skip faulting in a fresh multi-MB array)
        val_buf: Optional[np.ndarray] = None
        scratch_key = (n_corners, chunk_cycles)
        if self._scratch_cache is not None \
                and self._scratch_cache[0] == scratch_key:
            arr_buf = self._scratch_cache[1]
        else:
            arr_buf = np.empty((self.n_live_rows, n_corners,
                                chunk_cycles), dtype=np.float32)
            self._scratch_cache = (scratch_key, arr_buf)
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
            quiet, row_active = self._quiet_and_active(
                values, chunk_rows - 1)
            self._arrival_chunk(quiet, plan, arr_buf, chunk_rows - 1,
                                row_active)
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

