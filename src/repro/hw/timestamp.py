"""Timestamp engine: one merge stage solved as a max-plus fixed point.

The tick loop (:class:`~repro.hw.clock.Simulation`) advances every
component one cycle at a time.  This engine computes the same stage
without ticking, from two observations:

* **Data is independent of timing.**  A k-merger consumes its ports in
  the stable merge order of their head tuples' leading keys (the
  :mod:`repro.hw.merger` docstring), and emits the sorted records of
  everything it consumed in k-record tuples; a coupler pairs its input
  tuples; the loader carves each leaf's runs into the same batches
  whatever the cycle.  So every FIFO's item stream and every
  component's action list follow from the keys alone, with numpy.
* **Timing is a max-plus recurrence.**  Tick order within a cycle is the
  writer, then ``tree.components`` root to leaf (a merger's couplers
  just before it), then the loader.  An item pushed at cycle ``t`` is
  seen by its consumer at ``t`` when the consumer ticks later in the
  cycle and at ``t + 1`` otherwise; a freed slot reaches the producer
  by the same rule.  Coupler-to-merger FIFOs are therefore push +0 /
  pop +1, and every other FIFO push +1 / pop +0.  A component's action
  ``s`` (one per tick at most) fires at ``t_s = max(t_{s-1} + 1, E_s)``,
  where ``E_s`` is the latest of the cycles at which the items it needs
  become visible and at which its output slot frees — one
  ``np.maximum.accumulate`` per component.

Each FIFO carries two int32 arrays: ``V[i]``, the cycle its consumer
first sees item ``i``, and ``W[i]``, the cycle its producer first sees
item ``i``'s slot free.  :func:`solve` sweeps Gauss-Seidel style —
loader, merger and coupler levels leaf to root, writer — until a whole
sweep changes no array.  Every dependency cycle in the stage crosses a
+1 edge (a slot cannot free in the cycle it fills), so each time is
determined by strictly earlier events and the fixed point is unique: by
induction over (cycle, tick position) it is the tick loop's trajectory.
The sweeps have no cap, and they need not rise monotonically: the
loader's round robin serves the first feed with room, so a later pop on
one leaf can let another leaf's batch go out earlier.  They end all the
same.  After each sweep there is a cycle ``T`` below which every time is
exact and above which every time is at least ``min(its fixed-point
value, T)``; exact times below ``T`` decide every action up to ``T``,
so ``T`` rises at least once every few sweeps (a slot freed in the cycle
it is seen travels one level against the sweep order per sweep) until
it passes the stage's last cycle.  The engine only ever returns a
verified fixed point.  It needs only the keys' order, taken as their
dense ranks, so keys of any dtype solve alike.  It solves timing only:
a :class:`Solution` holds the cycles and counters, and the merged runs
come from the stage's group sort (:func:`repro.engine.stage.sort_groups`),
since which records leave a stage follows from the keys alone.

A sweep is gathers, a running maximum and stores over buffers built
once per stage.  Each level keeps its last action times (and, for
mergers, its port terminals' retirements) in an int32 buffer; a solve
gathers the new ones into a scratch buffer shared by all levels and
compares the two once.  Every merger and coupler action pushes or pops
exactly one item at its own time plus a constant, and every retirement
is a pop, so the level's pushes and pops changed exactly when that
compare fails: only then are they taken, through int32 index arrays,
straight into the level's V and W slices.  A level reads only its input
FIFOs' V and its output FIFOs' W (the loader only the leaves' W, the
writer only the root's V), so a solve whose inputs have not changed
since it last ran would rewrite what it wrote then, and the sweep skips
it.  Skipping moves no iterate: every sweep ends with the arrays a full
sweep would leave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.hw.loader import batch_pieces, leaf_positions
from repro.hw.probes import LoaderStats, MergerStats
from repro.obs.runtime import observation

#: Largest cycle the int32 time arrays may hold.
_TIME_LIMIT = 1 << 30


@dataclass
class Solution:
    """A solved stage's timing: everything ``StageStats`` reports."""

    cycles: int
    merger_stats: list[MergerStats]
    loader_stats: LoaderStats
    bytes_written: int
    sweeps: int


def first_unsorted(keys: np.ndarray, lengths: np.ndarray) -> tuple[int, int] | None:
    """``(run index, offset)`` of the first key below its predecessor."""
    if keys.size < 2:
        return None
    drops = keys[1:] < keys[:-1]
    ends = np.cumsum(lengths)
    boundary = ends[(ends > 0) & (ends < keys.size)] - 1
    drops[boundary] = False
    if not drops.any():
        return None
    position = int(np.argmax(drops)) + 1
    run = int(np.searchsorted(ends, position, side="right"))
    return run, position - int(ends[run] - lengths[run])


def _exclusive(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums, int32."""
    out = np.cumsum(values, dtype=np.int32)
    out -= values
    return out


def _segment_index(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments of ``counts`` items laid end to end: each item's
    segment and its index within the segment (int32)."""
    segment = np.repeat(np.arange(counts.size, dtype=np.int32), counts)
    local = np.arange(segment.size, dtype=np.int32)
    local -= np.take(_exclusive(counts), segment)
    return segment, local


@dataclass
class _Block:
    """A row of FIFOs, one per stream, laid out contiguously in V/W.

    ``counts[x, g]`` is stream ``x``'s data tuples in group ``g``; each
    group ends in one terminal.  ``offsets[x, g]`` is the global index
    of group ``g``'s first item.  ``v_step`` and ``w_step`` are the
    sweep steps at which the block's V and W last changed.
    """

    lo: int
    hi: int
    counts: np.ndarray
    offsets: np.ndarray
    capacity: int
    push_delay: int
    pop_delay: int
    v_step: int = 0
    w_step: int = 0

    @classmethod
    def layout(cls, base, counts, capacity, push_delay, pop_delay) -> "_Block":
        counts = counts.astype(np.int32)
        items = (counts + 1).reshape(-1)
        offsets = (base + _exclusive(items)).reshape(counts.shape)
        return cls(
            base, base + int(items.sum()), counts, offsets,
            capacity, push_delay, pop_delay,
        )

    def terminal(self) -> np.ndarray:
        """Global index of each (stream, group) terminal."""
        return self.offsets + self.counts

    def slot_index(self, items: np.ndarray, streams: np.ndarray, dummy: int) -> np.ndarray:
        """Index into W of the slot each of ``items`` waits for: the
        item ``capacity`` places earlier in its FIFO, else ``dummy``."""
        earlier = items - self.capacity
        first = np.take(self.offsets[:, 0], streams)
        return np.where(earlier >= first, earlier, dummy).astype(np.int32, copy=False)


@dataclass
class _Level:
    """One row of identical components (a tree level's mergers or its
    couplers), solved by one batched pass per sweep.

    ``t`` holds the last solve's action times followed, for a merger
    level, by each port terminal's retirement.
    """

    #: V indices every action needs visible, W index of its output slot
    need_a: np.ndarray
    need_b: np.ndarray | None
    slot: np.ndarray
    #: the pushing actions in output item order, and where each input
    #: item's pop time sits in ``t``
    push: np.ndarray
    pop: np.ndarray
    out: _Block
    inp: _Block
    #: per component: [start, stop) of its actions
    bounds: list[tuple[int, int]]
    #: each component's last action: its latest time, and a push
    ends: np.ndarray
    #: merger: per (port stream, group) terminal, its V index, the
    #: action it follows (``first``: the terminals with none) and the
    #: next action's slot
    term_need: np.ndarray | None = None
    term_anchor: np.ndarray | None = None
    term_first: np.ndarray | None = None
    term_slot: np.ndarray | None = None
    #: merger: first action and data tuples of each (merger, group)
    block_start: np.ndarray | None = None
    n: np.ndarray | None = None
    #: the sweep step of the last solve
    ran: int = 0

    def __post_init__(self) -> None:
        self.actions = self.need_a.size
        terms = 0 if self.term_need is None else self.term_need.size
        self.t = np.full(self.actions + terms, -1, dtype=np.int32)


class _Stage:
    """The static structure of one stage and its Gauss-Seidel sweep."""

    def __init__(self, tree, keys, lengths, loader, writer) -> None:
        self.tree = tree
        self.depth = depth = tree.depth
        leaves = tree.leaves
        self.groups = groups = max(1, -(-lengths.size // leaves))
        tuple_width = tree.leaf_width
        self.widths = [tree.merger_width_at(level) for level in range(depth)]

        # Which leaf each run feeds: run g*l + j goes to the leaf whose
        # position is j (make_feeds).
        leaf_of = np.empty(leaves, dtype=np.int64)
        leaf_of[leaf_positions(leaves)] = np.arange(leaves)
        run_index = np.arange(lengths.size)
        self.run_leaf = leaf_of[run_index % leaves]
        self.run_group = run_index // leaves
        self.lengths = lengths
        leaf_len = np.zeros((leaves, groups), dtype=np.int64)
        leaf_len[self.run_leaf, self.run_group] = lengths

        # Dense key ranks: equal keys tie, the sentinel ranks above all.
        # Ties take one rank whatever their order, so any sort will do.
        order = np.argsort(keys)
        ordered = keys[order]
        step = np.zeros(keys.size, dtype=np.int32)
        np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
        del ordered
        np.cumsum(step, out=step)
        self.sentinel = int(step[-1]) + 1 if keys.size else 0
        self.rank = np.empty_like(step)
        self.rank[order] = step
        del order, step

        # One index space for every FIFO's items; the extra last slot is
        # a W entry that is always free.
        internal = tree.root_fifo.capacity
        coupled = [
            level + 1 < depth and self.widths[level + 1] < self.widths[level]
            for level in range(depth)
        ]
        ports: list[_Block] = [None] * depth
        pres: list[_Block | None] = [None] * depth
        ports[depth - 1] = block = _Block.layout(
            0, -(-leaf_len // tuple_width), tree.leaf_fifos[0].capacity, 1, 0
        )
        outs: list[_Block] = [None] * depth
        for level in range(depth - 1, 0, -1):
            port = ports[level].counts
            merged = port[0::2] + port[1::2]
            if coupled[level - 1]:
                pres[level - 1] = outs[level] = block = _Block.layout(
                    block.hi, merged, internal, 1, 0
                )
                ports[level - 1] = block = _Block.layout(
                    block.hi, -(-merged // 2), internal, 0, 1
                )
            else:
                ports[level - 1] = outs[level] = block = _Block.layout(
                    block.hi, merged, internal, 1, 0
                )
        port = ports[0].counts
        self.root = outs[0] = _Block.layout(block.hi, port[0::2] + port[1::2], internal, 1, 0)
        self.ports = ports
        self.dummy = self.root.hi
        self.V = np.zeros(self.dummy + 1, dtype=np.int32)
        self.W = np.zeros(self.dummy + 1, dtype=np.int32)

        # Sweep order: leaf to root, a level's couplers after the level
        # below them.
        self.levels: list[_Level] = []
        self.merger_levels: dict[int, _Level] = {}
        for level in range(depth - 1, -1, -1):
            self.merger_levels[level] = lv = self._merger_level(level, outs[level])
            self.levels.append(lv)
            if level and coupled[level - 1]:
                self.levels.append(self._coupler_level(pres[level - 1], ports[level - 1]))
        del self.rank
        self._carve_batches(leaf_len, tuple_width, loader)
        widest = max(self.leaf_slot.size, *(lv.t.size for lv in self.levels))
        self.steps = np.arange(widest, dtype=np.int32)
        self.fresh = np.empty(widest, dtype=np.int32)
        self.scratch = np.empty(widest, dtype=np.int32)
        self.step = self.loaded = self.written = self.top = 0
        self.write_rate = writer.write_bytes_per_cycle
        self.root_cost = tree.p * loader.record_bytes

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _lead_ranks(self, level: int, tuple_seg: np.ndarray, tuple_j: np.ndarray) -> np.ndarray:
        """Dense rank of each port tuple's leading key at ``level``, in
        (stream, group, tuple) order; pads lead with the sentinel rank."""
        counts = self.ports[level].counts
        streams, groups = counts.shape
        scale = self.sentinel + 1
        run_seg = (self.run_leaf >> (self.depth - 1 - level)) * groups + self.run_group
        packed = np.repeat(run_seg * scale, self.lengths)
        packed += self.rank
        packed.sort()
        sizes = np.zeros(streams * groups, dtype=np.int64)
        np.add.at(sizes, run_seg, self.lengths)
        offset = tuple_j * self.widths[level]
        real = offset < np.take(sizes, tuple_seg)
        offset += np.take(_exclusive(sizes), tuple_seg)
        offset[~real] = 0
        lead = packed[offset] if packed.size else np.zeros(offset.size, dtype=np.int64)
        del packed, offset
        lead -= tuple_seg.astype(np.int64) * scale
        lead[~real] = self.sentinel
        return lead

    def _merger_level(self, level: int, out: _Block) -> _Level:
        inp = self.ports[level]
        groups = self.groups
        n_ports = inp.counts.reshape(-1)
        n_a = inp.counts[0::2].reshape(-1)
        n_b = inp.counts[1::2].reshape(-1)
        n = n_a + n_b                                   # per (merger, group)
        blocks = np.where(n > 0, n + 2, 1).astype(np.int32)
        block_start = _exclusive(blocks)
        total = int(blocks.sum())
        terms = inp.terminal()
        term_a = terms[0::2].reshape(-1)
        term_b = terms[1::2].reshape(-1)
        terms = terms.reshape(-1)

        # Per action: consumes take a group's first n slots, then come a
        # flush and a terminal, which need both ports at their terminal.
        # Every action but a group's priming consume pushes one item.
        seg, local = _segment_index(blocks)
        need_a = np.take(term_a, seg)
        need_b = np.take(term_b, seg)
        push = (local >= 1) | (np.take(n, seg) == 0)
        local -= 1
        np.maximum(local, 0, out=local)
        local += np.take(out.offsets.reshape(-1), seg)
        slot = out.slot_index(local, seg // groups, self.dummy)
        del seg, local

        # Consumes: the stable merge of the ports' leading keys, port a
        # first on ties, as rank r of each (merger, group).
        tuple_seg, tuple_j = _segment_index(n_ports)
        key = self._lead_ranks(level, tuple_seg, tuple_j)
        pair = (tuple_seg // groups >> 1) * groups + tuple_seg % groups
        key += pair.astype(np.int64) * (self.sentinel + 1)
        rank = np.empty_like(tuple_j)
        rank[np.argsort(key, kind="stable")] = _segment_index(n)[1]
        del key
        act = np.take(block_start, pair) + rank
        before = np.where((tuple_seg // groups) & 1, rank - tuple_j, tuple_j)
        need_a[act] = np.take(term_a - n_a, pair) + before
        before -= rank
        need_b[act] = np.take(term_b - n_b, pair) - before
        del before, rank, pair

        # Each input item's pop: its consume, or for a terminal the
        # retirement slot after all actions.
        pop_src = np.empty(inp.hi - inp.lo, dtype=np.int32)
        pop_src[np.take(inp.offsets.reshape(-1) - inp.lo, tuple_seg) + tuple_j] = act
        term_index = np.arange(terms.size, dtype=np.int32)
        pop_src[terms - inp.lo] = total + term_index

        # A port's terminal retires, at no cycle cost, after its last
        # consume (or the previous group's terminal action) and no
        # later than the action that follows.
        last = np.full(terms.size, -1, dtype=np.int32)
        is_last = tuple_j == n_ports[tuple_seg] - 1
        last[tuple_seg[is_last]] = act[is_last]
        del tuple_seg, tuple_j, act, is_last
        pair = (term_index // groups >> 1) * groups + term_index % groups
        first = (term_index % groups == 0) & (last < 0)
        following = np.where(last >= 0, last + 1, block_start[pair])
        anchor = np.where(first, 0, following - 1).astype(np.int32)

        starts = block_start.reshape(-1, groups)[:, 0]
        stops = np.append(starts[1:], total)
        return _Level(
            need_a=need_a, need_b=need_b, slot=slot,
            push=np.flatnonzero(push).astype(np.int32), pop=pop_src, out=out, inp=inp,
            bounds=list(zip(starts.tolist(), stops.tolist())),
            ends=(stops - 1).astype(np.int32),
            term_need=terms, term_anchor=anchor,
            term_first=np.flatnonzero(first).astype(np.int32), term_slot=slot[following],
            block_start=block_start, n=n,
        )

    def _coupler_level(self, inp: _Block, out: _Block) -> _Level:
        """Per input group of n half-tuples: n consumes (every second one
        pushes a pair), a sentinel-padded push when n is odd, and the
        terminal, popped and pushed in one action."""
        n_in = inp.counts.reshape(-1)
        blocks = n_in + (n_in & 1) + 1
        total = int(blocks.sum())
        seg, local = _segment_index(blocks)
        n_seg = np.take(n_in, seg)
        consume = local < n_seg
        term = local == n_seg + (n_seg & 1)
        need = np.take(inp.offsets.reshape(-1), seg) + np.minimum(local, n_seg)
        pushed = np.where(consume, local >> 1, (n_seg + term) >> 1)
        pushed += np.take(out.offsets.reshape(-1), seg)
        starts = _exclusive(blocks).reshape(-1, self.groups)[:, 0]
        stops = np.append(starts[1:], total)
        return _Level(
            need_a=need, need_b=None,
            slot=out.slot_index(pushed, seg // self.groups, self.dummy),
            push=np.flatnonzero(~consume | (local & 1 == 1)).astype(np.int32),
            pop=np.flatnonzero(consume | term).astype(np.int32),
            out=out, inp=inp,
            bounds=list(zip(starts.tolist(), stops.tolist())),
            ends=(stops - 1).astype(np.int32),
        )

    # ------------------------------------------------------------------
    def _carve_batches(self, leaf_len: np.ndarray, tuple_width: int, loader) -> None:
        """Each leaf's batches as (items, transfer cycles), carved by
        :func:`~repro.hw.loader.batch_pieces` from run lengths alone."""
        batch_records = loader.batch_records
        self.batches: list[list[tuple[int, int]]] = []
        sizes: list[int] = []
        taken_total = 0
        for lengths in leaf_len.tolist():
            feed: list[tuple[int, int]] = []
            run = offset = 0
            while run < len(lengths):
                pieces, run, offset = batch_pieces(
                    lengths, run, offset, batch_records, tuple_width
                )
                taken = items = 0
                for piece_run, start, stop in pieces:
                    taken += stop - start
                    items += -(-(stop - start) // tuple_width) + (stop == lengths[piece_run])
                feed.append((items, loader.transfer_cycles(taken)))
                sizes.append(items)
                taken_total += taken
            self.batches.append(feed)
        self.batch_sizes = np.array(sizes, dtype=np.int64)
        self.loader_stats = LoaderStats(
            batches_issued=len(sizes),
            bytes_loaded=taken_total * loader.record_bytes,
            runs_fed=int(leaf_len.size),
            cycles_bandwidth_limited=sum(c for feed in self.batches for _i, c in feed),
        )
        batch_records_tuples = -(-batch_records // tuple_width)
        self.need_free = batch_records_tuples + 1
        leaves = self.ports[self.depth - 1]
        items = np.arange(leaves.lo, leaves.hi, dtype=np.int32)
        streams = np.repeat(np.arange(leaves.counts.shape[0]), (leaves.counts + 1).sum(axis=1))
        self.leaf_slot = leaves.slot_index(items, streams, self.dummy)
        self.leaf_last = leaves.terminal()[:, -1] - leaves.lo

    # ------------------------------------------------------------------
    # one sweep
    # ------------------------------------------------------------------
    @staticmethod
    def _store(array: np.ndarray, lo: int, hi: int, values: np.ndarray) -> bool:
        """Write ``values`` to ``array[lo:hi]``; whether anything changed."""
        if np.array_equal(array[lo:hi], values):
            return False
        array[lo:hi] = values
        return True

    def _load(self) -> np.ndarray:
        """The leaf pushes, by exact replay of the loader: round-robin
        ``_find_feed`` against the leaf pop times, one batch in flight,
        skid-buffer parking.

        A feed is eligible once its FIFO has ``batch_tuples + 1`` free
        slots and nothing of it is parked; a delivered item enters its
        FIFO at the delivery tick or, parked, when its slot frees.
        """
        leaves = self.ports[self.depth - 1]
        pops = self.W
        capacity = leaves.capacity
        need_free = self.need_free
        fifo_lo = leaves.offsets[:, 0].tolist()
        batches = self.batches
        n_feeds = len(batches)
        never = 1 << 62
        next_batch = [0] * n_feeds
        pushed = [0] * n_feeds
        ready = [0 if feed else never for feed in batches]
        delivered: list[list[int]] = [[] for _ in range(n_feeds)]
        live = sum(1 for feed in batches if feed)
        cycle = cursor = 0
        while live:
            start = max(cycle, min(ready))
            index = cursor
            while ready[index] > start:
                index = index + 1 if index + 1 < n_feeds else 0
            items, cycles = batches[index][next_batch[index]]
            done = start + cycles - 1
            delivered[index].append(done)
            parked_until = done
            last = pushed[index] + items - 1
            if last >= capacity:
                parked_until = max(done, int(pops[fifo_lo[index] + last - capacity]))
            pushed[index] += items
            next_batch[index] += 1
            if next_batch[index] == len(batches[index]):
                ready[index] = never
                live -= 1
            else:
                wanted = pushed[index] - capacity + need_free
                ready[index] = parked_until if wanted <= 0 else max(
                    parked_until, int(pops[fifo_lo[index] + wanted - 1])
                )
            cursor = index + 1 if index + 1 < n_feeds else 0
            cycle = start + cycles
        pushes = np.repeat(
            np.array([t for feed in delivered for t in feed], dtype=np.int32),
            self.batch_sizes,
        )
        slots = np.take(self.W, self.leaf_slot, out=self.scratch[: pushes.size], mode="clip")
        np.maximum(pushes, slots, out=pushes)
        pushes += 1
        return pushes

    def _solve_level(self, lv: _Level) -> bool:
        """One level's action times by segmented cummax, then its pushes
        (output V) and pops (input W); whether they changed.

        Each action pushes or pops exactly one item (a priming consume
        pops, a flush pushes, a coupler's terminal does both) at its time
        plus the FIFO's delay, and each retirement is a terminal's pop.
        So the pushes and pops are unchanged exactly when the times and
        retirements are, and one compare stands for both stores.
        """
        V, W = self.V, self.W
        actions = lv.actions
        t = self.fresh[: lv.t.size]
        times = t[:actions]
        other = self.scratch[:actions]
        np.take(V, lv.need_a, out=times, mode="clip")
        if lv.need_b is not None:
            np.take(V, lv.need_b, out=other, mode="clip")
            np.maximum(times, other, out=times)
        np.take(W, lv.slot, out=other, mode="clip")
        np.maximum(times, other, out=times)
        # t_s = max(t_{s-1} + 1, E_s)  <=>  t_s - s = cummax(E_s - s)
        steps = self.steps[:actions]
        times -= steps
        for lo, hi in lv.bounds:
            np.maximum.accumulate(times[lo:hi], out=times[lo:hi])
        times += steps
        if lv.term_need is not None:
            retire = t[actions:]
            np.take(times, lv.term_anchor, out=retire, mode="clip")
            retire += 1
            retire[lv.term_first] = 0
            other = self.scratch[: retire.size]
            np.take(V, lv.term_need, out=other, mode="clip")
            np.maximum(retire, other, out=retire)
            np.take(W, lv.term_slot, out=other, mode="clip")
            np.maximum(retire, other, out=retire)
        if np.array_equal(t, lv.t):
            return False
        lv.t[:] = t
        out, inp = lv.out, lv.inp
        pushes = V[out.lo:out.hi]
        np.take(t, lv.push, out=pushes, mode="clip")
        if out.push_delay:
            pushes += out.push_delay
        pops = W[inp.lo:inp.hi]
        np.take(t, lv.pop, out=pops, mode="clip")
        if inp.pop_delay:
            pops += inp.pop_delay
        out.v_step = inp.w_step = self.step
        # A component's times rise, so its last action, a push, holds its
        # latest; a merger's latest pop is a retirement, as each port's
        # consumes come before its terminal retires.
        latest = int(times[lv.ends].max())
        popped = latest if lv.term_need is None else int(t[actions:].max())
        self.top = max(self.top, latest + out.push_delay, popped + inp.pop_delay)
        return True

    def _write(self) -> np.ndarray:
        """The writer's pops: the arrival itself when one tick's credit
        always covers a root tuple, else an exact float credit replay."""
        root = self.root
        arrivals = self.V[root.lo:root.hi]
        rate, cost = self.write_rate, self.root_cost
        if rate >= cost:
            return arrivals
        cap = 4 * rate
        credit = 0.0
        tick = -1
        pops = []
        terminal = set(root.terminal().reshape(-1).tolist())
        for index, arrival in enumerate(arrivals.tolist(), start=root.lo):
            target = max(arrival, tick)
            for _ in range(target - tick):
                if credit >= cap:
                    break
                credit = min(credit + rate, cap)
            tick = target
            if index not in terminal:
                while credit < cost:
                    credit = min(credit + rate, cap)
                    tick += 1
                credit -= cost
            pops.append(tick)
        return np.array(pops, dtype=np.int32)

    def sweep(self) -> bool:
        """One Gauss-Seidel sweep; whether any time changed.

        A component whose inputs no solve has changed since it last ran
        would only rewrite what it wrote then, so it is skipped.
        """
        leaves, root = self.ports[self.depth - 1], self.root
        self.top = 0
        changed = False
        self.step += 1
        if leaves.w_step >= self.loaded:
            self.loaded = self.step
            pushes = self._load()
            if self._store(self.V, leaves.lo, leaves.hi, pushes):
                # A FIFO's pushes rise, so its last item holds its latest.
                self.top = int(pushes[self.leaf_last].max())
                leaves.v_step = self.step
                changed = True
        for lv in self.levels:
            self.step += 1
            if lv.inp.v_step >= lv.ran or lv.out.w_step >= lv.ran:
                lv.ran = self.step
                changed = self._solve_level(lv) or changed
        self.step += 1
        if root.v_step >= self.written:
            self.written = self.step
            pops = self._write()
            if self._store(self.W, root.lo, root.hi, pops):
                # The writer pops in order, so its last pop is its latest.
                self.top = max(self.top, int(pops[-1]))
                root.w_step = self.step
                changed = True
        return changed

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def merger_stats(self, cycles: int) -> list[MergerStats]:
        """Per-merger counters from the fixed point's action times,
        worked out in the sweep's scratch buffers.

        Between two actions a merger ticks without acting: idle while no
        run is in progress, else stalled on output while its output FIFO
        is full and stalled on input after that.  A run is in progress
        from its first consume, or from the first terminal retirement of
        an empty port, to its terminal action.
        """
        stats: list[MergerStats] = []
        groups = self.groups
        for level in range(self.depth):
            lv = self.merger_levels[level]
            t = lv.t[: lv.actions]
            starts = np.array([lo for lo, _hi in lv.bounds])
            begin = self.fresh[: t.size]
            begin[1:] = t[:-1]
            begin[starts] = -1
            begin += 1
            retire = lv.t[lv.actions:].copy()
            retire[lv.inp.counts.reshape(-1) > 0] = np.iinfo(np.int32).max
            retire = retire.reshape(-1, 2, groups).min(axis=1).reshape(-1)
            running = self.scratch[: t.size]
            running[:] = begin
            heads = lv.block_start
            running[heads] = np.clip(retire, begin[heads], t[heads])
            full_until = np.take(self.W, lv.slot)
            np.clip(full_until, running, t, out=full_until)
            idle = np.add.reduceat(np.subtract(running, begin, out=begin), starts)
            stall_output = np.add.reduceat(np.subtract(full_until, running, out=running), starts)
            stall_input = np.add.reduceat(np.subtract(t, full_until, out=full_until), starts)
            idle += cycles - 1 - t[lv.ends]
            n = lv.n.reshape(-1, groups)
            for index in range(len(lv.bounds)):
                stats.append(MergerStats(
                    name=f"{self.tree.name}.L{level}.{index}",
                    k=self.widths[level],
                    active_cycles=int(n[index].sum()),
                    prime_cycles=int((n[index] > 0).sum()),
                    flush_cycles=groups,
                    stall_input=int(stall_input[index]),
                    stall_output=int(stall_output[index]),
                    idle_cycles=int(idle[index]),
                    runs_completed=groups,
                ))
        return stats


def _shape(tree, lengths: np.ndarray) -> str:
    """A stage's shape, for error messages."""
    return (
        f"AMT({tree.p}, {tree.leaves}) stage of {int(lengths.sum())} records "
        f"in {lengths.size} runs"
    )


def solve(tree, keys: np.ndarray, lengths: np.ndarray, loader, writer, max_cycles: int):
    """Solve the timing of one stage on ``tree``; a :class:`Solution`.

    ``keys`` holds the stage's runs end to end and ``lengths`` their
    sizes; the keys need a total order (the caller rejects NaN) and are
    only read.  ``loader`` and ``writer`` carry
    the stage's memory parameters (their feeds and source are not read);
    ``tree``'s leaf FIFOs must already have their stage capacity.

    Raises :class:`~repro.errors.SimulationError` when the stage cannot
    finish within ``max_cycles``: its writer can never afford a root
    tuple, or the fixed point's cycle count is over the budget.
    """
    cost = tree.p * loader.record_bytes
    rate = writer.write_bytes_per_cycle
    if keys.size and 4 * rate < cost:
        raise SimulationError(
            f"write budget {rate:g} bytes/cycle caps the writer's credit at "
            f"{4 * rate:g} bytes, below one {cost}-byte root tuple: the "
            f"{_shape(tree, lengths)} can never write a record"
        )
    obs = observation()
    with obs.span("hw.timestamp.build"):
        stage = _Stage(tree, keys, lengths, loader, writer)
    # A stage's cycle count is above its read transfers, so transfers over
    # the budget settle it before any sweep.  One sweep adds at most the
    # transfers to the latest time, so with them below 2**30 the check in
    # the loop, on the latest time each sweep wrote, keeps the int32
    # arrays from wrapping.
    limit = min(max_cycles, _TIME_LIMIT)
    transfers = stage.loader_stats.cycles_bandwidth_limited
    if transfers > limit:
        raise SimulationError(
            f"simulation did not complete within {limit} cycles: the "
            f"{_shape(tree, lengths)} spends {transfers} cycles on read transfers"
        )
    # A time may pass ``max_cycles`` before the fixed point brings it
    # back (the sweeps are not monotone), so only the fixed point's cycle
    # count is held to the budget.
    sweep = 0
    with obs.span("hw.timestamp.sweeps") as span:
        while True:
            sweep += 1
            changed = stage.sweep()
            if stage.top >= _TIME_LIMIT:
                raise SimulationError(
                    f"simulation did not complete within {_TIME_LIMIT} cycles, the "
                    f"timestamp engine's int32 range: the {_shape(tree, lengths)} needs more"
                )
            if not changed:
                break
        span.set(sweeps=sweep)
    cycles = int(stage.W[stage.root.hi - 1]) + 1
    if cycles > max_cycles:
        raise SimulationError(
            f"simulation did not complete within {max_cycles} cycles: the "
            f"{_shape(tree, lengths)} needs {cycles}"
        )
    loader_stats = stage.loader_stats
    loader_stats.cycles_idle = cycles - loader_stats.cycles_bandwidth_limited
    merger_stats = stage.merger_stats(cycles)
    del stage
    return Solution(
        cycles=cycles,
        merger_stats=merger_stats,
        loader_stats=loader_stats,
        bytes_written=int(keys.size) * loader.record_bytes,
        sweeps=sweep,
    )
