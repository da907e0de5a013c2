"""The data loader (§V-A) and the symmetric output writer.

"The data loader checks in a round-robin fashion if any input buffer has
enough free space to hold a new read batch.  Whenever the data loader
encounters an input buffer with sufficient free space, it performs a
batched load into the buffer. [...] Due to batched and sequential
reads/writes, the data loader allows the off-chip memory to operate at
peak bandwidth."

The loader owns one run queue per leaf.  Batches share a single memory
port: one batch transfer is in flight at a time and takes
``ceil(batch_bytes / read_bytes_per_cycle)`` cycles, so aggregate read
bandwidth is capped exactly at the configured budget.  After the final
batch of a run, a terminal marker follows the data into the leaf FIFO,
and partial tail tuples are padded with max-key sentinels.

The :class:`OutputWriter` drains the tree root under the write-bandwidth
budget, splits the stream back into runs at terminal markers, and filters
pad sentinels — the "zero filter" of Fig. 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import SimulationError
from repro.hw.fifo import Fifo
from repro.hw.probes import LoaderStats
from repro.hw.terminal import TERMINAL, SENTINEL_KEY, is_terminal


def batch_pieces(
    lengths: Sequence[int], run: int, offset: int, batch_records: int, tuple_width: int
) -> tuple[list[tuple[int, int, int]], int, int]:
    """Carve one read batch out of a leaf's runs, from record ``offset``
    of run ``run``.

    A leaf's runs occupy consecutive DRAM addresses, so one batch may
    span several short runs.  Returns the ``(run, start, stop)`` record
    ranges the batch reads, in order, and the ``(run, offset)`` the next
    batch starts from; a range that reaches its run's end carries that
    run's terminal.  A batch that stops mid-run stops at a tuple
    boundary, so sentinel pads only ever complete a run's last tuple.
    """
    pieces = []
    taken = 0
    while taken < batch_records and run < len(lengths):
        length = lengths[run]
        remaining = length - offset
        take = min(batch_records - taken, remaining)
        if take < remaining:
            take -= take % tuple_width
        pieces.append((run, offset, offset + take))
        taken += take
        if take < remaining:
            return pieces, run, offset + take
        run, offset = run + 1, 0
    return pieces, run, offset


@dataclass
class _LeafFeed:
    """Pending input of one leaf: a queue of runs, each a list of keys."""

    fifo: Fifo
    runs: list[list[int]]
    run_index: int = 0
    offset: int = 0
    lengths: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.lengths = [len(run) for run in self.runs]

    @property
    def exhausted(self) -> bool:
        """True once every run (and its terminal) has been issued."""
        return self.run_index >= len(self.runs)


@dataclass
class DataLoader:
    """Round-robin batched reader feeding the leaf FIFOs.

    Parameters
    ----------
    feeds:
        One :class:`_LeafFeed` per leaf, built via :func:`make_feeds`.
    tuple_width:
        Records per leaf tuple (the deepest mergers' k).
    record_bytes:
        Record width ``r``.
    read_bytes_per_cycle:
        Memory read budget per cycle (``beta_read / f``).
    batch_bytes:
        Read batch size ``b`` (Table II); 1-4 KB per the paper.
    """

    feeds: list[_LeafFeed]
    tuple_width: int
    record_bytes: int
    read_bytes_per_cycle: float
    batch_bytes: int
    stats: LoaderStats = field(default_factory=LoaderStats)

    _cursor: int = field(init=False, default=0)
    _inflight_feed: _LeafFeed | None = field(init=False, default=None, repr=False)
    _inflight_index: int = field(init=False, default=0)
    _inflight_items: list = field(init=False, default_factory=list, repr=False)
    _inflight_cycles_left: int = field(init=False, default=0)
    #: per-feed skid buffers: transferred items awaiting FIFO space
    _parked: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.tuple_width < 1:
            raise SimulationError("tuple width must be >= 1")
        if self.record_bytes < 1:
            raise SimulationError("record width must be >= 1 byte")
        if self.read_bytes_per_cycle <= 0:
            raise SimulationError("read budget must be positive")
        if self.batch_bytes < self.record_bytes:
            raise SimulationError("batch must hold at least one record")

    @property
    def batch_records(self) -> int:
        """Records per full batch."""
        return max(self.tuple_width, self.batch_bytes // self.record_bytes)

    @property
    def done(self) -> bool:
        """True once every leaf's runs (and terminals) are delivered."""
        return (
            self._inflight_feed is None
            and not self._parked
            and all(f.exhausted for f in self.feeds)
        )

    def tick(self, cycle: int = 0) -> None:
        """Advance one cycle: progress the in-flight batch or start one.

        Issuing a batch counts as its first transfer cycle, so a batch
        needing ``c`` bandwidth-cycles is delivered exactly ``c`` ticks
        after issue.  Parked items (already transferred, awaiting FIFO
        space) drain opportunistically every cycle — the AXI skid-buffer
        behaviour — so a full leaf FIFO never blocks other leaves.
        """
        self._flush_parked()
        if self._inflight_feed is None:
            feed = self._pick_feed()
            if feed is None:
                self.stats.cycles_idle += 1
                return
            self._start_batch(feed)
        self._inflight_cycles_left -= 1
        self.stats.cycles_bandwidth_limited += 1
        if self._inflight_cycles_left <= 0:
            self._deliver()

    # ------------------------------------------------------------------
    def _find_feed(self) -> int | None:
        """Round-robin scan for a leaf with pending data and buffer space.

        "Enough free space to hold a new read batch" (§V-A) is measured
        against the typical batch footprint; the rare batch carrying many
        run terminals overflows into the skid buffer instead.  Pure scan:
        the cursor moves only when :meth:`_pick_feed` commits to a feed.
        """
        n_feeds = len(self.feeds)
        batch_tuples = -(-self.batch_records // self.tuple_width)
        for step in range(n_feeds):
            index = (self._cursor + step) % n_feeds
            feed = self.feeds[index]
            if feed.exhausted or index in self._parked:
                continue
            if feed.fifo.free_slots() >= batch_tuples + 1:
                return index
        return None

    def _pick_feed(self) -> _LeafFeed | None:
        """Commit to the next feed chosen by :meth:`_find_feed`."""
        index = self._find_feed()
        if index is None:
            return None
        self._cursor = (index + 1) % len(self.feeds)
        self._inflight_index = index
        return self.feeds[index]

    def transfer_cycles(self, records: int) -> int:
        """Cycles one batch of ``records`` records holds the memory port."""
        size_bytes = max(records, 1) * self.record_bytes
        return max(1, math.ceil(size_bytes / self.read_bytes_per_cycle))

    def _start_batch(self, feed: _LeafFeed) -> None:
        """Carve the next batch out of the feed's pending runs
        (:func:`batch_pieces`); terminal markers are interleaved at run
        boundaries (the zero-append of §V-B operates on the same stream).
        """
        pieces, feed.run_index, feed.offset = batch_pieces(
            feed.lengths, feed.run_index, feed.offset,
            self.batch_records, self.tuple_width,
        )
        items: list = []
        taken = 0
        tuple_width = self.tuple_width
        pad_row = (SENTINEL_KEY,) * tuple_width
        for run, start, stop in pieces:
            # the slice is already a fresh list the chunking below owns;
            # copying it again would double the allocation
            records = feed.runs[run][start:stop]
            taken += stop - start
            if tuple_width == 1:
                # Burst lane: leaf tuples are single records, so the
                # batch maps 1:1 onto rows without slicing.
                items.extend((record,) for record in records)
            else:
                for index in range(0, len(records), tuple_width):
                    chunk = tuple(records[index : index + tuple_width])
                    if len(chunk) < tuple_width:
                        chunk = chunk + pad_row[: tuple_width - len(chunk)]
                    items.append(chunk)
            if stop == feed.lengths[run]:
                items.append(TERMINAL)
                self.stats.runs_fed += 1
        self._inflight_feed = feed
        self._inflight_items = items
        self._inflight_cycles_left = self.transfer_cycles(taken)
        self.stats.batches_issued += 1
        self.stats.bytes_loaded += taken * self.record_bytes

    def _deliver(self) -> None:
        """Push the completed batch into its leaf FIFO; park any overflow."""
        feed = self._inflight_feed
        leftover = self._push_items(feed, self._inflight_items)
        if leftover:
            self._parked[self._inflight_index] = leftover
        self._inflight_feed = None
        self._inflight_items = []

    def _flush_parked(self) -> None:
        """Drain skid buffers into their FIFOs as space allows."""
        parked = self._parked
        for index in list(parked):
            feed = self.feeds[index]
            leftover = self._push_items(feed, parked[index])
            if leftover:
                parked[index] = leftover
            else:
                del parked[index]

    @staticmethod
    def _push_items(feed: _LeafFeed, items: list) -> list:
        """Push items until the FIFO fills; return the remainder.

        One bulk transfer per call: statistics and ordering are
        identical to pushing item by item, without the per-item
        handshake overhead.
        """
        count = min(len(items), feed.fifo.free_slots())
        if not count:
            return items
        feed.fifo.push_many(items[:count])
        return items[count:]


def _bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value``."""
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def leaf_positions(n_leaves: int) -> list[int]:
    """Which run of each group every leaf receives: ``bitrev(leaf)``.

    See :func:`make_feeds`; the one statement of the placement, shared
    with the timestamp engine.
    """
    depth = max(0, n_leaves.bit_length() - 1)
    return [_bit_reverse(leaf, depth) for leaf in range(n_leaves)]


def make_feeds(
    leaf_fifos: Sequence[Fifo], runs: Sequence[Sequence[int]], n_leaves: int
) -> list[_LeafFeed]:
    """Distribute stage-input runs across leaves.

    Output run ``j`` merges input runs ``[j * l, (j + 1) * l)`` — the
    paper's recursive stage semantics (§II).  Within a group, run ``j``
    feeds leaf ``bitrev(j)``: bit-reversed placement spreads a partial
    final group evenly over both subtrees of every merger, so a stage
    with fewer runs than leaves still keeps the root's two ports
    balanced at full throughput (consecutive placement would starve one
    subtree entirely and halve the stage rate).  Merging is commutative,
    so the placement does not change the output.  Leaves short of a run
    receive an empty run (terminal only).
    """
    if len(leaf_fifos) != n_leaves:
        raise SimulationError(
            f"expected {n_leaves} leaf FIFOs, got {len(leaf_fifos)}"
        )
    depth = max(0, n_leaves.bit_length() - 1)
    if (1 << depth) != n_leaves:
        raise SimulationError(f"leaf count must be a power of two, got {n_leaves}")
    n_groups = max(1, -(-len(runs) // n_leaves))
    feeds = []
    for leaf, position in enumerate(leaf_positions(n_leaves)):
        leaf_runs: list[list[int]] = []
        for group in range(n_groups):
            index = group * n_leaves + position
            leaf_runs.append(list(runs[index]) if index < len(runs) else [])
        feeds.append(_LeafFeed(fifo=leaf_fifos[leaf], runs=leaf_runs))
    return feeds


@dataclass
class OutputWriter:
    """Drains the root FIFO under a write-bandwidth budget.

    Accumulates whole output runs (split at terminals) with pad
    sentinels removed, and tracks byte traffic for bandwidth accounting.
    """

    source: Fifo
    record_bytes: int
    write_bytes_per_cycle: float
    expected_runs: int

    runs: list[list[int]] = field(init=False, default_factory=list)
    _current: list[int] = field(init=False, default_factory=list)
    _credit: float = field(init=False, default=0.0)
    bytes_written: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.write_bytes_per_cycle <= 0:
            raise SimulationError("write budget must be positive")
        if self.expected_runs < 1:
            raise SimulationError("writer expects at least one output run")

    @property
    def done(self) -> bool:
        """True once every expected output run has been collected."""
        return len(self.runs) >= self.expected_runs

    def tick(self, cycle: int = 0) -> None:
        """Pop as many items as this cycle's write budget allows.

        The affordable prefix of the source FIFO is computed first, then
        moved in one bulk ``pop_many`` — credit arithmetic runs in the
        same item order as a per-item drain, so the float credit state
        (and therefore every future pop cycle) is bit-identical.
        """
        rate = self.write_bytes_per_cycle
        credit = min(self._credit + rate, 4 * rate)
        source = self.source
        record_bytes = self.record_bytes
        count = 0
        for head in source.peek_many(len(source)):
            if is_terminal(head):
                count += 1
                continue
            cost = len(head) * record_bytes
            if credit < cost:
                break
            credit -= cost
            count += 1
        self._credit = credit
        if not count:
            return
        current = self._current
        for head in source.pop_many(count):
            if is_terminal(head):
                self.runs.append(current)
                current = []
                continue
            if head[-1] is SENTINEL_KEY:
                # Pad sentinels appear only in a run's final tuples, and
                # a root tuple is sorted, so they trail it; the common
                # path extends in place without filtering.
                kept = [key for key in head if key is not SENTINEL_KEY]
                current.extend(kept)
                self.bytes_written += len(kept) * record_bytes
            else:
                current.extend(head)
                self.bytes_written += len(head) * record_bytes
        self._current = current
