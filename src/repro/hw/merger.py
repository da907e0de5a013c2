"""The k-merger (§I-A).

"We call a k-merger a hardware merger that can merge two sorted input
streams at a rate of k records per cycle.  The k-merger is designed to
expect k-record tuples at its two input ports and outputs one k-record
tuple each cycle.  In order to output k records per cycle, mergers use a
pipeline of two 2k-record bitonic half-mergers."

The classic feedback microarchitecture is modelled exactly:

* a *feedback register* holds the upper half of the previous cycle's
  2k-record merge;
* each cycle the merger selects the input port whose head tuple has the
  smaller leading record, merges that tuple with the feedback register
  through the bitonic half-merger, emits the lower k records, and keeps
  the upper k in the feedback register;
* a run begins with one priming cycle that initialises the feedback
  register, and ends when both ports have delivered their terminal
  marker, at which point the register is flushed and a single terminal
  is emitted downstream (§V-B: "only a single-cycle delay when flushing
  each merger's state").

Selecting by the *leading* record of each head tuple is the correct rule:
the feedback register always holds the k smallest unemitted records of
everything consumed so far, so the merged lower half can never overtake a
record still waiting in the unselected port (the exhaustive and
property-based tests in ``tests/hw/test_merger.py`` verify this over full
stream spaces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.hw.fifo import Fifo
from repro.hw.probes import MergerStats
from repro.hw.terminal import TERMINAL, is_terminal
from repro.units import is_power_of_two


def _half_merge_kernel(k: int) -> Callable[[tuple, tuple], tuple[tuple, tuple]]:
    """Bind the 2k bitonic half-merger datapath for width ``k``.

    Evaluating the compare-exchange stages element by element per cycle
    would be the simulator's hottest loop, and for integer keys the
    network's output is simply the sorted permutation of the 2k inputs;
    so the kernel sorts the concatenation (Timsort's galloping merge of
    two sorted runs) and splits it into (lower k, upper k).  ``k == 1``
    is a single compare-exchange.  ``tests/network`` verifies the
    bitonic network itself produces the same sorted output.
    """
    if k == 1:
        def compare_swap(left: tuple, right: tuple) -> tuple[tuple, tuple]:
            if right[0] < left[0]:
                return right, left
            return left, right

        return compare_swap

    def half_merge(left: tuple, right: tuple) -> tuple[tuple, tuple]:
        merged = sorted(left + right)
        return tuple(merged[:k]), tuple(merged[k:])

    return half_merge


@dataclass
class KMerger:
    """Cycle-level model of a k-merger between three FIFOs.

    Parameters
    ----------
    k:
        Records merged per cycle (power of two).
    input_a / input_b:
        Upstream FIFOs carrying ``k``-record tuples and terminal markers.
    output:
        Downstream FIFO receiving ``k``-record tuples and one terminal
        marker per completed run.
    name:
        Label for statistics.
    """

    k: int
    input_a: Fifo
    input_b: Fifo
    output: Fifo
    name: str = "merger"

    stats: MergerStats = field(init=False)
    _merge_kernel: object = field(init=False, repr=False)
    _feedback: tuple | None = field(init=False, default=None, repr=False)
    _done_a: bool = field(init=False, default=False)
    _done_b: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.k):
            raise SimulationError(f"merger width must be a power of two, got {self.k}")
        # The 2k half-merger datapath, bound once so the per-cycle path
        # carries no width dispatch.
        self._merge_kernel = _half_merge_kernel(self.k)
        self.stats = MergerStats(name=self.name, k=self.k)

    # ------------------------------------------------------------------
    @property
    def run_in_progress(self) -> bool:
        """True between the first consumed tuple and the emitted terminal."""
        return self._feedback is not None or self._done_a or self._done_b

    def tick(self, cycle: int = 0) -> None:
        """Advance one clock cycle."""
        stats = self.stats
        if self.output.is_full:
            # A full output port only *stalls* a run that is underway;
            # before the first tuple arrives the merger is merely idle.
            if self.run_in_progress:
                stats.stall_output += 1
            else:
                stats.idle_cycles += 1
            return

        input_a = self.input_a
        input_b = self.input_b
        # Terminal recognition is a tag check on the port registers and
        # happens in parallel with the datapath (§V-B's scheme costs one
        # cycle per *flush*, not per consumed terminal): retire at most
        # one terminal per port without spending the cycle.
        if not self._done_a and not input_a.is_empty and is_terminal(input_a.peek()):
            input_a.pop()
            self._done_a = True
        if not self._done_b and not input_b.is_empty and is_terminal(input_b.peek()):
            input_b.pop()
            self._done_b = True

        if self._done_a and self._done_b:
            self._finish_run()
            return

        source = self._select_port()
        if source is None:
            if self.run_in_progress:
                stats.stall_input += 1
            else:
                stats.idle_cycles += 1
            return

        incoming = source.pop()
        self._check_tuple(incoming)
        if incoming.__class__ is not tuple:
            incoming = tuple(incoming)
        if self._feedback is None:
            # Priming cycle: the register latches the first tuple.
            self._feedback = incoming
            stats.prime_cycles += 1
            return
        lower, upper = self._merge_kernel(self._feedback, incoming)
        self._feedback = upper
        self.output.push(lower)
        stats.active_cycles += 1

    # ------------------------------------------------------------------
    def _select_port(self) -> Fifo | None:
        """Choose the port to consume from, or None to stall.

        While both runs are live the merger must see both heads to compare
        them, so a single empty port stalls the datapath — the same
        behaviour as the hardware handshake (§V-A: "In case one input
        buffer becomes empty, the AMT will automatically stall").
        """
        input_a = self.input_a
        input_b = self.input_b
        if self._done_a:
            return None if input_b.is_empty else input_b
        if self._done_b:
            return None if input_a.is_empty else input_a
        if input_a.is_empty or input_b.is_empty:
            return None
        head_a = input_a.peek()
        head_b = input_b.peek()
        return input_a if head_a[0] <= head_b[0] else input_b

    def _finish_run(self) -> None:
        """Flush the feedback register, then emit the terminal and reset."""
        if self._feedback is not None:
            self.output.push(self._feedback)
            self._feedback = None
            self.stats.active_cycles += 1
            return
        self.output.push(TERMINAL)
        self._done_a = False
        self._done_b = False
        self.stats.flush_cycles += 1
        self.stats.runs_completed += 1

    def _check_tuple(self, item: object) -> None:
        if is_terminal(item):
            raise SimulationError(f"{self.name}: terminal leaked past bookkeeping")
        if len(item) != self.k:
            raise SimulationError(
                f"{self.name}: expected {self.k}-record tuples, got {len(item)}"
            )
