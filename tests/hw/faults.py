"""Fault injection and in-stream checking for the cycle simulator: the
components ``test_faults.py`` wires into a stage it ticks itself.

§V-A describes the paper's own robustness experiment: "we did not have
any input buffer become empty (unless we were pausing the data loader in
order to ensure the AMT behaves correctly with empty input buffers)".
:class:`PausingLoader` reproduces that experiment — it freezes the data
loader over a cycle window so leaf FIFOs drain and the tree must stall
and recover without corrupting the merge.

:class:`FaultInjector` models a datapath upset (a flipped key bit on one
tuple), and :class:`SortednessMonitor` is the in-stream checker that
catches it: it watches a FIFO's traffic and raises the moment a run
stops being non-decreasing.  Together they verify the end-to-end checkers
actually detect what they claim to detect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.hw.fifo import Fifo
from repro.hw.loader import DataLoader
from repro.hw.terminal import SENTINEL_KEY, is_terminal


@dataclass
class PausingLoader:
    """Wraps a :class:`DataLoader`, freezing it over ``[start, stop)``.

    While paused the loader performs no work at all; downstream FIFOs
    drain and mergers stall on empty inputs — the behaviour §V-A's
    experiment provokes on the FPGA.
    """

    inner: DataLoader
    pause_start: int
    pause_stop: int
    paused_cycles: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.pause_start < 0 or self.pause_stop < self.pause_start:
            raise SimulationError(
                f"bad pause window [{self.pause_start}, {self.pause_stop})"
            )

    @property
    def done(self) -> bool:
        """Delegates to the wrapped loader."""
        return self.inner.done

    @property
    def stats(self):
        """Delegates to the wrapped loader's statistics."""
        return self.inner.stats

    def tick(self, cycle: int = 0) -> None:
        """Freeze inside the pause window; otherwise run the loader."""
        if self.pause_start <= cycle < self.pause_stop:
            self.paused_cycles += 1
            return
        self.inner.tick(cycle)


@dataclass
class FaultInjector:
    """Passes tuples between two FIFOs, corrupting one key once.

    Parameters
    ----------
    trigger_tuple:
        Ordinal of the tuple whose first record gets its key XOR-flipped.
    flip_mask:
        Bit pattern XORed into the key.
    """

    input: Fifo
    output: Fifo
    trigger_tuple: int
    flip_mask: int = 1 << 20
    tuples_seen: int = field(init=False, default=0)
    faults_injected: int = field(init=False, default=0)

    def tick(self, cycle: int = 0) -> None:
        """Forward one item, corrupting the trigger tuple's first key."""
        if self.input.is_empty or self.output.is_full:
            return
        item = self.input.pop()
        if not is_terminal(item):
            if self.tuples_seen == self.trigger_tuple:
                corrupted = (item[0] ^ self.flip_mask,) + tuple(item[1:])
                item = corrupted
                self.faults_injected += 1
            self.tuples_seen += 1
        self.output.push(item)


@dataclass
class SortednessMonitor:
    """Streams tuples through, asserting each run is non-decreasing.

    Sits between two FIFOs like a piece of datapath; raises
    :class:`SimulationError` at the cycle a violation passes through —
    the simulator analogue of an on-chip result checker.
    """

    input: Fifo
    output: Fifo
    name: str = "monitor"
    _previous: int | None = field(init=False, default=None)
    records_checked: int = field(init=False, default=0)
    runs_checked: int = field(init=False, default=0)

    def tick(self, cycle: int = 0) -> None:
        """Forward one item, asserting run order on the way through."""
        if self.input.is_empty or self.output.is_full:
            return
        item = self.input.pop()
        if is_terminal(item):
            self._previous = None
            self.runs_checked += 1
        else:
            for key in item:
                if key == SENTINEL_KEY:
                    continue
                if self._previous is not None and key < self._previous:
                    raise SimulationError(
                        f"{self.name}: run order violated at cycle {cycle}: "
                        f"{key} after {self._previous}"
                    )
                self._previous = key
                self.records_checked += 1
        self.output.push(item)
