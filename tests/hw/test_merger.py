"""The k-merger: exhaustive and property-based correctness.

The selection rule (pop the port whose head tuple leads with the smaller
record) is load-bearing for the entire reproduction, so beyond random
examples we *exhaustively* enumerate all pairs of sorted streams over a
tiny alphabet and check the merged output — the state space this covers
includes every reachable feedback/selection interleaving for small k.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.hw.fifo import Fifo
from repro.hw.merger import KMerger
from repro.hw.terminal import TERMINAL, is_terminal


def run_merger(k: int, runs_a: list[list[int]], runs_b: list[list[int]]) -> list[list[int]]:
    """Drive a lone k-merger over per-run tuple streams; return output runs.

    ``runs_a[i]`` merges with ``runs_b[i]``.  Run lengths must be
    multiples of k (the loader pads in the full pipeline).
    """
    input_a = Fifo(capacity=10_000, name="a")
    input_b = Fifo(capacity=10_000, name="b")
    output = Fifo(capacity=10_000, name="out")
    # Mirror the data loader: a port short of runs receives empty runs
    # (terminal only) so every group has both terminals.
    groups = max(len(runs_a), len(runs_b))
    runs_a = runs_a + [[]] * (groups - len(runs_a))
    runs_b = runs_b + [[]] * (groups - len(runs_b))
    for runs, fifo in ((runs_a, input_a), (runs_b, input_b)):
        for run in runs:
            assert len(run) % k == 0, "test harness: pad runs to k"
            for start in range(0, len(run), k):
                fifo.push(tuple(run[start : start + k]))
            fifo.push(TERMINAL)
    merger = KMerger(k=k, input_a=input_a, input_b=input_b, output=output)
    expected_runs = max(len(runs_a), len(runs_b))
    for _ in range(200_000):
        merger.tick()
        terminals = sum(1 for item in output._items if is_terminal(item))
        if terminals >= expected_runs:
            break
    else:  # pragma: no cover - failure path
        raise AssertionError("merger did not finish")
    result: list[list[int]] = []
    current: list[int] = []
    for item in output.drain():
        if is_terminal(item):
            result.append(current)
            current = []
        else:
            current.extend(item)
    return result


class TestSingleRun:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_random_streams(self, k):
        rng = random.Random(k)
        run_a = sorted(rng.randrange(1000) for _ in range(k * rng.randrange(1, 12)))
        run_b = sorted(rng.randrange(1000) for _ in range(k * rng.randrange(1, 12)))
        assert run_merger(k, [run_a], [run_b]) == [sorted(run_a + run_b)]

    def test_empty_against_nonempty(self):
        assert run_merger(2, [[]], [[1, 2, 3, 4]]) == [[1, 2, 3, 4]]
        assert run_merger(2, [[1, 2, 3, 4]], [[]]) == [[1, 2, 3, 4]]

    def test_both_empty(self):
        assert run_merger(4, [[]], [[]]) == [[]]

    def test_all_duplicates(self):
        assert run_merger(2, [[5, 5, 5, 5]], [[5, 5]]) == [[5] * 6]

    def test_disjoint_ranges_either_order(self):
        low, high = [1, 2, 3, 4], [50, 60, 70, 80]
        assert run_merger(4, [low], [high]) == [sorted(low + high)]
        assert run_merger(4, [high], [low]) == [sorted(low + high)]

    def test_interleaved_worst_case(self):
        # Alternating picks force maximal selection switching.
        run_a = list(range(0, 64, 2))
        run_b = list(range(1, 64, 2))
        assert run_merger(4, [run_a], [run_b]) == [list(range(64))]

    def test_large_then_small_tuples(self):
        # The adversarial shape for naive selection rules: a tuple whose
        # tail is far larger than the other stream's next head.
        run_a = [1, 100, 101, 102, 103, 104, 105, 106]
        run_b = [2, 3, 4, 5, 6, 7, 8, 9]
        assert run_merger(4, [run_a], [run_b]) == [sorted(run_a + run_b)]


class TestExhaustive:
    """Every pair of sorted streams over a small alphabet."""

    def test_exhaustive_k1(self):
        values = [0, 1, 2]
        streams = [
            sorted(c)
            for length in range(0, 4)
            for c in itertools.combinations_with_replacement(values, length)
        ]
        for run_a in streams:
            for run_b in streams:
                assert run_merger(1, [list(run_a)], [list(run_b)]) == [
                    sorted(run_a + run_b)
                ]

    def test_exhaustive_k2(self):
        values = [0, 1, 2]
        streams = [
            sorted(c)
            for length in (0, 2, 4)
            for c in itertools.combinations_with_replacement(values, length)
        ]
        for run_a in streams:
            for run_b in streams:
                assert run_merger(2, [list(run_a)], [list(run_b)]) == [
                    sorted(run_a + run_b)
                ]


class TestMultiRun:
    def test_back_to_back_runs_flush_state(self):
        # §V-B: state must be flushed between runs; values from one run
        # must never leak into the next.
        runs_a = [[10, 20], [1, 2]]
        runs_b = [[15, 25], [3, 4]]
        assert run_merger(2, runs_a, runs_b) == [[10, 15, 20, 25], [1, 2, 3, 4]]

    def test_many_short_runs(self):
        rng = random.Random(42)
        runs_a, runs_b = [], []
        for _ in range(20):
            runs_a.append(sorted(rng.randrange(100) for _ in range(2)))
            runs_b.append(sorted(rng.randrange(100) for _ in range(2)))
        merged = run_merger(2, runs_a, runs_b)
        assert merged == [sorted(a + b) for a, b in zip(runs_a, runs_b)]

    def test_unbalanced_run_counts(self):
        # One port has fewer runs: remaining groups see an empty side.
        assert run_merger(1, [[1], [2]], [[3]]) == [[1, 3], [2]]


class TestProperty:
    @given(
        st.lists(st.integers(0, 50), min_size=0, max_size=12).map(sorted),
        st.lists(st.integers(0, 50), min_size=0, max_size=12).map(sorted),
    )
    @settings(max_examples=200, deadline=None)
    def test_k1_merges_any_sorted_streams(self, run_a, run_b):
        assert run_merger(1, [run_a], [run_b]) == [sorted(run_a + run_b)]

    @given(
        st.integers(0, 6),
        st.integers(0, 6),
        st.integers(0, 10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_k4_merges_random_tuples(self, len_a, len_b, seed):
        rng = random.Random(seed)
        run_a = sorted(rng.randrange(100) for _ in range(4 * len_a))
        run_b = sorted(rng.randrange(100) for _ in range(4 * len_b))
        assert run_merger(4, [run_a], [run_b]) == [sorted(run_a + run_b)]


class TestProtocolErrors:
    def test_rejects_non_power_of_two_k(self):
        fifos = [Fifo(4), Fifo(4), Fifo(4)]
        with pytest.raises(SimulationError):
            KMerger(k=3, input_a=fifos[0], input_b=fifos[1], output=fifos[2])

    def test_rejects_wrong_tuple_width(self):
        input_a, input_b, output = Fifo(4), Fifo(4), Fifo(4)
        merger = KMerger(k=2, input_a=input_a, input_b=input_b, output=output)
        input_a.push((1, 2, 3))
        input_b.push((4, 5))
        with pytest.raises(SimulationError, match="expected 2-record"):
            merger.tick()

    def test_stalls_on_full_output(self):
        input_a, input_b = Fifo(8), Fifo(8)
        output = Fifo(1)
        merger = KMerger(k=1, input_a=input_a, input_b=input_b, output=output)
        for value in (1, 3):
            input_a.push((value,))
        for value in (2, 4):
            input_b.push((value,))
        for _ in range(10):
            merger.tick()
        # Only one item fits; the merger must be stalled, not crashed.
        assert len(output) == 1
        assert merger.stats.stall_output > 0

    def test_stalls_when_one_port_empty(self):
        input_a, input_b, output = Fifo(8), Fifo(8), Fifo(8)
        merger = KMerger(k=1, input_a=input_a, input_b=input_b, output=output)
        input_a.push((1,))
        input_a.push((2,))
        merger.tick()  # cannot compare: port b is empty and not terminal
        assert output.is_empty


class TestStallClassification:
    """Stalls only count against a run that is actually underway."""

    def _merger(self, output_capacity=8):
        input_a, input_b = Fifo(8), Fifo(8)
        output = Fifo(output_capacity)
        merger = KMerger(k=1, input_a=input_a, input_b=input_b, output=output)
        return merger, input_a, input_b, output

    def test_full_output_before_any_input_is_idle(self):
        merger, _a, _b, output = self._merger(output_capacity=1)
        output.push((0,))  # downstream congestion before the run starts
        merger.tick()
        assert merger.stats.idle_cycles == 1
        assert merger.stats.stall_output == 0

    def test_full_output_mid_run_is_stall_output(self):
        merger, input_a, input_b, output = self._merger(output_capacity=1)
        input_a.push((1,))
        input_b.push((2,))
        merger.tick()  # primes the feedback register: run in progress
        output.push((0,))
        merger.tick()
        assert merger.stats.stall_output == 1
        assert merger.stats.idle_cycles == 0

    def test_empty_inputs_before_run_is_idle(self):
        merger, _a, _b, _out = self._merger()
        merger.tick()
        assert merger.stats.idle_cycles == 1
        assert merger.stats.stall_input == 0

    def test_empty_port_mid_run_is_stall_input(self):
        merger, input_a, input_b, _out = self._merger()
        input_a.push((1,))
        input_b.push((2,))
        merger.tick()  # primed: run now in progress
        input_b.pop()  # starve port b mid-run
        merger.tick()
        assert merger.stats.stall_input == 1
        assert merger.stats.idle_cycles == 0


class TestStatistics:
    def test_priming_and_flush_counted(self):
        runs = run_merger  # silence linters; use helper inline below
        input_a, input_b, output = Fifo(64), Fifo(64), Fifo(64)
        for value in (1, 2):
            input_a.push((value,))
        input_a.push(TERMINAL)
        for value in (3, 4):
            input_b.push((value,))
        input_b.push(TERMINAL)
        merger = KMerger(k=1, input_a=input_a, input_b=input_b, output=output)
        for _ in range(20):
            merger.tick()
        assert merger.stats.prime_cycles == 1
        assert merger.stats.runs_completed == 1
        # Terminal consumption is free tag recognition (§V-B: one-cycle
        # flush); only the downstream terminal emission costs the cycle.
        assert merger.stats.flush_cycles == 1

    def test_utilization_bounded(self):
        input_a, input_b, output = Fifo(64), Fifo(64), Fifo(64)
        merger = KMerger(k=1, input_a=input_a, input_b=input_b, output=output)
        merger.tick()
        assert 0.0 <= merger.stats.utilization <= 1.0
