"""Functional merge-stage data path.

The kernels are checked against independent oracles: Python's
``sorted()`` of each group, a stable ``np.sort`` per group, and the
per-slice sort loop that ``split_into_runs`` replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.stage import (
    check_stage_invariants,
    merge_runs_numpy,
    merge_stage,
    split_into_runs,
)
from repro.errors import ConfigurationError

#: numpy's radix-sort path (16-bit keys), its timsort path (32 and 64
#: bits), and a signed key type.
DTYPES = (np.uint16, np.uint32, np.uint64, np.int64)


def merge_two(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """A two-way merge through the k-way kernel."""
    return merge_runs_numpy([left, right])


@st.composite
def stage_inputs(draw):
    """Ragged sorted runs of one dtype, duplicate-heavy or spanning the
    dtype's full range, and a merge width."""
    dtype = draw(st.sampled_from(DTYPES))
    info = np.iinfo(dtype)
    if draw(st.booleans()):
        keys = st.integers(max(int(info.min), -2), 3)
    else:
        keys = st.integers(int(info.min), int(info.max))
    runs = draw(st.lists(st.lists(keys, max_size=40).map(sorted), max_size=12))
    leaves = draw(st.sampled_from((2, 3, 4, 16)))
    return [np.array(run, dtype=dtype) for run in runs], leaves


class TestMergeTwoSorted:
    """Two-run merges through :func:`merge_runs_numpy`."""

    def test_basic(self):
        left = np.array([1, 3, 5], dtype=np.uint32)
        right = np.array([2, 4, 6], dtype=np.uint32)
        assert merge_two(left, right).tolist() == [1, 2, 3, 4, 5, 6]

    def test_empty_sides(self):
        data = np.array([1, 2], dtype=np.uint32)
        empty = np.array([], dtype=np.uint32)
        assert merge_two(data, empty).tolist() == [1, 2]
        assert merge_two(empty, data).tolist() == [1, 2]
        assert merge_two(empty, empty).size == 0

    def test_stability_ties_keep_left_first(self):
        # Verify with a structured dtype-free proxy: equal keys from the
        # left must land before equal keys from the right.
        left = np.array([5, 5], dtype=np.uint32)
        right = np.array([5], dtype=np.uint32)
        out = merge_two(left, right)
        assert out.tolist() == [5, 5, 5]
        # Positional check via searchsorted arithmetic: left elements
        # occupy indices 0 and 1.
        left_positions = np.arange(left.size) + np.searchsorted(right, left, "left")
        assert left_positions.tolist() == [0, 1]

    @given(
        st.lists(st.integers(0, 1000), max_size=50).map(sorted),
        st.lists(st.integers(0, 1000), max_size=50).map(sorted),
    )
    @settings(max_examples=100)
    def test_property(self, left, right):
        out = merge_two(
            np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
        )
        assert out.tolist() == sorted(left + right)


class TestMergeRuns:
    def test_tournament(self):
        runs = [np.array(sorted([7 * i % 13, 5 * i % 11, i])) for i in range(7)]
        out = merge_runs_numpy(runs)
        assert out.tolist() == sorted(x for run in runs for x in run)

    def test_empty_list(self):
        assert merge_runs_numpy([]).size == 0

    def test_single_run_passthrough(self):
        run = np.array([1, 2, 3])
        assert merge_runs_numpy([run]).tolist() == [1, 2, 3]


class TestMergeStage:
    def test_grouping(self):
        runs = [np.array([i]) for i in range(10)]
        out = merge_stage(runs, leaves=4)
        assert [r.tolist() for r in out] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_empty_input(self):
        out = merge_stage([], leaves=4)
        assert len(out) == 1 and out[0].size == 0

    def test_rejects_single_leaf(self):
        with pytest.raises(ConfigurationError):
            merge_stage([np.array([1])], leaves=1)

    def test_matches_hw_semantics(self):
        # Same grouping as repro.hw: output run j covers input group j.
        rng = np.random.default_rng(0)
        runs = [np.sort(rng.integers(0, 100, size=5)) for _ in range(8)]
        out = merge_stage(runs, leaves=4)
        assert out[0].tolist() == sorted(np.concatenate(runs[:4]).tolist())
        assert out[1].tolist() == sorted(np.concatenate(runs[4:]).tolist())

    @given(stage_inputs())
    @example(([], 2))
    @example(([np.array([1, 5, 5], dtype=np.uint16)], 4))
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_sort_per_group(self, case):
        runs, leaves = case
        out = merge_stage(runs, leaves)
        groups = [runs[start : start + leaves] for start in range(0, len(runs), leaves)]
        assert len(out) == max(1, len(groups))
        for merged, group in zip(out, groups):
            expected = np.sort(np.concatenate(group), kind="stable")
            assert merged.dtype == expected.dtype
            assert merged.tolist() == expected.tolist()
            assert merged.tolist() == sorted(int(key) for run in group for key in run)
        if not runs:
            assert out[0].size == 0


class TestSplitIntoRuns:
    def test_sorts_each_run(self):
        data = np.array([4, 3, 2, 1, 8, 7, 6, 5], dtype=np.uint32)
        runs = split_into_runs(data, 4)
        assert [r.tolist() for r in runs] == [[1, 2, 3, 4], [5, 6, 7, 8]]

    def test_presorted_skips_sorting(self):
        data = np.array([4, 3, 2, 1], dtype=np.uint32)
        runs = split_into_runs(data, 2, presorted=True)
        assert runs[0].tolist() == [4, 3]  # untouched
        runs = split_into_runs(np.array([6, 5, 4, 3, 2]), 3, presorted=True)
        assert [r.tolist() for r in runs] == [[6, 5, 4], [3, 2]]

    def test_runs_are_independent(self):
        data = np.arange(10, 0, -1, dtype=np.uint32)
        runs = split_into_runs(data, 4)
        runs[1][:] = 0
        assert [r.tolist() for r in runs] == [[7, 8, 9, 10], [0, 0, 0, 0], [1, 2]]
        assert data.tolist() == list(range(10, 0, -1))

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=200), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_slice_sort(self, values, run_length):
        data = np.array(values, dtype=np.uint64)
        runs = split_into_runs(data, run_length)
        expected = [
            np.sort(data[start : start + run_length], kind="stable")
            for start in range(0, data.size, run_length)
        ]
        assert [run.tolist() for run in runs] == [run.tolist() for run in expected]
        assert all(run.dtype == data.dtype for run in runs)

    def test_partial_tail(self):
        runs = split_into_runs(np.array([3, 1, 2]), 2)
        assert [r.tolist() for r in runs] == [[1, 3], [2]]

    def test_rejects_bad_run_length(self):
        with pytest.raises(ConfigurationError):
            split_into_runs(np.array([1]), 0)

    def test_does_not_mutate_input(self):
        data = np.array([2, 1], dtype=np.uint32)
        split_into_runs(data, 2)
        assert data.tolist() == [2, 1]


class TestInvariantChecker:
    def test_passes_valid_stage(self):
        runs_in = [np.array([1, 3]), np.array([2, 4])]
        runs_out = merge_stage(runs_in, leaves=2)
        check_stage_invariants(runs_in, runs_out, leaves=2)

    def test_detects_lost_records(self):
        with pytest.raises(ConfigurationError, match="lost records"):
            check_stage_invariants(
                [np.array([1, 2])], [np.array([1])], leaves=2
            )

    def test_detects_unsorted_output(self):
        with pytest.raises(ConfigurationError, match="not sorted"):
            check_stage_invariants(
                [np.array([1, 2])], [np.array([2, 1])], leaves=2
            )

    def test_detects_wrong_group_count(self):
        with pytest.raises(ConfigurationError, match="runs, expected"):
            check_stage_invariants(
                [np.array([1]), np.array([2])],
                [np.array([1]), np.array([2])],
                leaves=2,
            )
