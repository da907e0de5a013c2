"""Oracle suite for the merge paths: each against an independent reference.

* the k-merger's bound 2k half-merge kernel against ``sorted()`` and
  ``np.sort`` of the 2k inputs, at every paper merger width;
* the model-mode merge (:func:`repro.engine.stage.merge_runs_numpy` and
  ``merge_stage``: one stable sort per group) and the ``searchsorted``
  position merge ``merge_two_sorted_with_perm`` that the key/value path
  uses, against a scalar two-pointer merge, on ragged, duplicate-heavy,
  empty-side and full-range ``uint64`` runs;
* ``simulate_merge``'s event-driven engine against the naive stepper.

The gensort codec's per-record oracle lives in
``tests/records/test_gensort.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.engine.stage import merge_runs_numpy, merge_stage, merge_two_sorted_with_perm
from repro.hw.fifo import Fifo
from repro.hw.merger import KMerger
from repro.hw.tree import simulate_merge

SEEDS = range(32)
WIDTHS = (1, 2, 4, 8, 16, 32)


def two_pointer_merge(left, right) -> list:
    """Reference stable merge of two sorted sequences (left wins ties)."""
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            out.append(right[j])
            j += 1
        else:
            out.append(left[i])
            i += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return out


def _bound_kernel(k: int):
    """The 2k half-merge kernel a k-merger binds at construction."""
    fifos = [Fifo(capacity=2, name=f"f{i}") for i in range(3)]
    return KMerger(k=k, input_a=fifos[0], input_b=fifos[1], output=fifos[2])._merge_kernel


def _sorted_tuple(rng: random.Random, k: int, key_range: int) -> tuple:
    return tuple(sorted(rng.randrange(0, key_range) for _ in range(k)))


def _assert_kernel_sorts(k: int, left: tuple, right: tuple) -> None:
    """The kernel's (lower, upper) halves are the sorted 2k inputs, per
    both the Python and the numpy reference sort."""
    lower, upper = _bound_kernel(k)(left, right)
    reference = sorted(left + right)
    assert lower == tuple(reference[:k])
    assert upper == tuple(reference[k:])
    assert list(lower + upper) == np.sort(np.asarray(left + right, dtype=np.uint64)).tolist()


class TestTupleKernel:
    @pytest.mark.parametrize("k", WIDTHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_numpy_matches_python_random(self, k, seed):
        rng = random.Random(seed)
        _assert_kernel_sorts(k, _sorted_tuple(rng, k, 1 << 30), _sorted_tuple(rng, k, 1 << 30))

    @pytest.mark.parametrize("k", WIDTHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_numpy_matches_python_duplicate_heavy(self, k, seed):
        rng = random.Random(1000 + seed)
        _assert_kernel_sorts(k, _sorted_tuple(rng, k, 4), _sorted_tuple(rng, k, 4))

    def test_halves_partition_and_sort(self):
        lower, upper = _bound_kernel(4)((1, 5, 9, 11), (2, 6, 7, 12))
        assert lower == (1, 2, 5, 6)
        assert upper == (7, 9, 11, 12)
        assert max(lower) <= min(upper)

    def test_width_one_is_compare_swap(self):
        kernel = _bound_kernel(1)
        assert kernel((2,), (1,)) == ((1,), (2,))
        assert kernel((1,), (2,)) == ((1,), (2,))
        # Ties keep the left operand first (the merger's <= preference):
        # 3 and 3.0 compare equal but stay distinguishable.
        lower, upper = kernel((3,), (3.0,))
        assert type(lower[0]) is int and type(upper[0]) is float


class TestRunKernel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_sorted_concatenation(self, seed):
        rng = random.Random(seed)
        left = sorted(rng.randrange(0, 100) for _ in range(rng.randrange(0, 40)))
        right = sorted(rng.randrange(0, 100) for _ in range(rng.randrange(0, 40)))
        expected = two_pointer_merge(left, right)
        assert expected == sorted(left + right)
        merged = merge_runs_numpy([np.asarray(left), np.asarray(right)])
        assert merged.tolist() == expected

    def test_left_wins_ties(self):
        # The oracle's own tie rule: floats vs ints compare equal but
        # keep their object identity through the merge.
        merged = two_pointer_merge([1, 2.0, 3], [2, 3.0])
        assert merged == [1, 2.0, 2, 3, 3.0]
        assert type(merged[1]) is float and type(merged[2]) is int

    def test_empty_sides(self):
        # An empty side returns a copy of the other with its own dtype.
        run = np.asarray([1, 2], dtype=np.uint32)
        empty = np.asarray([])
        for merged in (merge_runs_numpy([empty, run]), merge_runs_numpy([run, empty])):
            assert merged.dtype == np.uint32
            assert merged.tolist() == [1, 2]
            assert merged is not run
        both = merge_runs_numpy([np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)])
        assert both.dtype == np.uint64 and both.size == 0


def _ragged_run(rng: np.random.Generator, key_space: str) -> np.ndarray:
    size = int(rng.integers(0, 700))
    if key_space == "full_range":
        return np.sort(rng.integers(0, 2**64 - 1, size=size, dtype=np.uint64, endpoint=True))
    return np.sort(rng.integers(0, 50, size=size).astype(np.uint64))


class TestArrayKernel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_backends_bit_identical_on_ragged_runs(self, seed):
        """Both merges equal the two-pointer oracle bit for bit."""
        rng = np.random.default_rng(seed)
        for key_space in ("duplicate_heavy", "full_range"):
            left = _ragged_run(rng, key_space)
            right = _ragged_run(rng, key_space)
            (merged,) = merge_stage([left, right], leaves=2)
            expected = two_pointer_merge(left.tolist(), right.tolist())
            assert merged.dtype == np.uint64
            assert merged.tolist() == expected
            assert np.array_equal(merge_two_sorted_with_perm(left, right)[0], merged)

    def test_stability_keeps_left_first(self):
        left = np.asarray([5, 5, 7, 2**64 - 1], dtype=np.uint64)
        right = np.asarray([5, 6, 7, 2**64 - 1], dtype=np.uint64)
        merged, left_pos, right_pos = merge_two_sorted_with_perm(left, right)
        # Every tied left record lands before its right counterparts.
        assert left_pos.tolist() == [0, 1, 4, 6]
        assert right_pos.tolist() == [2, 3, 5, 7]
        assert merged.tolist() == two_pointer_merge(left.tolist(), right.tolist())
        assert np.array_equal(merge_runs_numpy([left, right]), merged)


class TestSimulatorBackendIdentity:
    """Whole-simulation differential: outputs *and* cycle accounting of
    the event-driven engine equal the naive stepper's."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p,leaves", ((2, 4), (4, 4), (8, 16)))
    def test_simulate_merge_identical_across_backends(self, seed, p, leaves):
        rng = random.Random(seed)
        runs = [
            sorted(rng.randrange(0, 64) for _ in range(rng.randrange(1, 120)))
            for _ in range(leaves)
        ]
        fast = simulate_merge(p, leaves, runs, check_sorted_inputs=False, engine="fast")
        naive = simulate_merge(p, leaves, runs, check_sorted_inputs=False, engine="naive")
        assert fast == naive
        assert fast[0] == [sorted(record for run in runs for record in run)]
