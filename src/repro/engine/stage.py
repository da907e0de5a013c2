"""One merge stage: the functional data path.

The engine's "model" mode moves the actual data through an honest merge
(vectorised two-way merges arranged in a tournament, exactly the dataflow
of a binary merge tree) while timing comes from the performance model.
``simulate`` mode delegates to the cycle-level simulator instead.

All merges are stable with respect to key order; within equal keys the
left (lower-indexed-run) elements come first, matching the hardware
merger's ``<=`` port preference.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def merge_two_sorted_with_perm(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable two-way merge returning output positions for both inputs.

    Returns ``(merged, left_positions, right_positions)`` where
    ``merged[left_positions[i]] == left[i]``.  Each element's position
    is its index plus ``searchsorted`` into the other run: left elements
    shift right by the count of *strictly smaller* right elements, so
    ties keep left first — a genuine two-way merge, no re-sorting.
    """
    left = np.asarray(left)
    right = np.asarray(right)
    merged = np.empty(left.size + right.size, dtype=np.result_type(left, right))
    left_positions = np.arange(left.size) + np.searchsorted(right, left, side="left")
    right_positions = np.arange(right.size) + np.searchsorted(left, right, side="right")
    merged[left_positions] = left
    merged[right_positions] = right
    return merged, left_positions, right_positions


def merge_two_sorted(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Stable merge of two sorted arrays (left wins ties).

    The :func:`merge_two_sorted_with_perm` position merge; an empty
    side returns a copy of the other, keeping its dtype.
    """
    left = np.asarray(left)
    right = np.asarray(right)
    if left.size == 0:
        return right.copy()
    if right.size == 0:
        return left.copy()
    return merge_two_sorted_with_perm(left, right)[0]


def merge_runs_numpy(runs: list[np.ndarray]) -> np.ndarray:
    """Merge any number of sorted runs through a binary tournament.

    This is the same dataflow as an AMT with ``len(runs)`` leaves: runs
    merge pairwise level by level until one remains.
    """
    if not runs:
        return np.empty(0, dtype=np.uint64)
    level = [np.asarray(run) for run in runs]
    while len(level) > 1:
        # bonsai-lint: disable=hot-loop-alloc -- one list per merge level (log n levels), not per record
        next_level = []
        for index in range(0, len(level) - 1, 2):
            next_level.append(merge_two_sorted(level[index], level[index + 1]))
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    return level[0]


def merge_stage(runs: list[np.ndarray], leaves: int) -> list[np.ndarray]:
    """One AMT merge stage: groups of ``leaves`` runs each become one run.

    Mirrors :func:`repro.hw.loader.make_feeds`' grouping — output run
    ``j`` merges input runs ``[j * leaves, (j + 1) * leaves)``.
    """
    if leaves < 2:
        raise ConfigurationError(f"a merge stage needs >= 2 leaves, got {leaves}")
    if not runs:
        return [np.empty(0, dtype=np.uint64)]
    merged = []
    for start in range(0, len(runs), leaves):
        merged.append(merge_runs_numpy(runs[start : start + leaves]))
    return merged


def split_into_runs(data: np.ndarray, run_length: int, presorted: bool = False) -> list[np.ndarray]:
    """Slice an array into runs of ``run_length`` records, sorting each.

    The presorter's job (§VI-C): with ``presorted=True`` the slices are
    assumed sorted already and only split.
    """
    if run_length < 1:
        raise ConfigurationError(f"run length must be >= 1, got {run_length}")
    data = np.asarray(data)
    runs = []
    for start in range(0, data.size, run_length):
        chunk = data[start : start + run_length].copy()
        if not presorted:
            chunk.sort(kind="stable")
        runs.append(chunk)
    return runs


def check_stage_invariants(
    input_runs: list[np.ndarray], output_runs: list[np.ndarray], leaves: int
) -> None:
    """Assert a stage preserved records and produced sorted runs.

    Used by tests and the self-checking examples; raises
    :class:`ConfigurationError` with a diagnostic on violation.
    """
    in_count = sum(run.size for run in input_runs)
    out_count = sum(run.size for run in output_runs)
    if in_count != out_count:
        raise ConfigurationError(
            f"stage lost records: {in_count} in, {out_count} out"
        )
    expected_groups = max(1, -(-len(input_runs) // leaves))
    if len(output_runs) != expected_groups:
        raise ConfigurationError(
            f"stage produced {len(output_runs)} runs, expected {expected_groups}"
        )
    for index, run in enumerate(output_runs):
        if run.size > 1 and not np.all(run[:-1] <= run[1:]):
            raise ConfigurationError(f"stage output run {index} is not sorted")
