"""One merge stage: the functional data path.

The engine's "model" mode moves the actual data while timing comes from
the performance model; ``simulate`` mode delegates to the cycle-level
simulator instead.  Model mode merges each group of ``leaves`` sorted
runs with one stable sort of their concatenation.  For 32- and 64-bit
keys numpy's stable sort is timsort, which detects the presorted runs
and merges them with galloping, so this is a real k-way merge at
``np.sort`` speed.  Its output is bit-identical to the binary tournament
of two-way merges it replaced.

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


def merge_runs_numpy(runs: list[np.ndarray]) -> np.ndarray:
    """Stable k-way merge of sorted runs (lower-indexed runs win ties).

    The runs are concatenated in order, so one stable sort is exactly
    the merge.  A single run passes through uncopied; empty runs are
    dropped first, so they never widen the output dtype, and an all-empty
    group keeps the last run's dtype.
    """
    if not runs:
        return np.empty(0, dtype=np.uint64)
    if len(runs) == 1:
        return np.asarray(runs[0])
    arrays = [run for run in map(np.asarray, runs) if run.size]
    if not arrays:
        return np.asarray(runs[-1]).copy()
    return np.sort(np.concatenate(arrays), kind="stable")


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
    assumed sorted already and only split.  The input is copied once and
    its full runs are sorted as the rows of one matrix, the ragged tail
    on its own.  The runs are disjoint slices of that copy, so writing
    into one changes neither its neighbours nor the input.
    """
    if run_length < 1:
        raise ConfigurationError(f"run length must be >= 1, got {run_length}")
    out = np.array(data)
    full = out.size - out.size % run_length
    rows = out[:full].reshape(-1, run_length)
    tail = out[full:]
    if not presorted:
        rows.sort(axis=1, kind="stable")
        tail.sort(kind="stable")
    return list(rows) + ([tail] if tail.size else [])


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
