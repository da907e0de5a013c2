"""One merge stage: the functional data path.

The engine's "model" mode moves the actual data while timing comes from
the performance model; ``simulate`` mode delegates to the cycle-level
simulator instead.  A model-mode sorter returns only its final buffer,
and stable merges of stably sorted runs give the stable sort of the
whole input, so every model-mode sorter sorts its input once
(:func:`sort_kind`) and counts its stages from the model.  The merges
here serve the callers that keep their runs: :func:`merge_stage` merges
each group of ``leaves`` sorted runs by sorting the group's
concatenation, and since the runs sit in group order, a stable sort is
exactly the k-way merge in which the lower-indexed run wins ties.  That
group sort, :func:`sort_groups`, is also the cycle simulator's data
path: which records leave a stage depends on the keys alone, so
:func:`~repro.hw.tree.simulate_merge` merges its runs here and solves
only their timing.
Equal integer (and bool) keys are the same bytes, so for those dtypes
any sort returns the stable sort's bytes and numpy's default sort, the
fastest, is used; every other dtype keeps the stable sort
(:func:`sort_kind`).

All merges are stable with respect to key order; within equal keys the
left (lower-indexed-run) elements come first, matching the hardware
merger's ``<=`` port preference.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


def sort_kind(dtype: np.dtype) -> str | None:
    """The numpy sort kind whose output is the stable sort's, bit for bit.

    Equal integers and bools are identical bytes, so numpy's default
    sort (``None``) cannot be told apart from a stable one and is the
    fastest.  Other dtypes hold equal keys with different bytes (float
    ±0.0 and NaN payloads, records), so they sort with ``"stable"``.
    """
    return None if np.dtype(dtype).kind in "iub" else "stable"


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
    merged = np.concatenate(arrays)
    merged.sort(kind=sort_kind(merged.dtype))
    return merged


def merge_stage(runs: list[np.ndarray], leaves: int) -> list[np.ndarray]:
    """One AMT merge stage: groups of ``leaves`` runs each become one run.

    Mirrors :func:`repro.hw.loader.make_feeds`' grouping — output run
    ``j`` merges input runs ``[j * leaves, (j + 1) * leaves)``, exactly
    as :func:`merge_runs_numpy` would.  Runs of one dtype are
    concatenated once and merged by :func:`sort_groups`, so the output
    runs are disjoint slices of one fresh array; runs of mixed dtypes
    merge group by group, each group in its own result dtype.
    """
    if leaves < 2:
        raise ConfigurationError(f"a merge stage needs >= 2 leaves, got {leaves}")
    if not runs:
        return [np.empty(0, dtype=np.uint64)]
    arrays = [np.asarray(run) for run in runs]
    starts = range(0, len(arrays), leaves)
    if len({array.dtype for array in arrays}) > 1:
        return [merge_runs_numpy(arrays[start : start + leaves]) for start in starts]
    return sort_groups(np.concatenate(arrays), [array.size for array in arrays], leaves)


def sort_groups(keys: np.ndarray, lengths: Sequence[int], leaves: int) -> list[np.ndarray]:
    """Merge a stage's runs laid end to end in ``keys``, in place.

    ``lengths`` are the runs' sizes in order; each group of ``leaves``
    consecutive runs becomes one run, sorted in place under
    :func:`sort_kind` (a group of one run is already sorted).  Returns
    the groups as disjoint slices of ``keys``, and one empty slice for a
    stage without runs.  :func:`merge_stage` and the cycle simulator's
    :func:`~repro.hw.tree.simulate_merge` both merge through here.
    """
    kind = sort_kind(keys.dtype)
    offsets = list(accumulate(lengths, initial=0))
    count = len(lengths)
    merged = []
    for start in range(0, max(count, 1), leaves):
        stop = min(start + leaves, count)
        group = keys[offsets[start] : offsets[stop]]
        if stop - start > 1:
            group.sort(kind=kind)
        merged.append(group)
    return merged


def split_into_runs(data: np.ndarray, run_length: int, presorted: bool = False) -> list[np.ndarray]:
    """Slice an array into runs of ``run_length`` records, sorting each.

    The presorter's job (§VI-C): with ``presorted=True`` the slices are
    assumed sorted already and only split.  The input is copied once;
    its full runs sort as the rows of one matrix, the ragged tail on its
    own, under :func:`sort_kind`.  The runs are disjoint slices of that
    copy, so writing into one changes neither its neighbours nor the
    input.
    """
    if run_length < 1:
        raise ConfigurationError(f"run length must be >= 1, got {run_length}")
    out = np.array(data)
    full = out.size - out.size % run_length
    if not presorted:
        kind = sort_kind(out.dtype)
        out[:full].reshape(-1, run_length).sort(axis=1, kind=kind)
        out[full:].sort(kind=kind)
    return list(out[:full].reshape(-1, run_length)) + (
        [out[full:]] if full < out.size else []
    )


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
