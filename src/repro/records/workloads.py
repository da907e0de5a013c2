"""Deterministic workload generators.

The paper benchmarks 32-bit integers "generated uniformly at random"
(§VI-A).  For robustness testing and the adversarial cases the merge tree
must survive (already-sorted input, all-equal keys, presorted runs), we
provide a family of generators behind one dispatch function,
:func:`generate`, keyed by :class:`WorkloadSpec`.

All generators are deterministic given a seed and return numpy arrays of
an unsigned dtype sized for the record format, with keys in
``[1, fmt.max_key]``.  Zero is excluded by default because the paper
reserves the zero record as the terminal/flush marker (§V-B); generators
accept ``allow_zero=True`` where a test wants to exercise that corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from repro.errors import WorkloadError
from repro.records.record import RecordFormat, U32, key_dtype_for


@dataclass(frozen=True)
class WorkloadSpec:
    """A named, parameterised workload.

    Parameters
    ----------
    kind:
        Generator name; one of the keys of :data:`GENERATORS`.
    n_records:
        Number of records to generate.
    fmt:
        Record format (defines key width and dtype).
    seed:
        PRNG seed; equal specs generate identical arrays.
    params:
        Generator-specific parameters (e.g. ``distinct`` for
        ``duplicate_heavy``; ``run_length`` for ``runs``).
    """

    kind: str
    n_records: int
    fmt: RecordFormat = U32
    seed: int = 0
    params: tuple = field(default=())

    def param_dict(self) -> Dict[str, object]:
        """Generator-specific parameters as a keyword dictionary."""
        return dict(self.params)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _key_space(fmt: RecordFormat, allow_zero: bool) -> tuple[int, int]:
    low = 0 if allow_zero else 1
    # numpy integers() upper bound is exclusive; cap at dtype max.
    high = min(fmt.max_key, np.iinfo(key_dtype_for(fmt)).max)
    return low, high


def uniform_random(
    n_records: int, fmt: RecordFormat = U32, seed: int = 0, allow_zero: bool = False
) -> np.ndarray:
    """Keys drawn uniformly at random — the paper's benchmark workload."""
    _check_count(n_records)
    low, high = _key_space(fmt, allow_zero)
    return _rng(seed).integers(
        low, high, size=n_records, dtype=key_dtype_for(fmt), endpoint=True
    )


def sorted_ascending(
    n_records: int, fmt: RecordFormat = U32, seed: int = 0
) -> np.ndarray:
    """Already-sorted input: best case for merging, exercises run detection."""
    data = uniform_random(n_records, fmt, seed)
    data.sort()
    return data


def sorted_descending(
    n_records: int, fmt: RecordFormat = U32, seed: int = 0
) -> np.ndarray:
    """Reverse-sorted input: the classic adversarial case for merge sort."""
    return sorted_ascending(n_records, fmt, seed)[::-1].copy()


def nearly_sorted(
    n_records: int,
    fmt: RecordFormat = U32,
    seed: int = 0,
    swap_fraction: float = 0.01,
) -> np.ndarray:
    """Sorted input with a fraction of random element swaps."""
    _check_count(n_records)
    if not 0 <= swap_fraction <= 1:
        raise WorkloadError(f"swap_fraction must be in [0, 1], got {swap_fraction}")
    data = sorted_ascending(n_records, fmt, seed)
    n_swaps = int(n_records * swap_fraction)
    if n_swaps and n_records >= 2:
        rng = _rng(seed + 1)
        left = rng.integers(0, n_records, size=n_swaps)
        right = rng.integers(0, n_records, size=n_swaps)
        data[left], data[right] = data[right].copy(), data[left].copy()
    return data


def duplicate_heavy(
    n_records: int, fmt: RecordFormat = U32, seed: int = 0, distinct: int = 16
) -> np.ndarray:
    """Few distinct keys: stresses merger tie handling and stability paths."""
    _check_count(n_records)
    if distinct < 1:
        raise WorkloadError(f"distinct must be >= 1, got {distinct}")
    rng = _rng(seed)
    palette = uniform_random(distinct, fmt, seed + 1)
    picks = rng.integers(0, distinct, size=n_records)
    return palette[picks]


def zipfian(
    n_records: int, fmt: RecordFormat = U32, seed: int = 0, exponent: float = 1.2
) -> np.ndarray:
    """Zipf-distributed keys: heavy skew typical of MapReduce key streams."""
    _check_count(n_records)
    if exponent <= 1.0:
        raise WorkloadError(f"zipf exponent must exceed 1, got {exponent}")
    rng = _rng(seed)
    raw = rng.zipf(exponent, size=n_records).astype(np.uint64)
    low, high = _key_space(fmt, allow_zero=False)
    clipped = np.minimum(raw, high - low)
    return (clipped + low).astype(key_dtype_for(fmt))


def skewed_nearly_sorted(
    n_records: int,
    fmt: RecordFormat = U32,
    seed: int = 0,
    exponent: float = 1.3,
    swap_fraction: float = 0.05,
) -> np.ndarray:
    """Zipf-skewed keys, sorted, then locally disordered by swaps.

    The adversarial shape for a range-partitioned cluster sort: the key
    *histogram* is heavily skewed (naive equal-width splitters would
    dump most records on one node), while the near-sortedness keeps the
    per-node merge work realistic for a resharded shuffle spill.  The
    ledger's ``cluster_skewed`` workload sorts it.
    """
    _check_count(n_records)
    if not 0 <= swap_fraction <= 1:
        raise WorkloadError(f"swap_fraction must be in [0, 1], got {swap_fraction}")
    data = zipfian(n_records, fmt, seed, exponent=exponent)
    data.sort()
    n_swaps = int(n_records * swap_fraction)
    if n_swaps and n_records >= 2:
        rng = _rng(seed + 1)
        left = rng.integers(0, n_records, size=n_swaps)
        right = rng.integers(0, n_records, size=n_swaps)
        data[left], data[right] = data[right].copy(), data[left].copy()
    return data


def runs_of_sorted(
    n_records: int, fmt: RecordFormat = U32, seed: int = 0, run_length: int = 16
) -> np.ndarray:
    """Concatenation of independently sorted runs.

    Mirrors the output of the paper's 16-record bitonic presorter (§VI-C),
    making it the natural input of a non-first merge stage.
    """
    _check_count(n_records)
    if run_length < 1:
        raise WorkloadError(f"run_length must be >= 1, got {run_length}")
    data = uniform_random(n_records, fmt, seed)
    for start in range(0, n_records, run_length):
        chunk = data[start : start + run_length]
        chunk.sort()
        data[start : start + run_length] = chunk
    return data


def sawtooth(
    n_records: int, fmt: RecordFormat = U32, seed: int = 0, teeth: int = 8
) -> np.ndarray:
    """Repeating ascending ramps — the classic merge-adversarial shape.

    Every ramp is an already-sorted run whose head undercuts the previous
    ramp's tail, maximising selection switching inside the mergers.
    """
    _check_count(n_records)
    if teeth < 1:
        raise WorkloadError(f"teeth must be >= 1, got {teeth}")
    low, high = _key_space(fmt, allow_zero=False)
    ramp = np.linspace(low, high, num=max(1, n_records // teeth), endpoint=True)
    # Tile enough whole ramps to cover the request: short ramps (n < teeth)
    # would otherwise come up one record shy of n_records.
    repeats = -(-n_records // len(ramp))
    data = np.tile(ramp, repeats)[:n_records]
    return data.astype(key_dtype_for(fmt))


def organ_pipe(n_records: int, fmt: RecordFormat = U32, seed: int = 0) -> np.ndarray:
    """Ascend to a peak then descend — one huge bitonic sequence.

    Stresses run detection (two natural runs) and the presorter's
    handling of direction changes.
    """
    _check_count(n_records)
    low, high = _key_space(fmt, allow_zero=False)
    up = np.linspace(low, high, num=(n_records + 1) // 2, endpoint=True)
    down = up[::-1][: n_records - up.size]
    return np.concatenate([up, down]).astype(key_dtype_for(fmt))


def shifted_sorted(
    n_records: int, fmt: RecordFormat = U32, seed: int = 0, shift_fraction: float = 0.25
) -> np.ndarray:
    """A sorted array rotated by a fraction — two sorted runs.

    The shape a crash-interrupted external sort leaves behind; sorters
    that exploit presortedness should be fast, and merge trees handle it
    as exactly two runs.
    """
    _check_count(n_records)
    if not 0 <= shift_fraction < 1:
        raise WorkloadError(
            f"shift fraction must be in [0, 1), got {shift_fraction}"
        )
    data = sorted_ascending(n_records, fmt, seed)
    shift = int(n_records * shift_fraction)
    return np.roll(data, shift)


def _check_count(n_records: int) -> None:
    if n_records < 0:
        raise WorkloadError(f"record count must be >= 0, got {n_records}")


GENERATORS: Dict[str, Callable[..., np.ndarray]] = {
    "uniform": uniform_random,
    "sorted": sorted_ascending,
    "reverse": sorted_descending,
    "nearly_sorted": nearly_sorted,
    "duplicates": duplicate_heavy,
    "zipf": zipfian,
    "skewed_sorted": skewed_nearly_sorted,
    "runs": runs_of_sorted,
    "sawtooth": sawtooth,
    "organ_pipe": organ_pipe,
    "shifted": shifted_sorted,
}


def generate(spec: WorkloadSpec) -> np.ndarray:
    """Materialise a workload from its spec.

    Raises
    ------
    WorkloadError
        If the spec names an unknown generator or has invalid parameters.
    """
    try:
        factory = GENERATORS[spec.kind]
    except KeyError:
        known = ", ".join(sorted(GENERATORS))
        raise WorkloadError(
            f"unknown workload kind {spec.kind!r}; known kinds: {known}"
        ) from None
    return factory(spec.n_records, spec.fmt, spec.seed, **spec.param_dict())
