"""Output validation in the style of the sort benchmark's ``valsort``.

Jim Gray's benchmark (which the paper follows for its gensort datasets,
§VI-A) pairs ``gensort`` with ``valsort``: a validator that checks the
output is ordered and that no records were lost, using an
order-independent checksum so validation needs no copy of the input.

:func:`summarize` computes the same three facts for a key array —
record count, sortedness (with the first violation's position), and an
order-independent checksum — and :func:`validate_sort` compares the
input and output summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError

_CHECKSUM_MODULUS = (1 << 61) - 1  # Mersenne prime: cheap modular sum
#: Keys per checksum pass: bounds the uint64 temporaries and keeps each
#: pass's sums of 32-bit halves below 2**50.
_CHECKSUM_CHUNK = 1 << 18
_HALF_BITS = np.uint64(32)
_LOW_HALF = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class SortSummary:
    """Validation facts about one record stream."""

    records: int
    checksum: int
    is_sorted: bool
    first_violation: int | None
    duplicates: int

    def ok_against(self, source: "SortSummary") -> bool:
        """Sorted, and record-preserving with respect to ``source``."""
        return (
            self.is_sorted
            and self.records == source.records
            and self.checksum == source.checksum
        )


def _exact_sum(values: np.ndarray) -> int:
    """Exact sum of uint64 values: their 32-bit halves are summed apart.

    Each half is below 2**32, so over one chunk the two sums cannot
    wrap; Python ints recombine them.
    """
    high = int(np.sum(values >> _HALF_BITS))
    return (high << 32) + int(np.sum(values & _LOW_HALF))


def _checksum(keys: np.ndarray) -> int:
    """Order-independent checksum: sum of (key^2 + key) mod a prime.

    Squaring makes the sum sensitive to *which* multiset of keys is
    present, not only their total; it distinguishes e.g. {1, 3} from
    {2, 2}, which a plain sum would not.  Keys are taken as uint64
    (negative ints wrap) and squared exactly in uint64 numpy: with
    ``k = hi * 2**32 + lo``, ``k**2 = hi**2 * 2**64 + hi * lo * 2**33 +
    lo**2``, and every product of two 32-bit halves fits a uint64.
    """
    total = 0
    for start in range(0, keys.size, _CHECKSUM_CHUNK):
        chunk = keys[start : start + _CHECKSUM_CHUNK].astype(np.uint64, copy=False)
        hi = chunk >> _HALF_BITS
        lo = chunk & _LOW_HALF
        total += (
            (_exact_sum(hi * hi) << 64)
            + (_exact_sum(hi * lo) << 33)
            + _exact_sum(lo * lo)
            + _exact_sum(chunk)
        )
    return total % _CHECKSUM_MODULUS


def summarize(keys: np.ndarray) -> SortSummary:
    """Compute the validation summary of a key array."""
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise WorkloadError(f"expected a 1-D key array, got shape {keys.shape}")
    if keys.size == 0:
        return SortSummary(
            records=0, checksum=0, is_sorted=True, first_violation=None, duplicates=0
        )
    # Compare neighbours directly: a signed difference would wrap for
    # uint64 keys 2**63 or more apart.
    violations = np.flatnonzero(keys[1:] < keys[:-1])
    duplicates = int(np.count_nonzero(keys[1:] == keys[:-1]))
    return SortSummary(
        records=int(keys.size),
        checksum=_checksum(keys),
        is_sorted=violations.size == 0,
        first_violation=int(violations[0]) + 1 if violations.size else None,
        duplicates=duplicates,
    )


def content_digest(keys: np.ndarray) -> str:
    """Order-sensitive sha256 content digest of a key array (16 hex chars).

    The canonical "same output bytes" fingerprint used by the benchmark
    identity gates and the serve result cache: two runs agree iff their
    digests are string-equal.  Keys are widened to ``uint64`` first so
    the digest is independent of the array's inbound dtype; the hash
    reads the widened array's contiguous buffer directly.
    """
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(keys, dtype=np.uint64)).hexdigest()[:16]


def validate_sort(input_keys: np.ndarray, output_keys: np.ndarray) -> SortSummary:
    """Validate a sort run; raises :class:`WorkloadError` on any failure.

    Returns the output's summary on success (for reporting).
    """
    source = summarize(input_keys)
    result = summarize(output_keys)
    if not result.is_sorted:
        raise WorkloadError(
            f"output not sorted: first violation at record {result.first_violation}"
        )
    if result.records != source.records:
        raise WorkloadError(
            f"record count changed: {source.records} in, {result.records} out"
        )
    if result.checksum != source.checksum:
        raise WorkloadError(
            "checksum mismatch: the output is not a permutation of the input"
        )
    return result
