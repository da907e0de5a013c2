"""Output validation in the style of the sort benchmark's ``valsort``.

Jim Gray's benchmark (which the paper follows for its gensort datasets,
§VI-A) pairs ``gensort`` with ``valsort``: a validator that checks the
output is ordered and that no records were lost, using an
order-independent checksum so validation needs no copy of the input.

:func:`summarize` computes the same three facts for a key array —
record count, sortedness (with the first violation's position), and an
order-independent checksum — plus the count of equal neighbours, in
one fused pass: each chunk of keys gets its order check, duplicate
count and checksum while it is in cache.  :func:`validate_sort` runs
that pass over the output and needs only the count and checksum of the
input, which may be in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError

_CHECKSUM_MODULUS = (1 << 61) - 1  # Mersenne prime: cheap modular sum
#: Keys per chunk: bounds the chunk buffers and keeps each chunk's sums
#: of 32-bit halves below 2**50.
_CHECKSUM_CHUNK = 1 << 18
#: Keys per widened slice :func:`content_digest` hashes: its one reused
#: uint64 buffer stays cache-sized.
_DIGEST_CHUNK = 1 << 16
_HALF_BITS = np.uint64(32)
_LOW_HALF = np.uint64(0xFFFFFFFF)
_WORD = 1 << 64


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
    """Exact sum of at most one chunk of uint64 values; overwrites them.

    numpy's uint64 sum wraps modulo 2**64.  The sum of the values' high
    halves cannot wrap (each is below 2**32), and it fixes the exact
    sum of the low halves, below 2**50, from the wrapped total.
    """
    wrapped = int(values.sum())
    high = int(np.right_shift(values, _HALF_BITS, out=values).sum()) << 32
    return high + (wrapped - high) % _WORD


class _Checksum:
    """Running sum of ``key**2 + key`` over chunks, in exact integers.

    Keys are taken as uint64 (negative ints wrap).  A key of 32 bits or
    fewer (unsigned or bool) squares exactly in uint64.  A wider one is
    split as ``k = hi * 2**32 + lo``, so ``k**2 = hi**2 * 2**64 +
    hi * lo * 2**33 + lo**2``, and every product of two 32-bit halves
    fits a uint64.  Signed dtypes take the wide path whatever their
    size, because a negative key wraps to a 64-bit value.  The chunk
    buffers are allocated once, so no full-size widened copy of the
    keys is ever made.
    """

    def __init__(self, dtype: np.dtype, size: int) -> None:
        self.narrow = dtype.kind in "ub" and dtype.itemsize <= 4
        length = min(size, _CHECKSUM_CHUNK)
        self.keys = np.empty(length, dtype=np.uint64)
        if not self.narrow:
            self.high = np.empty(length, dtype=np.uint64)
            self.product = np.empty(length, dtype=np.uint64)
        self.total = 0

    def add(self, chunk: np.ndarray) -> None:
        """Fold at most one chunk of keys into the running sum."""
        size = chunk.size
        keys = self.keys[:size]
        if self.narrow:
            self.total += int(chunk.sum(dtype=np.uint64))
            self.total += _exact_sum(np.multiply(chunk, chunk, out=keys, dtype=np.uint64))
            return
        high, product = self.high[:size], self.product[:size]
        np.copyto(keys, chunk, casting="unsafe")
        wrapped = int(keys.sum())
        high_sum = int(np.right_shift(keys, _HALF_BITS, out=high).sum()) << 32
        low = np.bitwise_and(keys, _LOW_HALF, out=keys)
        self.total += (
            high_sum + (wrapped - high_sum) % _WORD
            + (_exact_sum(np.multiply(high, high, out=product)) << 64)
            + (_exact_sum(np.multiply(high, low, out=product)) << 33)
            + _exact_sum(np.multiply(low, low, out=product))
        )

    @property
    def value(self) -> int:
        return self.total % _CHECKSUM_MODULUS


def _key_array(keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise WorkloadError(f"expected a 1-D key array, got shape {keys.shape}")
    return keys


def _checksum(keys: np.ndarray) -> int:
    """Order-independent checksum: sum of (key^2 + key) mod a prime.

    Squaring makes the sum sensitive to *which* multiset of keys is
    present, not only their total; it distinguishes e.g. {1, 3} from
    {2, 2}, which a plain sum would not.
    """
    checksum = _Checksum(keys.dtype, keys.size)
    for start in range(0, keys.size, _CHECKSUM_CHUNK):
        checksum.add(keys[start : start + _CHECKSUM_CHUNK])
    return checksum.value


def summarize(keys: np.ndarray) -> SortSummary:
    """Compute the validation summary of a key array in one pass.

    Neighbouring chunks overlap by one key, so a violation or an equal
    pair that straddles a chunk boundary is still seen.
    """
    keys = _key_array(keys)
    checksum = _Checksum(keys.dtype, keys.size)
    flags = np.empty(min(keys.size, _CHECKSUM_CHUNK), dtype=bool)
    first_violation = None
    duplicates = 0
    for start in range(0, keys.size, _CHECKSUM_CHUNK):
        stop = min(start + _CHECKSUM_CHUNK, keys.size)
        checksum.add(keys[start:stop])
        window = keys[max(start - 1, 0) : stop]
        ahead, behind = window[1:], window[:-1]
        pairs = flags[: ahead.size]
        # Compare neighbours directly: a signed difference would wrap
        # for uint64 keys 2**63 or more apart.
        if first_violation is None and np.less(ahead, behind, out=pairs).any():
            first_violation = stop - ahead.size + int(pairs.argmax())
        duplicates += int(np.count_nonzero(np.equal(ahead, behind, out=pairs)))
    return SortSummary(
        records=int(keys.size),
        checksum=checksum.value,
        is_sorted=first_violation is None,
        first_violation=first_violation,
        duplicates=duplicates,
    )


def content_digest(keys: np.ndarray) -> str:
    """Order-sensitive sha256 content digest of a key array (16 hex chars).

    The canonical "same output bytes" fingerprint used by the benchmark
    identity gates and the serve result cache: two runs agree iff their
    digests are string-equal.  The hash covers the keys widened to
    ``uint64`` (negative ints wrap), in C order, so it is independent of
    the array's inbound dtype and layout.  A contiguous ``uint64`` array
    is hashed in place; any other is widened slice by slice through one
    reused buffer, so no full-size widened copy is made.
    """
    import hashlib

    if not isinstance(keys, np.ndarray):
        keys = np.asarray(keys, dtype=np.uint64)
    keys = keys.reshape(-1)
    digest = hashlib.sha256()
    if keys.dtype == np.uint64 and keys.flags.c_contiguous:
        digest.update(keys)
    else:
        buffer = np.empty(min(keys.size, _DIGEST_CHUNK), dtype=np.uint64)
        for start in range(0, keys.size, _DIGEST_CHUNK):
            chunk = keys[start:start + _DIGEST_CHUNK]
            widened = buffer[:chunk.size]
            np.copyto(widened, chunk, casting="unsafe")
            digest.update(widened)
    return digest.hexdigest()[:16]


def validate_sort(input_keys: np.ndarray, output_keys: np.ndarray) -> SortSummary:
    """Validate a sort run; raises :class:`WorkloadError` on any failure.

    The output gets the full :func:`summarize` pass; the input, in any
    order, only its record count and checksum.  Returns the output's
    summary on success (for reporting).
    """
    source = _key_array(input_keys)
    result = summarize(output_keys)
    if not result.is_sorted:
        raise WorkloadError(
            f"output not sorted: first violation at record {result.first_violation}"
        )
    if result.records != source.size:
        raise WorkloadError(
            f"record count changed: {source.size} in, {result.records} out"
        )
    if result.checksum != _checksum(source):
        raise WorkloadError(
            "checksum mismatch: the output is not a permutation of the input"
        )
    return result
