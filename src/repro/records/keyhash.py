"""Hashing wide values down to short indices (§VI-A).

The paper sorts 100-byte gensort records by "hashing the 90-byte value to a
6-byte index, which allows us to feed the 10-byte key and 6-byte value into
a 16-byte AMT sorter".  The index is not part of the sort order; it lets the
host recover the full record after the sort without streaming 90-byte
payloads through the merge tree.

We use FNV-1a, a small, endianness-free hash that is easy to replicate in
hardware, truncated to the requested index width.  Collisions are
acceptable: the index only needs to identify the payload with high
probability, and the host keeps a side table from index to payload offset
(see :func:`repro.records.gensort.pack_records`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64_MASK = (1 << 64) - 1


def fnv1a_hash(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    acc = _FNV_OFFSET
    for byte in data:
        acc ^= byte
        acc = (acc * _FNV_PRIME) & _U64_MASK
    return acc


def hash_value_to_index(value: bytes, index_bytes: int = 6) -> int:
    """Hash a record payload to an ``index_bytes``-wide integer index.

    Parameters
    ----------
    value:
        The record payload (the gensort 90-byte value).
    index_bytes:
        Width of the resulting index; the paper uses 6 bytes.
    """
    if not 1 <= index_bytes <= 8:
        raise ConfigurationError(
            f"index width must be between 1 and 8 bytes, got {index_bytes}"
        )
    return fnv1a_hash(value) >> (8 * (8 - index_bytes))


def fnv1a_hash_batch(values: np.ndarray) -> np.ndarray:
    """64-bit FNV-1a of each row of a ``(n, width)`` uint8 matrix.

    FNV-1a is sequential in the *byte* dimension but embarrassingly
    parallel in the *record* dimension: the accumulator update is
    applied column by column to all rows at once, so hashing ``n``
    equal-width payloads costs ``width`` vector operations instead of
    ``n * width`` scalar ones.  uint64 arithmetic wraps mod 2**64
    exactly like the masked scalar loop, so the outputs are
    bit-identical to :func:`fnv1a_hash` per row.
    """
    rows = values.astype(np.uint64)
    acc = np.full(rows.shape[0], _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for column in range(rows.shape[1]):
        acc ^= rows[:, column]
        acc *= prime
    return acc
