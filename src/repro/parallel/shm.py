"""Shared-memory transport for numpy record arrays.

Process workers receive their tasks by pickling; for the unrolled
simulate units and the cluster nodes the tasks *are* large record
arrays, and pickling them twice (parent -> worker, worker -> parent)
would dominate the wall-clock the pool is supposed to save.  This
module ships arrays through ``multiprocessing.shared_memory`` instead:

* the parent packs every input array into one shared block and sends
  workers only a tiny :class:`ShmArrays` descriptor (block name, dtype,
  per-array lengths);
* the parent pre-allocates one *output* block — every output has an
  exactly known size (a sorted partition is as long as its input; a
  cluster sort's nodes share one slot of ``N`` keys, each writing at
  the offset its pull counted) — and each worker writes its result
  into its own disjoint slice, returning nothing but small metadata.

Workers attach read-only by convention: tasks partition both blocks, so
no two workers ever touch the same output slice and no lock is needed.
The parent owns both blocks' lifetimes (``close`` + ``unlink`` in a
``finally``); workers only ever ``close`` their attachment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ShmArrays:
    """Picklable descriptor of arrays packed end-to-end in one block."""

    name: str
    dtype: str
    lengths: tuple[int, ...]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Element offset of each array inside the block.

        Computed once per descriptor: :func:`view_array` reads it for
        every array, and a rebuild per access would make viewing all
        ``n`` arrays cost O(n²).
        """
        return tuple(accumulate(self.lengths, initial=0))[:-1]

    @property
    def total(self) -> int:
        return sum(self.lengths)


def pack_arrays(
    arrays: list[np.ndarray],
) -> tuple[shared_memory.SharedMemory, ShmArrays]:
    """Copy ``arrays`` into one fresh shared block; caller owns cleanup."""
    if not arrays:
        raise ConfigurationError("cannot pack zero arrays into shared memory")
    dtype = np.result_type(*arrays)
    total = sum(int(a.size) for a in arrays)
    block = shared_memory.SharedMemory(
        create=True, size=max(1, total * dtype.itemsize)
    )
    flat = np.ndarray((total,), dtype=dtype, buffer=block.buf)
    position = 0
    for array in arrays:
        flat[position : position + array.size] = array
        position += array.size
    descriptor = ShmArrays(
        name=block.name,
        dtype=dtype.str,
        lengths=tuple(int(a.size) for a in arrays),
    )
    return block, descriptor


def alloc_arrays(
    lengths: list[int], dtype: np.dtype | str
) -> tuple[shared_memory.SharedMemory, ShmArrays]:
    """Allocate an uninitialised shared block for arrays of known sizes."""
    dtype = np.dtype(dtype)
    total = sum(int(n) for n in lengths)
    block = shared_memory.SharedMemory(
        create=True, size=max(1, total * dtype.itemsize)
    )
    descriptor = ShmArrays(
        name=block.name, dtype=dtype.str, lengths=tuple(int(n) for n in lengths)
    )
    return block, descriptor


def read_array(descriptor: ShmArrays, index: int) -> np.ndarray:
    """Copy array ``index`` out of the block (safe after the block dies)."""
    block = shared_memory.SharedMemory(name=descriptor.name)
    try:
        view = view_array(descriptor, index, block)
        return view.copy()
    finally:
        block.close()


def view_array(
    descriptor: ShmArrays, index: int, block: shared_memory.SharedMemory
) -> np.ndarray:
    """Zero-copy view of array ``index`` inside an attached block."""
    offset = descriptor.offsets[index]
    length = descriptor.lengths[index]
    dtype = np.dtype(descriptor.dtype)
    return np.ndarray(
        (length,), dtype=dtype, buffer=block.buf,
        offset=offset * dtype.itemsize,
    )


def write_array(descriptor: ShmArrays, index: int, values: np.ndarray) -> None:
    """Fill slot ``index`` of a (freshly attached) block with ``values``."""
    if values.size != descriptor.lengths[index]:
        raise ConfigurationError(
            f"shared slot {index} holds {descriptor.lengths[index]} elements, "
            f"got {values.size}"
        )
    block = shared_memory.SharedMemory(name=descriptor.name)
    try:
        view_array(descriptor, index, block)[:] = values
    finally:
        block.close()


def as_uint64_keys(keys) -> np.ndarray:
    """``keys`` as a fresh uint64 array, the one record space shm ships.

    Raises :class:`~repro.errors.ConfigurationError` for anything outside
    ``[0, 2**64)``.  Casting straight to uint64 silently wraps negatives
    and truncates floats instead of raising, so the gate checks the
    array's own dtype kind and sign first.  numpy infers float64 for a
    list mixing keys on both sides of ``2**63``, so a list of Python
    ints takes the explicit uint64 cast instead, which raises on
    anything outside the range.  This is the one gate shared by the
    unrolled simulate transport and the cluster sort.
    """
    message = (
        "records ship through uint64 shared-memory blocks; keys must be "
        "integers in [0, 2**64)"
    )
    if not isinstance(keys, np.ndarray) and all(type(x) is int for x in keys):
        try:
            return np.asarray(keys, dtype=np.uint64)
        except OverflowError as exc:
            raise ConfigurationError(message) from exc
    array = np.asarray(keys)
    kind = array.dtype.kind
    if array.size == 0 or kind == "u" or (kind == "i" and int(array.min()) >= 0):
        return array.astype(np.uint64)
    raise ConfigurationError(message)


def release(block: shared_memory.SharedMemory) -> None:
    """Close and unlink a parent-owned block, tolerating double release."""
    try:
        block.close()
        block.unlink()
    except FileNotFoundError:  # bonsai-lint: disable=exn-swallow -- already unlinked (e.g. crashed cleanup ran); tolerating double release is this function's contract
        pass
