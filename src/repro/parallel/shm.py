"""Shared-memory transport for numpy record arrays.

Process workers receive their tasks by pickling; for the unrolled
simulate units and the cluster nodes the tasks *are* large record
arrays, and pickling them twice (parent -> worker, worker -> parent)
would dominate the wall-clock the pool is supposed to save.  This
module ships arrays through ``multiprocessing.shared_memory`` instead:

* the parent packs every input array into one shared block and sends
  workers only a tiny :class:`ShmArrays` descriptor (block name, dtype,
  per-array lengths);
* the parent lays out one *output* block — every output has an exactly
  known size (a sorted partition is as long as its input; a cluster
  sort's nodes share one slot of ``N`` keys, each writing at the offset
  its pull counted) — and each worker writes its result into its own
  disjoint slice, returning nothing but small metadata.

Both blocks belong to the process's :class:`Arena`, which a sharded
call leases through :func:`repro.parallel.plan.lease`: an ``in`` and an
``out`` block, each grown to its high-water mark and reused by the next
call, so a repeated sort copies into memory that is already mapped and
faulted in instead of creating (and page-faulting) fresh segments.  The
parent owns the arena's blocks; :meth:`Arena.release` closes and
unlinks them when the warm set lets go (idle, a lost task, interpreter
exit).  Workers never unlink: :meth:`Arena.attach` keeps each worker's
mapping of the current blocks open across tasks (a forked worker
inherits the parent's) and closes a mapping once a task names a
replacement block.

Workers attach read-only by convention: tasks partition both blocks, so
no two workers ever touch the same output slice and no lock is needed.
:func:`pack_arrays` still creates a one-off block, which its caller
releases in a ``finally``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.runtime import observation


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


def _packing(arrays: list[np.ndarray]) -> tuple[np.dtype, tuple[int, ...]]:
    """The common dtype and the lengths of ``arrays`` packed end to end."""
    if not arrays:
        raise ConfigurationError("cannot pack zero arrays into shared memory")
    return np.result_type(*arrays), tuple(int(a.size) for a in arrays)


def _fill(
    block: shared_memory.SharedMemory,
    arrays: list[np.ndarray],
    dtype: np.dtype,
    lengths: tuple[int, ...],
) -> ShmArrays:
    """Copy ``arrays`` end to end into ``block``; their descriptor."""
    flat = np.ndarray((sum(lengths),), dtype=dtype, buffer=block.buf)
    position = 0
    for array in arrays:
        flat[position : position + array.size] = array
        position += array.size
    return ShmArrays(name=block.name, dtype=dtype.str, lengths=lengths)


def pack_arrays(
    arrays: list[np.ndarray],
) -> tuple[shared_memory.SharedMemory, ShmArrays]:
    """Copy ``arrays`` into one fresh shared block; caller owns cleanup."""
    dtype, lengths = _packing(arrays)
    block = shared_memory.SharedMemory(
        create=True, size=max(1, sum(lengths) * dtype.itemsize)
    )
    descriptor = _fill(block, arrays, dtype, lengths)
    return block, descriptor


class Arena:
    """This process's reusable shared blocks and its open mappings.

    ``blocks`` maps a role (``"in"``, ``"out"``) to the block this
    process owns for it; ``mapped`` holds every block this process has
    open, by name: its own blocks and, in a pool worker, the parent's
    blocks it attached or inherited at fork.  Views handed out by
    :meth:`view` must not outlive the lease they were taken under: a
    block with a live view cannot be closed.
    """

    def __init__(self) -> None:
        self.blocks: dict[str, shared_memory.SharedMemory] = {}
        self.mapped: dict[str, shared_memory.SharedMemory] = {}

    def pack(self, arrays: list[np.ndarray]) -> ShmArrays:
        """Copy ``arrays`` end to end into the ``in`` block."""
        dtype, lengths = _packing(arrays)
        block = self._fit("in", sum(lengths) * dtype.itemsize)
        return _fill(block, arrays, dtype, lengths)

    def layout(self, lengths: list[int], dtype: np.dtype | str) -> ShmArrays:
        """Slots of the given sizes in the ``out`` block (uninitialised)."""
        dtype = np.dtype(dtype)
        lengths = tuple(int(n) for n in lengths)
        block = self._fit("out", sum(lengths) * dtype.itemsize)
        return ShmArrays(name=block.name, dtype=dtype.str, lengths=lengths)

    def view(self, descriptor: ShmArrays, index: int) -> np.ndarray:
        """Zero-copy view of array ``index`` of one of this arena's blocks."""
        return view_array(descriptor, index, self.mapped[descriptor.name])

    def attach(self, *descriptors: ShmArrays) -> list[shared_memory.SharedMemory]:
        """This process's open mapping of each descriptor's block.

        A pool worker maps a block once and keeps the mapping for its
        next tasks.  Mappings of blocks this process does not own and no
        descriptor names are closed first: the parent replaced them.
        """
        wanted = {descriptor.name for descriptor in descriptors}
        owned = {block.name for block in self.blocks.values()}
        for name in list(self.mapped):
            if name not in wanted and name not in owned:
                self.mapped.pop(name).close()
        for name in wanted - set(self.mapped):
            self.mapped[name] = shared_memory.SharedMemory(name=name)
        return [self.mapped[descriptor.name] for descriptor in descriptors]

    def release(self) -> None:
        """Close every mapping and unlink every owned block."""
        owned = {block.name for block in self.blocks.values()}
        self.blocks.clear()
        while self.mapped:
            name, block = self.mapped.popitem()
            if name in owned:
                release(block)
            else:
                block.close()

    def forget_owned(self) -> None:
        """Drop ownership in a forked child: the parent's blocks stay the
        parent's to unlink, and the child keeps its inherited mappings."""
        self.blocks.clear()

    def _fit(self, role: str, nbytes: int) -> shared_memory.SharedMemory:
        """The ``role`` block, replaced by one of ``nbytes`` when too small."""
        block = self.blocks.get(role)
        if block is not None and block.size >= nbytes:
            return block
        if block is not None:
            del self.blocks[role]
            release(self.mapped.pop(block.name))
        block = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        self.blocks[role] = self.mapped[block.name] = block
        observation().count("parallel.arena_grows", role=role)
        return block


#: The process's one arena; :func:`repro.parallel.plan.lease` hands it out.
ARENA = Arena()
os.register_at_fork(after_in_child=ARENA.forget_owned)


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
