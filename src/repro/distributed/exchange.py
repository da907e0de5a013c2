"""Measured range-partition exchange: splitters, owners, the node pull.

The executed cluster sort (see :mod:`repro.distributed.executor`) runs
the classic GraySort plan with real processes.  This module holds the
plan's deterministic half — everything except wall-clocks and process
pools:

* **splitter sampling** — an oversampled key sketch, quantile
  boundaries, and a refinement pass that advances duplicate boundaries
  past heavy key mass (a zipf-skewed histogram would otherwise produce
  equal splitters and empty partitions);
* **ownership** — ``searchsorted`` range partitioning: node ``i`` owns
  keys in ``[splitters[i-1], splitters[i])``, so concatenating the
  nodes' sorted partitions is globally sorted by construction;
* **the node pull** — every node reads the sender chunks packed end to
  end in one shared uint64 block and keeps the keys of its own range
  (:func:`pull_partition`), so no sender regroups its chunk and no
  record is pickled.  The keys a node counts below its range are the
  offset of its sorted partition in the one output block, and its
  per-sender counts form one column of the :class:`ShuffleLayout`
  counts matrix, from which the executor reports the measured skew.

The shared-memory blocks themselves are owned by the executor (one
function allocates and releases them, per the ``proc-shm-lifetime``
contract); workers attach through :mod:`repro.parallel.shm`
descriptors exactly like the simulate-mode transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Default sketch size per node; 32x oversampling keeps the max/mean
#: partition skew near 1.0 on uniform keys and small even under zipf.
DEFAULT_OVERSAMPLE = 32


def sample_splitters(
    data: np.ndarray,
    nodes: int,
    oversample: int = DEFAULT_OVERSAMPLE,
    seed: int = 0,
) -> np.ndarray:
    """``nodes - 1`` key boundaries from a seeded, oversampled sketch.

    Draws ``nodes * oversample`` keys (with replacement), sorts the
    sketch and takes its ``1/nodes`` quantiles.  A boundary that ties
    the previous one — the signature of heavy duplicate mass under
    skew — is refined to the next strictly larger sketch value, so
    every splitter that *can* be distinct is; a key so frequent that it
    spans several quantiles legitimately leaves later partitions empty,
    and the executor's skew measurement reports exactly that.
    """
    if nodes < 1:
        raise ConfigurationError(f"cluster needs >= 1 node, got {nodes}")
    if oversample < 1:
        raise ConfigurationError(f"oversample must be >= 1, got {oversample}")
    data = np.asarray(data)
    if nodes == 1 or data.size == 0:
        return np.empty(0, dtype=np.uint64)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, data.size, size=nodes * oversample)
    sketch = np.sort(data[picks].astype(np.uint64))
    splitters: list[int] = []
    previous: int | None = None
    for rank in range(1, nodes):
        position = min((rank * sketch.size) // nodes, sketch.size - 1)
        value = int(sketch[position])
        if previous is not None and value <= previous:
            # Refinement: this quantile fell inside the previous
            # boundary's duplicate run; advance to the next distinct
            # sketch value (or stick, conceding an empty partition).
            beyond = sketch[np.searchsorted(sketch, previous, side="right"):]
            value = int(beyond[0]) if beyond.size else previous
        splitters.append(value)
        previous = value
    return np.asarray(splitters, dtype=np.uint64)


def partition_owners(keys: np.ndarray, splitters: np.ndarray) -> np.ndarray:
    """Owning node index per key: node ``i`` holds ``[s[i-1], s[i])``.

    ``side="left"`` on the mirrored comparison would split duplicate
    boundary keys across two nodes; ``side="right"`` keeps every copy
    of a key on one node, so the exchange is stable and the
    concatenated output needs no cross-node merge.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    bounds = np.asarray(splitters, dtype=np.uint64)
    return np.searchsorted(bounds, keys, side="right")


def partition_counts(
    keys: np.ndarray, splitters: np.ndarray, nodes: int
) -> np.ndarray:
    """Records each node would own — the splitter-quality histogram."""
    owners = partition_owners(keys, splitters)
    return np.bincount(owners, minlength=nodes)


def serial_partitions(
    keys: np.ndarray, splitters: np.ndarray, nodes: int
) -> list[np.ndarray]:
    """Oracle exchange: each node's partition, input order preserved.

    The differential reference for :func:`pull_partition`: a node's
    pull from the sender chunks must equal, sender by sender, exactly
    these records.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    owners = partition_owners(keys, splitters)
    return [keys[owners == node] for node in range(nodes)]


def pull_partition(
    chunks: Sequence[np.ndarray], lo: int | None, hi: int | None
) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """One node's pull: the keys in ``[lo, hi)`` from every sender chunk.

    ``None`` leaves that end of the range open (the first and the last
    node), which is :func:`partition_owners`' ``side="right"``
    ownership.  Returns ``(keys, offset, counts)``: the owned keys in
    sender order with each chunk's input order kept, the number of keys
    below ``lo`` across all chunks (where this partition starts in the
    globally sorted output), and the keys taken from each sender.

    Every node scans all ``N`` keys, so the pull costs ``nodes x N``
    compares in total.  That is the price of a host-side emulation that
    hands each node its range without a separate exchange map; the
    "Executed cluster sort" section of ``docs/performance.md`` weighs it.
    """
    shards: list[np.ndarray] = []
    offset = 0
    for chunk in chunks:
        if lo is None:
            mine = np.ones(chunk.size, dtype=bool)
        else:
            mine = chunk >= np.uint64(lo)
            offset += int(chunk.size - np.count_nonzero(mine))
        if hi is not None:
            mine &= chunk < np.uint64(hi)
        shards.append(chunk[mine])
    counts = tuple(int(shard.size) for shard in shards)
    return np.concatenate(shards), offset, counts


@dataclass(frozen=True)
class ShuffleLayout:
    """All-to-all bookkeeping: ``counts[sender][receiver]`` records.

    Each node's pull reports how many keys it took from each sender;
    the executor assembles those columns into this matrix, from which
    the partition lengths and the measured skew derive.
    """

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        nodes = len(self.counts)
        if nodes == 0:
            raise ConfigurationError("shuffle layout needs >= 1 node")
        if any(len(row) != nodes for row in self.counts):
            raise ConfigurationError(
                f"shuffle counts must be square, got rows of "
                f"{[len(row) for row in self.counts]}"
            )

    @property
    def nodes(self) -> int:
        return len(self.counts)

    @property
    def total_records(self) -> int:
        return sum(sum(row) for row in self.counts)

    def partition_lengths(self) -> list[int]:
        """Records each receiver ends up holding."""
        return [
            sum(row[receiver] for row in self.counts)
            for receiver in range(self.nodes)
        ]

    @property
    def skew(self) -> float:
        """Measured max/mean partition ratio (>= 1.0); the executed
        counterpart of :class:`~repro.distributed.cluster.Cluster`'s
        ``skew_factor`` parameter."""
        total = self.total_records
        if total == 0:
            return 1.0
        return max(1.0, max(self.partition_lengths()) * self.nodes / total)
