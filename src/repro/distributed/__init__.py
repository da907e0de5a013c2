"""Distributed sorting on Bonsai nodes (§II-B extension).

"Our design can also be used as a building block for a larger
distributed sorting system" — this package models that system: a cluster
of FPGA nodes, each running the single-node Bonsai sorter, connected by
a network over which records are range-partitioned before (or merged
after) the local sorts.  It exists to put Table I's per-node-normalised
distributed rows (Tencent Sort, GPU clusters) on the same footing as a
Bonsai cluster.

* :mod:`repro.distributed.node` — one FPGA server node wrapping the
  scalability model.
* :mod:`repro.distributed.cluster` — the cluster: partition/exchange
  phase over the network plus parallel node-local sorts (analytical).
* :mod:`repro.distributed.exchange` — the executed plan's deterministic
  half: splitter sampling/refinement, each node's pull of its key range
  from the packed input, and the all-to-all counts matrix.
* :mod:`repro.distributed.executor` — the measured counterpart: the
  same plan run as real processes over :mod:`repro.parallel`, verified
  bit-exactly against a serial oracle and reported next to the model.
"""

from repro.distributed.node import SortingNode
from repro.distributed.cluster import Cluster, ClusterSortReport
from repro.distributed.exchange import ShuffleLayout, sample_splitters
from repro.distributed.executor import ClusterExecutionReport, ClusterExecutor

__all__ = [
    "Cluster",
    "ClusterExecutionReport",
    "ClusterExecutor",
    "ClusterSortReport",
    "ShuffleLayout",
    "SortingNode",
    "sample_splitters",
]
