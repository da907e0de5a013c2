"""Sort execution engine.

Executes the merge-sort procedure of Fig. 2 end to end:

* :mod:`repro.engine.stage` — one merge stage, functionally (one numpy
  sort per merge group, bit-identical to a stable merge) or
  cycle-simulated (via :mod:`repro.hw`).
* :mod:`repro.engine.sorter` — the recursive-stage DRAM sorter (§IV-A).
* :mod:`repro.engine.unrolled` — unrolled execution: range-partitioned
  (§III-A2) and address-range with AMT idling (§IV-B).
* :mod:`repro.engine.pipelined` — pipelined execution (§III-A3).
* :mod:`repro.engine.ssd_sorter` — the two-phase SSD sorter (§IV-C).
* :mod:`repro.engine.results` — result records with timing and traffic.
"""

from repro.engine.results import SortOutcome
from repro.engine.stage import merge_runs_numpy, merge_stage
from repro.engine.sorter import AmtSorter
from repro.engine.unrolled import UnrolledSorter
from repro.engine.pipelined import PipelinedSorter
from repro.engine.ssd_sorter import SsdSorter

__all__ = [
    "SortOutcome",
    "merge_runs_numpy",
    "merge_stage",
    "AmtSorter",
    "UnrolledSorter",
    "PipelinedSorter",
    "SsdSorter",
]
