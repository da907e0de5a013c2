"""Sort execution engine.

Executes the merge-sort procedure of Fig. 2 end to end:

* :mod:`repro.engine.stage` — the sort-kind rule, and one merge stage
  for callers that keep their runs (one numpy sort per merge group,
  bit-identical to a stable merge).
* :mod:`repro.engine.sorter` — the recursive-stage DRAM sorter (§IV-A):
  one sort of the input in model mode, stages through the cycle
  simulator (:mod:`repro.hw`) in simulate mode.
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
