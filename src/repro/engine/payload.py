"""Key/value sorting: payloads follow their keys through the merge.

The AMT moves whole records — key and value together (§II: "any key and
value width up to 512 bits").  The functional engine models that by
carrying a payload array through the same merge dataflow as the keys,
using permutation-producing merges.  Merges are stable: records with
equal keys keep their input order (the hardware merger's port-A
preference gives the same guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.configuration import AmtConfig
from repro.core.parameters import HardwareParams, MergerArchParams
from repro.engine.results import SortOutcome
from repro.engine.sorter import AmtSorter
from repro.engine.stage import merge_two_sorted_with_perm
from repro.errors import ConfigurationError


@dataclass
class _Run:
    """A sorted run with its payload riding along."""

    keys: np.ndarray
    payload: np.ndarray


def _merge_runs(left: _Run, right: _Run) -> _Run:
    merged_keys, left_pos, right_pos = merge_two_sorted_with_perm(
        left.keys, right.keys
    )
    payload = np.empty(
        left.payload.size + right.payload.size, dtype=left.payload.dtype
    )
    payload[left_pos] = left.payload
    payload[right_pos] = right.payload
    return _Run(keys=merged_keys, payload=payload)


@dataclass
class KeyValueSorter:
    """Sorts (key, payload) record streams through the merge dataflow.

    Timing is delegated to a plain :class:`AmtSorter` over the keys (the
    record width used for bandwidth is the *full* record width, passed
    via ``arch``); the payload movement itself is the same bytes the
    timing already accounts for.
    """

    config: AmtConfig
    hardware: HardwareParams
    arch: MergerArchParams = field(default_factory=lambda: MergerArchParams(record_bytes=16))
    presort_run: int = 16

    def __post_init__(self) -> None:
        self._timing_sorter = AmtSorter(
            config=self.config,
            hardware=self.hardware,
            arch=self.arch,
            presort_run=self.presort_run,
        )

    def sort(self, keys: np.ndarray, payload: np.ndarray) -> tuple[SortOutcome, np.ndarray]:
        """Sort records by key; returns the key outcome plus the payload
        permuted identically (stable)."""
        keys = np.asarray(keys)
        payload = np.asarray(payload)
        if keys.shape != payload.shape:
            raise ConfigurationError(
                f"keys and payload must align: {keys.shape} vs {payload.shape}"
            )
        if keys.size == 0:
            outcome = self._timing_sorter.sort(keys)
            return outcome, payload.copy()

        # Split into presorted runs (stable within each run).
        runs: list[_Run] = []
        for start in range(0, keys.size, self.presort_run):
            chunk_keys = keys[start : start + self.presort_run]
            chunk_payload = payload[start : start + self.presort_run]
            order = np.argsort(chunk_keys, kind="stable")
            runs.append(
                _Run(keys=chunk_keys[order].copy(), payload=chunk_payload[order].copy())
            )
        # Merge stages with the configured fan-in.
        while len(runs) > 1:
            merged: list[_Run] = []
            for start in range(0, len(runs), self.config.leaves):
                group = runs[start : start + self.config.leaves]
                while len(group) > 1:
                    next_group = []
                    for index in range(0, len(group) - 1, 2):
                        next_group.append(_merge_runs(group[index], group[index + 1]))
                    if len(group) % 2:
                        next_group.append(group[-1])
                    group = next_group
                merged.append(group[0])
            runs = merged

        outcome = self._timing_sorter.sort(keys)  # modeled timing + stages
        result = runs[0]
        if not np.array_equal(outcome.data, result.keys):
            raise ConfigurationError(
                "payload path diverged from key path; this is a bug"
            )
        final = SortOutcome(
            data=result.keys,
            seconds=outcome.seconds,
            stages=outcome.stages,
            record_bytes=self.arch.record_bytes,
            mode="model",
            traffic=outcome.traffic,
            detail={"payload_bytes": int(payload.dtype.itemsize)},
        )
        return final, result.payload
