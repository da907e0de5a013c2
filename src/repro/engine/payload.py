"""Key/value sorting: payloads follow their keys through the merge.

The AMT moves whole records — key and value together (§II: "any key and
value width up to 512 bits").  The functional engine models that with
the permutation the merge dataflow applies: stable merges of stably
sorted runs give the stable sort of the whole input, so the payload is
taken in the order of one stable ``argsort`` of the keys.  Records with
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
from repro.errors import ConfigurationError


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
        # The sorter's keys are the stable sort's bytes (``sort_kind``),
        # so they line up with the payload taken in stable-argsort order.
        outcome = self._timing_sorter.sort(keys)
        final = SortOutcome(
            data=outcome.data,
            seconds=outcome.seconds,
            stages=outcome.stages,
            record_bytes=self.arch.record_bytes,
            mode="model",
            traffic=outcome.traffic,
            detail={"payload_bytes": int(payload.dtype.itemsize)},
        )
        return final, payload.take(np.argsort(keys, kind="stable"))
