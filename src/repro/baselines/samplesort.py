"""FPGA-accelerated SampleSort (Chen et al., FCCM 2019) — FPGA baseline.

SampleSort samples splitters, partitions records into buckets on the
host, and accelerates the per-bucket sorts.  The paper's critique:
"SampleSort relies on the CPU for sampling and bucketing, which limits
scalability: indeed, for arrays over 16 GB, the performance drops 3x"
(visible in Table I's 643 ms/GB at 32 GB).  The functional model
implements classic sample sort: oversampled splitter selection,
bucketing, and per-bucket sorting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import BaselineSorter
from repro.baselines.published import PUBLISHED_SORTERS, PublishedSorter
from repro.errors import ConfigurationError


@dataclass
class SampleSorter(BaselineSorter):
    """Sample sort with oversampled splitters."""

    spec: PublishedSorter = field(
        default_factory=lambda: PUBLISHED_SORTERS["samplesort"]
    )
    buckets: int = 64
    oversample: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.buckets < 2:
            raise ConfigurationError(f"need >= 2 buckets, got {self.buckets}")
        if self.oversample < 1:
            raise ConfigurationError(f"oversample must be >= 1, got {self.oversample}")

    def choose_splitters(self, data: np.ndarray) -> np.ndarray:
        """Oversample, sort the sample, take evenly spaced splitters."""
        rng = np.random.default_rng(self.seed)
        sample_size = min(data.size, self.buckets * self.oversample)
        sample = np.sort(rng.choice(data, size=sample_size, replace=False))
        positions = np.linspace(0, sample_size - 1, self.buckets + 1)[1:-1]
        return sample[positions.astype(int)]

    def sort(self, data: np.ndarray) -> np.ndarray:
        """Sample sort: splitters -> buckets -> per-bucket sorts."""
        data = np.asarray(data)
        if data.size <= self.buckets * self.oversample:
            return np.sort(data, kind="stable")
        splitters = self.choose_splitters(data)
        assignment = np.searchsorted(splitters, data, side="right")
        out = np.empty_like(data)
        cursor = 0
        for bucket in range(self.buckets):
            members = data[assignment == bucket]
            members = np.sort(members, kind="stable")
            out[cursor : cursor + members.size] = members
            cursor += members.size
        self.check_sorted(data, out)
        return out

    # ------------------------------------------------------------------
    def bucket_skew(self, data: np.ndarray) -> float:
        """Largest bucket over ideal size — the load-imbalance the
        host-side bucketing suffers on skewed inputs."""
        splitters = self.choose_splitters(np.asarray(data))
        assignment = np.searchsorted(splitters, data, side="right")
        counts = np.bincount(assignment, minlength=self.buckets)
        ideal = data.size / self.buckets
        return float(counts.max() / ideal) if ideal else 0.0

    def scaling_cliff_gb(self) -> float:
        """Input size where published performance collapses (~3x)."""
        return 16.0
