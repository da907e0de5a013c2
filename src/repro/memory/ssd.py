"""SSD / flash model behind an I/O bus (§IV-C).

The paper's terabyte-scale analysis assumes "a 2 TB SSD with 8 GB/s I/O
bandwidth".  SSD traffic always crosses the I/O bus (``beta_I/O`` in
Table II), which is the scarce resource AMT pipelining exists to keep
busy (§III-A3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.base import MemoryModel
from repro.units import GB


@dataclass(frozen=True)
class Ssd(MemoryModel):
    """NVMe SSD/flash array reachable over the I/O bus.

    ``duplex`` defaults to True: the F1 I/O fabric can sustain reads of
    unsorted input and writes of sorted runs concurrently, which is what
    lets each SSD "round trip" cost one pass rather than two (§IV-C sizes
    phase timings this way: 2 TB per phase at 8 GB/s = 256 s).
    """

    name: str = "NVMe-SSD"
    #: The paper's "2 TB SSD" must hold 256 runs of 8 GB (§IV-C), i.e.
    #: 2048 decimal GB; we size the device to that convention.
    capacity_bytes: int = 2048 * GB
    peak_bandwidth: float = 8 * GB
    duplex: bool = True
    banks: int = 1
    #: flash pages are large; model a coarser per-burst overhead
    batch_overhead_bytes: int = 256
    measured_bandwidth: float | None = None
