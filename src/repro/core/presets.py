"""Platform presets (§IV): AWS F1 DRAM node, Alveo U50 HBM, SSD node.

Each preset bundles the memory model, FPGA spec and derived Table II
parameters the paper's case studies use, so experiments can say
``presets.aws_f1()`` and get the same hardware envelope as §IV-A.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.parameters import FpgaSpec, HardwareParams, MergerArchParams
from repro.core.optimizer import Bonsai
from repro.memory.dram import DdrDram
from repro.memory.hbm import Hbm
from repro.memory.hierarchy import TwoTierHierarchy
from repro.memory.ssd import Ssd
from repro.units import GB, KiB


@dataclass(frozen=True)
class Platform:
    """A named hardware platform with its Table II parameters."""

    name: str
    hardware: HardwareParams
    fpga: FpgaSpec
    memory: object
    io_bandwidth: float

    def bonsai(
        self,
        record_bytes: int = 4,
        presort_run: int = 16,
        leaves_cap: int | None = None,
    ) -> Bonsai:
        """A Bonsai optimizer instance for this platform."""
        return Bonsai(
            hardware=self.hardware,
            arch=MergerArchParams(record_bytes=record_bytes),
            presort_run=presort_run,
            leaves_cap=leaves_cap,
        )


#: The VU9P part on the F1.2xlarge instance (Table IV capacities).
VU9P = FpgaSpec()


def aws_f1(
    record_bytes: int = 4,
    use_measured_bandwidth: bool = False,
    batch_bytes: int = 4 * KiB,
) -> Platform:
    """§IV-A / §VI-A: F1.2xlarge with 64 GB DDR4 at 32 GB/s (measured ~29).

    ``use_measured_bandwidth=True`` plugs in the measured 29 GB/s, which
    is what the experimentally reported sorting times reflect (Table I's
    172 ms/GB row is five stages at 29 GB/s).
    """
    dram = DdrDram()
    hardware = HardwareParams.from_platform(
        dram,
        VU9P,
        io_bandwidth=8 * GB,
        batch_bytes=batch_bytes,
        use_measured_bandwidth=use_measured_bandwidth,
    )
    return Platform(
        name="aws-f1", hardware=hardware, fpga=VU9P, memory=dram, io_bandwidth=8 * GB
    )


def aws_f1_measured(record_bytes: int = 4) -> Platform:
    """F1 with the measured 29 GB/s DRAM rate (§IV-A footnote)."""
    return aws_f1(record_bytes=record_bytes, use_measured_bandwidth=True)


def alveo_u50(projected: bool = True) -> Platform:
    """§IV-B / §VI-D: HBM tile (32 banks; 512 GB/s projected envelope)."""
    hbm = Hbm.projected_512() if projected else Hbm()
    hardware = HardwareParams.from_platform(hbm, VU9P, io_bandwidth=16 * GB)
    return Platform(
        name="alveo-u50", hardware=hardware, fpga=VU9P, memory=hbm,
        io_bandwidth=16 * GB,
    )


def ssd_node() -> Platform:
    """§IV-C: F1-style node with a 2 TB SSD at 8 GB/s behind the I/O bus."""
    hierarchy = TwoTierHierarchy(fast=DdrDram(), slow=Ssd())
    hardware = HardwareParams.from_platform(
        hierarchy.fast, VU9P, io_bandwidth=hierarchy.io_bandwidth,
        use_measured_bandwidth=False,
    )
    return Platform(
        name="ssd-node",
        hardware=hardware,
        fpga=VU9P,
        memory=hierarchy,
        io_bandwidth=hierarchy.io_bandwidth,
    )


def ssd_as_memory() -> Platform:
    """Phase-two view of the SSD sorter: the SSD *is* the off-chip memory.

    §IV-C: "In the second phase of SSD sorting, the SSD effectively acts
    as the only off-chip memory, as each stage in this phase requires a
    round trip to SSD."
    """
    ssd = Ssd()
    hardware = HardwareParams.from_platform(
        ssd, VU9P, io_bandwidth=ssd.peak_bandwidth, use_measured_bandwidth=False
    )
    return Platform(
        name="ssd-as-memory", hardware=hardware, fpga=VU9P, memory=ssd,
        io_bandwidth=ssd.peak_bandwidth,
    )


#: The named platforms every surface selects by name (the CLI's
#: ``--platform`` choices and a served job's ``platform`` field).
PLATFORMS = {
    "aws-f1": aws_f1,
    "aws-f1-measured": aws_f1_measured,
    "alveo-u50": alveo_u50,
    "ssd-node": ssd_node,
    "ssd-as-memory": ssd_as_memory,
}


def custom_dram(bandwidth: float, capacity: int = 64 * GB) -> Platform:
    """A DRAM platform with arbitrary bandwidth (Fig. 5's β sweep)."""
    dram = DdrDram(
        name=f"DDR@{bandwidth / GB:g}GB/s",
        peak_bandwidth=bandwidth,
        capacity_bytes=capacity,
        measured_bandwidth=None,
    )
    hardware = HardwareParams.from_platform(dram, VU9P, io_bandwidth=8 * GB)
    return Platform(
        name=f"dram-{bandwidth / GB:g}", hardware=hardware, fpga=VU9P,
        memory=dram, io_bandwidth=8 * GB,
    )
