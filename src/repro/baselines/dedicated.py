"""Dedicated-units ablation (paper Section 3's motivating argument).

The paper's design philosophy rests on three quantitative claims about
the alternative -- a chip with *separate dedicated units* per kernel:

1. accelerating only the top-2 kernels (as PipeZK did for EC-based
   protocols) caps end-to-end speedup below ~7x by Amdahl's law,
   because the remaining kernels fall back to the CPU with PCIe
   round-trips;
2. static per-kernel resource provisioning leaves units idle whenever
   the workload mix shifts (11%-25% polynomial share across apps), so
   at equal area a dedicated chip is slower than the unified one;
3. the dedicated chip's *average* logic utilisation is low -- each unit
   idles while the others work.

This module models both alternatives on top of the same kernel costs
the UniZK simulator uses, so the comparison is apples-to-apples:

* :class:`DedicatedChip` -- every kernel class gets a fixed share of the
  same total PE budget; kernels run only on their own unit.
* :class:`Top2Chip` -- hash and NTT run on dedicated units; everything
  else executes on the host CPU with PCIe transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..compiler import ComputationGraph, schedule
from ..hw.config import DEFAULT_CONFIG, HwConfig
from ..mapping.base import KIND_HASH, KIND_NTT, KIND_POLY
from .cpu import CpuModel


@dataclass(frozen=True)
class DedicatedChip:
    """Equal-area chip with statically partitioned per-kernel units.

    ``shares`` splits the PE budget between the NTT, hash, and poly
    units (summing to <= 1; the remainder is glue).  Memory bandwidth is
    shared, as on the unified design.
    """

    hw: HwConfig = DEFAULT_CONFIG
    shares: Dict[str, float] = field(
        default_factory=lambda: {KIND_NTT: 0.2, KIND_HASH: 0.6, KIND_POLY: 0.2}
    )

    def run(self, graph: ComputationGraph) -> "DedicatedReport":
        """Execute the graph; each kernel only on its own unit."""
        report = DedicatedReport(workload=graph.name)
        for sk in schedule(graph, self.hw).kernels:
            cost = sk.cost
            share = self.shares.get(cost.kind, 1.0)
            if share <= 0:
                raise ValueError(f"no unit provisioned for kind {cost.kind}")
            # Compute time inflates by the unit's share of the PE budget;
            # memory-bound time is unchanged (bandwidth is shared).
            compute = cost.compute_cycles / share
            elapsed = max(compute, cost.memory_cycles(self.hw), 1.0)
            report.cycles_by_kind[cost.kind] = (
                report.cycles_by_kind.get(cost.kind, 0.0) + elapsed
            )
            # Unit-busy accounting for the utilisation claim.
            report.busy_pe_cycles += cost.mult_ops
        report.total_pes = self.hw.total_pes
        return report


@dataclass
class DedicatedReport:
    """Per-class elapsed cycles on the dedicated design."""

    workload: str
    cycles_by_kind: Dict[str, float] = field(default_factory=dict)
    busy_pe_cycles: float = 0.0
    total_pes: int = 0

    @property
    def total_cycles(self) -> float:
        """Kernels serialise, as in the unified schedule."""
        return sum(self.cycles_by_kind.values())

    def total_seconds(self, hw: HwConfig = DEFAULT_CONFIG) -> float:
        """Wall-clock seconds."""
        return hw.cycles_to_seconds(self.total_cycles)

    @property
    def average_logic_utilization(self) -> float:
        """Chip-wide multiplier utilisation (idle units included)."""
        if not self.total_cycles or not self.total_pes:
            return 0.0
        return min(1.0, self.busy_pe_cycles / (self.total_cycles * self.total_pes))


@dataclass(frozen=True)
class Top2Chip:
    """Accelerate only Merkle/hash and NTT; the rest stays on the CPU.

    The paper (Section 3): "only capturing the top-2 kernels will at
    most give us less than 7x speedup according to Amdahl's law", plus
    the PCIe round-trips for the intermediate data.
    """

    hw: HwConfig = DEFAULT_CONFIG
    cpu: CpuModel = field(default_factory=CpuModel)
    pcie_gbps: float = 25.0

    def run(self, graph: ComputationGraph) -> "Top2Report":
        """Execute: hash+NTT on chip, poly/transform on the host."""
        accel_cycles = 0.0
        host_seconds = 0.0
        transfer_bytes = 0.0
        for sk in schedule(graph, self.hw).kernels:
            cost = sk.cost
            if cost.kind in (KIND_HASH, KIND_NTT):
                accel_cycles += sk.elapsed
                continue
            _, secs = self.cpu.node_seconds(sk.node)
            host_seconds += secs
            # Intermediate data crosses PCIe both ways around each
            # host-resident kernel.
            transfer_bytes += cost.mem_bytes
        return Top2Report(
            workload=graph.name,
            accel_seconds=self.hw.cycles_to_seconds(accel_cycles),
            host_seconds=host_seconds,
            transfer_seconds=transfer_bytes / (self.pcie_gbps * 1e9),
        )


@dataclass
class Top2Report:
    """Accelerator + host + transfer split for the top-2 design."""

    workload: str
    accel_seconds: float
    host_seconds: float
    transfer_seconds: float

    @property
    def total_seconds(self) -> float:
        """End-to-end time (phases serialise across PCIe)."""
        return self.accel_seconds + self.host_seconds + self.transfer_seconds
