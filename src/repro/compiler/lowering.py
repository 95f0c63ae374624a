"""Backend lowering: kernel costs -> detailed execution schedules.

Section 5.5: "The backend outputs detailed schedules that describe how
the kernels execute on the hardware, including how to fetch the data
from memory, parallelize the computations on multiple PEs in the VSAs,
and dictate the on-chip data communication between PEs."

This module produces that artifact: for every scheduled kernel, a
:class:`KernelSchedule` records the DMA programme (bytes in/out at the
kernel's effective bandwidth), the VSA allocation (how many arrays, in
which execution mode, over how many tiles), and the double-buffer
overlap; the whole proof becomes a timeline with start/end cycles.
The per-PE instruction streams for the inner loops live in
:mod:`repro.mapping.microcode_schedules`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..hw.config import HwConfig
from ..mapping.base import KIND_HASH, KIND_NTT, KIND_POLY
from ..mapping.params import DEFAULT_MAPPING
from .graph import ComputationGraph
from .scheduler import MappingLike, ScheduledKernel, schedule

#: Execution modes of the VSAs.
MODE_SYSTOLIC = "systolic"  # weight-stationary matmul (hash rounds)
MODE_PIPELINE = "mdc-pipeline"  # NTT butterfly pipelines
MODE_VECTOR = "vector"  # element-wise polynomial kernels
MODE_NONE = "off-array"  # transpose buffer / DMA-only


@dataclass(frozen=True)
class KernelSchedule:
    """One kernel's placement and timing."""

    name: str
    stage: str
    kind: str
    mode: str
    #: VSAs assigned (all of them; the paper schedules kernels one at a time)
    vsas: int
    start_cycle: float
    end_cycle: float
    dma_in_bytes: float
    dma_out_bytes: float
    compute_cycles: float
    memory_cycles: float
    #: whether DRAM (True) or the VSAs (False) bound this kernel
    memory_bound: bool

    @property
    def elapsed(self) -> float:
        """Cycles this kernel occupies on the timeline."""
        return self.end_cycle - self.start_cycle

    def describe(self) -> str:
        """One-line human-readable schedule entry."""
        bound = "mem" if self.memory_bound else "vsa"
        return (
            f"[{self.start_cycle / 1e6:10.3f}M .. {self.end_cycle / 1e6:10.3f}M] "
            f"{self.name:24s} {self.mode:12s} {self.vsas:3d} VSAs "
            f"in={_fmt_bytes(self.dma_in_bytes)} out={_fmt_bytes(self.dma_out_bytes)} "
            f"bound={bound}"
        )


def _fmt_bytes(b: float) -> str:
    if b >= 1 << 30:
        return f"{b / (1 << 30):6.2f}G"
    if b >= 1 << 20:
        return f"{b / (1 << 20):6.2f}M"
    if b >= 1 << 10:
        return f"{b / (1 << 10):6.2f}K"
    return f"{b:6.0f}B"


_MODE_BY_KIND = {
    KIND_NTT: MODE_PIPELINE,
    KIND_HASH: MODE_SYSTOLIC,
    KIND_POLY: MODE_VECTOR,
}


@dataclass
class DetailedSchedule:
    """The lowered programme for one proof generation."""

    workload: str
    hw: HwConfig
    kernels: List[KernelSchedule]

    @property
    def total_cycles(self) -> float:
        """End-to-end cycles."""
        return self.kernels[-1].end_cycle if self.kernels else 0.0

    @property
    def total_dma_bytes(self) -> float:
        """Total DRAM traffic."""
        return sum(k.dma_in_bytes + k.dma_out_bytes for k in self.kernels)

    def format(self, limit: int | None = None) -> str:
        """Render the timeline (optionally only the first ``limit`` rows)."""
        rows = self.kernels if limit is None else self.kernels[:limit]
        lines = [
            f"schedule for {self.workload}: {len(self.kernels)} kernels, "
            f"{self.total_cycles / 1e6:.2f} Mcycles, "
            f"{_fmt_bytes(self.total_dma_bytes)} DRAM traffic"
        ]
        lines += [k.describe() for k in rows]
        if limit is not None and len(self.kernels) > limit:
            lines.append(f"... ({len(self.kernels) - limit} more kernels)")
        return "\n".join(lines)

    def bound_fraction(self) -> float:
        """Fraction of elapsed time spent in memory-bound kernels."""
        total = sum(k.elapsed for k in self.kernels)
        mem = sum(k.elapsed for k in self.kernels if k.memory_bound)
        return mem / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-safe form (``repro schedule --json``)."""
        return {
            "workload": self.workload,
            "num_kernels": len(self.kernels),
            "total_cycles": float(self.total_cycles),
            "total_dma_bytes": float(self.total_dma_bytes),
            "memory_bound_fraction": self.bound_fraction(),
            "kernels": [
                {
                    "name": k.name,
                    "stage": k.stage,
                    "kind": k.kind,
                    "mode": k.mode,
                    "vsas": k.vsas,
                    "start_cycle": float(k.start_cycle),
                    "end_cycle": float(k.end_cycle),
                    "dma_in_bytes": float(k.dma_in_bytes),
                    "dma_out_bytes": float(k.dma_out_bytes),
                    "memory_bound": k.memory_bound,
                }
                for k in self.kernels
            ],
        }


def lower(
    graph: ComputationGraph, hw: HwConfig, mapping: MappingLike = DEFAULT_MAPPING
) -> DetailedSchedule:
    """Lower a computation graph into a detailed execution schedule.

    ``mapping`` is :func:`repro.compiler.schedule`'s argument, and the
    only way a mapping decision gets in (default: the paper's static
    mapping).
    """
    kernels: List[KernelSchedule] = []
    clock = 0.0
    for sk in schedule(graph, hw, mapping=mapping):
        cost = sk.cost
        elapsed = cost.elapsed_cycles(hw)
        mode = _MODE_BY_KIND.get(cost.kind, MODE_NONE)
        # Split traffic: reads dominate for Merkle, symmetric otherwise.
        dma_in = cost.mem_bytes * (0.8 if cost.kind == KIND_HASH else 0.5)
        dma_out = cost.mem_bytes - dma_in
        kernels.append(
            KernelSchedule(
                name=cost.name,
                stage=sk.stage,
                kind=cost.kind,
                mode=mode,
                vsas=hw.num_vsas if mode != MODE_NONE else 0,
                start_cycle=clock,
                end_cycle=clock + elapsed,
                dma_in_bytes=dma_in,
                dma_out_bytes=dma_out,
                compute_cycles=cost.compute_cycles,
                memory_cycles=cost.memory_cycles(hw),
                memory_bound=cost.is_memory_bound(hw),
            )
        )
        clock += elapsed
    return DetailedSchedule(workload=graph.name, hw=hw, kernels=kernels)
