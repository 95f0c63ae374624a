"""Simulation reports: per-kernel-class cycles and utilisations.

The aggregation mirrors the paper's reporting: kernel classes
{NTT, hash, poly} for the breakdowns (Figure 8) and time-weighted
memory/VSA utilisation per class (Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..hw.config import HwConfig
from ..mapping.base import KIND_HASH, KIND_NTT, KIND_POLY

#: Classes shown in the paper's per-kernel breakdowns.
REPORT_KINDS = (KIND_NTT, KIND_POLY, KIND_HASH)


@dataclass
class KernelRecord:
    """One executed kernel in the report."""

    name: str
    kind: str
    stage: str
    elapsed_cycles: float
    mem_bytes: float
    mult_ops: float
    memory_util: float
    vsa_util: float


@dataclass
class SimReport:
    """Aggregate result of simulating one proof generation."""

    workload: str
    hw: HwConfig
    records: List[KernelRecord] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        """End-to-end cycles (kernels execute back to back)."""
        return sum(r.elapsed_cycles for r in self.records)

    @property
    def total_seconds(self) -> float:
        """End-to-end wall-clock seconds."""
        return self.hw.cycles_to_seconds(self.total_cycles)

    def cycles_by_kind(self) -> Dict[str, float]:
        """Elapsed cycles per kernel class (Figure 8's bars)."""
        out: Dict[str, float] = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0.0) + r.elapsed_cycles
        return out

    def seconds_by_kind(self) -> Dict[str, float]:
        """Elapsed seconds per kernel class."""
        return {k: self.hw.cycles_to_seconds(v) for k, v in self.cycles_by_kind().items()}

    def fraction_by_kind(self) -> Dict[str, float]:
        """Share of total time per kernel class."""
        total = self.total_cycles
        return {k: v / total for k, v in self.cycles_by_kind().items()} if total else {}

    def utilization_by_kind(self) -> Dict[str, Dict[str, float]]:
        """Time-weighted memory and VSA utilisation per class (Table 4)."""
        out: Dict[str, Dict[str, float]] = {}
        for kind in REPORT_KINDS:
            recs = [r for r in self.records if r.kind == kind]
            elapsed = sum(r.elapsed_cycles for r in recs)
            if elapsed <= 0:
                continue
            mem = sum(r.memory_util * r.elapsed_cycles for r in recs) / elapsed
            vsa = sum(r.vsa_util * r.elapsed_cycles for r in recs) / elapsed
            out[kind] = {"memory": mem, "vsa": vsa}
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary (used by the proving service and exports)."""
        return {
            "workload": self.workload,
            "total_cycles": float(self.total_cycles),
            "total_seconds": float(self.total_seconds),
            "num_kernels": len(self.records),
            "cycles_by_kind": {k: float(v) for k, v in self.cycles_by_kind().items()},
            "fraction_by_kind": {
                k: float(v) for k, v in self.fraction_by_kind().items()
            },
            "utilization_by_kind": {
                k: {m: float(v) for m, v in u.items()}
                for k, u in self.utilization_by_kind().items()
            },
        }

    def summary_lines(self) -> List[str]:
        """Human-readable report."""
        lines = [f"workload {self.workload}: {self.total_seconds * 1e3:.2f} ms "
                 f"({self.total_cycles / 1e6:.1f} Mcycles)"]
        fracs = self.fraction_by_kind()
        for kind in REPORT_KINDS:
            if kind in fracs:
                lines.append(f"  {kind:5s}: {fracs[kind] * 100:5.1f}% of time")
        for kind, u in self.utilization_by_kind().items():
            lines.append(
                f"  util[{kind}]: memory {u['memory'] * 100:.1f}%  vsa {u['vsa'] * 100:.1f}%"
            )
        return lines
