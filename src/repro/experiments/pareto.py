"""Design-space Pareto exploration (the architect's view of Figure 10).

Sweeps VSA count x scratchpad size x memory bandwidth over a grid,
costs every point with the simulator and the area/power model, and
extracts the Pareto frontier (no other point is both faster and
smaller).  This turns the paper's three 1-D sensitivity sweeps into the
2-D trade-off an architect actually navigates -- and shows the default
configuration sits on (or near) the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..hw import DEFAULT_CONFIG, HwConfig, chip_budget
from ..sim import sweep
from ..workloads import by_name

#: Default sweep grids (multiples of the baseline configuration).
VSA_GRID = (8, 16, 32, 64, 128)
SPAD_GRID = (2.0, 4.0, 8.0, 16.0)
BW_GRID = (500.0, 1000.0, 2000.0)


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated hardware configuration."""

    hw: HwConfig
    seconds: float
    area_mm2: float
    power_w: float

    @property
    def label(self) -> str:
        """Compact configuration label."""
        return (
            f"{self.hw.num_vsas}v/{self.hw.scratchpad_mb:g}MB/"
            f"{self.hw.mem_bandwidth_gbps / 1000:g}TBs"
        )

    @property
    def perf_per_area(self) -> float:
        """1 / (seconds * mm2): higher is better."""
        return 1.0 / (self.seconds * self.area_mm2)


def sweep_design_space(
    workload: str = "MVM",
    vsa_grid: Sequence[int] = VSA_GRID,
    spad_grid: Sequence[float] = SPAD_GRID,
    bw_grid: Sequence[float] = BW_GRID,
) -> List[DesignPoint]:
    """Evaluate the full grid for one workload."""
    hws = [
        DEFAULT_CONFIG.scaled(num_vsas=vsas, scratchpad_mb=spad, mem_bandwidth_gbps=bw)
        for vsas in vsa_grid
        for spad in spad_grid
        for bw in bw_grid
    ]
    points = []
    for hw, report in zip(hws, sweep(by_name(workload).plonk, hws)):
        budget = chip_budget(hw)
        points.append(
            DesignPoint(
                hw=hw,
                seconds=report.total_seconds,
                area_mm2=budget.total_area_mm2,
                power_w=budget.total_power_w,
            )
        )
    return points


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Points not dominated in (seconds, area): lower is better in both."""
    frontier = []
    for p in points:
        dominated = any(
            (q.seconds <= p.seconds and q.area_mm2 < p.area_mm2)
            or (q.seconds < p.seconds and q.area_mm2 <= p.area_mm2)
            for q in points
        )
        if not dominated:
            frontier.append(p)
    return sorted(frontier, key=lambda p: p.area_mm2)


def format_frontier(points: Sequence[DesignPoint], frontier: Sequence[DesignPoint]) -> str:
    """Render the frontier with the default config's position."""
    lines = [f"design space: {len(points)} points, frontier: {len(frontier)}"]
    for p in frontier:
        lines.append(
            f"  {p.label:18s} {p.seconds * 1e3:8.1f} ms  {p.area_mm2:6.1f} mm2 "
            f"{p.power_w:6.1f} W  perf/area {p.perf_per_area:8.5f}"
        )
    default = next(
        (p for p in points if p.hw == DEFAULT_CONFIG), None
    )
    if default is not None:
        on = any(f.hw == DEFAULT_CONFIG for f in frontier)
        lines.append(
            f"default config ({default.label}): {default.seconds * 1e3:.1f} ms, "
            f"{default.area_mm2:.1f} mm2 -- {'ON' if on else 'near'} the frontier"
        )
    return "\n".join(lines)
