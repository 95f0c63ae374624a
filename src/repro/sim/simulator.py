"""The UniZK performance simulator.

Executes a scheduled computation graph on a hardware configuration and
produces a :class:`SimReport`.  Elapsed time per kernel is
``max(compute, memory)`` under the double-buffered scratchpad (see
:mod:`repro.mapping.base`); kernels execute in dependency order, which
matches the paper's static scheduling and its per-kernel breakdown
methodology.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..compiler import ComputationGraph, MappingLike, schedule
from ..compiler.frontend import (
    PlonkParams,
    StarkParams,
    trace_plonky2,
    trace_recursive_plonky2,
    trace_starky,
)
from ..hw.config import DEFAULT_CONFIG, HwConfig
from ..mapping import DEFAULT_MAPPING
from .stats import KernelRecord, SimReport


def simulate_graph(
    graph: ComputationGraph,
    hw: HwConfig = DEFAULT_CONFIG,
    mapping: MappingLike = DEFAULT_MAPPING,
) -> SimReport:
    """Run the scheduler and accumulate the per-kernel records.

    ``mapping`` is :func:`repro.compiler.schedule`'s argument, and the
    only way a mapping decision gets in: one
    :class:`~repro.mapping.params.MappingParams` for every kernel (the
    default is the paper's static mapping) or a ``node ->
    MappingParams`` callable.
    """
    report = SimReport(workload=graph.name, hw=hw)
    for sk in schedule(graph, hw, mapping=mapping):
        cost = sk.cost
        report.records.append(
            KernelRecord(
                name=cost.name,
                kind=cost.kind,
                stage=sk.stage,
                elapsed_cycles=cost.elapsed_cycles(hw),
                mem_bytes=cost.mem_bytes,
                mult_ops=cost.mult_ops,
                memory_util=cost.memory_utilization(hw),
                vsa_util=cost.vsa_utilization(hw),
            )
        )
    return report


def simulate_plonky2(params: PlonkParams, hw: HwConfig = DEFAULT_CONFIG) -> SimReport:
    """Simulate one Plonky2 proof generation."""
    return simulate_graph(trace_plonky2(params), hw)


def simulate_starky(params: StarkParams, hw: HwConfig = DEFAULT_CONFIG) -> SimReport:
    """Simulate one Starky base-proof generation."""
    return simulate_graph(trace_starky(params), hw)


def simulate_starky_plonky2(
    params: StarkParams, hw: HwConfig = DEFAULT_CONFIG
) -> Dict[str, SimReport]:
    """Simulate the combined scheme: Starky base + Plonky2 recursion.

    Starky proves the raw statement cheaply (blowup 2), then a
    fixed-shape Plonky2 circuit compresses/aggregates it (paper
    Sections 2.2 and 7.4).
    """
    return {
        "base": simulate_starky(params, hw),
        "recursive": simulate_graph(trace_recursive_plonky2(), hw),
    }


def sweep(
    params: PlonkParams,
    hw_points: Sequence[HwConfig],
) -> list[SimReport]:
    """Simulate one workload across many hardware points (Figure 10)."""
    return [simulate_plonky2(params, hw) for hw in hw_points]
