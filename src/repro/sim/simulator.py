"""The UniZK performance simulator.

Executes a computation graph on a hardware configuration: the result is
the compiler's :class:`~repro.compiler.Schedule`, whose report methods
give the per-class breakdowns.  Elapsed time per kernel is
``max(compute, memory)`` under the double-buffered scratchpad (see
:mod:`repro.mapping.base`); kernels execute in dependency order, which
matches the paper's static scheduling and its per-kernel breakdown
methodology.
"""

from __future__ import annotations

from typing import Sequence

from ..compiler import ComputationGraph, MappingLike, Schedule, schedule
from ..compiler.frontend import (
    PlonkParams,
    StarkParams,
    trace_plonky2,
    trace_starky,
)
from ..hw.config import DEFAULT_CONFIG, HwConfig
from ..mapping import DEFAULT_MAPPING


def simulate_graph(
    graph: ComputationGraph,
    hw: HwConfig = DEFAULT_CONFIG,
    mapping: MappingLike = DEFAULT_MAPPING,
) -> Schedule:
    """Schedule ``graph`` on ``hw``.

    ``mapping`` is :func:`repro.compiler.schedule`'s argument, and the
    only way a mapping decision gets in: one
    :class:`~repro.mapping.params.MappingParams` for every kernel (the
    default is the paper's static mapping) or a ``node ->
    MappingParams`` callable.
    """
    return schedule(graph, hw, mapping=mapping)


def simulate_plonky2(params: PlonkParams, hw: HwConfig = DEFAULT_CONFIG) -> Schedule:
    """Simulate one Plonky2 proof generation."""
    return simulate_graph(trace_plonky2(params), hw)


def simulate_starky(params: StarkParams, hw: HwConfig = DEFAULT_CONFIG) -> Schedule:
    """Simulate one Starky base-proof generation."""
    return simulate_graph(trace_starky(params), hw)


def sweep(
    params: PlonkParams,
    hw_points: Sequence[HwConfig],
) -> list[Schedule]:
    """Simulate one workload across many hardware points (Figure 10)."""
    return [simulate_plonky2(params, hw) for hw in hw_points]
