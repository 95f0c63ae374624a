"""Static compiler: computation-graph IR, protocol frontends, scheduler."""

from .frontend import (
    RECURSION_PARAMS,
    PlonkParams,
    StarkParams,
    trace_plonky2,
    trace_recursive_plonky2,
    trace_starky,
)
from .graph import ComputationGraph, KernelNode
from .lowering import DetailedSchedule, KernelSchedule, lower
from .scheduler import MappingLike, ScheduledKernel, map_node, schedule

__all__ = [
    "ComputationGraph",
    "KernelNode",
    "PlonkParams",
    "StarkParams",
    "RECURSION_PARAMS",
    "trace_plonky2",
    "trace_starky",
    "trace_recursive_plonky2",
    "MappingLike",
    "ScheduledKernel",
    "DetailedSchedule",
    "KernelSchedule",
    "lower",
    "map_node",
    "schedule",
]
