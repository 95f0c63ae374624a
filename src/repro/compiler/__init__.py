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
from .scheduler import MappingLike, Schedule, ScheduledKernel, map_node, schedule

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
    "Schedule",
    "ScheduledKernel",
    "map_node",
    "schedule",
]
