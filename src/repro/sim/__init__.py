"""Performance simulator, reports, and Chrome-trace export."""

from .simulator import (
    simulate_graph,
    simulate_plonky2,
    simulate_starky,
    sweep,
)
from .stats import KernelRecord, SimReport
from .tracing import schedule_to_trace_events, write_trace

__all__ = [
    "simulate_graph",
    "simulate_plonky2",
    "simulate_starky",
    "sweep",
    "SimReport",
    "KernelRecord",
    "schedule_to_trace_events",
    "write_trace",
]
