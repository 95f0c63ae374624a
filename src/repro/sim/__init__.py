"""Performance simulator and Chrome-trace export.

A simulation is the compiler's :class:`~repro.compiler.Schedule`: the
timeline and every report derived from it.
"""

from .simulator import (
    simulate_graph,
    simulate_plonky2,
    simulate_starky,
    sweep,
)
from .tracing import schedule_to_trace_events, write_trace

__all__ = [
    "simulate_graph",
    "simulate_plonky2",
    "simulate_starky",
    "sweep",
    "schedule_to_trace_events",
    "write_trace",
]
