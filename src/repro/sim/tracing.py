"""Chrome-trace export of execution schedules.

Writes the compiler's timeline in the Trace Event Format, so a
simulated proof generation can be inspected in ``chrome://tracing`` /
Perfetto: one track per kernel class, DRAM traffic as counter events.

The JSON framing and validation live in :mod:`repro.tracing`; this
module only knows how to turn a :class:`~repro.compiler.Schedule` into events,
the same way real-run spans are turned into events by
:func:`repro.tracing.spans_to_trace_events`.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from ..compiler import Schedule
from ..tracing import write_trace_payload

#: Track (thread) ids per kernel class.
_TRACKS = {"ntt": 1, "hash": 2, "poly": 3, "transform": 4}


def schedule_to_trace_events(sched: Schedule) -> List[dict]:
    """Convert a schedule to Trace Event Format dicts.

    Cycle timestamps map to microseconds 1:1 (at 1 GHz one cycle is
    1 ns; the 1000x stretch keeps viewers readable).
    """
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": f"UniZK {sched.workload}"},
        }
    ]
    for kind, tid in _TRACKS.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"{kind} kernels"},
            }
        )
    traffic = 0.0
    for k in sched.kernels:
        tid = _TRACKS.get(k.kind, 5)
        events.append(
            {
                "name": k.name,
                "cat": k.stage or "other",
                "ph": "X",  # complete event
                "pid": 1,
                "tid": tid,
                "ts": k.start_cycle,
                "dur": max(1.0, k.end_cycle - k.start_cycle),
                "args": {
                    "mode": k.mode,
                    "vsas": k.vsas,
                    "dma_in_bytes": k.dma_in_bytes,
                    "dma_out_bytes": k.dma_out_bytes,
                    "bound": "memory" if k.memory_bound else "compute",
                },
            }
        )
        traffic += k.dma_in_bytes + k.dma_out_bytes
        events.append(
            {
                "name": "DRAM traffic",
                "ph": "C",  # counter
                "pid": 1,
                "ts": k.end_cycle,
                "args": {"bytes": traffic},
            }
        )
    return events


def write_trace(sched: Schedule, path: str | Path) -> Path:
    """Write the schedule as a ``chrome://tracing`` JSON file."""
    return write_trace_payload(
        schedule_to_trace_events(sched),
        path,
        other_data={
            "workload": sched.workload,
            "total_cycles": sched.end_cycle,
        },
        display_time_unit="ns",
    )
