"""Stage-level tracing shared by the real provers and the simulator.

Two halves, one file:

* **Spans** -- context-local structured timing of real proof runs.  A
  :func:`span` context manager records wall time plus the
  :class:`repro.metrics.Counters` delta of everything executed inside
  it, nesting under the enclosing span.  Collection is off unless a
  :func:`trace` session is active, so the instrumented hot paths pay
  one context-variable read when nobody is watching.

* **Chrome Trace Event export** -- a shared writer/validator for the
  `Trace Event Format`_ JSON consumed by ``chrome://tracing`` and
  Perfetto.  Both the simulator's schedule export
  (:mod:`repro.sim.tracing`) and real-run span dumps (``repro prove
  --trace-out``) produce their payloads through :func:`write_trace_payload`
  and are checked by the same :func:`validate_trace_events`.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

Usage::

    with tracing.trace() as session:
        prove(...)
    for s in session.spans:           # nested Span tree
        print(s.name, s.elapsed_s, s.counters)
    tracing.write_spans_trace(session.spans, "prove.json")

Sessions are context-local (:mod:`contextvars`): concurrent proofs in
different threads or asyncio tasks collect into separate sessions, the
same model :mod:`repro.metrics` uses for its counters.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from .metrics import GLOBAL


@dataclass
class Span:
    """One timed stage: name, wall time, counter deltas, children."""

    name: str
    category: str = "stage"
    #: ``time.perf_counter()`` at entry (relative clock, session-local).
    start_s: float = 0.0
    elapsed_s: float = 0.0
    #: Non-zero operation-counter deltas accumulated inside the span
    #: (children included -- a raw delta, not an exclusive count).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Static annotations supplied at span entry (shape, workload, ...).
    args: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe nested form (ships across process boundaries)."""
        return {
            "name": self.name,
            "category": self.category,
            "start_s": float(self.start_s),
            "elapsed_s": float(self.elapsed_s),
            "counters": {k: int(v) for k, v in self.counters.items()},
            "args": dict(self.args),
            "children": [c.as_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`as_dict`."""
        return cls(
            name=d["name"],
            category=d.get("category", "stage"),
            start_s=float(d.get("start_s", 0.0)),
            elapsed_s=float(d.get("elapsed_s", 0.0)),
            counters=dict(d.get("counters", {})),
            args=dict(d.get("args", {})),
            children=[cls.from_dict(c) for c in d.get("children", [])],
        )


class TraceSession:
    """Collects the span forest of one traced region."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def walk(self) -> Iterator[Span]:
        """Every collected span, depth-first across all roots."""
        for root in self.spans:
            yield from root.walk()


_ACTIVE: ContextVar[Optional[TraceSession]] = ContextVar(
    "repro_trace_session", default=None
)


@contextmanager
def trace() -> Iterator[TraceSession]:
    """Activate span collection for the enclosed block."""
    session = TraceSession()
    token = _ACTIVE.set(session)
    try:
        yield session
    finally:
        _ACTIVE.reset(token)


@contextmanager
def span(name: str, category: str = "stage", **args: Any) -> Iterator[Optional[Span]]:
    """Record a timed stage (no-op unless a :func:`trace` is active).

    Yields the live :class:`Span` (or ``None`` when collection is off);
    wall time and counter deltas are filled in at exit.
    """
    session = _ACTIVE.get()
    if session is None:
        yield None
        return
    s = Span(name=name, category=category, args=dict(args))
    parent = session._stack[-1] if session._stack else None
    (parent.children if parent is not None else session.spans).append(s)
    session._stack.append(s)
    before = GLOBAL.snapshot()
    s.start_s = time.perf_counter()
    try:
        yield s
    finally:
        s.elapsed_s = time.perf_counter() - s.start_s
        s.counters = {
            k: v for k, v in GLOBAL.delta(before).as_dict().items() if v
        }
        session._stack.pop()


def attach_spans(
    span_dicts: List[Dict[str, Any]], base_s: Optional[float] = None
) -> int:
    """Graft serialized spans from another process into this session.

    Shard workers trace into their own sessions and ship the forest
    back as ``Span.as_dict`` payloads; the coordinator re-attaches them
    under its currently open span (or as session roots), so a traced
    sharded proof shows ``shard:*`` work nested inside the stage that
    dispatched it.  ``base_s`` -- the coordinator's ``perf_counter`` at
    dispatch -- rebases the foreign clock onto this session's timeline
    (worker ``start_s`` values are process-local).

    No-op (returning 0) when tracing is off; returns the number of
    roots attached otherwise.
    """
    session = _ACTIVE.get()
    if session is None or not span_dicts:
        return 0
    roots = [Span.from_dict(d) for d in span_dicts]
    if base_s is not None:
        origin = min(r.start_s for r in roots)
        shift = base_s - origin
        for root in roots:
            for s in root.walk():
                s.start_s += shift
    parent = session._stack[-1] if session._stack else None
    (parent.children if parent is not None else session.spans).extend(roots)
    return len(roots)


# -- Chrome Trace Event export -------------------------------------------------


def spans_to_trace_events(
    spans: List[Span], pid: int = 1, tid: int = 1, label: str = "prover stages"
) -> List[dict]:
    """Convert a span forest to Trace Event Format dicts.

    Wall seconds map to microsecond timestamps relative to the earliest
    span start; nested spans become nested ``"X"`` (complete) events on
    one track, which is exactly how viewers render call stacks.
    """
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}},
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": "stages"},
        },
    ]
    flat = [s for root in spans for s in root.walk()]
    if not flat:
        return events
    origin = min(s.start_s for s in flat)
    for s in flat:
        events.append(
            {
                "name": s.name,
                "cat": s.category,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": (s.start_s - origin) * 1e6,
                "dur": max(0.001, s.elapsed_s * 1e6),
                "args": {**s.counters, **s.args},
            }
        )
    return events


def validate_trace_events(events: List[dict]) -> None:
    """Raise ``ValueError`` unless ``events`` is well-formed Trace JSON.

    Checks the invariants both exporters rely on: every event carries a
    name and a phase; complete (``"X"``) events carry non-negative
    numeric ``ts``/``dur``; counter (``"C"``) events carry ``args``.
    """
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    for i, e in enumerate(events):
        if not isinstance(e, dict) or "name" not in e or "ph" not in e:
            raise ValueError(f"event {i} lacks name/ph: {e!r}")
        if e["ph"] == "X":
            ts, dur = e.get("ts"), e.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"event {i} ({e['name']!r}) has bad ts {ts!r}")
            if not isinstance(dur, (int, float)) or dur <= 0:
                raise ValueError(f"event {i} ({e['name']!r}) has bad dur {dur!r}")
        if e["ph"] == "C" and not isinstance(e.get("args"), dict):
            raise ValueError(f"counter event {i} ({e['name']!r}) lacks args")


def write_trace_payload(
    events: List[dict],
    path: str | Path,
    other_data: Optional[Dict[str, Any]] = None,
    display_time_unit: str = "ns",
) -> Path:
    """Validate and write a ``chrome://tracing`` JSON file."""
    validate_trace_events(events)
    path = Path(path)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": display_time_unit,
        "otherData": dict(other_data or {}),
    }
    path.write_text(json.dumps(payload))
    return path


def load_trace(path: str | Path) -> dict:
    """Read a trace file back, re-validating its events."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("trace file has no traceEvents")
    validate_trace_events(payload["traceEvents"])
    return payload


def write_spans_trace(
    spans: List[Span], path: str | Path, **other_data: Any
) -> Path:
    """Export a real-run span forest as a Chrome trace file."""
    events = spans_to_trace_events(spans)
    total = sum(s.elapsed_s for s in spans)
    return write_trace_payload(
        events,
        path,
        other_data={"total_seconds": total, **other_data},
        display_time_unit="ms",
    )
