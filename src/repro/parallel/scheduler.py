"""Shard graphs and the critical-path scheduler.

A proof stage decomposes into a :class:`ShardGraph`: independent units
of kernel work (:class:`Shard`) with explicit dependencies (LDE row
shards feed Merkle subtree shards feed the cap compression).  The
:class:`CriticalPathScheduler` decides dispatch order: each shard's
priority is its own estimated cost plus the most expensive chain of
work that depends on it (longest-path-first), so the chain that gates
the proof's end-to-end latency starts first -- not whatever happened to
be inserted first (FIFO).

Costs come from a :class:`StageProfile`: measured wall seconds per work
unit per shard kind, fed by the pool from completed shard results (the
same ``shard:*`` spans that ride back through ``JobResult.spans``), so
the schedule adapts to the machine it is running on.  With no
observations yet every kind costs the same per unit and the scheduler
degrades to largest-work-first, which is still a sound default.

Determinism: priorities only affect *dispatch order*, never results --
every shard writes a disjoint region and the coordinator assembles
results by shard id, so any execution order yields bit-identical
proofs.  Ties break on insertion order to keep schedules reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Shard:
    """One schedulable unit of kernel work.

    ``kind`` names a kernel in :mod:`repro.parallel.kernels`; ``args``
    is its (picklable) argument dict; ``deps`` are shard ids that must
    complete first; ``units`` is the shard's abstract work size (rows
    hashed, butterflies, queries), the quantity a
    :class:`StageProfile` converts to seconds.
    """

    id: str
    kind: str
    args: Dict[str, Any]
    deps: Tuple[str, ...] = ()
    units: float = 1.0


class ShardGraph:
    """A DAG of shards, acyclic by construction (deps must pre-exist).

    ``name`` labels the graph in race-analysis findings and pool
    errors (e.g. ``commit:wires``); it has no scheduling effect.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.shards: Dict[str, Shard] = {}
        self.order: List[str] = []  # insertion order == a topological order

    def add(
        self,
        shard_id: str,
        kind: str,
        args: Dict[str, Any],
        deps: Tuple[str, ...] | List[str] = (),
        units: float = 1.0,
    ) -> str:
        """Add a shard; returns its id.

        Raises ``ValueError`` on duplicate ids or dependencies on
        shards that have not been added yet (which also rules out
        cycles).
        """
        if shard_id in self.shards:
            raise ValueError(f"duplicate shard id {shard_id!r}")
        deps = tuple(deps)
        for dep in deps:
            if dep not in self.shards:
                raise ValueError(f"shard {shard_id!r} depends on unknown {dep!r}")
        self.shards[shard_id] = Shard(
            id=shard_id, kind=kind, args=args, deps=deps, units=float(units)
        )
        self.order.append(shard_id)
        return shard_id

    def __len__(self) -> int:
        return len(self.shards)

    def dependents(self) -> Dict[str, List[str]]:
        """Reverse edges: shard id -> ids that depend on it."""
        out: Dict[str, List[str]] = {sid: [] for sid in self.order}
        for sid in self.order:
            for dep in self.shards[sid].deps:
                out[dep].append(sid)
        return out


class StageProfile:
    """Measured seconds-per-unit by shard kind (the scheduler's costs).

    Fed by the pool from completed shard wall times; optionally fed
    from serialized span forests (``shard:*`` spans carry their
    ``units`` in span args), so a service coordinator can warm a
    profile from ``JobResult.spans``.
    """

    def __init__(self) -> None:
        self._stats: Dict[str, List[float]] = {}  # kind -> [units, seconds]

    def observe(self, kind: str, units: float, seconds: float) -> None:
        """Record one completed shard of ``kind``."""
        stat = self._stats.setdefault(kind, [0.0, 0.0])
        stat[0] += max(0.0, float(units))
        stat[1] += max(0.0, float(seconds))

    def observe_spans(self, spans: List[Dict[str, Any]]) -> int:
        """Feed ``shard:<kind>`` spans from a serialized span forest.

        Walks the nested dicts (``Span.as_dict`` form), records every
        span named ``shard:*`` whose args carry ``units``; returns the
        number of observations made.
        """
        seen = 0
        stack = list(spans)
        while stack:
            s = stack.pop()
            name = s.get("name", "")
            args = s.get("args", {}) or {}
            if name.startswith("shard:") and "units" in args:
                self.observe(name[len("shard:"):], args["units"], s.get("elapsed_s", 0.0))
                seen += 1
            stack.extend(s.get("children", []) or [])
        return seen

    def unit_cost(self, kind: str, default: float = 1.0) -> float:
        """Seconds per work unit for ``kind`` (``default`` if unseen)."""
        stat = self._stats.get(kind)
        if not stat or stat[0] <= 0.0:
            return default
        return stat[1] / stat[0]

    def cost(self, kind: str, units: float) -> float:
        """Estimated seconds for a shard of ``kind`` with ``units`` work."""
        return self.unit_cost(kind) * float(units)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-safe snapshot: kind -> {units, seconds, unit_cost}."""
        return {
            kind: {
                "units": stat[0],
                "seconds": stat[1],
                "unit_cost": self.unit_cost(kind),
            }
            for kind, stat in sorted(self._stats.items())
        }


class CriticalPathScheduler:
    """Longest-path-first dispatch over one :class:`ShardGraph`.

    ``priority(s) = cost(s) + max(priority(d) for dependents d)`` --
    the classic critical-path ("upward rank") heuristic.  The ready set
    is a max-heap on priority with insertion-order tie-break; callers
    drive it with :meth:`pop_ready` / :meth:`complete`.
    """

    def __init__(self, graph: ShardGraph, profile: Optional[StageProfile] = None) -> None:
        self.graph = graph
        self.profile = profile or StageProfile()
        self._dependents = graph.dependents()
        self.priorities: Dict[str, float] = {}
        # Insertion order is topological (deps precede), so one reverse
        # sweep computes every upward rank.
        for sid in reversed(graph.order):
            shard = graph.shards[sid]
            own = self.profile.cost(shard.kind, shard.units)
            down = max(
                (self.priorities[d] for d in self._dependents[sid]), default=0.0
            )
            self.priorities[sid] = own + down
        self._seq = {sid: i for i, sid in enumerate(graph.order)}
        self._waiting = {
            sid: len(graph.shards[sid].deps) for sid in graph.order
        }
        self._heap: List[Tuple[float, int, str]] = []
        self._pending = len(graph.order)
        for sid in graph.order:
            if self._waiting[sid] == 0:
                heapq.heappush(self._heap, (-self.priorities[sid], self._seq[sid], sid))

    def pop_ready(self) -> Optional[Shard]:
        """The highest-priority ready shard, or ``None`` if none is ready."""
        if not self._heap:
            return None
        _, _, sid = heapq.heappop(self._heap)
        return self.graph.shards[sid]

    def complete(self, shard_id: str) -> None:
        """Mark a shard done, releasing dependents into the ready set."""
        self._pending -= 1
        for dep in self._dependents[shard_id]:
            self._waiting[dep] -= 1
            if self._waiting[dep] == 0:
                heapq.heappush(
                    self._heap, (-self.priorities[dep], self._seq[dep], dep)
                )

    @property
    def done(self) -> bool:
        """True once every shard has been completed."""
        return self._pending == 0


def static_order(graph: ShardGraph, profile: Optional[StageProfile] = None) -> List[str]:
    """The one-worker (inline) critical-path execution order."""
    sched = CriticalPathScheduler(graph, profile)
    out: List[str] = []
    while not sched.done:
        shard = sched.pop_ready()
        assert shard is not None, "graph has unreachable shards"
        out.append(shard.id)
        sched.complete(shard.id)
    return out
