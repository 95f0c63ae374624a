"""The shard-graph executor: one dispatch rule, two transports.

Provers express every commit / combine / fold stage as a
:class:`~repro.parallel.scheduler.ShardGraph` and hand it to a
:class:`ShardPool`, which race-checks it and runs it in the order it
was built: the next shard is always the first one in ``graph.order``
whose dependencies are done.

With ``workers=1`` -- what :func:`default_pool` (no pool scoped) and
:func:`~repro.parallel.resolve_workers` on a single core give -- the
pool is the *inline executor*: no processes, no shared memory, shards
run in the calling process in build order and counters and
``shard:*`` spans accumulate directly.  With more workers it owns a
:class:`~repro.parallel.shm.SharedArena` (the workspace contract in
shared memory, one segment a slot: the cross-process zero-copy plane)
and persistent forked worker processes, and folds each shard's
operation counters and trace spans back into the coordinator's context
-- so a proof reports the same counter totals, and a traced proof shows
``shard:*`` spans nested under the stage that spawned them, on either
transport.  The workers are a :class:`~repro.parallel.workers.Workers`
(a pipe each).  A dead worker is replaced on its own; one that dies with
a shard in flight also takes its graph down with a :class:`ShardError`.

Determinism: shard completion order is non-deterministic, but every
kernel writes a disjoint region of a shared buffer and the coordinator
assembles results by shard id, so proofs are bit-identical
regardless of worker count or scheduling.  Fiat-Shamir interaction
stays entirely in the coordinator (shards never touch a challenger).
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Any, Dict, Optional

from multiprocessing import resource_tracker

from .. import tracing
from ..context import RUN, Counters
from ..metrics import counting
from .kernels import run_kernel
from .scheduler import ShardGraph
from .shm import SharedArena
from .workers import Workers

_POOL_SEQ = itertools.count()


class ShardError(RuntimeError):
    """A shard failed in a worker (the proof cannot be assembled)."""


class GraphRaceError(ShardError):
    """A shard graph was rejected at submission by the race analyzer.

    ``findings`` carries the structured ``race.*``
    :class:`~repro.analysis.findings.Finding` records -- the same
    objects ``repro analyze`` reports -- so callers and tests can
    assert on specific rules.
    """

    def __init__(self, graph_name: str, findings) -> None:
        self.findings = list(findings)
        lines = "; ".join(f.format() for f in self.findings[:4])
        more = len(self.findings) - 4
        if more > 0:
            lines += f"; ... {more} more"
        super().__init__(
            f"shard graph {graph_name or '<unnamed>'!r} rejected by race "
            f"analysis ({len(self.findings)} finding(s)): {lines}"
        )


def _run_shard(worker_id: int, task: Dict[str, Any]) -> Dict[str, Any]:
    """One shard in a worker: its result, and the counters and trace
    spans it recorded, which ride back for re-attachment."""
    with counting() as counters, tracing.trace() as session:
        with tracing.span(
            f"shard:{task['kind']}",
            category="shard",
            shard=task["shard_id"],
            units=task["units"],
            worker=worker_id,
        ):
            result = run_kernel(task["kind"], task["args"])
    return {
        "result": result,
        "counters": counters.as_dict(),
        "spans": [s.as_dict() for s in session.spans],
    }


class ShardPool:
    """Persistent shard workers + shared arena + build-order dispatch.

    ``workers`` defaults to the effective CPU count; validation mirrors
    the :class:`~repro.hw.HwConfig` style (typed errors, fail fast).
    The ``min_*`` thresholds set a stage's shard count: ``workers``
    parts at or above them, one part run in the calling process below
    (there per-shard IPC overhead exceeds the kernel work; tests and CI
    force them low to fan small proofs out).  ``min_queries`` gates
    nothing: no stage reads it, and it is validated only so that the
    benchmark harness, which still passes it, keeps working.
    Construction is cheap: worker processes fork lazily on the first
    parallel :meth:`run`.

    Every submitted graph is checked by the race analyzer
    (:func:`repro.analysis.races.graph_findings`) before any shard
    dispatches -- mirroring how the schedule sanitizer arms
    :class:`repro.hw.GridEmulator`: unordered overlapping accesses,
    undeclared kernels and challenger-carrying args raise
    :class:`GraphRaceError` instead of racing.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        min_rows: int = 1024,
        min_tree_leaves: int = 1024,
        min_queries: int = 8,
    ) -> None:
        if workers is None:
            from . import effective_cpus

            workers = effective_cpus()
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise TypeError(f"workers must be an int, got {type(workers).__name__}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        for name, value in (
            ("min_rows", min_rows),
            ("min_tree_leaves", min_tree_leaves),
            ("min_queries", min_queries),
        ):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.workers = workers
        self.min_rows = min_rows
        self.min_tree_leaves = min_tree_leaves
        self.uid = f"{os.getpid()}-{next(_POOL_SEQ)}"
        self.arena = SharedArena(self.uid)
        #: The worker processes (none forked until the first parallel run).
        self.forked = Workers(workers, _run_shard)
        self._run_seq = itertools.count()
        self._closed = False
        #: Lifetime stats (exported through service stats / benches).
        self.stats: Dict[str, int] = {"graphs": 0, "shards": 0, "inline_shards": 0}

    @property
    def parallel(self) -> bool:
        """Whether this pool has worker processes (more than one worker)."""
        return self.workers > 1

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ShardPool":
        """Fork the worker processes (idempotent; implied by ``run``)."""
        if self._closed:
            raise RuntimeError("shard pool is closed")
        if self.forked.procs or not self.parallel:
            return self
        # A forked worker inherits the tracker only if it exists already;
        # one forked before the first segment is created would start a
        # private tracker on its first attach, which then "cleans up" the
        # coordinator's segments at exit.
        resource_tracker.ensure_running()
        self.forked.start()
        return self

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop the workers (EOF, then SIGKILL at the deadline) and
        unlink the arena."""
        if self._closed:
            return
        self._closed = True
        self.forked.stop(timeout_s)
        self.arena.close()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution -------------------------------------------------------

    def run(self, graph: ShardGraph) -> Dict[str, Any]:
        """Execute a shard graph; returns ``{shard_id: result}``.

        Counters and trace spans from worker shards are merged into the
        calling context, so totals match an inline execution exactly.
        Raises :class:`ShardError` if any shard fails or a worker dies.
        """
        if self._closed:
            raise RuntimeError("shard pool is closed")
        if len(graph) == 0:
            return {}
        # Lazy import: repro.analysis.races imports this module for the
        # shipped-graph pass; the deferred import breaks the cycle.
        from ..analysis.races import graph_findings

        findings = graph_findings(graph)
        if findings:
            raise GraphRaceError(graph.name, findings)
        self.stats["graphs"] += 1
        self.stats["shards"] += len(graph)
        if not self.parallel:
            return self._run_inline(graph)
        self.start()
        return self._run_parallel(graph)

    def _run_inline(self, graph: ShardGraph) -> Dict[str, Any]:
        """The local transport: build order, in the calling process."""
        results: Dict[str, Any] = {}
        for sid in graph.order:
            shard = graph.shards[sid]
            with tracing.span(
                f"shard:{shard.kind}",
                category="shard",
                shard=shard.id,
                units=shard.units,
                worker=-1,
            ):
                results[sid] = run_kernel(shard.kind, shard.args)
            self.stats["inline_shards"] += 1
        return results

    def _run_parallel(self, graph: ShardGraph) -> Dict[str, Any]:
        run_id = next(self._run_seq)
        forked = self.forked
        # A worker that died idle is replaced before it is given a shard;
        # replies still due from an aborted run are dropped by run id.
        for wid in forked.wait(0)[1]:
            forked.replace(wid)
        idle = list(range(self.workers))
        waiting = list(graph.order)  # not yet dispatched, in build order
        inflight: Dict[int, tuple] = {}  # worker -> (shard, dispatch_s)
        results: Dict[str, Any] = {}
        while len(results) < len(graph):
            ready = [
                sid for sid in waiting
                if all(dep in results for dep in graph.shards[sid].deps)
            ]
            for sid in ready[: len(idle)]:
                waiting.remove(sid)
                shard = graph.shards[sid]
                wid = idle.pop()
                forked.send(
                    wid,
                    (run_id, shard.id),
                    {
                        "shard_id": shard.id,
                        "kind": shard.kind,
                        "args": shard.args,
                        "units": shard.units,
                    },
                )
                inflight[wid] = (shard, time.perf_counter())
            replies, dead = forked.wait(None)
            for wid, tag, msg in replies:
                entry = inflight.get(wid)
                if entry is None or tag != (run_id, entry[0].id):
                    continue  # stale result from an aborted earlier run
                shard, dispatched = inflight.pop(wid)
                idle.append(wid)
                if not msg["ok"]:
                    raise ShardError(
                        f"shard {shard.id!r} ({shard.kind}) failed in worker "
                        f"{wid}: {msg['error']}"
                    )
                RUN.counters.merge(Counters.from_dict(msg["counters"]))
                tracing.attach_spans(msg["spans"], base_s=dispatched)
                results[shard.id] = msg["result"]
            # A dead worker is replaced on its own; the graph fails only
            # if it died with a shard in flight.
            codes = {wid: forked.replace(wid) for wid in dead}
            lost = [wid for wid in dead if wid in inflight]
            if lost:
                raise ShardError(
                    f"shard worker {lost[0]} died (exitcode {codes[lost[0]]}) "
                    f"with shards in flight: "
                    f"{sorted(shard.id for shard, _ in inflight.values())}"
                )
        return results


_DEFAULT: Optional[ShardPool] = None


def default_pool() -> ShardPool:
    """The process-default inline executor (one worker, created lazily).

    What :func:`repro.parallel.current_pool` returns with no pool
    scoped, and where stages that stay in the calling process run under
    a parallel pool.  It owns no processes and no shared memory, so it
    is never closed.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ShardPool(1)
    return _DEFAULT
