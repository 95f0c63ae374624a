"""Multiprocess worker pool with liveness tracking and respawn.

Each worker is a separate OS process (real parallelism for the
numpy-heavy provers) with its own task queue; results funnel back
through one shared queue.  The pool itself is policy-free: the
scheduler decides *what* to run and *when* to give up on a worker; the
pool knows how to dispatch, detect death, kill, and respawn.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .executor import execute


def _worker_main(
    worker_id: int,
    task_q,
    result_q,
    shard_workers: int = 1,
    shard_config: Optional[Dict[str, Any]] = None,
) -> None:
    """Worker loop: take a task, run its spec, ship the result.

    The worker owns a :class:`repro.parallel.ShardPool` of
    ``shard_workers`` and scopes it over every job it executes: with
    more than one, each proof's commit/FRI stages fan out across shard
    processes (stage-level parallelism nested inside job-level
    parallelism).  ``shard_config`` forwards pool thresholds.
    """
    # A foreground `repro serve` shares its process group with the
    # workers, so a terminal Ctrl-C would hit them too.  Shutdown is
    # driven by sentinels (and SIGKILL for deadline kills), never
    # SIGINT -- let the scheduler drain instead of dying mid-proof.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from .. import parallel

    with parallel.ShardPool(
        shard_workers, **(shard_config or {})
    ) as shard_pool, parallel.sharding(shard_pool):
        while True:
            task = task_q.get()
            if task is None:
                break
            try:
                result = {"ok": True, **execute(task["spec"])}
            except Exception as exc:  # noqa: BLE001 - report, don't die
                result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            result_q.put(
                {"worker_id": worker_id, "flight_id": task["flight_id"], **result}
            )


@dataclass
class WorkerHandle:
    """One worker process plus its dispatch state."""

    id: int
    process: mp.Process
    task_q: Any
    #: Flight id currently executing (None == idle).
    busy: Optional[int] = None
    #: Monotonic deadline for that flight.
    deadline: Optional[float] = None
    generation: int = 0
    #: Monotonic time this worker last became idle (spawn counts).
    idle_since: float = field(default_factory=time.monotonic)
    #: Flights dispatched to this worker over its lifetime.
    dispatches: int = 0

    @property
    def idle(self) -> bool:
        """Whether the worker has no flight to run."""
        return self.busy is None

    @property
    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self.process.is_alive()


@dataclass
class Casualty:
    """A worker the pool had to give up on, and why."""

    worker_id: int
    flight_id: int
    reason: str  # "crashed" | "timeout"


class WorkerPool:
    """Fixed-size pool of proving workers."""

    def __init__(
        self,
        num_workers: int = 2,
        shard_workers: int = 1,
        shard_config: Optional[Dict[str, Any]] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if isinstance(shard_workers, bool) or not isinstance(shard_workers, int):
            raise TypeError(
                f"shard_workers must be an int, got {type(shard_workers).__name__}"
            )
        if shard_workers < 1:
            raise ValueError(f"shard_workers must be >= 1, got {shard_workers}")
        self._ctx = mp.get_context("fork")
        self._num_workers = num_workers
        self.shard_workers = shard_workers
        self.shard_config = dict(shard_config or {})
        self.result_q = self._ctx.Queue()
        self.workers: List[WorkerHandle] = []
        self.restarts = 0
        self._next_id = 0

    # -- lifecycle -------------------------------------------------------

    def _spawn(self, generation: int = 0) -> WorkerHandle:
        wid = self._next_id
        self._next_id += 1
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, task_q, self.result_q, self.shard_workers, self.shard_config),
            # Daemonic processes cannot spawn children, so a worker that
            # owns a shard pool must be non-daemonic; pool.stop() still
            # reaps it (sentinel, then terminate).
            daemon=self.shard_workers <= 1,
        )
        proc.start()
        return WorkerHandle(id=wid, process=proc, task_q=task_q, generation=generation)

    def start(self) -> None:
        """Spawn the configured number of workers."""
        while len(self.workers) < self._num_workers:
            self.workers.append(self._spawn())

    def stop(self, timeout_s: float = 5.0) -> None:
        """Graceful stop: sentinel each worker, then terminate stragglers."""
        for w in self.workers:
            if w.alive:
                try:
                    w.task_q.put_nowait(None)
                except Exception:
                    pass
        deadline = time.monotonic() + timeout_s
        for w in self.workers:
            w.process.join(max(0.0, deadline - time.monotonic()))
            if w.alive:
                w.process.terminate()
                w.process.join(1.0)
        self.workers.clear()

    # -- dispatch --------------------------------------------------------

    def idle_workers(self) -> List[WorkerHandle]:
        """Workers ready for a new flight, longest-idle first.

        Ordering matters: the scheduler fills this list front to back
        from the queue, so returning declaration order would always feed
        worker 0 first, starving high-id workers under light load and
        skewing per-worker stats.  Longest-waiting-first spreads work
        evenly (and keeps every worker's caches warm).
        """
        idle = [w for w in self.workers if w.idle and w.alive]
        idle.sort(key=lambda w: (w.idle_since, w.id))
        return idle

    def assign(self, worker: WorkerHandle, flight_id: int, spec: dict,
               timeout_s: float) -> None:
        """Hand one spec to an idle worker and arm its deadline."""
        assert worker.idle, "assigning to a busy worker"
        worker.busy = flight_id
        worker.deadline = time.monotonic() + timeout_s
        worker.dispatches += 1
        worker.task_q.put({"flight_id": flight_id, "spec": spec})

    def mark_idle(self, worker_id: int) -> None:
        """Clear a worker's in-flight state after its result arrived."""
        for w in self.workers:
            if w.id == worker_id:
                w.busy = None
                w.deadline = None
                w.idle_since = time.monotonic()

    def pids(self) -> Dict[int, int]:
        """worker id -> OS pid (the failure tests kill these)."""
        return {w.id: w.process.pid for w in self.workers if w.process.pid}

    def busy_workers(self) -> List[WorkerHandle]:
        """Workers with a flight to run."""
        return [w for w in self.workers if not w.idle]

    # -- health ----------------------------------------------------------

    def check_health(self) -> List[Casualty]:
        """Detect crashed/timed-out workers; replace them; report losses.

        A worker past its deadline is SIGKILLed (the prover does not
        poll for cancellation) and counted as a ``timeout`` casualty;
        a worker that died with a flight assigned is a ``crash``.
        """
        now = time.monotonic()
        casualties: List[Casualty] = []
        for i, w in enumerate(list(self.workers)):
            timed_out = (
                w.alive and w.busy is not None and w.deadline is not None
                and now > w.deadline
            )
            if timed_out:
                try:
                    os.kill(w.process.pid, signal.SIGKILL)
                except (OSError, TypeError):
                    pass
                w.process.join(1.0)
            if not w.process.is_alive():
                if w.busy is not None:
                    casualties.append(
                        Casualty(
                            worker_id=w.id,
                            flight_id=w.busy,
                            reason="timeout" if timed_out else "crashed",
                        )
                    )
                self.workers[i] = self._spawn(generation=w.generation + 1)
                self.restarts += 1
        return casualties
