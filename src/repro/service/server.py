"""The proving service: scheduler, retries, timeouts, drain.

``ProvingService`` ties the pieces together:

* :class:`~repro.service.cache.ProofCache` short-circuits requests whose
  proof already exists with byte-identical results;
* a :class:`Flight` is one proof in the making -- the spec a worker runs
  and the jobs waiting on its result.  Identical requests are merged by
  identity, not by time: a job whose cache key is already queued *or
  already proving* rides that flight, so no spec executes twice while
  its twin is outstanding and nothing waits for twins to arrive;
* :class:`~repro.service.queue.PriorityJobQueue` orders the queued
  flights' cache keys (priority + retry backoff);
* a :class:`~repro.parallel.workers.Workers` runs one flight per
  worker process, a pipe each, proving it inline in the worker; the
  flight policy stays here: idle workers are filled longest-idle first,
  a worker past its flight's deadline is SIGKILLed, and a dead or
  killed worker is replaced and its flight retried.

Invariant: every non-terminal job rides exactly one flight, and at most
one flight per cache key exists.  A key is either cached or in flight,
both decided under the one lock.

A single scheduler thread owns all state transitions, so there is one
lock and no lost-update window: results, casualties, and dispatch all
happen on its tick, which waits on the workers' pipes and sentinels for
at most ``_TICK_S``.  Jobs are never lost -- a worker death or timeout
requeues every rider (bounded retries with exponential backoff and
jitter) or fails it explicitly.
"""

from __future__ import annotations

import itertools
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..parallel.workers import Workers
from .cache import ProofCache
from .executor import execute, validate_spec
from .jobs import Job, JobFailed, JobResult, JobSpec, JobState
from .queue import PriorityJobQueue

_TICK_S = 0.005


def _prove(worker_id: int, spec: Dict[str, Any]) -> Dict[str, Any]:
    return execute(spec)


def _check_int(name: str, value: Any, low: Optional[int] = None) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_timeout(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass
class Flight:
    """One execution of a spec and the jobs whose result it is."""

    id: int
    spec: JobSpec
    #: Most urgent priority it sits in the queue at.
    priority: int
    #: Ids of the jobs riding; all ``PENDING`` while the flight is
    #: queued, all ``RUNNING`` once a worker has it.
    riders: List[str] = field(default_factory=list)
    running: bool = False


class ProvingService:
    """Long-running concurrent proof-generation service."""

    def __init__(
        self,
        workers: int = 2,
        *,
        enable_cache: bool = True,
        default_timeout_s: float = 120.0,
        max_retries: int = 2,
        backoff_base_s: float = 0.1,
        backoff_cap_s: float = 2.0,
        fault_injection: bool = False,
        jitter_seed: Optional[int] = None,
    ) -> None:
        _check_int("workers", workers, 1)
        _check_timeout("default_timeout_s", default_timeout_s)
        _check_int("max_retries", max_retries, 0)
        self.enable_cache = enable_cache
        self.default_timeout_s = default_timeout_s
        self.default_max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.fault_injection = fault_injection

        self.cache = ProofCache()
        self.queue = PriorityJobQueue()
        self.forked = Workers(workers, _prove)
        #: worker -> (flight id, monotonic deadline) of what it runs.
        self._running: Dict[int, Tuple[int, float]] = {}
        #: Per worker slot: when it last became idle (a fresh worker
        #: counts), and the flights it has been handed.
        self._idle_since = [time.monotonic()] * workers
        self._dispatches = [0] * workers

        self._jobs: Dict[str, Job] = {}
        #: cache key -> the one flight queued or proving for it.
        self._flights: Dict[str, Flight] = {}
        self._lock = threading.RLock()
        self._job_seq = itertools.count(1)
        self._flight_seq = itertools.count(1)
        self._rng = random.Random(jitter_seed)
        self._stop = threading.Event()
        self._scheduler: Optional[threading.Thread] = None

        self.totals: Dict[str, Any] = {
            "submitted": 0, "completed": 0, "failed": 0, "cancelled": 0,
            "retried": 0, "timeouts": 0, "worker_crashes": 0,
            "batches_dispatched": 0, "jobs_dispatched": 0,
            "cache_completions": 0, "counters": {}, "stage_wall_s": {},
        }

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ProvingService":
        """Spawn workers and the scheduler thread."""
        if self._scheduler is not None:
            return self
        self.forked.start()
        self._stop.clear()
        self._scheduler = threading.Thread(
            target=self._run_scheduler, name="proving-scheduler", daemon=True
        )
        self._scheduler.start()
        return self

    def close(self, drain: bool = True, timeout_s: float = 60.0) -> None:
        """Shut down: optionally drain outstanding work, then stop workers."""
        if drain and self._scheduler is not None:
            self.drain(timeout_s=timeout_s)
        self._stop.set()
        if self._scheduler is not None:
            self._scheduler.join(timeout_s)
            self._scheduler = None
        self.forked.stop()

    def __enter__(self) -> "ProvingService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- client surface --------------------------------------------------

    def submit(
        self,
        spec: Union[JobSpec, Dict[str, Any], None] = None,
        *,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        max_retries: Optional[int] = None,
        **spec_kwargs,
    ) -> str:
        """Submit a job; returns its id immediately.

        Raises ``KeyError`` for an unknown workload, ``ValueError`` for an
        invalid spec, and ``TypeError`` / ``ValueError`` unless
        ``priority`` is an int, ``timeout_s`` a finite number > 0 and
        ``max_retries`` an int >= 0 (``bool`` is none of them) -- all
        before the job is registered.
        """
        _check_int("priority", priority)
        if timeout_s is not None:
            _check_timeout("timeout_s", timeout_s)
        if max_retries is not None:
            _check_int("max_retries", max_retries, 0)
        if spec is None:
            spec = JobSpec(**spec_kwargs)
        elif isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        validate_spec(spec, fault_injection=self.fault_injection)

        job = Job(
            id=f"j-{next(self._job_seq):06d}",
            spec=spec,
            priority=priority,
            timeout_s=self.default_timeout_s if timeout_s is None else timeout_s,
            max_retries=(
                self.default_max_retries if max_retries is None else max_retries
            ),
        )
        with self._lock:
            self._jobs[job.id] = job
            self.totals["submitted"] += 1
            cached = self.cache.get(spec.cache_key) if self.enable_cache else None
            if cached is not None:
                self._complete(job, cached, cache_hit=True)
            else:
                self._enqueue(job)
        return job.id

    def job(self, job_id: str) -> Dict[str, Any]:
        """Snapshot of one job's structured stats."""
        with self._lock:
            return self._jobs[job_id].stats()

    def result(self, job_id: str, timeout_s: Optional[float] = None) -> JobResult:
        """Block until a job finishes; raises :class:`JobFailed` if it
        did not end in ``DONE``."""
        job = self._jobs[job_id]
        if not job.done_event.wait(timeout_s):
            raise TimeoutError(f"job {job_id} still {job.state.value}")
        if job.state is not JobState.DONE:
            raise JobFailed(job)
        assert job.result is not None
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-pending job (running jobs cannot be preempted)."""
        with self._lock:
            job = self._jobs[job_id]
            if job.state is not JobState.PENDING:
                return False
            # A pending job rides a queued flight; the last rider out
            # drops it, and its queue entry is skipped when it surfaces.
            key = job.spec.cache_key
            riders = self._flights[key].riders
            riders.remove(job_id)
            if not riders:
                del self._flights[key]
            job.state = JobState.CANCELLED
            job.finished_at = time.monotonic()
            self.totals["cancelled"] += 1
            job.done_event.set()
            return True

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Wait until every submitted job reached a terminal state."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            with self._lock:
                busy = any(not j.state.terminal for j in self._jobs.values())
            if not busy:
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(_TICK_S)

    def stats(self) -> Dict[str, Any]:
        """Service-level stats: totals, queue depth, cache, workers."""
        with self._lock:
            by_state: Dict[str, int] = {}
            for j in self._jobs.values():
                by_state[j.state.value] = by_state.get(j.state.value, 0) + 1
            running = sum(f.running for f in self._flights.values())
            return {
                **{k: (dict(v) if isinstance(v, dict) else v)
                   for k, v in self.totals.items()},
                "jobs_by_state": by_state,
                "queue_depth": len(self._flights) - running,
                "inflight_batches": running,
                "cache": self.cache.stats(),
                "workers": len(self.forked.procs),
                "worker_restarts": self.forked.restarts,
                "worker_dispatches": dict(enumerate(self._dispatches)),
            }

    # -- scheduler -------------------------------------------------------

    def _run_scheduler(self) -> None:
        while not self._stop.is_set():
            replies, dead = self.forked.wait(_TICK_S)
            for worker_id, flight_id, msg in replies:
                self._handle_result(worker_id, flight_id, msg)
            self._heal(dead)
            self._dispatch()

    def _heal(self, dead: List[int]) -> None:
        """Replace dead workers and SIGKILL-and-replace those past their
        flight's deadline (the prover does not poll for cancellation);
        the flight each was running is a casualty."""
        now = time.monotonic()
        with self._lock:
            late = [w for w, (_, deadline) in self._running.items()
                    if now > deadline and w not in dead]
            for worker_id in [*dead, *late]:
                self.forked.replace(worker_id)
                self._idle_since[worker_id] = time.monotonic()
                running = self._running.pop(worker_id, None)
                if running is not None:
                    self._lose(running[0], "timeout" if worker_id in late else "crashed")

    def _idle_workers(self) -> List[int]:
        """Workers ready for a new flight, longest-idle first.

        Ordering matters: :meth:`_dispatch` fills this list front to
        back, so slot order would always feed worker 0 first, starving
        high-id workers under light load and skewing per-worker stats.
        Longest-waiting-first spreads work evenly (and keeps every
        worker's caches warm).
        """
        idle = [w for w in range(self.forked.count) if w not in self._running]
        return sorted(idle, key=lambda w: (self._idle_since[w], w))

    def _dispatch(self) -> None:
        """Hand one queued flight to each idle worker."""
        with self._lock:
            for worker_id in self._idle_workers():
                flight = self._next_queued()
                if flight is None:
                    break
                flight.running = True
                # The deadline is fixed here: later riders share it.
                timeout = max(self._jobs[j].timeout_s for j in flight.riders)
                now = time.monotonic()
                for job_id in flight.riders:
                    self._board(self._jobs[job_id], now)
                self.totals["batches_dispatched"] += 1
                self._running[worker_id] = (flight.id, now + timeout)
                self._dispatches[worker_id] += 1
                self.forked.send(worker_id, flight.id, flight.spec.to_dict())

    def _next_queued(self) -> Optional[Flight]:
        """Most urgent ready flight.  An entry whose flight was dropped
        (every rider cancelled) or already left on another entry (a more
        urgent twin pushed a second one) is stale: skip it."""
        while (key := self.queue.pop_ready()) is not None:
            flight = self._flights.get(key)
            if flight is not None and not flight.running:
                return flight
        return None

    def _land(self, flight_id: int) -> List[Job]:
        """Take a flight a worker reported on out of ``_flights``; returns
        its riders (none for a flight already given up on)."""
        for key, flight in self._flights.items():
            if flight.id == flight_id:
                del self._flights[key]
                riders = [self._jobs[j] for j in flight.riders]
                for job in riders:
                    job.batch_size = len(riders)
                return riders
        return []

    def _handle_result(self, worker_id: int, flight_id: int, msg: Dict[str, Any]) -> None:
        with self._lock:
            self._running.pop(worker_id, None)
            self._idle_since[worker_id] = time.monotonic()
            riders = self._land(flight_id)
            if not riders:
                return  # no such flight in the air
            if not msg["ok"]:
                for job in riders:
                    self._fail_or_retry(job, msg["error"])
                return
            if self.enable_cache:
                self.cache.put(riders[0].spec.cache_key, msg["envelope"])
            self._merge_totals(msg["counters"])
            self._merge_stage_wall(msg["spans"])
            for job in riders:
                self._complete(
                    job, msg["envelope"], cache_hit=False,
                    counters=msg["counters"], spans=msg["spans"],
                )

    # -- state transitions (caller holds the lock) -----------------------

    def _lose(self, flight_id: int, reason: str) -> None:
        """A worker died (``crashed``) or was killed (``timeout``) with
        this flight: retry or fail every rider."""
        riders = self._land(flight_id)
        if not riders:
            return
        self.totals["timeouts" if reason == "timeout" else "worker_crashes"] += 1
        for job in riders:
            self._fail_or_retry(job, f"worker {reason}")

    def _enqueue(self, job: Job, delay_s: float = 0.0) -> None:
        """Put a pending job on the flight for its cache key, creating
        and queueing the flight if there is none."""
        key = job.spec.cache_key
        flight = self._flights.get(key)
        if flight is None:
            flight = self._flights[key] = Flight(
                next(self._flight_seq), job.spec, job.priority
            )
            self.queue.push(key, priority=job.priority, delay_s=delay_s)
        elif flight.running:
            self._board(job, time.monotonic())
        elif job.priority < flight.priority:
            # More urgent than the entry its flight waits on: add one.
            flight.priority = job.priority
            self.queue.push(key, priority=job.priority, delay_s=delay_s)
        flight.riders.append(job.id)

    def _board(self, job: Job, now: float) -> None:
        """A worker has (or is being handed) this job's flight."""
        job.state = JobState.RUNNING
        job.attempts += 1
        if job.started_at is None:
            job.started_at = now
        self.totals["jobs_dispatched"] += 1

    def _complete(
        self,
        job: Job,
        envelope: bytes,
        *,
        cache_hit: bool,
        counters: Optional[Dict[str, int]] = None,
        spans: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        job.state = JobState.DONE
        job.finished_at = time.monotonic()
        if job.started_at is None:
            job.started_at = job.finished_at  # cache hit: zero queue wait
        job.result = JobResult(
            envelope=envelope, cache_hit=cache_hit, counters=counters or {},
            spans=spans or [],
        )
        self.totals["completed"] += 1
        if cache_hit:
            self.totals["cache_completions"] += 1
        job.done_event.set()

    def _fail_or_retry(self, job: Job, error: str) -> None:
        job.error = error
        if job.attempts <= job.max_retries:
            backoff = min(
                self.backoff_cap_s,
                self.backoff_base_s * (2 ** (job.attempts - 1)),
            )
            delay = backoff * (1.0 + 0.25 * self._rng.random())
            job.state = JobState.PENDING
            self.totals["retried"] += 1
            self._enqueue(job, delay_s=delay)
        else:
            job.state = JobState.FAILED
            job.finished_at = time.monotonic()
            self.totals["failed"] += 1
            job.done_event.set()

    def _merge_totals(self, counters: Dict[str, int]) -> None:
        agg = self.totals["counters"]
        for k, v in counters.items():
            agg[k] = agg.get(k, 0) + int(v)

    def _merge_stage_wall(self, spans: List[Dict[str, Any]]) -> None:
        """Aggregate per-stage wall time (roots + their direct children).

        The root span is the whole prove (``prove:plonk`` / ``prove:stark``)
        and its children are the pipeline stages, so two levels give the
        service-wide stage breakdown exported by :meth:`stats`.
        """
        agg = self.totals["stage_wall_s"]
        for root in spans:
            for s in [root, *root.get("children", [])]:
                name = s.get("name", "?")
                agg[name] = agg.get(name, 0.0) + float(s.get("elapsed_s", 0.0))
