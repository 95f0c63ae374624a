"""Job model for the proving service.

A *job* is one client request: prove (or simulate) a named workload at
a given scale.  Jobs move through a small state machine::

    PENDING --> RUNNING --> DONE
       ^           |
       |           +------> FAILED      (retries exhausted)
       +-----------+                    (retry with backoff)
    PENDING/RUNNING ------> CANCELLED   (client cancel)

The :class:`JobSpec` is the content-addressable part -- two specs with
the same canonical form are the *same work*, which is what the result
cache and the scheduler's in-flight merge key on.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from ..errors import UnknownEntryError
from ..protocols import get as get_protocol, names as _protocol_names

#: Fault-injection kinds used by the failure tests and benchmarks; the
#: service only accepts them when started with ``fault_injection=True``.
FAULT_KINDS = ("sleep", "crash")


def job_kinds() -> Tuple[str, ...]:
    """Job kinds the executor understands, read from the registry at
    call time: every registered proof protocol, the performance-model
    ``simulate`` kind, plus :data:`FAULT_KINDS`."""
    return _protocol_names() + ("simulate",) + FAULT_KINDS


class UnknownJobKindError(UnknownEntryError):
    """An unknown job kind (still a ``ValueError`` for old callers)."""

    entry_kind = "job kind"


class JobState(str, Enum):
    """Lifecycle states of a job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the job will never run again."""
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass(frozen=True)
class JobSpec:
    """What to prove: the content-addressed request description."""

    workload: str
    kind: str = "stark"
    #: Size knob: ``log_rows`` for stark AETs, gate count for plonk.
    scale: int = 6
    #: FRI-config overrides (``rate_bits``, ``num_queries``, ...).
    config: Dict[str, int] = field(default_factory=dict)
    #: Extra kind-specific parameters (e.g. ``seconds`` for ``sleep``).
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in job_kinds():
            raise UnknownJobKindError(self.kind, job_kinds())

    def canonical(self) -> str:
        """Deterministic JSON form (sorted keys) used for hashing.

        A protocol kind's config is the resolved one (defaults filled
        in), so overrides that name the same config name the same
        proof; other kinds keep their overrides as given.
        """
        config = self.config
        if self.kind in _protocol_names():
            config = asdict(get_protocol(self.kind).make_config(config))
        return json.dumps(
            {
                "workload": self.workload,
                "kind": self.kind,
                "scale": self.scale,
                "config": dict(sorted(config.items())),
                "params": dict(sorted(self.params.items())),
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @property
    def cache_key(self) -> str:
        """Content address: same key == same proof bytes (deterministic)."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """Wire form (JSON-safe)."""
        return {
            "workload": self.workload,
            "kind": self.kind,
            "scale": self.scale,
            "config": dict(self.config),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JobSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        allowed = {"workload", "kind", "scale", "config", "params"}
        extra = set(d) - allowed
        if extra:
            raise ValueError(f"unknown job spec fields: {sorted(extra)}")
        return cls(**d)


@dataclass
class JobResult:
    """Outcome payload of a finished job."""

    #: Serialized result envelope (see ``repro.serialize``).
    envelope: bytes
    #: Whether it was served from the result cache.
    cache_hit: bool = False
    #: Operation-counter deltas measured in the worker.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Per-stage trace spans (``repro.tracing.Span.as_dict()`` forms)
    #: recorded around the worker-side execution.
    spans: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class Job:
    """A submitted job plus all its bookkeeping."""

    id: str
    spec: JobSpec
    priority: int = 0
    timeout_s: float = 60.0
    max_retries: int = 2
    state: JobState = JobState.PENDING
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Dispatch attempts so far (1 == first try, no retry yet).
    attempts: int = 0
    error: Optional[str] = None
    result: Optional[JobResult] = None
    #: Jobs that shared the execution this job last rode (1 == solo);
    #: set when that execution ends.
    batch_size: int = 0
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)

    def stats(self) -> Dict[str, Any]:
        """Structured per-job stats (queue wait, run time, retries, ...)."""
        queue_wait = (
            (self.started_at - self.submitted_at) if self.started_at else None
        )
        run_time = (
            (self.finished_at - self.started_at)
            if self.finished_at and self.started_at
            else None
        )
        return {
            "id": self.id,
            "state": self.state.value,
            "workload": self.spec.workload,
            "kind": self.spec.kind,
            "scale": self.spec.scale,
            "priority": self.priority,
            "attempts": self.attempts,
            "retries": max(0, self.attempts - 1),
            "batch_size": self.batch_size,
            "queue_wait_s": queue_wait,
            "run_time_s": run_time,
            "cache_hit": bool(self.result.cache_hit) if self.result else False,
            "counters": dict(self.result.counters) if self.result else {},
            "spans": list(self.result.spans) if self.result else [],
            "error": self.error,
        }


class JobFailed(Exception):
    """Raised by blocking result waits when the job ended unsuccessfully."""

    def __init__(self, job: Job) -> None:
        super().__init__(f"job {job.id} {job.state.value}: {job.error}")
        self.job = job
