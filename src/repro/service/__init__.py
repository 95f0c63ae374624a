"""Proving service: async job queue, worker pool, in-flight merging, caching.

The software half of the paper's throughput story: UniZK removes the
per-proof bottleneck in hardware; this subsystem turns the repository's
provers and simulator into a long-running concurrent service a fleet of
clients can hit -- priority queueing, multiprocess workers, in-flight
de-duplication (identical requests share one execution), a
content-addressed result cache, and bounded-retry fault handling.

Entry points: ``python -m repro serve`` / ``submit`` / ``status`` on
the CLI, or :class:`ProvingService` in process::

    with ProvingService(workers=4) as svc:
        job_id = svc.submit(workload="Fibonacci", kind="stark", scale=8)
        proof_envelope = svc.result(job_id).envelope
"""

from .cache import ProofCache
from .client import ServiceClient, ServiceError, wait_for_server
from .executor import execute, validate_spec, verify_result
from .jobs import Job, JobFailed, JobResult, JobSpec, JobState
from .net import ServiceServer, serve_forever
from .queue import PriorityJobQueue
from .server import ProvingService

__all__ = [
    "ProvingService",
    "ServiceServer",
    "serve_forever",
    "ServiceClient",
    "ServiceError",
    "wait_for_server",
    "Job",
    "JobSpec",
    "JobState",
    "JobResult",
    "JobFailed",
    "PriorityJobQueue",
    "ProofCache",
    "execute",
    "verify_result",
    "validate_spec",
]
