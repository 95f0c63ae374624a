"""The prover's execution layer: shard graphs and the pool that runs them.

One proof's independent work that hashes, transforms or does
arithmetic -- per-batch iNTT/LDE/Merkle commits, Merkle leaf ranges,
FRI combine rows, sumcheck folds -- is expressed once, as the shard
graphs of :mod:`repro.parallel.ops`, and run by a :class:`ShardPool`:
inline in the calling process with one worker, or fanned out across
persistent shared-memory workers -- either way in the order each graph
was built.

Provers discover the pool through the calling thread's ``RUN.pool``
(:mod:`repro.context`; :func:`sharding` / :func:`current_pool`): no
prover signature needs a pool, and a prove given no pool inherits the
enclosing one.  With no pool scoped, :func:`current_pool` is the
process-default inline executor (:func:`default_pool`) -- the same graphs, one worker.

Correctness contract: proofs are bit-identical at every worker count
-- same digests, same operation counters.  Fiat-Shamir order is pinned
by the provers (caps observed in batch-index order between graph runs);
shards only ever compute.  Every kernel declares its read/write
footprint (:mod:`repro.parallel.footprints`) and the pool race-checks
each graph at submission (raising
:class:`~repro.parallel.pool.GraphRaceError`), so a missing dependency
edge fails deterministically instead of corrupting an unlucky run.
"""

from __future__ import annotations

import contextlib
import logging
import os
from typing import Iterator, Optional

from ..context import RUN, scoped
from .footprints import FOOTPRINTS, Access, buffer_key, footprint
from .pool import GraphRaceError, ShardError, ShardPool, default_pool
from .scheduler import Shard, ShardGraph
from .shm import SharedArena, ShmRef, resolve
from .workers import Workers

__all__ = [
    "Access",
    "FOOTPRINTS",
    "GraphRaceError",
    "Shard",
    "ShardError",
    "ShardGraph",
    "ShardPool",
    "SharedArena",
    "ShmRef",
    "Workers",
    "buffer_key",
    "current_pool",
    "default_pool",
    "effective_cpus",
    "footprint",
    "resolve",
    "resolve_workers",
    "sharding",
]

logger = logging.getLogger("repro.parallel")


def current_pool() -> ShardPool:
    """The pool provers run their graphs on: the scoped one, or the
    process-default inline executor."""
    return RUN.pool or default_pool()


@contextlib.contextmanager
def sharding(pool: Optional[ShardPool]) -> Iterator[ShardPool]:
    """Scope a shard pool: provers inside the block run through it.

    ``sharding(None)`` inherits the enclosing pool (the inline executor
    if none is scoped), which is what a prover's ``pool=None`` means.
    """
    with scoped("pool", RUN.pool if pool is None else pool):
        yield current_pool()


def effective_cpus() -> int:
    """CPUs this process may actually run on.

    Uses the scheduler affinity mask (cgroup/container limits show up
    here) and falls back to ``os.cpu_count`` where affinity is not
    exposed.  This is the honest parallelism bound ``bench/`` records as
    ``host.effective_cpus``: ``os.cpu_count`` alone overstates it inside
    containers.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(requested: Optional[int], flag: str = "workers") -> int:
    """Validate and clamp a worker-count flag (HwConfig-style).

    ``None`` means "use every effective CPU".  Non-integers raise
    ``TypeError`` and values below 1 raise ``ValueError`` (typed, fail
    fast); values above the effective CPU count are clamped with a
    logged warning, since extra processes past the affinity mask only
    add context-switch overhead.
    """
    cpus = effective_cpus()
    if requested is None:
        return cpus
    if isinstance(requested, bool) or not isinstance(requested, int):
        raise TypeError(f"--{flag} must be an int, got {type(requested).__name__}")
    if requested < 1:
        raise ValueError(f"--{flag} must be >= 1, got {requested}")
    if requested > cpus:
        logger.warning(
            "--%s=%d exceeds effective CPUs (%d); clamping", flag, requested, cpus
        )
        return cpus
    return requested
