"""Operation counters instrumenting the functional stack.

The performance models cost proofs from *predicted* operation counts
(permutations per Merkle tree, butterflies per NTT).  These counters
measure what the functional provers actually execute, so the
test-suite can cross-validate prediction against reality at matched
parameters -- the reproduction's analogue of validating the simulator
against RTL.

Usage::

    with counting() as c:
        prove(...)
    print(c.sponge_permutations, c.ntt_butterflies)

Counting is always on (one integer add per call -- negligible); the
context manager just snapshots deltas, live inside the block and frozen
once it exits.

The running totals are the calling thread's ``RUN.counters``
(:mod:`repro.context`), so two proofs on two threads never corrupt each
other's totals.  A shard pool folds each worker process's shipped
deltas into the dispatching thread's counters, so a sharded proof
counts what an inline one does; the proving service hands each job's
deltas to its callers in the job result.
"""

from __future__ import annotations

from contextlib import contextmanager

from .context import RUN, Counters

__all__ = ["Counters", "counting"]


@contextmanager
def counting():
    """Yield a view of the operations executed inside the block.

    Reads inside the block are live; on exit the view freezes at the
    block's totals, so later work on the same thread never leaks into
    an already-measured region.
    """
    live = RUN.counters
    start = live.snapshot()
    frozen = None

    class _View:
        def __getattr__(self, name):
            return getattr(live.delta(start) if frozen is None else frozen, name)

    try:
        yield _View()
    finally:
        frozen = live.delta(start)
