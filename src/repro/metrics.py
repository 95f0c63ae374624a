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

Concurrency
-----------

``GLOBAL`` is *context-local*: every thread (and every asyncio task)
accumulates into its own :class:`Counters` instance, so two proofs
running concurrently -- e.g. the proving service's request handlers --
never corrupt each other's totals.  Worker *processes* each carry
their own counters by construction; the service ships each job's
deltas back as a dict (:meth:`Counters.as_dict`) and merges them into
the coordinator's context with :func:`merge_counts`, the
"per-process, merged-on-return" model.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields


@dataclass
class Counters:
    """Running operation totals."""

    #: Poseidon permutations issued by the sponge (Merkle trees, leaf
    #: hashing, two-to-one compression).
    sponge_permutations: int = 0
    #: Poseidon permutations issued by the duplex challenger
    #: (Fiat-Shamir, grinding).
    challenger_permutations: int = 0
    #: NTT butterflies executed (forward + inverse, all variants).
    ntt_butterflies: int = 0
    #: NTT transforms executed (count of (batch, size) calls).
    ntt_transforms: int = 0
    #: Prover plans dropped from the per-thread LRU cache
    #: (:func:`repro.fri.plan.plan_for`).
    plan_evictions: int = 0

    def snapshot(self) -> "Counters":
        """Copy the current totals."""
        return Counters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta(self, since: "Counters") -> "Counters":
        """Totals accumulated since a snapshot."""
        return Counters(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )

    def merge(self, other: "Counters") -> None:
        """Add another counter set's totals into this one (in place)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        """Plain-int dict form, safe to ship across process boundaries."""
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "Counters":
        """Inverse of :meth:`as_dict`; unknown keys are ignored."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: int(v) for k, v in d.items() if k in names})

    @property
    def total_permutations(self) -> int:
        """All Poseidon permutations."""
        return self.sponge_permutations + self.challenger_permutations


_CURRENT: ContextVar[Counters] = ContextVar("repro_counters")


def _current() -> Counters:
    """The context's live counter set, created lazily per thread/task."""
    c = _CURRENT.get(None)
    if c is None:
        c = Counters()
        _CURRENT.set(c)
    return c


class _ContextCounters:
    """Attribute proxy onto the context-local :class:`Counters`.

    Instrumented modules do ``GLOBAL.ntt_butterflies += n``; routing the
    attribute access through the context variable gives every thread its
    own accumulator without touching any call site.
    """

    __slots__ = ()

    def __getattr__(self, name):
        return getattr(_current(), name)

    def __setattr__(self, name, value):
        setattr(_current(), name, value)


#: The counter instance the instrumented modules update (context-local).
GLOBAL = _ContextCounters()


@contextmanager
def counting():
    """Yield a view of the operations executed inside the block.

    Reads inside the block are live; on exit the view freezes at the
    block's totals, so later work in the same context never leaks into
    an already-measured region.
    """
    start = GLOBAL.snapshot()
    frozen = None

    class _View:
        def __getattr__(self, name):
            return getattr(GLOBAL.delta(start) if frozen is None else frozen, name)

    try:
        yield _View()
    finally:
        frozen = GLOBAL.delta(start)


def merge_counts(d: dict) -> None:
    """Fold a worker's :meth:`Counters.as_dict` deltas into this context.

    Used by the proving service to account operations executed in worker
    processes against the coordinator's counters.
    """
    _current().merge(Counters.from_dict(d))
