"""The one ambient run context: what a prove reads without being passed it.

UniZK runs every kernel against one scratchpad and keeps one per-kernel
accounting view (paper Sections 4 and 6).  The software analogue is
:data:`RUN`, one :class:`Run` per thread, holding

* ``counters`` -- the running :class:`Counters` every instrumented
  kernel adds to (:func:`repro.metrics.counting` reads deltas of it);
* ``session`` -- the active :class:`repro.tracing.TraceSession`, or
  ``None`` while nobody traces;
* ``pool`` -- the scoped :class:`repro.parallel.ShardPool`, or ``None``
  for the process-default inline executor;
* ``workspace`` -- the kernel scratch arena
  (:func:`repro.field.gl64.default_workspace`);
* ``plans`` -- the per-shape :class:`repro.fri.DomainPlan` LRU
  (:func:`repro.fri.plan.plan_for`).

:func:`scoped` swaps one field for a block and restores it afterwards.

The rule is per thread, not per :mod:`contextvars` context: a thread
started in a copied context still gets a run of its own, so concurrent
proves never share a counter, an arena or a plan.  A forked process
starts from a copy of the forking thread's run; worker processes ship
their counter deltas back as :meth:`Counters.as_dict` payloads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Iterator

import numpy as np


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


class Workspace:
    """A pool of reusable scratch arrays for the in-place kernels.

    Buffers are keyed by ``(slot, shape, dtype)`` so each call site gets stable
    storage that is reused on the next call with the same shape -- the
    software analogue of the fixed SRAM scratchpads a UniZK PE cluster
    cycles through.  A workspace is *not* thread-safe; each proving
    thread uses its own (``RUN.workspace``).
    """

    __slots__ = ("_bufs", "_plans")

    def __init__(self) -> None:
        self._bufs: dict = {}
        self._plans: dict = {}

    def temp(self, shape, slot: str, dtype=np.uint64) -> np.ndarray:
        """Return a reusable scratch array of ``shape`` (uint64 unless
        ``dtype`` says otherwise -- the limb GEMM keeps float64 there).

        Contents are unspecified; the same ``(slot, shape, dtype)``
        always returns the same storage.
        """
        key = (slot, shape, dtype)
        buf = self._bufs.get(key)
        if buf is None:
            buf = self._bufs[key] = np.empty(shape, dtype=dtype)
        return buf

    def plan(self, slot: str, shape, build):
        """The object cached under ``(slot, shape)``, made by
        ``build(self, shape)`` on first use: a kernel's pre-sliced views
        of its :meth:`temp` buffers, so a hot loop pays the slicing
        once per shape, not per call.  Lives and dies with the buffers.
        """
        made = self._plans.get((slot, shape))
        if made is None:
            made = self._plans[slot, shape] = build(self, shape)
        return made

    def nbytes(self) -> int:
        """Total bytes currently held by the arena (for introspection)."""
        return sum(b.nbytes for b in self._bufs.values())

    def clear(self) -> None:
        """Drop every buffer (frees memory; next calls re-allocate)."""
        self._plans.clear()
        self._bufs.clear()


class Run(threading.local):
    """One thread's ambient state, made on the thread's first access."""

    def __init__(self) -> None:
        self.counters = Counters()
        self.session = None
        self.pool = None
        self.workspace = Workspace()
        self.plans: OrderedDict = OrderedDict()


#: The calling thread's run.
RUN = Run()


@contextmanager
def scoped(field: str, value: Any) -> Iterator[Any]:
    """Set ``RUN.<field>`` to ``value`` for the block, then restore it."""
    saved = getattr(RUN, field)
    setattr(RUN, field, value)
    try:
        yield value
    finally:
        setattr(RUN, field, saved)
