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
* ``workspace`` -- the one arena every kernel scratch and every
  slotted local stage buffer of a prove comes from (a scoped fresh
  :class:`Workspace` isolates one);
* ``instances`` -- the preprocessed-instance LRU every
  :meth:`repro.protocols.ProofSystem.setup` binds a config to
  (:func:`repro.protocols.base.instance`).

:func:`scoped` swaps one field for a block and restores it afterwards.

The rule is per thread, not per :mod:`contextvars` context: a thread
started in a copied context still gets a run of its own, so concurrent
proves never share a counter, an arena or an instance.  What they do
share are the read-only per-shape tables (coset points, divisor
inverses, NTT and FRI fold weights): each is an ``lru_cache``-bounded
function of its inputs, frozen once built.  A forked process starts
from a copy of the forking thread's run; worker processes ship their
counter deltas back as :meth:`Counters.as_dict` payloads.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterator, Tuple

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

    One buffer per ``(slot, dtype)``: the software analogue of the one
    fixed scratchpad a UniZK PE cluster runs every kernel through.  A
    slot's buffer grows to the largest request it has seen, and each
    shape asked of it is a cached view of its start, so an NTT stage
    reshape or a new batch size costs a view, not memory.

    Contract: a slot holds one live shape at a time -- any request on a
    slot may reuse (and a larger one replaces) the memory an earlier
    request returned.  A call site that needs two arrays live at once
    uses two slot names.  A workspace is *not* thread-safe; each proving
    thread uses its own (``RUN.workspace``).  The shard pool's
    :class:`~repro.parallel.shm.SharedArena` is the same arena with its
    buffers in shared memory (:meth:`_allocate`).
    """

    __slots__ = ("_bases", "_views", "_plans", "_closed")

    def __init__(self) -> None:
        #: ``(slot, dtype)`` -> the slot's flat buffer.
        self._bases: dict = {}
        #: ``(slot, shape, dtype)`` -> the view of its slot's buffer.
        self._views: dict = {}
        self._plans: dict = {}
        self._closed = False

    def temp(self, shape, slot: str, dtype=np.uint64) -> np.ndarray:
        """Return a reusable scratch array of ``shape`` (uint64 unless
        ``dtype`` says otherwise -- the limb GEMM keeps float64 there).

        Contents are unspecified; the same ``(slot, shape, dtype)``
        returns the same view until a larger request replaces the
        slot's buffer.
        """
        view = self._views.get((slot, shape, dtype))
        if view is None:
            key, size = (slot, dtype), math.prod(shape)
            base = self._bases.get(key)
            if base is None or base.size < size:
                if self._closed:
                    raise RuntimeError("arena is closed")
                if base is not None:  # let the old buffer go
                    del base, self._bases[key]
                    self._views = {k: v for k, v in self._views.items() if (k[0], k[2]) != key}
                    self._plans.clear()
                base = self._bases[key] = self._allocate(key, size)
            view = self._views[slot, shape, dtype] = base[:size].reshape(shape)
        return view

    def _allocate(self, key, size: int) -> np.ndarray:
        """The one point the arena allocates: a flat buffer of ``size``
        for ``key = (slot, dtype)``, whose old buffer is already out."""
        return np.empty(size, dtype=key[1])

    def ref_of(self, arr: np.ndarray):
        """The kernel-args form of ``arr``: in process, the array itself."""
        return arr

    def plan(self, slot: str, shape, build):
        """The object cached under ``(slot, shape)``, made by
        ``build(self, shape)`` on first use: a kernel's pre-sliced views
        of its :meth:`temp` buffers, so a hot loop pays the slicing
        once per shape, not per call.  Every plan is dropped when a
        larger request replaces a buffer, so none keeps an old buffer
        alive; a rebuild re-slices the cached views.
        """
        made = self._plans.get((slot, shape))
        if made is None:
            made = self._plans[slot, shape] = build(self, shape)
        return made

    def nbytes(self) -> int:
        """Total bytes held by the arena: each slot's buffer once."""
        return sum(b.nbytes for b in self._bases.values())

    def close(self) -> None:
        """Drop every buffer; a closed arena refuses :meth:`temp`."""
        self._closed = True
        self._plans.clear()
        self._views.clear()
        self._bases.clear()


def lru(cache: OrderedDict, key, cap: int, build: Callable[[], Any]) -> Tuple[Any, int]:
    """``cache[key]``, made by ``build()`` on a miss, and how many
    least-recently-used entries were dropped to keep ``cache`` within
    ``cap``.  A hit becomes the most recently used entry."""
    made = cache.get(key)
    if made is None:
        made = cache[key] = build()
    cache.move_to_end(key)
    evicted = max(0, len(cache) - cap)
    for _ in range(evicted):
        cache.popitem(last=False)
    return made, evicted


class Run(threading.local):
    """One thread's ambient state, made on the thread's first access."""

    def __init__(self) -> None:
        self.counters = Counters()
        self.session = None
        self.pool = None
        self.workspace = Workspace()
        self.instances: OrderedDict = OrderedDict()


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
