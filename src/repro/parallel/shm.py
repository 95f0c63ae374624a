"""Shared-memory Goldilocks arrays: the zero-copy plane across processes.

:class:`SharedArena` is the thread's :class:`repro.context.Workspace`
with its slot buffers in shared memory: the same contract -- one buffer
a slot, grown to the largest request, every shape a view of its start
-- but each buffer is a named POSIX shared-memory segment
(:class:`multiprocessing.shared_memory.SharedMemory`), so a shard
worker can map the *same* physical pages the coordinator writes --
polynomial values, Merkle level arenas and FRI layer values cross the
process boundary as a 16-byte :class:`ShmRef` instead of a pickle of
the array.  A slot that grows gets a new segment and the arena unlinks
the one it replaces, so a long-lived pool holds one segment a slot.

Workers resolve refs through a process-local attach cache
(:func:`resolve`) holding one mapping a slot: the first touch of a
segment maps it (and unmaps the slot's replaced segment), later touches
are dictionary hits.  Workers are forked after the coordinator has
started its ``resource_tracker`` (:meth:`repro.parallel.ShardPool.start`),
so they share it and never unlink a segment they merely attached.  The
tracker unlinks what is still registered once every process holding it
has exited, so a coordinator that dies leaves no segment behind once its
workers have read EOF and exited too.  Only a process that owns a
parallel pool creates segments: workers never do (a worker proves
inline, :mod:`repro.parallel.workers`).
"""

from __future__ import annotations

import itertools
import math
import os
import weakref
from contextlib import suppress
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..context import Workspace

_SEGMENT_SEQ = itertools.count()


@dataclass(frozen=True)
class ShmRef:
    """A picklable handle to one shared ``uint64`` array.

    ``name`` is the OS-level shared-memory segment name; ``shape`` is
    the array's shape.  The dtype is always ``uint64`` (the Goldilocks
    element type), so a ref plus :func:`resolve` fully reconstructs the
    array view in any process.
    """

    name: str
    shape: Tuple[int, ...]


class SharedArena(Workspace):
    """The shard pool's :class:`~repro.context.Workspace`, one shared
    segment a slot; :meth:`ref_of` gives a view's :class:`ShmRef`.

    Segment names embed the owning pid and an arena uid, so two pools
    (or two processes) never collide, and a slot's segments share a
    stem (:func:`_stem`), so a worker keeps one mapping a slot.
    """

    __slots__ = ("uid", "_segments")

    def __init__(self, uid: str) -> None:
        super().__init__()
        self.uid = uid
        #: ``(slot, dtype)`` -> the segment behind the slot's buffer.
        self._segments: Dict[Any, shared_memory.SharedMemory] = {}

    def _allocate(self, key, size: int) -> np.ndarray:
        """A new segment for slot ``key``; the one it replaces is unlinked."""
        stale = self._segments.pop(key, None)
        stem = _stem(stale.name) if stale else f"repro-{os.getpid()}-{self.uid}-{next(_SEGMENT_SEQ)}"
        dtype = np.dtype(key[1])
        seg = self._segments[key] = shared_memory.SharedMemory(
            name=f"{stem}-{next(_SEGMENT_SEQ)}", create=True, size=max(8, size * dtype.itemsize)
        )
        if stale is not None:
            _unlink(stale)
        return _mapped(seg, size, dtype)

    def ref_of(self, arr: np.ndarray) -> Optional[ShmRef]:
        """The :class:`ShmRef` of a view :meth:`temp` handed out, or
        ``None`` for any other array (a plane then copies it in)."""
        for (slot, shape, dtype), view in self._views.items():
            if view is arr:
                return ShmRef(self._segments[slot, dtype].name, shape)
        return None

    def close(self) -> None:
        """Drop every buffer and unlink every segment (idempotent); a
        view still alive keeps its pages until it is collected."""
        super().close()
        for seg in self._segments.values():
            _unlink(seg)
        self._segments.clear()


def _stem(name: str) -> str:
    """The part of a segment name every segment of its slot shares."""
    return name.rpartition("-")[0]


def _mapped(seg: shared_memory.SharedMemory, size: int, dtype=np.uint64) -> np.ndarray:
    """A flat array over ``seg``, which stays mapped for as long as the
    array or any view of it lives -- and no longer."""
    base = np.ndarray(size, dtype=dtype, buffer=seg.buf)
    weakref.finalize(base, seg.close)
    return base


def _unlink(seg: shared_memory.SharedMemory) -> None:
    """Remove a segment's name; its pages go once nothing maps them."""
    with suppress(FileNotFoundError):
        seg.unlink()


#: Process-local cache of attached segments: stem -> (name, flat array),
#: one a slot.
_ATTACHED: Dict[str, Tuple[str, np.ndarray]] = {}


def _attach(ref: ShmRef) -> np.ndarray:
    """Map a segment by name, cached per process and slot."""
    stem = _stem(ref.name)
    name, base = _ATTACHED.get(stem, ("", None))
    if name != ref.name:  # first touch, or the slot grew into a new segment
        seg = shared_memory.SharedMemory(name=ref.name)
        name, base = _ATTACHED[stem] = (ref.name, _mapped(seg, seg.size // 8))
    return base[: math.prod(ref.shape)].reshape(ref.shape)


def resolve(obj):
    """Turn a kernel argument into a live array.

    :class:`ShmRef` values are attached (any process); plain arrays and
    other values pass through, which is what makes the same kernels run
    inline in the calling process on the local transport.
    """
    if isinstance(obj, ShmRef):
        return _attach(obj)
    return obj

