"""Shared-memory Goldilocks arrays: the zero-copy plane across processes.

The in-process data plane keys reusable scratch buffers by ``(slot,
shape)`` in a :class:`repro.field.gl64.Workspace`.  :class:`SharedArena`
is the cross-process twin: the same keying discipline, but every buffer
is backed by a named POSIX shared-memory segment
(:class:`multiprocessing.shared_memory.SharedMemory`), so a shard
worker can map the *same* physical pages the coordinator writes --
polynomial values, Merkle level arenas and FRI layer values cross the
process boundary as a 16-byte :class:`ShmRef` instead of a pickle of
the array.

Workers resolve refs through a process-local attach cache
(:func:`resolve`): the first touch of a segment maps it, later touches
are dictionary hits.  Workers are forked after the coordinator has
started its ``resource_tracker`` (:meth:`repro.parallel.ShardPool.start`),
so they share it and never unlink a segment they merely attached.  The
tracker unlinks what is still registered once every process holding it
has exited, so a coordinator that dies leaves no segment behind once its
workers have read EOF and exited too; a forked coordinator tracks its
segments with a tracker of its own (:func:`own_tracker`).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

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

    @property
    def nbytes(self) -> int:
        """Segment payload size in bytes."""
        n = 8
        for dim in self.shape:
            n *= int(dim)
        return n


class SharedArena:
    """A ``(slot, shape)``-keyed pool of shared-memory uint64 arrays.

    The coordinator-side analogue of :class:`repro.field.gl64.Workspace`:
    ``temp`` returns stable storage per key so repeated proofs of one
    shape reuse their segments, and :meth:`ref_of` maps a handed-out
    array back to the :class:`ShmRef` a shard task ships to workers.
    Segment names embed the owning pid and an arena uid, so two pools
    (or two processes) never collide.
    """

    def __init__(self, uid: str) -> None:
        self.uid = uid
        self._segments: Dict[Tuple[str, Tuple[int, ...]], shared_memory.SharedMemory] = {}
        self._arrays: Dict[Tuple[str, Tuple[int, ...]], np.ndarray] = {}
        self._refs_by_id: Dict[int, ShmRef] = {}
        self._closed = False

    def temp(self, shape, slot: str) -> np.ndarray:
        """Return a reusable shared uint64 array of ``shape``.

        Contents are unspecified; the same ``(slot, shape)`` always
        returns the same storage (and the same underlying segment).
        """
        if self._closed:
            raise RuntimeError("shared arena is closed")
        shape = tuple(int(d) for d in shape)
        key = (slot, shape)
        arr = self._arrays.get(key)
        if arr is None:
            nbytes = 8
            for dim in shape:
                nbytes *= dim
            name = f"repro-{os.getpid()}-{self.uid}-{next(_SEGMENT_SEQ)}"
            seg = shared_memory.SharedMemory(name=name, create=True, size=max(8, nbytes))
            arr = np.ndarray(shape, dtype=np.uint64, buffer=seg.buf)
            self._segments[key] = seg
            self._arrays[key] = arr
            self._refs_by_id[id(arr)] = ShmRef(name=name, shape=shape)
        return arr

    def ref_of(self, arr: np.ndarray) -> Optional[ShmRef]:
        """The :class:`ShmRef` for an array handed out by :meth:`temp`.

        Returns ``None`` for arrays this arena does not own (the caller
        then copies the data in via a fresh ``temp`` buffer).
        """
        return self._refs_by_id.get(id(arr))

    def nbytes(self) -> int:
        """Total shared bytes currently held (for introspection)."""
        return sum(seg.size for seg in self._segments.values())

    def close(self) -> None:
        """Unlink every segment.  Idempotent.

        Arrays already handed out keep their mappings alive until they
        are garbage collected (``SharedMemory.close`` refuses to unmap
        under exported buffers); unlinking here guarantees the names are
        reclaimed once the last reference drops.
        """
        if self._closed:
            return
        self._closed = True
        self._arrays.clear()
        self._refs_by_id.clear()
        for seg in self._segments.values():
            try:
                seg.close()
            except BufferError:
                pass  # a live ndarray still exports the buffer
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()


#: Process-local cache of attached segments: name -> (segment, base array).
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}


def _attach(ref: ShmRef) -> np.ndarray:
    """Map a segment by name (cached per process)."""
    hit = _ATTACHED.get(ref.name)
    if hit is None:
        seg = shared_memory.SharedMemory(name=ref.name)
        arr = np.ndarray(ref.shape, dtype=np.uint64, buffer=seg.buf)
        _ATTACHED[ref.name] = hit = (seg, arr)
    seg, arr = hit
    if arr.shape != ref.shape:
        arr = np.ndarray(ref.shape, dtype=np.uint64, buffer=seg.buf)
    return arr


def resolve(obj):
    """Turn a kernel argument into a live array.

    :class:`ShmRef` values are attached (any process); plain arrays and
    other values pass through, which is what makes the same kernels run
    inline in the calling process on the local transport.
    """
    if isinstance(obj, ShmRef):
        return _attach(obj)
    return obj


def own_tracker() -> None:
    """Track this process's segments with a resource tracker of its own.

    A forked process shares its parent's tracker, which unlinks a
    registered segment only once every process holding it has exited:
    the segments of a killed worker would outlive it for as long as its
    parent runs.  A forked worker that will own a parallel
    :class:`~repro.parallel.ShardPool` calls this before it creates a
    segment, so its tracker is held by it and its shard workers only.
    """
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)  # the parent's copy stays open
        tracker._fd = tracker._pid = None
    resource_tracker.ensure_running()
