"""Declared read/write footprints of the shard kernels.

Every kernel in :mod:`repro.parallel.kernels` is a *range restriction*
of one prover computation: it reads and writes statically-describable
regions of shared buffers.  This module makes those regions explicit --
:func:`footprint` maps a shard's ``(kind, args)`` to a list of
:class:`Access` records over the buffers the args reference -- so the
race analyzer (:mod:`repro.analysis.races`) can verify that every
overlapping access pair in a :class:`~repro.parallel.scheduler.ShardGraph`
is ordered by a dependency path *before* the graph runs, instead of
relying on the bit-identity tests to catch an unlucky interleaving.

The region model is one interval along one axis:

* ``axis=None`` means the whole buffer (a conservative summary for
  gather-style reads);
* otherwise ``[lo, hi)`` along ``axis`` with every other axis full
  (``hi=None`` meaning "to the end").

Two accesses to the same buffer overlap unless they restrict the *same*
axis to *disjoint* intervals -- restrictions along different axes
always intersect (a row band crosses every column band), which errs on
the safe side.  Buffer identity is the shared-memory segment name for
:class:`~repro.parallel.shm.ShmRef` args and object identity for
inline ndarrays, matching what the kernels actually dereference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .shm import ShmRef


@dataclass(frozen=True)
class Access:
    """One declared kernel access: a region of one shared buffer."""

    buffer: str
    mode: str  # "r" or "w"
    axis: Optional[int] = None  # None = the whole buffer
    lo: int = 0
    hi: Optional[int] = None  # None = to the end of the axis

    def overlaps(self, other: "Access") -> bool:
        """Do the two regions intersect?  (Same buffer assumed.)"""
        if self.axis is None or other.axis is None:
            return True
        if self.axis != other.axis:
            return True  # row band x column band always intersect
        self_hi = float("inf") if self.hi is None else self.hi
        other_hi = float("inf") if other.hi is None else other.hi
        return self.lo < other_hi and other.lo < self_hi

    def describe(self) -> str:
        """Short human label for race-finding messages (mode + region)."""
        region = (
            "whole"
            if self.axis is None
            else f"axis{self.axis}[{self.lo}:{'' if self.hi is None else self.hi}]"
        )
        return f"{'write' if self.mode == 'w' else 'read'} {self.buffer} {region}"


def buffer_key(obj: Any) -> Optional[str]:
    """Stable identity for a kernel buffer argument.

    ``ShmRef`` args key by segment name (what every process attaches);
    inline ndarrays key by object identity (what the inline fallback
    dereferences).  Non-buffer values return ``None``.
    """
    if isinstance(obj, ShmRef):
        return f"shm:{obj.name}"
    if isinstance(obj, np.ndarray):
        return f"mem:{id(obj)}"
    return None


def _shape(obj: Any) -> Optional[tuple]:
    if isinstance(obj, (ShmRef, np.ndarray)):
        return tuple(int(d) for d in obj.shape)
    return None


def _acc(obj: Any, mode: str, axis: Optional[int] = None, lo: int = 0,
         hi: Optional[int] = None) -> List[Access]:
    key = buffer_key(obj)
    if key is None:
        return []
    return [Access(buffer=key, mode=mode, axis=axis, lo=lo, hi=hi)]


def _level_offsets(sizes) -> List[int]:
    """Flat arena row offset of each Merkle level."""
    offsets = []
    offset = 0
    for size in sizes:
        offsets.append(offset)
        offset += int(size)
    return offsets


# ---------------------------------------------------------------------------
# Per-kernel footprints (mirror the kernels in .kernels, region by region)
# ---------------------------------------------------------------------------


def _fp_lde_rows(args: Dict[str, Any]) -> List[Access]:
    lo, hi = int(args["lo"]), int(args["hi"])
    mode = args["mode"]
    out: List[Access] = []
    if mode == "direct":
        # Coefficient rows were filled by the coordinator before submit.
        out += _acc(args["coeffs_out"], "r", axis=0, lo=lo, hi=hi)
    elif mode == "intt":
        out += _acc(args["src"], "r", axis=0, lo=lo, hi=hi)
        out += _acc(args["coeffs_out"], "w", axis=0, lo=lo, hi=hi)
    elif mode == "chunks":
        # Rows gather strided slices from both limb rows: whole-buffer read.
        out += _acc(args["src"], "r")
        out += _acc(args["coeffs_out"], "w", axis=0, lo=lo, hi=hi)
    else:
        raise ValueError(f"unknown lde_rows mode {mode!r}")
    out += _acc(args["values_out"], "w", axis=1, lo=lo, hi=hi)
    return out


def _fp_intt_limb(args: Dict[str, Any]) -> List[Access]:
    limb = int(args["limb"])
    return _acc(args["src"], "r", axis=1, lo=limb, hi=limb + 1) + _acc(
        args["out"], "w", axis=0, lo=limb, hi=limb + 1
    )


def _fp_merkle_subtree(args: Dict[str, Any]) -> List[Access]:
    start, count = int(args["start"]), int(args["count"])
    sizes = [int(s) for s in args["sizes"]]
    offsets = _level_offsets(sizes)
    base = int(args.get("base", 0))
    arena = args["arena"]
    # With leaves the bottom row is hashed (written) from them; a climb
    # from an already-filled level only reads its bottom row.  With rows
    # too, the range's coset leaves are gathered first: a strided read of
    # the whole rows matrix, then a write of the leaf range.
    hashes_leaves = "leaves" in args
    out: List[Access] = []
    if hashes_leaves:
        gathers = "rows" in args
        if gathers:
            out += _acc(args["rows"], "r")
        out += _acc(args["leaves"], "w" if gathers else "r", axis=0, lo=start, hi=start + count)
    # Aligned level ranges: the subtree fully owns rows [start>>k,
    # (start+count)>>k) of every level base+k it covers (count >> k >= 1).
    for k in range(len(sizes) - base):
        if (count >> k) < 1:
            break
        out += _acc(
            arena,
            "w" if k or hashes_leaves else "r",
            axis=0,
            lo=offsets[base + k] + (start >> k),
            hi=offsets[base + k] + ((start + count) >> k),
        )
    return out


def _fp_sumcheck_fold(args: Dict[str, Any]) -> List[Access]:
    lo, hi = int(args["lo"]), int(args["hi"])
    shape = _shape(args["src"])
    half = (shape[0] // 2) if shape else 0
    return (
        _acc(args["src"], "r", axis=0, lo=lo, hi=hi)
        + _acc(args["src"], "r", axis=0, lo=half + lo, hi=half + hi)
        + _acc(args["out"], "w", axis=0, lo=lo, hi=hi)
    )


def _fp_fri_combine(args: Dict[str, Any]) -> List[Access]:
    lo, hi = int(args["lo"]), int(args["hi"])
    out = _acc(args["out"], "w", axis=0, lo=lo, hi=hi)
    for values in args["values"]:
        out += _acc(values, "r", axis=0, lo=lo, hi=hi)
    return out


def _fp_fri_queries(args: Dict[str, Any]) -> List[Access]:
    # Pure gather over transcript-pinned indices: whole-buffer reads of
    # every batch/layer values matrix and tree arena.
    out: List[Access] = []
    for batch in args["batches"]:
        out += _acc(batch["values"], "r")
        out += _acc(batch["arena"], "r")
    for layer in args["layers"]:
        out += _acc(layer["values"], "r")
        out += _acc(layer["arena"], "r")
    return out


#: Footprint registry: shard ``kind`` -> args -> accesses.  Covers every
#: kernel in :data:`repro.parallel.kernels.KERNELS` (asserted by tests);
#: a kind missing here is reported as ``race.no-footprint``.
FOOTPRINTS: Dict[str, Callable[[Dict[str, Any]], List[Access]]] = {
    "lde_rows": _fp_lde_rows,
    "intt_limb": _fp_intt_limb,
    "merkle_subtree": _fp_merkle_subtree,
    "sumcheck_fold": _fp_sumcheck_fold,
    "fri_combine": _fp_fri_combine,
    "fri_queries": _fp_fri_queries,
}


def footprint(kind: str, args: Dict[str, Any]) -> Optional[List[Access]]:
    """The declared accesses of one shard, or ``None`` for unknown kinds."""
    fn = FOOTPRINTS.get(kind)
    if fn is None:
        return None
    return fn(args)
