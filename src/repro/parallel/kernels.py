"""Shard kernels: the work units every prover stage is made of.

Each kernel takes one picklable ``args`` dict whose array-valued
entries are either :class:`~repro.parallel.shm.ShmRef` handles (the
shared-memory transport: the arrays live in segments a worker process
attaches) or plain ndarrays (the local transport: the graph runs inline
in the coordinator); :func:`repro.parallel.shm.resolve` makes both look
the same.

Every kernel is the *row-range restriction* of one prover computation
that hashes, transforms or does arithmetic: iNTT/LDE rows, Merkle
leaf/compress ranges, FRI combine rows and sumcheck fold rows are all
independent, so any split produces bit-identical field elements,
digests and operation counters (the counters charge per row/leaf, so
disjoint ranges sum to exactly the one-shard totals).  The arithmetic
itself lives with its protocol (:func:`repro.merkle.tree.build_subtree`,
:func:`repro.fri.prover.combine_rows`, :func:`repro.sumcheck.fold_table`);
the kernels only restrict it to a range.  Kernels write their outputs
into disjoint regions of shared buffers and return nothing, keeping IPC
off the data path.

Imports from the proving modules happen lazily inside the kernels:
those modules import :mod:`repro.parallel` to reach the active pool,
and the lazy imports break the cycle.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

import numpy as np

from .shm import resolve


def lde_commit_rows(args: Dict[str, Any]):
    """LDE a row range of one batch into the shared values matrix.

    Modes select where the coefficient rows come from:

    * ``intt``   -- rows are subgroup evaluations in ``src``; iNTT them
      and store the coefficients into ``coeffs_out`` first;
    * ``chunks`` -- rows are degree-``n`` slices of per-limb quotient
      coefficients in ``src`` (shape ``(2, 2**bits * n)``), gathered
      into ``coeffs_out`` first.

    Then every row is low-degree-extended and transposed into columns
    ``[lo, hi)`` of ``values_out`` (shape ``(n_lde, k)``).  Rows are
    independent under both transforms, so any row split is bit-exact.
    """
    from ..ntt import intt, lde_coeffs

    lo, hi = int(args["lo"]), int(args["hi"])
    coeffs_out = resolve(args["coeffs_out"])
    values_out = resolve(args["values_out"])
    mode = args["mode"]
    if mode == "intt":
        src = resolve(args["src"])
        intt(np.ascontiguousarray(src[lo:hi]), out=coeffs_out[lo:hi])
    elif mode == "chunks":
        n, chunks = int(args["n"]), int(args["chunks"])
        # Row r is chunk r % chunks of limb r // chunks.
        rows = resolve(args["src"]).reshape(2, -1, n)[:, :chunks].reshape(2 * chunks, n)
        np.copyto(coeffs_out[lo:hi], rows[lo:hi])
    else:
        raise ValueError(f"unknown lde_commit_rows mode {mode!r}")
    rows = np.ascontiguousarray(coeffs_out[lo:hi])
    ldes = lde_coeffs(rows, int(args["rate_bits"]))
    values_out[:, lo:hi] = ldes.T
    return None


def coset_intt_limb(args: Dict[str, Any]):
    """Coset-iNTT one extension limb of the quotient evaluation.

    Reads column ``limb`` of the ``(2**bits * n, 2)`` extension values
    in ``src`` and writes the coefficient row ``out[limb]``.
    """
    from ..ntt import coset_intt

    src = resolve(args["src"])
    out = resolve(args["out"])
    limb = int(args["limb"])
    coset_intt(np.ascontiguousarray(src[:, limb]), out=out[limb])
    return None


def merkle_subtree(args: Dict[str, Any]):
    """Hash one aligned leaf range and compress its subtree levels.

    The ``[start, start + count)`` restriction of
    :func:`repro.merkle.tree.build_subtree`.  With ``leaves`` the
    subtree starts from rows of the leaf matrix; without, from the
    already-filled rows of level ``base`` -- the cap climb over the row
    of subtree roots that finishes a tree split across several shards.
    With ``rows`` as well, the range's coset leaves are first gathered
    from those natural-order rows into ``leaves``
    (:func:`repro.merkle.tree.gather_cosets`).
    """
    from ..merkle.tree import build_subtree, gather_cosets, level_views

    levels = level_views(resolve(args["arena"]), args["sizes"])
    start, count = int(args["start"]), int(args["count"])
    leaves = args.get("leaves")
    if leaves is not None:
        leaves = resolve(leaves)[start : start + count]
        if "rows" in args:
            gather_cosets(resolve(args["rows"]), leaves, start)
    build_subtree(levels, start, count, leaves, int(args.get("base", 0)))
    return None


def sumcheck_fold_range(args: Dict[str, Any]):
    """Fold rows ``[lo, hi)`` of one sumcheck round into ``out``.

    A row-range restriction of :func:`repro.sumcheck.fold_table`:
    output row ``j`` depends only on source rows ``j`` and
    ``j + half``, so a shard reads the aligned pair of source ranges
    and writes its own disjoint output range.  The fold is pure
    ``gl64`` element-wise arithmetic (never counted by the op
    counters), so the split perturbs neither digests nor counter
    goldens.
    """
    from ..sumcheck import fold_table

    src = resolve(args["src"])
    out = resolve(args["out"])
    lo, hi = int(args["lo"]), int(args["hi"])
    half = src.shape[0] // 2
    block = np.concatenate([src[lo:hi], src[half + lo : half + hi]])
    out[lo:hi] = fold_table(block, int(args["r"]))
    return None


def fri_combine_range(args: Dict[str, Any]):
    """Rows ``[lo, hi)`` of the combined FRI quotient values.

    The row-range restriction of
    :func:`repro.fri.prover.combine_rows`: every operation there is
    element-wise over the LDE domain (the alpha-power ladder is a pure
    scalar recurrence replayed identically in each shard), so disjoint
    row ranges compose to the bit-identical full array.
    """
    from ..fri.prover import combine_rows, lde_points

    lo, hi = int(args["lo"]), int(args["hi"])
    values = [resolve(r)[lo:hi] for r in args["values"]]
    xs = lde_points(resolve(args["values"][0]).shape[0].bit_length() - 1)[lo:hi]
    resolve(args["out"])[lo:hi] = combine_rows(
        values, xs, args["openings"], args["alpha"]
    )
    return None


#: Kernel registry: shard ``kind`` -> callable.
KERNELS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "lde_rows": lde_commit_rows,
    "intt_limb": coset_intt_limb,
    "merkle_subtree": merkle_subtree,
    "sumcheck_fold": sumcheck_fold_range,
    "fri_combine": fri_combine_range,
}


def run_kernel(kind: str, args: Dict[str, Any]):
    """Dispatch one shard to its kernel (raises ``KeyError`` on unknown)."""
    return KERNELS[kind](args)
