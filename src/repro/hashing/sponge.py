"""Poseidon sponge: hashing, Merkle compression, batched variants.

Follows Plonky2's conventions (paper Section 5.3):

* rate 8, capacity 4 (state width 12);
* *overwrite-mode* absorption ("absorb method"): each 8-element chunk of
  the input replaces ``state[0:8]`` before a permutation -- this is what
  lets UniZK stream long Merkle leaves (e.g. 135 elements -> 17
  permutations) through the VSA;
* digests are 4 field elements (~256 bits);
* two-to-one compression for internal Merkle nodes places the children
  in ``state[0:8]`` and zero-pads, one permutation total.

Everything is batched over a leading axis so Merkle levels hash in one
vectorised sweep.  The ``*_into`` variants drive the whole sweep through
:func:`repro.hashing.optimized.permute_into` on workspace-owned state
buffers, so a full Merkle build allocates nothing per level.
"""

from __future__ import annotations

import numpy as np

from ..context import RUN
from ..field import gl64
from . import optimized
from .constants import WIDTH

#: Sponge rate (elements absorbed/squeezed per permutation).
RATE = 8
#: Capacity (untouched lanes guaranteeing collision resistance).
CAPACITY = WIDTH - RATE
#: Digest length in field elements.
DIGEST_LEN = 4


def permutation_count(input_len: int) -> int:
    """Number of Poseidon permutations to hash ``input_len`` elements.

    Used by both the sponge itself and the hardware cost models.
    """
    if input_len == 0:
        return 1
    return (input_len + RATE - 1) // RATE


def _state_buf(batch: int) -> np.ndarray:
    state = RUN.workspace.temp((batch, WIDTH), "sponge:state")
    state.fill(0)
    return state


def hash_batch(inputs: np.ndarray) -> np.ndarray:
    """Hash a batch of equal-length rows: (B, L) -> (B, DIGEST_LEN).

    Overwrite-mode absorption, one permutation per RATE-element chunk
    (including a final partial chunk).
    """
    inputs = gl64.asarray(inputs, trusted=True)  # canonical by construction
    if inputs.ndim != 2:
        raise ValueError("hash_batch expects a 2-D (batch, length) array")
    out = np.empty((inputs.shape[0], DIGEST_LEN), dtype=np.uint64)
    return hash_batch_into(inputs, out)


def hash_batch_into(inputs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`hash_batch`, writing digests into a caller-provided (B, 4)
    buffer.  The sponge state lives in the workspace arena.

    ``out`` may alias ``inputs``: every read of ``inputs`` completes
    before the single final write to ``out``.
    """
    _absorb([(inputs, out)])
    return out


def _absorb(jobs) -> None:
    """The overwrite-mode sponge over ``(rows, out)`` pairs of any
    widths, in one sweep: absorb step ``k`` permutes the rows of every
    pair needing more than ``k`` permutations
    (:func:`permutation_count`) in one
    :func:`~repro.hashing.optimized.permute_into` call, so a sweep makes
    as many calls as its widest rows need.  Every read of a ``rows``
    completes before any ``out`` is written.
    """
    # Most permutations first, so the rows still absorbing are a prefix.
    jobs = sorted(jobs, key=lambda job: -permutation_count(job[0].shape[1]))
    state = _state_buf(sum(rows.shape[0] for rows, _ in jobs))
    for step in range(permutation_count(jobs[0][0].shape[1])):
        active = 0
        for rows, _ in jobs:
            if permutation_count(rows.shape[1]) <= step:
                break
            block = rows[:, step * RATE : (step + 1) * RATE]
            state[active : active + rows.shape[0], : block.shape[1]] = block
            active += rows.shape[0]
        RUN.counters.sponge_permutations += active
        optimized.permute_into(state[:active])
    active = 0
    for rows, out in jobs:
        np.copyto(out, state[active : active + rows.shape[0], :DIGEST_LEN])
        active += rows.shape[0]


def compress_level_into(prev: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One fused Merkle level: (2k, 4) digests -> (k, 4) parents.

    Two-to-one compression: each parent is the permutation of its two
    children placed in ``state[0:8]`` over a zero capacity.  Both
    children go straight into the workspace state buffer and the parents
    into ``out`` (normally a view of the tree's level-order arena) -- no
    temporaries besides the shared sponge state.

    ``out`` may alias ``prev``: both children are copied into the
    workspace state before ``out`` is written.
    """
    half = prev.shape[0] // 2
    state = _state_buf(half)
    state[:, :DIGEST_LEN] = prev[0::2]
    state[:, DIGEST_LEN : 2 * DIGEST_LEN] = prev[1::2]
    RUN.counters.sponge_permutations += half
    optimized.permute_into(state)
    np.copyto(out, state[:, :DIGEST_LEN])
    return out


def hash_leaves_into(values, out: np.ndarray) -> np.ndarray:
    """Plonky2-style leaf hashing (``hash_or_noop``) into ``out``: rows
    shorter than a digest are zero-padded into the digest directly (no
    permutation); longer rows are hashed as :func:`hash_batch_into`
    hashes them.

    ``values`` is one ``(B, L)`` array of rows, or a sequence of such
    groups, each of its own width; their digests fill ``out`` group
    after group.  All longer groups share one sponge sweep, so absorb
    step ``k`` of every group longer than ``RATE * k`` runs in one
    permutation call.  Digests and counted permutations are those of
    hashing each group alone.

    ``out`` must not alias ``values``: the short-row path zero-fills
    ``out`` before reading ``values``.
    """
    groups = list(values) if isinstance(values, (list, tuple)) else [values]
    jobs = []
    start = 0
    for group in groups:
        group = np.atleast_2d(np.asarray(group, dtype=np.uint64))
        count, length = group.shape
        digests = out[start : start + count]
        start += count
        if length <= DIGEST_LEN:
            digests.fill(0)
            digests[:, :length] = group
        elif count:
            jobs.append((group, digests))
    if jobs:
        _absorb(jobs)
    return out
