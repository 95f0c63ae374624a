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

from ..field import gl64
from ..metrics import GLOBAL as _METRICS
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


def _state_buf(batch: int, ws: gl64.Workspace) -> np.ndarray:
    state = ws.temp((batch, WIDTH), "sponge:state")
    state.fill(0)
    return state


def hash_batch(inputs: np.ndarray, ws: gl64.Workspace | None = None) -> np.ndarray:
    """Hash a batch of equal-length rows: (B, L) -> (B, DIGEST_LEN).

    Overwrite-mode absorption, one permutation per RATE-element chunk
    (including a final partial chunk).
    """
    inputs = gl64.asarray(inputs, trusted=True)  # canonical by construction
    if inputs.ndim != 2:
        raise ValueError("hash_batch expects a 2-D (batch, length) array")
    out = np.empty((inputs.shape[0], DIGEST_LEN), dtype=np.uint64)
    return hash_batch_into(inputs, out, ws)


def hash_batch_into(
    inputs: np.ndarray, out: np.ndarray, ws: gl64.Workspace | None = None
) -> np.ndarray:
    """:func:`hash_batch`, writing digests into a caller-provided (B, 4)
    buffer.  The sponge state lives in the workspace arena.

    ``out`` may alias ``inputs``: every read of ``inputs`` completes
    before the single final write to ``out``.
    """
    ws = ws or gl64.default_workspace()
    batch, length = inputs.shape
    state = _state_buf(batch, ws)
    if length == 0:
        _METRICS.sponge_permutations += batch
        optimized.permute_into(state, ws)
        np.copyto(out, state[:, :DIGEST_LEN])
        return out
    for start in range(0, length, RATE):
        chunk = inputs[:, start : start + RATE]
        state[:, : chunk.shape[1]] = chunk
        _METRICS.sponge_permutations += batch
        optimized.permute_into(state, ws)
    np.copyto(out, state[:, :DIGEST_LEN])
    return out


def compress_level_into(
    prev: np.ndarray, out: np.ndarray, ws: gl64.Workspace | None = None
) -> np.ndarray:
    """One fused Merkle level: (2k, 4) digests -> (k, 4) parents.

    Two-to-one compression: each parent is the permutation of its two
    children placed in ``state[0:8]`` over a zero capacity.  Both
    children go straight into the workspace state buffer and the parents
    into ``out`` (normally a view of the tree's level-order arena) -- no
    temporaries besides the shared sponge state.

    ``out`` may alias ``prev``: both children are copied into the
    workspace state before ``out`` is written.
    """
    ws = ws or gl64.default_workspace()
    half = prev.shape[0] // 2
    state = _state_buf(half, ws)
    state[:, :DIGEST_LEN] = prev[0::2]
    state[:, DIGEST_LEN : 2 * DIGEST_LEN] = prev[1::2]
    _METRICS.sponge_permutations += half
    optimized.permute_into(state, ws)
    np.copyto(out, state[:, :DIGEST_LEN])
    return out


def hash_leaves_into(
    values: np.ndarray, out: np.ndarray, ws: gl64.Workspace | None = None
) -> np.ndarray:
    """Plonky2-style leaf hashing (``hash_or_noop``) into ``out``: rows
    shorter than a digest are zero-padded into the digest directly (no
    permutation); longer rows are hashed with :func:`hash_batch_into`.

    ``out`` must not alias ``values``: the short-row path zero-fills
    ``out`` before reading ``values``.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.uint64))
    length = values.shape[1]
    if length <= DIGEST_LEN:
        out.fill(0)
        out[:, :length] = values
        return out
    return hash_batch_into(values, out, ws)
