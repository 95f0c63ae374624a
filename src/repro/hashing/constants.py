"""Deterministic Poseidon parameter generation.

Round constants are derived from SHA-256 in counter mode with a fixed
seed string ("nothing up my sleeve"), rejection-sampled into the field.
The MDS matrix uses the Cauchy construction, which is MDS by
construction (:func:`repro.field.matrix.cauchy_mds`).

We keep Plonky2's *shape* exactly -- width 12, ``x**7`` S-box, 8 full
rounds and 22 partial rounds (Algorithm 1 of the paper) -- but not its
bit-identical constants: the reproduction targets the computation
structure and cost, and the constants only need to be valid field
elements with no algebraic structure.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

from ..field import goldilocks as gl, matrix as fm

#: Poseidon state width in field elements (matches the 12x12 VSA).
WIDTH = 12
#: Number of full rounds (split 4 + 4 around the partial rounds).
FULL_ROUNDS = 8
#: Number of partial rounds.
PARTIAL_ROUNDS = 22
#: S-box exponent; ``gcd(7, p - 1) = 1`` so ``x**7`` is a permutation.
SBOX_EXPONENT = 7

_SEED = b"unizk-repro-poseidon-v1"


def _constant_stream(count: int) -> list[int]:
    """Derive ``count`` field elements from the seeded SHA-256 stream."""
    out: list[int] = []
    counter = 0
    while len(out) < count:
        digest = hashlib.sha256(_SEED + counter.to_bytes(8, "little")).digest()
        counter += 1
        for off in range(0, 32, 8):
            candidate = int.from_bytes(digest[off : off + 8], "little")
            if candidate < gl.P:
                out.append(candidate)
                if len(out) == count:
                    break
    return out


@lru_cache(maxsize=1)
def round_constants() -> tuple[np.ndarray, np.ndarray]:
    """Return ``(full_rc, partial_rc)``.

    ``full_rc`` has shape (FULL_ROUNDS, WIDTH): the per-lane constants of
    each full round.  ``partial_rc`` has shape (PARTIAL_ROUNDS, WIDTH):
    the *naive* per-lane constants of each partial round, added before
    the lane-0 S-box (the optimised equivalents are derived in
    :mod:`repro.hashing.optimized` and :mod:`repro.hashing.sparse`).
    """
    total = (FULL_ROUNDS + PARTIAL_ROUNDS) * WIDTH
    stream = _constant_stream(total)
    arr = np.array(stream, dtype=np.uint64).reshape(FULL_ROUNDS + PARTIAL_ROUNDS, WIDTH)
    return arr[:FULL_ROUNDS].copy(), arr[FULL_ROUNDS:].copy()


@lru_cache(maxsize=1)
def mds_matrix() -> np.ndarray:
    """The WIDTH x WIDTH MDS diffusion matrix (Cauchy construction)."""
    return fm.cauchy_mds(WIDTH)
