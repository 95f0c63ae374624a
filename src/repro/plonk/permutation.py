"""The Plonk permutation argument (copy constraints).

Implements Figure 1's copy-constraint machinery:

* ``id`` values ``k_j * omega^i`` label the 3n wire positions with
  distinct field elements (columns use coset representatives
  ``k_j = g**j`` so the three labelled sets never collide);
* ``sigma`` polynomials carry the copy-constraint permutation;
* the running product ``Z`` with
  ``Z(w^(i+1)) = Z(w^i) * f(w^i) / g(w^i)`` certifies ``f == g`` as
  multisets, where ``f``/``g`` blend wires with ``id``/``sigma`` under
  the verifier randomness ``beta``, ``gamma``
  (:func:`repro.plonk.protocol.copy_product`).

``Z`` is computed through the paper's *partial products* kernel
(Equations (1) and (2)): the quotients ``q[i] = f[i]/g[i]`` are grouped
into 8-element chunk products ``h``, whose prefix products give ``Z`` --
the exact computation UniZK maps with its three-step group scheme
(Figure 6).  A direct cumulative product cross-checks it in the tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..field import gl64, goldilocks as gl
from ..field.algebra import BaseVecAlgebra
from .circuit import NUM_WIRES, Circuit
from .protocol import copy_product

#: Chunk size of the quotient partial products (paper Equation (1)).
CHUNK_SIZE = 8


def coset_representatives() -> list[int]:
    """The ``k_j`` column labels: powers of the group generator."""
    g = gl.multiplicative_generator()
    return [gl.pow_mod(g, j) for j in range(NUM_WIRES)]


def id_values(n: int) -> np.ndarray:
    """The (3, n) matrix of position labels ``k_j * omega^i``."""
    omega = gl.primitive_root_of_unity(n.bit_length() - 1)
    base = gl64.powers(omega, n)
    ks = coset_representatives()
    return np.stack([gl64.mul(base, np.uint64(k)) for k in ks])


def sigma_values(circuit: Circuit, ids: np.ndarray | None = None) -> np.ndarray:
    """The (3, n) matrix of permuted labels ``sigma_j(omega^i)``
    (``ids`` = a precomputed :func:`id_values` of the circuit's size)."""
    n = circuit.n
    ids = id_values(n) if ids is None else ids
    permuted = ids.reshape(-1)[circuit.sigma]  # column-major position -> label
    return permuted.reshape(NUM_WIRES, n)


def quotient_chunk_products(quotients: np.ndarray, chunk: int = CHUNK_SIZE) -> np.ndarray:
    """Equation (1): ``h[i] = prod of each ``chunk``-slice of q``."""
    n = quotients.shape[0]
    if n % chunk:
        raise ValueError("row count must be a multiple of the chunk size")
    chunks = quotients.reshape(n // chunk, chunk)
    out = chunks[:, 0]
    for j in range(1, chunk):
        out = gl64.mul(out, chunks[:, j])
    return out


def partial_products(h: np.ndarray) -> np.ndarray:
    """Equation (2): prefix products ``PP[i] = PP[i-1] * h[i]``.

    Sequential in nature -- this is the dependency chain UniZK breaks
    with its three-step group mapping (cycle-modelled in
    :mod:`repro.mapping.poly_mapping`).
    """
    out = np.empty_like(h)
    acc = 1
    for i, v in enumerate(h.tolist()):
        acc = gl.mul(acc, v)
        out[i] = acc
    return out


def compute_z(
    wires: np.ndarray,
    ids: np.ndarray,
    sigmas: np.ndarray,
    beta: int,
    gamma: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The permutation accumulator ``Z`` over the subgroup.

    Returns ``(z, f, g)`` where ``z[0] = 1`` and
    ``z[i] = prod_{t<i} f[t]/g[t]`` -- computed via the chunked
    partial-product kernel plus an intra-chunk sweep, exactly the
    dataflow of paper Section 5.4.
    """
    n = wires.shape[1]
    chunk = CHUNK_SIZE if n % CHUNK_SIZE == 0 else n
    alg = BaseVecAlgebra(n)
    f = copy_product(alg, wires, ids, beta, gamma)
    g = copy_product(alg, wires, sigmas, beta, gamma)
    quotients = gl64.mul(f, gl64.inv_fast(g))
    # Prefix products of all quotients: chunk, three-step, then stitch.
    h = quotient_chunk_products(quotients, chunk)
    pp = partial_products(h)
    # Expand back: running product inside each chunk, scaled by PP of the
    # previous chunk.
    chunks = quotients.reshape(n // chunk, chunk)
    intra = chunks.copy()
    for j in range(1, chunk):
        intra[:, j] = gl64.mul(intra[:, j - 1], chunks[:, j])
    scale = np.concatenate([np.ones(1, dtype=np.uint64), pp[:-1]])
    run = gl64.mul(intra, scale[:, None]).reshape(n)
    z = np.concatenate([np.ones(1, dtype=np.uint64), run[:-1]])
    return z, f, g


def check_copy_constraints(circuit: Circuit, witness: np.ndarray) -> bool:
    """Directly verify that permuted positions carry equal values."""
    wires = circuit.wire_values(witness).reshape(-1)
    return bool(np.array_equal(wires, wires[circuit.sigma]))
