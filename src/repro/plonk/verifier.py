"""Plonk verifier: transcript replay and the opening identity at zeta.

The shared tail re-derives every challenge, :func:`_blend` evaluates
the gate/copy constraints (:func:`repro.plonk.protocol.constraints`)
from the *opened* polynomial values at ``zeta`` and blends them over
``Z_H(zeta)``, the tail checks that against ``t(zeta)`` and then
verifies the batch FRI proof that ties the opened values to the
commitments.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from .. import tracing
from ..field import extension as fext, goldilocks as gl
from ..field.algebra import ExtAlgebra, blend
from ..hashing import Challenger
from ..pcs.protocol import Proof
from .permutation import coset_representatives
from .proof import VerifierData
from .protocol import PLONK, constraints


def verify(
    vdata: VerifierData, publics: Sequence[int], proof: Proof, challenger: Challenger | None = None
) -> None:
    """Verify a Plonk proof of the statement ``publics`` (one word a
    public-input row); raises :class:`PlonkError` on any failure."""
    with tracing.span("verify", category="verify", protocol="plonk", n=vdata.n):
        PLONK.verify(
            proof, (vdata.preprocessed_cap,), publics, vdata.config, vdata.n,
            challenger or Challenger(), partial(_blend, vdata, publics),
        )


def _blend(
    vdata: VerifierData,
    publics: Sequence[int],
    at_zeta: Sequence[np.ndarray],
    at_next: np.ndarray,
    zh: np.ndarray,
    beta: int,
    gamma: int,
    alpha: np.ndarray,
    zeta: np.ndarray,
) -> np.ndarray:
    """The gate / copy constraint blend over ``Z_H`` on the opened
    values at ``zeta``."""
    n = vdata.n
    omega, n_inv = gl.primitive_root_of_unity(n.bit_length() - 1), gl.inverse(n)
    pre, wires, (z,), _ = at_zeta
    (z_next,) = at_next

    def lagrange(row: int) -> np.ndarray:
        """``L_row(zeta) = omega^row Z_H(zeta) / (n (zeta - omega^row))``."""
        point = gl.pow_mod(omega, row)
        denom = fext.sub(zeta, fext.from_base(np.uint64(point)))
        return fext.mul(fext.scalar_mul(zh, np.uint64(gl.mul(point, n_inv))), fext.inv(denom))

    pi = fext.zero()
    for row, value in zip(vdata.public_input_rows, publics, strict=True):
        pi = fext.sub(pi, fext.scalar_mul(lagrange(row), np.uint64(value)))
    labels = [fext.scalar_mul(zeta, np.uint64(k)) for k in coset_representatives()]
    alg = ExtAlgebra()
    values = constraints(alg, pre, wires, labels, z, z_next, pi, lagrange(0), beta, gamma)
    zh_inv = fext.inv(zh)
    return blend(alg, alpha, [(v, zh_inv) for v in values])
