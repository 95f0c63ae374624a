"""STARK verifier: the constraint blend at zeta inside the shared tail."""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from .. import tracing
from ..field import extension as fext, goldilocks as gl
from ..field.algebra import ExtAlgebra
from ..hashing import Challenger
from ..pcs.protocol import Proof
from .air import Air
from .protocol import stark
from .prover import constant_coeffs


def verify(
    air: Air,
    n: int,
    publics: Sequence[int],
    proof: Proof,
    config,
    challenger: Challenger | None = None,
) -> None:
    """Verify a STARK proof that an ``n``-row trace satisfies ``air``
    with the statement ``publics``; raises :class:`StarkError` on any
    failure."""
    with tracing.span("verify", category="verify", protocol="stark"):
        stark(air).verify(
            proof, (), publics, config, n, challenger or Challenger(),
            partial(_composition, air, n, publics),
        )


def _composition(
    air: Air,
    n: int,
    publics: Sequence[int],
    at_zeta: Sequence[np.ndarray],
    next_row: np.ndarray,
    zh: np.ndarray,
    alpha: np.ndarray,
    zeta: np.ndarray,
) -> np.ndarray:
    """:meth:`Air.composition` on the opened trace at ``zeta``."""
    omega = gl.primitive_root_of_unity(n.bit_length() - 1)

    def minus(row: int) -> np.ndarray:
        """``zeta - omega^row``."""
        return fext.sub(zeta, fext.from_base(np.uint64(gl.pow_mod(omega, row))))

    # Public constant columns: the verifier evaluates their interpolants
    # at zeta itself (they are public data, never committed).
    consts = [fext.eval_poly_base(c, zeta) for c in constant_coeffs(air.constant_columns(n))]
    return air.composition(
        ExtAlgebra(), alpha, list(at_zeta[0]), list(next_row), consts, publics,
        fext.mul(minus(n - 1), fext.inv(zh)), lambda row: fext.inv(minus(row)),
    )
