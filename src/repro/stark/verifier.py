"""STARK verifier: the constraint identity at zeta inside the shared tail."""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from .. import tracing
from ..field import extension as fext, goldilocks as gl
from ..fri import FriOpenings
from ..hashing import Challenger
from ..pcs import FriPCS
from ..pcs.protocol import Proof
from .air import Air, ExtAlgebra
from .protocol import StarkError, stark


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
            partial(_check_identity, air, n, publics),
        )


def _check_identity(
    air: Air,
    n: int,
    publics: Sequence[int],
    openings: FriOpenings,
    alpha: np.ndarray,
    zeta: np.ndarray,
) -> None:
    """The constraint identity holds on the opened values at ``zeta``."""
    omega = gl.primitive_root_of_unity(n.bit_length() - 1)
    width = air.width
    vals0, vals1 = openings.values
    local = [vals0[c] for c in range(width)]
    next_row = [vals1[c] for c in range(width)]

    zeta_n = fext.pow_scalar(zeta.reshape(2), n)
    zh = fext.sub(zeta_n, fext.one())
    if bool(fext.is_zero(zh)):
        raise StarkError("zeta landed inside the subgroup (reject)")

    # Recompute the composition value at zeta.
    alg = ExtAlgebra()
    last_point = gl.pow_mod(omega, n - 1)
    # transition divisor inverse at zeta: (zeta - w^(n-1)) / Z_H(zeta)
    trans_div_inv = fext.mul(
        fext.sub(zeta.reshape(2), fext.from_base(np.uint64(last_point))),
        fext.inv(zh),
    )
    # Public constant columns: the verifier evaluates their interpolants
    # at zeta itself (they are public data, never committed).
    const_cols = air.constant_columns(n)
    consts = []
    if const_cols.shape[0]:
        from ..ntt import intt

        coeffs = intt(const_cols)
        consts = [
            fext.eval_poly_base(coeffs[k], zeta.reshape(2))
            for k in range(const_cols.shape[0])
        ]
    total = fext.zero()
    alpha_t = fext.one()
    for con in air.eval_transition_with_constants(local, next_row, consts, alg):
        total = fext.add(total, fext.mul(alpha_t, fext.mul(con, trans_div_inv)))
        alpha_t = fext.mul(alpha_t, alpha.reshape(2))
    for bc in air.boundary_constraints(publics):
        point = gl.pow_mod(omega, bc.row)
        numer = fext.sub(local[bc.column], fext.from_base(np.uint64(gl.canonical(bc.value))))
        div_inv = fext.inv(fext.sub(zeta.reshape(2), fext.from_base(np.uint64(point))))
        total = fext.add(total, fext.mul(alpha_t, fext.mul(numer, div_inv)))
        alpha_t = fext.mul(alpha_t, alpha.reshape(2))

    # Reassemble the committed composition at zeta.
    t_eval = FriPCS.quotient_at(vals0[width:], zeta_n)

    if not np.array_equal(total.reshape(2), t_eval.reshape(2)):
        raise StarkError("constraint identity fails at zeta")
