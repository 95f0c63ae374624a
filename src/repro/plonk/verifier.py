"""Plonk verifier: transcript replay and the opening identity at zeta.

The shared tail re-derives every challenge, :func:`_check_identity`
evaluates the gate/copy constraint blend from the *opened* polynomial
values at ``zeta`` and checks it against ``Z_H(zeta) * t(zeta)``, and
the tail then verifies the batch FRI proof that ties the opened values
to the commitments.
"""

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
from .permutation import coset_representatives
from .proof import VerifierData
from .protocol import PLONK, PlonkError


def verify(
    vdata: VerifierData, publics: Sequence[int], proof: Proof, challenger: Challenger | None = None
) -> None:
    """Verify a Plonk proof of the statement ``publics`` (one word a
    public-input row); raises :class:`PlonkError` on any failure."""
    with tracing.span("verify", category="verify", protocol="plonk", n=vdata.n):
        PLONK.verify(
            proof, (vdata.preprocessed_cap,), publics, vdata.config, vdata.n,
            challenger or Challenger(), partial(_check_identity, vdata, publics),
        )


def _check_identity(
    vdata: VerifierData,
    publics: Sequence[int],
    openings: FriOpenings,
    beta: int,
    gamma: int,
    alpha: np.ndarray,
    zeta: np.ndarray,
) -> None:
    """The gate / copy constraint identity holds on the opened values
    at ``zeta``."""
    n = vdata.n
    omega = gl.primitive_root_of_unity(n.bit_length() - 1)
    at_zeta, (z_next,) = openings.values
    pre, wire, (z_zeta,), quotient = np.split(at_zeta, np.cumsum(PLONK.widths)[:-1])
    sel, sig = pre[:5], pre[5:]

    # --- the polynomial identity at zeta -------------------------------------
    zeta_n = fext.pow_scalar(zeta.reshape(2), n)
    zh = fext.sub(zeta_n, fext.one())
    if bool(fext.is_zero(zh)):
        raise PlonkError("zeta landed inside the subgroup (reject)")

    # Gate constraint with the public-input polynomial.
    gate = fext.add(
        fext.add(fext.mul(sel[0], wire[0]), fext.mul(sel[1], wire[1])),
        fext.add(
            fext.mul(sel[2], fext.mul(wire[0], wire[1])),
            fext.add(fext.mul(sel[3], wire[2]), sel[4]),
        ),
    )
    pi_eval = fext.zero()
    n_inv = gl.inverse(n)
    for row, value in zip(vdata.public_input_rows, publics, strict=True):
        omega_row = gl.pow_mod(omega, row)
        denom = fext.sub(zeta.reshape(2), fext.from_base(np.uint64(omega_row)))
        lag = fext.mul(
            fext.scalar_mul(zh, np.uint64(gl.mul(omega_row, n_inv))), fext.inv(denom)
        )
        pi_eval = fext.sub(pi_eval, fext.scalar_mul(lag, np.uint64(value)))
    gate = fext.add(gate, pi_eval)

    # Copy constraints.
    ks = coset_representatives()
    f_eval = fext.one()
    g_eval = fext.one()
    beta_u = np.uint64(beta)
    gamma_e = fext.from_base(np.uint64(gamma))
    for j in range(3):
        id_j = fext.scalar_mul(zeta.reshape(2), np.uint64(gl.mul(ks[j], beta)))
        f_eval = fext.mul(f_eval, fext.add(fext.add(wire[j], id_j), gamma_e))
        sig_j = fext.scalar_mul(sig[j], beta_u)
        g_eval = fext.mul(g_eval, fext.add(fext.add(wire[j], sig_j), gamma_e))
    copy1 = fext.sub(fext.mul(z_zeta, f_eval), fext.mul(z_next, g_eval))

    l1_denom = fext.scalar_mul(fext.sub(zeta.reshape(2), fext.one()), np.uint64(n))
    l1 = fext.mul(zh, fext.inv(l1_denom))
    copy2 = fext.mul(l1, fext.sub(z_zeta, fext.one()))

    lhs = fext.add(
        gate,
        fext.add(
            fext.mul(alpha, copy1), fext.mul(fext.mul(alpha, alpha), copy2)
        ),
    )

    t_eval = FriPCS.quotient_at(quotient, zeta_n)
    rhs = fext.mul(zh, t_eval)

    if not np.array_equal(lhs.reshape(2), rhs.reshape(2)):
        raise PlonkError("constraint identity fails at zeta")
