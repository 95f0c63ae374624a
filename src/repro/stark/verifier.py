"""STARK verifier: transcript replay, constraint identity at zeta, FRI."""

from __future__ import annotations

import numpy as np

from .. import tracing
from ..errors import VerifierError
from ..field import extension as fext, gl64, goldilocks as gl
from ..fri import fri_verify
from ..fri.verifier import FriError, proof_words
from ..hashing import Challenger
from ..pcs import FriPCS
from .air import Air, ExtAlgebra
from .proof import StarkProof
from .prover import leaf_widths, quotient_chunk_count


class StarkError(VerifierError):
    """Raised when a STARK proof fails verification."""


def verify(
    air: Air,
    proof: StarkProof,
    config,
    challenger: Challenger | None = None,
) -> None:
    """Verify a STARK proof; raises :class:`StarkError` on any failure."""
    with tracing.span("verify", category="verify", protocol="stark"):
        _verify(air, proof, config, challenger or Challenger())


def _verify(air: Air, proof: StarkProof, config, challenger: Challenger) -> None:
    # Bound the claimed degree before ``1 << degree_bits`` can build a
    # multi-gigabyte integer from a hostile 32-bit value.
    if not 0 < proof.degree_bits <= gl.TWO_ADICITY:
        raise StarkError("degree bits out of range")
    if not gl64.all_canonical(
        proof.public_inputs,
        proof.trace_cap,
        proof.quotient_cap,
        *proof_words(proof.openings, proof.fri_proof),
    ):
        raise StarkError("proof word is not a canonical field element")
    n = 1 << proof.degree_bits
    chunks = quotient_chunk_count(air)

    with tracing.span("verify:transcript", category="verify"):
        challenger.observe_elements(np.asarray(proof.public_inputs, dtype=np.uint64))
        challenger.observe_cap(proof.trace_cap)
        alpha = challenger.get_ext_challenge()
        challenger.observe_cap(proof.quotient_cap)
        zeta = challenger.get_ext_challenge()

    with tracing.span("verify:identity", category="verify"):
        _check_identity(air, proof, n, chunks, alpha, zeta)

    try:
        fri_verify(
            [proof.trace_cap, proof.quotient_cap],
            proof.openings,
            proof.fri_proof,
            challenger,
            config,
            n,
            leaf_widths=leaf_widths(air),
        )
    except FriError as exc:
        raise StarkError(f"FRI verification failed: {exc}") from exc


def _check_identity(
    air: Air, proof: StarkProof, n: int, chunks: int, alpha: np.ndarray, zeta: np.ndarray
) -> None:
    """The opening set is the transcript's, and the constraint identity
    holds on the opened values at ``zeta``."""
    width = air.width
    omega = gl.primitive_root_of_unity(proof.degree_bits)
    zeta_next = fext.scalar_mul(zeta, np.uint64(omega))

    op = proof.openings
    expected_cols_zeta = [(0, c) for c in range(width)] + [
        (1, c) for c in range(2 * chunks)
    ]
    expected_cols_next = [(0, c) for c in range(width)]
    if len(op.points) != 2 or len(op.columns) != 2 or len(op.values) != 2:
        raise StarkError("malformed opening set (points)")
    if op.points[0].size != 2 or op.points[1].size != 2:
        raise StarkError("malformed opening set (points)")
    if not (
        np.array_equal(op.points[0].reshape(2), zeta.reshape(2))
        and np.array_equal(op.points[1].reshape(2), zeta_next.reshape(2))
    ):
        raise StarkError("openings are not at the transcript's zeta")
    if op.columns[0] != expected_cols_zeta or op.columns[1] != expected_cols_next:
        raise StarkError("malformed opening set (columns)")

    vals0 = np.atleast_2d(op.values[0])
    vals1 = np.atleast_2d(op.values[1])
    if vals0.shape != (len(expected_cols_zeta), 2) or vals1.shape != (
        len(expected_cols_next),
        2,
    ):
        raise StarkError("malformed opening set (values)")
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
    for bc in air.boundary_constraints(proof.public_inputs):
        point = gl.pow_mod(omega, bc.row)
        numer = fext.sub(local[bc.column], fext.from_base(np.uint64(gl.canonical(bc.value))))
        div_inv = fext.inv(fext.sub(zeta.reshape(2), fext.from_base(np.uint64(point))))
        total = fext.add(total, fext.mul(alpha_t, fext.mul(numer, div_inv)))
        alpha_t = fext.mul(alpha_t, alpha.reshape(2))

    # Reassemble the committed composition at zeta.
    t_eval = FriPCS.quotient_at(vals0[width : width + 2 * chunks], zeta_n)

    if not np.array_equal(total.reshape(2), t_eval.reshape(2)):
        raise StarkError("constraint identity fails at zeta")
