"""Starky-style STARK prover.

Same FRI machinery as Plonk but with AET arithmetisation (paper
Section 2.2): commit the trace columns, blend all transition and
boundary constraints with ``alpha`` powers, divide each by its vanishing
divisor on the smallest coset of the LDE that holds the quotient
(:meth:`repro.pcs.FriPCS.quotient_shape`), commit the composition
quotient, and open everything at ``zeta`` / ``zeta * omega``.

Starky runs with blowup 2 (``rate_bits = 1``), which is what makes its
base proofs so much cheaper than Plonky2's (Table 5) at the cost of
larger proofs.

The commit / quotient / open data plane is :class:`repro.pcs.FriPCS`
(shared with the Plonk prover) and the transcript and opening layout are
the declared :func:`repro.stark.protocol.stark`; this module defines the
STARK-specific stage: the constraint blend over that coset.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .. import parallel, tracing
from ..field import gl64, goldilocks as gl
from ..field.algebra import BaseVecAlgebra
from ..fri import FriConfig, fri_layout
from ..fri.prover import lde_points, vanishing_inverse
from ..hashing import Challenger
from ..ntt import intt, lde_coeffs
from ..pcs import FriPCS
from ..pcs.protocol import Proof
from .air import Air
from .protocol import stark


@lru_cache(maxsize=16)
def transition_divisor_inverse(n: int, rate_bits: int) -> np.ndarray:
    """Read-only cached ``(x - omega^(n-1)) / Z_H(x)`` over the
    size-``n << rate_bits`` coset: the inverse of the transition
    constraints' divisor."""
    log_n = n.bit_length() - 1
    last = np.uint64(gl.pow_mod(gl.primitive_root_of_unity(log_n), n - 1))
    table = gl64.mul(
        vanishing_inverse(n, rate_bits), gl64.sub(lde_points(log_n + rate_bits), last)
    )
    gl64.freeze(table)
    return table


@lru_cache(maxsize=64)
def boundary_inverse(n: int, rate_bits: int, row: int) -> np.ndarray:
    """Read-only cached ``1 / (x - omega^row)`` over the
    size-``n << rate_bits`` coset, for ``row`` in ``[0, n)``."""
    log_n = n.bit_length() - 1
    point = np.uint64(gl.pow_mod(gl.primitive_root_of_unity(log_n), row))
    table = gl64.inv_fast(gl64.sub(lde_points(log_n + rate_bits), point))
    gl64.freeze(table)
    return table


def constant_coeffs(cols: np.ndarray) -> np.ndarray:
    """Read-only cached coefficients of public constant columns over
    their subgroup, keyed by content: the prover extends them, the
    verifier evaluates them at ``zeta``."""
    return _constant_coeffs(cols.tobytes(), cols.shape)


@lru_cache(maxsize=8)
def _constant_coeffs(content: bytes, shape: Tuple[int, int]) -> np.ndarray:
    table = intt(np.frombuffer(content, dtype=np.uint64).reshape(shape))
    gl64.freeze(table)
    return table


def constant_ldes(cols: np.ndarray, rate_bits: int) -> np.ndarray:
    """Read-only cached LDE of public constant columns, keyed by content."""
    return _constant_ldes(cols.tobytes(), cols.shape, rate_bits)


@lru_cache(maxsize=8)
def _constant_ldes(content: bytes, shape: Tuple[int, int], rate_bits: int) -> np.ndarray:
    table = lde_coeffs(_constant_coeffs(content, shape), rate_bits)
    gl64.freeze(table)
    return table


def prove(
    air: Air,
    trace: np.ndarray,
    public_inputs: Sequence[int],
    config: FriConfig,
    challenger: Challenger | None = None,
    pool: "parallel.ShardPool | None" = None,
) -> Proof:
    """Prove that ``trace`` satisfies ``air`` with the statement
    ``public_inputs`` (trace and statement canonical words, else
    ``ValueError``).

    ``trace`` is (n, width) with ``n`` a power of two.  The per-shape
    tables are the cached functions above, built on a shape's first
    prove, and every scratch and stage buffer comes from
    ``RUN.workspace``.

    ``pool`` scopes a :class:`~repro.parallel.ShardPool` over the proof
    (``None`` inherits :func:`repro.parallel.current_pool`): every
    commit/FRI stage is a shard graph it runs, in this process with one
    worker or fanned out across several.  Proofs are bit-identical at
    every worker count.
    """
    if not gl64.all_canonical(trace):
        raise ValueError("trace word is not a canonical field element")
    if not gl64.all_canonical(public_inputs):
        raise ValueError("public input is not a canonical field element")
    trace = gl64.asarray(trace, trusted=True)
    n, width = trace.shape
    if n & (n - 1):
        raise ValueError("trace length must be a power of two")
    if width != air.width:
        raise ValueError("trace width does not match the AIR")
    chunks, bits = FriPCS.quotient_shape(air.constraint_degree)
    config.check_quotient_fits(chunks)
    challenger = challenger or Challenger()
    # The blend is evaluated on every 2^(rate_bits - bits)-th LDE point.
    stride = 1 << (config.rate_bits - bits)
    n_q = n << bits

    with parallel.sharding(pool), tracing.span(
        "prove:stark", category="prove", n=n, width=width
    ):
        pcs = FriPCS(config)
        protocol = stark(air)
        coset_bits, _ = fri_layout(config, n.bit_length() - 1, protocol.widths)

        # Commit the trace.
        commit = protocol.start(challenger, (), public_inputs)
        trace_batch = pcs.commit_values(trace.T, "trace", coset_bits)
        (alpha,) = commit("trace", trace_batch.cap)

        # Constraint evaluations on the quotient's coset.
        with tracing.span("constraints", category="quotient"):
            locals_ = [trace_batch.values[::stride, c] for c in range(width)]
            nexts = [np.roll(col, -(1 << bits)) for col in locals_]
            # Public constant columns (periodic-style): LDE without commitment.
            consts = list(constant_ldes(air.constant_columns(n), bits))
            quotient = air.composition(
                BaseVecAlgebra(n_q), alpha, locals_, nexts, consts, public_inputs,
                transition_divisor_inverse(n, bits),
                lambda row: boundary_inverse(n, bits, row % n),
            )

        return protocol.finish(pcs, commit, quotient, n, challenger)
