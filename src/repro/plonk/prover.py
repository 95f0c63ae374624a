"""Plonk prover (paper Figure 1, left-to-right).

Pipeline -- each stage is one of the kernels UniZK accelerates:

1. wires commitment: ``iNTT`` + LDE ``NTT`` + Merkle tree (Figure 7's
   *Wires Commitment* node);
2. Fiat-Shamir ``beta``/``gamma`` + permutation accumulator ``Z`` via the
   chunked partial-product kernel;
3. ``alpha`` + quotient construction: vanishing-divided constraint blend
   evaluated on the smallest coset of the LDE that holds the quotient
   (element-wise polynomial ops);
4. ``zeta`` + batch FRI opening proof.

The commit / quotient / open data plane is :class:`repro.pcs.FriPCS`
(shared with the STARK prover) and the transcript and opening layout
are the declared :data:`repro.plonk.protocol.PLONK`; this module
defines the Plonk-specific stages: witness generation, the permutation
accumulator, and the gate/copy constraint blend.  Per-shape tables are cached
functions of the shape, built on its first prove, and every buffer
comes from the thread's one arena, so repeated proofs of one circuit
shape -- the service path -- pay no per-proof precompute.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Dict

import numpy as np

from .. import parallel, tracing
from ..context import RUN
from ..field import gl64, goldilocks as gl
from ..field.algebra import BaseVecAlgebra, blend
from ..fri import FriConfig, PolynomialBatch, fri_layout
from ..fri.prover import lde_points, vanishing_inverse
from ..hashing import Challenger
from ..ntt import lde
from ..pcs import FriPCS
from ..pcs.protocol import Proof
from .circuit import NUM_WIRES, Circuit
from .permutation import compute_z, coset_representatives, id_values, sigma_values
from .proof import CircuitData
from .protocol import CONSTRAINT_DEGREE, PLONK, ZK_SALT_COLUMNS, constraints


def setup(circuit: Circuit, config: FriConfig) -> CircuitData:
    """Preprocess a circuit: commit selectors and sigma polynomials."""
    return bind(preprocess(circuit, config.rate_bits, preprocessed_layout(circuit, config)), config)


def preprocessed_layout(circuit: Circuit, config: FriConfig) -> int:
    """The preprocessed batch's leaf layout (``coset_bits``) under ``config``."""
    return fri_layout(config, circuit.log_n, PLONK.widths)[0]


def preprocess(circuit: Circuit, rate_bits: int, coset_bits: int) -> CircuitData:
    """The part of :func:`setup` that reads only ``rate_bits`` and the
    leaf layout, all of it read-only.

    The batch is committed to its root (cap height 0), so :func:`bind`
    cuts it at any config's cap without hashing.
    """
    ids = id_values(circuit.n)
    sigmas = sigma_values(circuit, ids)
    pre_rows = np.concatenate([circuit.selectors, sigmas])
    batch = PolynomialBatch.from_values(pre_rows, rate_bits, 0, coset_bits=coset_bits)
    gl64.freeze(ids, sigmas, batch.coeffs, batch.values, batch.tree.leaves, batch.tree.arena)
    return CircuitData(circuit=circuit, preprocessed=batch, config=None, sigmas=sigmas, ids=ids)


def bind(data: CircuitData, config: FriConfig) -> CircuitData:
    """A :func:`preprocess` result bound to ``config``: its tree cut at
    ``config.cap_height``."""
    batch = replace(data.preprocessed, tree=data.preprocessed.tree.capped(config.cap_height))
    return replace(data, preprocessed=batch, config=config)


def public_input_values(circuit: Circuit, public_values: list[int]) -> np.ndarray:
    """The public-input polynomial ``-sum v_k L_rowk(x)`` over the
    subgroup rows: ``-v_k`` at public row ``k``, else 0."""
    values = RUN.workspace.temp((circuit.n,), "plonk:pi")
    values.fill(0)
    for row, val in zip(circuit.public_input_rows, public_values):
        values[row] = gl.neg(val)
    return values


@lru_cache(maxsize=16)
def lagrange_first(n: int, rate_bits: int) -> np.ndarray:
    """Read-only cached ``L_1(x) = (x^n - 1) / (n (x - 1))`` over the
    size-``n << rate_bits`` coset."""
    xs = lde_points(n.bit_length() - 1 + rate_bits)
    denom = gl64.mul(gl64.sub(xs, np.uint64(1)), np.uint64(n))
    table = gl64.inv_fast(gl64.mul(vanishing_inverse(n, rate_bits), denom))
    gl64.freeze(table)
    return table


def prove(
    data: CircuitData,
    inputs: Dict[int, int],
    challenger: Challenger | None = None,
    blinding_seed: int | None = None,
    pool: "parallel.ShardPool | None" = None,
) -> Proof:
    """Generate a Plonk proof for the given input assignment.

    ``inputs`` maps variable indices (from ``Variable.index``) to values;
    every non-derived variable must be present.

    ``blinding_seed`` enables zero-knowledge salting (Plonky2's
    ``blinding`` flag): random salt columns join the wires commitment so
    the Merkle cap is hiding -- two proofs of the same witness with
    different seeds share no commitment material.  (Full zero knowledge
    additionally pads unused trace rows with randomness; the salt
    columns are the commitment-hiding half, and the verifier needs no
    changes because salts ride the leaves without entering any
    constraint.)  ``None`` keeps the prover deterministic.

    The per-shape tables are cached functions of ``n`` and the
    quotient's coset, and every scratch and stage buffer comes from
    ``RUN.workspace``.

    ``pool`` scopes a :class:`~repro.parallel.ShardPool` over the proof
    (``None`` inherits :func:`repro.parallel.current_pool`): every
    commit/FRI stage is a shard graph it runs, in this process with one
    worker or fanned out across several.  Proofs are bit-identical at
    every worker count.
    """
    circuit = data.circuit
    config = data.config
    n = circuit.n
    rate_bits = config.rate_bits
    challenger = challenger or Challenger()

    with parallel.sharding(pool), tracing.span(
        "prove:plonk", category="prove", n=n, rate_bits=rate_bits
    ):
        with tracing.span("witness", category="witness"):
            witness = circuit.generate_witness(inputs)
            wires = circuit.wire_values(witness)  # (3, n)
            public_values = [int(wires[0, row]) for row in circuit.public_input_rows]

        pcs = FriPCS(config)
        pcs.add_batch(data.preprocessed)  # setup commitment joins the transcript
        coset_bits = data.preprocessed.coset_bits  # the layout setup committed
        commit = PLONK.start(challenger, (data.preprocessed.cap,), public_values)

        # Step 1: wires commitment (optionally salted for zero knowledge).
        committed_wires = wires
        if blinding_seed is not None:
            salt_rng = np.random.default_rng(blinding_seed)
            salts = gl64.random((ZK_SALT_COLUMNS, n), salt_rng)
            committed_wires = np.concatenate([wires, salts])
        wires_batch = pcs.commit_values(committed_wires, "wires", coset_bits)

        # Step 2: permutation accumulator.
        beta, gamma = commit("wires", wires_batch.cap)
        with tracing.span("permutation", category="permutation"):
            z, _, _ = compute_z(wires, data.ids, data.sigmas, beta, gamma)
        z_batch = pcs.commit_values(z, "z", coset_bits)

        # Step 3: quotient polynomial on every 2^(rate_bits - bits)-th
        # LDE point, the smallest coset that holds it.
        (alpha,) = commit("z", z_batch.cap)
        _, bits = FriPCS.quotient_shape(CONSTRAINT_DEGREE)
        with tracing.span("constraints", category="quotient"):
            alg, stride = BaseVecAlgebra(n << bits), 1 << (rate_bits - bits)
            xs = lde_points(circuit.log_n + bits)
            z_lde = z_batch.values[::stride, 0]
            values = constraints(
                alg,
                data.preprocessed.values[::stride].T,
                wires_batch.values[::stride, :NUM_WIRES].T,
                [gl64.mul(xs, np.uint64(k)) for k in coset_representatives()],
                z_lde,
                np.roll(z_lde, -(1 << bits)),
                lde(public_input_values(circuit, public_values), bits),
                lagrange_first(n, bits),
                beta,
                gamma,
            )
            zh_inv = vanishing_inverse(n, bits)
            quotient = blend(alg, alpha, [(v, zh_inv) for v in values])

        # Step 4: openings and FRI.
        return PLONK.finish(pcs, commit, quotient, n, challenger)
