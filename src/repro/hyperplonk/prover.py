"""Sumcheck-native HyperPlonk-lite prover (paper Section 8.1).

Proves the same gate + copy constraints as :mod:`repro.plonk`, but over
the *boolean hypercube* instead of a multiplicative subgroup's LDE
coset: the witness tables are treated as multilinear extensions and the
"everything vanishes" claim becomes a zerocheck run through the
sum-check protocol (Algorithm 2).  The paper argues UniZK's unified
hardware covers exactly this newer protocol family (Spartan, Binius,
Basefold); this backend is the repo's concrete instance.

The hot path executes **zero NTT butterflies** (asserted in CI):

1. witness generation, then a row-wise Merkle commitment of the wire
   table through :class:`~repro.pcs.MultilinearPCS` -- pure Poseidon
   hashing, no LDE;
2. Fiat-Shamir ``beta``/``gamma`` and the permutation accumulator ``Z``
   via the same chunked partial-product kernel Plonk uses, committed
   row-wise;
3. ``alpha`` batches the gate / permutation / Z-start constraints
   (:func:`repro.plonk.protocol.constraints`, the ones Plonk proves)
   into one table ``C``; zerocheck multiplies by the ``eq(tau, x)``
   indicator so ``sum_x eq(tau, x) C(x) = 0`` implies ``C == 0`` whp
   (Schwartz-Zippel over the random ``tau``);
4. a *committed* sumcheck over ``Q = eq(tau, .) * C``: every folded
   level is Merkle-committed so the verifier can spot-check fold
   consistency, Basefold-style, tying the final value to the base
   commitments;
5. batched query openings: the transcript pins random positions, and
   every committed tree ships one deduplicated multiproof covering all
   the rows those positions touch.

The hashing-bound stages are shard graphs run on
:func:`repro.parallel.current_pool` (or the ``pool`` argument): the
wires / Z commitments are ``merkle_subtree`` graphs, and each sumcheck
round's fold + fold-level commit is one fused graph (``sumcheck_fold``
row shards feeding Merkle shards).  Fiat-Shamir stays pinned in the
coordinator between graph runs -- challenges are squeezed before a
graph is built and caps observed after it runs -- so proofs are
bit-identical at every worker count (same digests, same op counters).

No quotient polynomial, no coset division, no FRI -- proof size is
traded for a prover that is all element-wise kernels, sums, and
hashing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

from .. import parallel, tracing
from ..context import RUN
from ..field import gl64
from ..field.algebra import BaseVecAlgebra
from ..hashing import Challenger
from ..merkle import MerkleTree, open_tree
from ..pcs import MultilinearPCS, eq_table
from ..plonk.circuit import Circuit
from ..plonk.permutation import compute_z, id_values, sigma_values
from ..plonk.prover import public_input_values
from ..parallel import ops as par_ops
from ..sumcheck import SumcheckProof
from .proof import (
    HyperPlonkConfig,
    HyperPlonkData,
    HyperPlonkProof,
    query_index_sets,
    zerocheck_values,
)


def setup(circuit: Circuit, config: HyperPlonkConfig) -> HyperPlonkData:
    """Preprocess a circuit: Merkle-commit selectors + sigmas row-wise."""
    return bind(preprocess(circuit), config)


def preprocess(circuit: Circuit) -> HyperPlonkData:
    """The config-free part of :func:`setup`, all of it read-only.

    Unlike the univariate setup there is no low-degree extension -- the
    leaves are the ``(n, 8)`` subgroup rows themselves, so even setup
    runs NTT-free.  The tree is built to its root (cap height 0), so
    :func:`bind` cuts it at any config's cap without hashing.  The
    commitment deliberately has no ``slot``: setup artifacts outlive
    any one proof, and a slot's buffers would be recycled by the next
    same-shape commit.
    """
    ids = id_values(circuit.n)
    sigmas = sigma_values(circuit, ids)
    pre_rows = np.ascontiguousarray(
        np.concatenate([circuit.selectors, sigmas]).T
    )  # (n, 8): one leaf per gate row
    tree = MultilinearPCS(0).commit(pre_rows, "preprocessed")
    gl64.freeze(ids, sigmas, tree.leaves, tree.arena)
    return HyperPlonkData(circuit=circuit, preprocessed=tree, sigmas=sigmas, ids=ids, config=None)


def bind(data: HyperPlonkData, config: HyperPlonkConfig) -> HyperPlonkData:
    """A :func:`preprocess` result bound to ``config``: its tree cut at
    ``config.cap_height``, clamped to the tree's depth as every
    :class:`~repro.pcs.MultilinearPCS` commit is."""
    tree = data.preprocessed.capped(min(config.cap_height, data.circuit.log_n))
    return replace(data, preprocessed=tree, config=config)


def _committed_sumcheck(
    q_table: np.ndarray, challenger: Challenger, cap_height: int
) -> Tuple[SumcheckProof, List[MerkleTree]]:
    """Sumcheck over ``q_table`` with every folded level committed.

    The rounds of :func:`repro.sumcheck.prove` -- same sums, same
    transcript order -- with each fold and its fold-level Merkle commit
    run as one fused shard graph
    (:func:`repro.parallel.ops.sumcheck_fold_graph`) and the level's cap
    bound into the transcript before the next round's values.  The
    challenger never leaves the coordinator: ``r`` is squeezed before
    the round's graph is built, the finished cap observed after it runs.
    """
    pool = parallel.current_pool()
    claimed = int(gl64.sum_array(q_table))
    challenger.observe_element(claimed)
    rounds: List[Tuple[int, int]] = []
    level_trees: List[MerkleTree] = []
    table = q_table.reshape(-1, 1)
    while table.shape[0] > 1:
        half = table.shape[0] // 2
        y0 = int(gl64.sum_array(table[:half]))
        y1 = int(gl64.sum_array(table[half:]))
        rounds.append((y0, y1))
        challenger.observe_element(y0)
        challenger.observe_element(y1)
        r = challenger.get_challenge()
        stage = par_ops.sumcheck_fold_graph(pool, table, r, len(rounds) - 1, cap_height)
        if half > 1:
            with tracing.span("pcs:commit", category="commit", label="fold", rows=half):
                table, tree = stage.run()
            level_trees.append(tree)
            challenger.observe_cap(tree.cap)
        else:
            table, _ = stage.run()
    return (
        SumcheckProof(
            claimed_sum=claimed, round_values=rounds, final_value=int(table[0, 0])
        ),
        level_trees,
    )


def prove(
    data: HyperPlonkData,
    inputs: Dict[int, int],
    challenger: Challenger | None = None,
    pool=None,
) -> HyperPlonkProof:
    """Generate a HyperPlonk-lite proof for the given input assignment.

    ``inputs`` maps variable indices to values, exactly as
    :func:`repro.plonk.prove` -- the two backends prove the same
    circuits.  ``pool`` scopes a shard pool for the duration of the
    proof (``None`` inherits :func:`repro.parallel.current_pool`).
    """
    circuit = data.circuit
    config = data.config
    n = circuit.n
    v = circuit.log_n
    challenger = challenger or Challenger()
    pcs = MultilinearPCS(config.cap_height)

    with parallel.sharding(pool), tracing.span(
        "prove:hyperplonk", category="prove", n=n
    ):
        with tracing.span("witness", category="witness"):
            witness = circuit.generate_witness(inputs)
            wires = circuit.wire_values(witness)  # (3, n)
            public_values = [int(wires[0, row]) for row in circuit.public_input_rows]

        challenger.observe_cap(data.preprocessed.cap)
        challenger.observe_elements(np.asarray(public_values, dtype=np.uint64))

        with tracing.span("commit:wires", category="commit"):
            wires_tree = pcs.commit(
                np.ascontiguousarray(wires.T), "wires", slot="wires"
            )
        challenger.observe_cap(wires_tree.cap)

        beta = challenger.get_challenge()
        gamma = challenger.get_challenge()
        with tracing.span("permutation", category="permutation"):
            z, _, _ = compute_z(wires, data.ids, data.sigmas, beta, gamma)
        with tracing.span("commit:z", category="commit"):
            z_tree = pcs.commit(z, "z", slot="z")
        challenger.observe_cap(z_tree.cap)

        alpha = challenger.get_challenge()
        tau = challenger.get_n_challenges(v)

        with tracing.span("zerocheck", category="quotient"):
            l1 = RUN.workspace.temp((n,), "hp:l1")  # L_1 on the subgroup rows
            l1.fill(0)
            l1[0] = 1
            c_table = zerocheck_values(
                BaseVecAlgebra(n), alpha, [*circuit.selectors, *data.sigmas], wires, data.ids,
                z, np.roll(z, -1), public_input_values(circuit, public_values), l1, beta, gamma,
            )
            q_table = gl64.mul(eq_table(tau), c_table)

        # Committed sumcheck: Merkle-commit every folded level (down to
        # size 2) and bind its cap before the next round's values.
        with tracing.span("sumcheck", category="sumcheck"):
            sc_proof, level_trees = _committed_sumcheck(
                q_table, challenger, config.cap_height
            )

        with tracing.span("queries", category="open"):
            # Queries sample the pair index j directly: position pairs
            # (j, j + n/2) are what the fold walk consumes, so the
            # transcript draws over [0, n/2) instead of folding a
            # [0, n) sample down.
            indices = challenger.get_indices(config.num_queries, n // 2)
            base_set, z_set, level_sets = query_index_sets(
                indices, n, len(level_trees)
            )
            pre_opening = open_tree(data.preprocessed, base_set)
            wires_opening = open_tree(wires_tree, base_set)
            z_opening = open_tree(z_tree, z_set)
            level_openings = [
                open_tree(tree, s) for tree, s in zip(level_trees, level_sets)
            ]

    return HyperPlonkProof(
        wires_cap=wires_tree.cap.copy(),
        z_cap=z_tree.cap.copy(),
        sumcheck=sc_proof,
        level_caps=[t.cap.copy() for t in level_trees],
        pre_opening=pre_opening,
        wires_opening=wires_opening,
        z_opening=z_opening,
        level_openings=level_openings,
    )
