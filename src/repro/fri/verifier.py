"""FRI verifier: transcript replay, the fold walk, Merkle checks.

Mirrors :mod:`repro.fri.prover` step by step.  Any deviation -- a
tampered cap, leaf, layer value, final polynomial, grinding witness,
or a committed function that is far from low-degree -- makes
verification fail (the test-suite injects each of these faults).

The checks run *by tree and by level, not by query*: after the
transcript replay, the verifier derives from the query indices the
leaves each batch and layer tree must open and checks that every
opening has exactly that shape (:func:`repro.merkle.check_opening`).
The fold walk then carries a query axis -- the combined quotient, each
fold layer and the final-polynomial evaluation are one array
expression over all queries, the same
:func:`~repro.fri.prover.combine_rows` /
:func:`~repro.fri.prover.fold_pairs` identities the prover runs over
the whole domain.  Under coset leaves the combined quotient is taken
at every row an initial leaf holds, and that coset is folded like an
opened layer leaf.  A committed layer does not send the values its
queries fold from the layer below
(:func:`~repro.fri.prover.folded_slots`): the walk writes each folded
value into its slot and so rebuilds the layer's opened leaves, and one
:func:`repro.merkle.verify_paths` call then authenticates every tree.
A wrong fold changes a rebuilt leaf, so the layer's Merkle check
binds the folded values.  The final-polynomial check comes last.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .. import tracing
from ..errors import VerifierError
from ..field import extension as fext, goldilocks as gl
from ..hashing import Challenger
from ..merkle import TreeOpening, check_opening, verify_paths
from .config import FriConfig, fri_layout
from .proof import FriProof
from .prover import (
    FriOpenings,
    check_pow,
    combine_rows,
    fold_pairs,
    folded_slots,
    fold_weights,
    lde_points,
)


class FriError(VerifierError):
    """Raised when a FRI proof fails verification."""


def proof_words(proof: FriProof) -> list:
    """Every field word a FRI proof carries: layer caps, the final
    polynomial, the grinding witness, and each tree opening's rows and
    nodes.

    A protocol verifier passes them, with its opened values, to
    :func:`repro.field.gl64.all_canonical` before it hashes anything;
    :func:`fri_verify` then computes on canonical words only.
    """
    words = [*proof.commit_caps, proof.final_poly, proof.pow_witness]
    for op in proof.tree_openings():
        words += (op.rows, op.nodes)
    return words


def fri_verify(
    batch_caps: Sequence[np.ndarray],
    openings: FriOpenings,
    proof: FriProof,
    challenger: Challenger,
    config: FriConfig,
    degree_n: int,
    leaf_widths: Sequence[int | tuple[int, ...]] | None = None,
) -> None:
    """Verify a batch FRI opening proof; raises :class:`FriError` on failure.

    ``batch_caps`` are the caps of the original commitments (in the same
    order the prover used); ``degree_n`` is the claimed degree bound
    (the pre-blowup domain size).  ``leaf_widths``, when given, pins the
    number of columns each batch's opened rows must carry (one entry
    per batch, an int or a tuple of admissible ints -- a batch that may
    carry optional blinding salt columns admits both widths):
    ``hash_or_noop`` zero-pads rows shorter than a digest, so without
    the width pin an attacker could present a padded or truncated leaf
    whose digest still matches the commitment.

    The widths also fix the leaf layout and the schedule, through
    ``fri_layout(config, log2(degree_n), widths)`` over each entry's
    first (salt-free) width: with its ``a > 0`` the batches commit
    cosets of ``2**a`` rows and FRI's first layer is virtual.  Without
    ``leaf_widths`` the batches commit one row a leaf.

    ``openings`` is the verifier's own: the protocol fixes its points
    and columns and only the values come from a proof.  Those values
    and the words of ``proof`` are taken as canonical: the protocol
    verifiers refuse any other (:func:`proof_words`) before they call
    this.
    """
    degree_bits = degree_n.bit_length() - 1
    widths = [(w,) if isinstance(w, int) else tuple(w) for w in leaf_widths or ()]
    a, schedule = (
        fri_layout(config, degree_bits, [w[0] for w in widths])
        if widths
        else (0, config.fold_schedule(degree_bits))
    )
    with tracing.span("verify:transcript", category="verify"):
        challenger.observe_elements(openings.flat_values())
        alpha = challenger.get_ext_challenge()

        n_lde = degree_n << config.rate_bits
        log_lde = n_lde.bit_length() - 1
        num_rounds = sum(schedule)
        # The walk below starts from layer 0: the batches' own ``2**a``-row
        # leaves (virtual, no cap) or, with row leaves, a one-point coset
        # that folds zero times; every later layer is committed.
        arities = (a, *schedule[1:]) if a else (0, *schedule)
        if len(proof.commit_caps) != len(arities) - 1:
            raise FriError(
                f"expected {len(arities) - 1} layer caps, got {len(proof.commit_caps)}"
            )

        betas: List[np.ndarray | None] = [challenger.get_ext_challenge() if a else None]
        for cap in proof.commit_caps:
            challenger.observe_cap(cap)
            betas.append(challenger.get_ext_challenge())

        if proof.final_poly.ndim != 2 or proof.final_poly.shape[1] != 2:
            raise FriError("malformed final polynomial")
        final_len = max(1, degree_n >> num_rounds)
        if proof.final_poly.shape[0] > final_len:
            raise FriError("final polynomial exceeds the degree bound")
        challenger.observe_elements(proof.final_poly)

        if not check_pow(challenger, proof.pow_witness, config.proof_of_work_bits):
            raise FriError("proof-of-work witness is invalid")
        challenger.observe_element(proof.pow_witness)

        indices = challenger.get_indices(config.num_queries, n_lde)

    # Structural checks, all before any hashing: every tree's opening
    # must cover exactly the leaves the queries reach in it.
    if len(proof.batch_openings) != len(batch_caps):
        raise FriError("initial opening count mismatch")
    if len(proof.layer_openings) != len(arities) - 1:
        raise FriError("wrong number of layer openings")
    # Layer k has ``sizes[k]`` values in ``sizes[k + 1]`` coset leaves; a
    # query at position p opens leaf ``p % sizes[k + 1]``, which is also
    # its position in layer k + 1.  Layer 0's leaves are the batches'.
    sizes = [n_lde]
    for bits in arities:
        sizes.append(sizes[-1] >> bits)
    leaf_ids = [np.asarray(indices, dtype=np.int64) % m for m in sizes[1:]]
    # Each committed layer's opened leaves and the one each query reads,
    # and where in them sit the values the walk folds; the proof sends
    # the rest.
    layers = [
        (*np.unique(ids, return_inverse=True), *folded_slots(indices, size, m))
        for ids, size, m in zip(leaf_ids[1:], sizes[1:], sizes[2:])
    ]
    try:
        paths = [
            check_opening(
                op, leaf_ids[0], tuple(w << a for w in widths[b]) if widths else None,
                cap, sizes[1], config.cap_height, "initial opening",
            )
            for b, (op, cap) in enumerate(zip(proof.batch_openings, batch_caps))
        ]
    except ValueError as exc:
        raise FriError(str(exc)) from exc
    for op, (leaves, _, positions, _), bits in zip(proof.layer_openings, layers, arities[1:]):
        if np.shape(op.rows) != ((leaves.size << bits) - positions.size, 2):
            raise FriError("layer opening has wrong shape")

    with tracing.span("verify:fold", category="verify", rounds=num_rounds):
        # coset[q, j] is the value at position leaf_ids[k][q] + j * sizes[k + 1];
        # for layer 0 that is the combined quotient at the rows each
        # initial leaf holds, slot j after slot j - 1.
        num_q, arity = len(indices), 1 << a
        leaf_rows = [
            path.rows[np.searchsorted(path.indices, leaf_ids[0])].reshape(num_q * arity, -1)
            for path in paths
        ]
        points = leaf_ids[0][:, None] + sizes[1] * np.arange(arity)
        try:
            coset = combine_rows(
                leaf_rows, lde_points(log_lde)[points.reshape(-1)], openings, alpha
            ).reshape(num_q, arity, 2)
        except ZeroDivisionError as exc:
            raise FriError("opening point lies on the evaluation domain") from exc

        shift = gl.coset_shift()
        cur_log = log_lde
        layer_rows = []
        for k, (beta, bits, ids) in enumerate(zip(betas, arities, leaf_ids)):
            m = sizes[k + 1]
            if k:
                # Layer k's opened leaves: each folded value in its slot,
                # the sent values in the others.
                _, read, positions, first = layers[k - 1]
                rows = np.insert(
                    proof.layer_openings[k - 1].rows,
                    positions - np.arange(positions.size),
                    values[first],
                    axis=0,
                ).reshape(-1, 2 << bits)
                layer_rows.append(rows)
                coset = rows[read].reshape(num_q, 1 << bits, 2)
            # The prover's ``bits`` arity-2 folds, on each coset alone:
            # slots j and j + half hold x and -x.
            for _ in range(bits):
                half = coset.shape[1] // 2
                weights = fold_weights(cur_log, shift)[ids[:, None] + m * np.arange(half)]
                coset = fold_pairs(
                    coset[:, :half].reshape(-1, 2),
                    coset[:, half:].reshape(-1, 2),
                    weights.reshape(-1),
                    beta,
                ).reshape(num_q, half, 2)
                beta = fext.square(beta)
                shift = gl.mul(shift, shift)
                cur_log -= 1
            values = coset[:, 0]
        # The final polynomial at the residual domain points, compared
        # with the walk's values once every tree has authenticated.
        final = fext.eval_poly_ext(
            proof.final_poly, fext.from_base(lde_points(cur_log, shift)[leaf_ids[-1]])
        )

    try:
        paths += [
            # The rebuilt leaves are whole by construction; this binds
            # them to the derived leaves and checks the nodes and cap.
            check_opening(
                TreeOpening(rows, op.nodes), ids, 2 << bits, cap, m, config.cap_height,
                "layer opening",
            )
            for rows, op, cap, ids, bits, m in zip(
                layer_rows, proof.layer_openings, proof.commit_caps, leaf_ids[1:],
                arities[1:], sizes[2:],
            )
        ]
    except ValueError as exc:
        raise FriError(str(exc)) from exc

    with tracing.span("verify:merkle", category="verify", trees=len(paths)):
        verdicts = verify_paths(paths)
        if not verdicts[: len(batch_caps)].all():
            raise FriError("initial Merkle proof failed")
        if not verdicts.all():
            raise FriError("layer Merkle proof failed")

    if not np.array_equal(final, values):
        raise FriError("final polynomial evaluation mismatch")
