"""FRI prover: polynomial batch commitments and batch-opening proofs.

Implements the commit / fold / grind / query pipeline of Figure 1
(right) in the paper:

1. every polynomial batch is low-degree-extended (``iNTT^NN`` then
   zero-pad then coset ``NTT``) and Merkle-committed, with leaf ``i``
   concatenating the values of all batch polynomials at LDE point ``i``
   (Section 2.2, step 3) -- or, under the layout
   :func:`~repro.fri.config.fri_layout` picks, at the ``2**a``
   points ``i + j * N / 2**a`` of the coset the first fold reads;
2. opening at ``zeta`` reduces all claims to one low-degree test on the
   combined quotient ``sum_k alpha-weighted (F(x) - y) / (x - z_k)``;
3. the combined values are folded along ``config.fold_schedule``: a
   layer of arity ``2**a`` is Merkle-committed with the ``2**a``-value
   cosets of the next layer as leaves, one beta is drawn through
   Fiat-Shamir, and :func:`fold_values` runs ``a`` times with
   ``beta, beta**2, beta**4, ...`` -- which is the arity-``2**a`` coset
   interpolant evaluated at ``beta``.  When the batches' leaves already
   are those cosets, the first layer is virtual: its beta follows the
   FRI alpha with no cap between, and no tree is built for it;
4. grinding (proof-of-work) and random query indices finish the proof:
   every batch tree and every layer tree is opened once, at all the
   leaves the queries reach in it, as one shared-path multiproof --
   pure reads of trees already built, so they run in the calling
   process, not as a shard graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .. import parallel, tracing
from ..field import extension as fext, gl64, goldilocks as gl
from ..hashing import Challenger
from ..merkle import MerkleTree, open_tree
from ..ntt import coset_intt_ext
from ..parallel import ops as par_ops
from .config import FriConfig
from .proof import FriProof


@dataclass
class PolynomialBatch:
    """A batch of polynomials committed under one Merkle cap.

    ``coeffs`` is (num_polys, n); ``values`` is the (N_lde, num_polys)
    LDE-value matrix in natural order over the coset ``g * <omega>``.
    The tree's leaves are its rows (index-major, exactly the paper's
    leaf formation) or, with :attr:`coset_bits` ``a > 0``, the cosets of
    ``2**a`` rows a first FRI fold reads.
    """

    coeffs: np.ndarray
    values: np.ndarray
    tree: MerkleTree
    rate_bits: int

    @classmethod
    def from_values(
        cls,
        subgroup_values: np.ndarray,
        rate_bits: int,
        cap_height: int,
        slot: str | None = None,
        coset_bits: int = 0,
    ) -> "PolynomialBatch":
        """Commit polynomials given by their subgroup evaluations.

        Each row shard interpolates (iNTT) its own rows before extending
        them, so the two transforms pipeline per shard.  ``coset_bits``
        is the leaf layout :func:`~repro.fri.config.fri_layout`
        derived for the opening this batch joins.
        """
        return par_ops.from_values_graph(
            parallel.current_pool(),
            subgroup_values,
            rate_bits,
            cap_height,
            slot,
            coset_bits,
        ).run()

    @property
    def degree_n(self) -> int:
        """Original (pre-blowup) domain size."""
        return self.coeffs.shape[1]

    @property
    def coset_bits(self) -> int:
        """log2 of the LDE rows one committed leaf holds."""
        return (self.values.shape[0] // self.tree.num_leaves()).bit_length() - 1

    @property
    def cap(self) -> np.ndarray:
        """The Merkle cap committing this batch."""
        return self.tree.cap


@dataclass
class FriOpenings:
    """The opening instance: which columns open at which points.

    ``points[k]`` is an extension point; ``columns[k]`` lists
    ``(batch_index, poly_index)`` pairs opened there; ``values[k]`` is
    the matching (len, 2) array of claimed evaluations.
    """

    points: List[np.ndarray]
    columns: List[List[Tuple[int, int]]]
    values: List[np.ndarray]

    def flat_values(self) -> np.ndarray:
        """All claimed evaluations, concatenated (for transcripts)."""
        if not self.values:
            return np.zeros((0, 2), dtype=np.uint64)
        return np.concatenate([np.atleast_2d(v) for v in self.values])


def open_batches(
    batches: Sequence[PolynomialBatch],
    points: Sequence[np.ndarray],
    columns: Sequence[Sequence[Tuple[int, int]]],
) -> FriOpenings:
    """Honest prover helper: evaluate the requested openings."""
    values = []
    for point, cols in zip(points, columns):
        rows = [batches[b].coeffs[c] for b, c in cols]
        if len({len(r) for r in rows}) == 1:
            vals = fext.eval_polys_base(np.stack(rows), point)
        else:  # mixed-degree batches: evaluate per row off one power table
            vals = np.stack([fext.eval_poly_base(r, point) for r in rows])
        values.append(vals)
    return FriOpenings(points=list(points), columns=[list(c) for c in columns], values=values)


@lru_cache(maxsize=32)
def lde_points(log_n: int, shift: int | None = None) -> np.ndarray:
    """Read-only cached coset points ``shift * omega^i`` (natural order).

    Shared by :func:`combine_rows`, the fold weights and the STARK
    prover's boundary/vanishing tables, so each domain is generated once
    per process instead of once per proof.
    """
    shift = gl.coset_shift() if shift is None else shift
    xs = gl64.mul(
        gl64.powers(gl.primitive_root_of_unity(log_n), 1 << log_n), np.uint64(shift)
    )
    xs.flags.writeable = False
    return xs


@lru_cache(maxsize=64)
def fold_weights(log_n: int, shift: int) -> np.ndarray:
    """Read-only cached ``1 / (2 x_i)`` over half a size-``2^log_n``
    fold domain (``-x_i`` covers the other half)."""
    half = 1 << (log_n - 1)
    inv2 = np.uint64(gl.inverse(2))
    xs = gl64.mul(gl64.powers(gl.primitive_root_of_unity(log_n), half), np.uint64(shift))
    weights = gl64.mul(inv2, gl64.inv_fast(xs))
    weights.flags.writeable = False
    return weights


def combine_rows(
    batch_rows: Sequence[np.ndarray],
    xs: np.ndarray,
    openings: FriOpenings,
    alpha: np.ndarray,
) -> np.ndarray:
    """The combined quotient values at ``m`` domain points.

    ``batch_rows[b]`` is an (m, num_polys) matrix: batch ``b``'s LDE
    values at the points ``xs`` (m,).  The prover passes row ranges of
    its LDE matrices with the matching slice of :func:`lde_points`; the
    verifier passes the leaf rows its queries opened.  Returns an (m, 2)
    extension array:
    ``sum_k [ (sum_j a^t F_t(x)) - (sum_j a^t y_t) ] / (x - z_k)``.
    This is exactly the element-wise polynomial kernel UniZK runs in
    vector mode before FRI folding; the alpha-power ladder is a scalar
    recurrence independent of the row, so any row split is bit-exact.
    Raises :class:`ZeroDivisionError` when an opening point ``z_k`` is
    one of ``xs``.
    """
    m = xs.shape[0]
    alpha = np.asarray(alpha, dtype=np.uint64).reshape(2)
    total = fext.from_base(gl64.zeros(m))
    alpha_t = fext.one()
    for point, cols, vals in zip(openings.points, openings.columns, openings.values):
        num = fext.from_base(gl64.zeros(m))
        const = fext.zero()
        for (b, c), y in zip(cols, np.atleast_2d(vals)):
            f_vals = batch_rows[b][:, c]
            num = fext.add(num, fext.scalar_mul(np.broadcast_to(alpha_t, (m, 2)), f_vals))
            const = fext.add(const, fext.mul(alpha_t, y))
            alpha_t = fext.mul(alpha_t, alpha)
        num = fext.sub(num, np.broadcast_to(const, (m, 2)))
        denom = fext.sub(fext.from_base(xs), np.broadcast_to(point.reshape(2), (m, 2)))
        total = fext.add(total, fext.mul(num, fext.inv(denom)))
    return total


def fold_pairs(
    lo: np.ndarray, hi: np.ndarray, weights: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """The arity-2 FRI fold of value pairs ``(f(x), f(-x))``.

    ``f'(x^2) = (f(x) + f(-x))/2 + beta * (f(x) - f(-x)) / (2x)`` with
    ``weights = 1 / (2x)``: the whole layer for the prover, the halves
    of each queried coset for the verifier.
    """
    inv2 = np.uint64(gl.inverse(2))
    even = fext.scalar_mul(fext.add(lo, hi), inv2)
    odd = fext.scalar_mul(fext.sub(lo, hi), weights)
    return fext.add(even, fext.mul(np.broadcast_to(beta.reshape(2), odd.shape), odd))


def fold_values(values: np.ndarray, beta: np.ndarray, shift: int, log_n: int) -> np.ndarray:
    """One arity-2 FRI fold over the coset ``shift * <omega_N>``.

    In natural order ``-x_i`` lives at index ``i + N/2``, so the pairs
    of :func:`fold_pairs` are the two halves of ``values``.  A layer of
    arity ``2**a`` is ``a`` of these folds, the k-th at ``beta**(2**k)``.
    """
    half = values.shape[0] // 2
    return fold_pairs(
        values[:half], values[half:], fold_weights(log_n, int(shift)), beta
    )


def grind(challenger: Challenger, pow_bits: int) -> int:
    """Search a witness whose response has ``pow_bits`` leading zeros."""
    threshold = 1 << (64 - pow_bits)
    witness = 0
    while True:
        fork = challenger.clone()
        fork.observe_element(witness)
        if fork.get_challenge() < threshold:
            return witness
        witness += 1


def check_pow(challenger: Challenger, witness: int, pow_bits: int) -> bool:
    """Verifier side of the grinding check."""
    fork = challenger.clone()
    fork.observe_element(witness)
    return fork.get_challenge() < (1 << (64 - pow_bits))


def fri_prove(
    batches: Sequence[PolynomialBatch],
    openings: FriOpenings,
    challenger: Challenger,
    config: FriConfig,
) -> FriProof:
    """Produce a batch FRI opening proof.

    The caller must already have observed the batch caps and any
    protocol messages; this function observes the claimed opening values
    (mirrored by the verifier) and runs the FRI transcript.  The batches
    share one leaf layout: rows, or the cosets of a first fold by
    ``2**coset_bits``, which makes that layer virtual and sets the
    schedule (``config.fold_schedule(degree_bits, coset_bits)``).
    """
    n = batches[0].degree_n
    virtual = batches[0].coset_bits
    if {b.coset_bits for b in batches} != {virtual}:
        raise ValueError("batch leaf layouts do not match")
    schedule = config.fold_schedule(n.bit_length() - 1, virtual)

    challenger.observe_elements(openings.flat_values())
    alpha = challenger.get_ext_challenge()

    # Shard graphs run strictly *between* transcript interactions: the
    # challenger lives only in this function, so caps and challenges
    # keep one order no matter how the graphs were split or scheduled.
    pool = parallel.current_pool()
    n_lde = batches[0].values.shape[0]
    with tracing.span("fri:combine", category="fri"):
        values = par_ops.combine_graph(pool, batches, openings, alpha).run()
    log_lde = n_lde.bit_length() - 1

    # Commit phase: one tree and one beta per committed layer; a virtual
    # first layer draws its beta straight after alpha.
    num_rounds = sum(schedule)
    trees: List[MerkleTree] = []
    shift = gl.coset_shift()
    cur_log = log_lde
    with tracing.span("fri:fold", category="fri", rounds=num_rounds, layers=len(schedule)):
        for i, arity_bits in enumerate(schedule):
            if i or not virtual:
                tree = par_ops.layer_tree_graph(
                    pool, values, arity_bits, config.cap_height, i
                ).run()
                trees.append(tree)
                challenger.observe_cap(tree.cap)
            beta = challenger.get_ext_challenge()
            for _ in range(arity_bits):
                values = fold_values(values, beta, shift, cur_log)
                beta = fext.square(beta)
                shift = gl.mul(shift, shift)
                cur_log -= 1

        # Final polynomial (coefficients over the remaining coset).
        final_coeffs = coset_intt_ext(values, shift)
        final_len = max(1, n >> num_rounds)
        final_poly = np.ascontiguousarray(final_coeffs[:final_len])
        challenger.observe_elements(final_poly)

    # Grinding.
    with tracing.span("fri:grind", category="fri", bits=config.proof_of_work_bits):
        pow_witness = grind(challenger, config.proof_of_work_bits)
        challenger.observe_element(pow_witness)

    # Query phase.
    with tracing.span("fri:query", category="fri", queries=config.num_queries):
        indices = challenger.get_indices(config.num_queries, n_lde)
        # A tree of m leaves packs the coset of v[j] in leaf j (a batch
        # tree of row leaves has m = N), so query p opens leaf p % m.
        batch_openings, layer_openings = (
            [open_tree(tree, [i % tree.num_leaves() for i in indices]) for tree in group]
            for group in ([b.tree for b in batches], trees)
        )

    return FriProof(
        commit_caps=[t.cap.copy() for t in trees],
        final_poly=final_poly,
        pow_witness=pow_witness,
        batch_openings=batch_openings,
        layer_openings=layer_openings,
    )
