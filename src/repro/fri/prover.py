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
   process, not as a shard graph.  A layer's opening leaves out the
   value each query folds from the layer below (:func:`folded_slots`):
   the verifier computes it and the layer's Merkle check binds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .. import parallel, tracing
from ..context import RUN
from ..field import extension as fext, gemm, gl64, goldilocks as gl
from ..hashing import Challenger, optimized
from ..hashing.constants import WIDTH
from ..merkle import MerkleTree, TreeOpening, open_tree
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
    the matching (len, 2) array of claimed evaluations.  A protocol
    fixes the points by its transcript and the columns by its layout,
    so a proof carries :meth:`flat_values` alone and the verifier
    rebuilds the set with :meth:`from_flat`.
    """

    points: List[np.ndarray]
    columns: List[List[Tuple[int, int]]]
    values: List[np.ndarray]

    def flat_values(self) -> np.ndarray:
        """All claimed evaluations, concatenated (for transcripts)."""
        if not self.values:
            return np.zeros((0, 2), dtype=np.uint64)
        return np.concatenate([np.atleast_2d(v) for v in self.values])

    @classmethod
    def from_flat(
        cls,
        points: Sequence[np.ndarray],
        columns: Sequence[Sequence[Tuple[int, int]]],
        values: np.ndarray,
    ) -> "FriOpenings":
        """The set whose :meth:`flat_values` is ``values``, opened at
        ``points`` under the ``columns`` layout; ``ValueError`` unless
        ``values`` is a ``(k, 2)`` array of one row per opened column."""
        sizes = [len(cols) for cols in columns]
        if not isinstance(values, np.ndarray) or values.shape != (sum(sizes), 2):
            raise ValueError("malformed opened values (one (c0, c1) row per opened column)")
        return cls(
            points=list(points),
            columns=[list(cols) for cols in columns],
            values=np.split(values, np.cumsum(sizes)[:-1]),
        )


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

    Shared by :func:`combine_rows`, the FRI verifier and the provers'
    divisor tables, so each domain is generated once per process instead
    of once per proof.
    """
    shift = gl.coset_shift() if shift is None else shift
    xs = gl64.mul(
        gl64.powers(gl.primitive_root_of_unity(log_n), 1 << log_n), np.uint64(shift)
    )
    xs.flags.writeable = False
    return xs


@lru_cache(maxsize=16)
def vanishing_inverse(n: int, rate_bits: int) -> np.ndarray:
    """Read-only cached ``1 / Z_H(x) = 1 / (x^n - 1)`` over the
    size-``n << rate_bits`` LDE coset: the divisor of both FRI
    provers' quotients."""
    log_lde = n.bit_length() - 1 + rate_bits
    # x^n on the coset cycles with period `blowup`.
    cycle = gl64.mul(
        gl64.powers(gl.pow_mod(gl.primitive_root_of_unity(log_lde), n), 1 << rate_bits),
        np.uint64(gl.pow_mod(gl.coset_shift(), n)),
    )
    table = gl64.inv_fast(np.tile(gl64.sub(cycle, np.uint64(1)), n))
    gl64.freeze(table)
    return table


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


def _alpha_ladder(batch_rows, openings, alpha) -> tuple:
    """The combine's one alpha ladder as limb-GEMM weights: per batch
    the ``(polys, 4 K)`` matrix whose columns ``2 k, 2 k + 1`` hold, at
    each column opened at point ``k``, its ``alpha**t`` (summed where a
    column opens twice there), and columns ``2 K + 2 k, ...`` that times
    ``c_k = -conj(z_k)``; and the addend: minus the claimed side
    ``sum_t alpha**t y_t`` of each point, then that times ``c_k``.
    ``t`` counts columns across the points in order."""
    p, w = gl.P, fext.non_residue()

    def mul(a, b):  # GF(p^2) on (c0, c1) pairs of Python ints
        return (a[0] * b[0] + w * a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p

    alpha = fext.to_pair(alpha)
    cs = [(-z0 % p, z1) for z0, z1 in (fext.to_pair(z) for z in openings.points)]
    k_all = len(cs)
    ladders = [[[0] * (4 * k_all) for _ in range(rows.shape[1])] for rows in batch_rows]
    claims, scaled = [], []
    power = (1, 0)
    for k, (cols, vals, c) in enumerate(zip(openings.columns, openings.values, cs)):
        claim = (0, 0)
        for (b, col), y in zip(cols, np.atleast_2d(vals).tolist()):
            row = ladders[b][col]
            for at, (v0, v1) in ((2 * k, power), (2 * (k_all + k), mul(power, c))):
                row[at], row[at + 1] = (row[at] + v0) % p, (row[at + 1] + v1) % p
            claim = tuple((u + v) % p for u, v in zip(claim, mul(power, y)))
            power = mul(power, alpha)
        claim = (-claim[0] % p, -claim[1] % p)
        claims += claim
        scaled += mul(claim, c)
    return ladders, claims + scaled


def _ladder_calls(batch_rows, ladders) -> list:
    """The ladder's GEMM sources, ``(batch, first column, width,
    chunks)`` per group of at most ``_COMBINE_WORDS`` opened-batch
    columns, packed into contractions of at most
    :data:`repro.field.gemm.MAX_CHUNKS` chunks each."""
    calls, chunks_in = [[]], 0
    for b, ladder in enumerate(ladders):
        for lo in range(0, len(ladder), _COMBINE_WORDS):
            cols = ladder[lo : lo + _COMBINE_WORDS]
            if not any(any(row) for row in cols):
                continue  # no column of this group opens anywhere
            chunks = gemm.weight_chunks(gemm.limb_weights(cols, None))
            if chunks_in + len(chunks) > gemm.MAX_CHUNKS:
                calls, chunks_in = calls + [[]], 0
            calls[-1].append((b, lo, len(cols), chunks))
            chunks_in += len(chunks)
    return [call for call in calls if call]


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

    One size rule, the extension arithmetic's: at most
    ``fext._SHORT_ELEMS`` points -- a verifier's queried rows -- run the
    per-column ladder in Python ints (:func:`_combine_short`).  More
    run every point's numerator ``num_k`` -- and ``num_k * c_k``, ``c_k
    = -conj(z_k)`` -- as one limb GEMM over all batches, the claims
    riding as its addend; then ``num_k / (x - z_k) = (x num_k + num_k
    c_k) / N_k(x)`` with the base-field norm ``N_k(x) = x**2 - 2 z0 x
    + z0**2 - W z1**2``, every point's norms inverted in one batch
    inversion, in blocks of ``_COMBINE_ROWS`` rows.  Raises
    :class:`ZeroDivisionError` when an opening point ``z_k`` is one of
    ``xs``.
    """
    m = xs.shape[0]
    alpha = np.asarray(alpha, dtype=np.uint64).reshape(2)
    if fext._short((m, 2)):
        return _combine_short(batch_rows, xs, openings, alpha)
    k_all = len(openings.points)
    ladders, addend = _alpha_ladder(batch_rows, openings, alpha)
    calls = _ladder_calls(batch_rows, ladders)
    ws = RUN.workspace
    offset = gemm.offsets(addend, ws.temp((2, 4 * k_all), "combine:offset", np.int64))
    offset = offset.reshape(2, 1, 1, -1, 1)
    p, w = gl.P, fext.non_residue()
    z = [fext.to_pair(point) for point in openings.points]
    two_z0 = gl64.asarray([2 * z0 % p for z0, _ in z])
    norm_at_0 = gl64.asarray([(z0 * z0 - w * z1 * z1) % p for z0, z1 in z])
    out = np.empty((m, 2), dtype=np.uint64)
    for lo in range(0, m, _COMBINE_ROWS):
        hi = min(lo + _COMBINE_ROWS, m)
        rows = hi - lo
        # Limb-planar numerators: nums[0] = num, nums[1] = num * c, each
        # (K, 2, rows); a GEMM row's 4 K words land down one column.
        nums = ws.temp((2, k_all, 2, rows), "combine:num")
        planes = ws.temp((2, k_all, rows), "combine:norm")
        spare = planes.reshape(k_all, 2, rows)  # free but for the norms
        if not calls:  # nothing opened: the numerators are the claims alone
            nums[:] = np.asarray(addend, dtype=np.uint64).reshape(2, k_all, 2, 1)
        for i, call in enumerate(calls):
            sources = [
                (batch_rows[b][lo:hi, col : col + width].reshape(rows, width, 1, 1), chunks)
                for b, col, width, chunks in call
            ]
            if not i:
                gemm.contract_into(_word_columns(nums), offset, *sources)
                continue
            part = ws.temp((2, k_all, 2, rows), "combine:part")
            gemm.contract_into(_word_columns(part), gemm.NO_ADDEND, *sources)
            for total, extra in zip(nums, part):
                gl64.canonical_into(extra, extra, spare)  # a lazy sum takes a canonical addend
                gl64.add_lazy_into(total, extra, total, spare)
        x = xs[lo:hi]
        norm, x_sq = planes[0], planes[1, 0]
        gl64.mul_into(two_z0[:, None], x, norm)
        gl64.square_into(x, x_sq)
        gl64.sub_into(x_sq, norm, norm)
        gl64.add_into(norm, norm_at_0[:, None], norm)
        norm_inv = gl64.inv_fast(norm)
        num = nums[0]
        gl64.mul_into(num, x, num)
        gl64.add_lazy_into(nums[1], num, num, spare)
        gl64.mul_into(num, norm_inv[:, None, :], num)
        total = out[lo:hi].T
        if k_all == 1:
            np.copyto(total, num[0])
        else:
            gl64.add_into(num[0], num[1], total)
        for k in range(2, k_all):
            gl64.add_into(total, num[k], total)
    return out


def _word_columns(planes: np.ndarray) -> np.ndarray:
    """A ``(..., rows)`` limb-planar buffer as the ``(rows, 1, words,
    1)`` destination of :func:`repro.field.gemm.contract_into`: output
    word ``w`` of row ``r`` lands at ``planes.flat[w * rows + r]``."""
    rows = planes.shape[-1]
    return planes.reshape(-1, rows).T[:, None, :, None]


#: Rows a combine block runs: its numerators, norms and inverse tree
#: stay inside the workspace a prove holds.
_COMBINE_ROWS = 4096
#: Opened columns of one batch one ladder source contracts: the most
#: :data:`repro.field.gemm.MAX_CHUNKS` chunks take.
_COMBINE_WORDS = gemm.MAX_CHUNKS * gemm.CHUNK_WORDS


def _combine_short(batch_rows, xs, openings, alpha) -> np.ndarray:
    """:func:`combine_rows` for a few rows: the per-column ladder and a
    per-point inverse on the extension arithmetic's Python-int path."""
    m = xs.shape[0]
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


@lru_cache(maxsize=64)
def fold_tables(log_n: int, shift: int, arity_bits: int) -> tuple:
    """Read-only cached tables of the one-step arity-``2**a`` fold over
    the size-``2**log_n`` coset ``shift * <omega>``: the limb-GEMM
    chunks of the ``2**a``-point inverse DFT ``zeta**(-j k)`` and the
    ``(N / 2**a, 1, 2**a)`` scale ``x_i**-k / 2**a`` of each coset's
    first point ``x_i = shift * omega**i``."""
    arity = 1 << arity_bits
    rows = 1 << (log_n - arity_bits)
    zeta_inv = gl.inverse(gl.primitive_root_of_unity(arity_bits))
    grid = np.arange(arity, dtype=np.int64)
    matrix = gl64.powers(zeta_inv, arity)[np.outer(grid, grid) % arity]
    table = gemm.limb_weights(matrix, None)
    x_inv = gl64.powers(gl.inverse(gl.primitive_root_of_unity(log_n)), rows)
    gl64.mul_into(x_inv, np.uint64(gl.inverse(shift)), x_inv)
    columns = [gl64.mul(x_inv, np.uint64(gl.inverse(arity)))]
    for _ in range(2, arity):
        columns.append(gl64.mul(columns[-1], x_inv))
    first = np.broadcast_to(np.uint64(gl.inverse(arity)), (rows,))
    scale = np.stack([first] + columns, axis=-1).reshape(rows, 1, arity)
    gl64.freeze(table, scale)
    return gemm.weight_chunks(table), scale


#: Layer size from which an arity-``2**a`` fold (``a >= 2``) runs as one
#: step; smaller layers and arity 2 -- whose one step *is*
#: :func:`fold_pairs` -- run the chain.  Measured (ms, 2-vCPU host, best
#: quartile of 40; one step / chain, arity 4 and arity 8), by layer
#: size: 32: 0.19 / 0.14, 0.20 / 0.19; 64: 0.19 / 0.21, 0.20 / 0.27;
#: 1024: 0.28 / 0.58, 0.31 / 0.99; 8192: 1.02 / 1.45, 0.90 / 1.81
#: (EXPERIMENTS.md "Polynomial kernels on the matrix unit").
_FOLD_GEMM_VALUES = 64


def fold_values(
    values: np.ndarray, beta: np.ndarray, shift: int, log_n: int, arity_bits: int = 1
) -> np.ndarray:
    """Fold by ``2**arity_bits`` over the coset ``shift * <omega_N>``.

    In natural order the coset of ``x_i`` is the indices ``i + j N /
    2**a``; writing ``f(x) = sum_k x**k f_k(x**(2**a))``, the folded
    value is ``sum_k beta**k f_k(x_i**(2**a))`` -- the same map as ``a``
    chained arity-2 folds (:func:`fold_pairs`, the ``k``-th at
    ``beta**(2**k)``, pairing the two halves of the layer).  From arity
    4 and ``_FOLD_GEMM_VALUES`` values it runs in one step: each coset's
    ``2**a``-point inverse DFT as one limb GEMM, the cached ``x_i**-k /
    2**a`` scale (:func:`fold_tables`), and one GEMM on the
    ``beta``-power dot.  Every output is the same canonical element.
    """
    if arity_bits < 2 or values.shape[0] < _FOLD_GEMM_VALUES:
        for _ in range(arity_bits):
            half = values.shape[0] // 2
            weights = fold_weights(log_n, int(shift))
            values = fold_pairs(values[:half], values[half:], weights, beta)
            beta, shift, log_n = fext.square(beta), gl.mul(shift, shift), log_n - 1
        return values
    rows, arity = values.shape[0] >> arity_bits, 1 << arity_bits
    dft, scale = fold_tables(log_n, int(shift), arity_bits)
    ws = RUN.workspace
    coeffs = ws.temp((rows, 2, arity), "fold:coeffs")
    source = np.ascontiguousarray(values).reshape(1, arity, 2 * rows, 1)
    gemm.contract_into(coeffs.reshape(1, 2 * rows, arity, 1), gemm.NO_ADDEND, (source, dft))
    gl64.mul_into(coeffs, scale, coeffs)
    # sum_k beta**k h_k over the (limb, k) words of a row: limb 0 meets
    # (b0, b1) of beta**k, limb 1 (W b1, b0).
    p, w = gl.P, fext.non_residue()
    b0, b1 = fext.to_pair(beta)
    powers = [(1, 0)]
    for _ in range(arity - 1):
        t0, t1 = powers[-1]
        powers.append(((t0 * b0 + w * t1 * b1) % p, (t0 * b1 + t1 * b0) % p))
    dot = [[t0, t1] for t0, t1 in powers] + [[w * t1 % p, t0] for t0, t1 in powers]
    table = ws.temp((gemm.LIMBS * 2 * arity, 4), "fold:beta", np.float64)
    gemm.limb_weights(dot, None, table)
    out = np.empty((rows, 2), dtype=np.uint64)
    dot_source = (coeffs.reshape(rows, 2 * arity, 1, 1), gemm.weight_chunks(table))
    gemm.contract_into(out.reshape(rows, 1, 2, 1), gemm.NO_ADDEND, dot_source)
    return gl64.canonical_into(out, out, coeffs[:, 0, :2])


#: Candidate witnesses :func:`grind` permutes at once: ``2**pow_bits``
#: (the expected search), at least 8 -- a vectorised permutation of 8
#: states costs about 2.5 scalar ones -- and at most
#: ``optimized._PERMUTE_ROWS``, past which a state costs no less (the
#: scratch is sized for that whatever the bits, so no prove grows it).
_GRIND_MIN, _GRIND_MAX = 8, 1024


def grind(challenger: Challenger, pow_bits: int) -> int:
    """Search the least witness whose response has ``pow_bits`` leading
    zeros -- the witness the scalar search (fork, observe, squeeze, one
    candidate at a time) finds -- trying a block of candidates per
    batched permutation (:meth:`Challenger.pow_states_into`).  The
    challenger permutation counter charges the ``witness + 1``
    candidates that search tries, as the scalar search did."""
    if not pow_bits:  # every response passes: the first candidate
        RUN.counters.challenger_permutations += 1
        return 0
    threshold = np.uint64(1 << (64 - pow_bits))
    block = min(max(1 << pow_bits, _GRIND_MIN), _GRIND_MAX)
    states = RUN.workspace.temp((_GRIND_MAX, WIDTH), "grind:states")[:block]
    start = 0
    while True:
        challenger.pow_states_into(np.arange(start, start + block, dtype=np.uint64), states)
        optimized.permute_into(states)
        hits = np.flatnonzero(states[:, 0] < threshold)
        if hits.size:
            witness = start + int(hits[0])
            RUN.counters.challenger_permutations += witness + 1
            return witness
        start += block


def check_pow(challenger: Challenger, witness: int, pow_bits: int) -> bool:
    """Verifier side of the grinding check."""
    fork = challenger.clone()
    fork.observe_element(witness)
    return fork.get_challenge() < (1 << (64 - pow_bits))


def folded_slots(
    indices: Sequence[int], size: int, leaves: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Where the values the verifier folds itself sit in a committed
    layer's opening: ``(positions, first)`` for a layer of ``size``
    values in ``leaves`` coset leaves, opened at the query positions
    ``indices``.

    Query ``p`` opens leaf ``p % leaves`` and folds, from the layer
    below, the value in its slot ``(p % size) // leaves``.  With the
    opened cosets flattened leaf after leaf (ascending leaf, then
    slot), ``positions`` are the distinct places those values take,
    ascending -- two queries may fold into one leaf, or into one slot
    -- and ``first[i]`` is the first query that folds into
    ``positions[i]``.
    """
    idx = np.asarray(indices, dtype=np.int64)
    _, row = np.unique(idx % leaves, return_inverse=True)
    return np.unique(row * (size // leaves) + (idx % size) // leaves, return_index=True)


def layer_opening(tree: MerkleTree, indices: Sequence[int]) -> TreeOpening:
    """A committed layer's opening at the query positions ``indices``:
    the opened cosets less the values :func:`folded_slots` places, one
    ``(m, 2)`` array leaf after leaf and slot after slot, plus the
    shared path nodes."""
    leaves = tree.num_leaves()
    opened = open_tree(tree, [i % leaves for i in indices])
    positions, _ = folded_slots(indices, leaves * opened.rows.shape[1] // 2, leaves)
    sent = np.delete(opened.rows.reshape(-1, 2), positions, axis=0)
    return TreeOpening(rows=sent, nodes=opened.nodes)


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
            values = fold_values(values, beta, shift, cur_log, arity_bits)
            shift = gl.pow_mod(shift, 1 << arity_bits)
            cur_log -= arity_bits

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
        batch_openings = [
            open_tree(b.tree, [i % b.tree.num_leaves() for i in indices]) for b in batches
        ]
        layer_openings = [layer_opening(tree, indices) for tree in trees]

    return FriProof(
        commit_caps=[t.cap.copy() for t in trees],
        final_poly=final_poly,
        pow_witness=pow_witness,
        batch_openings=batch_openings,
        layer_openings=layer_openings,
    )
