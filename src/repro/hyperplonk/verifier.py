"""HyperPlonk-lite verifier.

Replays the Fiat-Shamir transcript, checks the sumcheck rounds, then
spends its queries on *fold-consistency* spot checks: at each random
position the batched constraint value ``Q`` is recomputed from scratch
out of openings of the preprocessed / wires / Z commitments, and the
chain ``Q -> T1 -> T2 -> ... -> final_value`` is walked down the
committed folded levels with the sumcheck challenges.

Openings arrive batched per tree (format v2): the verifier re-derives
every index each query touches from the transcript
(:func:`~repro.hyperplonk.proof.query_index_sets`), demands that each
tree's multiproof covers exactly that sorted set
(:func:`repro.merkle.check_opening`), and authenticates
the openings of all ``3 + (v - 1)`` trees against their caps in one
:func:`repro.merkle.verify_paths` call.  Any
tampering with the round polynomials, the committed tables, or the
openings breaks either the running-claim check (in
:func:`repro.sumcheck.verify`) or one of the Merkle /
fold-consistency checks here.

All rejection paths raise :class:`HyperPlonkError` (or a ``ValueError``
subclass from a decoder) -- the typed-rejection contract the fuzzer
enforces across every registered protocol.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import tracing
from ..errors import VerifierError
from ..field import gl64, goldilocks as gl
from ..hashing import Challenger
from ..merkle import check_opening, verify_paths
from ..pcs import eq_at
from ..plonk.permutation import coset_representatives
from ..sumcheck import SumcheckError, verify as sumcheck_verify
from .proof import (
    HyperPlonkProof,
    HyperPlonkVerifierData,
    query_index_sets,
)


class HyperPlonkError(VerifierError):
    """Raised when a HyperPlonk-lite proof fails verification."""


def _check_elem(value: object, what: str) -> int:
    """A proof scalar must be a canonical field element."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise HyperPlonkError(f"{what} is not a field element")
    value = int(value)
    if not 0 <= value < gl.P:
        raise HyperPlonkError(f"{what} out of range")
    return value


def _check_words(proof: HyperPlonkProof) -> None:
    """Every proof word is canonical, before anything is hashed: the
    scalars one by one, the caps, rows and path nodes in one pass."""
    sc = proof.sumcheck
    _check_elem(sc.claimed_sum, "claimed sum")
    _check_elem(sc.final_value, "sumcheck final value")
    for pair in sc.round_values:
        for value in pair:
            _check_elem(value, "sumcheck round value")
    openings = [proof.pre_opening, proof.wires_opening, proof.z_opening]
    openings += proof.level_openings
    if not gl64.all_canonical(
        proof.wires_cap,
        proof.z_cap,
        *proof.level_caps,
        *(op.rows for op in openings),
        *(op.proof.nodes for op in openings),
    ):
        raise HyperPlonkError("proof word is not a canonical field element")


def _check_cap(cap: np.ndarray, what: str) -> np.ndarray:
    try:
        cap = np.atleast_2d(np.asarray(cap, dtype=np.uint64))
    except (TypeError, ValueError, OverflowError) as exc:
        raise HyperPlonkError(f"malformed {what}") from exc
    c = cap.shape[0]
    if cap.ndim != 2 or cap.shape[1] != 4 or c == 0 or c & (c - 1):
        raise HyperPlonkError(f"malformed {what}")
    return cap


def _base_q_value(
    vdata: HyperPlonkVerifierData,
    pre_row: np.ndarray,
    wires_row: np.ndarray,
    z_val: int,
    z_next: int,
    pos: int,
    pi_map: dict,
    beta: int,
    gamma: int,
    alpha: int,
    tau: Sequence[int],
) -> int:
    """Recompute ``Q[pos] = eq(tau, pos) * C[pos]`` from opened rows."""
    n = vdata.n
    sel = [int(x) for x in pre_row[:5]]
    sig = [int(x) for x in pre_row[5:8]]
    w = [int(x) for x in wires_row]

    gate = gl.add(
        gl.add(
            gl.add(gl.mul(sel[0], w[0]), gl.mul(sel[1], w[1])),
            gl.mul(sel[2], gl.mul(w[0], w[1])),
        ),
        gl.add(gl.add(gl.mul(sel[3], w[2]), sel[4]), pi_map.get(pos, 0)),
    )

    omega = gl.primitive_root_of_unity(n.bit_length() - 1)
    x = gl.pow_mod(omega, pos)
    f_val = 1
    g_val = 1
    for j, k in enumerate(coset_representatives()):
        f_val = gl.mul(
            f_val, gl.add(gl.add(w[j], gl.mul(gl.mul(k, x), beta)), gamma)
        )
        g_val = gl.mul(g_val, gl.add(gl.add(w[j], gl.mul(sig[j], beta)), gamma))
    perm = gl.sub(gl.mul(z_val, f_val), gl.mul(z_next, g_val))
    l0 = gl.sub(z_val, 1) if pos == 0 else 0

    c_val = gl.add(
        gl.add(gate, gl.mul(alpha, perm)),
        gl.mul(gl.mul(alpha, alpha), l0),
    )
    return gl.mul(eq_at(tau, pos), c_val)


def verify(
    vdata: HyperPlonkVerifierData,
    proof: HyperPlonkProof,
    challenger: Challenger | None = None,
) -> None:
    """Verify a HyperPlonk-lite proof; raises :class:`HyperPlonkError`."""
    with tracing.span("verify", category="verify", protocol="hyperplonk", n=vdata.n):
        _verify(vdata, proof, challenger or Challenger())


def _verify(
    vdata: HyperPlonkVerifierData, proof: HyperPlonkProof, challenger: Challenger
) -> None:
    n = vdata.n
    v = n.bit_length() - 1
    config = vdata.config

    with tracing.span("verify:transcript", category="verify"):
        publics = list(proof.public_inputs)
        if len(publics) != vdata.num_public_inputs:
            raise HyperPlonkError("wrong number of public inputs")
        publics = [_check_elem(p, "public input") for p in publics]
        _check_words(proof)
        pi_map = {
            row: gl.neg(val) for row, val in zip(vdata.public_input_rows, publics)
        }
        wires_cap = _check_cap(proof.wires_cap, "wires cap")
        z_cap = _check_cap(proof.z_cap, "Z cap")

        challenger.observe_cap(vdata.preprocessed_cap)
        challenger.observe_elements(np.asarray(publics, dtype=np.uint64))
        challenger.observe_cap(wires_cap)
        beta = challenger.get_challenge()
        gamma = challenger.get_challenge()
        challenger.observe_cap(z_cap)
        alpha = challenger.get_challenge()
        tau = challenger.get_n_challenges(v)

    with tracing.span("verify:sumcheck", category="verify", rounds=v):
        sc = proof.sumcheck
        if sc.claimed_sum != 0:
            raise HyperPlonkError("zerocheck claims a nonzero sum")
        if len(proof.level_caps) != v - 1:
            raise HyperPlonkError("wrong number of fold-level caps")
        level_caps = [
            _check_cap(cap, "fold-level cap") for cap in proof.level_caps
        ]

        def absorb_level(k: int, _r: int) -> None:
            # Mirror of the prover's per-fold commitment: levels of size
            # > 1 exist for every round but the last.
            if k < v - 1:
                challenger.observe_cap(level_caps[k])

        try:
            rs = sumcheck_verify(sc, v, challenger, on_challenge=absorb_level)
        except SumcheckError as exc:
            raise HyperPlonkError(f"sumcheck transcript rejected: {exc}") from exc

        # Queries sample the pair index j in [0, n/2) directly (the fold
        # walk only ever consumes the pair (j, j + n/2)).
        indices = challenger.get_indices(config.num_queries, n // 2)

    with tracing.span("verify:merkle", category="verify", trees=v + 2):
        num_levels = v - 1
        if len(proof.level_openings) != num_levels:
            raise HyperPlonkError("wrong number of fold-level openings")
        base_set, z_set, level_sets = query_index_sets(indices, n, num_levels)

        # Every tree's opening is validated first; then all of them
        # climb to their caps together.
        ch = config.cap_height
        trees = [
            (proof.pre_opening, base_set, 8, vdata.preprocessed_cap, n,
             "preprocessed opening"),
            (proof.wires_opening, base_set, 3, wires_cap, n, "wires opening"),
            (proof.z_opening, z_set, 1, z_cap, n, "Z opening"),
        ] + [
            (op, s, 1, cap, (n // 2) >> k, "fold-level opening")
            for k, (op, cap, s) in enumerate(
                zip(proof.level_openings, level_caps, level_sets)
            )
        ]
        try:
            paths = [
                check_opening(op, s, width, cap, leaves, ch, what)
                for op, s, width, cap, leaves, what in trees
            ]
        except ValueError as exc:
            raise HyperPlonkError(str(exc)) from exc
        verdicts = verify_paths(paths)
        for ok, (*_, what) in zip(verdicts, trees):
            if not ok:
                raise HyperPlonkError(f"{what} fails its Merkle check")
        pre_map, wires_map, z_map, *level_maps = (
            dict(zip(path.indices, path.rows)) for path in paths
        )

    with tracing.span("verify:fold", category="verify", queries=len(indices)):
        for j in indices:
            lo_pos, hi_pos = j, j + n // 2
            q_lo = _base_q_value(
                vdata, pre_map[lo_pos], wires_map[lo_pos],
                int(z_map[lo_pos][0]), int(z_map[(lo_pos + 1) % n][0]),
                lo_pos, pi_map, beta, gamma, alpha, tau,
            )
            q_hi = _base_q_value(
                vdata, pre_map[hi_pos], wires_map[hi_pos],
                int(z_map[hi_pos][0]), int(z_map[(hi_pos + 1) % n][0]),
                hi_pos, pi_map, beta, gamma, alpha, tau,
            )
            cur = gl.add(gl.mul(q_lo, gl.sub(1, rs[0])), gl.mul(q_hi, rs[0]))
            pos = j
            for k in range(num_levels):
                half = (n // 4) >> k
                p = pos % half
                lo = int(level_maps[k][p][0])
                hi = int(level_maps[k][p + half][0])
                mine = lo if pos == p else hi
                if mine != cur:
                    raise HyperPlonkError("fold consistency check failed")
                cur = gl.add(gl.mul(lo, gl.sub(1, rs[k + 1])), gl.mul(hi, rs[k + 1]))
                pos = p
            if cur != proof.sumcheck.final_value:
                raise HyperPlonkError(
                    "fold chain does not reach the sumcheck final value"
                )
