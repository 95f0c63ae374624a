"""The per-query scalar verifiers, kept as the independent test oracle.

These are the bodies ``merkle.verify_proof``, ``merkle.verify_multi``
and ``fri.fri_verify`` had before verification moved onto the batched
plane (:func:`repro.merkle.verify_paths`, FRI checks on a query axis):
one path walked at a time, one ``two_to_one`` per node, one extension
inversion per query per opening point.  The FRI layer walk folds each
opened coset by its own rule -- the coset's Lagrange interpolant at
``beta``, in Python integers -- where the shipped verifier repeats the
prover's arity-2 :func:`repro.fri.prover.fold_pairs`.  They share
nothing with the batched code but the sponge primitives (through
``tests/reference_oracles.py``) and the ``fold_schedule``, so agreement
between the two is evidence about both.

:func:`reference_plane` swaps them in under the real protocol
verifiers, which keeps the protocol-level structure checks and error
wrapping and replaces only the Merkle / FRI plane underneath.

One known difference is deliberate: the scalar ``verify_proof`` /
``verify_multi`` accept a negative index whose low bits alias a real
leaf (``cap[-1]`` wraps); the batched kernel rejects it.  No protocol
verifier can pass one: query indices come from the transcript.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence
from unittest import mock

import numpy as np

from repro.field import extension as fext, goldilocks as gl
from repro.fri.config import FriConfig
from repro.fri.proof import FriProof
from repro.fri.prover import FriOpenings, check_pow
from repro.fri.verifier import FriError
from repro.hashing import Challenger
from repro.merkle import MerkleMultiProof, MerkleProof

from .reference_oracles import hash_or_noop, two_to_one


def verify_proof(
    leaf_data: np.ndarray,
    index: int,
    proof: MerkleProof,
    cap: np.ndarray,
) -> bool:
    """Check an authentication path against a cap.

    ``leaf_data`` is the raw leaf row (the verifier re-hashes it).
    """
    digest = hash_or_noop(np.atleast_2d(np.asarray(leaf_data, dtype=np.uint64)))[0]
    for sibling in proof.siblings:
        if index & 1:
            digest = two_to_one(sibling, digest)
        else:
            digest = two_to_one(digest, sibling)
        index >>= 1
    cap = np.atleast_2d(np.asarray(cap, dtype=np.uint64))
    if index >= cap.shape[0]:
        return False
    return bool(np.array_equal(digest, cap[index]))


def verify_multi(
    leaves: Dict[int, np.ndarray],
    proof: MerkleMultiProof,
    cap: np.ndarray,
    tree_depth: int,
    cap_height: int = 0,
) -> bool:
    """Verify a multiproof against a cap.

    ``leaves`` maps each opened index to its raw leaf row; the digests
    are recomputed, combined with ``proof.nodes`` in consumption order,
    and the derived cap entries are compared.
    """
    if tuple(sorted(leaves)) != proof.indices:
        return False
    current: Dict[int, np.ndarray] = {
        i: hash_or_noop(np.atleast_2d(np.asarray(row, dtype=np.uint64)))[0]
        for i, row in leaves.items()
    }
    cursor = 0
    levels = tree_depth - cap_height
    for _ in range(levels):
        nxt: Dict[int, np.ndarray] = {}
        for i in sorted(current):
            parent = i >> 1
            if parent in nxt:
                continue
            sibling = i ^ 1
            if sibling in current:
                sib_digest = current[sibling]
            else:
                if cursor >= proof.nodes.shape[0]:
                    return False
                sib_digest = proof.nodes[cursor]
                cursor += 1
            left, right = (current[i], sib_digest) if i % 2 == 0 else (sib_digest, current[i])
            nxt[parent] = two_to_one(left, right)
        current = nxt
    if cursor != proof.nodes.shape[0]:
        return False
    cap = np.atleast_2d(np.asarray(cap, dtype=np.uint64))
    for slot, digest in current.items():
        if slot >= cap.shape[0] or not np.array_equal(digest, cap[slot]):
            return False
    return True


def _combined_at_index(
    leaves: Sequence[np.ndarray],
    openings: FriOpenings,
    alpha: np.ndarray,
    x: int,
) -> np.ndarray:
    """Recompute the combined quotient value at one domain point."""
    total = fext.zero()
    alpha_t = fext.one()
    for point, cols, vals in zip(openings.points, openings.columns, openings.values):
        num = fext.zero()
        const = fext.zero()
        for (b, c), y in zip(cols, vals):
            if not (0 <= b < len(leaves)):
                raise FriError("opened batch index out of range")
            leaf = leaves[b]
            if not (0 <= c < leaf.shape[0]):
                raise FriError("opened column exceeds initial leaf width")
            f_val = int(leaf[c])
            num = fext.add(num, fext.scalar_mul(alpha_t, np.uint64(f_val)))
            const = fext.add(const, fext.mul(alpha_t, y))
            alpha_t = fext.mul(alpha_t, alpha.reshape(2))
        num = fext.sub(num, const)
        denom = fext.sub(fext.from_base(np.uint64(x)), point.reshape(2))
        if bool(fext.is_zero(denom)):
            # Inverting zero would leak a ZeroDivisionError; an opening
            # point on the evaluation domain is simply invalid.
            raise FriError("opening point lies on the evaluation domain")
        total = fext.add(total, fext.mul(num, fext.inv(denom)))
    return total


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
    number of elements each initial-opening leaf must carry (one entry
    per batch, an int or a tuple of admissible ints -- a batch that may
    carry optional blinding salt columns admits both widths):
    ``hash_or_noop`` zero-pads rows shorter than a digest, so without
    the width pin an attacker could present a padded or truncated leaf
    whose digest still matches the commitment.
    """
    challenger.observe_elements(openings.flat_values())
    alpha = challenger.get_ext_challenge()

    n_lde = degree_n << config.rate_bits
    log_lde = n_lde.bit_length() - 1
    schedule = config.fold_schedule(degree_n.bit_length() - 1)
    num_rounds = sum(schedule)
    if len(proof.commit_caps) != len(schedule):
        raise FriError(f"expected {len(schedule)} layer caps, got {len(proof.commit_caps)}")

    betas: List[np.ndarray] = []
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
    if len(proof.query_rounds) != len(indices):
        raise FriError("wrong number of query rounds")

    omega = gl.primitive_root_of_unity(log_lde)
    betas = [fext.to_pair(beta) for beta in betas]
    for idx, qr in zip(indices, proof.query_rounds):
        if qr.index != idx:
            raise FriError("query index mismatch with transcript")
        # Initial openings against every original commitment.  The
        # leaves/proofs lists must pair off exactly -- ``zip`` would
        # silently truncate the check loop (skipping Merkle checks for
        # the unpaired leaves) if one list were shorter.
        if len(qr.initial.leaves) != len(batch_caps):
            raise FriError("initial opening count mismatch")
        if len(qr.initial.proofs) != len(qr.initial.leaves):
            raise FriError("initial opening count mismatch")
        for b, (leaf, prf, cap) in enumerate(
            zip(qr.initial.leaves, qr.initial.proofs, batch_caps)
        ):
            if leaf.ndim != 1:
                raise FriError("malformed initial leaf")
            if leaf_widths is not None:
                allowed = leaf_widths[b]
                if isinstance(allowed, int):
                    allowed = (allowed,)
                if leaf.shape[0] not in allowed:
                    raise FriError("malformed initial leaf")
            if not verify_proof(leaf, idx, prf, cap):
                raise FriError("initial Merkle proof failed")
        x = gl.mul(gl.coset_shift(), gl.pow_mod(omega, idx))
        value = fext.to_pair(_combined_at_index(qr.initial.leaves, openings, alpha, x))

        # Walk the committed layers.
        cur = idx
        size = n_lde
        shift = gl.coset_shift()
        if len(qr.layers) != len(schedule):
            raise FriError("wrong number of layer openings")
        for layer, beta, cap, bits in zip(qr.layers, betas, proof.commit_caps, schedule):
            m = size >> bits
            leaf_index = cur % m
            # Validate the leaf shape before slicing: a truncated or
            # reshaped leaf would otherwise be read into the wrong slots
            # (or crash on a 0-d array), and ``hash_or_noop`` zero-pads
            # 3-element rows into the same digest as a 4-element row
            # ending in zero.
            if layer.coset_leaf.shape != (2 << bits,):
                raise FriError("malformed layer leaf")
            if not verify_proof(layer.coset_leaf, leaf_index, layer.proof, cap):
                raise FriError("layer Merkle proof failed")
            coset = [
                (int(layer.coset_leaf[2 * j]), int(layer.coset_leaf[2 * j + 1]))
                for j in range(1 << bits)
            ]
            if coset[cur // m] != value:
                raise FriError("fold consistency check failed")
            # Slot j holds the point shift * w^(leaf_index + j * m).
            w = gl.primitive_root_of_unity(size.bit_length() - 1)
            xs = [gl.mul(shift, gl.pow_mod(w, leaf_index + j * m)) for j in range(1 << bits)]
            value = _interpolate_at(xs, coset, beta)
            cur = leaf_index
            size = m
            shift = gl.pow_mod(shift, 1 << bits)

        # Final polynomial check at the residual domain point.
        w = gl.primitive_root_of_unity(size.bit_length() - 1)
        x_final = fext.from_base(np.uint64(gl.mul(shift, gl.pow_mod(w, cur))))
        expected = fext.to_pair(fext.eval_poly_ext(proof.final_poly, x_final))
        if expected != value:
            raise FriError("final polynomial evaluation mismatch")


def _ext_mul(a, b):
    """Product of two extension elements given as ``(c0, c1)`` ints."""
    return (
        (a[0] * b[0] + fext.non_residue() * a[1] * b[1]) % gl.P,
        (a[0] * b[1] + a[1] * b[0]) % gl.P,
    )


def _interpolate_at(xs, ys, beta):
    """The degree-``< len(xs)`` interpolant through ``(xs[j], ys[j])``
    evaluated at the extension point ``beta``, in Lagrange form.

    This is what folding a coset of arity ``len(xs)`` at ``beta`` means:
    for ``f(X) = sum_r X^r f_r(X^len)`` the interpolant of ``f`` on the
    coset of ``x`` is ``sum_r X^r f_r(x^len)``, and FRI's folded value
    is that at ``X = beta``.  Shares nothing with ``fri.fold_pairs``.
    """
    total = (0, 0)
    for j, (xj, yj) in enumerate(zip(xs, ys)):
        num, den = (1, 0), 1
        for i, xi in enumerate(xs):
            if i != j:
                num = _ext_mul(num, ((beta[0] - xi) % gl.P, beta[1]))
                den = den * (xj - xi) % gl.P
        term = _ext_mul(num, yj)
        inv = pow(den, -1, gl.P)
        total = ((total[0] + term[0] * inv) % gl.P, (total[1] + term[1] * inv) % gl.P)
    return total


def verify_paths(openings) -> np.ndarray:
    """:func:`repro.merkle.verify_paths` by walking each opening alone."""
    verdicts = []
    for op in openings:
        if op.levels is None:
            (row,), (index,) = op.rows, op.indices
            verdicts.append(verify_proof(row, index, MerkleProof(op.nodes), op.cap))
        else:
            leaves = dict(zip(op.indices, op.rows))
            proof = MerkleMultiProof(tuple(op.indices), op.nodes)
            verdicts.append(verify_multi(leaves, proof, op.cap, op.levels))
    return np.array(verdicts, dtype=bool)


@contextmanager
def reference_plane() -> Iterator[None]:
    """Run the protocol verifiers over the scalar Merkle / FRI plane."""
    with mock.patch("repro.stark.verifier.fri_verify", fri_verify), mock.patch(
        "repro.plonk.verifier.fri_verify", fri_verify
    ), mock.patch("repro.hyperplonk.verifier.verify_paths", verify_paths):
        yield
