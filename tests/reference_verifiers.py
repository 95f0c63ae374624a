"""The per-query scalar verifiers, kept as the independent test oracle.

These are the bodies ``merkle.verify_multi`` and ``fri.fri_verify`` had
before verification moved onto the batched plane
(:func:`repro.merkle.verify_paths`, FRI checks on a query axis): one
tree's frontier walked at a time in a dict of known nodes (no
``_schedule``), one ``two_to_one`` per node, one extension inversion
per query per opening point.  Each FRI tree opening is authenticated
once, then each query reads its row by index and walks its fold chain
alone.  The FRI layer walk folds each
opened coset by its own rule -- the coset's Lagrange interpolant at
``beta``, in Python integers -- where the shipped verifier repeats the
prover's arity-2 :func:`repro.fri.prover.fold_pairs`; a virtual first
layer is the same rule over the coset of rows one initial leaf holds,
combined slot by slot.  Every extension operation -- the combined
quotient, the coset interpolation, the final polynomial -- is on
``(c0, c1)`` Python-int pairs, never through ``repro.field.extension``,
so a change to that module moves one side of the comparison only.
They share nothing with the batched code but
the sponge primitives (through ``tests/reference_oracles.py``), the
``fold_schedule`` and the ``initial_arity_bits`` layout rule, so
agreement between the two is evidence about both.

:func:`reference_plane` swaps them in under the real protocol
verifiers, which keeps the protocol-level structure checks and error
wrapping and replaces only the Merkle / FRI plane underneath.

One known difference is deliberate: the scalar ``verify_multi``
accepts a negative index whose low bits alias a real leaf (``cap[-1]``
wraps); the batched kernel rejects it.  No protocol verifier can pass
one: query indices come from the transcript.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence
from unittest import mock

import numpy as np

from repro.field import extension as fext, goldilocks as gl
from repro.fri.config import FriConfig, initial_arity_bits
from repro.fri.proof import FriProof
from repro.fri.prover import FriOpenings, check_pow
from repro.fri.verifier import FriError
from repro.hashing import Challenger
from repro.merkle import MerkleMultiProof

from .reference_oracles import hash_or_noop, two_to_one


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
    alpha: tuple,
    x: int,
) -> tuple:
    """Recompute the combined quotient value at one domain point."""
    total, alpha_t = (0, 0), (1, 0)
    for point, cols, vals in zip(openings.points, openings.columns, openings.values):
        num, const = (0, 0), (0, 0)
        for (b, c), y in zip(cols, vals):
            if not (0 <= b < len(leaves)):
                raise FriError("opened batch index out of range")
            leaf = leaves[b]
            if not (0 <= c < leaf.shape[0]):
                raise FriError("opened column exceeds initial leaf width")
            num = _ext_add(num, _ext_mul(alpha_t, (int(leaf[c]), 0)))
            const = _ext_add(const, _ext_mul(alpha_t, (int(y[0]), int(y[1]))))
            alpha_t = _ext_mul(alpha_t, alpha)
        num = _ext_sub(num, const)
        denom = _ext_sub((x, 0), fext.to_pair(point))
        if denom == (0, 0):
            # Inverting zero would leak a ZeroDivisionError; an opening
            # point on the evaluation domain is simply invalid.
            raise FriError("opening point lies on the evaluation domain")
        total = _ext_add(total, _ext_mul(num, _ext_inv(denom)))
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
    number of columns each opened row must carry (one entry per batch,
    an int or a tuple of admissible ints -- a batch that may carry
    optional blinding salt columns admits both widths):
    ``hash_or_noop`` zero-pads rows shorter than a digest, so without
    the width pin an attacker could present a padded or truncated leaf
    whose digest still matches the commitment.  Each entry's first
    width also feeds ``initial_arity_bits``: under its ``a > 0`` an
    initial leaf holds the ``2**a`` rows of one coset and the first
    layer is virtual (no cap, no layer opening).
    """
    degree_bits = degree_n.bit_length() - 1
    widths = [(w,) if isinstance(w, int) else tuple(w) for w in leaf_widths or ()]
    a = initial_arity_bits(config, degree_bits, [w[0] for w in widths]) if widths else 0

    challenger.observe_elements(openings.flat_values())
    alpha = fext.to_pair(challenger.get_ext_challenge())

    n_lde = degree_n << config.rate_bits
    log_lde = n_lde.bit_length() - 1
    schedule = config.fold_schedule(degree_bits)
    committed = schedule[1:] if a else schedule
    num_rounds = sum(schedule)
    if len(proof.commit_caps) != len(committed):
        raise FriError(f"expected {len(committed)} layer caps, got {len(proof.commit_caps)}")

    beta0 = fext.to_pair(challenger.get_ext_challenge()) if a else None
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

    # Every tree opening covers exactly the leaves the queries reach in
    # it and authenticates against its cap; then each query reads its
    # rows by index.
    m0 = n_lde >> a
    sizes = [m0]
    for bits in committed:
        sizes.append(sizes[-1] >> bits)
    if len(proof.batch_openings) != len(batch_caps):
        raise FriError("initial opening count mismatch")
    if len(proof.layer_openings) != len(committed):
        raise FriError("wrong number of layer openings")
    batches = [
        _opened_rows(op, cap, indices, m0, config.cap_height,
                     tuple(w << a for w in widths[b]) if widths else None, "initial")
        for b, (op, cap) in enumerate(zip(proof.batch_openings, batch_caps))
    ]
    layers = [
        _opened_rows(op, cap, indices, m, config.cap_height, (2 << bits,), "layer")
        for op, cap, m, bits in zip(proof.layer_openings, proof.commit_caps, sizes[1:], committed)
    ]

    omega = gl.primitive_root_of_unity(log_lde)
    betas = [fext.to_pair(beta) for beta in betas]
    for idx in indices:
        leaf_index = idx % m0
        leaves = [rows[leaf_index] for rows in batches]

        # Layer 0: slot j of every initial leaf is LDE row
        # leaf_index + j * m0.  Combine each slot's rows, then fold the
        # coset by its Lagrange interpolant at beta0 -- with row leaves a
        # one-point coset, whose interpolant is its value.
        xs = [
            gl.mul(gl.coset_shift(), gl.pow_mod(omega, leaf_index + j * m0))
            for j in range(1 << a)
        ]
        slots = [np.split(leaf, 1 << a) for leaf in leaves]
        coset = [
            _combined_at_index([s[j] for s in slots], openings, alpha, x)
            for j, x in enumerate(xs)
        ]
        value = _interpolate_at(xs, coset, beta0)

        # Walk the committed layers.
        cur = leaf_index
        size = m0
        shift = gl.pow_mod(gl.coset_shift(), 1 << a)
        for rows, beta, bits in zip(layers, betas, committed):
            m = size >> bits
            leaf_index = cur % m
            leaf = rows[leaf_index]
            coset = [(int(leaf[2 * j]), int(leaf[2 * j + 1])) for j in range(1 << bits)]
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
        x_final = (gl.mul(shift, gl.pow_mod(w, cur)), 0)
        expected = (0, 0)
        for c0, c1 in proof.final_poly.tolist()[::-1]:
            expected = _ext_add(_ext_mul(expected, x_final), (c0, c1))
        if expected != value:
            raise FriError("final polynomial evaluation mismatch")


def _opened_rows(opening, cap, indices, num_leaves, cap_height, widths, what) -> Dict[int, np.ndarray]:
    """``leaf index -> row`` of one tree opening, after checking that it
    opens exactly ``{i % num_leaves}`` with admissible row widths and
    authenticates against ``cap`` through :func:`verify_multi`.

    Validate the row shape before anything slices it: a truncated or
    reshaped leaf would otherwise be read into the wrong slots (or
    crash on a 0-d array), and ``hash_or_noop`` zero-pads 3-element
    rows into the same digest as a 4-element row ending in zero.
    """
    expected = tuple(sorted({int(i) % num_leaves for i in indices}))
    rows, nodes = opening.rows, opening.proof.nodes
    if tuple(opening.proof.indices) != expected:
        raise FriError(f"{what} opening does not open the queried indices")
    if not isinstance(rows, np.ndarray) or rows.ndim != 2 or rows.shape[0] != len(expected):
        raise FriError(f"{what} opening has wrong shape")
    if widths is not None and rows.shape[1] not in widths:
        raise FriError(f"{what} opening has wrong shape")
    depth = num_leaves.bit_length() - 1
    cap = np.atleast_2d(np.asarray(cap, dtype=np.uint64))
    if cap.shape[0] != 1 << min(cap_height, depth):
        raise FriError(f"{what} opening cap has the wrong height")
    leaves = dict(zip(expected, rows))
    proof = MerkleMultiProof(expected, np.asarray(nodes, dtype=np.uint64))
    if not verify_multi(leaves, proof, cap, depth, min(cap_height, depth)):
        raise FriError(f"{what} Merkle proof failed")
    return leaves


#: The extension's non-residue ``W``: the smallest one, found afresh.
_W = next(w for w in range(2, 100) if pow(w, (gl.P - 1) // 2, gl.P) == gl.P - 1)


def _ext_add(a, b):
    """Sum of two extension elements given as ``(c0, c1)`` ints."""
    return (a[0] + b[0]) % gl.P, (a[1] + b[1]) % gl.P


def _ext_sub(a, b):
    """Difference of two extension elements given as ``(c0, c1)`` ints."""
    return (a[0] - b[0]) % gl.P, (a[1] - b[1]) % gl.P


def _ext_mul(a, b):
    """Product of two extension elements given as ``(c0, c1)`` ints."""
    return (
        (a[0] * b[0] + _W * a[1] * b[1]) % gl.P,
        (a[0] * b[1] + a[1] * b[0]) % gl.P,
    )


def _ext_inv(a):
    """Inverse of a nonzero ``(c0, c1)`` element: conjugate over norm."""
    norm_inv = pow((a[0] * a[0] - _W * a[1] * a[1]) % gl.P, -1, gl.P)
    return a[0] * norm_inv % gl.P, -a[1] * norm_inv % gl.P


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
