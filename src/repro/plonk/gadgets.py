"""In-circuit gadgets: Poseidon, Merkle paths, selection, bits.

Recursive proof aggregation (paper Sections 2.2 and 7.4) works by
expressing a proof *verifier* as a circuit.  The dominant cost of a
FRI verifier is Poseidon hashing (Merkle paths, the transcript), so the
two gadgets here -- an in-circuit Poseidon permutation and an
in-circuit Merkle-path check -- are the substrate the recursion cost
model stands on.  The gate counts they produce also ground the
fixed-size recursion circuit parameters used by Table 5.

Gadgets build on the plain :class:`CircuitBuilder` gate set; each
returns circuit variables whose generated witness values equal the
reference implementation (property-tested).

Note on gate density: with vanilla 3-wire Plonk gates one permutation
costs ~5000 rows.  Plonky2 reaches its small fixed recursion circuits
(~2^12-2^15 rows) with width-135 *custom gates* that evaluate an entire
Poseidon round per row -- the same width-135 rows our paper-scale
performance parameters assume.  The gadgets here demonstrate the
functionality; the recursion *cost model* (``RECURSION_PARAMS``) uses
the wide-gate geometry.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..field import goldilocks as gl
from ..hashing.constants import WIDTH, mds_matrix, round_constants
from ..hashing.sparse import optimized_params
from .circuit import CircuitBuilder, Variable


def select(builder: CircuitBuilder, bit: Variable, a: Variable, b: Variable) -> Variable:
    """Return ``bit ? a : b`` (``bit`` must be boolean-constrained).

    ``out = b + bit * (a - b)`` -- two gates.
    """
    diff = builder.sub(a, b)
    scaled = builder.mul(bit, diff)
    return builder.add(b, scaled)


def assert_boolean(builder: CircuitBuilder, bit: Variable) -> None:
    """Constrain ``bit * (bit - 1) == 0``."""
    zero = builder.constant(0)
    sq = builder.mul(bit, bit)
    diff = builder.sub(sq, bit)
    builder.assert_equal(diff, zero)


def split_bits(builder: CircuitBuilder, value: Variable, num_bits: int) -> List[Variable]:
    """Decompose ``value`` into ``num_bits`` boolean-constrained bits.

    Bits are witness inputs derived by a generator; the gadget
    constrains booleanity and the weighted recomposition.
    """
    bits = []
    for i in range(num_bits):
        bit = builder.add_virtual(lambda v, i=i: (v >> i) & 1, [value])
        assert_boolean(builder, bit)
        bits.append(bit)
    # Recompose: sum bits[i] * 2^i == value.
    acc = builder.constant(0)
    for i in range(num_bits):
        coeff = builder.constant(1 << i)
        term = builder.mul(bits[i], coeff)
        acc = builder.add(acc, term)
    builder.assert_equal(acc, value)
    return bits


def _linear_combination(
    builder: CircuitBuilder, terms: Sequence[Tuple[Variable, int]]
) -> Variable:
    """Gate chain computing ``sum coeff * var``."""
    acc = builder.constant(0)
    for var, coeff in terms:
        scaled = builder.mul(var, builder.constant(coeff))
        acc = builder.add(acc, scaled)
    return acc


def _pow7(builder: CircuitBuilder, x: Variable) -> Variable:
    """Four multiply gates computing ``x^7``."""
    x2 = builder.mul(x, x)
    x3 = builder.mul(x2, x)
    x4 = builder.mul(x2, x2)
    return builder.mul(x4, x3)


def poseidon_permutation(
    builder: CircuitBuilder,
    state: Sequence[Variable],
    full_rounds: int | None = None,
    partial_rounds: int | None = None,
) -> List[Variable]:
    """In-circuit Poseidon permutation (optimised HADES form).

    With default round counts this is the real permutation (witness
    values equal :func:`repro.hashing.permute`); reduced counts exist
    for fast end-to-end proving tests and scale the same way.
    """
    if len(state) != WIDTH:
        raise ValueError(f"state must have {WIDTH} variables")
    params = optimized_params()
    full_rc, _ = round_constants()
    mds = mds_matrix()
    n_full = 8 if full_rounds is None else full_rounds
    n_partial = len(params.rounds) if partial_rounds is None else partial_rounds
    if n_full % 2:
        raise ValueError("full_rounds must be even (split around partials)")
    half = n_full // 2
    state = list(state)

    def full_round(state: List[Variable], r: int) -> List[Variable]:
        sboxed = []
        for lane in range(WIDTH):
            shifted = builder.add(state[lane], builder.constant(int(full_rc[r][lane])))
            sboxed.append(_pow7(builder, shifted))
        return [
            _linear_combination(
                builder, [(sboxed[i], int(mds[i, j])) for i in range(WIDTH)]
            )
            for j in range(WIDTH)
        ]

    for r in range(half):
        state = full_round(state, r)

    # Pre-partial: add constants, multiply by the lane-0-preserving matrix.
    state = [
        builder.add(state[i], builder.constant(int(params.pre_constants[i])))
        for i in range(WIDTH)
    ]
    pre = params.pre_matrix
    state = [
        _linear_combination(builder, [(state[i], int(pre[i, j])) for i in range(WIDTH)])
        for j in range(WIDTH)
    ]

    # Partial rounds with the sparse matrices.
    for rnd in params.rounds[:n_partial]:
        lane0 = _pow7(builder, state[0])
        lane0 = builder.add(lane0, builder.constant(rnd.post_constant))
        out0_terms = [(lane0, rnd.m00)] + [
            (state[i + 1], int(rnd.col_hat[i])) for i in range(WIDTH - 1)
        ]
        out0 = _linear_combination(builder, out0_terms)
        rest = []
        for j in range(WIDTH - 1):
            scaled = builder.mul(lane0, builder.constant(int(rnd.row[j])))
            rest.append(builder.add(scaled, state[j + 1]))
        state = [out0] + rest

    for r in range(half, n_full):
        state = full_round(state, r)
    return state


def poseidon_two_to_one(
    builder: CircuitBuilder,
    left: Sequence[Variable],
    right: Sequence[Variable],
    **round_kwargs,
) -> List[Variable]:
    """In-circuit Merkle two-to-one compression: digest of two digests."""
    if len(left) != 4 or len(right) != 4:
        raise ValueError("digests are 4 variables each")
    zero = builder.constant(0)
    state = list(left) + list(right) + [zero] * 4
    out = poseidon_permutation(builder, state, **round_kwargs)
    return out[:4]


def merkle_verify(
    builder: CircuitBuilder,
    leaf_digest: Sequence[Variable],
    index_bits: Sequence[Variable],
    siblings: Sequence[Sequence[Variable]],
    root: Sequence[Variable],
    **round_kwargs,
) -> None:
    """Constrain a Merkle authentication path inside the circuit.

    ``index_bits`` (boolean-constrained, LSB first) steer which side the
    running digest takes at each level, using :func:`select`; the final
    digest is copy-constrained to ``root``.  This is the core gadget of
    a recursive FRI verifier.
    """
    if len(index_bits) != len(siblings):
        raise ValueError("one index bit per tree level")
    digest = list(leaf_digest)
    for bit, sibling in zip(index_bits, siblings):
        assert_boolean(builder, bit)
        left = [select(builder, bit, sibling[k], digest[k]) for k in range(4)]
        right = [select(builder, bit, digest[k], sibling[k]) for k in range(4)]
        digest = poseidon_two_to_one(builder, left, right, **round_kwargs)
    for k in range(4):
        builder.assert_equal(digest[k], root[k])
