"""SHA-256 workload (paper apps 4 / Table 6): hash-preimage circuit.

The paper proves possession of a message for a given SHA-256 digest
(126 blocks of an 8000 B message for Table 3; one block for Table 6),
and uses a Starky version for Tables 5/6.

Substitution: a bit-decomposed SHA-256 gadget is thousands of lines of
plumbing orthogonal to the accelerator; we build a sponge-style
*algebraic* compression function with the same round structure (message
absorption, nonlinear mixing per round, chained across blocks):
``s' = (s + m)^2 * alpha + s + rc_r`` per round -- the MiMC-style shape
used by real ZK-friendly hashes.  The dataflow (per-block rounds with a
sequential chain across blocks) matches SHA-256's in-circuit layout.
"""

from __future__ import annotations

from ..field import goldilocks as gl
from ..plonk import CircuitBuilder
from ..stark import Air
from .base import PlonkParams, StarkParams, WorkloadSpec

#: Rounds per block in the stand-in compression function.
ROUNDS_PER_BLOCK = 8
_ALPHA = 5
_RC = [gl.pow_mod(3, 41 * (r + 1)) for r in range(ROUNDS_PER_BLOCK)]


def compress_reference(state: int, message_words: list[int]) -> int:
    """Reference (non-circuit) compression of one block."""
    s = state
    for r in range(ROUNDS_PER_BLOCK):
        m = message_words[r % len(message_words)]
        t = gl.add(s, m)
        s = gl.add(gl.add(gl.mul(gl.mul(t, t), _ALPHA), s), _RC[r])
    return s


def hash_reference(message_words: list[int], words_per_block: int = 4) -> int:
    """Chain compressions across blocks (Merkle-Damgard shape)."""
    state = 0
    for start in range(0, len(message_words), words_per_block):
        state = compress_reference(state, message_words[start : start + words_per_block])
    return state


def build_circuit(scale: int):
    """Prove knowledge of a ``scale``-block preimage of a public digest."""
    words_per_block = 4
    b = CircuitBuilder()
    msg_vars = [b.add_variable() for _ in range(scale * words_per_block)]
    state = b.constant(0)
    alpha = b.constant(_ALPHA)
    for blk in range(scale):
        block = msg_vars[blk * words_per_block : (blk + 1) * words_per_block]
        for r in range(ROUNDS_PER_BLOCK):
            m = block[r % words_per_block]
            t = b.add(state, m)
            t2 = b.mul(t, t)
            mixed = b.mul(t2, alpha)
            state = b.add(b.add(mixed, state), b.constant(_RC[r]))
    digest = b.public_input()
    b.assert_equal(digest, state)
    circuit = b.build()

    message = [gl.pow_mod(11, i + 1) for i in range(scale * words_per_block)]
    expected = hash_reference(message, words_per_block)
    inputs = {v.index: m for v, m in zip(msg_vars, message)}
    inputs[digest.index] = expected
    return circuit, inputs, [expected]


class CompressionAir(Air):
    """AET for the stand-in compression chain (one row per round).

    Columns ``(s, m)``: running state and the message word consumed this
    round.  Transition: ``s' = alpha * (s + m)^2 + s + RC[row mod R]``
    with the per-row round constant supplied as a constant column;
    message words are free witness values.  Boundary: ``s[0] = 0`` and
    the final state equals the public digest.
    """

    width = 2
    constraint_degree = 2

    def eval_transition(self, local, nxt, alg):  # pragma: no cover - unused
        raise NotImplementedError("uses constant columns")

    def eval_transition_with_constants(self, local, nxt, constants, alg):
        s, m = local
        rc = constants[0]
        t = alg.add(s, m)
        mixed = alg.mul_const(alg.mul(t, t), _ALPHA)
        return [alg.sub(nxt[0], alg.add(alg.add(mixed, s), rc))]

    def constant_columns(self, n):
        import numpy as np

        col = np.array([_RC[r % ROUNDS_PER_BLOCK] for r in range(n)], dtype=np.uint64)
        # The last transition (row n-2 -> n-1) still applies; the final
        # row holds the digest and has no outgoing transition.
        return col[None, :]

    def boundary_constraints(self, publics):
        from ..stark import BoundaryConstraint

        last_row, digest = publics
        return [
            BoundaryConstraint(0, 0, 0),
            BoundaryConstraint(int(last_row), 0, int(digest)),
        ]


def build_air(log_rows: int):
    """Trace of ``2**log_rows - 1`` compression rounds plus the digest row."""
    import numpy as np

    n = 1 << log_rows
    rng = np.random.default_rng(17)
    msgs = rng.integers(0, gl.P, size=n, dtype=np.uint64)
    trace = np.zeros((n, 2), dtype=np.uint64)
    s = 0
    for r in range(n - 1):
        trace[r] = (s, msgs[r])
        t = gl.add(s, int(msgs[r]))
        s = gl.add(gl.add(gl.mul(gl.mul(t, t), _ALPHA), s), _RC[r % ROUNDS_PER_BLOCK])
    trace[n - 1] = (s, 0)
    publics = [n - 1, s]
    return CompressionAir(), trace, publics


SPEC = WorkloadSpec(
    name="SHA-256",
    plonk=PlonkParams(name="SHA-256", degree_bits=20, width=155),
    stark=StarkParams(name="SHA-256", degree_bits=14, width=700, constraint_ops_factor=8),
    build_circuit=build_circuit,
    build_air=build_air,
    repro_note=(
        "Paper: SHA-256 preimage of an 8000 B / 126-block message "
        "(plonky2-sha256, sha256-starky). Ours: an algebraic "
        "Merkle-Damgard compression chain with per-round nonlinear "
        "mixing -- same block/round structure without the bit-"
        "decomposition gadget."
    ),
)
