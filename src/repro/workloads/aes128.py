"""AES-128 workload (paper Table 6): one-block SPN circuit.

Used only for the PipeZK comparison.  Substitution: the byte-level AES
S-box needs lookup gadgets; we build an SPN with the same 10-round
structure using the field-native ``x^7`` S-box and a small MDS mixing
layer -- the standard "AES-shaped" ZK benchmark construction.
"""

from __future__ import annotations

from ..field import goldilocks as gl, matrix as fm
from ..plonk import CircuitBuilder
from .base import PlonkParams, StarkParams, WorkloadSpec

#: SPN geometry: 4 field elements wide, 10 rounds like AES-128.
STATE_WIDTH = 4
NUM_ROUNDS = 10
_MIX = fm.cauchy_mds(STATE_WIDTH)
_RC = [[gl.pow_mod(5, 17 * (r * STATE_WIDTH + i + 1)) for i in range(STATE_WIDTH)]
       for r in range(NUM_ROUNDS)]


def encrypt_reference(block: list[int], key: list[int]) -> list[int]:
    """Reference SPN encryption of one block."""
    state = [gl.add(b, k) for b, k in zip(block, key)]
    for r in range(NUM_ROUNDS):
        state = [gl.add(s, c) for s, c in zip(state, _RC[r])]
        state = [gl.pow_mod(s, 7) for s in state]
        state = fm.matvec(_MIX, state)
        state = [gl.add(s, k) for s, k in zip(state, key)]
    return state


def build_circuit(scale: int = 1):
    """Prove knowledge of a key encrypting a public block to a public
    ciphertext (``scale`` sequential blocks)."""
    b = CircuitBuilder()
    key_vars = [b.add_variable() for _ in range(STATE_WIDTH)]
    block = [gl.pow_mod(9, i + 1) for i in range(STATE_WIDTH)]
    key = [gl.pow_mod(13, i + 1) for i in range(STATE_WIDTH)]

    state = [b.add(b.constant(blk), kv) for blk, kv in zip(block, key_vars)]
    for _ in range(scale):
        for r in range(NUM_ROUNDS):
            state = [b.add(s, b.constant(c)) for s, c in zip(state, _RC[r])]
            # x^7 via three multiplies.
            new_state = []
            for s in state:
                s2 = b.mul(s, s)
                s4 = b.mul(s2, s2)
                s6 = b.mul(s4, s2)
                new_state.append(b.mul(s6, s))
            state = new_state
            mixed = []
            for i in range(STATE_WIDTH):
                acc = b.constant(0)
                for j in range(STATE_WIDTH):
                    term = b.mul(state[j], b.constant(int(_MIX[i][j])))
                    acc = b.add(acc, term)
                mixed.append(acc)
            state = [b.add(m, kv) for m, kv in zip(mixed, key_vars)]
    pubs = []
    for s in state:
        pub = b.public_input()
        b.assert_equal(pub, s)
        pubs.append(pub)
    circuit = b.build()

    expected = [int(v) for v in encrypt_reference(block, key)]
    for _ in range(scale - 1):
        expected = [int(v) for v in _next_block(expected, key)]
    inputs = {kv.index: k for kv, k in zip(key_vars, key)}
    for pub, val in zip(pubs, expected):
        inputs[pub.index] = val
    return circuit, inputs, expected


def _next_block(state: list[int], key: list[int]) -> list[int]:
    for r in range(NUM_ROUNDS):
        state = [gl.add(s, c) for s, c in zip(state, _RC[r])]
        state = [gl.pow_mod(s, 7) for s in state]
        state = fm.matvec(_MIX, state)
        state = [gl.add(s, k) for s, k in zip(state, key)]
    return state


SPEC = WorkloadSpec(
    name="AES-128",
    plonk=PlonkParams(name="AES-128", degree_bits=13, width=135),
    stark=StarkParams(name="AES-128", degree_bits=10, width=60),
    build_circuit=build_circuit,
    repro_note=(
        "Paper: one AES-128 block (Table 6, matching PipeZK's benchmark). "
        "Ours: a 10-round SPN with field-native S-boxes -- the standard "
        "AES-shaped ZK stand-in without byte-lookup gadgets."
    ),
)
