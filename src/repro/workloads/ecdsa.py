"""ECDSA workload (paper app 3): signature-verification-shaped circuit.

The paper proves knowledge of a valid ECDSA signature over secp256k1,
whose in-circuit cost is dominated by a double-and-add scalar
multiplication: ~256 iterations of "square/double, then conditionally
combine, driven by a secret bit".

Substitution: implementing non-native 256-bit secp256k1 arithmetic is a
gadget-library effort orthogonal to this paper; we build a circuit with
the same *shape* -- a square-and-multiply modular exponentiation
``y = g**k`` in the Goldilocks field with the secret exponent ``k``
bit-decomposed in-circuit (booleanity constraints on every bit,
conditional multiplies per step).  Same dependency chain, same
secret-bit-driven dataflow; the performance models use the paper-scale
circuit size.
"""

from __future__ import annotations

from ..field import goldilocks as gl
from ..plonk import CircuitBuilder
from .base import PlonkParams, WorkloadSpec

#: Fixed base point stand-in (a generator of the field).
GENERATOR = 7


def build_circuit(scale: int):
    """Prove knowledge of ``k`` with ``g**k = y`` (``scale`` secret bits).

    Per bit (MSB first): ``acc = acc^2``, then ``acc *= g`` gated by the
    bit: ``factor = 1 + bit * (g - 1)`` keeps everything quadratic.
    """
    b = CircuitBuilder()
    bits = [b.add_variable() for _ in range(scale)]
    one = b.constant(1)
    zero = b.constant(0)
    for bit in bits:
        # booleanity: bit * bit - bit == 0
        sq = b.mul(bit, bit)
        diff = b.sub(sq, bit)
        b.assert_equal(diff, zero)
    acc = one
    g_minus_1 = b.constant(gl.sub(GENERATOR, 1))
    for bit in bits:
        acc = b.mul(acc, acc)
        gated = b.mul_add(bit, g_minus_1, one)  # 1 or g
        acc = b.mul(acc, gated)
    out = b.public_input()
    b.assert_equal(out, acc)
    circuit = b.build()

    secret_k = 0b1011 % (1 << scale) or 1
    bit_vals = [(secret_k >> (scale - 1 - i)) & 1 for i in range(scale)]
    expected = gl.pow_mod(GENERATOR, secret_k)
    inputs = {bit.index: v for bit, v in zip(bits, bit_vals)}
    inputs[out.index] = expected
    return circuit, inputs, [expected]


SPEC = WorkloadSpec(
    name="ECDSA",
    plonk=PlonkParams(name="ECDSA", degree_bits=17, width=170),
    build_circuit=build_circuit,
    repro_note=(
        "Paper: secp256k1 ECDSA verification of a 256-bit file-hash "
        "signature. Ours: secret-bit-driven square-and-multiply "
        "exponentiation with in-circuit bit decomposition -- the same "
        "double-and-add dataflow without non-native field gadgets."
    ),
)
