"""Quickstart: prove the paper's own example statement.

Figure 1 of the UniZK paper walks through proving knowledge of
``(x0, x1, x2, x3)`` with ``(x0 + x1) * (x2 * x3) = 99``.  This script
builds exactly that circuit, generates a Plonk proof with the FRI
commitment scheme, verifies it, and shows what happens with a cheating
witness.

Run:  python examples/quickstart.py
"""

import time

from repro.fri import FriConfig
from repro.plonk import CircuitBuilder, PlonkError, prove, setup, verify


def main() -> None:
    # 1. Arithmetization: the circuit of Figure 1.
    builder = CircuitBuilder()
    x0, x1, x2, x3 = (builder.add_variable() for _ in range(4))
    total = builder.add(x0, x1)  # x4 = x0 + x1
    product = builder.mul(x2, x3)  # x5 = x2 * x3
    out = builder.mul(total, product)  # x6 = x4 * x5
    builder.assert_constant(out, 99)  # x6 == 99
    circuit = builder.build()
    print(f"circuit: {circuit.n} rows, {circuit.num_vars} variables")

    # 2. Setup: commit the selector and sigma polynomials.
    config = FriConfig(
        rate_bits=3,  # blowup 8, as Plonky2
        cap_height=1,
        num_queries=12,
        proof_of_work_bits=8,
        final_poly_len=4,
    )
    data = setup(circuit, config)

    # 3. Prove: the prover knows (2, 9, 3, 3) -> (2+9) * (3*3) = 99.
    witness = {x0.index: 2, x1.index: 9, x2.index: 3, x3.index: 3}
    t0 = time.time()
    proof = prove(data, witness)
    print(f"proved in {time.time() - t0:.2f}s, proof size {proof.size_bytes()} bytes")

    # 4. Verify (the statement has no public inputs: 99 is a constant).
    t0 = time.time()
    verify(data.verifier_data, [], proof)
    print(f"verified in {time.time() - t0:.2f}s")

    # 5. A cheating witness fails: (2+9) * (3*4) = 132 != 99.
    cheat = {x0.index: 2, x1.index: 9, x2.index: 3, x3.index: 4}
    try:
        verify(data.verifier_data, [], prove(data, cheat))
        raise SystemExit("BUG: cheating witness accepted")
    except PlonkError as exc:
        print(f"cheating witness rejected: {exc}")


if __name__ == "__main__":
    main()
