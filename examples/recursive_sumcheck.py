"""Recursion scenario: verify one proof inside another (Section 7.4).

The paper's Starky+Plonky2 scheme compresses proofs by expressing a
verifier as a circuit.  This script demonstrates the substrate with a
complete small-scale instance:

1. run the sum-check protocol natively (prover + Fiat-Shamir);
2. build a Plonk circuit that *re-verifies that proof in-circuit* --
   re-deriving every challenge through an in-circuit Poseidon duplex
   transcript and evaluating the multilinear extension at the challenge
   point;
3. generate an outer Plonk proof of the verifier circuit, so the final
   artifact attests "I verified a sum-check proof" -- genuine
   recursion, end to end.

It also proves a Poseidon hash *chain* with the Starky AIR (the
VDF-style statement production systems aggregate this way).

Run:  python examples/recursive_sumcheck.py
"""

import time

import numpy as np

from repro.field import gl64
from repro.fri import FriConfig
from repro.hashing import Challenger
from repro.plonk import check_copy_constraints, prove, setup, verify
from repro.plonk.recursion import (
    build_sumcheck_verifier_circuit,
    sumcheck_proof_inputs,
)
from repro.stark import PoseidonAir
from repro.stark import prove as stark_prove, verify as stark_verify
from repro.stark.poseidon_air import generate_trace, public_values
from repro.sumcheck import prove as sc_prove, verify as sc_verify


def recursive_sumcheck() -> None:
    print("== inner proof: sum-check over a public table ==")
    rng = np.random.default_rng(42)
    num_vars = 3
    table = gl64.random(1 << num_vars, rng)
    inner = sc_prove(table, Challenger())
    sc_verify(inner, num_vars, Challenger())
    print(f"native sum-check verified: claim {inner.claimed_sum}")

    print("\n== verifier-as-circuit ==")
    t0 = time.time()
    circuit, handles = build_sumcheck_verifier_circuit(num_vars)
    print(f"verifier circuit: {circuit.n} rows "
          f"(full-round in-circuit Poseidon transcript), "
          f"built in {time.time() - t0:.1f}s")
    inputs = sumcheck_proof_inputs(handles, inner, table)
    witness = circuit.generate_witness(inputs)
    ok = circuit.check_gates(witness, []) and check_copy_constraints(circuit, witness)
    print(f"inner proof satisfies the verifier circuit: {ok}")

    print("\n== outer proof of the verifier circuit ==")
    cfg = FriConfig(rate_bits=3, cap_height=2, num_queries=8,
                    proof_of_work_bits=8, final_poly_len=8)
    data = setup(circuit, cfg)
    t0 = time.time()
    outer = prove(data, inputs)
    print(f"outer Plonk proof in {time.time() - t0:.1f}s, "
          f"{outer.size_bytes() / 1024:.0f} kB")
    verify(data.verifier_data, [], outer)
    print("outer proof verified: the chain attests to a verified sum-check")


def poseidon_chain() -> None:
    print("\n== bonus: Poseidon hash chain as a Starky AET ==")
    rng = np.random.default_rng(43)
    state = [int(x) for x in gl64.random(12, rng)]
    air = PoseidonAir(num_perms=4)
    trace = generate_trace(state, 4)
    publics = public_values(state, 4)
    cfg = FriConfig(rate_bits=3, cap_height=2, num_queries=12,
                    proof_of_work_bits=8, final_poly_len=8)
    t0 = time.time()
    proof = stark_prove(air, trace, publics, cfg)
    stark_verify(air, len(trace), publics, proof, cfg)
    print(f"proved 4 chained permutations ({trace.shape[0]} rows x "
          f"{trace.shape[1]} cols) in {time.time() - t0:.1f}s, "
          f"{proof.size_bytes() / 1024:.0f} kB; verified")


if __name__ == "__main__":
    recursive_sumcheck()
    poseidon_chain()
