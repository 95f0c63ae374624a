"""Starky scenario: AET proof + recursive aggregation cost (Table 5).

Reproduces the paper's Figure 2 workflow: a Fibonacci Algebraic
Execution Trace is proven with the cheap blowup-2 Starky configuration,
then the cost of compressing it with a recursive Plonky2 proof is
estimated -- the combination the paper evaluates in Section 7.4.

Run:  python examples/starky_fibonacci.py
"""

import time

from repro.baselines import CpuModel
from repro.compiler import trace_recursive_plonky2, trace_starky
from repro.experiments.proof_size import plonk_proof_size, stark_proof_size
from repro.compiler.frontend import RECURSION_PARAMS
from repro.fri import FriConfig
from repro.sim import simulate_graph, simulate_starky
from repro.stark import prove, verify
from repro.workloads import by_name


def functional_proof() -> None:
    spec = by_name("Fibonacci")
    print("== functional Starky proof (Figure 2 AET) ==")
    air, trace, publics = spec.build_air(10)  # 1024 steps
    assert air.check_trace(trace, publics)
    config = FriConfig(rate_bits=1, cap_height=2, num_queries=24,
                       proof_of_work_bits=8, final_poly_len=8)
    t0 = time.time()
    proof = prove(air, trace, publics, config)
    print(f"proved 2^10 Fibonacci steps in {time.time() - t0:.2f}s; "
          f"proof {proof.size_bytes() / 1024:.0f} kB "
          f"(blowup 2 -> big proofs, cheap proving)")
    verify(air, len(trace), publics, proof, config)
    print(f"verified; claimed F_{publics[0] + 1} = {publics[1]}")


def table5_estimate() -> None:
    spec = by_name("Fibonacci")
    print("\n== paper-scale Starky + Plonky2 (Table 5, Fibonacci rows) ==")
    cpu = CpuModel()
    base_cpu = cpu.run(trace_starky(spec.stark)).total_seconds
    base_uni = simulate_starky(spec.stark).total_seconds
    rec_graph = trace_recursive_plonky2()
    rec_cpu = cpu.run(rec_graph).total_seconds
    rec_uni = simulate_graph(rec_graph).total_seconds
    print(f"Base:      CPU {base_cpu:4.1f} s, UniZK {base_uni * 1e3:5.1f} ms, "
          f"speedup {base_cpu / base_uni:3.0f}x, "
          f"proof {stark_proof_size(spec.stark) / 1024:3.0f} kB "
          f"(paper: 2.3 s / 26 ms / 88x / 259 kB)")
    print(f"Recursive: CPU {rec_cpu:4.1f} s, UniZK {rec_uni * 1e3:5.1f} ms, "
          f"speedup {rec_cpu / rec_uni:3.0f}x, "
          f"proof {plonk_proof_size(RECURSION_PARAMS) / 1024:3.0f} kB "
          f"(paper: 1.9 s / 12 ms / 158x / 155 kB)")


if __name__ == "__main__":
    functional_proof()
    table5_estimate()
