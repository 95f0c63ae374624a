"""ZKML scenario: prove a matrix-vector multiplication (paper app 6).

The paper's MVM workload (proto-neural-zkp) proves a neural-network
layer: ``y = M x`` for a private matrix and input.  This script:

1. proves a scaled-down MVM functionally (real proof, real verification);
2. estimates the paper-scale workload (3000x3000, circuit width 400) on
   the CPU baseline and on the UniZK accelerator model, reproducing the
   MVM row of Table 3.

Run:  python examples/zkml_mvm.py
"""

import time

from repro.baselines import CpuModel, GpuModel
from repro.compiler import trace_plonky2
from repro.fri import FriConfig
from repro.plonk import prove, setup, verify
from repro.sim import simulate_plonky2
from repro.workloads import by_name


def functional_proof() -> None:
    spec = by_name("MVM")
    print(f"== functional proof: {spec.name} (scaled down) ==")
    circuit, inputs, publics = spec.build_circuit(6)  # 6x6 matrix
    print(f"circuit rows: {circuit.n}; public outputs: {len(publics)}")
    config = FriConfig(rate_bits=3, cap_height=1, num_queries=12,
                       proof_of_work_bits=8, final_poly_len=4)
    data = setup(circuit, config)
    t0 = time.time()
    proof = prove(data, inputs)
    verify(data.verifier_data, publics, proof)
    print(f"proved + verified y = Mx in {time.time() - t0:.2f}s "
          f"(proof {proof.size_bytes()} bytes)")


def paper_scale_estimate() -> None:
    spec = by_name("MVM")
    print("\n== paper-scale performance (Table 3, MVM row) ==")
    graph = trace_plonky2(spec.plonk)
    cpu = CpuModel().run(graph).total_seconds
    gpu = GpuModel().run(graph).total_seconds
    uni = simulate_plonky2(spec.plonk)
    print(f"CPU (80 threads): {cpu:7.2f} s   (paper: 39.67 s)")
    print(f"GPU (A100):       {gpu:7.2f} s   (paper: 33.38 s)")
    print(f"UniZK:            {uni.total_seconds:7.3f} s   (paper: 0.320 s)")
    print(f"UniZK speedup:    {cpu / uni.total_seconds:5.0f}x  (paper: 124x)")
    print("\nUniZK kernel breakdown (Figure 8, MVM bar):")
    for kind, frac in uni.fraction_by_kind().items():
        print(f"  {kind:5s} {frac * 100:5.1f}%")


if __name__ == "__main__":
    functional_proof()
    paper_scale_estimate()
