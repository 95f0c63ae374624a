"""Prover hot-path benchmark (BENCH_prover.json).

Measures the zero-copy data plane against the allocating implementation
it replaced, at three levels:

* **kernels** -- the paper's three dominant primitives (Section 5):
  Goldilocks mul/add, the batched NTT, the fused Poseidon permutation
  and a Merkle level sweep;
* **end-to-end STARK** -- full proofs of the Fibonacci and MVM AETs at
  scales 6-10 (``FriConfig(rate_bits=1, cap_height=1, num_queries=10,
  proof_of_work_bits=3, final_poly_len=4)``), with the per-shape
  :class:`repro.fri.DomainPlan` warm, the way the proving service runs
  them;
* **end-to-end Plonk** -- service-path Plonk jobs at scales 6-8 with the
  executor's default config.  The baseline is what a job cost before the
  unified pipeline: ``setup()`` + ``prove()`` per job with no plan and
  no workspace threading into FRI.  "Now" is the cached-setup / warm
  plan prove, plus a per-stage span breakdown from :mod:`repro.tracing`;
* **stage sharding** -- serial vs 2-shard-worker proves of the largest
  STARK shapes, measured as *interleaved* A/B pairs so machine drift
  cancels, with the bit-identity contract asserted on every pair: the
  sharded proof must match the serial digest and operation counters
  exactly.  On a single effective CPU the row documents overhead, not
  speedup (``effective_cpus`` is recorded).

Every end-to-end row also checks that the proof digest and the
operation counters are *unchanged* from the pre-refactor baseline:
the optimisation is only allowed to change how the work is executed,
never what is proved.

STARK baselines were recorded at commit f1e91fc (the PR-1 tree), Plonk
baselines at commit 56d0287 (the PR-2 tree), both on the same container
this benchmark runs in.

Usage: PYTHONPATH=src python benchmarks/bench_prover_hotpath.py
"""

from __future__ import annotations

import json
import pathlib
import platform
import time

import numpy as np

from repro import metrics, parallel, tracing
from repro.field import gl64, goldilocks as gl
from repro.fri.config import FriConfig
from repro.hashing import optimized
from repro.merkle import MerkleTree
from repro.ntt import ntt
from repro.fri import plan_for
from repro.plonk import prove as plonk_prove, setup
from repro.serialize import plonk_proof_digest, stark_proof_digest
from repro.stark import prove
from repro.workloads import fibonacci, mvm

OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_prover.json"

CONFIG = FriConfig(
    rate_bits=1, cap_height=1, num_queries=10, proof_of_work_bits=3, final_poly_len=4
)
SCALES = [6, 7, 8, 9, 10]
WORKLOADS = [("Fibonacci", fibonacci.SPEC), ("MVM", mvm.SPEC)]

#: Pre-PR kernel timings (seconds), commit f1e91fc.
BASELINE_KERNELS = {
    "gl_mul_64k_s": 0.003631,
    "gl_add_64k_s": 0.000951,
    "ntt_4x4096_s": 0.007516,
    "poseidon_permute_256_s": 0.036914,
    "merkle_512x4_s": 0.110970,
}

#: Pre-PR end-to-end prove times, digests and counters, commit f1e91fc.
BASELINE_PROVE = {
    "Fibonacci/6": {"prove_s": 0.2593, "digest": "111c298a5fab5dd1368bbf070f5c9379ad28c1e1f2a671244cdeeb7d12d2dd22", "counters": {"ntt_butterflies": 3096, "sponge_permutations": 364, "ntt_transforms": 10}},
    "Fibonacci/7": {"prove_s": 0.3624, "digest": "0a9858e29ac1cb76a188161e15e4a85d94fef9a16778a67bf888752b37d0a265", "counters": {"ntt_butterflies": 7064, "sponge_permutations": 746, "ntt_transforms": 10}},
    "Fibonacci/8": {"prove_s": 0.5187, "digest": "4f56af646ae33fc2b9520a64c08a58aee87a56b5e358241c2e08a67a6c7fb11e", "counters": {"ntt_butterflies": 15896, "sponge_permutations": 1512, "ntt_transforms": 10}},
    "Fibonacci/9": {"prove_s": 0.8416, "digest": "db93683921fc03165f2e4070e54d159c3f4eb6b86dbddd9139754015624543b2", "counters": {"ntt_butterflies": 35352, "sponge_permutations": 3046, "ntt_transforms": 10}},
    "Fibonacci/10": {"prove_s": 1.3212, "digest": "0a6eb61bd793fb53839afa236f56de7316c875152653f35338f512750aadb4dc", "counters": {"ntt_butterflies": 77848, "sponge_permutations": 6116, "ntt_transforms": 10}},
    "MVM/6": {"prove_s": 0.2324, "digest": "367b685b336e5cdffe3277dc0ec7a7e0dd9a71e75f17319147706082b5af0632", "counters": {"ntt_butterflies": 3736, "sponge_permutations": 364, "ntt_transforms": 12}},
    "MVM/7": {"prove_s": 0.3364, "digest": "97ca9d1928f8a5bc668e6a9031980fd2f7213b24fd9775d1a5466012676f629a", "counters": {"ntt_butterflies": 8536, "sponge_permutations": 746, "ntt_transforms": 12}},
    "MVM/8": {"prove_s": 0.5130, "digest": "b4ebc0c110d81e76dae475e10b0056b0ac7ba2b8c0f3dd936638fe9a45916292", "counters": {"ntt_butterflies": 19224, "sponge_permutations": 1512, "ntt_transforms": 12}},
    "MVM/9": {"prove_s": 0.8039, "digest": "a6a6f68429044b1dcfa320c104f8ec01af6cc20024274de6bf665e9fc1333774", "counters": {"ntt_butterflies": 42776, "sponge_permutations": 3046, "ntt_transforms": 12}},
    "MVM/10": {"prove_s": 1.4269, "digest": "16ce961be32980f7e5accaec9010fdc8b43375e2ffee44f9a91244ef0e1d989d", "counters": {"ntt_butterflies": 94232, "sponge_permutations": 6116, "ntt_transforms": 12}},
}

#: Executor-default Plonk parameters (see ``service.executor.DEFAULT_CONFIGS``).
PLONK_CONFIG = FriConfig(
    rate_bits=3, cap_height=1, num_queries=8, proof_of_work_bits=4, final_poly_len=4
)
PLONK_SCALES = [6, 7, 8]

#: Pre-refactor Plonk service-job costs, digests and counters, commit
#: 56d0287.  ``e2e_s`` is setup + prove (what every job paid before the
#: executor cached ``CircuitData``); ``prove_s`` is prove alone.
BASELINE_PLONK = {
    "Fibonacci/6": {"e2e_s": 0.2008, "prove_s": 0.1605, "digest": "96ef6472f512d48f2a64904b7d528ea83ba62f1ca3c5b5fa0eb49a54b65b5a17", "counters": {"sponge_permutations": 598, "challenger_permutations": 33, "ntt_butterflies": 7040, "ntt_transforms": 22}},
    "Fibonacci/7": {"e2e_s": 0.1931, "prove_s": 0.1565, "digest": "450442b6a1164834e272503f451395bd42b4ddc5725e3dd75e282d7352d5adef", "counters": {"sponge_permutations": 598, "challenger_permutations": 28, "ntt_butterflies": 7040, "ntt_transforms": 22}},
    "Fibonacci/8": {"e2e_s": 0.2039, "prove_s": 0.1641, "digest": "c6d690a57b36f4be65dac309002fb9bce4632ee1333f95b7ad2dd5ccbd5aa943", "counters": {"sponge_permutations": 598, "challenger_permutations": 47, "ntt_butterflies": 7040, "ntt_transforms": 22}},
    "MVM/6": {"e2e_s": 0.6825, "prove_s": 0.5223, "digest": "8bfee2a3eebb0e8bc42f60835c4fb4da548559982d7323e35380f036b27c8862", "counters": {"sponge_permutations": 5072, "challenger_permutations": 19, "ntt_butterflies": 79200, "ntt_transforms": 22}},
    "MVM/7": {"e2e_s": 0.6747, "prove_s": 0.5242, "digest": "82593a41f29a034fbefbd6e005025e132180844b0a8e19029e44ebcd650f85fa", "counters": {"sponge_permutations": 5072, "challenger_permutations": 32, "ntt_butterflies": 79200, "ntt_transforms": 22}},
    "MVM/8": {"e2e_s": 1.2521, "prove_s": 0.9227, "digest": "852cfe0977b21a20c5efdedec9585adf38b1c9579904a8ce9175f307bbda0303", "counters": {"sponge_permutations": 10190, "challenger_permutations": 23, "ntt_butterflies": 174240, "ntt_transforms": 22}},
}


def _best_of(fn, repeats=5):
    fn()  # warm caches / workspaces
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernels() -> dict:
    rng = np.random.default_rng(42)
    a = rng.integers(0, gl.P, size=65536, dtype=np.uint64)
    b = rng.integers(0, gl.P, size=65536, dtype=np.uint64)
    rows = rng.integers(0, gl.P, size=(4, 4096), dtype=np.uint64)
    states = rng.integers(0, gl.P, size=(256, 12), dtype=np.uint64)
    leaves = rng.integers(0, gl.P, size=(512, 4), dtype=np.uint64)
    ws = gl64.Workspace()
    out = np.empty_like(a)
    buf = states.copy()

    def permute():
        np.copyto(buf, states)
        optimized.permute_into(buf, ws)

    results = {
        "gl_mul_64k_s": _best_of(lambda: gl64.mul_into(a, b, out, ws), 20),
        "gl_add_64k_s": _best_of(lambda: gl64.add_into(a, b, out, ws), 20),
        "ntt_4x4096_s": _best_of(lambda: ntt(rows, ws=ws), 10),
        "poseidon_permute_256_s": _best_of(permute, 10),
        "merkle_512x4_s": _best_of(lambda: MerkleTree(leaves, cap_height=1, ws=ws), 5),
    }
    out_rows = {}
    for name, now in results.items():
        base = BASELINE_KERNELS[name]
        out_rows[name] = {
            "baseline_s": round(base, 6),
            "now_s": round(now, 6),
            "speedup": round(base / now, 2),
        }
        print(f"{name:26s} {base*1e3:8.3f} ms -> {now*1e3:8.3f} ms  (x{base/now:.2f})")
    return out_rows


def bench_prove() -> dict:
    rows = {}
    for name, spec in WORKLOADS:
        for scale in SCALES:
            air, trace, publics = spec.build_air(scale)
            plan = plan_for(trace.shape[0], CONFIG.rate_bits)
            prove(air, trace, publics, CONFIG, plan=plan)  # warm
            best, digest, counters = float("inf"), None, None
            for _ in range(3):
                with metrics.counting() as c:
                    t0 = time.perf_counter()
                    proof = prove(air, trace, publics, CONFIG, plan=plan)
                    dt = time.perf_counter() - t0
                best = min(best, dt)
                digest = stark_proof_digest(proof)
                counters = c.as_dict()
            key = f"{name}/{scale}"
            base = BASELINE_PROVE[key]
            digest_ok = digest == base["digest"]
            counters_ok = all(counters.get(k) == v for k, v in base["counters"].items())
            rows[key] = {
                "baseline_s": base["prove_s"],
                "now_s": round(best, 4),
                "speedup": round(base["prove_s"] / best, 2),
                "digest": digest,
                "digest_unchanged": digest_ok,
                "counters": {k: counters.get(k) for k in base["counters"]},
                "counters_unchanged": counters_ok,
            }
            status = "ok" if digest_ok and counters_ok else "MISMATCH"
            print(
                f"{key:14s} {base['prove_s']:7.4f} s -> {best:7.4f} s  "
                f"(x{base['prove_s']/best:.2f})  [{status}]"
            )
    return rows


def bench_plonk() -> dict:
    """Service-path Plonk jobs: cached setup + warm plan vs per-job setup."""
    rows = {}
    for name, spec in WORKLOADS:
        for scale in PLONK_SCALES:
            circuit, inputs, _ = spec.build_circuit(scale)
            data = setup(circuit, PLONK_CONFIG)  # cached once, as in the executor
            plan = plan_for(circuit.n, PLONK_CONFIG.rate_bits)
            plonk_prove(data, inputs, plan=plan)  # warm
            best, digest, counters = float("inf"), None, None
            for _ in range(3):
                with metrics.counting() as c:
                    t0 = time.perf_counter()
                    proof = plonk_prove(data, inputs, plan=plan)
                    dt = time.perf_counter() - t0
                best = min(best, dt)
                digest = plonk_proof_digest(proof)
                counters = c.as_dict()
            key = f"{name}/{scale}"
            base = BASELINE_PLONK[key]
            digest_ok = digest == base["digest"]
            counters_ok = all(counters.get(k) == v for k, v in base["counters"].items())
            rows[key] = {
                "baseline_e2e_s": base["e2e_s"],
                "baseline_prove_s": base["prove_s"],
                "now_s": round(best, 4),
                "e2e_speedup": round(base["e2e_s"] / best, 2),
                "prove_speedup": round(base["prove_s"] / best, 2),
                "digest": digest,
                "digest_unchanged": digest_ok,
                "counters": {k: counters.get(k) for k in base["counters"]},
                "counters_unchanged": counters_ok,
            }
            status = "ok" if digest_ok and counters_ok else "MISMATCH"
            print(
                f"{key:14s} {base['e2e_s']:7.4f} s -> {best:7.4f} s  "
                f"(e2e x{base['e2e_s']/best:.2f}, prove x{base['prove_s']/best:.2f})"
                f"  [{status}]"
            )
    return rows


def bench_sharded() -> dict:
    """Serial vs stage-sharded STARK proves, interleaved A/B pairs.

    Uses the default :class:`repro.parallel.ShardPool` thresholds (no
    artificial forcing): at scale 10 the 2048-row LDE clears
    ``min_rows`` and the commit/FRI stages fan out across 2 shard
    workers.  Every pair asserts the contract -- sharded digest and
    counters bit-identical to the serial arm -- before any time is
    recorded; a mismatch aborts the benchmark rather than reporting a
    speedup for a wrong proof.
    """
    rows = {}
    pairs = 3
    for name, spec in WORKLOADS:
        scale = 10
        air, trace, publics = spec.build_air(scale)
        plan = plan_for(trace.shape[0], CONFIG.rate_bits)
        with parallel.ShardPool(2) as pool:
            prove(air, trace, publics, CONFIG, plan=plan)  # warm serial
            prove(air, trace, publics, CONFIG, plan=plan, pool=pool)  # warm + fork
            serial_s = sharded_s = float("inf")
            for _ in range(pairs):
                with metrics.counting() as c:
                    t0 = time.perf_counter()
                    ref = prove(air, trace, publics, CONFIG, plan=plan)
                    serial_s = min(serial_s, time.perf_counter() - t0)
                ref_counters = c.as_dict()
                with metrics.counting() as c:
                    t0 = time.perf_counter()
                    got = prove(air, trace, publics, CONFIG, plan=plan, pool=pool)
                    sharded_s = min(sharded_s, time.perf_counter() - t0)
                got_counters = c.as_dict()
                assert stark_proof_digest(got) == stark_proof_digest(ref), (
                    f"{name}/{scale}: sharded proof digest diverged from serial"
                )
                assert got_counters == ref_counters, (
                    f"{name}/{scale}: sharded op counters diverged from serial"
                )
            shard_stats = dict(pool.stats)
            profile = pool.profile.as_dict()
        key = f"{name}/{scale}"
        rows[key] = {
            "serial_s": round(serial_s, 4),
            "sharded_s": round(sharded_s, 4),
            "speedup": round(serial_s / sharded_s, 2),
            "shard_workers": 2,
            "bit_identical": True,  # asserted above, pair by pair
            "graphs": shard_stats["graphs"],
            "shards": shard_stats["shards"],
            "profile_unit_costs": {
                kind: stat["unit_cost"] for kind, stat in profile.items()
            },
        }
        print(
            f"{key:14s} serial {serial_s:7.4f} s -> sharded {sharded_s:7.4f} s  "
            f"(x{serial_s/sharded_s:.2f}, {shard_stats['shards']} shards)"
        )
    return rows


def bench_plonk_stages() -> dict:
    """Per-stage wall-time breakdown for the largest Plonk config (MVM/8)."""
    circuit, inputs, _ = mvm.SPEC.build_circuit(8)
    data = setup(circuit, PLONK_CONFIG)
    plan = plan_for(circuit.n, PLONK_CONFIG.rate_bits)
    plonk_prove(data, inputs, plan=plan)  # warm
    with tracing.trace() as session:
        plonk_prove(data, inputs, plan=plan)
    stages = {k: round(v, 4) for k, v in session.stage_seconds().items()}
    total = stages.get("prove:plonk", 0.0) or 1.0
    for name, secs in stages.items():
        print(f"  {name:18s} {secs*1e3:8.1f} ms  ({secs/total*100:5.1f}%)")
    return stages


def main() -> dict:
    print("== kernels ==")
    kernels = bench_kernels()
    print("== end-to-end STARK prove ==")
    proofs = bench_prove()
    print("== end-to-end Plonk prove (service path) ==")
    plonk_rows = bench_plonk()
    print("== Plonk stage breakdown (MVM scale 8) ==")
    plonk_stages = bench_plonk_stages()
    print("== stage-sharded STARK prove (2 shard workers, scale 10) ==")
    sharded = bench_sharded()
    target = proofs["Fibonacci/8"]
    plonk_target = plonk_rows["MVM/8"]
    report = {
        "baseline_commit": "f1e91fc",
        "plonk_baseline_commit": "56d0287",
        "config": {
            "rate_bits": 1, "cap_height": 1, "num_queries": 10,
            "proof_of_work_bits": 3, "final_poly_len": 4,
        },
        "plonk_config": {
            "rate_bits": 3, "cap_height": 1, "num_queries": 8,
            "proof_of_work_bits": 4, "final_poly_len": 4,
        },
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "effective_cpus": parallel.effective_cpus(),
        "kernels": kernels,
        "prove": proofs,
        "plonk": plonk_rows,
        "plonk_stage_seconds_mvm_scale8": plonk_stages,
        "sharded": sharded,
        "headline_speedup_fibonacci_scale8": target["speedup"],
        "headline_plonk_e2e_speedup_mvm_scale8": plonk_target["e2e_speedup"],
        "all_digests_unchanged": all(
            r["digest_unchanged"]
            for r in [*proofs.values(), *plonk_rows.values()]
        ),
        "all_counters_unchanged": all(
            r["counters_unchanged"]
            for r in [*proofs.values(), *plonk_rows.values()]
        ),
        "all_sharded_bit_identical": all(
            r["bit_identical"] for r in sharded.values()
        ),
    }
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nheadline (STARK Fibonacci scale 8): x{target['speedup']:.2f}")
    print(f"headline (Plonk MVM scale 8 e2e): x{plonk_target['e2e_speedup']:.2f}")
    print(f"wrote {OUT}")
    return report


if __name__ == "__main__":
    report = main()
    assert report["all_digests_unchanged"], "proof digests drifted"
    assert report["all_counters_unchanged"], "operation counters drifted"
    assert report["all_sharded_bit_identical"], "sharded proofs diverged"
    assert report["headline_plonk_e2e_speedup_mvm_scale8"] >= 1.3, (
        "Plonk service-path speedup regressed below 1.3x"
    )
