"""Perf-counter regression gate (CI).

Runs one tiny Fibonacci proof per registered protocol (STARK, Plonk,
HyperPlonk-lite) and asserts the operation counters -- NTT butterflies
and Poseidon permutations -- match golden values recorded before the
respective optimisation passes.  Kernel and pipeline rewrites may change *how* the
work is executed (in place, fused, batched, shared sequencing) but
never *how much* work the protocol does; a drift here means a rewrite
silently changed the algorithm, not just the implementation.  Every
proof is then verified under its own goldens: the verifiers hash whole
tree levels per call instead of walking one path at a time, and the
sponge / challenger permutation counts of a verify are what they were
when every path was walked alone.

Every proof is the same shard graphs whatever pool runs them.  The
first pass scopes no pool, so each protocol must execute at least one
shard on the process-default inline executor; all proofs then run again
under a forced 2-worker :class:`repro.parallel.ShardPool` against the
*same* goldens: fanning the shards out across processes must not change
the digest or a single operation count.

Before any proof, the batched permutation is compared with the scalar
one, state by state, at batch sizes on both sides of every regime
boundary it has (scalar crossover, GEMM block, permutation block): a
kernel rewrite that breaks one regime fails here, by name, before a
digest golden does.

Usage: PYTHONPATH=src python benchmarks/check_perf_counters.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro import metrics, parallel, protocols
from repro.fri.config import FriConfig
from repro.hashing import optimized
from repro.hyperplonk import HyperPlonkConfig
from repro.workloads import fibonacci

CONFIG = FriConfig(
    rate_bits=1, cap_height=1, num_queries=10, proof_of_work_bits=3, final_poly_len=4
)
SCALE = 6

#: Recorded at commit f1e91fc (pre-zero-copy prover), Fibonacci scale 6.
GOLDEN = {
    "ntt_butterflies": 3096,
    "sponge_permutations": 364,
    "ntt_transforms": 10,
}
GOLDEN_DIGEST = "111c298a5fab5dd1368bbf070f5c9379ad28c1e1f2a671244cdeeb7d12d2dd22"

#: Registry-default Plonk parameters (``protocols.get("plonk").default_config()``).
PLONK_CONFIG = FriConfig(
    rate_bits=3, cap_height=1, num_queries=8, proof_of_work_bits=4, final_poly_len=4
)

#: Recorded at commit 56d0287 (pre-unified-pipeline prover), Fibonacci
#: scale 6, measured around ``prove`` only (setup excluded).
PLONK_GOLDEN = {
    "ntt_butterflies": 7040,
    "sponge_permutations": 598,
    "challenger_permutations": 33,
    "ntt_transforms": 22,
}
PLONK_GOLDEN_DIGEST = (
    "96ef6472f512d48f2a64904b7d528ea83ba62f1ca3c5b5fa0eb49a54b65b5a17"
)

#: Executor-default HyperPlonk-lite parameters.
HYPERPLONK_CONFIG = HyperPlonkConfig(cap_height=1, num_queries=16)

#: Recorded when the sumcheck-native backend landed, Fibonacci scale 6,
#: measured around ``prove`` only (setup excluded).  The zero NTT
#: entries are the point: the sumcheck hot path must never touch the
#: NTT kernels, so any nonzero count is a regression by definition.
#: Digest re-pinned for batched-opening format v2 (queries sampled over
#: ``n // 2``, per-tree multiproofs); the counters were unchanged by
#: that move -- sharding and batching redistribute hashing, they never
#: add any.
HYPERPLONK_GOLDEN = {
    "sponge_permutations": 36,
    "challenger_permutations": 13,
    "ntt_butterflies": 0,
    "ntt_transforms": 0,
}
HYPERPLONK_GOLDEN_DIGEST = (
    "d52bd70ef17c57099b692406f5271cdf364953d3aabbd3e8c06a7336e49a801c"
)


#: Counters around ``system.verify`` of the proofs above, recorded at
#: commit 12996fa, when every authentication path was still walked alone
#: through the scalar permutation.
VERIFY_GOLDEN = {
    "stark": {"sponge_permutations": 260, "challenger_permutations": 13},
    "plonk": {"sponge_permutations": 280, "challenger_permutations": 16},
    "hyperplonk": {"sponge_permutations": 64, "challenger_permutations": 13},
}

#: (registry name, config, counter goldens, digest golden) per protocol.
CASES = (
    ("stark", CONFIG, GOLDEN, GOLDEN_DIGEST),
    ("plonk", PLONK_CONFIG, PLONK_GOLDEN, PLONK_GOLDEN_DIGEST),
    ("hyperplonk", HYPERPLONK_CONFIG, HYPERPLONK_GOLDEN, HYPERPLONK_GOLDEN_DIGEST),
)


def _diff(label: str, counts, golden: dict) -> list:
    got = counts.as_dict()
    return [
        f"{label} {name}: expected {want}, got {got.get(name)}"
        for name, want in golden.items()
        if got.get(name) != want
    ]


def _prove_and_check(label: str, system, setup, golden: dict, want_digest: str, pool=None):
    """Prove, then verify (setup excluded from the counters), and diff
    each against its goldens."""
    with metrics.counting() as counts:
        proof = system.prove(setup, pool=pool)
    failures = _diff(label, counts, golden)
    digest = system.digest(proof)
    if digest != want_digest:
        failures.append(f"{label} proof digest drifted: {digest}")
    with metrics.counting() as counts:
        system.verify(setup, proof)  # raises if the proof is rejected
    return failures + _diff(f"{label} verify", counts, VERIFY_GOLDEN[system.name])


def _check_permutation_regimes() -> list:
    """``permute_into`` against ``permute_scalar`` on every state of a
    batch at, and one past, each regime boundary; lanes are any 64-bit
    words, which both accept."""
    rng = np.random.default_rng(0)
    edges = (
        optimized._SCALAR_ROWS,
        optimized._SBOX_SCALAR_ROWS,
        optimized._GEMM_ROWS,
        optimized._PERMUTE_ROWS,
    )
    failures = []
    for batch in sorted({edge + step for edge in edges for step in (0, 1)}):
        states = rng.integers(0, 2**64, size=(batch, optimized.WIDTH), dtype=np.uint64, endpoint=False)
        want = [optimized.permute_scalar(row) for row in states.tolist()]
        if optimized.permute_into(states).tolist() != want:
            failures.append(f"permute_into diverges from permute_scalar at batch {batch}")
    return failures


def main() -> int:
    failures = _check_permutation_regimes()
    inline = parallel.default_pool()
    instances = []
    for name, config, golden, want_digest in CASES:
        system = protocols.get(name)
        setup = system.setup(fibonacci.SPEC, SCALE, config)
        instances.append((name, system, setup, golden, want_digest))
        before = inline.stats["inline_shards"]
        failures += _prove_and_check(name, system, setup, golden, want_digest)
        if inline.stats["inline_shards"] == before:
            failures.append(f"{name}: the no-pool prove ran no inline shard")

    # Same proofs, fanned out across 2 workers (thresholds forced low so
    # the tiny CI proofs actually leave the process) -- same goldens,
    # bit for bit.
    with parallel.ShardPool(2, min_rows=1, min_tree_leaves=2, min_queries=1) as pool:
        for name, system, setup, golden, want_digest in instances:
            failures += _prove_and_check(
                f"{name}[sharded]", system, setup, golden, want_digest, pool=pool
            )
        if pool.stats["inline_shards"] or not pool.stats["shards"]:
            failures.append(f"2-worker pool did not run its shards in workers: {pool.stats}")

    if failures:
        print("PERF-COUNTER REGRESSION:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("permute_into == permute_scalar at every regime boundary")
    for name, _, golden, _ in CASES:
        print(f"{name} counters OK: {', '.join(f'{k}={v}' for k, v in golden.items())}")
        verify = VERIFY_GOLDEN[name]
        print(f"{name} verify counters OK: {', '.join(f'{k}={v}' for k, v in verify.items())}")
    print("proof digests OK (stark + plonk + hyperplonk)")
    print("no-pool proves ran inline shards (stark + plonk + hyperplonk)")
    print("sharded (2 workers) counters + digests OK (stark + plonk + hyperplonk)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
