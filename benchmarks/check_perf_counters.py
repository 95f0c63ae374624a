"""Perf-counter regression gate (CI).

Runs one tiny Fibonacci proof per registered protocol (STARK, Plonk,
HyperPlonk-lite) and asserts the operation counters -- NTT butterflies
and Poseidon permutations -- match the golden values of
``tests/goldens.py``, the one table the test-suite pins too.  Kernel
and pipeline rewrites may change *how* the
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
boundary it has (scalar crossover, GEMM block, permutation block), and
every extension-field op with the other of its two paths (Python ints,
``gl64`` kernels) one element below, at and one above their crossover:
a kernel rewrite that breaks one regime fails here, by name, before a
digest golden does.

The STARK and Plonk instances' FRI layout -- ``fri.fri_layout``'s
coset bits ``a`` and fold schedule -- is printed and compared with
``LAYOUTS``, and each proof must commit one layer per schedule entry
but a virtual first one: a change to the layout's size model fails
here, by name, before a digest does.

Usage: PYTHONPATH=src python benchmarks/check_perf_counters.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

import numpy as np

from repro import metrics, parallel, protocols
from repro.field import extension, gl64, goldilocks as gl
from repro.fri import fri_layout
from repro.hashing import optimized
from repro.plonk.prover import LEAF_WIDTHS
from repro.stark.prover import leaf_widths
from repro.workloads import fibonacci

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.goldens import (  # noqa: E402  (the repo root is on the path now)
    CONFIGS,
    DIGESTS,
    LAYOUTS,
    PROVE_COUNTERS,
    SCALE,
    VERIFY_COUNTERS,
)

#: (registry name, config, counter goldens, digest golden) per protocol.
CASES = tuple(
    (name, CONFIGS[name], PROVE_COUNTERS[name], DIGESTS[name])
    for name in ("stark", "plonk", "hyperplonk")
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
    return failures + _diff(f"{label} verify", counts, VERIFY_COUNTERS[system.name])


def layout_of(name: str, setup):
    """``fri_layout`` of a STARK or Plonk setup: ``(a, schedule)``."""
    if name == "stark":
        return fri_layout(setup.config, setup.rows.bit_length() - 1, leaf_widths(setup.data[0]))
    return fri_layout(setup.config, setup.data[0].circuit.log_n, LEAF_WIDTHS)


def _check_layout(name: str, system, setup) -> list:
    """The instance's ``(a, schedule)`` against ``LAYOUTS``, and its
    proof's layer caps against the schedule."""
    a, schedule = layout = layout_of(name, setup)
    failures = []
    if layout != LAYOUTS[name]:
        failures.append(f"{name} FRI layout drifted: expected {LAYOUTS[name]}, got {layout}")
    caps = len(system.prove(setup).fri_proof.commit_caps)
    if caps != len(schedule) - (a > 0):
        failures.append(f"{name} proof commits {caps} layers under schedule {schedule}, a={a}")
    return failures


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


def _check_extension_regimes() -> list:
    """Every ``extension`` op one element below, at and one above its
    crossover, on the path it ships against the other path."""
    rng = np.random.default_rng(0)
    crossover = extension._SHORT_ELEMS
    failures = []
    for length in (crossover - 1, crossover, crossover + 1):
        a, b = gl64.random((length, 2), rng), gl64.random((length, 2), rng)
        s = gl64.random((length,), rng)
        ops = {
            "add": lambda: extension.add(a, b),
            "sub": lambda: extension.sub(a, b),
            "mul": lambda: extension.mul(a, b),
            "square": lambda: extension.square(a),
            "scalar_mul": lambda: extension.scalar_mul(a, s),
            "inv": lambda: extension.inv(a),
            "pow_scalar": lambda: extension.pow_scalar(a, gl.P - 2),
            "eval_poly_ext": lambda: extension.eval_poly_ext(b[:5], a),
        }
        # Python ints up to the crossover, so the other path is gl64.
        other = -1 if length <= crossover else length
        for name, op in ops.items():
            shipped = op()
            with mock.patch.object(extension, "_SHORT_ELEMS", other):
                if not np.array_equal(shipped, op()):
                    failures.append(f"extension.{name} paths diverge at {length} elements")
    return failures


def main() -> int:
    failures = _check_permutation_regimes() + _check_extension_regimes()
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
        if name in LAYOUTS:
            failures += _check_layout(name, system, setup)

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
    print(f"extension ops agree on both paths around {extension._SHORT_ELEMS} elements")
    for name, _, setup, _, _ in instances:
        if name in LAYOUTS:
            a, schedule = layout_of(name, setup)
            print(f"{name} FRI layout OK: a={a}, schedule={schedule}")
    for name, _, golden, _ in CASES:
        print(f"{name} counters OK: {', '.join(f'{k}={v}' for k, v in golden.items())}")
        verify = VERIFY_COUNTERS[name]
        print(f"{name} verify counters OK: {', '.join(f'{k}={v}' for k, v in verify.items())}")
    print("proof digests OK (stark + plonk + hyperplonk)")
    print("no-pool proves ran inline shards (stark + plonk + hyperplonk)")
    print("sharded (2 workers) counters + digests OK (stark + plonk + hyperplonk)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
