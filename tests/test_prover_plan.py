"""The per-shape prover plan: determinism, table definitions, the cache.

Proofs must be byte-identical no matter which path produced them --
direct, via a shared warm plan, interleaved with the other protocols
and other shapes on one thread, or through the service executor --
because every intermediate lives in the thread's one reused workspace
arena and an aliasing bug would show up as a digest change.  The
golden digest and operation counts come from tests/goldens.py.  The
plan's tables are checked against their definitions in Python-int
arithmetic.
"""

import contextvars
import gc
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro import metrics, parallel, plonk, stark
from repro.context import RUN, scoped
from repro.field import gl64, goldilocks as gl
from repro.fri import DomainPlan, plan as fri_plan
from repro.fri.config import FriConfig
from repro.protocols import get
from repro.stark import plan_for, prove, verify
from repro.workloads import by_name, fibonacci

from .goldens import CONFIGS, DIGESTS, PLONK_MVM_DIGEST, PROVE_COUNTERS, SCALE
from .test_parallel import TINY

stark_digest, plonk_digest = get("stark").digest, get("plonk").digest

CONFIG = CONFIGS["stark"]
GOLDEN_DIGEST = DIGESTS["stark"]
GOLDEN_COUNTERS = PROVE_COUNTERS["stark"]


def test_shared_plan_proofs_are_identical_and_match_golden():
    air, trace, publics = fibonacci.SPEC.build_air(6)
    plan = plan_for(trace.shape[0], CONFIG.rate_bits)
    first = prove(air, trace, publics, CONFIG)
    second = prove(air, trace, publics, CONFIG)
    assert plan_for(trace.shape[0], CONFIG.rate_bits) is plan
    d1, d2 = stark_digest(first), stark_digest(second)
    assert d1 == d2 == GOLDEN_DIGEST
    verify(air, second, CONFIG)


def test_plan_counters_match_golden():
    air, trace, publics = fibonacci.SPEC.build_air(6)
    prove(air, trace, publics, CONFIG)  # warm everything
    with metrics.counting() as counts:
        prove(air, trace, publics, CONFIG)
    got = counts.as_dict()
    for name, want in GOLDEN_COUNTERS.items():
        assert got[name] == want, name


def test_batch_path_matches_direct_path():
    """A run of same-shape proves on the cached plan (what a service
    worker's successive jobs do) matches a direct prove."""
    air, trace, publics = fibonacci.SPEC.build_air(6)
    with scoped("plans", OrderedDict()), scoped("workspace", gl64.Workspace()):
        direct = stark_digest(prove(air, trace, publics, CONFIG))
    digests = [stark_digest(prove(air, trace, publics, CONFIG)) for _ in range(2)]
    assert digests == [direct, direct]


def _workspaces_holding_bytes(exclude=()) -> list:
    """Every live ``Workspace`` holding a byte, bar those in ``exclude``."""
    gc.collect()
    skip = {id(ws) for ws in exclude}
    return [
        o for o in gc.get_objects()
        if isinstance(o, gl64.Workspace) and id(o) not in skip and o.nbytes()
    ]


def test_interleaved_shapes_do_not_corrupt_workspaces():
    """One thread proves the golden STARK, Plonk and HyperPlonk-lite
    instances, then STARK Fibonacci 2^7 and Plonk MVM 6, then the golden
    three again.  Every digest is its golden value; after the first
    round the thread's arena is the only live workspace holding bytes,
    and the second round adds none to it."""
    golden = {name: get(name) for name in DIGESTS}
    fib, mvm = by_name("Fibonacci"), by_name("MVM")
    others = _workspaces_holding_bytes()  # earlier tests' arenas
    with scoped("workspace", gl64.Workspace()) as ws, scoped("plans", OrderedDict()), \
            scoped("instances", OrderedDict()):

        def round_of_goldens():
            for name, system in golden.items():
                setup = system.setup(fib, SCALE, CONFIGS[name])
                proof = system.prove(setup)
                system.verify(setup, proof)
                assert system.digest(proof) == DIGESTS[name], name

        round_of_goldens()
        assert _workspaces_holding_bytes(others) == [ws]
        stark_sys, plonk_sys = golden["stark"], golden["plonk"]
        bigger = stark_sys.setup(fib, SCALE + 1, CONFIGS["stark"])
        stark_sys.verify(bigger, stark_sys.prove(bigger))
        other = plonk_sys.setup(mvm, SCALE, CONFIGS["plonk"])
        assert plonk_sys.digest(plonk_sys.prove(other)) == PLONK_MVM_DIGEST
        held = ws.nbytes()
        round_of_goldens()
        assert ws.nbytes() == held
        assert _workspaces_holding_bytes(others) == [ws]


def test_warm_leaves_no_poseidon_table_for_the_first_proof():
    # Both permutation paths run on the lane-0 chain; the sparse HADES
    # factorisation (hashing.sparse) is for the Poseidon AIR and the
    # in-circuit gadget and stays underived.
    from repro.hashing import optimized, sparse

    caches = (
        optimized._mds_hankel,
        optimized._chain_matrices,
        optimized._fused_tables,
        optimized._scalar_tables,
    )
    for cached in caches + (sparse.optimized_params,):
        cached.cache_clear()
    DomainPlan(16, 1).warm()
    assert all(cached.cache_info().currsize == 1 for cached in caches)
    assert sparse.optimized_params.cache_info().currsize == 0


def test_plan_caches_are_read_only_and_reused():
    plan = plan_for(64, 1)
    assert plan is plan_for(64, 1)
    assert not plan.xs.flags.writeable
    assert not plan.zh_inv.flags.writeable
    assert not plan.transition_div_inv.flags.writeable
    inv = plan.boundary_inverse(0)
    assert inv is plan.boundary_inverse(0)
    assert not inv.flags.writeable
    assert not hasattr(plan, "ws")  # tables only: buffers live in RUN.workspace


def test_plan_cache_is_lru_bounded(monkeypatch, fresh_plan_cache):
    monkeypatch.setattr(fri_plan, "PLAN_CACHE_CAP", 2)
    with metrics.counting() as got:
        p8 = plan_for(8, 1)
        plan_for(16, 1)
        assert plan_for(8, 1) is p8  # hit refreshes recency
        assert got.plan_evictions == 0
        plan_for(32, 1)  # evicts (16, 1), the LRU entry
        assert got.plan_evictions == 1
        assert plan_for(8, 1) is p8  # survived: recently used
        assert got.plan_evictions == 1
        assert (16, 1) not in RUN.plans


def test_stark_and_plonk_share_one_plan_per_shape():
    assert stark.plan_for is plonk.plan_for is fri_plan.plan_for
    assert stark.plan_for(16, 3) is plonk.plan_for(16, 3)
    assert stark.plan_for(16, 3) is not plonk.plan_for(16, 1)


def _domain(n, rate_bits):
    """Python-int LDE coset points, subgroup generator and ``x^n - 1``."""
    n_lde = n << rate_bits
    w_lde = gl.primitive_root_of_unity(n_lde.bit_length() - 1)
    xs = [gl.coset_shift() * pow(w_lde, i, gl.P) % gl.P for i in range(n_lde)]
    omega = gl.primitive_root_of_unity(n.bit_length() - 1)
    return xs, omega, [(pow(x, n, gl.P) - 1) % gl.P for x in xs]


@pytest.mark.parametrize("rate_bits", [1, 3])
@pytest.mark.parametrize("n", [8, 16])
def test_plan_tables_match_their_definitions(n, rate_bits, rng):
    plan = DomainPlan(n, rate_bits)
    xs, omega, zh = _domain(n, rate_bits)
    assert plan.omega == omega
    assert [int(x) for x in plan.xs] == xs
    last = pow(omega, n - 1, gl.P)
    for i, x in enumerate(xs):
        assert int(plan.zh_inv[i]) * zh[i] % gl.P == 1
        assert int(plan.lagrange_first[i]) * n * (x - 1) % gl.P == zh[i]
        assert int(plan.transition_div_inv[i]) * zh[i] % gl.P == (x - last) % gl.P
    for row in (0, n - 1, -1):
        point = pow(omega, row % n, gl.P)
        inv = plan.boundary_inverse(row)
        assert all(int(v) * (x - point) % gl.P == 1 for v, x in zip(inv, xs))
    assert plan.boundary_inverse(-1) is plan.boundary_inverse(n - 1)

    # const_lde: the degree-<n interpolant of each column over the
    # subgroup, evaluated on the coset.
    cols = rng.integers(0, gl.P, size=(2, n), dtype=np.uint64)
    n_inv, w_inv = pow(n, -1, gl.P), pow(omega, -1, gl.P)
    for col, got in zip(cols, plan.const_lde(cols)):
        coeffs = [
            n_inv * sum(int(v) * pow(w_inv, j * k, gl.P) for j, v in enumerate(col)) % gl.P
            for k in range(n)
        ]
        want = [sum(c * pow(x, k, gl.P) for k, c in enumerate(coeffs)) % gl.P for x in xs]
        assert [int(v) for v in got] == want


def test_lazy_tables_are_read_only_and_built_once(rng):
    plan = DomainPlan(8, 1)
    for name in ("transition_div_inv", "lagrange_first"):
        assert name not in vars(plan)  # not built until a prover asks
        table = getattr(plan, name)
        assert getattr(plan, name) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
    cols = rng.integers(0, gl.P, size=(1, 8), dtype=np.uint64)
    lde = plan.const_lde(cols)
    assert plan.const_lde(cols.copy()) is lde  # keyed by content
    assert not lde.flags.writeable
    assert plan.const_lde(cols ^ np.uint64(1)) is not lde


#: Plonk-flavoured parameters (8x blowup) both protocols can prove under.
SHARED_CONFIG = FriConfig(
    rate_bits=3, cap_height=1, num_queries=8, proof_of_work_bits=4, final_poly_len=4
)


@pytest.mark.parametrize("workers", [1, 2])
def test_protocols_interleave_on_the_shared_plan(workers, fresh_plan_cache):
    """STARK and Plonk at one (n, rate_bits), A-B-A-B on one thread, one
    plan and one arena, each match the digest of a solo prove on a
    private plan and arena."""
    air, trace, publics = fibonacci.SPEC.build_air(4)
    circuit, inputs, _ = fibonacci.SPEC.build_circuit(5)
    n, rate_bits = circuit.n, SHARED_CONFIG.rate_bits
    assert trace.shape[0] == n
    data = plonk.setup(circuit, SHARED_CONFIG)

    def prove_stark(**kw):
        return stark_digest(prove(air, trace, publics, SHARED_CONFIG, **kw))

    def prove_plonk(**kw):
        return plonk_digest(plonk.prove(data, inputs, **kw))

    with scoped("plans", OrderedDict()), scoped("workspace", gl64.Workspace()):
        solo_stark, solo_plonk = prove_stark(), prove_plonk()
    with parallel.ShardPool(workers, **TINY) as pool:
        got = [
            prove_stark(pool=pool),
            prove_plonk(pool=pool),
            prove_stark(pool=pool),
            prove_plonk(pool=pool),
        ]
    assert got == [solo_stark, solo_plonk, solo_stark, solo_plonk]
    # Both provers drew the one plan of this shape from the one cache.
    assert list(RUN.plans) == [(n, rate_bits)]


def test_concurrent_proves_of_one_shape_keep_their_own_run():
    """Two threads prove one shape at once -- one started plainly, one in
    a copied ``contextvars`` context.  Each has its own run: every digest
    is the solo digest, each thread counts exactly three solo proves, and
    neither shares the main thread's workspace or plan."""
    system = get("stark")
    setup = system.setup(fibonacci.SPEC, 8, system.make_config())
    n, rate_bits = setup.rows, setup.config.rate_bits
    system.prove(setup)  # warm this thread's plan: no eviction below
    with metrics.counting() as counts:
        solo = system.digest(system.prove(setup))
    want = {k: 3 * v for k, v in counts.as_dict().items()}
    main_ws, main_plan = RUN.workspace, plan_for(n, rate_bits)
    seen = {}

    def prove_three(name):
        with metrics.counting() as counts:
            digests = [system.digest(system.prove(setup)) for _ in range(3)]
        seen[name] = (
            digests, counts.as_dict(), RUN.workspace, plan_for(n, rate_bits)
        )

    threads = [
        threading.Thread(target=prove_three, args=("plain",)),
        threading.Thread(
            target=contextvars.copy_context().run, args=(prove_three, "copied")
        ),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
        assert not t.is_alive()
    assert sorted(seen) == ["copied", "plain"]
    for digests, got, ws, plan in seen.values():
        assert digests == [solo] * 3
        assert got == want
        assert ws is not main_ws and plan is not main_plan


def test_service_executor_digests_are_deterministic():
    from repro.serialize import proof_from_blob, read_result_envelope
    from repro.service.executor import execute

    spec = {"workload": "Fibonacci", "kind": "stark", "scale": 6}
    payloads = []
    for _ in range(2):
        kind, _workload, payload = read_result_envelope(execute(spec)["envelope"])
        assert kind == "stark-proof"
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    if get("stark").make_config() == CONFIG:
        _, proof = proof_from_blob(payloads[0], expected_protocol="stark")
        assert stark_digest(proof) == GOLDEN_DIGEST
