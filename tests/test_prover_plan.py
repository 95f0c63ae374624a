"""The per-shape prover tables: determinism, definitions, the caches.

Proofs must be byte-identical no matter which path produced them --
direct, on tables an earlier prove built, interleaved with the other
protocols and other shapes on one thread, or through the service
executor -- because every intermediate lives in the thread's one
reused workspace arena and an aliasing bug would show up as a digest
change.  The golden digest and operation counts come from
tests/goldens.py.  Each table is a bounded ``lru_cache`` function of
its shape, checked against its definition in Python-int arithmetic.
"""

import contextvars
import gc
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro import metrics, parallel, plonk
from repro.context import RUN, scoped
from repro.field import gl64, goldilocks as gl
from repro.fri import prover as fri_prover
from repro.fri.config import FriConfig
from repro.fri.prover import lde_points, vanishing_inverse
from repro.plonk import prover as plonk_prover
from repro.plonk.prover import lagrange_first
from repro.protocols import get
from repro.stark import prover as stark_prover, prove, verify
from repro.stark.prover import boundary_inverse, constant_ldes, transition_divisor_inverse
from repro.workloads import by_name, fibonacci

from .goldens import CONFIGS, DIGESTS, PLONK_FIBONACCI_DIGEST, PROVE_COUNTERS, SCALE, WORKLOADS
from .test_parallel import TINY

stark_digest, plonk_digest = get("stark").digest, get("plonk").digest

CONFIG = CONFIGS["stark"]
GOLDEN_DIGEST = DIGESTS["stark"]
GOLDEN_COUNTERS = PROVE_COUNTERS["stark"]


#: Every per-shape table a FRI prover reads, as ``(n, rate_bits)`` functions.
SHAPE_TABLES = (vanishing_inverse, transition_divisor_inverse, lagrange_first)


def _stark_tables(n, rate_bits):
    """The cached tables a STARK Fibonacci prove of ``n`` rows reads."""
    return (
        lde_points(n.bit_length() - 1 + rate_bits),
        vanishing_inverse(n, rate_bits),
        transition_divisor_inverse(n, rate_bits),
        boundary_inverse(n, rate_bits, 0),
        boundary_inverse(n, rate_bits, n - 1),
    )


def test_shared_plan_proofs_are_identical_and_match_golden():
    air, trace, publics = fibonacci.SPEC.build_air(6)
    first = prove(air, trace, publics, CONFIG)
    tables = _stark_tables(trace.shape[0], CONFIG.rate_bits)
    second = prove(air, trace, publics, CONFIG)
    assert all(
        a is b for a, b in zip(_stark_tables(trace.shape[0], CONFIG.rate_bits), tables)
    )
    d1, d2 = stark_digest(first), stark_digest(second)
    assert d1 == d2 == GOLDEN_DIGEST
    verify(air, len(trace), publics, second, CONFIG)


def test_plan_counters_match_golden():
    air, trace, publics = fibonacci.SPEC.build_air(6)
    prove(air, trace, publics, CONFIG)  # warm everything
    with metrics.counting() as counts:
        prove(air, trace, publics, CONFIG)
    got = counts.as_dict()
    for name, want in GOLDEN_COUNTERS.items():
        assert got[name] == want, name


def test_batch_path_matches_direct_path():
    """A run of same-shape proves on the cached tables (what a service
    worker's successive jobs do) matches a direct prove."""
    air, trace, publics = fibonacci.SPEC.build_air(6)
    with scoped("workspace", gl64.Workspace()):
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
    instances, then STARK Fibonacci 2^7 and Plonk Fibonacci 6, then the golden
    three again.  Every digest is its golden value; after the first
    round the thread's arena is the only live workspace holding bytes,
    and the second round adds none to it."""
    golden = {name: get(name) for name in DIGESTS}
    fib = by_name("Fibonacci")
    others = _workspaces_holding_bytes()  # earlier tests' arenas
    with scoped("workspace", gl64.Workspace()) as ws, scoped("instances", OrderedDict()):

        def round_of_goldens():
            for name, system in golden.items():
                setup = system.setup(by_name(WORKLOADS[name]), SCALE, CONFIGS[name])
                proof = system.prove(setup)
                system.verify(setup, proof)
                assert system.digest(proof) == DIGESTS[name], name

        round_of_goldens()
        assert _workspaces_holding_bytes(others) == [ws]
        stark_sys, plonk_sys = golden["stark"], golden["plonk"]
        bigger = stark_sys.setup(fib, SCALE + 1, CONFIGS["stark"])
        stark_sys.verify(bigger, stark_sys.prove(bigger))
        other = plonk_sys.setup(fib, SCALE, CONFIGS["plonk"])
        assert plonk_sys.digest(plonk_sys.prove(other)) == PLONK_FIBONACCI_DIGEST
        held = ws.nbytes()
        round_of_goldens()
        assert ws.nbytes() == held
        assert _workspaces_holding_bytes(others) == [ws]


def test_plan_caches_are_read_only_and_reused():
    """Every per-shape table is a bounded cache: a second read returns
    the object the first one built, and that object is read-only."""
    cached = SHAPE_TABLES + (
        lde_points, boundary_inverse, stark_prover._constant_coeffs, stark_prover._constant_ldes
    )
    assert all(f.cache_parameters()["maxsize"] for f in cached)
    xs = lde_points(7)
    assert lde_points(7) is xs
    assert not xs.flags.writeable
    inv = boundary_inverse(64, 1, 0)
    assert inv is boundary_inverse(64, 1, 0)
    assert not inv.flags.writeable


def test_stark_and_plonk_share_one_plan_per_shape():
    """Both FRI provers divide by the one cached ``1 / Z_H`` of a shape."""
    assert stark_prover.vanishing_inverse is plonk_prover.vanishing_inverse
    assert plonk_prover.vanishing_inverse is fri_prover.vanishing_inverse
    assert vanishing_inverse(16, 3) is vanishing_inverse(16, 3)
    assert vanishing_inverse(16, 3) is not vanishing_inverse(16, 1)


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
    xs, omega, zh = _domain(n, rate_bits)
    assert [int(x) for x in lde_points(n.bit_length() - 1 + rate_bits)] == xs
    zh_inv = vanishing_inverse(n, rate_bits)
    l_first = lagrange_first(n, rate_bits)
    transition = transition_divisor_inverse(n, rate_bits)
    last = pow(omega, n - 1, gl.P)
    for i, x in enumerate(xs):
        assert int(zh_inv[i]) * zh[i] % gl.P == 1
        assert int(l_first[i]) * n * (x - 1) % gl.P == zh[i]
        assert int(transition[i]) * zh[i] % gl.P == (x - last) % gl.P
    for row in (0, n - 1):
        point = pow(omega, row, gl.P)
        inv = boundary_inverse(n, rate_bits, row)
        assert all(int(v) * (x - point) % gl.P == 1 for v, x in zip(inv, xs))

    # const_lde: the degree-<n interpolant of each column over the
    # subgroup, evaluated on the coset.
    cols = rng.integers(0, gl.P, size=(2, n), dtype=np.uint64)
    n_inv, w_inv = pow(n, -1, gl.P), pow(omega, -1, gl.P)
    for col, got in zip(cols, constant_ldes(cols, rate_bits)):
        coeffs = [
            n_inv * sum(int(v) * pow(w_inv, j * k, gl.P) for j, v in enumerate(col)) % gl.P
            for k in range(n)
        ]
        want = [sum(c * pow(x, k, gl.P) for k, c in enumerate(coeffs)) % gl.P for x in xs]
        assert [int(v) for v in got] == want


def test_lazy_tables_are_read_only_and_built_once(rng):
    for table in SHAPE_TABLES:
        built = table(8, 1)
        assert table(8, 1) is built
        assert not built.flags.writeable
        with pytest.raises(ValueError):
            built[0] = 1
    cols = rng.integers(0, gl.P, size=(1, 8), dtype=np.uint64)
    lde = constant_ldes(cols, 1)
    assert constant_ldes(cols.copy(), 1) is lde  # keyed by content
    assert not lde.flags.writeable
    assert constant_ldes(cols ^ np.uint64(1), 1) is not lde


def test_second_sha256_verify_runs_no_transform():
    """The SHA-256 AIR's constant columns are interpolated once, into
    the table the prover's LDE reads too: a verify on a warm table runs
    no NTT."""
    system = get("stark")
    setup = system.setup(by_name("SHA-256"), 6, CONFIG)
    proof = system.prove(setup)
    stark_prover._constant_coeffs.cache_clear()
    transforms = []
    for _ in range(2):
        with metrics.counting() as counts:
            system.verify(setup, proof)
        transforms.append(counts.as_dict()["ntt_transforms"])
    assert transforms[0] > 0 and transforms[1] == 0


#: Plonk-flavoured parameters (8x blowup) both protocols can prove under.
SHARED_CONFIG = FriConfig(
    rate_bits=3, cap_height=1, num_queries=8, proof_of_work_bits=4, final_poly_len=4
)


@pytest.mark.parametrize("workers", [1, 2])
def test_protocols_interleave_on_the_shared_plan(workers):
    """STARK and Plonk at one (n, rate_bits), A-B-A-B on one thread and
    one arena, each match the digest of a solo prove on a private
    arena, and the four proves build no divisor table the solo ones did
    not: one ``1 / Z_H`` per quotient coset, STARK Fibonacci's ``n``
    points and Plonk's ``4n``."""
    air, trace, publics = fibonacci.SPEC.build_air(4)
    circuit, inputs, _ = fibonacci.SPEC.build_circuit(5)
    n, rate_bits = circuit.n, SHARED_CONFIG.rate_bits
    assert trace.shape[0] == n
    data = plonk.setup(circuit, SHARED_CONFIG)

    def prove_stark(**kw):
        return stark_digest(prove(air, trace, publics, SHARED_CONFIG, **kw))

    def prove_plonk(**kw):
        return plonk_digest(plonk.prove(data, inputs, **kw))

    vanishing_inverse.cache_clear()
    transition_divisor_inverse.cache_clear()
    with scoped("workspace", gl64.Workspace()):
        solo_stark, solo_plonk = prove_stark(), prove_plonk()
    with parallel.ShardPool(workers, **TINY) as pool:
        got = [
            prove_stark(pool=pool),
            prove_plonk(pool=pool),
            prove_stark(pool=pool),
            prove_plonk(pool=pool),
        ]
    assert got == [solo_stark, solo_plonk, solo_stark, solo_plonk]
    # Each prover divided by its own coset's one 1 / Z_H.
    info = vanishing_inverse.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


def test_concurrent_proves_of_one_shape_keep_their_own_run():
    """Two threads prove the golden shape at once -- one started plainly,
    one in a copied ``contextvars`` context.  Each has its own run: every
    digest is the golden digest, each thread counts exactly three solo
    proves, and neither shares the main thread's workspace.  All three
    threads read the same table objects."""
    system = get("stark")
    setup = system.setup(fibonacci.SPEC, SCALE, CONFIG)
    n, rate_bits = setup.rows, setup.config.rate_bits
    system.prove(setup)  # build this shape's tables before the threads read them
    with metrics.counting() as counts:
        assert system.digest(system.prove(setup)) == GOLDEN_DIGEST
    want = {k: 3 * v for k, v in counts.as_dict().items()}
    main_ws, main_tables = RUN.workspace, _stark_tables(n, rate_bits)
    seen = {}

    def prove_three(name):
        with metrics.counting() as counts:
            digests = [system.digest(system.prove(setup)) for _ in range(3)]
        seen[name] = (digests, counts.as_dict(), RUN.workspace, _stark_tables(n, rate_bits))

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
    for digests, got, ws, tables in seen.values():
        assert digests == [GOLDEN_DIGEST] * 3
        assert got == want
        assert ws is not main_ws
        assert all(a is b for a, b in zip(tables, main_tables))


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
