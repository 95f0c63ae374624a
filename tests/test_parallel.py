"""Shard-graph execution tests: build order, shm plane, pool, bit-identity.

The load-bearing contract is at the bottom: every proof is the same
shard graphs whatever pool runs them, so its digest and operation
counters must equal the pinned goldens at every worker count and
threshold setting, for all three protocols.  Everything above it
unit-tests the pieces that make that hold (graph validation,
build-order dispatch, shared-memory round trips, worker clamping).
"""

import glob
import json
import logging
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro import metrics, parallel, protocols, tracing
from repro.fri.config import FriConfig
from repro.merkle import MerkleTree, level_sizes
from repro.ntt import lde_coeffs, ntt
from repro.context import Workspace
from repro.parallel import ops as par_ops, shm
from repro.parallel.footprints import FOOTPRINTS
from repro.parallel.kernels import KERNELS
from repro.stark import prove as stark_prove
from repro.sumcheck import fold_table
from repro.workloads import by_name, fibonacci

from .goldens import (
    DIGESTS,
    PLONK_FIBONACCI_DIGEST,
    PROVE_COUNTERS,
    SCALE,
    VERIFY_COUNTERS,
    WORKLOADS,
)
from .reference_oracles import commit_coeffs
from .test_poseidon import REGIME_EDGES

CONFIG = FriConfig(
    rate_bits=1, cap_height=1, num_queries=8, proof_of_work_bits=4, final_poly_len=4
)

#: Thresholds that fan out even tiny CI-sized proofs.
TINY = {"min_rows": 1, "min_tree_leaves": 2}


def _pool(workers=2, **kw):
    cfg = {**TINY, **kw}
    return parallel.ShardPool(workers, **cfg)


class TestResolveWorkers:
    def test_none_means_every_effective_cpu(self):
        assert parallel.resolve_workers(None) == parallel.effective_cpus()

    def test_effective_cpus_is_positive(self):
        assert parallel.effective_cpus() >= 1

    @pytest.mark.parametrize("bad", ["2", 2.0, True, False])
    def test_non_int_rejected(self, bad):
        with pytest.raises(TypeError):
            parallel.resolve_workers(bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_below_one_rejected(self, bad):
        with pytest.raises(ValueError):
            parallel.resolve_workers(bad)

    def test_oversubscription_clamps_with_warning(self, caplog):
        cpus = parallel.effective_cpus()
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            got = parallel.resolve_workers(cpus + 7)
        assert got == cpus
        assert any("--workers" in r.message and "clamping" in r.message
                   for r in caplog.records)

    def test_in_range_passes_through(self):
        assert parallel.resolve_workers(1) == 1


class TestShardGraph:
    def test_duplicate_id_rejected(self):
        g = parallel.ShardGraph()
        g.add("a", "k", {})
        with pytest.raises(ValueError, match="duplicate"):
            g.add("a", "k", {})

    def test_unknown_dep_rejected(self):
        g = parallel.ShardGraph()
        with pytest.raises(ValueError, match="unknown"):
            g.add("b", "k", {}, deps=("missing",))


class TestBuildOrder:
    """A graph runs in the order it was built, whatever its shards cost."""

    def test_later_built_heavy_shard_still_runs_second(self):
        g = parallel.ShardGraph()
        coeffs = np.arange(8, dtype=np.uint64).reshape(2, 4)
        src = ntt(coeffs)
        coeffs_out = np.zeros_like(coeffs)
        values = np.zeros((8, 2), dtype=np.uint64)
        for sid, lo, units in (("light", 0, 1), ("heavy", 1, 100)):
            g.add(sid, "lde_rows", {
                "mode": "intt", "src": src, "coeffs_out": coeffs_out,
                "values_out": values, "lo": lo, "hi": lo + 1, "rate_bits": 1,
            }, units=units)
        with parallel.ShardPool(1) as pool, tracing.trace() as session:
            pool.run(g)
        ran = [(s.args["shard"], s.args["units"]) for s in session.walk()
               if s.name.startswith("shard:")]
        assert ran == [("light", 1.0), ("heavy", 100.0)]
        assert np.array_equal(coeffs_out, coeffs)
        assert np.array_equal(values.T, lde_coeffs(coeffs, 1))

    def test_diamond_completes_on_workers(self):
        # Three sumcheck folds of a 16-row table through shared memory:
        # src folds 16 -> 8 rows, the two branches each fold half of
        # those 8 -> 4, the sink folds 4 -> 2.  Only the dependency
        # edges order the reads after the writes they need.
        r = 7
        table = np.arange(16, dtype=np.uint64).reshape(16, 1) * np.uint64(2**40 + 3)
        with _pool(2) as pool:
            bufs = {n: pool.arena.temp((rows, 1), n)
                    for n, rows in (("a", 16), ("b", 8), ("c", 4), ("d", 2))}
            bufs["a"][:] = table
            ref = {n: pool.arena.ref_of(arr) for n, arr in bufs.items()}

            def fold(src, out, lo, hi):
                return {"src": ref[src], "out": ref[out], "lo": lo, "hi": hi, "r": r}

            g = parallel.ShardGraph("diamond")
            g.add("src", "sumcheck_fold", fold("a", "b", 0, 8))
            g.add("cheap", "sumcheck_fold", fold("b", "c", 0, 2), deps=("src",))
            g.add("long", "sumcheck_fold", fold("b", "c", 2, 4), deps=("src",), units=100)
            g.add("sink", "sumcheck_fold", fold("c", "d", 0, 2), deps=("cheap", "long"))
            results = pool.run(g)
            assert sorted(results) == ["cheap", "long", "sink", "src"]
            assert pool.stats["inline_shards"] == 0
            want = fold_table(fold_table(fold_table(table, r), r), r)
            assert np.array_equal(bufs["d"], want)


@pytest.fixture(params=["workspace", "shared"])
def arena(request):
    """Each transport's arena: the thread's kind and the shard pool's."""
    made = Workspace() if request.param == "workspace" else parallel.SharedArena("contract")
    yield made
    made.close()


class TestArenaContract:
    """One slot contract on both transports: a slot holds one buffer,
    grown to its largest request, and every shape is a view of its
    start."""

    def test_same_slot_and_shape_is_the_same_storage(self, arena):
        a = arena.temp((4, 3), "x")
        assert arena.temp((4, 3), "x") is a
        assert arena.ref_of(a) is not None
        assert arena.nbytes() == 4 * 3 * 8

    def test_a_larger_request_replaces_the_buffer(self, arena):
        small = arena.temp((6,), "x")
        arena.temp((2, 3), "x")
        arena.temp((4,), "y")
        assert arena.nbytes() == 8 * (6 + 4)
        grown = arena.temp((10,), "x")
        assert not np.shares_memory(grown, small)
        assert arena.nbytes() == 8 * (10 + 4)
        assert np.shares_memory(arena.temp((6,), "x"), grown)

    def test_a_smaller_shape_is_a_view_of_the_slot_start(self, arena):
        whole = arena.temp((8,), "x")
        part = arena.temp((2, 2), "x")
        assert part.flags.c_contiguous and np.shares_memory(part, whole)
        assert part.ctypes.data == whole.ctypes.data
        assert arena.nbytes() == 8 * 8

    def test_a_closed_arena_holds_no_bytes_refuses_temp(self, arena):
        arena.temp((2,), "z")
        arena.close()
        arena.close()
        assert arena.nbytes() == 0
        with pytest.raises(RuntimeError):
            arena.temp((2,), "z")


class TestSharedArena:
    def test_resolve_round_trip_shares_storage(self):
        arena = parallel.SharedArena("t1")
        try:
            a = arena.temp((8,), "y")
            a[:] = np.arange(8, dtype=np.uint64)
            ref = arena.ref_of(a)
            assert ref.shape == (8,)
            view = parallel.resolve(ref)
            assert np.array_equal(view, a)
            view[0] = np.uint64(99)
            assert a[0] == 99  # same physical pages, not a copy
        finally:
            arena.close()

    def test_resolve_passes_plain_values_through(self):
        arr = np.ones(3, dtype=np.uint64)
        assert parallel.resolve(arr) is arr
        assert parallel.resolve(42) == 42

    def test_foreign_arrays_have_no_ref(self):
        arena = parallel.SharedArena("t2")
        try:
            assert arena.ref_of(np.zeros(4, dtype=np.uint64)) is None
            assert arena.ref_of(arena.temp((4,), "x")[1:]) is None
        finally:
            arena.close()

    def test_a_grown_slot_unlinks_its_old_segment(self):
        # The replaced segment's name goes at once; its pages stay
        # mapped for as long as a view of it lives.
        arena = parallel.SharedArena("t3")
        try:
            kept = arena.temp((4, 3), "x")
            old = arena.ref_of(kept).name
            arena.temp((4,), "y")
            new = arena.ref_of(arena.temp((40,), "x")).name
            names = {Path(n).name for n in glob.glob(f"/dev/shm/repro-{os.getpid()}-t3-*")}
            assert new in names and old not in names and len(names) == 2
        finally:
            arena.close()
        assert glob.glob(f"/dev/shm/repro-{os.getpid()}-t3-*") == []
        kept[:] = np.uint64(7)
        assert (kept == 7).all()

    def test_resolving_two_refs_of_one_slot_keeps_one_mapping(self):
        arena = parallel.SharedArena("t4")
        try:
            first = arena.ref_of(arena.temp((4,), "w"))
            mapping = weakref.ref(parallel.resolve(first).base)
            second = arena.ref_of(arena.temp((64,), "w"))
            parallel.resolve(second)
            mapped = [name for name, _ in shm._ATTACHED.values()]
            assert second.name in mapped and first.name not in mapped
            assert mapping() is None  # the first segment is unmapped
        finally:
            arena.close()


class TestShardPoolValidation:
    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_workers_type_checked(self, bad):
        with pytest.raises(TypeError):
            parallel.ShardPool(bad)

    def test_workers_range_checked(self):
        with pytest.raises(ValueError):
            parallel.ShardPool(0)

    @pytest.mark.parametrize("field", ["min_rows", "min_tree_leaves", "min_queries"])
    def test_thresholds_validated(self, field):
        with pytest.raises(ValueError):
            parallel.ShardPool(1, **{field: 0})
        with pytest.raises(TypeError):
            parallel.ShardPool(1, **{field: 1.5})

    def test_default_workers_is_effective_cpus(self):
        pool = parallel.ShardPool()
        try:
            assert pool.workers == parallel.effective_cpus()
        finally:
            pool.close()

    def test_closed_pool_refuses_work(self):
        pool = parallel.ShardPool(1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run(parallel.ShardGraph())


class TestInlineFallback:
    def test_single_worker_spawns_no_processes(self):
        with parallel.ShardPool(1, **TINY) as pool:
            assert not pool.parallel
            # However low the gates, one worker means one-part graphs.
            stage = par_ops.from_values_graph(
                pool, np.arange(8, dtype=np.uint64).reshape(2, 4), 1, 1, "t"
            )
            assert stage.pool is pool
            assert [s.kind for s in stage.graph.shards.values()] == [
                "lde_rows", "merkle_subtree"
            ]
            g = parallel.ShardGraph()
            coeffs = np.arange(4, dtype=np.uint64).reshape(1, 4)
            values = np.zeros((8, 1), dtype=np.uint64)
            g.add("rows", "lde_rows", {
                "mode": "intt", "src": ntt(coeffs), "coeffs_out": np.zeros_like(coeffs),
                "values_out": values, "lo": 0, "hi": 1, "rate_bits": 1,
            })
            results = pool.run(g)
            assert set(results) == {"rows"}
            assert np.array_equal(values[:, 0], lde_coeffs(coeffs, 1)[0])
            assert pool.stats["inline_shards"] == 1
            assert pool.forked.procs == []

    def test_empty_graph_short_circuits(self):
        with parallel.ShardPool(1) as pool:
            assert pool.run(parallel.ShardGraph()) == {}
            assert pool.stats["graphs"] == 0


class TestContextScoping:
    def test_sharding_scopes_and_restores(self):
        inline = parallel.default_pool()
        assert parallel.current_pool() is inline
        assert inline.workers == 1 and not inline.parallel
        with parallel.ShardPool(1) as pool, parallel.ShardPool(1) as inner:
            with parallel.sharding(pool) as scoped:
                assert scoped is pool and parallel.current_pool() is pool
                with parallel.sharding(inner):
                    assert parallel.current_pool() is inner
                assert parallel.current_pool() is pool
            assert parallel.current_pool() is inline
        assert parallel.current_pool() is inline

    def test_sharding_none_inherits_enclosing_pool(self):
        inline = parallel.default_pool()
        with parallel.sharding(None) as scoped:
            assert scoped is inline and parallel.current_pool() is inline
        with parallel.ShardPool(1) as pool:
            with parallel.sharding(pool) as outer:
                assert outer is pool
                with parallel.sharding(None) as inherited:
                    assert inherited is pool and parallel.current_pool() is pool
                assert parallel.current_pool() is pool


class TestParallelExecution:
    """Real worker processes (forced past the CPU clamp via ShardPool)."""

    def test_worker_failure_raises_shard_error(self):
        with _pool(2) as pool:
            g = parallel.ShardGraph()
            g.add("boom", "nonexistent-kernel", {})
            with pytest.raises(parallel.ShardError, match="boom"):
                pool.run(g)

    def test_counters_and_spans_ride_back(self):
        air, trace, publics = fibonacci.SPEC.build_air(SCALE)
        with _pool(2) as pool, parallel.sharding(pool):
            with metrics.counting() as c, tracing.trace() as session:
                stark_prove(air, trace, publics, CONFIG)
            counts = c.as_dict()
        shard_spans = [s for s in session.walk() if s.name.startswith("shard:")]
        assert shard_spans, "sharded proof recorded no shard spans"
        kinds = {s.name for s in shard_spans}
        assert "shard:lde_rows" in kinds and "shard:merkle_subtree" in kinds
        assert all(s.args["worker"] >= 0 for s in shard_spans)
        assert counts["sponge_permutations"] > 0  # merged from workers

    def test_pool_heals_after_a_killed_worker(self):
        """A worker killed while idle is replaced before the next graph
        is dispatched: that prove succeeds (it used to fail typed)."""
        system, setup = _golden("stark")
        with _pool(2) as pool:
            system.prove(setup, pool=pool)
            victim = pool.forked.procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5.0)
            assert not victim.is_alive()
            _, digest, counts = _prove_counted(system, setup, pool)
            assert victim not in pool.forked.procs
            assert all(p.is_alive() for p in pool.forked.procs)
            assert pool.forked.restarts == 1
        _assert_golden("stark", digest, counts)
        assert not glob.glob(f"/dev/shm/repro-*-{pool.uid}-*")

    def test_worker_dying_mid_graph_fails_that_graph_then_heals(self, monkeypatch):
        # Registered before the pool forks, so only its workers know it.
        monkeypatch.setitem(KERNELS, "die", _die)
        monkeypatch.setitem(FOOTPRINTS, "die", lambda args: [])
        system, setup = _golden("stark")
        with _pool(2) as pool:
            system.prove(setup, pool=pool)
            g = parallel.ShardGraph()
            g.add("fatal", "die", {})
            with pytest.raises(parallel.ShardError, match=r"exitcode -9\).*in flight: \['fatal'\]"):
                pool.run(g)
            _, digest, counts = _prove_counted(system, setup, pool)
            assert pool.forked.restarts == 1
        _assert_golden("stark", digest, counts)


def _die(args):
    os.kill(os.getpid(), signal.SIGKILL)


def _alive(pid):
    """Whether a process runs (a zombie has ended; only its parent,
    maybe init, has not reaped it yet)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except (OSError, IndexError):
        return False


#: A coordinator that proves forever on a two-worker pool, after it has
#: printed the pool uid and its workers' pids.
_COORDINATOR_SCRIPT = """
from repro import parallel, protocols
from repro.workloads import fibonacci

system = protocols.get("stark")
setup = system.setup(fibonacci.SPEC, 6, system.make_config())
pool = parallel.ShardPool(2, min_rows=1, min_tree_leaves=2)
system.prove(setup, pool=pool)
print(pool.uid, *(p.pid for p in pool.forked.procs), flush=True)
while True:
    system.prove(setup, pool=pool)
"""


def test_killed_coordinator_leaves_no_worker_and_no_segment():
    """Workers read EOF when their coordinator dies and exit, and the
    resource tracker then unlinks its segments (they used to stay, with
    both workers blocked on their task queues)."""
    src_dir = Path(__file__).resolve().parents[1] / "src"
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR_SCRIPT],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src_dir)},
    )
    try:
        uid, *pids = coordinator.stdout.readline().split()
        assert len(pids) == 2
        assert glob.glob(f"/dev/shm/repro-*-{uid}-*")
    finally:
        coordinator.kill()
        coordinator.wait()
        coordinator.stdout.close()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and (
        any(map(_alive, pids)) or glob.glob(f"/dev/shm/repro-*-{uid}-*")
    ):
        time.sleep(0.05)
    assert [pid for pid in pids if _alive(pid)] == []
    assert glob.glob(f"/dev/shm/repro-*-{uid}-*") == []


def _echo_or_flood(worker_id, payload):
    if payload == "raise":
        raise ValueError("asked to")
    if payload == "hang":
        time.sleep(60)
    if payload == "flood":
        return {"blob": b"x" * (8 << 20)}  # far beyond a pipe's buffer
    return {"worker": worker_id, "echo": payload}


class TestWorkers:
    """The one worker primitive both pools stand on."""

    def test_replies_errors_and_stop(self):
        workers = parallel.Workers(2, _echo_or_flood).start()
        try:
            workers.send(0, "a", "hi")
            workers.send(1, "b", "raise")
            replies = []
            while len(replies) < 2:
                got, dead = workers.wait(10)
                assert got and dead == []
                replies += got
            assert sorted(replies, key=lambda r: r[0]) == [
                (0, "a", {"ok": True, "worker": 0, "echo": "hi"}),
                (1, "b", {"ok": False, "error": "ValueError: asked to"}),
            ]
            pids = [p.pid for p in workers.procs]
            start = time.monotonic()
        finally:
            workers.stop(timeout_s=5)
        assert time.monotonic() - start < 2.0  # EOF ends the loop: no kill
        assert workers.procs == [] and not any(map(_alive, pids))

    def test_stop_kills_a_worker_still_busy_at_the_deadline(self):
        workers = parallel.Workers(1, _echo_or_flood).start()
        pid = workers.procs[0].pid
        workers.send(0, "stuck", "hang")
        start = time.monotonic()
        workers.stop(timeout_s=0.2)
        assert 0.2 <= time.monotonic() - start < 2.0
        assert not _alive(pid)

    def test_writer_killed_mid_reply_tears_only_its_own_pipe(self):
        workers = parallel.Workers(2, _echo_or_flood).start()
        try:
            victim = workers.procs[0]
            workers.send(0, "big", "flood")
            # The reply has started and filled the pipe: the victim is
            # blocked inside its send.
            assert workers._conns[0].poll(10)
            os.kill(victim.pid, signal.SIGKILL)
            start = time.monotonic()
            workers.send(1, "small", "ping")
            replies, dead = [], set()
            while not replies or 0 not in dead:
                assert time.monotonic() - start < 2.0
                got, gone = workers.wait(1.0)
                replies += got
                dead.update(gone)
            assert replies == [(1, "small", {"ok": True, "worker": 1, "echo": "ping"})]
            assert dead == {0}
            assert workers.replace(0) == -signal.SIGKILL
            workers.send(0, "again", "ping")
            assert workers.wait(10) == (
                [(0, "again", {"ok": True, "worker": 0, "echo": "ping"})], []
            )
        finally:
            workers.stop(timeout_s=5)


#: One sharded prove on a pool started *before* anything created a
#: shared-memory segment (how ``bench/prover.py`` starts its pool), then
#: one more after an idle worker is SIGKILLed (its replacement proves
#: the same bytes), then ``close()`` and exit.  Prints the pool uid its
#: segments were named by.
_SHUTDOWN_SCRIPT = """
import os, signal
from repro import parallel, protocols
from repro.workloads import fibonacci

system = protocols.get("stark")
setup = system.setup(fibonacci.SPEC, 6, system.make_config())
pool = parallel.ShardPool(2, min_rows=1, min_tree_leaves=2).start()
proof = system.prove(setup, pool=pool)
system.verify(setup, proof)
assert pool.stats["shards"] and not pool.stats["inline_shards"], pool.stats
victim = pool.forked.procs[0]
os.kill(victim.pid, signal.SIGKILL)
victim.join(5)
assert system.digest(system.prove(setup, pool=pool)) == system.digest(proof)
assert pool.forked.restarts == 1, pool.forked.restarts
pool.close()
print(pool.uid)
"""


def test_sharded_prove_then_close_exits_silently():
    """Workers forked before the resource tracker existed each grew a
    private tracker that re-registered every segment they attached and,
    at exit, warned about (and tried to unlink) segments the coordinator
    had already reclaimed: ~30 stderr lines after one prove.  A worker
    killed and replaced on the way must not add a line either."""
    src_dir = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c", _SHUTDOWN_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src_dir)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert not glob.glob(f"/dev/shm/repro-*-{done.stdout.strip()}-*")


class TestShardedMerkle:
    def test_from_levels_matches_hashed_tree(self):
        leaves = np.arange(64, dtype=np.uint64).reshape(16, 4)
        serial = MerkleTree(leaves, cap_height=1)
        sizes = level_sizes(16, 1)
        arena = np.concatenate([lvl for lvl in serial.levels])
        rebuilt = MerkleTree.from_levels(leaves, 1, arena, sizes)
        assert np.array_equal(rebuilt.cap, serial.cap)
        assert np.array_equal(rebuilt.prove(5).nodes, serial.prove(5).nodes)

    def test_from_levels_validates_sizes(self):
        leaves = np.zeros((16, 4), dtype=np.uint64)
        sizes = level_sizes(16, 1)
        arena = np.zeros((sum(sizes), 4), dtype=np.uint64)
        with pytest.raises(ValueError):
            MerkleTree.from_levels(leaves, 1, arena, sizes[:-1])
        with pytest.raises(ValueError):
            MerkleTree.from_levels(leaves, 1, arena[:-1], sizes)

    def test_sharded_commit_matches_serial(self):
        rng = np.random.default_rng(7)
        coeffs = rng.integers(0, 2**63, size=(3, 32), dtype=np.uint64)
        values = lde_coeffs(coeffs, 1).T
        whole = MerkleTree(values, cap_height=1)
        inline = commit_coeffs(coeffs.copy(), 1, 1)
        with _pool(3) as pool:  # 4 subtrees + the cap climb
            stage = par_ops.from_values_graph(pool, ntt(coeffs), 1, 1, "t")
            assert stage.pool is pool and len(stage.graph) == 3 + 4 + 1
            fanned = stage.run()
            for batch in (inline, fanned):
                assert np.array_equal(batch.values, values)
                assert np.array_equal(batch.tree.cap, whole.cap)
                assert np.array_equal(
                    batch.tree.prove(3).nodes, whole.prove(3).nodes
                )


def _golden(name):
    system = protocols.get(name)
    return system, system.setup(by_name(WORKLOADS[name]), SCALE, system.make_config())


def _prove_counted(system, setup, pool=None):
    with metrics.counting() as c:
        proof = system.prove(setup, pool=pool)
    return proof, system.digest(proof), c.as_dict()


def _assert_golden(name, digest, counts):
    want_counts = PROVE_COUNTERS[name]
    assert digest == DIGESTS[name]
    assert {k: counts[k] for k in want_counts} == want_counts


def _stage_names(span):
    """Depth-1 names in order, and each one's set of child names."""
    return (
        [c.name for c in span.children],
        [sorted({g.name for g in c.children}) for c in span.children],
    )


class TestBitIdentity:
    """The whole point: one program, bit for bit, op for op, on any pool."""

    @pytest.mark.parametrize("gates", [{}, TINY], ids=["default-gates", "low-gates"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_matches_pinned_goldens(self, name, workers, gates):
        system, setup = _golden(name)
        with parallel.ShardPool(workers, **gates) as pool:
            _, digest, counts = _prove_counted(system, setup, pool)
            # One worker runs every shard itself; more workers run none
            # in the coordinator (small stages go to the default pool).
            if workers == 1 or gates:
                assert pool.stats["shards"] > 0
            inline = pool.stats["shards"] if workers == 1 else 0
            assert pool.stats["inline_shards"] == inline
        _assert_golden(name, digest, counts)

    def test_stark_sharded_is_bit_identical(self):
        system, setup = _golden("stark")
        with _pool(2) as pool:
            proof, digest, counts = _prove_counted(system, setup, pool)
        _assert_golden("stark", digest, counts)
        system.verify(setup, proof)

    def test_plonk_sharded_is_bit_identical(self):
        system, setup = _golden("plonk")
        with _pool(2) as pool:
            proof, digest, counts = _prove_counted(system, setup, pool)
        _assert_golden("plonk", digest, counts)
        system.verify(setup, proof)

    def test_hyperplonk_sharded_is_bit_identical(self):
        system, setup = _golden("hyperplonk")
        with _pool(2) as pool:
            proof, digest, counts = _prove_counted(system, setup, pool)
        _assert_golden("hyperplonk", digest, counts)
        system.verify(setup, proof)

    def test_repeat_proof_reuses_segments(self):
        # Forced-low gates commit every batch in shared memory, and no
        # segment may grow on a rerun.  Default gates run these small
        # Fibonacci stages in-process and open the queries from the
        # trees in place, so the pool holds no segment at all.
        cases = (
            ("stark", TINY, DIGESTS["stark"]),
            ("stark", {}, DIGESTS["stark"]),
            ("plonk", {}, PLONK_FIBONACCI_DIGEST),
        )
        for name, gates, digest in cases:
            system = protocols.get(name)
            setup = system.setup(fibonacci.SPEC, SCALE, system.make_config())
            with parallel.ShardPool(2, **gates) as pool:
                _, first, _ = _prove_counted(system, setup, pool)
                before = pool.arena.nbytes()
                assert before > 0 if gates else before == 0
                _, second, _ = _prove_counted(system, setup, pool)
                assert first == second == digest
                # Same slots, same shapes -> no segment grows on the rerun.
                assert pool.arena.nbytes() == before

    def test_growing_proves_hold_one_segment_a_slot(self):
        # STARK Fibonacci 2^6, 2^8 then 2^10 on one pool leave what a
        # fresh pool holds after 2^10 alone: each slot grew into one new
        # segment and the segment it replaced was unlinked.
        system = protocols.get("stark")

        def held(scales):
            with _pool(2) as pool:
                for scale in scales:
                    setup = system.setup(fibonacci.SPEC, scale, system.make_config())
                    system.prove(setup, pool=pool)
                segments = len(glob.glob(f"/dev/shm/repro-*-{pool.uid}-*"))
                return pool.arena.nbytes(), segments

        assert held((6, 8, 10)) == held((10,))

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_unscoped_prove_runs_inline_shards(self, name):
        system, setup = _golden(name)
        inline = parallel.default_pool()
        before = dict(inline.stats)
        _, digest, counts = _prove_counted(system, setup)
        _assert_golden(name, digest, counts)
        ran = {k: inline.stats[k] - before[k] for k in before}
        assert ran["graphs"] > 0
        assert ran["inline_shards"] == ran["shards"] >= ran["graphs"]
        assert inline.forked.procs == [] and inline.arena.nbytes() == 0

    def test_default_proves_reach_every_kernel(self):
        reached = set()
        for name in sorted(DIGESTS):
            system, setup = _golden(name)
            with tracing.trace() as session:
                system.prove(setup)
            reached |= {
                s.name[len("shard:"):] for s in session.walk()
                if s.name.startswith("shard:")
            }
        assert reached == set(KERNELS)

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_stage_names_do_not_depend_on_workers(self, name):
        system, setup = _golden(name)
        shapes = []
        for workers in (1, 2):
            with _pool(workers) as pool, tracing.trace() as session:
                system.prove(setup, pool=pool)
            (root,) = session.spans
            shapes.append(_stage_names(root))
        assert shapes[0] == shapes[1]


#: The batched permutation against the scalar one at the batch sizes
#: of ``argv[1]``, then every golden instance proved and verified with
#: no pool and on a forced two-worker pool; prints what it saw.
_ONE_BLAS_THREAD_SCRIPT = """
import json, sys
import numpy as np
from repro import metrics, parallel, protocols
from repro.hashing import optimized
from repro.workloads import by_name
from tests.goldens import CONFIGS, SCALE, WORKLOADS

rng = np.random.default_rng(0)
diverged = []
for batch in json.loads(sys.argv[1]):
    states = rng.integers(0, 2**64, size=(batch, 12), dtype=np.uint64)
    want = [optimized.permute_scalar(row) for row in states.tolist()]
    if optimized.permute_into(states).tolist() != want:
        diverged.append(batch)

def run(system, setup, pool=None):
    with metrics.counting() as prove_counts:
        proof = system.prove(setup, pool=pool)
    with metrics.counting() as verify_counts:
        system.verify(setup, proof)
    return [system.digest(proof), prove_counts.as_dict(), verify_counts.as_dict()]

inline = parallel.default_pool()
seen = {"diverged": diverged, "inline": {}, "pool": {}, "inline_shards": {}}
with parallel.ShardPool(2, min_rows=1, min_tree_leaves=2) as pool:
    for name, config in CONFIGS.items():
        system = protocols.get(name)
        setup = system.setup(by_name(WORKLOADS[name]), SCALE, config)
        before = inline.stats["inline_shards"]
        seen["inline"][name] = run(system, setup)
        seen["inline_shards"][name] = inline.stats["inline_shards"] - before
        seen["pool"][name] = run(system, setup, pool)
    seen["pool_stats"] = dict(pool.stats)
print(json.dumps(seen))
"""


def test_goldens_hold_with_one_blas_thread():
    """Poseidon's dense layers are float64 GEMMs, exact in any summation
    order: with OpenBLAS held to one thread, the batched permutation
    still equals the scalar one at every regime boundary, and every
    golden instance proves the pinned digest with the pinned prove and
    verify counters, with no pool (on inline shards) and on a two-worker
    pool (on worker shards)."""
    repo = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _ONE_BLAS_THREAD_SCRIPT, json.dumps(REGIME_EDGES)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=repo,
        env={**os.environ, "PYTHONPATH": f"{repo / 'src'}{os.pathsep}{repo}",
             "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["diverged"] == []
    for where in ("inline", "pool"):
        for name, (digest, prove_counts, verify_counts) in seen[where].items():
            assert digest == DIGESTS[name], (where, name)
            assert {k: prove_counts[k] for k in PROVE_COUNTERS[name]} == PROVE_COUNTERS[name]
            assert {k: verify_counts[k] for k in VERIFY_COUNTERS[name]} == VERIFY_COUNTERS[name]
    assert sorted(seen["inline"]) == sorted(DIGESTS)
    assert all(seen["inline_shards"].values()), seen["inline_shards"]
    assert seen["pool_stats"]["shards"] and not seen["pool_stats"]["inline_shards"]
