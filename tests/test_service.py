"""Proving-service tests: queue, cache, single-flight, end-to-end round trips."""

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.metrics import counting
from repro.parallel import ShardPool, sharding
from repro.protocols import get as get_protocol
from repro.serialize import (
    proof_from_blob,
    proof_to_blob,
    read_result_envelope,
    write_result_envelope,
)
from repro.service import (
    JobSpec,
    JobState,
    PriorityJobQueue,
    ProofCache,
    ProvingService,
    ServiceClient,
    serve_forever,
    verify_result,
    wait_for_server,
)
from repro.stark import StarkError, prove as stark_prove, verify as stark_verify
from repro.workloads import by_name
from repro.workloads.fibonacci import build_air, fibonacci_mod_p


FIB = {"workload": "Fibonacci", "kind": "stark", "scale": 6}


def _service(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("jitter_seed", 0)
    return ProvingService(**kw)


def _sleep(seconds, **kw):
    """A ``sleep`` job (needs ``fault_injection=True``): milliseconds of CPU."""
    return dict(workload="x", kind="sleep", params={"seconds": seconds}, **kw)


def _wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def _check_flights(svc):
    """Every non-terminal job rides exactly one flight, and at most one
    flight per cache key exists."""
    with svc._lock:
        riding = sorted(j for f in svc._flights.values() for j in f.riders)
        live = sorted(j.id for j in svc._jobs.values() if not j.state.terminal)
        assert riding == live
        for key, flight in svc._flights.items():
            assert flight.riders and flight.spec.cache_key == key
            want = JobState.RUNNING if flight.running else JobState.PENDING
            for job_id in flight.riders:
                job = svc._jobs[job_id]
                assert job.spec.cache_key == key and job.state is want


class TestPriorityJobQueue:
    def test_priority_order(self):
        q = PriorityJobQueue()
        q.push("low", priority=5)
        q.push("high", priority=0)
        q.push("mid", priority=3)
        assert [q.pop_ready() for _ in range(4)] == ["high", "mid", "low", None]

    def test_fifo_within_priority(self):
        q = PriorityJobQueue()
        for name in ("a", "b", "c"):
            q.push(name, priority=1)
        assert [q.pop_ready() for _ in range(4)] == ["a", "b", "c", None]

    def test_delay_hides_entry(self):
        q = PriorityJobQueue()
        q.push("later", delay_s=0.15)
        q.push("now")
        assert [q.pop_ready(), q.pop_ready()] == ["now", None]
        assert len(q) == 1
        time.sleep(0.2)
        assert [q.pop_ready(), q.pop_ready()] == ["later", None]


class TestProofCache:
    def test_hit_miss_metrics(self):
        c = ProofCache(max_entries=4)
        assert c.get("k") is None
        c.put("k", b"v")
        assert c.get("k") == b"v"
        s = c.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["entries"] == 1

    def test_lru_eviction_order(self):
        c = ProofCache(max_entries=2)
        c.put("a", b"1")
        c.put("b", b"2")
        c.get("a")  # refresh: b is now LRU
        c.put("c", b"3")
        assert "a" in c and "c" in c and "b" not in c
        assert c.stats()["evictions"] == 1

    def test_byte_budget_evicts(self):
        c = ProofCache(max_entries=100, max_bytes=10)
        c.put("a", b"x" * 8)
        c.put("b", b"y" * 8)
        assert "a" not in c and "b" in c


class TestSpec:
    def test_cache_key_is_canonical(self):
        a = JobSpec("Fibonacci", config={"num_queries": 4, "rate_bits": 1})
        b = JobSpec("Fibonacci", config={"rate_bits": 1, "num_queries": 4})
        assert a.cache_key == b.cache_key

    def test_scale_changes_cache_key(self):
        a = JobSpec("Fibonacci", scale=5)
        b = JobSpec("Fibonacci", scale=6)
        assert a.cache_key != b.cache_key

    def test_cache_key_names_the_resolved_config(self):
        default = JobSpec("Fibonacci", config={})
        spelled = JobSpec("Fibonacci", config={"num_queries": 10})  # STARK's default
        assert default.cache_key == spelled.cache_key
        assert JobSpec("Fibonacci", config={"num_queries": 11}).cache_key != default.cache_key

    def test_non_protocol_kinds_key_on_raw_overrides(self):
        a = JobSpec("Fibonacci", kind="simulate", config={})
        b = JobSpec("Fibonacci", kind="simulate", config={"num_queries": 10})
        assert a.cache_key != b.cache_key

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("Fibonacci", kind="quantum")


class TestServiceEndToEnd:
    def test_proof_round_trips_and_verifies(self):
        with _service() as svc:
            jid = svc.submit(**FIB)
            result = svc.result(jid, timeout_s=60)
            kind, workload, payload = read_result_envelope(result.envelope)
            assert kind == "stark-proof" and workload == "Fibonacci"
            air, trace, publics = build_air(FIB["scale"])
            _, proof = proof_from_blob(payload, expected_protocol="stark")
            stark_verify(air, len(trace), publics, proof, get_protocol("stark").make_config())
            assert verify_result(FIB, result.envelope)
            stats = svc.job(jid)
            assert stats["state"] == "done"
            assert stats["queue_wait_s"] >= 0
            assert stats["run_time_s"] > 0
            assert stats["counters"]["sponge_permutations"] > 0

    def test_a_proof_of_another_statement_is_refused(self):
        # The envelope is checked against the job's own instance: a proof
        # whose prover was handed another statement true of the same
        # trace (row 10 holds F_10, not row 63 F_63) is refused.
        air, trace, _ = build_air(FIB["scale"])
        proof = stark_prove(air, trace, [10, fibonacci_mod_p(10)], get_protocol("stark").make_config())
        envelope = write_result_envelope(
            "stark-proof", "Fibonacci", proof_to_blob("stark", proof)
        )
        with pytest.raises(StarkError):
            verify_result(FIB, envelope)

    def test_hyperplonk_job_round_trips_and_verifies(self):
        spec = {"workload": "Fibonacci", "kind": "hyperplonk", "scale": 6,
                "config": {"num_queries": 4}}
        with _service() as svc:
            jid = svc.submit(**spec)
            result = svc.result(jid, timeout_s=60)
            kind, workload, payload = read_result_envelope(result.envelope)
            assert kind == "hyperplonk-proof" and workload == "Fibonacci"
            # The tagged blob carries the protocol it claims to be.
            protocol, _proof = proof_from_blob(payload)
            assert protocol == "hyperplonk"
            assert verify_result(spec, result.envelope)
            # Sumcheck-native prover: no NTT work on the hot path.
            assert result.counters.get("ntt_butterflies", 0) == 0
            assert result.counters.get("ntt_transforms", 0) == 0
            assert svc.job(jid)["state"] == "done"

    def test_cache_hit_is_byte_identical(self):
        with _service(workers=1) as svc:
            first = svc.result(svc.submit(**FIB), timeout_s=60)
            second_id = svc.submit(**FIB)
            second = svc.result(second_id, timeout_s=10)
            assert not first.cache_hit and second.cache_hit
            assert second.envelope == first.envelope
            assert svc.job(second_id)["cache_hit"]
            assert svc.stats()["cache"]["hits"] == 1

    def test_cache_disabled_reproves(self):
        with _service(workers=1, enable_cache=False) as svc:
            a = svc.result(svc.submit(**FIB), timeout_s=60)
            b = svc.result(svc.submit(**FIB), timeout_s=60)
            assert not a.cache_hit and not b.cache_hit
            assert a.envelope == b.envelope  # determinism, not caching
            assert svc.stats()["cache"]["hits"] == 0

    def test_concurrent_duplicates_batch(self):
        # Submit before start(): all four ride one queued flight when
        # the scheduler wakes.
        svc = _service(workers=1)
        ids = [svc.submit(**FIB) for _ in range(4)]
        svc.start()
        try:
            envelopes = {svc.result(j, timeout_s=60).envelope for j in ids}
            assert len(envelopes) == 1
            stats = [svc.job(j) for j in ids]
            assert all(s["batch_size"] == 4 for s in stats)
            assert svc.stats()["batches_dispatched"] == 1
        finally:
            svc.close()

    def test_default_and_spelled_out_default_config_prove_once(self):
        svc = _service(workers=1)
        ids = [svc.submit(**FIB, config=config) for config in ({}, {"num_queries": 10})]
        svc.start()
        try:
            envelopes = {svc.result(j, timeout_s=60).envelope for j in ids}
            assert len(envelopes) == 1
            assert svc.stats()["batches_dispatched"] == 1
            again = svc.result(svc.submit(**FIB, config={"num_queries": 10}), timeout_s=10)
            assert again.cache_hit and again.envelope in envelopes
        finally:
            svc.close()

    def test_unknown_workload_rejected_at_submit(self):
        with _service() as svc:
            with pytest.raises(KeyError):
                svc.submit(workload="NoSuchWorkload", kind="stark")

    def test_fault_kinds_need_opt_in(self):
        with _service() as svc:
            with pytest.raises(ValueError):
                svc.submit(workload="x", kind="sleep")

    def test_cancel_pending_job(self):
        svc = _service(workers=1)  # not started: jobs stay pending
        jid = svc.submit(**FIB)
        assert svc.cancel(jid)
        assert svc.job(jid)["state"] == "cancelled"
        svc.close(drain=False)

    def test_simulate_kind_returns_report(self):
        with _service(workers=1) as svc:
            jid = svc.submit(workload="Factorial", kind="simulate")
            result = svc.result(jid, timeout_s=60)
            kind, _, payload = read_result_envelope(result.envelope)
            assert kind == "sim-report"
            import json

            report = json.loads(payload.decode())
            assert report["total_seconds"] > 0


class TestSingleFlight:
    """Identical requests share one execution, whenever they arrive."""

    def test_late_twin_rides_the_running_flight(self):
        with _service(fault_injection=True) as svc:
            first = svc.submit(**_sleep(0.4))
            _wait_for(lambda: svc.job(first)["state"] == "running")
            second = svc.submit(**_sleep(0.4))
            assert svc.job(second)["state"] == "running"
            a = svc.result(first, timeout_s=30)
            b = svc.result(second, timeout_s=30)
            assert a.envelope == b.envelope and not b.cache_hit
            assert svc.job(second)["batch_size"] == 2
            stats = svc.stats()
            assert stats["batches_dispatched"] == 1
            assert stats["jobs_dispatched"] == 2

    def test_cache_off_still_merges_concurrent_twins(self):
        with _service(workers=1, fault_injection=True, enable_cache=False) as svc:
            first = svc.submit(**_sleep(0.2))
            _wait_for(lambda: svc.job(first)["state"] == "running")
            second = svc.submit(**_sleep(0.2))
            svc.result(second, timeout_s=30)
            assert svc.stats()["batches_dispatched"] == 1
            # ... but a re-submit after the flight landed runs again.
            svc.result(svc.submit(**_sleep(0.2)), timeout_s=30)
            assert svc.stats()["batches_dispatched"] == 2

    def test_distinct_specs_spread_over_workers(self):
        svc = _service(fault_injection=True)
        ids = [svc.submit(**_sleep(s)) for s in (0.05, 0.06)]
        with svc:
            for j in ids:
                svc.result(j, timeout_s=30)
            dispatches = svc.stats()["worker_dispatches"]
            assert sorted(dispatches.values()) == [1, 1]
            assert [svc.job(j)["batch_size"] for j in ids] == [1, 1]

    def test_idle_service_dispatches_without_a_window(self):
        with ProvingService(workers=1, fault_injection=True) as svc:
            jid = svc.submit(**_sleep(0.05))
            svc.result(jid, timeout_s=30)
            assert svc.job(jid)["queue_wait_s"] < 0.03

    def test_cancelled_rider_leaves_the_other_to_complete(self):
        svc = _service(workers=1, fault_injection=True)
        keep, drop = svc.submit(**_sleep(0.05)), svc.submit(**_sleep(0.05))
        assert svc.cancel(drop)
        with svc:
            assert svc.result(keep, timeout_s=30).envelope
            assert svc.job(drop)["state"] == "cancelled"
            assert svc.job(keep)["batch_size"] == 1
            assert svc.stats()["batches_dispatched"] == 1

    def test_cancelling_the_only_rider_drops_the_flight(self):
        svc = _service(workers=1, fault_injection=True)
        assert svc.cancel(svc.submit(**_sleep(0.05)))
        assert svc.stats()["queue_depth"] == 0
        with svc:
            # The stale queue entry surfaces on a tick and is skipped.
            _wait_for(lambda: len(svc.queue) == 0)
            stats = svc.stats()
            assert stats["batches_dispatched"] == 0
            assert stats["queue_depth"] == 0

    def test_urgent_twin_pulls_its_queued_flight_forward(self):
        with _service(workers=1, fault_injection=True) as svc:
            a = svc.submit(**_sleep(0.2))
            _wait_for(lambda: svc.job(a)["state"] == "running")
            b = svc.submit(**_sleep(0.05), priority=5)
            c = svc.submit(**_sleep(0.06), priority=5)
            c_urgent = svc.submit(**_sleep(0.06), priority=0)
            for j in (b, c, c_urgent):
                svc.result(j, timeout_s=30)
            assert svc._jobs[c].started_at < svc._jobs[b].started_at
            assert svc.job(c)["batch_size"] == 2
            # C's second queue entry found it gone and dispatched nothing.
            assert svc.stats()["batches_dispatched"] == 3

    def test_random_schedule_keeps_the_flight_invariant(self):
        rng = random.Random(7)
        submitted, cancelled = [], 0
        with _service(fault_injection=True, enable_cache=False) as svc:
            for _ in range(40):
                if submitted and rng.random() < 0.3:
                    cancelled += svc.cancel(rng.choice(submitted))
                else:
                    submitted.append(svc.submit(
                        **_sleep(rng.choice((0.01, 0.02, 0.03))),
                        priority=rng.choice((0, 1, 5)),
                    ))
                _check_flights(svc)
                time.sleep(rng.choice((0.0, 0.002, 0.01)))
            assert svc.drain(timeout_s=30)
            _check_flights(svc)
            assert all(svc._jobs[j].state.terminal for j in submitted)
            assert svc._flights == {}
            stats = svc.stats()
            assert stats["inflight_batches"] == 0 and stats["queue_depth"] == 0
            assert stats["completed"] == len(submitted) - cancelled
            assert 0 < stats["batches_dispatched"] <= len(submitted) - cancelled
            assert stats["jobs_dispatched"] == stats["completed"]


class TestSocketRoundTrip:
    def test_submit_status_stats_shutdown(self):
        svc = _service(workers=1).start()
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_forever,
            args=(svc,),
            kwargs={"port": 8471, "ready_event": ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(5) and wait_for_server("127.0.0.1", 8471)
        try:
            with ServiceClient("127.0.0.1", 8471) as client:
                response = client.submit(FIB, wait=True, wait_s=60)
                assert response["job"]["state"] == "done"
                assert verify_result(FIB, response["envelope"])
                job_stats = client.status(response["job_id"])
                assert job_stats["state"] == "done"
                assert client.stats()["completed"] == 1
                client.shutdown()
            thread.join(5)
            assert not thread.is_alive()
        finally:
            svc.close()


class TestServerHardening:
    """Socket-layer trust boundaries: clamped waits, malformed requests."""

    def _bare_server(self, **kw):
        # Dispatchless ops (ping) and the clamp logic never touch the
        # wrapped service, so a placeholder keeps these tests cheap.
        from repro.service.net import ServiceServer

        return ServiceServer(None, host="127.0.0.1", port=0, **kw)

    def test_client_waits_are_clamped(self):
        server = self._bare_server(max_wait_s=10.0, drain_timeout_s=5.0)
        try:
            assert server._clamp_wait(2.5) == 2.5
            assert server._clamp_wait(1e9) == 10.0  # hostile huge wait
            assert server._clamp_wait(-3) == 0.0
            assert server._clamp_wait(None) == 10.0  # "forever" is not offered
            assert server._clamp_wait("banana") == 10.0
            assert server.drain_timeout_s == 5.0
        finally:
            server.server_close()

    def test_malformed_requests_keep_connection(self):
        import json
        import socket

        server = self._bare_server()
        port = server.server_address[1]
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                f = sock.makefile("rwb")
                for bad, needle in [
                    (b"this is not json", "malformed"),
                    (b"\xff\xfe\x01", "malformed"),
                    (b"[1, 2, 3]", "JSON object"),
                    (b'"just a string"', "JSON object"),
                ]:
                    f.write(bad + b"\n")
                    f.flush()
                    resp = json.loads(f.readline())
                    assert resp["ok"] is False and needle in resp["error"]
                # The same connection must still serve good requests.
                f.write(json.dumps({"op": "ping"}).encode() + b"\n")
                f.flush()
                resp = json.loads(f.readline())
                assert resp["ok"] is True and resp["pong"] is True
        finally:
            server.shutdown()
            server.server_close()
            thread.join(5)


class TestCountersUnderConcurrency:
    def test_threads_do_not_corrupt_each_other(self, rng):
        from repro.field import gl64
        from repro.hashing import hash_batch

        data = gl64.random((4, 10), rng)

        def measured(_):
            with counting() as c:
                hash_batch(data)
                time.sleep(0.01)  # overlap the scopes
                return c.sponge_permutations

        with ThreadPoolExecutor(max_workers=4) as pool:
            seen = list(pool.map(measured, range(4)))
        # 4 rows x 2 chunks each; a shared mutable counter would leak
        # other threads' increments into the delta.
        assert seen == [8, 8, 8, 8]

    def test_worker_counters_merged_on_return(self):
        with _service(workers=1) as svc:
            jid = svc.submit(**FIB)
            svc.result(jid, timeout_s=60)
            totals = svc.stats()["counters"]
            assert totals["sponge_permutations"] > 0
            assert totals["ntt_butterflies"] > 0


class TestIdleWorkerOrdering:
    """The service's flight policy on the worker primitive.  No worker is
    forked: only the per-slot bookkeeping the scheduler keeps is read."""

    def test_longest_waiting_worker_first(self):
        svc = _service(workers=3)
        # Refresh idle stamps in reverse id order: worker 2 has now been
        # idle the longest and must lead the list.
        for wid in (2, 1, 0):
            svc._handle_result(wid, -1, {"ok": False, "error": "stale"})
            time.sleep(0.002)
        assert svc._idle_workers() == [2, 1, 0]

    def test_busy_workers_excluded(self):
        svc = _service(workers=3)
        svc._running[0] = (7, float("inf"))
        assert 0 not in svc._idle_workers()
        svc._handle_result(0, 7, {"ok": False, "error": "stale"})
        # Freshly idled again -> back in the list, but at the end.
        assert svc._idle_workers()[-1] == 0

    def test_assign_counts_dispatches(self):
        svc = _service(workers=2, fault_injection=True)
        sent = []
        svc.forked.send = lambda *task: sent.append(task)
        for seconds in (0.01, 0.02):
            svc.submit(**_sleep(seconds))
        svc._dispatch()
        assert sorted(wid for wid, _, _ in sent) == [0, 1]
        assert sorted(svc._running) == [0, 1]
        assert svc.stats()["worker_dispatches"] == {0: 1, 1: 1}


class TestSubmitArgsValidated:
    """A bad per-job argument is refused at submit, before the job is
    registered; one that got in used to kill the scheduler thread on its
    first retry decision and leave every later job pending."""

    #: Fails in setup (the cap is taller than the tree), so the
    #: scheduler's retry decision reads ``max_retries``.
    TALL_CAP = {**FIB, "scale": 5, "config": {"cap_height": 20}}

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"max_retries": "1"}, TypeError),
            ({"max_retries": True}, TypeError),
            ({"max_retries": 1.0}, TypeError),
            ({"max_retries": -1}, ValueError),
            ({"priority": "0"}, TypeError),
            ({"priority": False}, TypeError),
            ({"timeout_s": "5"}, TypeError),
            ({"timeout_s": True}, TypeError),
            ({"timeout_s": 0}, ValueError),
            ({"timeout_s": float("inf")}, ValueError),
            ({"timeout_s": float("nan")}, ValueError),
        ],
    )
    def test_bad_job_args_raise_before_registration(self, kwargs, error):
        svc = _service(workers=1)
        with pytest.raises(error):
            svc.submit(self.TALL_CAP, **kwargs)
        assert svc.stats()["submitted"] == 0

    def test_scheduler_survives_and_serves_the_next_job(self):
        with _service(workers=1) as svc:
            with pytest.raises(TypeError, match="max_retries"):
                svc.submit(self.TALL_CAP, max_retries="1")
            failing = svc.submit(self.TALL_CAP, max_retries=0)
            good = svc.submit(**FIB)
            assert verify_result(FIB, svc.result(good, timeout_s=60).envelope)
            assert svc.job(failing)["state"] == "failed"

    def test_bad_max_retries_over_the_socket(self):
        import json
        import socket

        svc = _service(workers=1).start()
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_forever,
            args=(svc,),
            kwargs={"port": 8473, "ready_event": ready, "max_wait_s": 60.0},
            daemon=True,
        )
        thread.start()
        assert ready.wait(5) and wait_for_server("127.0.0.1", 8473)
        try:
            with socket.create_connection(("127.0.0.1", 8473), timeout=90) as sock:
                f = sock.makefile("rwb")

                def call(request):
                    f.write(json.dumps(request).encode() + b"\n")
                    f.flush()
                    return json.loads(f.readline())

                bad = call({"op": "submit", "spec": self.TALL_CAP,
                            "max_retries": "1", "wait": True})
                assert bad["ok"] is False and "max_retries" in bad["error"]
                # The connection and the scheduler both still serve.
                good = call({"op": "submit", "spec": FIB, "wait": True})
                assert good["ok"] is True, good
                assert verify_result(FIB, bytes.fromhex(good["envelope_hex"]))
                assert call({"op": "shutdown"})["bye"] is True
            thread.join(5)
        finally:
            svc.close()


class TestStageWallMerge:
    def _root(self):
        return {
            "name": "prove:stark", "elapsed_s": 3.0, "children": [
                {
                    "name": "commit:trace", "elapsed_s": 2.0, "children": [
                        # Grandchild: a shard span re-attached under the
                        # stage that dispatched it.  Its wall time is
                        # already inside commit:trace's 2.0 s.
                        {"name": "shard:lde_rows", "elapsed_s": 1.5, "children": []},
                    ],
                },
                {"name": "fri", "elapsed_s": 0.5, "children": []},
            ],
        }

    def test_roots_and_direct_children_only(self):
        svc = _service(workers=1)
        svc._merge_stage_wall([self._root()])
        agg = svc.totals["stage_wall_s"]
        assert agg["prove:stark"] == pytest.approx(3.0)
        assert agg["commit:trace"] == pytest.approx(2.0)
        assert agg["fri"] == pytest.approx(0.5)
        # Shard spans sit two levels down; counting them would double
        # every sharded stage's wall time.
        assert "shard:lde_rows" not in agg

    def test_accumulates_across_results(self):
        svc = _service(workers=1)
        svc._merge_stage_wall([self._root()])
        svc._merge_stage_wall([self._root()])
        assert svc.totals["stage_wall_s"]["fri"] == pytest.approx(1.0)


class TestInheritedPool:
    def test_worker_forked_inside_a_parallel_pool_proves_inline(self):
        """A worker forked inside ``sharding(pool)`` inherits the forking
        thread's ``RUN.pool``; it must not run graphs on its parent's
        pool (whose pipes it closed), but inline, to the solo digest."""
        system = get_protocol("stark")
        setup = system.setup(by_name(FIB["workload"]), FIB["scale"], system.make_config())
        with ShardPool(2, min_rows=1, min_tree_leaves=2) as pool, sharding(pool):
            solo = system.digest(system.prove(setup))  # forks the pool's workers
            assert pool.forked.procs
            with _service(workers=1) as svc:
                result = svc.result(svc.submit(**FIB), timeout_s=120)
        _, _, payload = read_result_envelope(result.envelope)
        _, proof = proof_from_blob(payload, expected_protocol="stark")
        assert system.digest(proof) == solo
