"""Service failure-path tests: crashes, timeouts, retries, drain."""

import contextlib
import glob
import os
import signal
import socketserver
import threading
import time

import pytest

from repro.parallel import ShardPool, sharding
from repro.service import JobFailed, ProvingService, verify_result, wait_for_server


FIB = {"workload": "Fibonacci", "kind": "stark", "scale": 5}


def _service(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("fault_injection", True)
    kw.setdefault("backoff_base_s", 0.02)
    kw.setdefault("jitter_seed", 0)
    return ProvingService(**kw)


class TestWorkerCrash:
    def test_crash_retried_then_failed_queue_consistent(self):
        with _service() as svc:
            jid = svc.submit(workload="x", kind="crash", max_retries=1,
                             timeout_s=30)
            with pytest.raises(JobFailed):
                svc.result(jid, timeout_s=60)
            stats = svc.job(jid)
            assert stats["state"] == "failed"
            assert stats["attempts"] == 2  # first try + one retry
            assert "crash" in stats["error"]
            service_stats = svc.stats()
            assert service_stats["queue_depth"] == 0
            assert service_stats["inflight_batches"] == 0
            assert service_stats["retried"] == 1
            assert service_stats["worker_crashes"] >= 2

    def test_riders_retry_as_one_flight(self):
        svc = _service(workers=1)
        ids = [
            svc.submit(workload="x", kind="crash", max_retries=1, timeout_s=30)
            for _ in range(2)
        ]
        with svc:
            for jid in ids:
                with pytest.raises(JobFailed):
                    svc.result(jid, timeout_s=60)
                assert svc.job(jid)["attempts"] == 2
            stats = svc.stats()
            assert stats["retried"] == 2  # per job ...
            assert stats["worker_crashes"] == 2  # ... but one flight, flown twice
            assert stats["batches_dispatched"] == 2
            assert stats["queue_depth"] == 0 and stats["inflight_batches"] == 0

    def test_pool_recovers_after_crash(self):
        with _service() as svc:
            crash = svc.submit(workload="x", kind="crash", max_retries=0,
                               timeout_s=30)
            with pytest.raises(JobFailed):
                svc.result(crash, timeout_s=60)
            # The replacement worker serves real work.
            good = svc.submit(**FIB)
            result = svc.result(good, timeout_s=60)
            assert verify_result(FIB, result.envelope)
            assert svc.stats()["worker_restarts"] >= 1

    def test_external_sigkill_mid_job_is_retried(self):
        with _service(workers=1) as svc:
            jid = svc.submit(workload="x", kind="sleep",
                             params={"seconds": 1.0}, max_retries=2,
                             timeout_s=30)
            deadline = time.monotonic() + 10
            busy = []
            while not busy and time.monotonic() < deadline:
                busy = list(svc._running)
                time.sleep(0.02)
            assert busy, "job never started"
            os.kill(svc.forked.procs[busy[0]].pid, signal.SIGKILL)
            svc.result(jid, timeout_s=60)  # retried on a fresh worker
            assert svc.job(jid)["attempts"] == 2
            assert svc.job(jid)["state"] == "done"


def _stat(pid):
    """``(state, ppid)`` of a process, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _alive(pid):
    stat = _stat(pid)
    return stat is not None and stat[0] != b"Z"  # a zombie has ended


def _children(pid):
    return [int(p) for p in os.listdir("/proc")
            if p.isdigit() and _alive(p) and _stat(p)[1] == pid]


class TestOneProcessLevel:
    def test_proving_worker_forks_nothing_and_maps_no_segment(self):
        """A service worker proves inline: after a prove it has no child
        process (no shard worker, no resource tracker of its own) and
        has created no shared-memory segment -- even when the service
        was started inside a parallel pool that has not forked yet."""
        spec = {"workload": "Fibonacci", "kind": "stark", "scale": 10}
        pool = ShardPool(2, min_rows=1, min_tree_leaves=2)
        with pool, sharding(pool), _service(workers=1, enable_cache=False) as svc:
            result = svc.result(svc.submit(spec), timeout_s=120)
            assert verify_result(spec, result.envelope)
            worker = svc.forked.procs[0].pid
            assert _children(worker) == []
            assert glob.glob(f"/dev/shm/repro-{worker}-*") == []


class TestTimeout:
    def test_timeout_fires_and_fails(self):
        with _service(workers=1) as svc:
            jid = svc.submit(workload="x", kind="sleep",
                             params={"seconds": 30}, timeout_s=0.3,
                             max_retries=0)
            with pytest.raises(JobFailed):
                svc.result(jid, timeout_s=30)
            stats = svc.job(jid)
            assert stats["state"] == "failed"
            assert "timeout" in stats["error"]
            assert svc.stats()["timeouts"] == 1

    def test_worker_usable_after_timeout_kill(self):
        with _service(workers=1) as svc:
            jid = svc.submit(workload="x", kind="sleep",
                             params={"seconds": 30}, timeout_s=0.3,
                             max_retries=0)
            with pytest.raises(JobFailed):
                svc.result(jid, timeout_s=30)
            good = svc.submit(**FIB)
            assert svc.result(good, timeout_s=60).envelope


class TestRetryPolicy:
    def test_backoff_delays_grow(self):
        svc = _service(workers=1, backoff_base_s=0.1, backoff_cap_s=10.0)
        delays = []
        orig_push = svc.queue.push

        def spy(job_id, priority=0, delay_s=0.0):
            delays.append(delay_s)
            orig_push(job_id, priority=priority, delay_s=delay_s)

        svc.queue.push = spy
        svc.start()
        try:
            jid = svc.submit(workload="x", kind="crash", max_retries=2,
                             timeout_s=30)
            with pytest.raises(JobFailed):
                svc.result(jid, timeout_s=60)
        finally:
            svc.close()
        retry_delays = [d for d in delays if d > 0]
        assert len(retry_delays) == 2
        assert retry_delays[1] > retry_delays[0]  # exponential growth

    def test_zero_retries_fails_immediately(self):
        with _service() as svc:
            jid = svc.submit(workload="x", kind="crash", max_retries=0,
                             timeout_s=30)
            with pytest.raises(JobFailed):
                svc.result(jid, timeout_s=60)
            assert svc.job(jid)["attempts"] == 1


class TestDrain:
    def test_close_drains_outstanding_jobs(self):
        svc = _service(workers=2, fault_injection=False)
        svc.start()
        ids = [svc.submit(**FIB),
               svc.submit(workload="Fibonacci", kind="stark", scale=6)]
        svc.close(drain=True, timeout_s=120)
        for jid in ids:
            assert svc.job(jid)["state"] == "done"

    def test_drain_reports_timeout(self):
        svc = _service(workers=1)
        svc.submit(workload="x", kind="sleep", params={"seconds": 5},
                   timeout_s=30)
        svc.start()
        assert svc.drain(timeout_s=0.1) is False
        svc.close(drain=True, timeout_s=60)


@contextlib.contextmanager
def _foreign_listener(reply: bytes):
    """A TCP server that is not a proving service: it answers every line
    with ``reply``.  Yields its port and the list of accepted connections."""
    connections = []

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            connections.append(self.client_address)
            for _ in self.rfile:
                self.wfile.write(reply)

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1], connections
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
        assert not thread.is_alive()


class TestWaitForServer:
    """Anything but a pong is "not ready yet": polled, slept on, and
    ``False`` at the deadline -- never an exception, never a busy loop."""

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.0 400 Bad Request\r\n\r\n",
            b'{"ok": false, "error": "starting"}\n',
            b'{"ok": true, "pong": false}\n',
            b"[1, 2, 3]\n",
        ],
        ids=["http", "refused", "no-pong", "not-an-object"],
    )
    def test_foreign_listener_times_out_false(self, reply):
        with _foreign_listener(reply) as (port, connections):
            start = time.monotonic()
            assert wait_for_server("127.0.0.1", port, timeout_s=0.5) is False
            elapsed = time.monotonic() - start
        assert 0.5 <= elapsed < 1.5
        assert 2 <= len(connections) <= 8  # one poll per ~0.1 s

    def test_nothing_listening_times_out_false(self):
        with socketserver.TCPServer(("127.0.0.1", 0), None) as probe:
            port = probe.server_address[1]  # free once the probe closes
        start = time.monotonic()
        assert wait_for_server("127.0.0.1", port, timeout_s=0.3) is False
        assert time.monotonic() - start < 1.0
