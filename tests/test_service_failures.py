"""Service failure-path tests: crashes, timeouts, retries, drain."""

import os
import signal
import time

import pytest

from repro.service import JobFailed, ProvingService, verify_result


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
                busy = svc.pool.busy_workers()
                time.sleep(0.02)
            assert busy, "job never started"
            os.kill(busy[0].process.pid, signal.SIGKILL)
            svc.result(jid, timeout_s=60)  # retried on a fresh worker
            assert svc.job(jid)["attempts"] == 2
            assert svc.job(jid)["state"] == "done"


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
