"""The ``service_mix`` workload: small proofs through ``ProvingService``.

Closed loop: two client threads each submit a job and wait for its
result before taking the next one from the shared seeded stream, so a
slower service receives less load.  Service defaults (batching and the
proof cache on), two workers.  The same loop serves both passes: the
untraced pass reports what a client sees, the traced pass reports what
``job()`` / ``stats()`` say happened inside (the executor traces every
job regardless, so there is no tracing overhead to separate here).
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from typing import Any, Dict, List, Tuple

from common import (
    HostSpeed, Ledger, Recorder, Timed, cpu_seconds, host_metrics, median_metric, metric, peak_rss_mb, stage_bucket,
    timed_metric,
)
from workloads import SERVICE_MIX, SERVICE_SHAPES, SMOKE_SERVICE_SHAPES, service_blocks, service_specs

from repro import protocols
from repro.serialize import proof_from_blob, proof_to_blob, read_result_envelope
from repro.service import JobSpec, ProvingService, verify_result

JOB_TIMEOUT_S = 120.0
#: Timed ``verify_result`` calls per shape (a median each).
VERIFY_ROUNDS = 2
#: Timed round-trips per distinct spec returned (a 1-2 ms operation).
ROUNDTRIPS_PER_SPEC = 3


def base_queries() -> Dict[str, int]:
    return {name: protocols.get(name).default_config()["num_queries"] for name in protocols.names()}


def start_service(shapes, ledger: Ledger) -> Tuple[ProvingService, float, List[bytes]]:
    """Start a service and run one warm-up job per shape (``setup_s``).

    Returns ``(service, start_s, warm-up envelopes)``.  Workers are
    forked from this process before it has proved anything itself, so
    every start is equally cold.
    """
    t0 = time.perf_counter()
    svc = ProvingService(workers=SERVICE_MIX["workers"]).start()
    start_s = time.perf_counter() - t0
    ids = [svc.submit(spec) for spec in service_specs(shapes, 0, base_queries())]
    envelopes = []
    for job_id in ids:
        with ledger.guard("warm-up job"):
            envelopes.append(svc.result(job_id, timeout_s=JOB_TIMEOUT_S).envelope)
    return svc, start_s, envelopes


def run_loop(svc, shapes, seed: int, seconds: float, min_blocks: int, speed: HostSpeed, rec: Recorder, ledger: Ledger):
    """The closed loop; returns ``(jobs, wall, cpu_s, blocks)``.

    Each job record is ``(spec, latency, envelope, job_stats)``.  A
    client samples the calibration kernel when its job's result arrives
    (cache hits a few ms apart share a sample) and scales that job's
    latency by it; the loop's wall time is scaled by the median of
    those samples.  The stream stops at the first block boundary past ``seconds``: whole
    blocks keep the shape mix and duplicate ratio fixed.
    """
    blocks = service_blocks(shapes, seed, base_queries())
    lock = threading.Lock()
    state = {"queue": [], "blocks": 0, "done": False}
    jobs: List[Tuple[Dict[str, Any], Timed, bytes, Dict[str, Any]]] = []
    kernels: List[float] = []
    t_start = time.perf_counter()

    def next_spec():
        with lock:
            if not state["queue"] and not state["done"]:
                over = time.perf_counter() - t_start >= seconds
                block = None if (over and state["blocks"] >= min_blocks) else next(blocks, None)
                if block is None:
                    state["done"] = True
                else:
                    state["queue"] = list(block)
                    state["blocks"] += 1
            return state["queue"].pop(0) if state["queue"] else None

    def client(index: int) -> None:
        while (spec := next_spec()) is not None:
            with rec.span(f"job {spec['kind']}/{spec['workload']}/{spec['scale']}", "iteration", client=index):
                with ledger.guard("service job"):
                    t0 = time.perf_counter()
                    job_id = svc.submit(spec)
                    result = svc.result(job_id, timeout_s=JOB_TIMEOUT_S)
                    raw = time.perf_counter() - t0
                    kernel_s = speed.sample(max_age_s=0.05)
                    with lock:
                        kernels.append(kernel_s)
                        jobs.append((spec, speed.timed(raw, kernel_s), result.envelope, svc.job(job_id)))

    cpu0 = cpu_seconds()
    with rec.span("timed-loop", "phase"):
        threads = [threading.Thread(target=client, args=(i,)) for i in range(SERVICE_MIX["clients"])]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    wall = speed.timed(time.perf_counter() - t_start, statistics.median(kernels))
    return jobs, wall, cpu_seconds() - cpu0, state["blocks"]


def check_outputs(jobs, warm_envelopes, shapes, speed: HostSpeed, rec: Recorder, ledger: Ledger):
    """Check what the service returned; returns ``(verify_t, roundtrip_t)``.

    Every copy of a spec must carry byte-identical envelopes (a cache
    hit or a coalesced rider is the proof of the cold job).  One loop
    result per shape -- the first block's -- is re-verified from scratch
    with ``verify_result`` (untimed: this process has proved nothing
    yet, so these calls also pay every one-time table).  The timed
    verifies then run on the warm-up envelopes, which are the same
    default-config proofs in every run.  One envelope with a byte
    flipped must be rejected.  Every distinct spec's envelope is
    round-tripped through the codec, a few specs after each verify: a
    1-2 ms operation reads 30 % apart from one burst to the next and
    steady inside one, so its median needs many short bursts.
    """
    by_key: Dict[str, Tuple[Dict[str, Any], List[bytes]]] = {}
    first: Dict[Tuple[str, str, int], Tuple[Dict[str, Any], bytes]] = {}
    for spec, _, envelope, _ in jobs:
        by_key.setdefault(JobSpec.from_dict(spec).cache_key, (spec, []))[1].append(envelope)
        first.setdefault((spec["kind"], spec["workload"], spec["scale"]), (spec, envelope))
    for key, (_, envelopes) in by_key.items():
        ledger.check(all(e == envelopes[0] for e in envelopes), f"spec {key[:12]} returned differing envelopes")
    ledger.check(len(warm_envelopes) == len(shapes), "a warm-up job returned nothing")
    verify_t: List[List[Timed]] = [[] for _ in shapes]
    roundtrip_t: List[Timed] = []

    def roundtrip(spec, envelope) -> bool:
        _, _, payload = read_result_envelope(envelope)
        _, proof = proof_from_blob(payload, expected_protocol=spec["kind"])
        protocols.get(spec["kind"]).digest(proof)
        return proof_to_blob(spec["kind"], proof) == payload

    verifies = [(None, *pair) for pair in first.values()] + [
        (k, spec, envelope)
        for _ in range(VERIFY_ROUNDS)
        for k, (spec, envelope) in enumerate(zip(service_specs(shapes, 0, base_queries()), warm_envelopes))
    ]
    to_roundtrip = iter(by_key.values())
    burst = -(-len(by_key) // len(verifies))
    with rec.span("verify + round-trips", "phase"):
        for k, spec, envelope in verifies:
            with ledger.guard("verify_result"):
                t = speed.measure(lambda: verify_result(spec, envelope))[1]
                if k is not None:
                    verify_t[k].append(t)
            for rt_spec, envelopes in itertools.islice(to_roundtrip, burst):
                with ledger.guard("envelope round-trip"):
                    if not roundtrip(rt_spec, envelopes[0]):  # the check; also warms the codec for this shape
                        raise ValueError("re-encoded proof differs from the envelope payload")
                    roundtrip_t.extend(
                        speed.measure(lambda: roundtrip(rt_spec, envelopes[0]))[1] for _ in range(ROUNDTRIPS_PER_SPEC)
                    )
        spec, envelope = next(iter(first.values()))
        bad = bytearray(envelope)
        bad[len(bad) * 3 // 4] ^= 0x01
        try:
            verify_result(spec, bytes(bad))
        except Exception:  # noqa: BLE001 - any typed rejection is the pass
            ledger.check(True, "flipped envelope rejected")
        else:
            ledger.check(False, "envelope with one byte flipped was accepted by verify_result")
    return verify_t, roundtrip_t


def run(seed: int, seconds: float, smoke: bool, traced: bool, import_s: float, rec: Recorder, ledger: Ledger):
    """One ``service_mix`` run; returns ``(metrics, extras)``."""
    shapes = SMOKE_SERVICE_SHAPES if smoke else SERVICE_SHAPES
    speed = HostSpeed()
    svc = None
    try:
        with rec.span("setup", "setup"):
            (svc, start_s, warm), setup_t = speed.measure(lambda: start_service(shapes, ledger))
        jobs, wall, cpu_s, blocks = run_loop(
            svc, shapes, seed, seconds, 1 if smoke else SERVICE_MIX["min_blocks"], speed, rec, ledger
        )
        stats = svc.stats()
    finally:
        if svc is not None:
            svc.close()
    verify_t, roundtrip_t = check_outputs(jobs, warm, shapes, speed, rec, ledger)
    cold = [lat for _, lat, _, st in jobs if not st["cache_hit"]]
    hits = [lat for _, lat, _, st in jobs if st["cache_hit"]]
    extras = {
        "config": {name: dict(protocols.get(name).default_config()) for name in protocols.names()},
        "jobs": len(jobs),
        "blocks": blocks,
        "counts": {"proof_bytes": sum(len(e) for e in warm)},
    }
    if not traced:
        # A median over the shapes' verifies would be a sample of the
        # middle shape: take each shape's median, then their mean.
        per_shape = [timed_metric(v, "s") for v in verify_t if v]
        return {
            "setup_s": timed_metric([setup_t], "s"),
            "prove_p50_s": timed_metric(cold, "s"),
            "verify_p50_s": {
                **metric(statistics.mean(m["value"] for m in per_shape), "s"),
                "n": sum(map(len, verify_t)),
                "raw": statistics.mean(m["raw"] for m in per_shape),
            },
            "proofs_per_s": {**metric(len(jobs) / wall.cal, "1/s"), "raw": len(jobs) / wall.raw},
            "roundtrip_p50_ms": timed_metric(roundtrip_t, "ms", 1e3),
            "proof_bytes": metric(extras["counts"]["proof_bytes"], "B"),
            "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
            # CPU seconds stretch with the host like wall seconds do.
            "cpu_s_per_proof": {**metric(cpu_s * wall.cal / wall.raw / len(jobs), "s"), "raw": cpu_s / len(jobs)},
        }, extras

    cold, hits = [t.raw for t in cold], [t.raw for t in hits]
    # Per-layer view of the same loop, from job() / stats().
    ran = [st for _, _, _, st in jobs if not st["cache_hit"]]
    run_p50 = statistics.median(st["run_time_s"] for st in ran)
    cold_p50 = statistics.median(cold)
    dispatched = stats["jobs_dispatched"] or 1
    metrics = {
        **host_metrics(import_s, speed),
        "service.cold_p50_s": median_metric(cold, "s"),
        "service.hit_p50_ms": median_metric(hits or [0.0], "ms", 1e3),
        "service.queue_wait_p50_s": median_metric([st["queue_wait_s"] for st in ran], "s"),
        "service.run_time_p50_s": metric(run_p50, "s"),
        "service.overhead_frac": metric(1.0 - run_p50 / cold_p50, "ratio"),
        "service.cache_hit_frac": metric(len(hits) / len(jobs), "ratio"),
        "service.batches": metric(stats["batches_dispatched"], "count"),
        "service.jobs_per_batch": metric(dispatched / (stats["batches_dispatched"] or 1), "ratio"),
        "service.retried": metric(stats["retried"], "count"),
        "service.worker_restarts": metric(stats["worker_restarts"], "count"),
        "service.start_s": metric(start_s, "s"),
        "hashing.sponge_perms": metric(stats["counters"].get("sponge_permutations", 0) / dispatched, "count"),
        "hashing.challenger_perms": metric(stats["counters"].get("challenger_permutations", 0) / dispatched, "count"),
        "ntt.butterflies": metric(stats["counters"].get("ntt_butterflies", 0) / dispatched, "count"),
        "ntt.transforms": metric(stats["counters"].get("ntt_transforms", 0) / dispatched, "count"),
    }
    # Depth-1 stage spans of every job the workers ran, by category.
    stage_wall: Dict[str, float] = {}
    executed = {JobSpec.from_dict(spec).cache_key: st for spec, _, _, st in jobs if not st["cache_hit"]}
    for st in executed.values():  # coalesced riders share one execution's spans
        for root in st["spans"]:
            for child in root.get("children", []):
                bucket = stage_bucket(child.get("category", ""))
                stage_wall[bucket] = stage_wall.get(bucket, 0.0) + float(child.get("elapsed_s", 0.0))
    for bucket, total in stage_wall.items():
        metrics[f"service.stage_wall_s.{bucket}"] = metric(total, "s")
    return metrics, extras
