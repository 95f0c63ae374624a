"""Untraced pass of the three prover workloads: the end-to-end metrics.

One run is: set up once, then (serial prove, verify, sharded prove, blob
round-trips) pairs until ``--seconds`` is used (at least ``MIN_PAIRS``),
every output checked.  The same kernels run two ways -- inline
(``pool=None``) and through ``ShardPool(2)`` shared-memory shards -- so
a gain for one use that costs the other shows.  Medians carry their
sample count and IQR; times are calibrated seconds (``common.HostSpeed``)
with the raw median beside each.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Tuple

from common import HostSpeed, Ledger, Recorder, Timed, cpu_seconds, metric, peak_rss_mb, rate_metric, timed_metric
from workloads import MIN_PAIRS, PROVER_WORKLOADS

from repro import parallel, protocols, workloads as repro_workloads
from repro.metrics import counting
from repro.serialize import proof_from_blob, proof_to_blob

SHARD_WORKERS = 2
#: Blob round-trips timed after *each* prove / verify of a pair.  A
#: 1-3 ms operation reads 30 % apart from one burst to the next (which
#: vCPU the thread woke on, what the prove left in cache) and steady
#: inside a burst, so its median needs many short bursts, not long ones.
ROUNDTRIPS_PER_BURST = 3


class ProverCase:
    """One prover workload set up and warm: everything the loops need.

    Construction is ``setup_s``: all work before the first timed
    iteration (``import repro`` excluded) -- ``setup()``, one warm-up
    serial prove (builds the per-shape plan), ``ShardPool(2)`` start and
    one warm-up sharded prove.  Each step is calibrated on its own, so a
    host-speed change half-way through is not smeared over the whole.
    """

    def __init__(self, name: str, smoke: bool, speed: HostSpeed) -> None:
        spec = PROVER_WORKLOADS[name]
        self.name = name
        self.system = protocols.get(spec["protocol"])
        self.config = self.system.make_config()
        self.scale = spec["smoke_scale"] if smoke else spec["scale"]
        self.instance = repro_workloads.by_name(spec["instance"])
        # Smoke shapes sit below the default sharding thresholds; force
        # them low there so the sharded path still runs.
        self.gates = {"min_rows": 1, "min_tree_leaves": 2, "min_queries": 1} if smoke else {}
        steps = [speed.measure(step)[1] for step in (self._build, self._first_prove, self._first_sharded)]
        self.setup_t = Timed(sum(t.raw for t in steps), sum(t.cal for t in steps))
        self.digest = self.system.digest(self.proof)

    def _build(self) -> None:
        self.setup = self.system.setup(self.instance, self.scale, self.config)

    def _first_prove(self) -> None:
        # The exact op counts of this prove are what every later prove
        # of the instance repeats.
        with counting() as c:
            self.proof = self.system.prove(self.setup)
            self.counts = c.as_dict()

    def _first_sharded(self) -> None:
        t_pool = time.perf_counter()
        self.pool = parallel.ShardPool(SHARD_WORKERS, **self.gates).start()
        self.pool_start_s = time.perf_counter() - t_pool
        self.system.prove(self.setup, pool=self.pool)

    def close(self) -> None:
        self.pool.close()


def check_flipped_blob(case: ProverCase, blob: bytes, seed: int, ledger: Ledger) -> None:
    """A blob with one byte flipped must be rejected by decode or verify.

    The byte is drawn from the second half of the blob: that is all
    query openings, every byte of which a cap binds (the grinding
    witness, which a flip survives with probability 2^-pow_bits, sits
    in the first half).
    """
    pos = random.Random(seed).randrange(len(blob) // 2, len(blob))
    bad = bytearray(blob)
    bad[pos] ^= 0x01
    try:
        _, proof = proof_from_blob(bytes(bad), expected_protocol=case.system.name)
        case.system.verify(case.setup, proof)
    except Exception:  # noqa: BLE001 - any typed rejection is the pass
        ledger.check(True, "flipped blob rejected")
    else:
        ledger.check(False, f"blob with byte {pos} flipped was accepted by verify")


def run_untraced(
    name: str, seed: int, seconds: float, smoke: bool, rec: Recorder, ledger: Ledger
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Set-up and the timed loop; returns ``(metrics, extras)``."""
    speed = HostSpeed()
    with rec.span("setup", "setup"):
        case = ProverCase(name, smoke, speed)
    system, setup, tag = case.system, case.setup, case.system.name
    prove_t: List[Timed] = []
    sharded_t: List[Timed] = []
    verify_t: List[Timed] = []
    roundtrip_t: List[Timed] = []
    blob = b""

    def timed(what: str, fn: Callable[[], Any], into: List[Timed]):
        """One guarded, calibrated operation; ``None`` if it raised."""
        with ledger.guard(what):
            value, t = speed.measure(fn)
            into.append(t)
            return value
        return None

    def roundtrip(proof):
        blob = proof_to_blob(tag, proof)
        _, back = proof_from_blob(blob, expected_protocol=tag)
        return blob, system.digest(back)

    def roundtrip_burst(proof) -> None:
        """Round-trip ``proof``; its digest must be the first proof's."""
        nonlocal blob
        for _ in range(ROUNDTRIPS_PER_BURST):
            blob, back_digest = timed("blob round-trip", lambda: roundtrip(proof), roundtrip_t) or (blob, None)
            ledger.check(back_digest == case.digest, "round-trip digest != first proof's")

    min_pairs = 2 if smoke else MIN_PAIRS
    pairs = 0
    try:
        cpu0, loop0 = cpu_seconds(), time.perf_counter()
        with rec.span("timed-loop", "phase"):
            while pairs < min_pairs or time.perf_counter() - loop0 < seconds:
                pairs += 1
                with rec.span(f"pair#{pairs}", "iteration"):
                    proof = timed("prove", lambda: system.prove(setup), prove_t)
                    roundtrip_burst(proof)
                    timed("verify", lambda: system.verify(setup, proof), verify_t)
                    roundtrip_burst(proof)
                    sharded = timed("sharded prove", lambda: system.prove(setup, pool=case.pool), sharded_t)
                    roundtrip_burst(proof)
                    # A sharded proof with the serial digest has the
                    # serial bytes, which were just verified.
                    ledger.check(
                        sharded is not None and system.digest(sharded) == case.digest,
                        "sharded digest != serial digest",
                    )
        cpu_s = cpu_seconds() - cpu0
        with rec.span("flip-check", "phase"):
            check_flipped_blob(case, blob, seed, ledger)
    finally:
        case.close()
    # CPU seconds stretch with the host like wall seconds do: scale them
    # by the loop's own calibrated / raw ratio.
    loop_t = prove_t + verify_t + sharded_t + roundtrip_t
    loop_factor = sum(t.cal for t in loop_t) / sum(t.raw for t in loop_t)
    proofs = len(prove_t) + len(sharded_t)
    metrics = {
        "setup_s": timed_metric([case.setup_t], "s"),
        "prove_p50_s": timed_metric(prove_t, "s"),
        "verify_p50_s": timed_metric(verify_t, "s"),
        "proofs_per_s": rate_metric(sharded_t, "1/s"),  # the two-core rate
        "roundtrip_p50_ms": timed_metric(roundtrip_t, "ms", 1e3),
        "proof_bytes": metric(len(blob), "B"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
        "cpu_s_per_proof": {**metric(cpu_s * loop_factor / proofs, "s"), "raw": cpu_s / proofs},
    }
    extras = {
        "config": dict(system.default_config()),
        "rows": setup.rows,
        "counts": {**case.counts, "proof_bytes": len(blob)},
        "pairs": pairs,
    }
    return metrics, extras
