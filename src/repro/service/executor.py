"""Job execution: the code that runs inside a worker process.

Maps a :class:`~repro.service.jobs.JobSpec` (as a plain dict, the wire
form) onto the registered proving backends:

* any protocol kind (``stark``, ``plonk``, ``hyperplonk``, ...) --
  resolved through :mod:`repro.protocols` and run via its
  :class:`~repro.protocols.ProofSystem`;
* ``simulate`` -- :func:`repro.sim.simulate_plonky2` performance model;
* ``sleep`` / ``crash`` -- fault-injection kinds for tests/benchmarks.

Results are framed as serialize.py envelopes whose proof payloads are
*tagged blobs* (protocol tag + format version, see
:func:`repro.serialize.proof_to_blob`), so they cross the process
boundary (and the client socket) exactly the way a real
prover/verifier deployment would ship proofs.  :func:`verify_result`
closes the loop on the client side.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict

from .. import tracing
from ..metrics import counting
from ..protocols import get as get_protocol
from ..serialize import (
    proof_from_blob,
    proof_to_blob,
    read_result_envelope,
    write_result_envelope,
)
from .jobs import FAULT_KINDS, JobSpec


def validate_spec(spec: JobSpec, fault_injection: bool = False) -> None:
    """Reject specs the executor cannot run (fail fast at submit time)."""
    if spec.kind in FAULT_KINDS:
        if not fault_injection:
            raise ValueError(
                f"fault-injection kind {spec.kind!r} requires fault_injection=True"
            )
        return
    from ..workloads import by_name

    workload = by_name(spec.workload)  # raises UnknownWorkloadError
    if spec.kind == "simulate":
        return
    system = get_protocol(spec.kind)  # raises UnknownProtocolError
    if not system.supports(workload):
        raise ValueError(
            f"workload {spec.workload!r} has no {spec.kind} builder"
        )
    system.make_config(spec.config)  # raises on bad config overrides


def execute(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job spec; returns envelope bytes plus measured stats.

    Each job runs inside a :func:`repro.tracing.trace` session, so the
    per-stage span tree (commit / quotient / open / FRI or sumcheck,
    with wall time and counter deltas) rides back in the result dict
    alongside the envelope and total counters.
    """
    spec = JobSpec.from_dict(spec_dict)
    t0 = time.monotonic()
    with counting() as c, tracing.trace() as session:
        envelope = _run(spec)
    return {
        "envelope": envelope,
        "counters": c.as_dict(),
        "wall_s": time.monotonic() - t0,
        "spans": [s.as_dict() for s in session.spans],
    }


def _run(spec: JobSpec) -> bytes:
    if spec.kind == "sleep":
        time.sleep(float(spec.params.get("seconds", 0.1)))
        return write_result_envelope("debug", spec.workload, b"slept")
    if spec.kind == "crash":
        os._exit(17)  # simulate a hard worker death (segfault/OOM-kill)

    from ..workloads import by_name

    workload = by_name(spec.workload)

    if spec.kind == "simulate":
        from ..hw import DEFAULT_CONFIG
        from ..sim import simulate_plonky2

        report = simulate_plonky2(workload.plonk, DEFAULT_CONFIG)
        payload = json.dumps(report.report_dict(), sort_keys=True).encode()
        return write_result_envelope("sim-report", spec.workload, payload)

    system = get_protocol(spec.kind)
    config = system.make_config(spec.config)
    # Preprocessed instances and the one workspace arena persist across
    # jobs in a long-lived worker: the backends draw both from the worker
    # thread's run (repro.context).  The read-only per-shape tables are
    # process-wide cached functions, built by a shape's first job.
    psetup = system.setup(workload, spec.scale, config)
    proof = system.prove(psetup)
    return write_result_envelope(
        f"{spec.kind}-proof", spec.workload, proof_to_blob(spec.kind, proof)
    )


def verify_result(spec_dict: Dict[str, Any], envelope: bytes) -> bool:
    """Re-derive the workload and verify a service-returned envelope.

    The setup binds the calling thread's cached instance, so only the
    first envelope of an instance pays its preprocessing.

    Raises the underlying verifier error on an invalid proof; returns
    True on success (sim reports / debug payloads just check framing).
    """
    spec = JobSpec.from_dict(spec_dict)
    kind, workload_name, payload = read_result_envelope(envelope)
    if workload_name != spec.workload:
        raise ValueError(
            f"envelope is for {workload_name!r}, expected {spec.workload!r}"
        )

    if kind == "sim-report":
        json.loads(payload.decode())
        return True
    if kind == "debug":
        return True

    if not kind.endswith("-proof"):
        raise ValueError(f"unverifiable envelope kind {kind!r}")
    protocol = kind[: -len("-proof")]
    if protocol != spec.kind:
        raise ValueError(
            f"envelope carries a {protocol!r} proof, expected {spec.kind!r}"
        )
    from ..workloads import by_name

    system = get_protocol(protocol)
    config = system.make_config(spec.config)
    _, proof = proof_from_blob(payload, expected_protocol=protocol)
    psetup = system.setup(by_name(spec.workload), spec.scale, config)
    system.verify(psetup, proof)
    return True
