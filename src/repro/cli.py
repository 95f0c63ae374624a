"""Command-line interface.

``python -m repro <command>``:

* ``experiments`` -- regenerate all paper tables and figures;
* ``simulate``    -- run the UniZK simulator on one workload, with
  optional hardware overrides (the Figure 10 knobs);
* ``schedule``    -- print the compiler backend's detailed execution
  schedule for a workload;
* ``tune``        -- search the kernel-mapping space for a workload and
  report default vs tuned cycles (nothing is stored);
* ``prove``       -- run a functional scaled-down proof of a workload
  end to end (prove + verify);
* ``chip``        -- print the area/power budget for a configuration;
* ``serve``       -- run the proving service (job queue + worker pool);
* ``submit``      -- submit a job to a running service, optionally wait
  for and verify the proof;
* ``verify``      -- verify a result envelope ``submit --out`` wrote
  (a proof blob of an older format version is refused, typed);
* ``status``      -- query a running service for job or service stats;
* ``analyze``     -- run the soundness analysis (PE-grid schedule
  sanitizer, Fiat-Shamir transcript conformance, shard-graph race
  detection); exit 1 on any finding;
* ``fuzz``        -- mutate honest proofs against the verifiers and
  cross-check the optimized kernels against slow references, failing
  on any accept or untyped crash.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import UnknownEntryError
from .workloads import by_name


class CliError(Exception):
    """User-facing CLI failure: printed as one line, exit status 2."""


def _resolve_workload(name: str):
    """Look up a workload, raising a clean one-line error when unknown.

    The message (name + valid choices) comes from the registry's own
    :class:`~repro.errors.UnknownWorkloadError`, so the CLI never
    maintains its own workload list.
    """
    try:
        return by_name(name)
    except UnknownEntryError as exc:
        raise CliError(str(exc)) from None


def _resolve_protocol(name: str):
    """Look up a proof-system backend through the protocol registry."""
    from .protocols import get

    try:
        return get(name)
    except UnknownEntryError as exc:
        raise CliError(str(exc)) from None


def _hw_from_args(args) -> "object":
    # The accelerator model loads only for the commands that use it, so
    # ``prove`` never imports the hardware, mapping or compiler layers.
    from .hw import DEFAULT_CONFIG

    overrides = {}
    if args.vsas is not None:
        overrides["num_vsas"] = args.vsas
    if args.scratchpad_mb is not None:
        overrides["scratchpad_mb"] = args.scratchpad_mb
    if args.bandwidth_gbps is not None:
        overrides["mem_bandwidth_gbps"] = args.bandwidth_gbps
    return DEFAULT_CONFIG.scaled(**overrides) if overrides else DEFAULT_CONFIG


def _add_hw_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vsas", type=int, default=None, help="number of VSAs")
    p.add_argument("--scratchpad-mb", type=float, default=None, help="scratchpad MB")
    p.add_argument("--bandwidth-gbps", type=float, default=None, help="HBM GB/s")


def cmd_experiments(args) -> int:
    """Regenerate every table and figure."""
    from .experiments.runner import run_all

    print(run_all())
    return 0


def cmd_simulate(args) -> int:
    """Simulate one workload on a (possibly overridden) chip."""
    from .baselines import CpuModel, GpuModel
    from .compiler import trace_plonky2
    from .sim import simulate_plonky2

    spec = _resolve_workload(args.workload)
    hw = _hw_from_args(args)
    report = simulate_plonky2(spec.plonk, hw)
    if args.json:
        print(json.dumps(report.report_dict(), indent=2, sort_keys=True))
        return 0
    for line in report.summary_lines():
        print(line)
    if args.baselines:
        graph = trace_plonky2(spec.plonk)
        cpu = CpuModel().run(graph).total_seconds
        gpu = GpuModel().run(graph).total_seconds
        print(f"  CPU baseline: {cpu:.2f} s ({cpu / report.total_seconds:.0f}x slower)")
        print(f"  GPU baseline: {gpu:.2f} s ({gpu / report.total_seconds:.0f}x slower)")
    return 0


def cmd_schedule(args) -> int:
    """Print the execution schedule."""
    from .compiler import schedule, trace_plonky2

    spec = _resolve_workload(args.workload)
    hw = _hw_from_args(args)
    sched = schedule(trace_plonky2(spec.plonk), hw)
    if args.json:
        print(json.dumps(sched.timeline_dict(), indent=2, sort_keys=True))
    else:
        print(sched.format(limit=args.limit))
        print(f"memory-bound fraction: {sched.bound_fraction() * 100:.0f}%")
    if args.trace_out:
        from .sim.tracing import write_trace

        write_trace(sched, args.trace_out)
        # Under --json, stdout carries the JSON document alone.
        print(
            f"wrote schedule trace to {args.trace_out}",
            file=sys.stderr if args.json else sys.stdout,
        )
    return 0


def cmd_tune(args) -> int:
    """Search kernel mappings for a workload; report default vs tuned."""
    from .autotune import tune_workload
    from .compiler import schedule, trace_plonky2

    spec = _resolve_workload(args.workload)
    hw = _hw_from_args(args)
    report = tune_workload(spec.plonk, hw)
    for line in report.summary_lines():
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote tuning report to {args.out}")
    if args.trace_out:
        from .sim.tracing import write_trace

        sched = schedule(trace_plonky2(spec.plonk), hw, mapping=report.mapping_for)
        write_trace(sched, args.trace_out)
        print(f"wrote tuned schedule trace to {args.trace_out}")
    return 0


def cmd_prove(args) -> int:
    """Run a functional scaled-down proof end to end."""
    from . import parallel, tracing

    if args.list_protocols:
        from .protocols import get, names

        for name in names():
            system = get(name)
            print(f"{name}: {system.description}")
        return 0

    system = _resolve_protocol(args.protocol)
    workers = parallel.resolve_workers(args.workers)
    spec = _resolve_workload(args.workload)
    print(f"{spec.name}: {spec.repro_note}")
    if system.caveat:
        print(f"warning: {system.name} is {system.caveat}")
    if not system.supports(spec):
        raise CliError(
            f"workload {spec.name!r} has no {system.name} builder"
        )
    # Query count from the CLI; FRI-family backends also get the
    # heavier CLI-grade grinding (the registry defaults are the small
    # service parameters).
    overrides = {"num_queries": args.queries}
    if "proof_of_work_bits" in system.default_config():
        overrides["proof_of_work_bits"] = 8
    try:
        config = system.make_config(overrides)
    except ValueError as exc:  # e.g. --queries 0
        raise CliError(str(exc)) from None
    psetup = system.setup(spec, args.scale, config)
    print(f"circuit: {psetup.rows} rows")
    print(f"proving on {workers} shard worker{'s' if workers > 1 else ''}")
    t0 = time.time()
    with parallel.ShardPool(workers) as pool, tracing.trace() as session:
        proof = system.prove(psetup, pool=pool)
    t_prove = time.time() - t0
    t0 = time.time()
    system.verify(psetup, proof)
    t_verify = time.time() - t0
    print(f"proved in {t_prove:.2f}s, verified in {t_verify:.2f}s, "
          f"proof {proof.size_bytes()} bytes, public inputs {list(psetup.publics)}")
    if args.trace_out:
        tracing.write_spans_trace(
            session.spans, args.trace_out,
            workload=spec.name, scale=args.scale,
        )
        print(f"wrote prover stage trace to {args.trace_out}")
    return 0


def cmd_chip(args) -> int:
    """Print the area/power budget."""
    from .hw import chip_budget

    hw = _hw_from_args(args)
    for name, area, power in chip_budget(hw).as_rows():
        print(f"{name:28s} {area:6.1f} mm2  {power:5.1f} W")
    return 0


def cmd_serve(args) -> int:
    """Run the proving service until shutdown (or ``--max-jobs``)."""
    from .service import ProvingService, serve_forever

    try:
        service = ProvingService(
            workers=args.workers,
            enable_cache=not args.no_cache,
            default_timeout_s=args.job_timeout,
            max_retries=args.retries,
            fault_injection=args.fault_injection,
        )
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from None
    service.start()
    print(
        f"proving service on {args.host}:{args.port} "
        f"({args.workers} workers, "
        f"cache {'off' if args.no_cache else 'on'})",
        flush=True,
    )
    try:
        serve_forever(
            service,
            host=args.host,
            port=args.port,
            max_jobs=args.max_jobs,
            max_wait_s=args.max_wait,
            drain_timeout_s=args.drain_timeout,
        )
    except KeyboardInterrupt:
        pass
    finally:
        service.close(drain=True)
    stats = service.stats()
    print(
        f"served {stats['completed']} jobs "
        f"({stats['failed']} failed, {stats['retried']} retried, "
        f"{stats['cache']['hits']} cache hits)"
    )
    return 0


def _spec_from_args(args) -> dict:
    from .service.jobs import FAULT_KINDS, job_kinds

    submit_kinds = tuple(k for k in job_kinds() if k not in FAULT_KINDS)
    if args.kind not in submit_kinds:
        raise CliError(
            f"unknown job kind {args.kind!r} "
            f"(choose from: {', '.join(submit_kinds)})"
        )
    _resolve_workload(args.workload)  # fail fast, before connecting
    return {"workload": args.workload, "kind": args.kind, "scale": args.scale}


def cmd_submit(args) -> int:
    """Submit a job to a running service; optionally wait and verify."""
    from .service import ServiceClient, ServiceError, verify_result

    spec = _spec_from_args(args)
    try:
        with ServiceClient(args.host, args.port) as client:
            response = client.submit(
                spec,
                priority=args.priority,
                wait=args.wait or args.verify,
                wait_s=args.wait_timeout,
            )
    except OSError as exc:
        raise CliError(f"cannot reach service at {args.host}:{args.port} ({exc})")
    except ServiceError as exc:
        raise CliError(f"submit rejected: {exc}")
    job = response.get("job", {})
    print(f"job {response['job_id']}: {job.get('state', 'submitted')}")
    if job:
        print(json.dumps({k: v for k, v in job.items() if k != "id"}, indent=2))
    envelope = response.get("envelope")
    if envelope is not None:
        print(f"result envelope: {len(envelope)} bytes")
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(envelope)
            print(f"wrote {args.out}")
        if args.verify:
            verify_result(spec, envelope)
            print("proof verified OK")
    return 0


def cmd_verify(args) -> int:
    """Verify a result envelope written by ``submit --out``."""
    from .errors import VerifierError
    from .serialize import read_result_envelope
    from .service import verify_result

    try:
        with open(args.envelope, "rb") as fh:
            envelope = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.envelope} ({exc.strerror})") from None
    try:
        kind, workload, _ = read_result_envelope(envelope)
        spec = {"workload": workload, "kind": kind.removesuffix("-proof"), "scale": args.scale}
        verify_result(spec, envelope)
    except (ValueError, VerifierError) as exc:
        raise CliError(f"{type(exc).__name__}: {exc}") from None
    print(f"{kind} for {workload} at scale {args.scale} verified OK")
    return 0


def cmd_analyze(args) -> int:
    """Run the soundness analysis; exit 1 on any finding."""
    from .analysis.findings import AnalysisError
    from .analysis.runner import execute

    try:
        return execute(args)
    except AnalysisError as exc:
        raise CliError(str(exc)) from None


def _parse_budget(text: str) -> float:
    """Parse a time budget like ``60``, ``90s``, ``2m`` into seconds."""
    raw = text.strip().lower()
    scale = 1.0
    if raw.endswith("m"):
        raw, scale = raw[:-1], 60.0
    elif raw.endswith("s"):
        raw = raw[:-1]
    try:
        seconds = float(raw) * scale
    except ValueError:
        raise CliError(f"invalid budget {text!r} (use e.g. 60, 90s, 2m)") from None
    if seconds <= 0:
        raise CliError("budget must be positive")
    return seconds


def cmd_fuzz(args) -> int:
    """Run a soundness fuzz campaign (or replay a stored artifact)."""
    from .fuzz import replay_artifact, run_fuzz

    if args.replay:
        result = replay_artifact(args.replay)
        print(result.finding.describe())
        if result.reproduced:
            print(f"REPRODUCED: {args.replay} -> {result.outcome} "
                  f"({result.exception or 'accepted'})")
            return 1
        print(f"not reproduced: mutant now {result.outcome} "
              f"({result.exception or 'no error'})")
        return 0

    if args.protocol == "all":
        protocols = None  # every registered backend
    else:
        _resolve_protocol(args.protocol)  # typed unknown-protocol error
        protocols = (args.protocol,)
    budget_s = _parse_budget(args.budget) if args.budget else None
    report = run_fuzz(
        seed=args.seed,
        iterations=args.iterations,
        budget_s=budget_s,
        protocols=protocols,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        oracle_iters=0 if args.no_oracles else args.oracle_iters,
        progress=lambda i, rep: print(f"  ... {i} mutants", flush=True),
    )
    for line in report.summary_lines():
        print(line)
    if not report.ok:
        if args.corpus:
            print(f"reproducer artifacts written to {args.corpus}")
        return 1
    print("no findings")
    return 0


def cmd_status(args) -> int:
    """Query a running service for job or service stats."""
    from .service import ServiceClient, ServiceError

    try:
        with ServiceClient(args.host, args.port) as client:
            if args.shutdown:
                client.shutdown()
                print("shutdown requested")
                return 0
            status = client.status(args.job)
    except OSError as exc:
        raise CliError(f"cannot reach service at {args.host}:{args.port} ({exc})")
    except ServiceError as exc:
        raise CliError(f"status rejected: {exc}")
    print(json.dumps(status, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="UniZK reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="regenerate all tables and figures")

    p = sub.add_parser("simulate", help="simulate a workload on UniZK")
    p.add_argument("--workload", default="Factorial", metavar="NAME")
    p.add_argument("--baselines", action="store_true", help="also cost CPU/GPU")
    p.add_argument("--json", action="store_true",
                   help="emit the report as machine-readable JSON")
    _add_hw_flags(p)

    p = sub.add_parser("schedule", help="print the lowered execution schedule")
    p.add_argument("--workload", default="Factorial", metavar="NAME")
    p.add_argument("--limit", type=int, default=20, help="rows to print")
    p.add_argument("--json", action="store_true",
                   help="emit the schedule as machine-readable JSON")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the schedule as Chrome Trace Event JSON")
    _add_hw_flags(p)

    p = sub.add_parser(
        "tune", help="search kernel mappings; report default vs tuned"
    )
    p.add_argument("--workload", default="Factorial", metavar="NAME")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the tuning report as JSON")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the tuned schedule as Chrome Trace Event JSON")
    _add_hw_flags(p)

    p = sub.add_parser("prove", help="run a functional proof end to end")
    p.add_argument("--workload", default="Fibonacci", metavar="NAME")
    p.add_argument("--protocol", default="plonk", metavar="NAME",
                   help="proof-system backend (see --list-protocols)")
    p.add_argument("--list-protocols", action="store_true",
                   help="list the registered proof systems and exit")
    p.add_argument("--scale", type=int, default=20, help="workload size knob")
    p.add_argument("--queries", type=int, default=12,
                   help="query rounds (FRI or multilinear-PCS)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="shard the proof across N worker processes "
                        "(1 = run every shard in this process; clamped "
                        "to effective CPUs)")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write per-stage prover spans as Chrome Trace Event JSON")

    p = sub.add_parser("chip", help="print the area/power budget")
    _add_hw_flags(p)

    p = sub.add_parser("serve", help="run the proving service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8347)
    p.add_argument("--workers", type=int, default=2, help="worker processes")
    p.add_argument("--no-cache", action="store_true", help="disable result cache")
    p.add_argument("--job-timeout", type=float, default=120.0,
                   help="per-job timeout seconds")
    p.add_argument("--retries", type=int, default=2, help="max retries per job")
    p.add_argument("--max-jobs", type=int, default=None,
                   help="exit after serving this many jobs (smoke tests)")
    p.add_argument("--max-wait", type=float, default=300.0,
                   help="cap on client-requested wait/timeout seconds")
    p.add_argument("--drain-timeout", type=float, default=60.0,
                   help="seconds to drain queued jobs before a max-jobs exit")
    p.add_argument("--fault-injection", action="store_true",
                   help="accept sleep/crash debug job kinds")

    p = sub.add_parser("submit", help="submit a job to a running service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8347)
    p.add_argument("--workload", default="Fibonacci", metavar="NAME")
    p.add_argument("--kind", default="stark", metavar="KIND",
                   help="job kind: any registered protocol or 'simulate'")
    p.add_argument("--scale", type=int, default=8, help="workload size knob")
    p.add_argument("--priority", type=int, default=0, help="lower runs first")
    p.add_argument("--wait", action="store_true", help="block for the result")
    p.add_argument("--wait-timeout", type=float, default=300.0)
    p.add_argument("--verify", action="store_true",
                   help="wait for the proof and verify it locally")
    p.add_argument("--out", default=None, help="write the result envelope here")

    p = sub.add_parser(
        "verify", help="verify a result envelope written by submit --out"
    )
    p.add_argument("envelope", metavar="PATH", help="result envelope file")
    p.add_argument("--scale", type=int, default=8,
                   help="workload size knob the job was submitted with")

    p = sub.add_parser("status", help="query a running service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8347)
    p.add_argument("--job", default=None, help="job id (omit for service stats)")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the service to drain and exit")

    p = sub.add_parser(
        "fuzz", help="fuzz the verifiers with mutated proofs + oracles"
    )
    p.add_argument("--budget", default=None, metavar="TIME",
                   help="wall-clock budget, e.g. 60s or 2m (default: none)")
    p.add_argument("--iterations", type=int, default=None,
                   help="mutation count (default 1000 if no --budget)")
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="write reproducer artifacts for findings here")
    p.add_argument("--replay", default=None, metavar="ARTIFACT",
                   help="replay one stored artifact instead of fuzzing "
                        "(exit 1 if it still reproduces)")
    p.add_argument("--protocol", default="all", metavar="NAME",
                   help="proof system to target, or 'all' registered protocols")
    p.add_argument("--oracle-iters", type=int, default=8,
                   help="differential-oracle iterations per kernel family")
    p.add_argument("--no-oracles", action="store_true",
                   help="skip the differential oracles")
    p.add_argument("--no-shrink", action="store_true",
                   help="keep findings unshrunk (faster on failure)")

    from .analysis.findings import add_analyze_arguments

    p = sub.add_parser(
        "analyze",
        help="run the soundness analysis (schedule sanitizer, transcript "
        "conformance, race detection); exit 1 on any finding",
    )
    add_analyze_arguments(p)

    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handler = {
        "experiments": cmd_experiments,
        "simulate": cmd_simulate,
        "schedule": cmd_schedule,
        "tune": cmd_tune,
        "prove": cmd_prove,
        "chip": cmd_chip,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "verify": cmd_verify,
        "status": cmd_status,
        "fuzz": cmd_fuzz,
        "analyze": cmd_analyze,
    }[args.command]
    try:
        return handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
