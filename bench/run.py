#!/usr/bin/env python3
"""The repo's benchmark: four workloads, end to end and layer by layer.

    python3 bench/run.py --seed 0                 # all workloads, both passes
    python3 bench/run.py --workload stark_fib_4k --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --selfcheck              # untraced pass twice, must agree
    python3 bench/run.py --smoke                  # tiny shapes, schema check only

With ``--workload`` it runs that workload in this process (the form the
benchmark driver calls; ``BENCHMARK.json`` has the contract) and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Without ``--workload`` it
runs every workload in a fresh subprocess each -- so plan and setup
caches start cold and ``peak_rss_mb`` is per workload -- first untraced,
then traced, and writes ``results.json`` and a Chrome ``trace.json``
under ``--out``.  Run as a script it works under ``supervisor.py``, which
returns only when every process the run started has ended.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH_DIR, ROOT, Ledger, Recorder, add_src_to_path, host_fingerprint, metric
from supervisor import supervise
from workloads import WORKLOAD_NAMES, describe

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: Exact numbers: two runs of the same code must report them identically.
EXACT_COUNTS = ("proof_bytes", "sponge_permutations", "challenger_permutations", "ntt_butterflies", "ntt_transforms")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload in this process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]), help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), help="0: end-to-end pass, 1: per-layer pass (default: both)")
    p.add_argument("--out", type=Path, default=BENCH_DIR / "out", help="where result and trace files go")
    p.add_argument("--smoke", action="store_true", help="tiny shapes, 2 iterations; output flagged smoke")
    p.add_argument("--selfcheck", action="store_true", help="run the untraced pass twice and require agreement")
    return p.parse_args(argv)


# -- one workload, this process ------------------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    # The shard arena unlinks its own segments; the resource tracker,
    # which also registered them, then warns about each at exit.  Real
    # leaks are measured (parallel.shm_leaked), so drop the false alarm.
    os.environ.setdefault("PYTHONWARNINGS", "ignore::UserWarning:multiprocessing.resource_tracker")
    add_src_to_path()
    t0 = time.perf_counter()
    import repro.parallel  # noqa: F401 - timed: host.import_s is what a prover process imports
    import repro.protocols  # noqa: F401
    import repro.service  # noqa: F401

    import_s = time.perf_counter() - t0
    import prover
    import service

    traced = bool(args.trace)
    name = args.workload
    rec = Recorder(f"{name}/trace{int(traced)}/seed{args.seed}")
    ledger = Ledger()
    with rec.span(name, "workload", trace=int(traced), seed=args.seed):
        if name == "service_mix":
            metrics, extras = service.run(args.seed, args.seconds, args.smoke, traced, import_s, rec, ledger)
        elif traced:
            import layers

            metrics, extras = layers.run_traced(name, args.seed, args.seconds, args.smoke, import_s, rec, ledger)
        else:
            metrics, extras = prover.run_untraced(name, args.seed, args.seconds, args.smoke, rec, ledger)

    declared = PER_LAYER if traced else END_TO_END
    undeclared = sorted(set(metrics) - set(declared))
    if undeclared:
        raise SystemExit(f"bench: metrics not declared in BENCHMARK.json: {undeclared}")
    # A layer the workload does not exercise reads 0 (see README.md).
    not_exercised = sorted(set(declared) - set(metrics))
    for missing in not_exercised:
        metrics[missing] = metric(0.0, declared[missing]["unit"])

    if not traced:
        # The ninth end-to-end metric.  It lives in the result files and
        # compare.py, not in BENCHMARK.json: the driver bounds a metric
        # relative to a median that must never be 0, and takes failures
        # from the result line's ``failed`` / ``attempted`` instead.
        metrics["failed_frac"] = metric(ledger.failed_frac, "ratio")
    payload = {
        "workload": name,
        "trace": int(traced),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "spec": describe(name, args.smoke),
        "host": host_fingerprint(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures[:20],
        "metrics": metrics,
        "not_exercised": not_exercised,
        **extras,
        "events": rec.events,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{name}.trace{int(traced)}.json").write_text(json.dumps(payload))

    print_metrics(name, traced, payload)
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in sorted(declared)},
            }
        )
    )
    return 1 if ledger.failed else 0


def print_metrics(name: str, traced: bool, payload: dict) -> None:
    """Every metric by name with its unit (and n, IQR where sampled)."""
    print(f"== {name}  [{'per-layer' if traced else 'end-to-end'}]  seed {payload['seed']}"
          f"{'  SMOKE' if payload['smoke'] else ''}")
    overhead_only = payload["host"]["effective_cpus"] < 2
    for key, m in sorted(payload["metrics"].items()):
        if key in payload["not_exercised"]:
            continue
        note = f"  (n={m['n']}" + (f", iqr {m['iqr']:.4g})" if "iqr" in m else ")") if "n" in m else ""
        if overhead_only and key in ("proofs_per_s", "parallel.speedup_w2"):
            note += "  [overhead_only: effective_cpus < 2]"
        print(f"  {key:34s} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'operations':34s} {payload['attempted']:>14d} count  ({payload['failed']} failed)")
    for failure in payload["failures"]:
        print(f"  FAILED: {failure}")
    if traced and name != "service_mix":
        v = {k: payload["metrics"][k]["value"] for k in
             ("hashing.est_s", "ntt.est_s", "protocols.unattributed_s", "protocols.prove_s")}
        print(f"  hashing.est_s {v['hashing.est_s']:.4f} + ntt.est_s {v['ntt.est_s']:.4f} + "
              f"protocols.unattributed_s {v['protocols.unattributed_s']:.4f} = "
              f"prove_p50_s {v['protocols.prove_s']:.4f}  (traced run's own untraced median)")
        if payload.get("unmodelled"):
            print(f"  unmodelled: {', '.join(payload['unmodelled'])} (no compiler frontend for this protocol)")
        else:
            m = payload["metrics"]
            rest = 1.0 - (v["hashing.est_s"] + v["ntt.est_s"]) / v["protocols.prove_s"]
            print(f"  mix ntt:hash:rest  predicted {m['sim.ntt_frac']['value']:.2f}:{m['sim.hash_frac']['value']:.2f}:"
                  f"{m['sim.poly_frac']['value']:.2f}  measured {v['ntt.est_s'] / v['protocols.prove_s']:.2f}:"
                  f"{v['hashing.est_s'] / v['protocols.prove_s']:.2f}:{rest:.2f}  (model unvalidated)")


# -- every workload, a subprocess each ------------------------------------------


def run_pass(args: argparse.Namespace, trace: int, out: Path) -> dict:
    """Run all workloads for one pass; returns ``{workload: payload}``."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out)]
        payload = out / f"{name}.trace{trace}.json"
        payload.unlink(missing_ok=True)
        # Exit code 1 with a payload is a run whose operations failed:
        # it is reported, not raised on.
        done = subprocess.run(cmd + (["--smoke"] if args.smoke else []), timeout=900)
        if not payload.is_file():
            raise SystemExit(f"bench: {name} (trace {trace}) exited {done.returncode} without a result")
        results[name] = json.loads(payload.read_text())
    return results


def assemble(args: argparse.Namespace, passes: dict) -> dict:
    """``results.json``: host and config beside every number."""
    first = next(iter(passes[0].values()))
    workloads = {}
    for name in WORKLOAD_NAMES:
        untraced, traced = passes[0][name], passes.get(1, {}).get(name, {})
        workloads[name] = {
            "spec": untraced["spec"],
            "config": untraced["config"],
            "rows": untraced.get("rows"),
            "counts": untraced["counts"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced.get("metrics", {}),
            "not_exercised": traced.get("not_exercised", []),
            "unmodelled": traced.get("unmodelled", []),
        }
    return {
        "schema": 1,
        "smoke": args.smoke,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": first["host"],
        "workloads": workloads,
    }


def write_trace(passes: dict, out: Path) -> Path:
    """One Chrome trace: a process track per (workload, pass)."""
    add_src_to_path()
    from repro import tracing

    events, pid = [], 0
    for trace, results in passes.items():
        for name, payload in results.items():
            pid += 1
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": f"{name} trace={trace}"}})
            events.extend({**e, "pid": pid} for e in payload["events"])
    return tracing.write_trace_payload(events, out / "trace.json", display_time_unit="ms")


def run_all(args: argparse.Namespace) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    # results.json is built on the untraced pass; ``--trace 0`` skips the other.
    passes = {trace: run_pass(args, trace, args.out) for trace in ((0,) if args.trace == 0 else (0, 1))}
    results = assemble(args, passes)
    (args.out / "results.json").write_text(json.dumps(results, indent=1))
    trace_path = write_trace(passes, args.out)
    failed = sum(w["failed"] for w in results["workloads"].values())
    print(f"\nwrote {args.out / 'results.json'} and {trace_path}; failed operations: {failed}")
    return 1 if failed else 0


def run_selfcheck(args: argparse.Namespace) -> int:
    """Untraced pass twice (A, B); they must agree within the bounds."""
    import compare

    args.out.mkdir(parents=True, exist_ok=True)
    sides = {}
    for side in ("A", "B"):
        out = args.out / f"selfcheck-{side}"
        out.mkdir(parents=True, exist_ok=True)
        sides[side] = assemble(args, {0: run_pass(args, 0, out)})
        (out / "results.json").write_text(json.dumps(sides[side], indent=1))
    rows = compare.compare(sides["A"], sides["B"], END_TO_END, allow_smoke=args.smoke)
    compare.print_rows(rows)
    # Same code twice: past the bound in either direction is a
    # disagreement -- unless a side is one sample (setup_s), which two
    # runs cannot resolve; compare.py prints that row as unresolved.
    bad = [r for r in rows if abs(r["worse_by"]) > r["bound"] and not r["single"]]
    for name in WORKLOAD_NAMES:
        a, b = sides["A"]["workloads"][name], sides["B"]["workloads"][name]
        for key in EXACT_COUNTS:
            if a["counts"].get(key) != b["counts"].get(key):
                bad.append({"workload": name, "metric": f"count {key}", "base": a["counts"].get(key),
                            "new": b["counts"].get(key)})
        if a["failed"] or b["failed"]:
            bad.append({"workload": name, "metric": "failed", "base": a["failed"], "new": b["failed"]})
    for r in bad:
        print(f"DISAGREE {r['workload']} {r['metric']}: A={r['base']} B={r['new']}")
    print("selfcheck:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload:
        if args.trace is None:
            args.trace = 0
        return run_workload(args)
    if args.selfcheck:
        return run_selfcheck(args)
    return run_all(args)


if __name__ == "__main__":
    supervise()  # returns in a child; the parent waits for all the run leaves behind
    sys.exit(main())
