#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric: ``spread.py OUT.json``.

Runs each workload once per seed in the driver's form (``run.py
--workload W --seed N --seconds S --trace 0``) and prints, per workload
x metric, the median over the runs and their spread -- the distance
between the first and third quartile (``statistics.quantiles(v, n=4)``)
as a share of the median -- beside the metric's bound.  That is the
figure a benchmark driver accepts or refuses the benchmark on; exit
code 1 if any spread but ``setup_s``'s is over its bound.  Beside each
spread stands that of the same runs' raw (uncalibrated) medians: the
evidence for ``common.HostSpeed``.  Every run made is written to
``OUT.json``; ``spreads/`` holds the builder's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from common import BENCH_DIR, ROOT, host_fingerprint
from workloads import WORKLOAD_NAMES

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, help="where the runs are written, as JSON")
    p.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 0..N-1")
    p.add_argument("--workload", action="append", choices=WORKLOAD_NAMES, help="default: every workload")
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    args = p.parse_args(argv)

    record = {"host": host_fingerprint(), "seconds": args.seconds, "workloads": {}}
    worst = 0.0
    for name in args.workload or WORKLOAD_NAMES:
        runs = []
        for seed in range(args.seeds):
            with tempfile.TemporaryDirectory() as tmp:
                cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0", "--out", tmp]
                done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                if done.returncode:
                    sys.exit(f"spread: {name} seed {seed} exited {done.returncode}\n{done.stderr[-2000:]}")
                payload = json.loads((Path(tmp) / f"{name}.trace0.json").read_text())
            line = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "attempted": line["attempted"], "failed": line["failed"],
                         "metrics": {k: m["value"] for k, m in line["metrics"].items()},
                         "raw": {k: payload["metrics"][k].get("raw", m["value"]) for k, m in line["metrics"].items()}})
        record["workloads"][name] = runs
        print(f"== {name}  ({len(runs)} runs)")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s} {'raw median':>12s} {'raw spread':>10s}")
        for decl in SPEC["end_to_end"]:
            values = [r["metrics"][decl["name"]] for r in runs]
            raws = [r["raw"][decl["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            gated = decl["name"] != "setup_s"
            print(f"  {decl['name']:18s} {statistics.median(values):12.5g} {q1:12.5g} {q3:12.5g} {spread(values):7.3f} "
                  f"{decl['bound']:6.2f} {statistics.median(raws):12.5g} {spread(raws):10.3f}  [{decl['unit']}]"
                  f"{'  > bound' if gated and spread(values) > decl['bound'] else ''}", flush=True)
            if gated:
                worst = max(worst, spread(values) / decl["bound"])
    args.out.write_text(json.dumps(record) + "\n")
    print(f"\nworst spread / bound (setup_s aside): {worst:.2f}; wrote {args.out}")
    return 1 if worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
