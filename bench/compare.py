#!/usr/bin/env python3
"""Compare two ``results.json`` files: ``compare.py BASE.json NEW.json``.

One row per workload x end-to-end metric: base, new, ratio new/base and
a verdict against the bound ``BENCHMARK.json`` fixes for that metric:

* ``worse``        -- new is worse than base by more than the bound;
* ``better``       -- new is better than base by more than the bound;
* ``within-bound`` -- neither;
* ``unresolved``   -- the samples cannot say: those behind either number
  spread (IQR over value) wider than the bound, or the difference is
  past the bound but a side is a single sample (``setup_s``: one set-up
  a run, 12-20 % apart from run to run).  Ten runs a side resolve it.

The ninth row of every workload is ``failed_frac`` (failed / attempted
operations), bound 0 absolute: ``worse`` as soon as new fails more than
base.  A gain does not count when more operations fail.

Files are only comparable when they were taken on the same host
fingerprint, with the same seed and the same workload shapes, and are
not smoke runs; anything else is refused.  Exit code 1 if any row is
``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from common import ROOT


class NotComparable(ValueError):
    """The two result files must not be compared."""


def require_comparable(base: Dict[str, Any], new: Dict[str, Any], allow_smoke: bool = False) -> None:
    if not allow_smoke and (base.get("smoke") or new.get("smoke")):
        raise NotComparable("a smoke run carries no comparable numbers")
    for key in ("schema", "host", "seed", "seconds"):
        if base.get(key) != new.get(key):
            raise NotComparable(f"{key} differs: {base.get(key)!r} vs {new.get(key)!r}")
    if set(base["workloads"]) != set(new["workloads"]):
        raise NotComparable("workload sets differ")
    for name, w in base["workloads"].items():
        other = new["workloads"][name]
        for key in ("spec", "config"):
            if w[key] != other[key]:
                raise NotComparable(f"{name}: {key} differs: {w[key]!r} vs {other[key]!r}")


def compare(
    base: Dict[str, Any], new: Dict[str, Any], end_to_end: Dict[str, Dict[str, Any]], allow_smoke: bool = False
) -> List[Dict[str, Any]]:
    """The comparison rows; raises :class:`NotComparable` first."""
    require_comparable(base, new, allow_smoke)
    rows = []
    for name, w in base["workloads"].items():
        for key, decl in end_to_end.items():
            a, b = w["end_to_end"][key], new["workloads"][name]["end_to_end"][key]
            ratio = b["value"] / a["value"]
            worse_by = ratio - 1.0 if decl["better"] == "lower" else 1.0 / ratio - 1.0
            spread = max(a.get("iqr", 0.0) / a["value"], b.get("iqr", 0.0) / b["value"])
            bound = decl["bound"]
            single = a.get("n") == 1 or b.get("n") == 1
            if spread > bound or (single and abs(worse_by) > bound):
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif worse_by < -bound:
                verdict = "better"
            else:
                verdict = "within-bound"
            rows.append({
                "workload": name, "metric": key, "unit": decl["unit"], "base": a["value"], "new": b["value"],
                "ratio": ratio, "worse_by": worse_by, "bound": bound, "spread": spread, "single": single,
                "verdict": verdict,
            })
        a = w["end_to_end"]["failed_frac"]["value"]
        b = new["workloads"][name]["end_to_end"]["failed_frac"]["value"]
        rows.append({
            "workload": name, "metric": "failed_frac", "unit": "ratio", "base": a, "new": b,
            "ratio": b / a if a else (float("inf") if b else 1.0), "worse_by": b - a, "bound": 0.0, "spread": 0.0, "single": False,
            "verdict": "worse" if b > a else "better" if b < a else "within-bound",
        })
    return rows


def print_rows(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':20s} {'metric':18s} {'base':>12s} {'new':>12s} {'new/base':>9s} {'bound':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:20s} {r['metric']:18s} {r['base']:12.5g} {r['new']:12.5g} "
              f"{r['ratio']:9.3f} {r['bound']:6.2f}  {r['verdict']}  [{r['unit']}]")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(base, new, {m["name"]: m for m in spec["end_to_end"]})
    except NotComparable as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    print_rows(rows)
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
