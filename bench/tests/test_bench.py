"""Tests of the benchmark itself (outside ``testpaths``: tier-1 is unchanged).

    PYTHONPATH=src python -m pytest bench/tests -q

A ``--smoke`` run validates the result schema end to end; the unit tests
check that each way an operation can fail is counted as a failure, that
the stage split tolerates a span category it has never seen, that
``BENCHMARK.json`` stays inside the driver's limits, and that
``compare.py`` refuses files it must not compare.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import prover  # noqa: E402
import workloads  # noqa: E402
from common import HostSpeed, Ledger, Recorder, Timed, rate_metric  # noqa: E402
from repro import protocols, tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- BENCHMARK.json against the driver's limits ---------------------------------


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.fullmatch(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's 3420 s with room:
    # a run is its timed loop plus up to ~10 s of set-up and checks.
    assert (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 10) < 3420 / 1.2


def test_benchmark_json_mirrors_the_workload_table():
    assert [w["name"] for w in SPEC["workloads"]] == workloads.WORKLOAD_NAMES
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.why(w["name"])


# -- the smoke run: schema of everything the bench writes -------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "7", "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return out, done.stdout


def test_smoke_results_schema(smoke):
    out, _ = smoke
    results = json.loads((out / "results.json").read_text())
    assert results["smoke"] is True and results["seed"] == 7
    assert set(results["host"]) >= {"platform", "python", "numpy", "cpu_count", "effective_cpus"}
    assert list(results["workloads"]) == workloads.WORKLOAD_NAMES
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, w in results["workloads"].items():
        assert w["failed"] == 0 and w["attempted"] >= 1, (name, w)
        assert w["config"] and w["spec"]
        # The contract's 8 bounded metrics plus failed_frac: the issue's 9.
        assert set(w["end_to_end"]) == set(end_to_end) | {"failed_frac"} and len(w["end_to_end"]) == 9
        assert w["end_to_end"].pop("failed_frac") == {"value": 0.0, "unit": "ratio"}
        for key, m in w["end_to_end"].items():
            assert NAME.fullmatch(key) and m["unit"] == end_to_end[key] and m["value"] > 0, (name, key, m)
        assert set(w["per_layer"]) == set(per_layer) and len(w["per_layer"]) <= 128
        for key, m in w["per_layer"].items():
            assert NAME.fullmatch(key) and m["unit"] == per_layer[key]
    hyper = results["workloads"]["hyperplonk_mvm_8k"]
    assert hyper["per_layer"]["ntt.butterflies"]["value"] == 0
    assert hyper["unmodelled"] == ["sim"]
    assert results["workloads"]["stark_fib_4k"]["per_layer"]["sim.total_cycles"]["value"] > 0


def test_smoke_trace_file_is_valid_chrome_trace(smoke):
    out, _ = smoke
    payload = tracing.load_trace(out / "trace.json")
    cats = {e.get("cat") for e in payload["traceEvents"]}
    assert {"workload", "phase", "iteration", "probe"} <= cats
    ids = {e["args"]["id"] for e in payload["traceEvents"] if e["ph"] == "X"}
    assert len(ids) == 2 * len(workloads.WORKLOAD_NAMES)  # one id per workload per pass


def test_smoke_prints_the_decomposition(smoke):
    _, stdout = smoke
    assert stdout.count("hashing.est_s") >= 3 and "protocols.unattributed_s" in stdout
    assert "predicted" in stdout and "unmodelled: sim" in stdout
    assert "failed_frac" in stdout


def test_contract_line_is_last_and_complete(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "stark_fib_4k", "--smoke", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    """In a tree holding only BENCHMARK.json and bench/ there is nothing
    to measure: no result line, non-zero exit."""
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stark_fib_4k", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and "{" not in done.stdout


def _is_running(pid: int) -> bool:
    try:
        return Path(f"/proc/{pid}/stat").read_bytes().rsplit(b")", 1)[1].split()[0] != b"Z"
    except OSError:
        return False


def test_supervisor_returns_only_when_every_descendant_has_ended(tmp_path):
    """The work orphans two processes -- one ends by itself a moment
    later (a resource tracker does), one never would: when the command
    returns, with the work's exit code, neither is running."""
    script = tmp_path / "orphans.py"
    script.write_text(
        "import subprocess, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import supervisor\n"
        "supervisor.GRACE_S = 0.5\n"
        "supervisor.supervise()\n"
        "for nap in ('0.2', '600'):\n"
        "    print(subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(' + nap + ')']).pid)\n"
        "sys.exit(3)\n"
    )
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 3, done.stderr[-3000:]
    pids = [int(line) for line in done.stdout.split()]
    assert len(pids) == 2 and not any(_is_running(pid) for pid in pids)


def test_a_run_leaves_no_process_behind(tmp_path):
    """A real run (shard workers, their resource trackers): nothing of
    its session is alive once the command has returned."""
    import supervisor

    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "stark_fib_4k", "--smoke", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    # The work runs in a child of the command that leads a session of its own.
    sessions = set()
    while proc.poll() is None:
        time.sleep(0.05)
        for pid in Path("/proc").glob("[0-9]*"):
            try:
                fields = (pid / "stat").read_bytes().rsplit(b")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if int(fields[1]) == proc.pid and int(fields[3]) == int(pid.name):
                sessions.add(int(pid.name))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err[-3000:]
    assert sessions and not any(supervisor._alive(s) for s in sessions)  # noqa: SLF001


# -- every failure trigger fires ----------------------------------------------------


class _Accepting:
    """A verifier that accepts anything (what the flip check must catch)."""

    name = "stark"

    def verify(self, setup, proof):
        return None


def test_flipped_byte_accepted_counts_as_a_failure(monkeypatch):
    monkeypatch.setattr(prover, "proof_from_blob", lambda blob, expected_protocol=None: ("stark", object()))
    case = type("Case", (), {"system": _Accepting(), "setup": None})()
    ledger = Ledger()
    prover.check_flipped_blob(case, bytes(range(64)), seed=1, ledger=ledger)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "accepted" in ledger.failures[0]


def test_flipped_byte_rejected_is_a_pass():
    class Rejecting(_Accepting):
        def verify(self, setup, proof):
            raise ValueError("bad proof")

    case = type("Case", (), {"system": Rejecting(), "setup": None})()
    ledger = Ledger()
    prover.check_flipped_blob(case, bytes(range(64)), seed=1, ledger=ledger)  # decode itself rejects
    assert (ledger.attempted, ledger.failed) == (1, 0)


def test_sharded_digest_mismatch_and_raising_verify_count_as_failures(monkeypatch):
    real = protocols.get("stark")

    class Lying:
        """The real backend, except sharded proofs digest differently
        and the first verify raises."""

        def __init__(self):
            self.sharded = []
            self.verifies = 0

        def __getattr__(self, name):
            return getattr(real, name)

        def prove(self, setup, pool=None):
            proof = real.prove(setup, pool=pool)
            if pool is not None:
                self.sharded.append(id(proof))
            return proof

        def digest(self, proof):
            return "not-the-serial-digest" if id(proof) in self.sharded else real.digest(proof)

        def verify(self, setup, proof):
            self.verifies += 1
            if self.verifies == 1:
                raise ValueError("verifier says no")
            real.verify(setup, proof)

    monkeypatch.setattr(prover.protocols, "get", lambda name: Lying())
    ledger = Ledger()
    prover.run_untraced("stark_fib_4k", seed=0, seconds=0.0, smoke=True, rec=Recorder("t"), ledger=ledger)
    assert any("sharded digest != serial digest" in f for f in ledger.failures)
    assert any(f.startswith("verify: ValueError") for f in ledger.failures)
    assert ledger.failed == 3 and 0 < ledger.failed_frac < 1  # 2 pairs' digests + 1 verify


def test_a_failed_operation_makes_the_run_exit_nonzero_after_its_result_line(tmp_path, monkeypatch, capsys):
    import run

    monkeypatch.setattr(prover, "check_flipped_blob", lambda case, blob, seed, ledger: ledger.check(False, "planted"))
    code = run.main(["--workload", "stark_fib_4k", "--smoke", "--seconds", "0", "--trace", "0", "--out", str(tmp_path)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and last["correct"] is False and last["failed"] == 1
    payload = json.loads((tmp_path / "stark_fib_4k.trace0.json").read_text())
    assert payload["metrics"]["failed_frac"]["value"] == pytest.approx(1 / last["attempted"])


def test_ledger_guard_counts_exceptions_and_goes_on():
    ledger = Ledger()
    with ledger.guard("boom"):
        raise RuntimeError("x")
    with ledger.guard("fine"):
        pass
    assert (ledger.attempted, ledger.failed) == (2, 1) and ledger.failed_frac == 0.5


# -- stage split ----------------------------------------------------------------------


def test_stage_split_tolerates_an_unknown_category():
    root = tracing.Span(name="prove:x", category="prove", elapsed_s=1.0, children=[
        tracing.Span(name="commit:a", category="commit", elapsed_s=0.5, children=[
            tracing.Span(name="pcs:commit", category="commit", elapsed_s=0.4)]),
        tracing.Span(name="teleport", category="mystery", elapsed_s=0.25),
    ])
    split = layers.stage_split([root])
    assert split["stage.commit_s"] == 0.5 and split["stage.other_s"] == 0.25
    assert split["stage.self_s"] == pytest.approx(0.25)
    assert split["pcs.commits"] == 1  # nested commit spans count once
    assert set(split) - {"pcs.commits"} <= {m["name"] for m in SPEC["per_layer"]}


def test_calibrated_time_scales_with_the_host_not_the_program():
    speed = HostSpeed()
    _, t = speed.measure(lambda: sum(range(200_000)))
    assert t.raw > 0 and t.cal > 0
    # Same kernel time before and after => cal = raw * REF_S / kernel.
    assert t.cal == pytest.approx(t.raw * speed.REF_S / speed.sample(), rel=0.5)
    # One rule everywhere: a sample next to a kernel twice as slow reads half.
    assert speed.timed(1.0, 2 * speed.REF_S).cal == pytest.approx(0.5)
    # A fresh sample is reused inside max_age_s, retaken outside it.
    assert speed.sample(max_age_s=60.0) == speed.sample(max_age_s=60.0)


# -- compare.py ------------------------------------------------------------------------


def _results(prove=1.0, iqr=0.01, failed_frac=0.0, **top):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    metrics["prove_p50_s"] = {"value": prove, "unit": "s", "n": 7, "iqr": iqr}
    metrics["failed_frac"] = {"value": failed_frac, "unit": "ratio"}
    w = {"spec": {"scale": 1}, "config": {"q": 1}, "end_to_end": metrics}
    return {"schema": 1, "smoke": False, "seed": 0, "seconds": 15.0, "host": {"python": "3"},
            "workloads": {"w": w}, **top}


def test_compare_verdicts():
    decl = {m["name"]: m for m in SPEC["end_to_end"]}
    bound = decl["prove_p50_s"]["bound"]

    def verdict(**kw):
        rows = compare.compare(_results(), _results(**kw), decl)
        return next(r for r in rows if r["metric"] == "prove_p50_s")["verdict"]

    assert verdict() == "within-bound"
    assert verdict(prove=1.0 + 2 * bound) == "worse"
    assert verdict(prove=1.0 / (1.0 + 2 * bound)) == "better"
    assert verdict(prove=1.0 + 2 * bound, iqr=3 * bound) == "unresolved"


def test_compare_cannot_resolve_a_single_sample_past_the_bound():
    decl = {m["name"]: m for m in SPEC["end_to_end"]}
    bound = decl["setup_s"]["bound"]

    def verdict(new_setup):
        base, new = _results(), _results()
        base["workloads"]["w"]["end_to_end"]["setup_s"].update(n=1, iqr=0.0)
        new["workloads"]["w"]["end_to_end"]["setup_s"].update(value=new_setup, n=1, iqr=0.0)
        return next(r for r in compare.compare(base, new, decl) if r["metric"] == "setup_s")["verdict"]

    assert verdict(1.0 + bound / 2) == "within-bound"
    assert verdict(1.0 + 2 * bound) == "unresolved" and verdict(1.0 / (1.0 + 2 * bound)) == "unresolved"


def test_compare_calls_more_failures_worse_whatever_the_timings(capsys, tmp_path):
    decl = {m["name"]: m for m in SPEC["end_to_end"]}

    def verdict(base, new):
        rows = compare.compare(_results(failed_frac=base), _results(prove=0.5, failed_frac=new), decl)
        return next(r for r in rows if r["metric"] == "failed_frac")["verdict"]

    assert verdict(0.0, 0.0) == "within-bound"
    assert verdict(0.0, 0.01) == "worse"  # bound 0 absolute
    assert verdict(0.02, 0.01) == "better"
    # ... and the command line exits 1 on it, faster proofs or not.
    for name, frac in (("base", 0.0), ("new", 0.01)):
        (tmp_path / name).write_text(json.dumps(_results(prove=0.5 if name == "new" else 1.0, failed_frac=frac)))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 1
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "base")]) == 0


def test_a_rates_spread_is_in_the_rates_own_unit():
    """IQR of a rate is taken over rates (1/s), not over seconds, so
    compare.py's IQR / value is a relative spread at any magnitude."""
    slow = rate_metric([Timed(2 * t, t) for t in (0.5, 0.5, 1.0, 1.0)], "1/s")
    fast = rate_metric([Timed(2 * t, t) for t in (0.05, 0.05, 0.1, 0.1)], "1/s")
    assert slow["value"] == pytest.approx(4 / 3) and slow["n"] == 4 and slow["raw"] == pytest.approx(2 / 3)
    assert slow["iqr"] == pytest.approx(1.0)  # rates 2, 2, 1, 1
    assert fast["iqr"] / fast["value"] == pytest.approx(slow["iqr"] / slow["value"])
