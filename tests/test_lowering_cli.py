"""Compiler timeline and CLI tests."""

import pytest

from repro.cli import build_parser, main
from repro.compiler import PlonkParams, schedule, trace_plonky2
from repro.compiler.scheduler import MODE_PIPELINE, MODE_SYSTOLIC, MODE_VECTOR
from repro.hw import DEFAULT_CONFIG as HW

PARAMS = PlonkParams(name="small", degree_bits=12, width=50)


class TestLowering:
    @pytest.fixture(scope="class")
    def sched(self):
        return schedule(trace_plonky2(PARAMS), HW)

    def test_timeline_contiguous(self, sched):
        clock = 0.0
        for k in sched.kernels:
            assert k.start_cycle == pytest.approx(clock)
            assert k.end_cycle >= k.start_cycle
            clock = k.end_cycle
        assert sched.total_cycles == pytest.approx(clock)

    def test_modes_assigned(self, sched):
        modes = {k.name: k.mode for k in sched.kernels}
        assert modes["wires.lde"] == MODE_PIPELINE
        assert modes["wires.merkle"] == MODE_SYSTOLIC
        assert modes["quotient.gate_eval"] == MODE_VECTOR

    def test_dma_totals(self, sched):
        assert sched.total_dma_bytes > 0
        for k in sched.kernels:
            assert k.dma_in_bytes >= 0 and k.dma_out_bytes >= 0

    def test_bound_fraction_range(self, sched):
        assert 0.0 <= sched.bound_fraction() <= 1.0

    def test_format(self, sched):
        text = sched.format(limit=5)
        assert "wires.lde" in text
        assert "more kernels" in text
        full = sched.format()
        assert "more kernels" not in full

    def test_describe_line(self, sched):
        line = sched.kernels[0].describe()
        assert "VSAs" in line and "bound=" in line


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        for cmd in ("experiments", "simulate", "schedule", "prove", "chip"):
            args = parser.parse_args(
                [cmd] if cmd in ("experiments", "chip") else [cmd]
            )
            assert args.command == cmd

    def test_simulate(self, capsys):
        assert main(["simulate", "--workload", "Fibonacci"]) == 0
        out = capsys.readouterr().out
        assert "workload plonky2/Fibonacci" in out

    def test_simulate_with_overrides(self, capsys):
        assert main(["simulate", "--workload", "MVM", "--vsas", "64",
                     "--bandwidth-gbps", "2000"]) == 0
        assert "util" in capsys.readouterr().out

    def test_schedule(self, capsys):
        assert main(["schedule", "--workload", "Fibonacci", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "wires.lde" in out and "memory-bound fraction" in out

    def test_schedule_json_with_trace_out_keeps_stdout_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        argv = ["schedule", "--workload", "Factorial", "--json", "--trace-out", str(path)]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["workload"] == "plonky2/Factorial"
        assert err == f"wrote schedule trace to {path}\n"

    def test_chip(self, capsys):
        assert main(["chip", "--vsas", "64"]) == 0
        out = capsys.readouterr().out
        assert "64 VSAs" in out and "Total" in out

    def test_prove(self, capsys):
        assert main(["prove", "--workload", "Fibonacci", "--scale", "10",
                     "--queries", "4"]) == 0
        out = capsys.readouterr().out
        assert "proved in" in out
        assert "UNSOUND" not in out

    def test_prove_trace_out_writes_a_loadable_trace(self, tmp_path, capsys):
        from repro.tracing import load_trace

        path = tmp_path / "prove_trace.json"
        assert main(["prove", "--workload", "Fibonacci", "--scale", "6",
                     "--queries", "4", "--trace-out", str(path)]) == 0
        events = load_trace(path)["traceEvents"]
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert {"prove:plonk", "fri"} <= names, sorted(names)

    def test_prove_hyperplonk_says_it_is_unsound(self, capsys):
        assert main(["prove", "--protocol", "hyperplonk", "--workload", "MVM",
                     "--scale", "3"]) == 0
        out = capsys.readouterr().out
        warnings = [line for line in out.splitlines() if line.startswith("warning:")]
        assert warnings == [
            "warning: hyperplonk is UNSOUND against a cheating prover: the committed "
            "sumcheck spot-checks plain fold tables, so one altered entry goes unseen "
            "(ROADMAP item 12)"
        ]
        assert "proved in" in out

    def test_unknown_workload_rejected(self, capsys):
        assert main(["simulate", "--workload", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and len(err.strip().splitlines()) == 1
