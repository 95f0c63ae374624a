"""CLI error-path tests: clean one-line failures, nonzero exit codes."""

import pytest

from repro.cli import main


class TestUnknownWorkload:
    def _check(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, f"expected one-line error, got: {captured.err!r}"
        assert "unknown workload" in lines[0]
        assert "Traceback" not in captured.err + captured.out

    def test_prove(self, capsys):
        self._check(capsys, ["prove", "--workload", "NoSuchWorkload"])

    def test_simulate(self, capsys):
        self._check(capsys, ["simulate", "--workload", "NoSuchWorkload"])

    def test_schedule(self, capsys):
        self._check(capsys, ["schedule", "--workload", "NoSuchWorkload"])

    def test_tune(self, capsys):
        self._check(capsys, ["tune", "--workload", "NoSuchWorkload"])

    def test_submit_fails_before_connecting(self, capsys):
        # Validation happens client-side: no server is running here.
        self._check(capsys, ["submit", "--workload", "NoSuchWorkload"])

    def test_error_names_the_workload_and_choices(self, capsys):
        main(["prove", "--workload", "Mystery"])
        err = capsys.readouterr().err
        assert "'Mystery'" in err and "Fibonacci" in err


class TestRetiredTuneFlags:
    """The search has no cache, budget or seed left to set."""

    @pytest.mark.parametrize(
        "flag", [["--cache", "X"], ["--budget", "1s"], ["--seed", "1"]], ids=" ".join
    )
    def test_argparse_rejects(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["tune", "--workload", "Fibonacci", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRetiredServeFlags:
    """A dispatch is one proof: there is no batch to switch off or size."""

    @pytest.mark.parametrize(
        "flag", [["--no-batch"], ["--batch-window", "0.05"], ["--max-batch", "8"]], ids=" ".join
    )
    def test_argparse_rejects(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--port", "8399", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBadServeArgs:
    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--retries", "-1"], "max_retries must be >= 0, got -1"),
            (["--job-timeout", "0"], "default_timeout_s must be finite and > 0, got 0.0"),
            (["--workers", "0"], "workers must be >= 1, got 0"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_refused_in_one_line_before_any_worker_starts(self, flag, message, capsys):
        assert main(["serve", "--port", "8399", *flag]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"


class TestBadQueryCount:
    def test_prove_rejects_zero_queries_in_one_line(self, capsys):
        for protocol in ("stark", "plonk", "hyperplonk"):
            assert main(["prove", "--protocol", protocol, "--queries", "0"]) == 2
            captured = capsys.readouterr()
            assert captured.err.strip() == "error: num_queries must be >= 1"
            assert "proved" not in captured.out


class TestUnknownProtocol:
    def _check(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, f"expected one-line error, got: {captured.err!r}"
        assert "unknown protocol" in lines[0]
        assert "Traceback" not in captured.err + captured.out

    def test_prove_unknown_protocol(self, capsys):
        self._check(capsys, ["prove", "--protocol", "groth16"])

    def test_fuzz_both_is_no_longer_a_protocol(self, capsys):
        self._check(capsys, ["fuzz", "--protocol", "both", "--iterations", "1"])

    def test_fuzz_unknown_protocol(self, capsys):
        self._check(capsys, ["fuzz", "--protocol", "groth16",
                             "--iterations", "1"])

    def test_error_names_the_protocol_and_choices(self, capsys):
        main(["prove", "--protocol", "groth16"])
        err = capsys.readouterr().err
        assert "'groth16'" in err
        for name in ("stark", "plonk", "hyperplonk"):
            assert name in err

    def test_submit_unknown_kind_fails_before_connecting(self, capsys):
        # Client-side validation: no server is running here.
        assert main(["submit", "--kind", "quantum", "--port", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown job kind" in err and "'quantum'" in err
        # Fault-injection kinds are not submittable from the CLI.
        assert main(["submit", "--kind", "crash", "--port", "1"]) == 2
        assert "unknown job kind" in capsys.readouterr().err

    def test_list_protocols(self, capsys):
        assert main(["prove", "--list-protocols"]) == 0
        out = capsys.readouterr().out
        for name in ("stark", "plonk", "hyperplonk"):
            assert f"{name}:" in out


class TestAnalyzeErrors:
    def _check(self, capsys, argv, fragment):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, f"expected one-line error, got: {captured.err!r}"
        assert fragment in lines[0]
        assert "Traceback" not in captured.err + captured.out

    def test_unknown_rule_id(self, capsys):
        self._check(
            capsys, ["analyze", "--rules", "sched.nope"], "unknown rule id"
        )

    def test_unknown_rule_names_the_choices(self, capsys):
        main(["analyze", "--rules", "bogus.rule"])
        err = capsys.readouterr().err
        assert "'bogus.rule'" in err and "sched.latch-double-drive" in err

    def test_malformed_baseline(self, capsys, tmp_path):
        bad = tmp_path / "BASELINE.json"
        bad.write_text("{ not json")
        self._check(
            capsys, ["analyze", "--baseline", str(bad)], "not valid JSON"
        )

    def test_module_entry_point_matches(self, capsys, tmp_path):
        # ``python -m repro.analysis`` shares the CLI's error contract.
        from repro.analysis.runner import main as analysis_main

        assert analysis_main(["--rules", "sched.nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule id" in err and "Traceback" not in err


class TestServiceUnreachable:
    def test_submit_without_server_is_clean(self, capsys):
        assert main(["submit", "--workload", "Fibonacci",
                     "--port", "1"]) == 2
        err = capsys.readouterr().err
        assert "cannot reach service" in err
        assert "Traceback" not in err

    def test_status_without_server_is_clean(self, capsys):
        assert main(["status", "--port", "1"]) == 2
        assert "cannot reach service" in capsys.readouterr().err


class TestServiceRejections:
    def test_status_unknown_job_is_clean(self, capsys):
        import threading

        from repro.service import ProvingService, serve_forever, wait_for_server

        port = 8473
        service = ProvingService(workers=1)
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_forever,
            args=(service,),
            kwargs={"port": port, "ready_event": ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(10)
        assert wait_for_server("127.0.0.1", port, timeout_s=10)
        try:
            assert main(["status", "--port", str(port),
                         "--job", "j-999999"]) == 2
            captured = capsys.readouterr()
            lines = captured.err.strip().splitlines()
            assert len(lines) == 1
            assert "j-999999" in lines[0]
            assert "Traceback" not in captured.err + captured.out
        finally:
            assert main(["status", "--port", str(port), "--shutdown"]) == 0
            thread.join(10)
