"""Documentation-accuracy tests: the README's code paths work verbatim."""

import numpy as np


class TestReadmeSnippets:
    def test_programmatic_quickstart(self):
        """The README's Plonk snippet (paper Figure 1 statement)."""
        from repro.fri import FriConfig
        from repro.plonk import CircuitBuilder, prove, setup, verify

        builder = CircuitBuilder()
        x0, x1, x2, x3 = (builder.add_variable() for _ in range(4))
        out = builder.mul(builder.add(x0, x1), builder.mul(x2, x3))
        builder.assert_constant(out, 99)
        # Smaller FRI parameters than the README's production config,
        # same code path.
        data = setup(builder.build(), FriConfig(rate_bits=3, cap_height=1,
                                                num_queries=6,
                                                proof_of_work_bits=2,
                                                final_poly_len=4))
        proof = prove(data, {x0.index: 2, x1.index: 9, x2.index: 3, x3.index: 3})
        verify(data.verifier_data, [], proof)

    def test_accelerator_snippet(self):
        """The README's simulator snippet."""
        from repro.sim import simulate_plonky2
        from repro.workloads import by_name

        report = simulate_plonky2(by_name("Factorial").plonk)
        lines = report.summary_lines()
        assert any("workload" in line for line in lines)
        assert 0.1 < report.total_seconds < 2.0  # ballpark of Table 3

    def test_experiments_runner_importable(self):
        from repro.experiments.runner import run_all  # noqa: F401

    def test_all_examples_importable(self):
        """Every example script parses and imports its dependencies."""
        import ast
        from pathlib import Path

        examples = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))
        assert len(examples) >= 6
        for path in examples:
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
            assert any(
                isinstance(node, ast.If) for node in tree.body
            ), f"{path.name} lacks a __main__ guard"

    def test_cited_claims_hold(self):
        """Numbers the README states are regenerated, not stale."""
        from repro.experiments.tables import table3
        from repro.hw import chip_budget

        rows = table3()
        avg = sum(r["unizk_speedup"] for r in rows) / len(rows)
        assert 80 <= avg <= 120  # "~98x average ... (paper: 97x)"
        budget = chip_budget()
        assert abs(budget.total_area_mm2 - 57.8) < 0.1  # "Table 2 exactly"
