"""Analysis subsystem: sanitizer rules, shipped schedules, the runner."""

import runpy

import pytest

from repro.analysis.findings import AnalysisError, Finding, check_rule_ids, sort_findings
from repro.analysis.runner import run_analysis
from repro.analysis.sanitizer import ScheduleSpec, sanitize, spec_for_emulator
from repro.analysis.schedules import shipped_schedules, shipped_specs
from repro.hw.microcode import (
    IN_BOTTOM,
    IN_LEFT,
    NOP,
    ZERO,
    GridEmulator,
    Instr,
    ScheduleError,
    imm,
    reg,
)


def _rules(findings):
    return [f.rule for f in findings]


def _spec(programs, **kw):
    kw.setdefault("name", "fixture")
    kw.setdefault("rows", 2)
    kw.setdefault("cols", 2)
    return ScheduleSpec(programs=programs, **kw)


# ---------------------------------------------------------------------------
# Layer 1: schedule sanitizer, one positive + negative fixture per rule
# ---------------------------------------------------------------------------


class TestScheduleRules:
    def test_pe_oob(self):
        bad = _spec({(0, 5): [NOP]})
        assert "sched.pe-oob" in _rules(sanitize(bad))
        good = _spec({(0, 1): [NOP]})
        assert sanitize(good) == []

    def test_mul_overcommit(self):
        two_muls = (Instr("mul", ZERO, ZERO), Instr("mul", ZERO, ZERO))
        bad = _spec({(0, 0): [two_muls]})
        assert "sched.mul-overcommit" in _rules(sanitize(bad))
        one_mul = (Instr("mul", ZERO, ZERO), Instr("mov", ZERO))
        assert sanitize(_spec({(0, 0): [one_mul]})) == []

    def test_add_overcommit(self):
        three = tuple(Instr("mov", ZERO, dst_reg=i) for i in range(3))
        bad = _spec({(0, 0): [three]})
        assert "sched.add-overcommit" in _rules(sanitize(bad))
        two = tuple(Instr("mov", ZERO, dst_reg=i) for i in range(2))
        assert sanitize(_spec({(0, 0): [two]})) == []

    def test_latch_double_drive(self):
        double = (
            Instr("mov", ZERO, out_right=True),
            Instr("mov", ZERO, out_right=True),
        )
        bad = _spec({(0, 0): [double]})
        assert "sched.latch-double-drive" in _rules(sanitize(bad))
        split = (
            Instr("mov", ZERO, out_right=True),
            Instr("mov", ZERO, out_down=True),
        )
        assert sanitize(_spec({(0, 0): [split]})) == []

    def test_reg_oob_operand_and_destination(self):
        bad_src = _spec({(0, 0): [Instr("mov", reg(99))]}, register_words=64)
        assert "sched.reg-oob" in _rules(sanitize(bad_src))
        bad_dst = _spec(
            {(0, 0): [Instr("mov", ZERO, dst_reg=200)]}, register_words=64
        )
        assert "sched.reg-oob" in _rules(sanitize(bad_dst))
        good = _spec(
            {(0, 0): [Instr("mov", ZERO, dst_reg=63)]}, register_words=64
        )
        assert sanitize(good) == []

    def test_reverse_link(self):
        up = {(1, 0): [Instr("mov", ZERO, out_up=True)]}
        bad = _spec(up, reverse_link_cols=frozenset())
        assert "sched.reverse-link" in _rules(sanitize(bad))
        good = _spec(up, reverse_link_cols=frozenset({0}))
        assert sanitize(good) == []

    def test_reg_use_before_def(self):
        read = {(0, 0): [Instr("mov", reg(0), dst_reg=1)]}
        armed = _spec(read, preloaded_regs=set())
        assert "sched.reg-use-before-def" in _rules(sanitize(armed))
        # None disarms the rule: reset zeroes are part of the contract.
        assert sanitize(_spec(read, preloaded_regs=None)) == []
        covered = _spec(read, preloaded_regs={((0, 0), 0)})
        assert sanitize(covered) == []

    def test_reg_write_commits_end_of_cycle(self):
        # Write at cycle 0 is visible at cycle 1, not cycle 0.
        same_cycle = {
            (0, 0): [
                (Instr("mov", imm(1), dst_reg=0), Instr("mov", reg(0))),
            ]
        }
        bad = _spec(same_cycle, preloaded_regs=set())
        assert "sched.reg-use-before-def" in _rules(sanitize(bad))
        next_cycle = {
            (0, 0): [Instr("mov", imm(1), dst_reg=0), Instr("mov", reg(0))]
        }
        assert sanitize(_spec(next_cycle, preloaded_regs=set())) == []

    def test_latch_use_before_def_between_pes(self):
        early = {
            (0, 0): [Instr("mov", imm(7), out_right=True)],
            (0, 1): [Instr("mov", IN_LEFT, dst_reg=0)],  # needs cycle 1
        }
        assert "sched.latch-use-before-def" in _rules(sanitize(_spec(early)))
        delayed = {
            (0, 0): [Instr("mov", imm(7), out_right=True)],
            (0, 1): [NOP, Instr("mov", IN_LEFT, dst_reg=0)],
        }
        assert sanitize(_spec(delayed)) == []

    def test_latch_use_before_def_boundary_feed(self):
        two_reads = {
            (0, 0): [Instr("mov", IN_LEFT, dst_reg=0),
                     Instr("mov", IN_LEFT, dst_reg=1)]
        }
        short_feed = _spec(two_reads, left_feeds={0: 1})
        findings = sanitize(short_feed)
        assert _rules(findings) == ["sched.latch-use-before-def"]
        assert findings[0].cycle == 1
        assert sanitize(_spec(two_reads, left_feeds={0: 2})) == []

    def test_bottom_boundary_has_no_feed(self):
        bottom = {(1, 0): [Instr("mov", IN_BOTTOM, dst_reg=0)]}
        assert "sched.latch-use-before-def" in _rules(sanitize(_spec(bottom)))
        explicit_zero = {(1, 0): [Instr("mov", ZERO, dst_reg=0)]}
        assert sanitize(_spec(explicit_zero)) == []

    def test_rule_subset_filters(self):
        bad = _spec({(0, 5): [NOP], (0, 0): [Instr("mov", reg(99))]})
        only = sanitize(bad, rules=["sched.reg-oob"])
        assert _rules(only) == ["sched.reg-oob"]

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(AnalysisError, match="unknown rule id"):
            sanitize(_spec({(0, 0): [NOP]}), rules=["sched.nope"])
        with pytest.raises(AnalysisError, match="unknown rule id"):
            check_rule_ids(["prover.raw-mod"])

    def test_findings_carry_location(self):
        bad = _spec({(0, 0): [(Instr("mov", ZERO, out_right=True),
                               Instr("mov", ZERO, out_right=True))]})
        (f,) = sanitize(bad)
        assert (f.schedule, f.pe, f.cycle) == ("fixture", (0, 0), 0)
        assert "[sched.latch-double-drive]" in f.format()


# ---------------------------------------------------------------------------
# Shipped schedules: statically clean and emulator-validated
# ---------------------------------------------------------------------------


class TestShippedSchedules:
    def test_every_shipped_schedule_sanitizes_clean(self):
        specs = list(shipped_specs())
        assert {s.name for s in specs} == {
            "matvec", "sbox_pipeline", "reverse_dot", "vector_mac"
        }
        for spec in specs:
            assert sanitize(spec) == [], spec.name

    def test_every_shipped_schedule_runs_under_validation(self):
        for built in shipped_schedules():
            assert built.run() > 0

    @pytest.mark.parametrize(
        "inject, rule",
        [
            (
                lambda entry: entry + (Instr("mov", ZERO, out_right=True),),
                "sched.latch-double-drive",
            ),
            (
                lambda entry: (entry[0], Instr("mov", reg(63), out_right=True)),
                "sched.reg-use-before-def",
            ),
        ],
        ids=["latch-double-drive", "reg-use-before-def"],
    )
    def test_injected_hazard_fails_sanitizer_and_emulator_alike(
        self, inject, rule
    ):
        # Corrupt cycle 0 of matvec's PE (0,0): the sanitizer and the
        # emulator's load-time check must both reject it, naming the
        # same rule id.
        built = next(iter(shipped_schedules()))
        assert built.name == "matvec"
        built.programs[(0, 0)][0] = inject(built.programs[(0, 0)][0])
        spec = spec_for_emulator(
            built.emu,
            built.programs,
            built.left_inputs,
            built.top_inputs,
            built.num_cycles,
            name=built.name,
        )
        assert rule in _rules(sanitize(spec))
        with pytest.raises(ScheduleError) as err:
            built.run()
        assert rule in {f.rule for f in err.value.findings}
        assert rule in str(err.value)


# ---------------------------------------------------------------------------
# Repo-wide gate: the tree has no finding, and any finding fails the run
# ---------------------------------------------------------------------------


class TestRepoGate:
    def test_repo_is_clean_under_strict(self):
        report = run_analysis()
        assert report.schedules_checked == 4
        assert report.protocols_checked == ["stark", "plonk", "hyperplonk"]
        assert len(report.graphs_checked) == 14  # 7 shapes x workers {1, 4}
        found = [f.format() for f in report.findings]
        assert not found, "findings:\n" + "\n".join(found)
        assert report.exit_code == 0
        payload = report.to_dict()
        assert payload["exit_code"] == 0
        assert payload["findings"] == []
        assert payload["protocols_checked"] == report.protocols_checked

    def test_rule_subset_skips_other_layers(self):
        report = run_analysis(rules=["sched.pe-oob"])
        assert report.schedules_checked == 4
        assert report.protocols_checked == []
        assert report.graphs_checked == []

    def test_a_planted_hazard_fails_the_module_entry_point(
        self, monkeypatch, capsys
    ):
        import repro.analysis.schedules as schedules

        hazard = _spec({(0, 5): [NOP]}, name="planted")
        shipped = schedules.shipped_specs
        monkeypatch.setattr(
            schedules, "shipped_specs", lambda: [*shipped(), hazard]
        )
        monkeypatch.setattr("sys.argv", ["repro.analysis"])
        with pytest.raises(SystemExit) as done:
            runpy.run_module("repro.analysis", run_name="__main__")
        assert done.value.code == 1
        out = capsys.readouterr().out
        assert "schedule sanitizer: 5 shipped schedules" in out
        assert "findings: 1\n  [sched.pe-oob] planted PE(0, 5)" in out

    def test_sort_findings_is_deterministic(self):
        a = Finding(rule="b.rule", message="m", graph="g")
        b = Finding(rule="a.rule", message="m", schedule="s", pe=(1, 0), cycle=2)
        assert sort_findings([a, b]) == sort_findings([b, a])
        assert sort_findings([a, b])[0] is b
