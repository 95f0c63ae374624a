"""Static analysis subsystem: sanitizer rules, lint passes, baseline."""

import json

import pytest

from repro.analysis import (
    AnalysisError,
    BaselineEntry,
    Finding,
    load_baseline,
    match_baseline,
    run_analysis,
    sanitize,
    save_baseline,
    shipped_schedules,
    shipped_specs,
    update_baseline,
)
from repro.analysis.findings import check_rule_ids, sort_findings
from repro.analysis.lint import lint_source
from repro.analysis.sanitizer import ScheduleSpec, spec_for_emulator
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
            check_rule_ids(["prover.bogus"])

    def test_findings_carry_location(self):
        bad = _spec({(0, 0): [(Instr("mov", ZERO, out_right=True),
                               Instr("mov", ZERO, out_right=True))]})
        (f,) = sanitize(bad)
        assert (f.schedule, f.pe, f.cycle) == ("fixture", (0, 0), 0)
        assert f.key() == "fixture::pe(0,0)"
        assert "[sched.latch-double-drive]" in f.format()


# ---------------------------------------------------------------------------
# Layer 2: lint passes, one positive + negative fixture per rule
# ---------------------------------------------------------------------------


class TestLintRules:
    def test_raw_mod(self):
        src = "def f(x):\n    return x % P\n"
        (f,) = lint_source("stark/foo.py", src)
        assert f.rule == "prover.raw-mod"
        assert (f.scope, f.detail) == ("f", "% P")
        # Attribute moduli are caught too.
        (g,) = lint_source("stark/foo.py", "y = x % gl.P\n")
        assert g.detail == "% gl.P"
        # field/ modules own raw reduction; literals are not moduli.
        assert lint_source("field/foo.py", src) == []
        assert lint_source("stark/foo.py", "y = x % 7\n") == []

    def test_hot_alloc(self):
        src = "import numpy as np\ndef f():\n    return np.zeros(4)\n"
        (f,) = lint_source("ntt/foo.py", src)
        assert f.rule == "prover.hot-alloc"
        assert f.detail == "np.zeros"
        assert f.key() == "ntt/foo.py::f::np.zeros"
        # Only hot-path modules are in scope; workspace draws are fine.
        assert lint_source("sim/foo.py", src) == []
        ws_src = "def f(ws):\n    return ws.temp((4,), 'slot')\n"
        assert lint_source("ntt/foo.py", ws_src) == []

    def test_nondeterminism(self):
        (f,) = lint_source("stark/foo.py", "import time\n")
        assert (f.rule, f.detail) == ("prover.nondeterminism", "import time")
        (g,) = lint_source("plonk/foo.py", "from random import random\n")
        assert g.detail == "import random"
        (h,) = lint_source(
            "fri/foo.py", "def f(np):\n    return np.random.default_rng(0)\n"
        )
        assert h.detail == "np.random"
        # Outside the proving path, timing code is fine.
        assert lint_source("experiments/foo.py", "import time\n") == []

    def test_into_aliasing_doc(self):
        bare = "def add_into(a, out):\n    \"\"\"Add.\"\"\"\n    return out\n"
        (f,) = lint_source("field/foo.py", bare)
        assert f.rule == "prover.into-aliasing-doc"
        assert f.detail == "add_into"
        documented = (
            "def add_into(a, out):\n"
            "    \"\"\"Add; out may alias a.\"\"\"\n"
            "    return out\n"
        )
        assert lint_source("field/foo.py", documented) == []
        no_out = "def fan_into(a, b):\n    return a\n"
        assert lint_source("field/foo.py", no_out) == []


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
            assert built.emu.validate
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

    def test_validate_false_opts_out(self):
        programs = {(0, 0): [Instr("mov", IN_LEFT, dst_reg=0)]}
        with pytest.raises(ScheduleError):
            GridEmulator(1, 1).run(programs)
        emu = GridEmulator(1, 1, validate=False)
        emu.run(programs)  # runtime "reads as zero" semantics
        assert emu.regs[(0, 0)][0] == 0


# ---------------------------------------------------------------------------
# Suppression baseline
# ---------------------------------------------------------------------------


def _entry(**kw):
    kw.setdefault("rule", "prover.raw-mod")
    kw.setdefault("key", "stark/foo.py::f::% P")
    kw.setdefault("justification", "spec code")
    return BaselineEntry(**kw)


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BASELINE.json"
        entries = [
            _entry(),
            _entry(rule="prover.hot-alloc", key="ntt/foo.py::f::np.zeros",
                   count=3, justification="escapes"),
        ]
        save_baseline(path, entries)
        assert sorted(load_baseline(path), key=lambda e: e.rule) == sorted(
            entries, key=lambda e: e.rule
        )

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == []

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ("not json {", "not valid JSON"),
            (json.dumps({"entries": []}), "version"),
            (json.dumps({"version": 1}), "'entries'"),
            (
                json.dumps({"version": 1, "entries": [
                    {"rule": "no.such", "key": "k", "justification": "j"}
                ]}),
                "unknown rule id",
            ),
            (
                json.dumps({"version": 1, "entries": [
                    {"rule": "prover.raw-mod", "key": "k"}
                ]}),
                "justification",
            ),
            (
                json.dumps({"version": 1, "entries": [
                    {"rule": "prover.raw-mod", "key": "k",
                     "justification": "j", "count": 0}
                ]}),
                "positive integer",
            ),
            (
                json.dumps({"version": 1, "entries": [
                    {"rule": "prover.raw-mod", "key": "k",
                     "justification": "j", "extra": 1}
                ]}),
                "unknown field",
            ),
            (
                json.dumps({"version": 1, "entries": [
                    {"rule": "prover.raw-mod", "key": "k", "justification": "j"},
                    {"rule": "prover.raw-mod", "key": "k", "justification": "j"},
                ]}),
                "duplicate",
            ),
        ],
    )
    def test_malformed_baseline_is_a_clean_error(
        self, tmp_path, payload, fragment
    ):
        path = tmp_path / "BASELINE.json"
        path.write_text(payload)
        with pytest.raises(AnalysisError, match=fragment):
            load_baseline(path)

    def test_match_budget_and_stale(self):
        f = Finding(rule="prover.raw-mod", message="m",
                    path="stark/foo.py", scope="f", detail="% P")
        twice = [f, Finding(**{**f.__dict__})]
        res = match_baseline(twice, [_entry(count=1)])
        assert len(res.suppressed) == 1 and len(res.new) == 1
        res = match_baseline(twice, [_entry(count=2)])
        assert len(res.suppressed) == 2 and not res.new
        stale = match_baseline([], [_entry()])
        assert stale.stale and not stale.new

    def test_unjustified_entries_are_reported(self):
        res = match_baseline([], [_entry(justification="   ")])
        assert res.unjustified

    def test_update_preserves_justifications(self):
        f = Finding(rule="prover.raw-mod", message="m",
                    path="stark/foo.py", scope="f", detail="% P")
        g = Finding(rule="prover.hot-alloc", message="m",
                    path="ntt/foo.py", scope="g", detail="np.zeros")
        merged = update_baseline([f, g], [_entry(justification="kept")])
        by_rule = {e.rule: e for e in merged}
        assert by_rule["prover.raw-mod"].justification == "kept"
        assert by_rule["prover.hot-alloc"].justification == ""

    def test_sort_findings_is_deterministic(self):
        a = Finding(rule="b.rule", message="m", path="z.py", line=9)
        b = Finding(rule="a.rule", message="m", schedule="s", pe=(1, 0), cycle=2)
        assert sort_findings([a, b]) == sort_findings([b, a])
        assert sort_findings([a, b])[0] is b


# ---------------------------------------------------------------------------
# Content fingerprints: baselines survive line drift and scope renames
# ---------------------------------------------------------------------------


class TestFingerprints:
    SRC = "import numpy as np\ndef f():\n    return np.zeros(4)\n"

    def _finding(self):
        (f,) = lint_source("ntt/foo.py", self.SRC)
        return f

    def test_fingerprint_is_content_based(self):
        f = self._finding()
        assert f.snippet == "ntt/foo.py::return np.zeros(4)"
        assert len(f.fingerprint()) == 16
        # Line drift alone does not move the fingerprint.
        drifted = Finding(**{**f.__dict__, "line": f.line + 40})
        assert drifted.fingerprint() == f.fingerprint()
        # A different rule on the same snippet is a different identity.
        other = Finding(**{**f.__dict__, "rule": "prover.raw-mod"})
        assert other.fingerprint() != f.fingerprint()

    def test_snippetless_findings_fall_back_to_key(self):
        f = Finding(rule="race.write-write", message="m",
                    graph="commit:t", detail="a~b")
        assert f.fingerprint() == Finding(**f.__dict__).fingerprint()

    def test_baseline_matches_fingerprint_across_scope_rename(self):
        f = self._finding()
        entry = BaselineEntry(
            rule=f.rule, key=f.key(), justification="j",
            fingerprint=f.fingerprint(),
        )
        # The enclosing function was renamed: the key no longer matches
        # but the content fingerprint still claims the entry.
        renamed = Finding(**{**f.__dict__, "scope": "g"})
        assert renamed.key() != f.key()
        res = match_baseline([renamed], [entry])
        assert res.suppressed == [renamed] and not res.new and not res.stale

    def test_key_fallback_for_handwritten_entries(self):
        f = self._finding()
        bare = BaselineEntry(rule=f.rule, key=f.key(), justification="j")
        res = match_baseline([f], [bare])
        assert res.suppressed == [f] and not res.new

    def test_update_preserves_justification_across_key_change(self):
        f = self._finding()
        entry = BaselineEntry(
            rule=f.rule, key=f.key(), justification="kept",
            fingerprint=f.fingerprint(),
        )
        renamed = Finding(**{**f.__dict__, "scope": "g"})
        merged = update_baseline([renamed], [entry])
        (out,) = merged
        assert out.key == renamed.key()
        assert out.justification == "kept"


# ---------------------------------------------------------------------------
# Repo-wide gate: the tree must be clean against its shipped baseline
# ---------------------------------------------------------------------------


class TestRepoGate:
    def test_repo_is_clean_under_strict(self):
        report = run_analysis()
        assert report.schedules_checked == 4
        assert report.modules_checked > 50
        assert report.protocols_checked == ["stark", "plonk", "hyperplonk"]
        assert len(report.graphs_checked) == 18  # 9 shapes x workers {1, 4}
        new = [f.format() for f in report.match.new]
        assert not new, "non-baselined findings:\n" + "\n".join(new)
        unjust = [e.key for e in report.match.unjustified]
        assert not unjust, "unjustified baseline entries: " + ", ".join(unjust)
        assert not report.match.stale
        assert report.exit_code == 0
        payload = report.to_dict()
        assert payload["exit_code"] == 0
        assert payload["protocols_checked"] == report.protocols_checked
        assert set(payload["rule_counts"]) <= set(
            f.rule for f in report.findings
        ) | set()

    def test_rule_subset_skips_other_layers(self):
        report = run_analysis(rules=["prover.raw-mod"])
        assert report.schedules_checked == 0
        assert report.protocols_checked == []
        assert report.graphs_checked == []
        assert report.modules_checked > 50
