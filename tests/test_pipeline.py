"""Unified proof pipeline tests.

Pins the refactor invariants: both FRI provers commit and open through
:class:`repro.pcs.FriPCS`, proof bytes and operation counters equal
the pinned goldens (tests/goldens.py), and the stage tracing layer
reports a deterministic, counter-consistent span tree.
"""

import numpy as np
import pytest

from repro import metrics, tracing
from repro.context import RUN
from repro.hashing import Challenger
from repro.pcs import FriPCS
from repro.plonk import prove as plonk_prove, setup
from repro.plonk import prover as plonk_prover_module
from repro.protocols import get
from repro.stark import prove as stark_prove
from repro.stark import prover as stark_prover_module
from repro.tracing import load_trace, validate_trace_events, write_spans_trace
from repro.workloads import fibonacci, mvm

from .goldens import CONFIGS, DIGESTS, PLONK_FIBONACCI_DIGEST, PROVE_COUNTERS, SCALE

stark_digest, plonk_digest = get("stark").digest, get("plonk").digest

STARK_CONFIG, PLONK_CONFIG = CONFIGS["stark"], CONFIGS["plonk"]


def _plonk_proof(spec, scale, config=PLONK_CONFIG):
    circuit, inputs, _ = spec.build_circuit(scale)
    data = setup(circuit, config)
    return plonk_prove(data, inputs)


class TestGoldenProofs:
    """The refactor may change how work is executed, never what is proved."""

    def test_stark_digest_unchanged(self):
        air, trace, publics = fibonacci.SPEC.build_air(SCALE)
        proof = stark_prove(air, trace, publics, STARK_CONFIG)
        assert stark_digest(proof) == DIGESTS["stark"]

    def test_plonk_fibonacci_digest_unchanged(self):
        proof = _plonk_proof(fibonacci.SPEC, SCALE)
        assert plonk_digest(proof) == PLONK_FIBONACCI_DIGEST

    def test_plonk_mvm_digest_unchanged(self):
        proof = _plonk_proof(mvm.SPEC, SCALE)
        assert plonk_digest(proof) == DIGESTS["plonk"]

    def test_plonk_counters_unchanged(self):
        circuit, inputs, _ = mvm.SPEC.build_circuit(SCALE)
        data = setup(circuit, PLONK_CONFIG)
        with metrics.counting() as c:
            plonk_prove(data, inputs)
        got = c.as_dict()
        want = PROVE_COUNTERS["plonk"]
        assert {k: got[k] for k in want} == want


class TestSharedSequencing:
    """Both provers run the commit/open flow of repro.pcs.FriPCS."""

    def test_provers_do_not_duplicate_fri_sequencing(self):
        for module in (stark_prover_module, plonk_prover_module):
            assert not hasattr(module, "fri_prove")
            assert not hasattr(module, "open_batches")

    def test_pipeline_tracks_batches_in_transcript_order(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 2**63, size=(3, 16), dtype=np.uint64)
        pcs = FriPCS(STARK_CONFIG)
        preset = pcs.commit_values(rows, "setup")
        other = FriPCS(STARK_CONFIG)
        assert other.add_batch(preset) is preset
        first = other.commit_values(rows, "a")
        ext_values = rng.integers(0, 2**63, size=(32, 2), dtype=np.uint64)
        second = other.commit_quotient(ext_values, 16, 1, "q")
        # Commitment order == FRI opening batch indices.
        assert pcs.batches == [preset]
        assert other.batches == [preset, first, second]

    def test_pipeline_challenges_depend_on_committed_caps(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 2**63, size=(3, 16), dtype=np.uint64)
        challenges = []
        for committed in (rows, rows ^ np.uint64(1)):
            challenger = Challenger()
            challenger.observe_cap(FriPCS(STARK_CONFIG).commit_values(committed, "a").cap)
            challenges.append(challenger.get_challenge())
        assert challenges[0] != challenges[1]


class TestPlonkOnSharedPlan:
    def test_plan_path_is_byte_identical(self):
        circuit, inputs, _ = mvm.SPEC.build_circuit(SCALE)
        data = setup(circuit, PLONK_CONFIG)
        assert plonk_digest(plonk_prove(data, inputs)) == DIGESTS["plonk"]
        assert plonk_digest(plonk_prove(data, inputs)) == DIGESTS["plonk"]


class TestSpans:
    def _traced_prove(self):
        circuit, inputs, _ = fibonacci.SPEC.build_circuit(6)
        data = setup(circuit, PLONK_CONFIG)
        with metrics.counting() as c, tracing.trace() as session:
            plonk_prove(data, inputs)
        return session, c.as_dict()

    def test_span_tree_shape(self):
        session, _ = self._traced_prove()
        assert [s.name for s in session.spans] == ["prove:plonk"]
        child_names = [c.name for c in session.spans[0].children]
        assert child_names == [
            "witness", "commit:wires", "permutation", "commit:z",
            "constraints", "commit:quotient", "open", "fri",
        ]
        # The quotient's per-limb coset iNTTs are shards of its commit.
        quotient = session.spans[0].children[5]
        assert [c.name for c in quotient.children] == [
            "shard:intt_limb", "shard:intt_limb", "shard:lde_rows",
            "shard:merkle_subtree",
        ]
        fri = session.spans[0].children[-1]
        assert [c.name for c in fri.children] == [
            "fri:combine", "fri:fold", "fri:grind", "fri:query"
        ]

    def test_span_tree_deterministic(self):
        a, _ = self._traced_prove()
        b, _ = self._traced_prove()
        assert [s.name for s in a.walk()] == [s.name for s in b.walk()]
        assert [s.counters for s in a.walk()] == [s.counters for s in b.walk()]

    def test_root_span_counters_match_counting(self):
        session, totals = self._traced_prove()
        root = session.spans[0]
        for key, value in totals.items():
            assert root.counters.get(key, 0) == value

    def test_child_times_nest_inside_parent(self):
        session, _ = self._traced_prove()
        for span in session.walk():
            child_sum = sum(c.elapsed_s for c in span.children)
            assert child_sum <= span.elapsed_s + 1e-6

    def test_span_is_noop_without_session(self):
        assert RUN.session is None
        with tracing.span("orphan"):
            pass  # must not raise or record anywhere
        assert RUN.session is None

    def test_roundtrip_through_dict(self):
        session, _ = self._traced_prove()
        root = session.spans[0]
        restored = tracing.Span.from_dict(root.as_dict())
        assert [s.name for s in restored.walk()] == [s.name for s in root.walk()]
        assert restored.counters == root.counters


class TestTraceExport:
    def test_write_and_load_spans_trace(self, tmp_path):
        circuit, inputs, _ = fibonacci.SPEC.build_circuit(6)
        data = setup(circuit, PLONK_CONFIG)
        with tracing.trace() as session:
            plonk_prove(data, inputs)
        path = write_spans_trace(session.spans, tmp_path / "t.json", workload="Fib")
        payload = load_trace(path)
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"prove:plonk", "commit:wires", "fri:fold"} <= names
        assert payload["otherData"]["workload"] == "Fib"

    def test_validate_rejects_malformed_events(self):
        with pytest.raises(ValueError):
            validate_trace_events([])
        with pytest.raises(ValueError):
            validate_trace_events([{"ph": "X", "ts": 0.0, "dur": 1.0}])  # no name
        with pytest.raises(ValueError):
            validate_trace_events([{"name": "a", "ph": "X", "ts": -1.0, "dur": 1.0}])


class TestExecutorCache:
    """Jobs draw setups from the worker thread's instance cache."""

    SPEC = {
        "workload": "Fibonacci", "kind": "plonk", "scale": 6,
        "config": {}, "params": {},
    }

    def test_plonk_setup_cached_across_jobs(self, fresh_instance_cache):
        from repro.service import executor

        first = executor.execute(self.SPEC)
        entries = dict(RUN.instances)
        assert len(entries) == 2  # the circuit build and its committed batch
        second = executor.execute(self.SPEC)
        # The same instance objects (circuit, preprocessed batch) reused.
        assert dict(RUN.instances) == entries
        assert all(RUN.instances[k] is v for k, v in entries.items())
        assert first["envelope"] == second["envelope"]

    def test_execute_returns_span_tree(self):
        from repro.service import executor

        executor.execute(self.SPEC)  # a cold instance's setup spans come first
        res = executor.execute(self.SPEC)
        assert res["spans"][0]["name"] == "prove:plonk"
        children = [c["name"] for c in res["spans"][0]["children"]]
        assert "commit:wires" in children and "fri" in children

    def test_cache_is_size_capped(self, fresh_instance_cache):
        from repro.protocols.base import INSTANCE_CACHE_CAP, instance
        from repro.service import executor

        for i in range(INSTANCE_CACHE_CAP):
            instance(("fake", i), object)
        instance(("fake", 0), object)  # a hit: now the most recently used
        executor.execute(self.SPEC)  # full cache: two inserts evict two
        assert len(RUN.instances) == INSTANCE_CACHE_CAP
        assert ("fake", 0) in RUN.instances
        assert ("fake", 1) not in RUN.instances and ("fake", 2) not in RUN.instances
        assert ("fake", 3) in RUN.instances


class TestSessionIsolation:
    def test_nested_sessions_collect_separately(self):
        with tracing.trace() as outer:
            with tracing.span("outer-stage"):
                # A nested trace (e.g. a shard worker tracing its own
                # kernel in-process) must not leak spans into the outer
                # session, and vice versa.
                with tracing.trace() as inner:
                    with tracing.span("inner-stage"):
                        pass
                assert RUN.session is outer
        assert [s.name for s in inner.walk()] == ["inner-stage"]
        assert [s.name for s in outer.walk()] == ["outer-stage"]

    def test_concurrent_threads_collect_separately(self):
        import threading

        sessions = {}

        def traced(name):
            with tracing.trace() as session:
                with tracing.span(name):
                    pass
            sessions[name] = session

        threads = [
            threading.Thread(target=traced, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            assert [s.name for s in sessions[f"t{i}"].walk()] == [f"t{i}"]


class TestAttachSpans:
    def _worker_payload(self, start_s=100.0):
        return [{
            "name": "shard:lde_rows", "category": "shard",
            "start_s": start_s, "elapsed_s": 0.25,
            "counters": {"ntt_butterflies": 64}, "args": {"units": 8},
            "children": [{
                "name": "inner", "category": "stage",
                "start_s": start_s + 0.1, "elapsed_s": 0.1,
                "counters": {}, "args": {}, "children": [],
            }],
        }]

    def test_noop_without_session(self):
        assert RUN.session is None
        assert tracing.attach_spans(self._worker_payload()) == 0

    def test_empty_payload_is_noop(self):
        with tracing.trace() as session:
            assert tracing.attach_spans([]) == 0
        assert session.spans == []

    def test_attaches_under_open_span(self):
        with tracing.trace() as session:
            with tracing.span("commit:wires"):
                assert tracing.attach_spans(self._worker_payload()) == 1
        root = session.spans[0]
        assert [c.name for c in root.children] == ["shard:lde_rows"]
        shard = root.children[0]
        assert shard.counters == {"ntt_butterflies": 64}
        assert [c.name for c in shard.children] == ["inner"]

    def test_attaches_as_roots_without_open_span(self):
        with tracing.trace() as session:
            assert tracing.attach_spans(self._worker_payload()) == 1
        assert [s.name for s in session.spans] == ["shard:lde_rows"]

    def test_base_s_rebases_foreign_clock(self):
        with tracing.trace() as session:
            tracing.attach_spans(self._worker_payload(start_s=100.0), base_s=5.0)
        shard = session.spans[0]
        # The worker's process-local clock (100.0) lands at the
        # coordinator's dispatch time; relative offsets survive.
        assert shard.start_s == pytest.approx(5.0)
        assert shard.children[0].start_s == pytest.approx(5.1)

    def test_without_base_s_clock_is_untouched(self):
        with tracing.trace() as session:
            tracing.attach_spans(self._worker_payload(start_s=100.0))
        assert session.spans[0].start_s == pytest.approx(100.0)
