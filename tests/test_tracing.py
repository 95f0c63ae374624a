"""Chrome-trace export tests."""

import json

import pytest

from repro import protocols, tracing
from repro.compiler import PlonkParams, lower, trace_plonky2
from repro.hw import DEFAULT_CONFIG
from repro.sim.tracing import schedule_to_trace_events, write_trace
from repro.workloads import by_name

PARAMS = PlonkParams(name="trace-test", degree_bits=12, width=50)


@pytest.fixture(scope="module")
def sched():
    return lower(trace_plonky2(PARAMS), DEFAULT_CONFIG)


class TestTraceEvents:
    def test_every_kernel_has_an_event(self, sched):
        events = schedule_to_trace_events(sched)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(sched.kernels)

    def test_events_cover_the_timeline(self, sched):
        events = [e for e in schedule_to_trace_events(sched) if e["ph"] == "X"]
        end = max(e["ts"] + e["dur"] for e in events)
        assert end >= sched.total_cycles - 1

    def test_counter_monotone(self, sched):
        counters = [
            e["args"]["bytes"]
            for e in schedule_to_trace_events(sched)
            if e["ph"] == "C"
        ]
        assert counters == sorted(counters)
        assert counters[-1] == pytest.approx(sched.total_dma_bytes)

    def test_metadata_tracks(self, sched):
        events = schedule_to_trace_events(sched)
        names = [e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        assert "ntt kernels" in names and "hash kernels" in names

    def test_write_trace_file(self, sched, tmp_path):
        path = write_trace(sched, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["otherData"]["workload"] == sched.workload
        assert len(payload["traceEvents"]) > len(sched.kernels)


# -- verifier stage spans ------------------------------------------------------

#: The stage spans every verifier emits under its root ``verify`` span;
#: the sumcheck-native verifier has a sumcheck where the others check an
#: identity at zeta.
VERIFY_STAGES = {
    "stark": {"verify:transcript", "verify:identity", "verify:merkle", "verify:fold"},
    "plonk": {"verify:transcript", "verify:identity", "verify:merkle", "verify:fold"},
    "hyperplonk": {"verify:transcript", "verify:sumcheck", "verify:merkle", "verify:fold"},
}


@pytest.fixture(scope="module", params=sorted(VERIFY_STAGES))
def proved(request):
    system = protocols.get(request.param)
    setup = system.setup(by_name("Fibonacci"), 6, system.make_config({}))
    return system, setup, system.prove(setup)


class TestVerifierSpans:
    def test_traced_verify_emits_the_stage_spans(self, proved):
        system, setup, proof = proved
        with tracing.trace() as session:
            system.verify(setup, proof)
        (root,) = session.spans
        assert (root.name, root.category) == ("verify", "verify")
        assert root.args["protocol"] == system.name
        stages = [s for s in root.walk() if s is not root]
        assert {s.name for s in stages} == VERIFY_STAGES[system.name]
        assert {s.category for s in stages} == {"verify"}
        # The stages account for the verify: what runs between them
        # (structure checks) is a small remainder.
        covered = sum(s.elapsed_s for s in stages)
        assert 0.9 * root.elapsed_s <= covered <= root.elapsed_s
        # ... and the hashing sits where the names say it does.
        hashed = {}
        for s in stages:
            hashed[s.name] = hashed.get(s.name, 0) + s.counters.get("sponge_permutations", 0)
        assert hashed["verify:merkle"] == root.counters["sponge_permutations"] > 0

    def test_untraced_verify_allocates_no_span(self, proved, monkeypatch):
        system, setup, proof = proved

        def no_span(*args, **kwargs):
            raise AssertionError("a Span was built with no trace session active")

        monkeypatch.setattr(tracing, "Span", no_span)
        system.verify(setup, proof)
