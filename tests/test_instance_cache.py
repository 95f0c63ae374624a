"""A preprocessed instance is built once and bound to many configs.

``ProofSystem.setup`` keeps each instance (workload build plus its
preprocessed commitment, built to the root) in the thread's
``RUN.instances`` and binds a config by cutting the tree at its cap.
These tests pin that binding to a cold setup bit for bit, that a second
setup hashes nothing, that ``verify_result`` reaches one verdict warm or
cold, and that shared setup data refuses writes.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro import metrics, protocols
from repro.context import RUN, scoped
from repro.errors import VerifierError
from repro.fri import config as fri_config
from repro.fuzz.targets import TYPED_REJECTIONS
from repro.service import execute, verify_result
from repro.workloads import by_name

from .goldens import ARITY2_DIGESTS, CONFIGS, DIGESTS, ROW_LAYOUT_DIGESTS, SCALE, WORKLOADS
from .test_fri import _force_row_leaves

FIB = by_name("Fibonacci")


def _max_cap(system, psetup) -> int:
    """The tallest cap height a proof of ``psetup``'s instance can carry
    (one past it for HyperPlonk-lite, whose commits clamp the cap)."""
    log_n = psetup.rows.bit_length() - 1
    if "rate_bits" in system.default_config():
        return log_n + psetup.config.rate_bits
    return log_n + 1


def _sweep(system, psetup):
    """Configs that share ``psetup``'s preprocessing: every cap height,
    and moved queries, final-polynomial length and grinding."""
    knobs = system.default_config()
    configs = [{"cap_height": h} for h in range(_max_cap(system, psetup) + 1)]
    configs.append({"num_queries": knobs["num_queries"] + 3})
    if "final_poly_len" in knobs:
        configs += [{"final_poly_len": 1}, {"final_poly_len": 16}]
    if "proof_of_work_bits" in knobs:
        configs += [{"proof_of_work_bits": 0}, {"proof_of_work_bits": 6}]
    return configs


def _proved(system, config):
    psetup = system.setup(FIB, SCALE, config)
    proof = system.prove(psetup)
    system.verify(psetup, proof)
    caps = [b.cap.tobytes() for b in system.cap_bindings(psetup, proof)]
    return caps, system.digest(proof)


@pytest.mark.parametrize("name", protocols.names())
def test_configs_bound_from_a_cached_instance_prove_as_cold_setups(name, fresh_instance_cache):
    system = protocols.get(name)
    base = system.setup(FIB, SCALE, system.make_config())
    for overrides in _sweep(system, base):
        config = system.make_config(overrides)
        warm = _proved(system, config)
        with ThreadPoolExecutor(1) as fresh:  # a new thread: a fresh Run
            cold = fresh.submit(_proved, system, config).result()
        assert warm == cold, overrides


@pytest.mark.parametrize("name", protocols.names())
def test_a_second_setup_of_an_instance_hashes_nothing(name, fresh_instance_cache):
    system = protocols.get(name)
    knobs = system.default_config()
    system.setup(FIB, SCALE, system.make_config())
    moved = {"cap_height": knobs["cap_height"] + 1, "num_queries": knobs["num_queries"] + 1}
    with metrics.counting() as c:
        psetup = system.setup(FIB, SCALE, system.make_config(moved))
    assert c.as_dict() == metrics.Counters().as_dict()
    system.verify(psetup, system.prove(psetup))


def _verdict(spec, envelope) -> str:
    try:
        return str(verify_result(spec, envelope))
    except TYPED_REJECTIONS as exc:
        return type(exc).__name__


@pytest.mark.parametrize("name", protocols.names())
def test_verify_result_gives_one_verdict_warm_and_cold(name, fresh_instance_cache):
    # The service's own check of an envelope binds the instance a
    # default setup left warm; a cold instance must reach the same
    # verdict on an honest envelope and on one with a byte flipped.
    system = protocols.get(name)
    knobs = system.default_config()
    system.setup(FIB, SCALE, system.make_config())
    moved = {"cap_height": knobs["cap_height"] + 1, "num_queries": knobs["num_queries"] + 1}
    spec = {"workload": "Fibonacci", "kind": name, "scale": SCALE, "config": moved}
    envelope = execute(spec)["envelope"]
    flipped = bytearray(envelope)
    flipped[len(flipped) * 3 // 4] ^= 0x01
    verdicts = []
    for env in (envelope, bytes(flipped)):
        warm = _verdict(spec, env)
        with scoped("instances", OrderedDict()):
            cold = _verdict(spec, env)
        assert warm == cold
        verdicts.append(warm)
    assert verdicts[0] == "True" and verdicts[1] != "True", verdicts


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_the_default_setup_still_proves_the_golden_digest_from_cache(name, fresh_instance_cache):
    system, workload = protocols.get(name), by_name(WORKLOADS[name])
    system.setup(workload, SCALE, system.make_config({"cap_height": 3}))
    psetup = system.setup(workload, SCALE, CONFIGS[name])
    assert system.digest(system.prove(psetup)) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ROW_LAYOUT_DIGESTS))
def test_row_layout_pin_reproduces_after_a_default_setup(name, monkeypatch, fresh_instance_cache):
    system = protocols.get(name)
    system.setup(FIB, SCALE, CONFIGS[name])
    _force_row_leaves(monkeypatch)
    psetup = system.setup(FIB, SCALE, CONFIGS[name])
    proof = system.prove(psetup)
    assert system.digest(proof) == ROW_LAYOUT_DIGESTS[name]
    system.verify(psetup, proof)


@pytest.mark.parametrize("name", sorted(ARITY2_DIGESTS))
def test_arity_2_pin_reproduces_after_a_default_setup(name, monkeypatch, fresh_instance_cache):
    system = protocols.get(name)
    workload = by_name(WORKLOADS[name])
    system.setup(workload, SCALE, CONFIGS[name])
    monkeypatch.setattr(fri_config, "FRI_ARITY_BITS", 1)
    _force_row_leaves(monkeypatch)
    psetup = system.setup(workload, SCALE, CONFIGS[name])
    proof = system.prove(psetup)
    assert system.digest(proof) == ARITY2_DIGESTS[name]
    system.verify(psetup, proof)


def test_the_instance_cache_is_per_thread(fresh_instance_cache):
    import threading

    system = protocols.get("plonk")
    system.setup(FIB, SCALE, system.make_config())
    seen = []
    worker = threading.Thread(target=lambda: seen.append(len(RUN.instances)))
    worker.start()
    worker.join()
    assert seen == [0] and len(RUN.instances) == 2


class TestSetupDataIsReadOnly:
    """A write into shared setup data raises instead of corrupting the
    next proof of the instance."""

    def test_stark_trace(self, fresh_instance_cache):
        system = protocols.get("stark")
        psetup = system.setup(FIB, SCALE, system.make_config())
        _, trace = psetup.data
        with pytest.raises(ValueError, match="read-only"):
            trace[0, 0] = 1
        with pytest.raises(TypeError):
            psetup.publics[0] = 1

    def test_plonk_setup(self, fresh_instance_cache):
        system = protocols.get("plonk")
        data, inputs = system.setup(FIB, SCALE, system.make_config()).data
        batch = data.preprocessed
        for arr in (data.sigmas, data.ids, data.circuit.selectors, batch.coeffs,
                    batch.values, batch.tree.leaves, batch.tree.arena, batch.cap):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1
        with pytest.raises(TypeError):
            inputs[0] = 1

    def test_hyperplonk_setup(self, fresh_instance_cache):
        system = protocols.get("hyperplonk")
        data, _ = system.setup(FIB, SCALE, system.make_config()).data
        for arr in (data.sigmas, data.ids, data.circuit.selectors,
                    data.preprocessed.leaves, data.preprocessed.arena):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1

    def test_an_altered_copy_leaves_the_instance_intact(self, fresh_instance_cache):
        system = protocols.get("stark")
        psetup = system.setup(FIB, SCALE, CONFIGS["stark"])
        air, trace = psetup.data
        bad = trace.copy()
        bad[3, 0] ^= 1
        altered = replace(psetup, data=(air, bad))
        with pytest.raises(VerifierError):
            system.verify(altered, system.prove(altered))
        again = system.setup(FIB, SCALE, CONFIGS["stark"])
        assert system.digest(system.prove(again)) == DIGESTS["stark"]
