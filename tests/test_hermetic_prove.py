"""Prove time is a function of the repo and the host only.

The software prover has no tuning plane: nothing under ``plan_for`` or
``prove`` may consult the mapping autotuner's cache file
(``$REPRO_TUNING_CACHE`` / ``~/.cache/repro/tuning.json``), whatever
that file holds.  The second half pins where process-ambient state
(``ContextVar`` / ``threading.local``) lives in ``src/repro``, so a new
ambient is a reviewed edit to the lists below.  The last part pins that
a protocol is described in one place: the tables ``ProofSystem`` made
redundant stay gone, and ``serialize.py`` imports no protocol package.
"""

import ast
import json
import re
from pathlib import Path

import pytest

import repro
from repro import metrics, protocols
from repro.autotune import cache as tuning_cache
from repro.autotune.cache import TuningCache
from repro.workloads import fibonacci

from .test_parallel import GOLDENS, SCALE


def _prove_all_and_check_goldens():
    for name in protocols.names():
        system = protocols.get(name)
        setup = system.setup(fibonacci.SPEC, SCALE, system.make_config())
        with metrics.counting() as counts:
            proof = system.prove(setup)
        want_digest, want_counts = GOLDENS[name]
        assert system.digest(proof) == want_digest
        got = counts.as_dict()
        assert {k: got[k] for k in want_counts} == want_counts


def test_prove_never_reads_the_tuning_cache(monkeypatch, fresh_plan_cache):
    calls = []

    def recorder(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    # `default_cache_path` is looked up at call time by every default
    # consult, so it also catches a caller that bound
    # `load_default_cache` by name before this patch.
    for name in ("load_default_cache", "default_cache_path"):
        monkeypatch.setattr(tuning_cache, name, recorder(name, getattr(tuning_cache, name)))
    _prove_all_and_check_goldens()
    assert calls == []


#: What a pre-retirement tuner could have stored for the STARK golden
#: shape: scalar Poseidon for every batch, one-row leaf chunks (x4.2
#: slower at the parent commit, digest and counters untouched).
HOSTILE = {
    "version": 2,
    "entries": {
        "plan.stark/n64/r1@software": {
            "params": {"scalar_batch_limit": 10**9, "leaf_hash_chunk": 1},
            "seconds": 0.1,
        }
    },
}


@pytest.mark.parametrize("truncate", [False, True], ids=["hostile", "truncated"])
def test_cache_file_contents_cannot_reach_the_prover(
    truncate, tmp_path, monkeypatch, fresh_plan_cache
):
    path = tmp_path / "hostile.json"
    text = json.dumps(HOSTILE)
    path.write_text(text[: len(text) // 2] if truncate else text)
    monkeypatch.setenv("REPRO_TUNING_CACHE", str(path))
    _prove_all_and_check_goldens()
    # `repro tune` still reads such a file without complaint.
    loaded = TuningCache.load(path, strict=False)
    assert len(loaded) == (0 if truncate else 1)
    if not truncate:
        assert loaded.lookup("plan.stark/n64/r1", "software")["seconds"] == 0.1


# -- ambient-state inventory ---------------------------------------------------

SRC = Path(repro.__file__).parent

#: Files (relative to ``src/repro``) allowed to create process-ambient
#: state.  The ROADMAP ``RunContext`` item starts from these lists.
AMBIENT = {
    "ContextVar": {"metrics.py", "tracing.py", "parallel/__init__.py"},
    "local": {"field/gl64.py", "fri/plan.py"},
}


def _constructor_calls(name):
    """Files under ``src/repro`` that call ``name(...)`` or ``x.name(...)``."""
    found = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                found.add(path.relative_to(SRC).as_posix())
    return found


@pytest.mark.parametrize("name", sorted(AMBIENT))
def test_ambient_state_lives_where_pinned(name):
    assert _constructor_calls(name) == AMBIENT[name]


# -- one description of a protocol ---------------------------------------------

REPO = SRC.parent.parent

#: Names retired when the body codecs, format versions, envelope kinds
#: and fuzz targets moved onto ``ProofSystem`` (each split in two so
#: this list does not find itself).
RETIRED = "|".join(
    head + tail
    for head, tail in [
        ("_proof", "_(to_bytes|from_bytes|digest)"),
        ("proof_body", "_codec"),
        ("proof_format", "_version"),
        ("PROOF", "_PROTOCOLS"),
        ("PROOF", "_FORMAT_VERSIONS?"),
        ("_BODY", "_CODECS"),
        ("_TARGET", "_BUILDERS"),
        ("DEFAULT", "_CONFIGS"),
        ("fri_config", "_for"),
        ("(prove|verify)_with", "_challenger"),
    ]
)


def test_retired_protocol_tables_stay_retired():
    pattern = re.compile(RETIRED)
    hits = [
        f"{path.relative_to(REPO)}:{lineno}: {line.strip()}"
        for top in ("src", "tests", "benchmarks", "examples")
        for path in sorted((REPO / top).rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_serialize_imports_no_protocol_package():
    # Module level only: the framing functions reach the registry
    # through a call-time import, which is what lets each protocol's
    # proof module import this one.
    imported = set()
    for node in ast.parse((SRC / "serialize.py").read_text()).body:
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "repro." * node.level + (node.module or "")
            imported.add(base.rstrip("."))
            imported.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    banned = ("repro.stark", "repro.plonk", "repro.hyperplonk", "repro.protocols")
    assert [m for m in sorted(imported) if m.startswith(banned)] == []
    assert any(m.startswith("repro.fri") for m in imported)  # the scan sees relatives
