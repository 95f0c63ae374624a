"""A run is a function of the repo, its arguments and the host.

Neither the software prover nor the hardware model has an ambient
input: nothing under ``prove``, ``schedule`` or ``simulate`` may consult
a file outside the checkout (the retired mapping-tuner cache lived at
``$REPRO_TUNING_CACHE`` / ``~/.cache/repro/tuning.json``), whatever that
file holds, and nothing under ``src/repro`` reads the environment or the
home directory at all.  The second half pins where process-ambient state
(``ContextVar`` / ``threading.local``) lives in ``src/repro``, so a new
ambient is a reviewed edit to the lists below.  The last part pins that
a protocol is described in one place: the tables ``ProofSystem`` made
redundant stay gone, and ``serialize.py`` imports no protocol package.
"""

import ast
import hashlib
import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest

import repro
from repro import metrics, protocols
from repro.compiler import trace_plonky2
from repro.experiments.tables import table3
from repro.hw import DEFAULT_CONFIG
from repro.mapping import DEFAULT_MAPPING
from repro.sim import simulate_graph, simulate_plonky2
from repro.workloads import factorial, fibonacci

from .goldens import DIGESTS, PROVE_COUNTERS, SCALE


def _prove_all_and_check_goldens():
    for name in protocols.names():
        system = protocols.get(name)
        setup = system.setup(fibonacci.SPEC, SCALE, system.make_config())
        with metrics.counting() as counts:
            proof = system.prove(setup)
        want_counts = PROVE_COUNTERS[name]
        assert system.digest(proof) == DIGESTS[name]
        got = counts.as_dict()
        assert {k: got[k] for k in want_counts} == want_counts


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


def _planted_winners():
    """A cache file as the retired tuner wrote it (format version 2) for
    the default chip: the real NTT winners of Factorial's two largest
    shapes, and a hand-written entry naming the Poseidon scheme the
    sanitizer rejects."""
    blob = json.dumps(asdict(DEFAULT_CONFIG), sort_keys=True).encode()
    hw = hashlib.sha256(blob).hexdigest()[:12]
    tile6 = {"params": {"ntt": {"tile_log2": 6, "dims_per_pass": 2}}}
    ii1 = {"params": {"poseidon": {"scheme": "sparse-12x3-ii1"}}}
    entries = {
        f"lde/log20+r3@{hw}": tile6,
        f"ntt/log23@{hw}": tile6,
        f"poseidon/w12@{hw}": ii1,
    }
    return json.dumps({"version": 2, "entries": entries})


@pytest.mark.parametrize("door", ["env", "home"])
def test_planted_tuning_file_cannot_move_the_model(door, tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.delenv("REPRO_TUNING_CACHE", raising=False)
    graph = trace_plonky2(factorial.SPEC.plonk)
    pinned = simulate_graph(graph, mapping=DEFAULT_MAPPING).total_cycles
    before = table3()

    path = tmp_path / ".cache" / "repro" / "tuning.json"
    path.parent.mkdir(parents=True)
    path.write_text(_planted_winners())
    if door == "env":
        monkeypatch.setenv("HOME", str(tmp_path / "elsewhere"))
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(path))
    assert simulate_plonky2(factorial.SPEC.plonk).total_cycles == pinned
    assert table3() == before


# -- ambient-state inventory ---------------------------------------------------

SRC = Path(repro.__file__).parent

#: Files (relative to ``src/repro``) allowed to create process-ambient
#: state: the one per-thread ``Run`` of ``repro.context``.
AMBIENT = {
    "ContextVar": set(),
    "local": {"context.py"},
}


def _ambient_uses(name):
    """Files under ``src/repro`` that call ``name(...)`` / ``x.name(...)``
    or subclass it."""
    found = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                used = [node.func]
            elif isinstance(node, ast.ClassDef):
                used = node.bases
            else:
                continue
            for ref in used:
                if (ref.attr if isinstance(ref, ast.Attribute) else getattr(ref, "id", None)) == name:
                    found.add(path.relative_to(SRC).as_posix())
    return found


@pytest.mark.parametrize("name", sorted(AMBIENT))
def test_ambient_state_lives_where_pinned(name):
    assert _ambient_uses(name) == AMBIENT[name]


#: Ways to the process environment or the home directory, whatever
#: object they hang off (``os``, ``os.path``, ``Path``).  No file under
#: ``src/repro`` may use one: there is no allow-list.
ENV_AND_HOME = {"environ", "getenv", "home", "expanduser", "expandvars"}


def test_nothing_reads_the_environment_or_the_home_directory():
    found = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            where = f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
            found.update(f"{where}: {n}" for n in names if n in ENV_AND_HOME)
    assert found == set()


# -- one description of a protocol ---------------------------------------------

REPO = SRC.parent.parent

#: Names retired when the body codecs, format versions, envelope kinds
#: and fuzz targets moved onto ``ProofSystem``, when the mapping
#: tuner's disk cache went, when the service's batching window gave
#: way to single-flight, when shard graphs began to run in build order
#: on forked workers only, when the code only its own tests reached
#: went (``tests/test_reachability.py``; the oracles among it live in
#: ``tests/reference_oracles.py``), and when five ambient stores and
#: the uncalled PCS interface gave way to one per-thread run
#: (``repro.context``), and when the service's worker pool gave way to
#: the one worker primitive (``repro.parallel.workers``).  Each is split
#: in two so this list does not find itself.
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
        ("Tuning", "Cache"),
        ("Mapping", "Resolver"),
        ("load_default", "_cache"),
        ("default_cache", "_path"),
        ("CACHE_ENV", "_VAR"),
        ("batch", "_window"),
        ("enable", "_batching"),
        ("compat", "_key"),
        ("max", "_batch"),
        ("prove", "_batch"),
        ("CriticalPath", "Scheduler"),
        ("Stage", "Profile"),
        ("static", "_order"),
        ("observe", "_spans"),
        ("unit", "_cost"),
        ("maybe", "_sharding"),
        ("start", "_method"),
        ("UNREGISTER", "_ON_ATTACH"),
        ("unregister", "_on_attach"),
        ("lint", "_package"),
        ("new", "_findings"),
        ("observe", "_ext"),
        ("observe", "_many"),
        ("space_for", "_family"),
        ("\\.is", "_default\\b"),
        ("\\.stages", "\\("),
        ("ext\\.(frobenius|div|neg)", "\\b"),
        ("gl64\\.(geometric|dot|matvec|mul_add|neg_into|pow_scalar|square|to", "_ints)\\b"),
        ("gl\\.(div|is_canonical)", "\\b"),
        ("\\broots_of", "_unity\\b"),
        ("batch", "_inverse"),
        ("rand", "_element"),
        ("fm\\.(as_matrix|identity|trans", "pose)\\b"),
        ("determ", "inant"),
        ("is_mds", "_upto"),
        ("\\.blow", "up\\b"),
        ("PolynomialBatch\\.from", "_coeffs\\b"),
        ("\\.eval_at", "_ext\\b"),
        ("\\.num", "_polys\\b"),
        ("combine", "_openings"),
        ("sparse_round", "_apply"),
        ("sponge\\.(hash_no_pad|hash_or_noop|two_to", "_one)\\b"),
        ("\\.ntt", "_tile\\b"),
        ("Lru", "Scratchpad"),
        ("matmul_weight", "_stationary"),
        ("reverse", "_broadcast"),
        ("has_reverse", "_link"),
        ("mul_through", "put"),
        ("bit_reverse_shuffle", "_groups"),
        ("Stage", "State"),
        ("total", "_permutations"),
        ("\\b(i?ntt_(nr|rn|ext)|coset_ntt", "_nr)\\b"),
        ("ntt_multi", "dim"),
        ("decompose", "_size"),
        ("barycentric", "_eval"),
        ("divmod", "_vanishing"),
        ("divide_by", "_linear"),
        ("ntt\\.(polynomial|decom", "position)\\b"),
        ("ntt import [^#]*\\bPoly", "nomial\\b"),
        ("\\.dependents", "\\("),
        ("binding", "_error"),
        ("\\.busy", "_workers\\("),
        ("\\.pids", "\\("),
        ("simulate_starky", "_plonky2"),
        ("\\.cycles_by", "_stage\\("),
        ("\\.num_transition", "_constraints\\("),
        ("stage", "_seconds"),
        ("active", "_session"),
        ("\\bGLO", "BAL\\b"),
        ("_Context", "Counters"),
        ("merge", "_counts"),
        ("_MET", "RICS\\b"),
        ("\\b_ACT", "IVE\\b"),
        ("\\b_LO", "CAL\\b"),
        ("\\b_T", "LS\\b"),
        ("import P", "CS\\b"),
        ("\\(P", "CS\\)"),
        ("def open\\(self, commit", "ment"),
        ("cache_(entries|bytes)", "="),
        ("Worker", "Pool"),
        ("Worker", "Handle"),
        ("Casu", "alty"),
        ("lint", "_source"),
        ("Baseline", "Entry"),
        ("match", "_baseline"),
        ("update", "_baseline"),
        ("ANALYSIS", "_BASELINE"),
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


# -- one worker primitive ------------------------------------------------------


def _calls(match):
    """``file:line`` of every call under ``src/repro`` that ``match``es."""
    return sorted(
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and match(node)
    )


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_no_multiprocessing_queue():
    # One shared queue per pool let a killed writer wedge every reader;
    # each worker has a pipe of its own instead.
    queues = {"Queue", "SimpleQueue", "JoinableQueue"}
    assert _calls(lambda call: _name(call.func) in queues) == []


def test_exactly_one_worker_loop():
    def ignores_sigint(call):
        return _name(call.func) == "signal" and [_name(a) for a in call.args] == [
            "SIGINT", "SIG_IGN"
        ]

    (site,) = _calls(ignores_sigint)
    assert site.startswith("parallel/workers.py:")
