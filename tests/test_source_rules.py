"""Source rules: conventions of the prover code, checked over its text.

The zero-copy data plane (workspace arenas, ``*_into`` aliasing
kernels, transcript-seeded proving, one declared transcript) is a set
of conventions; six AST rules over ``src/repro`` turn them into checked
invariants:

* ``prover.raw-mod`` -- an ad-hoc ``% P`` reduction outside
  ``repro.field``; everything else goes through the field helpers
  (``gl.canonical``, the gl64 kernels);
* ``prover.hot-alloc`` -- a fresh numpy allocation in a hot-path module
  (:data:`HOT_PATH_PREFIXES`, :data:`HOT_PATH_FILES`), which must draw
  scratch from a ``Workspace`` arena instead;
* ``prover.nondeterminism`` -- ``time`` / ``random`` / ``secrets`` or
  ``np.random`` in the proving path (:data:`PROVING_PATH_PREFIXES`):
  proofs are transcript-seeded and replayable;
* ``prover.into-aliasing-doc`` -- an ``*_into`` kernel taking an
  ``out`` buffer whose docstring does not state its aliasing contract;
* ``prover.workspace-arg`` -- a function taking a workspace argument (a
  parameter named ``ws`` or annotated ``Workspace``): every kernel and
  stage buffer comes from the thread's one arena, ``RUN.workspace``,
  and ``scoped("workspace", ...)`` is the one way to isolate another.
  A ``Workspace.plan`` builder -- a function, or a class's
  ``__init__``, that its module passes to ``.plan(slot, shape, build)``
  -- is handed the arena by ``plan()`` and is exempt;
* ``prover.transcript`` -- a STARK or Plonk prover, verifier or backend
  (:data:`TRANSCRIPT_FILES`) that calls a ``Challenger``'s
  ``observe_*`` / ``get_*challenge*`` methods itself or builds a
  ``CapBinding``: the Fiat-Shamir rounds and the cap bindings are read
  from their one declaration, a :class:`repro.pcs.protocol.FriProtocol`.

A finding fails the test unless :data:`ALLOWED` names its
``path::qualname`` with a reason; an entry that matches no finding, has
no reason, or is not confined to part of one module fails it too.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from pathlib import Path
from typing import NamedTuple

import repro

SRC = Path(repro.__file__).parent

#: Module prefixes (package-relative, ``/`` separators) whose
#: allocations must come from Workspace arenas.
HOT_PATH_PREFIXES = ("ntt/", "hashing/", "fri/", "pcs/")
#: Individual hot-path files.  The shard kernels and graph builders run
#: once per shard per proof -- the same budget as the provers they split;
#: the hyperplonk prover is the sumcheck-native hot path.
HOT_PATH_FILES = (
    "stark/prover.py",
    "plonk/prover.py",
    "hyperplonk/prover.py",
    "parallel/kernels.py",
    "parallel/ops.py",
)
#: Prefixes forming the deterministic proving path.
PROVING_PATH_PREFIXES = (
    "field/",
    "ntt/",
    "hashing/",
    "merkle/",
    "fri/",
    "stark/",
    "plonk/",
    "sumcheck/",
    "parallel/",
    "hyperplonk/",
    "pcs/",
    "protocols/",
)

#: Modules that step or replay a declared transcript, never the
#: challenger itself.
TRANSCRIPT_FILES = (
    "stark/prover.py",
    "stark/verifier.py",
    "plonk/prover.py",
    "plonk/verifier.py",
    "protocols/stark_backend.py",
    "protocols/plonk_backend.py",
)

#: Each rule -> whether it applies to a package-relative path.
SCOPES = {
    "prover.raw-mod": lambda path: not path.startswith("field/"),
    "prover.hot-alloc": lambda path: (
        path.startswith(HOT_PATH_PREFIXES) or path in HOT_PATH_FILES
    ),
    "prover.nondeterminism": lambda path: path.startswith(PROVING_PATH_PREFIXES),
    "prover.into-aliasing-doc": lambda path: True,
    "prover.workspace-arg": lambda path: True,
    "prover.transcript": lambda path: path in TRANSCRIPT_FILES,
}

_ONE_TIME_TABLE = (
    "One-time table derivation, cached per process (lru_cache); "
    "allocated once, not per call"
)

#: Findings kept on purpose: rule -> ``path::qualname`` (``fnmatch``
#: pattern; ``<module>`` for top-level code) -> why it is not a defect.
ALLOWED: dict[str, dict[str, str]] = {
    "prover.raw-mod": {},
    "prover.hot-alloc": {
        "fri/prover.py::FriOpenings.flat_values": (
            "Empty-batch sentinel: a zero-length array returned when no "
            "columns are opened; never on the per-proof hot loop"
        ),
        "hashing/constants.py::round_constants": _ONE_TIME_TABLE,
        "hashing/optimized.py::_fused_tables": _ONE_TIME_TABLE,
        "hashing/optimized.py::permute": (
            "The returned state escapes to the caller: one 12-lane state per "
            "challenger duplex; batched hashing calls permute_into on "
            "workspace buffers"
        ),
        "hashing/sparse.py::_derive_*": _ONE_TIME_TABLE,
        "hashing/sponge.py::hash_batch": (
            "The digest buffer escapes to the caller; only the fuzz "
            "cross-check calls it, the Merkle builders hash into their own "
            "buffers through hash_leaves_into"
        ),
        "ntt/transforms.py::*ntt": (
            "out=None fallback whose result escapes to the caller; the shard "
            "kernels and the LDE pass out= explicitly, and FRI inverts its "
            "small final polynomial with it once per proof"
        ),
        "fri/prover.py::combine_rows": (
            "The combined values escape to the caller (the shard kernel "
            "copies them into its row range, the verifier folds them); the "
            "ladder's limb tables are a few KB, built once a call"
        ),
        "fri/prover.py::fold_values": (
            "The folded layer escapes to the caller: it is the next "
            "layer's values, which its Merkle tree and the next fold read"
        ),
    },
    "prover.nondeterminism": {
        "parallel/pool.py::<module>": (
            "Wall clock feeds only the rebasing of worker shard spans and "
            "the liveness and close deadlines; completion order never "
            "reaches proof bytes (disjoint writes, id-keyed assembly)"
        ),
        "plonk/prover.py::prove": (
            "Zero-knowledge salt columns: the RNG is seeded from the "
            "caller's blinding_seed, so proofs stay replayable; None keeps "
            "the prover fully deterministic"
        ),
    },
    "prover.into-aliasing-doc": {},
    "prover.workspace-arg": {},
    "prover.transcript": {},
}

_MODULI = frozenset({"P", "PRIME", "MODULUS"})
_ALLOCATORS = frozenset(
    {
        "zeros",
        "empty",
        "ones",
        "array",
        "full",
        "zeros_like",
        "empty_like",
        "ones_like",
        "full_like",
    }
)
_NONDET_MODULES = frozenset({"time", "random", "secrets"})
#: Challenger methods that absorb or squeeze the transcript.
_TRANSCRIPT_CALL = re.compile(r"observe_\w*|get_\w*challenge\w*")


class Hit(NamedTuple):
    """One rule violation: ``where`` is ``path::qualname``."""

    rule: str
    where: str
    line: int
    detail: str


def _is_np(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


class _Rules(ast.NodeVisitor):
    """One walk of a module, applying every rule in scope for its path."""

    def __init__(self, path: str, tree: ast.AST):
        self.path = path
        self.rules = {rule for rule, applies in SCOPES.items() if applies(path)}
        self.stack: list[str] = []
        self.hits: list[Hit] = []
        #: Names the module passes to ``.plan(slot, shape, build)``.
        self.plan_builders = {
            node.args[2].id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "plan"
            and len(node.args) >= 3
            and isinstance(node.args[2], ast.Name)
        }

    def report(self, rule: str, node: ast.AST, detail: str) -> None:
        if rule in self.rules:
            qualname = ".".join(self.stack) or "<module>"
            self.hits.append(Hit(rule, f"{self.path}::{qualname}", node.lineno, detail))

    def visit_ClassDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        args = [a.arg for a in node.args.args + node.args.kwonlyargs]
        if (
            node.name.endswith("_into")
            and any(a == "out" or a.startswith("out_") for a in args)
            and "alias" not in (ast.get_docstring(node) or "").lower()
        ):
            self.report("prover.into-aliasing-doc", node, node.name)
        owner = self.stack[-2] if node.name == "__init__" and len(self.stack) > 1 else node.name
        if owner not in self.plan_builders:
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            for param in params:
                annotation = ast.unparse(param.annotation) if param.annotation else ""
                if param.arg == "ws" or "Workspace" in annotation:
                    self.report("prover.workspace-arg", node, param.arg)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_BinOp(self, node):
        modulus = node.right
        name = getattr(modulus, "id", None) or getattr(modulus, "attr", None)
        if isinstance(node.op, ast.Mod) and name in _MODULI:
            self.report("prover.raw-mod", node, f"% {ast.unparse(modulus)}")
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _ALLOCATORS
            and _is_np(func.value)
        ):
            self.report("prover.hot-alloc", node, f"np.{func.attr}")
        name = getattr(func, "attr", None) or getattr(func, "id", None)
        if name == "CapBinding" or (
            isinstance(func, ast.Attribute) and _TRANSCRIPT_CALL.fullmatch(name)
        ):
            self.report("prover.transcript", node, name)
        self.generic_visit(node)

    def visit_Import(self, node):
        for alias in node.names:
            self._imported(node, alias.name)

    def visit_ImportFrom(self, node):
        self._imported(node, node.module or "")

    def _imported(self, node, module: str) -> None:
        root = module.partition(".")[0]
        if root in _NONDET_MODULES:
            self.report("prover.nondeterminism", node, f"import {root}")

    def visit_Attribute(self, node):
        if node.attr == "random" and _is_np(node.value):
            self.report("prover.nondeterminism", node, "np.random")
        self.generic_visit(node)


def check(path: str, source: str) -> list[Hit]:
    """Every rule violation in one module; ``path`` is package-relative
    and decides which rules apply."""
    tree = ast.parse(source, filename=path)
    walk = _Rules(path, tree)
    walk.visit(tree)
    return walk.hits


def _scopes(path: str, source: str) -> set[str]:
    """``path::qualname`` of the module and of every class or function
    in it."""
    scopes = {f"{path}::<module>"}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.add(f"{path}::{prefix}{child.name}")
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return scopes


def verdict(allowed: dict[str, dict[str, str]]) -> list[str]:
    """Every problem with the package against ``allowed``: a finding no
    entry names, an entry naming no finding, an entry without a reason,
    or an entry not confined to a proper part of one module."""
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }
    hits = [hit for path, source in sources.items() for hit in check(path, source)]
    problems = [
        f"{hit.rule}: {hit.where} (line {hit.line}, {hit.detail})"
        for hit in hits
        if not any(
            fnmatch.fnmatchcase(hit.where, pattern) for pattern in allowed.get(hit.rule, {})
        )
    ]
    for rule, entries in sorted(allowed.items()):
        for pattern, reason in sorted(entries.items()):
            path = pattern.partition("::")[0]
            if not reason.strip():
                problems.append(f"allow-list entry without a reason ({rule}): {pattern}")
            if path not in sources:
                problems.append(f"allow-list entry names no module ({rule}): {pattern}")
            elif all(fnmatch.fnmatchcase(s, pattern) for s in _scopes(path, sources[path])):
                problems.append(f"allow-list entry covers a whole file ({rule}): {pattern}")
            elif not any(
                hit.rule == rule and fnmatch.fnmatchcase(hit.where, pattern) for hit in hits
            ):
                problems.append(f"stale allow-list entry ({rule}): {pattern}")
    return problems


def test_the_package_keeps_its_source_rules():
    problems = verdict(ALLOWED)
    assert not problems, "\n".join(problems)


def test_allow_list_is_short():
    assert set(ALLOWED) == set(SCOPES)
    assert ALLOWED["prover.raw-mod"] == {}
    assert sum(len(entries) for entries in ALLOWED.values()) <= 12


def test_a_stale_allow_list_entry_fails():
    planted = {
        **ALLOWED,
        "prover.raw-mod": {
            "stark/poseidon_air.py::generate_trace": "reduced through gl.canonical",
            "stark/not_a_module.py::f": "never defined",
        },
    }
    assert verdict(planted) == [
        "allow-list entry names no module (prover.raw-mod): stark/not_a_module.py::f",
        "stale allow-list entry (prover.raw-mod): stark/poseidon_air.py::generate_trace",
    ]


def test_an_allow_list_entry_without_a_reason_fails():
    planted = {**ALLOWED, "prover.nondeterminism": {**ALLOWED["prover.nondeterminism"]}}
    planted["prover.nondeterminism"]["plonk/prover.py::prove"] = "  "
    assert verdict(planted) == [
        "allow-list entry without a reason (prover.nondeterminism): plonk/prover.py::prove"
    ]


def test_a_whole_file_or_directory_entry_fails():
    planted = {**ALLOWED, "prover.hot-alloc": {**ALLOWED["prover.hot-alloc"]}}
    planted["prover.hot-alloc"]["hashing/sponge.py::*"] = "every allocation in it"
    planted["prover.hot-alloc"]["hashing/*::permute"] = "every permute under hashing/"
    assert verdict(planted) == [
        "allow-list entry names no module (prover.hot-alloc): hashing/*::permute",
        "allow-list entry covers a whole file (prover.hot-alloc): hashing/sponge.py::*",
    ]


def test_an_unlisted_finding_fails():
    planted = {**ALLOWED, "prover.hot-alloc": {**ALLOWED["prover.hot-alloc"]}}
    del planted["prover.hot-alloc"]["hashing/sponge.py::hash_batch"]
    (problem,) = verdict(planted)
    assert problem.startswith("prover.hot-alloc: hashing/sponge.py::hash_batch (line ")
    assert problem.endswith(", np.empty)")


# -- each rule on a positive and a negative fixture ----------------------------


class TestRuleFixtures:
    def test_raw_mod(self):
        src = "def f(x):\n    return x % P\n"
        (hit,) = check("stark/foo.py", src)
        assert hit == Hit("prover.raw-mod", "stark/foo.py::f", 2, "% P")
        # Attribute moduli are caught too.
        (hit,) = check("stark/foo.py", "y = x % gl.P\n")
        assert (hit.where, hit.detail) == ("stark/foo.py::<module>", "% gl.P")
        # field/ modules own raw reduction; literals are not moduli.
        assert check("field/foo.py", src) == []
        assert check("stark/foo.py", "y = x % 7\n") == []

    def test_hot_alloc(self):
        src = "import numpy as np\ndef f():\n    return np.zeros(4)\n"
        (hit,) = check("ntt/foo.py", src)
        assert hit == Hit("prover.hot-alloc", "ntt/foo.py::f", 3, "np.zeros")
        # Only hot-path modules are in scope; workspace draws are fine.
        assert check("sim/foo.py", src) == []
        assert check("ntt/foo.py", "def f():\n    return RUN.workspace.temp((4,), 'slot')\n") == []

    def test_nondeterminism(self):
        (hit,) = check("stark/foo.py", "import time\n")
        assert (hit.rule, hit.detail) == ("prover.nondeterminism", "import time")
        (hit,) = check("plonk/foo.py", "from random import random\n")
        assert hit.detail == "import random"
        (hit,) = check("fri/foo.py", "def f(np):\n    return np.random.default_rng(0)\n")
        assert (hit.where, hit.detail) == ("fri/foo.py::f", "np.random")
        # Outside the proving path, timing code is fine.
        assert check("experiments/foo.py", "import time\n") == []

    def test_into_aliasing_doc(self):
        bare = 'def add_into(a, out):\n    """Add."""\n    return out\n'
        (hit,) = check("field/foo.py", bare)
        assert hit.rule == "prover.into-aliasing-doc"
        assert (hit.where, hit.detail) == ("field/foo.py::add_into", "add_into")
        documented = bare.replace("Add.", "Add; out may alias a.")
        assert check("field/foo.py", documented) == []
        assert check("field/foo.py", "def fan_into(a, b):\n    return a\n") == []

    def test_workspace_arg(self):
        (hit,) = check("ntt/foo.py", "def f(a, ws=None):\n    return a\n")
        assert hit == Hit("prover.workspace-arg", "ntt/foo.py::f", 1, "ws")
        annotated = "class C:\n    def g(self, *, arena: 'gl64.Workspace | None'):\n        pass\n"
        (hit,) = check("sim/foo.py", annotated)
        assert (hit.where, hit.detail) == ("sim/foo.py::C.g", "arena")
        # Plan builders -- a function or a class handed to .plan() -- are
        # given the arena; reading RUN.workspace takes no argument.
        builders = (
            "def _lanes(ws: Workspace, shape):\n    return ws.temp(shape, 's')\n"
            "class _Scratch:\n    def __init__(self, ws, rows):\n        pass\n"
            "def kernel(a):\n"
            "    RUN.workspace.plan('s', a.shape, _lanes)\n"
            "    return RUN.workspace.plan('t', 8, _Scratch)\n"
        )
        assert check("field/foo.py", builders) == []

    def test_transcript(self):
        (hit,) = check("stark/prover.py", "def prove(ch):\n    ch.observe_cap(cap)\n")
        assert hit == Hit("prover.transcript", "stark/prover.py::prove", 2, "observe_cap")
        draws = "a = ch.get_ext_challenge()\nb = ch.get_challenge()\nc = ch.get_n_challenges(2)\n"
        assert [h.detail for h in check("plonk/verifier.py", draws)] == [
            "get_ext_challenge", "get_challenge", "get_n_challenges",
        ]
        (hit,) = check("protocols/plonk_backend.py", "b = CapBinding('z_cap', cap, 2)\n")
        assert (hit.rule, hit.detail) == ("prover.transcript", "CapBinding")
        # Stepping the declared transcript is the allowed form; the
        # declaration itself, FRI and HyperPlonk-lite are out of scope.
        assert check("stark/prover.py", "(alpha,) = commit('trace', cap)\n") == []
        assert check("pcs/protocol.py", "ch.observe_cap(cap)\n") == []
        assert check("hyperplonk/verifier.py", "ch.observe_cap(cap)\n") == []

    def test_a_finding_names_its_enclosing_qualname(self):
        src = "class C:\n    def g(self):\n        def h():\n            return x % P\n"
        (hit,) = check("stark/foo.py", src)
        assert hit.where == "stark/foo.py::C.g.h"
