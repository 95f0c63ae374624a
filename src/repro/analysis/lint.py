"""Layer 2: deterministic AST lint passes over ``src/repro``.

The zero-copy data plane (workspace arenas, ``*_into`` aliasing
kernels, pinned Fiat-Shamir ordering) is a set of conventions; these
passes turn them into checked invariants:

* ``prover.raw-mod`` -- ad-hoc ``% P`` / ``% gl.P`` modular reduction
  belongs in :mod:`repro.field`; everything else goes through the field
  helpers (:func:`repro.field.goldilocks.canonical`, the gl64 kernels);
* ``prover.hot-alloc`` -- hot-path modules (``ntt/``, ``hashing/``,
  ``fri/``, ``stark/prover.py``, ``plonk/prover.py``) must draw scratch
  from :class:`~repro.field.gl64.Workspace` arenas, not allocate fresh
  numpy arrays per call;
* ``prover.nondeterminism`` -- the proving path must not import or use
  ``time``/``random``/``np.random`` (proofs are transcript-seeded and
  replayable);
* ``prover.into-aliasing-doc`` -- every ``*_into`` kernel taking an
  ``out`` buffer must state its aliasing contract in the docstring
  (may/must-not alias), since callers rely on it for in-place reuse.

Passes are pure functions of the source text: deterministic, no
imports of the linted code.  :func:`lint_source` lints one module from
a string (fixture-friendly); :func:`iter_modules` walks the installed
``repro`` package in sorted order.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from .findings import LINT_RULES, Finding, check_rule_ids

#: Module prefixes (relative to the ``repro`` package root, ``/``
#: separators) whose allocations must come from Workspace arenas.
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
    "pipeline/",
    "sumcheck/",
    "parallel/",
    "hyperplonk/",
    "pcs/",
    "protocols/",
)

#: Names that look like a field modulus on the right of ``%``.
_MODULUS_NAMES = frozenset({"P", "PRIME", "MODULUS"})
#: numpy allocators that create fresh arrays.
_NP_ALLOCATORS = frozenset(
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
#: Modules whose import into the proving path is nondeterminism.
_NONDET_MODULES = frozenset({"time", "random", "secrets"})


def is_hot_path(relpath: str) -> bool:
    """Is this module (path relative to the package root) hot-path?"""
    return relpath.startswith(HOT_PATH_PREFIXES) or relpath in HOT_PATH_FILES


def is_proving_path(relpath: str) -> bool:
    """Is this module part of the deterministic proving path?"""
    return relpath.startswith(PROVING_PATH_PREFIXES)


def is_field_module(relpath: str) -> bool:
    """Is this module inside ``repro.field`` (raw ``%`` is its job)?"""
    return relpath.startswith("field/")


class _ScopedVisitor(ast.NodeVisitor):
    """AST walk tracking the enclosing function/class qualname."""

    def __init__(self) -> None:
        self.stack: List[str] = []

    @property
    def scope(self) -> Optional[str]:
        return ".".join(self.stack) if self.stack else None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


class _Pass(_ScopedVisitor):
    def __init__(self, relpath: str, lines: Optional[Sequence[str]] = None) -> None:
        super().__init__()
        self.relpath = relpath
        self.lines = lines or ()
        self.findings: List[Finding] = []

    def report(self, rule: str, node: ast.AST, detail: str, msg: str) -> None:
        line = getattr(node, "lineno", None)
        snippet = None
        if line is not None and 0 < line <= len(self.lines):
            # The fingerprint basis: the source line the finding anchors
            # to, so baselines survive line drift and scope renames.
            snippet = f"{self.relpath}::{self.lines[line - 1].strip()}"
        self.findings.append(
            Finding(
                rule=rule,
                message=msg,
                path=self.relpath,
                line=line,
                scope=self.scope,
                detail=detail,
                snippet=snippet,
            )
        )


class _RawModPass(_Pass):
    """``prover.raw-mod``: ``x % P`` outside the field modules."""

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Mod) and _is_modulus(node.right):
            self.report(
                "prover.raw-mod",
                node,
                f"% {ast.unparse(node.right)}",
                "raw modular reduction; use repro.field helpers "
                "(gl.canonical / gl64 kernels) instead",
            )
        self.generic_visit(node)


def _is_modulus(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _MODULUS_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _MODULUS_NAMES
    return False


class _HotAllocPass(_Pass):
    """``prover.hot-alloc``: fresh numpy allocations in hot modules."""

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _NP_ALLOCATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            self.report(
                "prover.hot-alloc",
                node,
                f"np.{func.attr}",
                f"fresh np.{func.attr} allocation in a hot-path module; "
                "draw scratch from a Workspace arena (or baseline with "
                "justification if the buffer escapes to the caller)",
            )
        self.generic_visit(node)


class _NondetPass(_Pass):
    """``prover.nondeterminism``: time/random in the proving path."""

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in _NONDET_MODULES:
                self.report(
                    "prover.nondeterminism",
                    node,
                    f"import {root}",
                    f"`{alias.name}` imported in the proving path; proofs "
                    "must be transcript-seeded and replayable",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root in _NONDET_MODULES:
            self.report(
                "prover.nondeterminism",
                node,
                f"import {root}",
                f"`from {node.module} import ...` in the proving path",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # np.random.* -- numpy's global or constructed RNGs.
        if (
            node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            self.report(
                "prover.nondeterminism",
                node,
                "np.random",
                "np.random used in the proving path; any randomness must "
                "be derived from the transcript (seeded, replayable)",
            )
        self.generic_visit(node)


class _IntoAliasingPass(_Pass):
    """``prover.into-aliasing-doc``: `_into` kernels must document aliasing."""

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name.endswith("_into"):
            args = [a.arg for a in node.args.args + node.args.kwonlyargs]
            if any(a == "out" or a.startswith("out_") for a in args):
                doc = ast.get_docstring(node) or ""
                if "alias" not in doc.lower():
                    self.report(
                        "prover.into-aliasing-doc",
                        node,
                        node.name,
                        f"{node.name} takes an out buffer but its docstring "
                        "does not state the aliasing contract "
                        "('out may alias ...' / 'must not alias ...')",
                    )
        super().visit_FunctionDef(node)

    visit_AsyncFunctionDef = visit_FunctionDef


def lint_source(
    relpath: str, source: str, rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint one module's source text; ``relpath`` is package-relative.

    The path decides which passes apply (hot-path, proving-path,
    field-module scoping).  Raises ``SyntaxError`` on unparsable input.
    """
    if rules is None:
        enabled = set(LINT_RULES)
    else:
        check_rule_ids(rules)
        enabled = set(rules)
    tree = ast.parse(source, filename=relpath)
    lines = source.splitlines()
    passes: List[_Pass] = []
    if "prover.raw-mod" in enabled and not is_field_module(relpath):
        passes.append(_RawModPass(relpath, lines))
    if "prover.hot-alloc" in enabled and is_hot_path(relpath):
        passes.append(_HotAllocPass(relpath, lines))
    if "prover.nondeterminism" in enabled and is_proving_path(relpath):
        passes.append(_NondetPass(relpath, lines))
    if "prover.into-aliasing-doc" in enabled:
        passes.append(_IntoAliasingPass(relpath, lines))
    findings: List[Finding] = []
    for p in passes:
        p.visit(tree)
        findings.extend(p.findings)
    return findings


def package_root() -> Path:
    """Directory of the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent


def iter_modules(root: Optional[Path] = None) -> Iterator[tuple]:
    """Yield ``(relpath, source)`` for every module, sorted."""
    root = root or package_root()
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        yield relpath, path.read_text()
