"""What ships is what runs: every definition under ``src/repro`` is
reached from something that runs.

A mark-and-sweep over the AST.  The roots are the CLI (``main`` and
every ``cmd_*``), every module's top-level statements other than imports
and ``__all__`` (so ``register(StarkSystem())`` and ``if __name__ ==
"__main__"`` blocks count), and the programs around the package:
``bench/``, ``examples/`` and the ``python -c`` one-liners of
``.github/workflows/ci.yml``.  Tests are not roots.

A name is resolved through the imports of the module it appears in;
``module.attr`` and ``Class.attr`` follow modules, re-exports and base
classes.  An attribute of anything else (``obj.method``, ``self.x``)
falls back to its bare name and reaches every method so named.  Once a
class is live, so are its dunders, its ``visit_*`` and ``handle``
methods (called by ``ast`` / ``socketserver`` dispatch) and its
overrides of a live base-class method.  Annotations and type aliases
reach nothing: they describe, they do not run.

Any top-level function, class or public method nothing live reaches
fails the test unless :data:`ALLOWED` names it with a reason; an
allow-list entry that is reachable again, or no longer defined, fails
it too.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent

#: Definitions kept although nothing that runs reaches them: qualified
#: name (``fnmatch`` pattern, without ``repro.``) -> the ROADMAP item,
#: reference role or public-API contract it serves.
ALLOWED: dict[str, str] = {
    "plonk.gadgets*": (
        "Parked ROADMAP item (recursive aggregation tree): the in-circuit "
        "Merkle, bit and extension-field gadgets an in-circuit FRI verifier "
        "is built from"
    ),
    "fri.config.FriConfig.conjectured_security_bits": (
        "ROADMAP item 13(ii): the one security derivation the per-protocol "
        "security_bits accounting starts from"
    ),
    "service.server.ProvingService.cancel": (
        "Public API contract: library callers cancel a queued job (the "
        "wire protocol has no cancel op)"
    ),
    "context.Workspace.nbytes": (
        "Public API contract: the bytes a workspace or shard arena holds, "
        "as docs/API.md documents it (the memory and arena tests read it)"
    ),
}

_DISPATCHED = re.compile(r"__\w+__|visit_\w+|handle")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Module:
    """One parsed file: what its names are bound to, and what it defines."""

    def __init__(self, name: str, tree: ast.Module, package: bool = False):
        self.name = name
        self.tree = tree
        here = name if package else name.rpartition(".")[0]
        #: local name -> dotted targets of every import binding it,
        #: wherever in the file the import sits
        self.imports: dict[str, set[str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else local
                    self.imports.setdefault(local, set()).add(target)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parent = here
                    for _ in range(node.level - 1):
                        parent = parent.rpartition(".")[0]
                    base = f"{parent}.{base}".rstrip(".")
                for alias in node.names:
                    self.imports.setdefault(alias.asname or alias.name, set()).add(
                        f"{base}.{alias.name}"
                    )
        self.defs = {
            node.name: node
            for node in tree.body
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef))
        }


class _Program:
    """Every definition under ``src/repro`` and how names resolve to them."""

    def __init__(self):
        self.modules: dict[str, _Module] = {}
        for path in sorted(SRC.rglob("*.py")):
            parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
            package = parts[-1] == "__init__"
            name = ".".join(parts[:-1] if package else parts)
            self.modules[name] = _Module(name, ast.parse(path.read_text()), package)
        self.defs: dict[str, ast.AST] = {}  # qualified name -> node
        self.scope: dict[str, _Module] = {}  # qualified name -> its module
        self.methods: dict[str, dict[str, str]] = {}  # class -> name -> qual
        for mod in self.modules.values():
            for name, node in mod.defs.items():
                qual = f"{mod.name}.{name}"
                self.defs[qual], self.scope[qual] = node, mod
                if isinstance(node, ast.ClassDef):
                    self.methods[qual] = {}
                    for item in node.body:
                        if isinstance(item, _FUNCTIONS):
                            method = f"{qual}.{item.name}"
                            self.methods[qual][item.name] = method
                            self.defs[method], self.scope[method] = item, mod
        self.bases: dict[str, list[str]] = {}  # class -> its package bases
        for cls in self.methods:
            self.bases[cls] = [
                q
                for base in self.defs[cls].bases
                for q in self.resolve_expr(self.scope[cls], base)
                if q in self.methods
            ]

    def resolve(self, dotted: str, depth: int = 0) -> set[str]:
        """The modules or definitions ``dotted`` may name; empty for a
        constant, an instance attribute or anything outside the package."""
        if dotted in self.modules or dotted in self.defs:
            return {dotted}
        head, _, attr = dotted.rpartition(".")
        if not head or depth > 20:
            return set()
        found = set()
        for owner in self.resolve(head, depth + 1):
            if owner in self.modules:
                if f"{owner}.{attr}" in self.modules:
                    found.add(f"{owner}.{attr}")
                for target in self.modules[owner].imports.get(attr, ()):
                    found |= self.resolve(target, depth + 1)
            elif owner in self.methods and (method := self.lookup(owner, attr)):
                found.add(method)
        return found

    def lookup(self, cls: str, attr: str) -> str | None:
        """``cls.attr`` through the base classes defined in the package."""
        if attr in self.methods[cls]:
            return self.methods[cls][attr]
        for base in self.bases.get(cls, ()):
            if found := self.lookup(base, attr):
                return found
        return None

    def resolve_name(self, mod: _Module, name: str) -> set[str]:
        """What a bare name in ``mod`` is bound to: one of its definitions,
        or its imports' targets (unresolved ones as written)."""
        if name in mod.defs:
            return {f"{mod.name}.{name}"}
        return {q for t in mod.imports.get(name, ()) for q in self.resolve(t) or {t}}

    def resolve_expr(self, mod: _Module, node: ast.AST) -> set[str]:
        if isinstance(node, ast.Name):
            return self.resolve_name(mod, node.id)
        if isinstance(node, ast.Attribute):
            return {
                q
                for owner in self.resolve_expr(mod, node.value)
                for q in self.resolve(f"{owner}.{node.attr}")
            }
        return set()

    def body_of(self, qual: str) -> list[ast.AST]:
        """What runs when ``qual`` does: a function's whole body; a class's
        header and class-level statements (its methods are their own)."""
        node = self.defs[qual]
        if not isinstance(node, ast.ClassDef):
            return [node]
        own = [*node.bases, *node.keywords, *node.decorator_list]
        for item in node.body:
            if isinstance(item, _FUNCTIONS):
                own += [*item.decorator_list, *item.args.defaults]
            else:
                own.append(item)
        return own

    def references(self, mod: _Module, nodes) -> tuple[set[str], set[str]]:
        """(definitions, bare attribute names) that ``nodes`` reference."""
        collector = _Collector(self, mod)
        for node in nodes:
            collector.visit(node)
        return collector.quals, collector.bare


class _Collector(ast.NodeVisitor):
    def __init__(self, program: _Program, mod: _Module):
        self.program = program
        self.mod = mod
        self.quals: set[str] = set()
        self.bare: set[str] = set()

    def _add(self, quals):
        for qual in quals:
            if qual in self.program.defs:
                self.quals.add(qual)
                owner = qual.rpartition(".")[0]
                if owner in self.program.methods:  # Class.method names Class
                    self.quals.add(owner)

    def visit_Name(self, node):
        self._add(self.program.resolve_name(self.mod, node.id))

    def visit_Attribute(self, node):
        chain = []
        base = node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        chain.reverse()
        owners = (
            self.program.resolve_name(self.mod, base.id)
            if isinstance(base, ast.Name)
            else set()
        )
        if not owners:  # self.x, obj.method(), f().y
            self.bare.update(chain)
            self.visit(base)
            return
        self._add(owners)
        for owner in owners:
            for i, attr in enumerate(chain):
                resolved = self.program.resolve(f"{owner}.{attr}")
                if not resolved:
                    if owner.partition(".")[0] == "repro":  # a constant's
                        self.bare.update(chain[i:])
                    break
                self._add(resolved)
                owner = next(iter(resolved))

    def visit_FunctionDef(self, node):
        for item in (*node.decorator_list, *node.args.defaults, *node.args.kw_defaults):
            if item is not None:
                self.visit(item)
        for stmt in node.body:
            self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_arg(self, node):
        pass  # an annotation

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)

    def visit_Subscript(self, node):
        owners = self.program.resolve_expr(self.mod, node.value)
        if not any(q.startswith("typing.") for q in owners):  # Union[...] etc.
            self.generic_visit(node)


def _module_roots(mod: _Module):
    """A module's top-level statements that run when it is imported."""
    for node in mod.tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.ClassDef, *_FUNCTIONS)):
            continue
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        yield node




def _outside_roots():
    """A parsed module for every program around the package."""
    paths = [*sorted((REPO / "bench").rglob("*.py")), *sorted((REPO / "examples").glob("*.py"))]
    for path in paths:
        yield _Module(path.relative_to(REPO).as_posix(), ast.parse(path.read_text()))
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    for i, snippet in enumerate(re.findall(r"python -c '([^']*)'", workflow)):
        yield _Module(f"ci.yml[{i}]", ast.parse(snippet))


def unreached(program: _Program) -> set[str]:
    """Qualified names (without ``repro.``) of every top-level function,
    class and public method nothing that runs reaches."""
    live: set[str] = set()
    bare: set[str] = set()

    def mark(quals, names=()):
        live.update(quals)
        bare.update(names)

    for mod in program.modules.values():
        mark(*program.references(mod, list(_module_roots(mod))))
    cli = program.modules["repro.cli"]
    mark({f"repro.cli.{n}" for n in cli.defs if n == "main" or n.startswith("cmd_")})
    for mod in _outside_roots():
        mark(*program.references(mod, [mod.tree]))

    scanned: set[str] = set()
    while live - scanned:
        for qual in sorted(live - scanned):
            scanned.add(qual)
            mark(*program.references(program.scope[qual], program.body_of(qual)))
        for cls, methods in program.methods.items():
            if cls not in live:
                continue
            for name, qual in methods.items():
                if _DISPATCHED.fullmatch(name) or name in bare or any(
                    program.lookup(base, name) in live for base in program.bases[cls]
                ):
                    live.add(qual)

    dead = set()
    for qual in program.defs.keys() - live:
        owner, _, name = qual.rpartition(".")
        if not (owner in program.methods and name.startswith("_")):
            dead.add(qual.removeprefix("repro."))  # private methods are their class's
    return dead


def verdict(allowed: dict[str, str]) -> list[str]:
    """Every problem with the package against ``allowed``: a definition
    nothing reaches that no entry names, or an entry naming only
    reachable definitions, or none at all."""
    program = _Program()
    dead = unreached(program)
    defined = {q.removeprefix("repro.") for q in program.defs}
    def named(pattern, quals):
        return any(fnmatch.fnmatchcase(q, pattern) for q in quals)

    problems = [
        f"unreached: {q}"
        for q in sorted(dead)
        if not any(fnmatch.fnmatchcase(q, pattern) for pattern in allowed)
    ]
    for pattern in sorted(allowed):
        if not named(pattern, defined):
            problems.append(f"stale allow-list entry (no longer defined): {pattern}")
        elif not named(pattern, dead):
            problems.append(f"stale allow-list entry (reachable): {pattern}")
    return problems


def test_what_ships_is_what_runs():
    problems = verdict(ALLOWED)
    assert not problems, "\n".join(problems)


def test_allow_list_is_short_and_justified():
    assert len(ALLOWED) <= 5
    for reason in ALLOWED.values():
        assert re.match(r"(Parked )?ROADMAP item|Public API contract", reason), reason


def test_a_stale_allow_list_entry_fails():
    planted = {
        **ALLOWED,
        "field.gl64.mul": "reachable from every prover",
        "field.gl64.not_a_kernel": "never defined",
    }
    assert verdict(planted) == [
        "stale allow-list entry (reachable): field.gl64.mul",
        "stale allow-list entry (no longer defined): field.gl64.not_a_kernel",
    ]
