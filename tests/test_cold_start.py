"""A fresh prover derives and imports only what proving needs.

A Fibonacci STARK and Plonk prove plus verify in a new interpreter,
and two STARK proves through the CLI after them, must leave the sparse
HADES factorisation (``sparse.optimized_params``, the Poseidon AIR's and
the in-circuit gadget's form) underived, and must not import the
accelerator model (``repro.hw``, ``repro.mapping``,
``repro.compiler``) or any analysis layer but the race check the shard
pool runs on each graph.  Before the CLI runs they must not have
loaded ``argparse`` either.  A first STARK prove builds exactly the
FRI fold tables its schedule folds with.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent.parent

#: Packages and modules a prove or verify must not load.
NOT_LOADED = (
    "repro.hw",
    "repro.mapping",
    "repro.compiler",
    "repro.analysis.sanitizer",
    "repro.analysis.schedules",
    "repro.analysis.transcript",
    "repro.analysis.runner",
)

_PROVE = """
import json, sys
from repro.hashing import sparse
from repro.protocols import get
from repro.workloads import by_name

for name, scale in (("stark", 6), ("plonk", 4)):
    system = get(name)
    setup = system.setup(by_name("Fibonacci"), scale, system.make_config())
    system.verify(setup, system.prove(setup))
parsers = sorted(m for m in ("argparse", "gettext") if m in sys.modules)

from repro.cli import main
argv = ["prove", "--protocol", "stark", "--workload", "Fibonacci", "--scale", "12"]
assert main(argv) == 0 and main(argv) == 0
print(json.dumps({
    "sparse_tables": sparse.optimized_params.cache_info().currsize,
    "modules": sorted(m for m in sys.modules if m.startswith("repro.")),
    "parsers_before_cli": parsers,
}))
"""


def _run(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_a_fresh_prove_and_verify_derive_and_import_only_what_they_use():
    got = _run(_PROVE)
    assert got["sparse_tables"] == 0
    assert got["parsers_before_cli"] == []
    under = tuple(p + "." for p in NOT_LOADED)
    assert [m for m in got["modules"] if m in NOT_LOADED or m.startswith(under)] == []
    # The shard pool did run its race check, on the light import.
    assert "repro.analysis.races" in got["modules"]


_FIRST_STARK_PROVE = """
import json
from repro.field import goldilocks as gl
from repro.fri import fri_layout, prover as fri
from repro.protocols import get
from repro.stark.protocol import stark
from repro.workloads import by_name

system = get("stark")
config = system.make_config()
setup = system.setup(by_name("Fibonacci"), 12, config)
system.prove(setup)
built = [fri.fold_tables.cache_info(), fri.fold_weights.cache_info()]

# The schedule's folds: one table per one-step fold, one weight vector
# per arity-2 step of a chained fold (fri.prover.fold_values).
_, schedule = fri_layout(config, 12, stark(setup.data[0]).widths)
log_n, shift, tables, weights = 12 + config.rate_bits, gl.coset_shift(), [], []
for bits in schedule:
    if bits >= 2 and 1 << log_n >= fri._FOLD_GEMM_VALUES:
        tables.append((log_n, shift, bits))
    else:
        weights += [(log_n - k, gl.pow_mod(shift, 1 << k)) for k in range(bits)]
    log_n, shift = log_n - bits, gl.pow_mod(shift, 1 << bits)
for key in tables:
    fri.fold_tables(*key)
for key in weights:
    fri.fold_weights(*key)
after = [fri.fold_tables.cache_info(), fri.fold_weights.cache_info()]
print(json.dumps({
    "built": [info.currsize for info in built],
    "schedule": [len(tables), len(weights)],
    "rebuilt": [a.misses - b.misses for a, b in zip(after, built)],
}))
"""


def test_a_first_prove_builds_only_the_fold_tables_it_folds_with():
    """STARK Fibonacci 2^12 at the default config folds with three
    one-step tables and one arity-2 weight vector; a fresh interpreter
    holds exactly those after one prove."""
    got = _run(_FIRST_STARK_PROVE)
    assert got == {"built": [3, 1], "schedule": [3, 1], "rebuilt": [0, 0]}
