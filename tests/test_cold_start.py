"""A fresh prover derives and imports only what proving needs.

A Fibonacci STARK and Plonk prove plus verify in a new interpreter must
leave the sparse HADES factorisation (``optimized_params``, the
hardware mapping's form) underived, and must not import the accelerator
model (``repro.hw``, ``repro.mapping``, ``repro.compiler``) or any
analysis layer but the race check the shard pool runs on each graph.
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
from repro.hashing import optimized
from repro.protocols import get
from repro.workloads import by_name

for name, scale in (("stark", 6), ("plonk", 4)):
    system = get(name)
    setup = system.setup(by_name("Fibonacci"), scale, system.make_config())
    system.verify(setup, system.prove(setup))
print(json.dumps({
    "sparse_tables": optimized.optimized_params.cache_info().currsize,
    "modules": sorted(m for m in sys.modules if m.startswith("repro.")),
}))
"""


def test_a_fresh_prove_and_verify_derive_and_import_only_what_they_use():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _PROVE], env=env, check=True, capture_output=True, text=True
    )
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["sparse_tables"] == 0
    under = tuple(p + "." for p in NOT_LOADED)
    assert [m for m in got["modules"] if m in NOT_LOADED or m.startswith(under)] == []
    # The shard pool did run its race check, on the light import.
    assert "repro.analysis.races" in got["modules"]
