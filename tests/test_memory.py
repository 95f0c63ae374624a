"""A fresh prover's memory: one workspace, slots that do not regrow.

A new interpreter proves and verifies STARK Fibonacci 2^16 rows, then
Plonk MVM 11 and HyperPlonk-lite MVM 45.  A workspace keeps one buffer
per slot whatever the shapes it serves, and every kernel and stage
buffer of a prove lives in the thread's one workspace: exactly one live
``Workspace`` may hold bytes, the smaller proves may add slots for roles
the STARK prove has not got (Plonk's wires and Z, the sumcheck levels)
but must not grow a slot it already holds, and the peak RSS (about
120 MiB) stays under :data:`PEAK_RSS_MIB`, below what one buffer a
shape would take.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent.parent

PEAK_RSS_MIB = 200

_PROVE = """
import gc, json, resource
from repro import protocols
from repro.context import Workspace
from repro.workloads import by_name

def holding():
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, Workspace) and o.nbytes()]

seen = []
for name, workload, scale in (("stark", "Fibonacci", 16), ("plonk", "MVM", 11),
                              ("hyperplonk", "MVM", 45)):
    system = protocols.get(name)
    setup = system.setup(by_name(workload), scale, system.make_config())
    system.verify(setup, system.prove(setup))  # raises on any failure
    arenas = holding()
    slots = {repr(key): buf.nbytes for key, buf in arenas[0]._bases.items()} if arenas else {}
    seen.append({"name": name, "holding": len(arenas), "slots": slots})
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"proves": seen, "peak_mib": peak}))
"""


def test_three_proves_hold_one_workspace_and_stay_under_the_rss_cap():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _PROVE],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    got = json.loads(out.stdout.splitlines()[-1])
    first = got["proves"][0]["slots"]
    for prove in got["proves"]:
        assert prove["holding"] == 1, prove["name"]
        grown = [key for key, size in first.items() if prove["slots"][key] != size]
        assert grown == [], f"{prove['name']} grew slots of the STARK prove: {grown}"
    assert got["peak_mib"] <= PEAK_RSS_MIB, got["peak_mib"]
