"""The four benchmark workloads and why each one is here.

Proving instances are fixed by ``(workload, scale)``: the seed never
changes what is proved, so op counts and proof bytes are exact across
seeds.  The seed only orders the ``service_mix`` job stream, picks the
flipped byte and draws the random operands of the layer probes.

The ``why`` strings quote shares measured at these shapes by the traced
pass (README.md "Measured mix" has the runs); README.md "Sizing" says
which shapes are the issue's and which are one notch below, and why.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Tuple

#: Floor on timed (serial, sharded) prove pairs however short
#: ``--seconds`` is.
MIN_PAIRS = 5

#: name -> prover workload.
PROVER_WORKLOADS: Dict[str, Dict[str, Any]] = {
    "stark_fib_4k": {
        "protocol": "stark",
        "instance": "Fibonacci",
        "scale": 12,
        "smoke_scale": 6,
        "rows": 4096,
        "why": (
            "STARK Fibonacci AIR, 4096 rows, blow-up 2. Measured: FRI stage ~37 % of prove, the largest of any "
            "workload (commit ~62 %); Poseidon ~71 %, NTT <1 %. A FRI fold or query change must show here."
        ),
    },
    "plonk_mvm_512": {
        "protocol": "plonk",
        "instance": "MVM",
        "scale": 11,
        "smoke_scale": 2,
        "rows": 512,
        "why": (
            "Plonk (the paper's Plonky2 shape), MVM 11x11, 512 rows, 8x LDE, 22 NTTs a prove. Measured: commit "
            "~72 % of prove, FRI ~27 %; Poseidon ~79 %, NTT ~1 % (the most of any workload); setup() 0.9 s."
        ),
    },
    "hyperplonk_mvm_8k": {
        "protocol": "hyperplonk",
        "instance": "MVM",
        "scale": 45,
        "smoke_scale": 2,
        "rows": 8192,
        "why": (
            "HyperPlonk-lite, MVM 45x45, 8192 rows: zero NTTs, no FRI. Measured: Poseidon ~92 % of prove (commit "
            "~64 %, sumcheck ~34 %). Bypass for ntt/fri changes, purest hashing/merkle signal; setup() 1.5 s."
        ),
    },
}

#: ``service_mix``: five small shapes, the size of job where queueing,
#: IPC, the codec and the caches are a visible share of latency (~7 %
#: measured; the rest is still the prove), chosen so a cold job costs
#: 0.3-0.7 s on every one: a median over a mix of very unequal shapes
#: is a sample of whichever shape sits in the middle.
#: An odd count, so that middle is a shape and not a gap between two.
SERVICE_SHAPES: List[Tuple[str, str, int]] = [
    ("stark", "Fibonacci", 8),
    ("stark", "Fibonacci", 10),
    ("plonk", "MVM", 6),
    ("plonk", "Fibonacci", 64),
    ("hyperplonk", "MVM", 16),
]
SMOKE_SERVICE_SHAPES: List[Tuple[str, str, int]] = [
    ("stark", "Fibonacci", 5),
    ("plonk", "Fibonacci", 8),
    ("hyperplonk", "MVM", 2),
]

SERVICE_MIX: Dict[str, Any] = {
    "workers": 2,
    "clients": 2,
    #: Config variants per shape; each is a distinct spec *and* a
    #: distinct executor setup-cache key.
    "variants": 11,
    #: Submissions of every distinct spec (1 cold + 2 duplicates).
    "repeats": 3,
    "min_blocks": 2,
    "why": (
        "ProvingService(workers=2), closed loop, 2 clients, 5 small shapes x 11 config variants, each spec sent "
        "3x. Measured: ~57 % proof-cache hits (0.1 ms), the rest prove ~0.7 s in a worker; overhead ~7 %."
    ),
}

WORKLOAD_NAMES = [*PROVER_WORKLOADS, "service_mix"]


def why(name: str) -> str:
    """The one-line reason a workload exists (mirrored in BENCHMARK.json)."""
    return SERVICE_MIX["why"] if name == "service_mix" else PROVER_WORKLOADS[name]["why"]


def describe(name: str, smoke: bool) -> Dict[str, Any]:
    """The workload's shape as recorded in every result file."""
    if name == "service_mix":
        shapes = SMOKE_SERVICE_SHAPES if smoke else SERVICE_SHAPES
        return {
            **{k: v for k, v in SERVICE_MIX.items() if k != "why"},
            "shapes": [list(s) for s in shapes],
            "loop": "closed",
        }
    spec = PROVER_WORKLOADS[name]
    return {
        "protocol": spec["protocol"],
        "instance": spec["instance"],
        "scale": spec["smoke_scale"] if smoke else spec["scale"],
        "rows": None if smoke else spec["rows"],
        "min_pairs": MIN_PAIRS,
        "shard_workers": 2,
    }


def service_specs(shapes: List[Tuple[str, str, int]], variant: int, base_queries: Dict[str, int]) -> List[Dict[str, Any]]:
    """One spec per shape for config variant ``variant``.

    Variant 0 is each backend's default config (the warm-up jobs).
    Variant ``k`` adds ``k % 4`` queries and ``k // 4`` to the cap
    height: a new cache key and a new setup-cache key for all but the
    same work (queries cost the verifier, so they stay within +3).
    """
    return [
        {
            "workload": workload,
            "kind": kind,
            "scale": scale,
            "config": (
                {"num_queries": base_queries[kind] + variant % 4, "cap_height": 1 + variant // 4}
                if variant else {}
            ),
            "params": {},
        }
        for kind, workload, scale in shapes
    ]


def service_blocks(
    shapes: List[Tuple[str, str, int]], seed: int, base_queries: Dict[str, int]
) -> Iterator[List[Dict[str, Any]]]:
    """The seeded job stream, one block at a time.

    A block is every shape at one variant, each spec ``repeats`` times,
    shuffled.  Whole blocks keep the mix of shapes and the 1-cold :
    2-duplicate ratio the same however far a run gets in its
    ``--seconds``; the seed picks which variant each block uses and the
    order inside it.
    """
    rng = random.Random(seed)
    variants = list(range(1, SERVICE_MIX["variants"] + 1))
    rng.shuffle(variants)
    for variant in variants:
        block = service_specs(shapes, variant, base_queries) * SERVICE_MIX["repeats"]
        rng.shuffle(block)
        yield block
