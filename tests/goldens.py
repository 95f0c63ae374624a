"""Every pinned proof digest and operation count, in one table.

The instance is Fibonacci at scale 6 under each protocol's registry
default config (``protocols.get(name).make_config()``, spelled out
below).  The tests and ``benchmarks/check_perf_counters.py`` import
these; nothing else pins a digest or a counter.

History: the STARK and Plonk entries were regenerated once when FRI
moved from committing every arity-2 fold to committing every third
(``fri.FRI_ARITY_BITS``); before that they had held from the
pre-zero-copy prover (STARK, commit f1e91fc) and the pre-unified
pipeline (Plonk, commit 56d0287).  The STARK entries were regenerated
once more when its batches began committing 8-row coset leaves and
FRI's first layer became virtual (``fri.initial_arity_bits``); the
Plonk entries were not, because Plonk's wider batches keep row leaves.
All STARK and Plonk entries (``DIGESTS``, ``ROW_LAYOUT_DIGESTS``,
``ARITY2_DIGESTS``, ``PLONK_MVM_DIGEST``, ``FRAMED``) were regenerated
once more when FRI stopped sending one path per query and opened each
tree once as a shared-path multiproof (STARK format v4, Plonk v3).  The
transcript did not move: caps, opened values, final polynomial,
grinding witness and every opened leaf row decode equal to the old
proofs' -- only the opening encoding changed, and with it
``VERIFY_COUNTERS`` (a node shared by several queries is hashed once).
The HyperPlonk-lite entries have no FRI and are unchanged since
batched-opening format v2.  Counters are measured around ``prove`` or
``verify`` alone, setup excluded.
"""

from repro.fri.config import FriConfig
from repro.hyperplonk import HyperPlonkConfig

SCALE = 6

#: Registry-default configs, per protocol.
CONFIGS = {
    "stark": FriConfig(
        rate_bits=1, cap_height=1, num_queries=10, proof_of_work_bits=3, final_poly_len=4
    ),
    "plonk": FriConfig(
        rate_bits=3, cap_height=1, num_queries=8, proof_of_work_bits=4, final_poly_len=4
    ),
    "hyperplonk": HyperPlonkConfig(cap_height=1, num_queries=16),
}

#: Proof digest (``system.digest``) per protocol.
DIGESTS = {
    "stark": "f34325b1f896256a2948070706acbea1d199502666c7e120ca0aa44c1780048d",
    "plonk": "eed90ef01c8225406ba2d3b7973ac62a925ae16aec4fa7680227915a61f4c44e",
    "hyperplonk": "d52bd70ef17c57099b692406f5271cdf364953d3aabbd3e8c06a7336e49a801c",
}

#: The STARK proof with ``initial_arity_bits`` forced to 0 (row leaves,
#: FRI layer 0 committed): exactly the digest ``DIGESTS["stark"]`` held
#: before the virtual first layer (both re-pinned together with the
#: shared-path openings), so the coset layout extends the old prover
#: rather than replacing it.
ROW_LAYOUT_DIGESTS = {
    "stark": "3883d36070aa693030700597e362215b21699adec0769a713474b4c2c16d4904",
}

#: The same STARK and Plonk proofs with row leaves and
#: ``fri.config.FRI_ARITY_BITS`` forced to 1 (one layer per arity-2
#: fold): exactly the digests these entries held before the fold-by-8
#: schedule (re-pinned with the shared-path openings), so the schedule
#: generalises the old prover rather than replacing it.
ARITY2_DIGESTS = {
    "stark": "1c158d0eeb32afbb10445d4b7db828eab002de03bab3a887c9ff7c5d942fa058",
    "plonk": "ab7552d82ca09a84692d7e6f4324b458c276cb400803fdee4d57f810b0126baf",
}

#: Plonk over the MVM workload at scale 6, same config.
PLONK_MVM_DIGEST = "631d705a3d23a2409b6874a92613cf5383f647ef411203b106e5d9df546e6803"

#: Operation counters around ``prove``.
PROVE_COUNTERS = {
    "stark": {"ntt_butterflies": 3096, "sponge_permutations": 98, "ntt_transforms": 10},
    "plonk": {
        "ntt_butterflies": 7040,
        "sponge_permutations": 568,
        "challenger_permutations": 20,
        "ntt_transforms": 22,
    },
    "hyperplonk": {
        "sponge_permutations": 36,
        "challenger_permutations": 13,
        "ntt_butterflies": 0,
        "ntt_transforms": 0,
    },
}

#: Operation counters around ``verify``: the batched verifier plane must
#: hash exactly what walking every tree opening's frontier alone would.
VERIFY_COUNTERS = {
    "stark": {"sponge_permutations": 66, "challenger_permutations": 10},
    "plonk": {"sponge_permutations": 181, "challenger_permutations": 15},
    "hyperplonk": {"sponge_permutations": 64, "challenger_permutations": 13},
}

#: sha256 of ``proof_to_blob`` and of the service result envelope.
FRAMED = {
    "stark": (
        "b368590da0cb84e43326556d1ecd64bd35f9f6339e1a067d818e537889504db4",
        "4db4e82a7f780b65816ad0cf8408836987d46f7fd58119acc5ef45d60c11d8a1",
    ),
    "plonk": (
        "5f47d55d5bc81c6bbf74597dc99d63c8d7121fa59526f05b3848efa7156f3267",
        "8652cf37b2d10d93509beffe92e19560aec04c1739790057e792a893506fee2b",
    ),
    "hyperplonk": (
        "9b90d5ce1826c31e85f425439f884f3ed77aeffcc9156da5ffcabb2e9951aa6a",
        "7f3ec9d3d2874f02b92f45c3327152920a619f56c579421de61df96afb9587d2",
    ),
}
