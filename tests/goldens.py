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
FRI's first layer became virtual (then ``fri.initial_arity_bits``); the
Plonk entries were not, because Plonk's wider batches kept row leaves.
All STARK and Plonk entries (``DIGESTS``, ``ROW_LAYOUT_DIGESTS``,
``ARITY2_DIGESTS``, ``PLONK_MVM_DIGEST``, ``FRAMED``) were regenerated
once more when FRI stopped sending one path per query and opened each
tree once as a shared-path multiproof (STARK format v4, Plonk v3).  The
transcript did not move: caps, opened values, final polynomial,
grinding witness and every opened leaf row decode equal to the old
proofs' -- only the opening encoding changed, and with it
``VERIFY_COUNTERS`` (a node shared by several queries is hashed once).
When ``fri.fri_layout`` began picking the first arity ``a`` in
``0..3`` by the expected shared-path proof size (STARK format v5, Plonk
v4), the STARK instance moved from 8-row to 4-row coset leaves
(``LAYOUTS``) and ``DIGESTS["stark"]``, ``PLONK_MVM_DIGEST`` (Plonk MVM
6 moved from rows to 2-row cosets), the STARK ``PROVE_COUNTERS`` and
``VERIFY_COUNTERS`` and both ``FRAMED`` pairs (the version byte) were
regenerated; the Plonk Fibonacci instance keeps row leaves, so its
digest and counters held, and ``ROW_LAYOUT_DIGESTS`` and
``ARITY2_DIGESTS`` held as they must: the row path did not change.
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
    "stark": "789eaeb79bc430bbfdf1fb1d30e131bd78adbcf61c43cacd90cde99b89bc00e4",
    "plonk": "eed90ef01c8225406ba2d3b7973ac62a925ae16aec4fa7680227915a61f4c44e",
    "hyperplonk": "d52bd70ef17c57099b692406f5271cdf364953d3aabbd3e8c06a7336e49a801c",
}

#: ``fri.fri_layout``'s ``(a, schedule)`` for the STARK and Plonk
#: instances: ``a``-bit coset leaves (0: rows), then the fold schedule.
LAYOUTS = {
    "stark": (2, (2, 2)),
    "plonk": (0, (2,)),
}

#: The STARK proof with ``fri_layout`` forced to ``a = 0`` (row leaves,
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
PLONK_MVM_DIGEST = "c29bb2e26d0cd82955b54ad7f887a62387fbf00c94d3b7c57459522994a5f575"

#: Operation counters around ``prove``.
PROVE_COUNTERS = {
    "stark": {"ntt_butterflies": 3096, "sponge_permutations": 138, "ntt_transforms": 10},
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
    "stark": {"sponge_permutations": 80, "challenger_permutations": 10},
    "plonk": {"sponge_permutations": 181, "challenger_permutations": 15},
    "hyperplonk": {"sponge_permutations": 64, "challenger_permutations": 13},
}

#: sha256 of ``proof_to_blob`` and of the service result envelope.
FRAMED = {
    "stark": (
        "64fe8ab60b6d04e74190b11a6ba0e3deeef0dfffba408d86dcc22d817c64cc31",
        "5a6c5228d9d3fbf22d44f2a7972065fdf7c07e94667e256e9ecba26c83bbf992",
    ),
    "plonk": (
        "89a0d3e5be227f89eb824aad0ff9e365ace455fb847744cd552a7647f2a1fc24",
        "c73f5efe14548f75005f3d7a64d15aaa091b5dd2d0966cc15ae9d59660af821e",
    ),
    "hyperplonk": (
        "9b90d5ce1826c31e85f425439f884f3ed77aeffcc9156da5ffcabb2e9951aa6a",
        "7f3ec9d3d2874f02b92f45c3327152920a619f56c579421de61df96afb9587d2",
    ),
}
