"""Every pinned proof digest and operation count, in one table.

The instance is Fibonacci at scale 6 under each protocol's registry
default config (``protocols.get(name).make_config()``, spelled out
below).  Only the tests import these -- ``test_parallel.py`` among them
checks every pool and OpenBLAS held to one thread -- and nothing else
pins a digest or a counter.

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
Every digest and framing entry (``DIGESTS``, ``ROW_LAYOUT_DIGESTS``,
``ARITY2_DIGESTS``, ``PLONK_MVM_DIGEST``, ``FRAMED``), HyperPlonk-lite's
included, was regenerated once more when a proof stopped sending what
its verifier derives: the STARK and Plonk opening points and column
lists, and every tree opening's leaf indices (STARK format v6, Plonk
v5, HyperPlonk-lite v3).  Only the encoding changed: caps, opened
values, final polynomial, grinding witness, opened rows and path nodes
decode equal to the old proofs', at every pinned and forced layout, and
``LAYOUTS``, ``PROVE_COUNTERS`` and ``VERIFY_COUNTERS`` held.  When
``fri.fri_layout`` began taking, among the first arities within 1 % of
the smallest expected proof, the one of fewest prover permutations, and
the Plonk default's final polynomial grew from 4 to 16 coefficients,
every Plonk entry was regenerated (``DIGESTS``, ``LAYOUTS``,
``PLONK_MVM_DIGEST``, ``PROVE_COUNTERS``, ``VERIFY_COUNTERS``,
``FRAMED``): the 16-row Fibonacci instance now folds zero times, MVM
scale 6 moved from ``(1, (1, 3, 1))`` to ``(1, (1, 2))``, and
``ARITY2_DIGESTS["plonk"]`` moved to MVM scale 6, an instance that
still folds (``ARITY2_WORKLOADS``).  The STARK and HyperPlonk-lite
entries held.  When the STARK proof stopped sending its trace length
(format v7: its verifier takes ``n`` from its instance), the STARK
``DIGESTS``, ``ROW_LAYOUT_DIGESTS``, ``ARITY2_DIGESTS`` and both
``FRAMED`` entries were regenerated: each body is the old one without
its 4-byte degree word; ``LAYOUTS`` and the counters held, and every
Plonk and HyperPlonk-lite entry held.  Counters are measured around
``prove`` or ``verify`` alone, setup excluded.
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
        rate_bits=3, cap_height=1, num_queries=8, proof_of_work_bits=4, final_poly_len=16
    ),
    "hyperplonk": HyperPlonkConfig(cap_height=1, num_queries=16),
}

#: Proof digest (``system.digest``) per protocol.
DIGESTS = {
    "stark": "5dfb333407af41018d54bcde98ed2057f5aa85e27495331ac09d33a5692a82bd",
    "plonk": "af20a69c38cd17954bc2d053e1bfb3ad85b1e25408cb461f24c508499eeab6cc",
    "hyperplonk": "f9f5273ff0cb634ea6ad97834b368fefbd1bfabd7fbd99b89ce6abf34b089d82",
}

#: ``fri.fri_layout``'s ``(a, schedule)`` for the STARK and Plonk
#: instances: ``a``-bit coset leaves (0: rows), then the fold schedule.
LAYOUTS = {
    "stark": (2, (2, 2)),
    "plonk": (0, ()),
}

#: The STARK proof with ``fri_layout`` forced to ``a = 0`` (row leaves,
#: FRI layer 0 committed): exactly the digest ``DIGESTS["stark"]`` held
#: before the virtual first layer (both re-pinned together with each
#: later encoding change), so the coset layout extends the old prover
#: rather than replacing it.
ROW_LAYOUT_DIGESTS = {
    "stark": "c8952a5edfdfe0dd944a09ad55e3895aec385eebcb7bcd9beb7c2e594d1cb6d8",
}

#: The STARK and Plonk proofs of ``ARITY2_WORKLOADS`` at scale 6 with
#: row leaves and ``fri.config.FRI_ARITY_BITS`` forced to 1 (one layer
#: per arity-2 fold).  The STARK entry is exactly the digest its
#: instance held before the fold-by-8 schedule (re-pinned with each
#: later encoding change), so the schedule generalises the old prover
#: rather than replacing it.
ARITY2_DIGESTS = {
    "stark": "b93be9bd8fdc04336afd99f7b8231e6f61aeb3ea91c3a5d36c270d1c7f86444d",
    "plonk": "a46894de60c466161b8433ab0d4c57041fb3d5ef58228d5c1de5504f6d2aaf5f",
}

#: The workload each ``ARITY2_DIGESTS`` proof is of: one whose registry
#: default still folds (the Plonk Fibonacci instance folds zero times).
ARITY2_WORKLOADS = {"stark": "Fibonacci", "plonk": "MVM"}

#: Plonk over the MVM workload at scale 6, same config.
PLONK_MVM_DIGEST = "a1fdf94bcb080815114a442bf616d8dc53283bcc794867ae5c46f2856c186bae"

#: Operation counters around ``prove``.
PROVE_COUNTERS = {
    "stark": {"ntt_butterflies": 3096, "sponge_permutations": 138, "ntt_transforms": 10},
    "plonk": {
        "ntt_butterflies": 7776,
        "sponge_permutations": 506,
        "challenger_permutations": 61,
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
    "plonk": {"sponge_permutations": 140, "challenger_permutations": 17},
    "hyperplonk": {"sponge_permutations": 64, "challenger_permutations": 13},
}

#: sha256 of ``proof_to_blob`` and of the service result envelope.
FRAMED = {
    "stark": (
        "bd89e9a9bcc07c6cb4b304e486b041beb306a9133d0a134d6fceb1d747804863",
        "29b5a2fc99b895e20fc249e0e9babcec728ac59a261c610f39b96220ed6b021e",
    ),
    "plonk": (
        "1f0eacd9277ea07655601873faff5bae24806554e4ec69361f881975e052f729",
        "de8cdceeb33a0d54c53db682210364152ba544521863106b801cdd51a15b8955",
    ),
    "hyperplonk": (
        "0c8705aed96c1fd15f74be7d6585f81b1009ba4342a587576e01f11209b8b7e8",
        "4c085f36bb3d15b47605603e8290feb93b6795c3d65dd9d5dd6cfcd0595d3281",
    ),
}
