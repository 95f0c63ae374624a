"""Every pinned proof digest and operation count, in one table.

The instance is ``WORKLOADS[name]`` (Fibonacci, MVM for Plonk) at scale
6 under each protocol's registry default config
(``protocols.get(name).make_config()``, spelled out below).  Only the tests import these -- ``test_parallel.py`` among them
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
still folds (then ``ARITY2_WORKLOADS``, now ``WORKLOADS``).  The STARK and HyperPlonk-lite
entries held.  When the STARK proof stopped sending its trace length
(format v7: its verifier takes ``n`` from its instance), the STARK
``DIGESTS``, ``ROW_LAYOUT_DIGESTS``, ``ARITY2_DIGESTS`` and both
``FRAMED`` entries were regenerated: each body is the old one without
its 4-byte degree word; ``LAYOUTS`` and the counters held, and every
Plonk and HyperPlonk-lite entry held.  When a proof stopped sending its
public inputs (STARK format v8, Plonk v6, HyperPlonk-lite v4: every
verifier takes its statement from its instance) and the Plonk golden
instance moved from Fibonacci to MVM scale 6, which folds
(``WORKLOADS``), every digest and framing entry was regenerated once
(``DIGESTS``, ``ROW_LAYOUT_DIGESTS``, ``ARITY2_DIGESTS``, ``FRAMED``, all
three protocols; ``PLONK_MVM_DIGEST`` became ``DIGESTS["plonk"]`` and
the Plonk Fibonacci instance is pinned as ``PLONK_FIBONACCI_DIGEST``):
each body is the old one without its public-input count word and
words, and the transcript did not move.  The Plonk ``LAYOUTS``,
``PROVE_COUNTERS`` and ``VERIFY_COUNTERS`` entries are MVM 6's, equal to
what that instance counted before; every STARK and HyperPlonk-lite
layout and counter held.  When the Plonk quotient stopped committing
its fourth chunk, which is zero (Plonk format v7: 3 chunks a limb, the
degree-4 blend's, from ``pcs.FriPCS.quotient_shape``), and both
provers began evaluating their constraints on the smallest coset that
holds the quotient, every Plonk digest and framing entry
(``DIGESTS``, ``ARITY2_DIGESTS``, ``PLONK_FIBONACCI_DIGEST``,
``FRAMED``) and the Plonk ``PROVE_COUNTERS`` and ``VERIFY_COUNTERS``
were regenerated once: the quotient cap, ``zeta`` and every query
position moved, so the verifier's shared paths (and its permutation
count) moved with them.  ``LAYOUTS`` held, and every STARK and
HyperPlonk-lite entry held but the STARK ``ntt_butterflies``: the
quotient's coset iNTT is half as long.  Counters are measured around
``prove`` or ``verify`` alone, setup excluded.
"""

from repro.fri.config import FriConfig
from repro.hyperplonk import HyperPlonkConfig

SCALE = 6

#: The workload of each protocol's golden instance: one whose registry
#: default folds (the Plonk Fibonacci instance folds zero times).
WORKLOADS = {"stark": "Fibonacci", "plonk": "MVM", "hyperplonk": "Fibonacci"}

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
    "stark": "5187d2b28418d37db2dcf647a977ea0a01e5348256145e58678a2e6580210a9c",
    "plonk": "6535bb768fea231ed0236ad89c2bd0f443985fdb20156d1b167b7f98eeff7949",
    "hyperplonk": "e3cf08f0507aeb484370387aae9e3ea9b7a08c40b9ef53296add6c892c165419",
}

#: ``fri.fri_layout``'s ``(a, schedule)`` for the STARK and Plonk
#: instances: ``a``-bit coset leaves (0: rows), then the fold schedule.
LAYOUTS = {
    "stark": (2, (2, 2)),
    "plonk": (1, (1, 2)),
}

#: The STARK proof with ``fri_layout`` forced to ``a = 0`` (row leaves,
#: FRI layer 0 committed): exactly the digest ``DIGESTS["stark"]`` held
#: before the virtual first layer (both re-pinned together with each
#: later encoding change), so the coset layout extends the old prover
#: rather than replacing it.
ROW_LAYOUT_DIGESTS = {
    "stark": "ab684b2f2642327fc269c0ccc83a11fb73c9afeaac91f642e9c0f10a4264aa38",
}

#: The STARK and Plonk golden instances' proofs with
#: row leaves and ``fri.config.FRI_ARITY_BITS`` forced to 1 (one layer
#: per arity-2 fold).  The STARK entry is exactly the digest its
#: instance held before the fold-by-8 schedule (re-pinned with each
#: later encoding change), so the schedule generalises the old prover
#: rather than replacing it.
ARITY2_DIGESTS = {
    "stark": "82b74225fc4b7e7d1c7f84060a3c7903780778b30bf68880e1aab8b4e2d6e3d1",
    "plonk": "ad926cdf0758465e6ecf2f4b9225bbaa692bc508170c6ca0e09449e0bf66f59c",
}

#: Plonk over the Fibonacci workload at scale 6, same config: the
#: instance that commits row leaves and folds zero times.
PLONK_FIBONACCI_DIGEST = "3468c08cba0d14e532fcbbc39bdf1276b19cdaa3ea7c9b223fc296a5fae43735"

#: Operation counters around ``prove``.
PROVE_COUNTERS = {
    "stark": {"ntt_butterflies": 2584, "sponge_permutations": 138, "ntt_transforms": 10},
    "plonk": {
        "ntt_butterflies": 61248,
        "sponge_permutations": 3320,
        "challenger_permutations": 22,
        "ntt_transforms": 20,
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
    "plonk": {"sponge_permutations": 284, "challenger_permutations": 17},
    "hyperplonk": {"sponge_permutations": 64, "challenger_permutations": 13},
}

#: sha256 of ``proof_to_blob`` and of the service result envelope.
FRAMED = {
    "stark": (
        "786633f8a828c88b449e75c00e21c16dffb5f3e99d044f5c2cf06430b06aff12",
        "330763326a6873a39ad54b87de15f4e44fb0f50de9db365523524009e58ad17d",
    ),
    "plonk": (
        "01f6ae53b6d6f628088046667de9aeb9cabe925745a029dadad5108c7b4368bd",
        "7ec754407ed3671215738cdcdd77eaf1781488b2a5f28ff85560de225fe1b0a4",
    ),
    "hyperplonk": (
        "f6302b0a786c1c88f2f7303d9c8ff1aa82a02a5b245d94d574e63371ad7cefee",
        "cabea382f3eaf7feb02f916fefa21c4cc87cfd83e51c0e8eb24cc8e853c863d0",
    ),
}
