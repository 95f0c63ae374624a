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
quotient's coset iNTT is half as long.  When a proof stopped sending
what its verifier folds and the shape words its reader knows (STARK
format v9, Plonk v8, HyperPlonk-lite v5: a committed FRI layer leaves
out the value each query folds from the layer below, and an array
sends its row count, plus its width only for a batch's opened rows),
every digest and framing entry was regenerated once (``DIGESTS``,
``ROW_LAYOUT_DIGESTS``, ``ARITY2_DIGESTS``, ``PLONK_FIBONACCI_DIGEST``,
``FRAMED``, all three protocols) and ``BLOB_BYTES`` was added.  The
transcript did not move: caps, opened values, final polynomial,
grinding witness, batch rows and path nodes decode equal to the old
proofs', each layer's values are its old coset rows less the folded
slots, and ``LAYOUTS``, ``PROVE_COUNTERS`` and ``VERIFY_COUNTERS``
held.  Counters are measured around ``prove`` or ``verify`` alone,
setup excluded.
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
    "stark": "1ef4afb46757db91adcdf64d93e5b338b173d801ef3fd61eeea86aa2f8028e26",
    "plonk": "06377f1ef383a5741c0e5feda5bc7490fc38682e5cb280537f12f6bed2313601",
    "hyperplonk": "eb29885ed341800cb73396d12bd2ea1f7a44380ec129dd09f920c77a184dfe4e",
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
    "stark": "cc1eb3ded0e10027a05e5f79b9604827ae1dde91a108393833a5e79dfd3cdb05",
}

#: The STARK and Plonk golden instances' proofs with
#: row leaves and ``fri.config.FRI_ARITY_BITS`` forced to 1 (one layer
#: per arity-2 fold).  The STARK entry is exactly the digest its
#: instance held before the fold-by-8 schedule (re-pinned with each
#: later encoding change), so the schedule generalises the old prover
#: rather than replacing it.
ARITY2_DIGESTS = {
    "stark": "d69d9b0a9726010e3ccc45bb7de4f0153d64d240b5da324cb49cd95a0c3d7a22",
    "plonk": "5f2d3023cf168b724913194c494849f81acf35a6c7fb2fd7e87db02f777b3b63",
}

#: Plonk over the Fibonacci workload at scale 6, same config: the
#: instance that commits row leaves and folds zero times.
PLONK_FIBONACCI_DIGEST = "020da0afc132d0e535db6bfb2855d2f2db842b7891a706eb61561ab0e3326011"

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
        "9cf4dc46d8bc6bba466b542ac20abd70d73b94b8ed31c8a06e0c2ef46bd6dc49",
        "50ef6a1a2a32640fc8aa46d622f33d8f7edb8ff99847525986ddaa02f7a8e535",
    ),
    "plonk": (
        "e4fceff157eb4c1ca934a2b7f119eb8634c3aa5219b67d3ab84f0078ff5d3573",
        "671def413d94fb26712dec6b78ae46cc6e7ae83a2ce8425f891f5b0a9d73e00f",
    ),
    "hyperplonk": (
        "d701fcf049798d0cb3e4be15dbb2ce7d64fc761e816b223260ae1403b643338f",
        "ec7863f676d4dd2f4a7862c0395d6b8e15a163d4a877be59dd9d2aff486774a7",
    ),
}

#: ``len(proof_to_blob(...))`` of each bench prover shape and each
#: service warm-up shape (``bench/workloads.py``), ``(protocol, workload, scale)``, under the
#: registry defaults: a change to what a proof carries shows here as a
#: diff.
BLOB_BYTES = {
    ("stark", "Fibonacci", 12): 9682,
    ("plonk", "MVM", 11): 14182,
    ("hyperplonk", "MVM", 45): 54851,
    ("stark", "Fibonacci", 8): 5018,
    ("stark", "Fibonacci", 10): 7334,
    ("plonk", "MVM", 6): 10214,
    ("plonk", "Fibonacci", 64): 8278,
    ("hyperplonk", "MVM", 16): 25311,
}
