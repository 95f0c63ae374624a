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
    "stark": "35cd88cb0103fd840bbc97ec9bf9634c7679e11c115f8162db92796ea6906f31",
    "plonk": "8be2da00b6375d5b2502c4eb807ed90948e3caa0d54bf14b4df63b3509dc320b",
    "hyperplonk": "d52bd70ef17c57099b692406f5271cdf364953d3aabbd3e8c06a7336e49a801c",
}

#: The STARK proof with ``initial_arity_bits`` forced to 0 (row leaves,
#: FRI layer 0 committed): exactly the digest ``DIGESTS["stark"]`` held
#: before the virtual first layer, so the coset layout extends the old
#: prover rather than replacing it.
ROW_LAYOUT_DIGESTS = {
    "stark": "a62cef3e1c242e042c9bfba9b40a76b1539481113f17b87877d1af0711b3ac71",
}

#: The same STARK and Plonk proofs with row leaves and
#: ``fri.config.FRI_ARITY_BITS`` forced to 1 (one layer per arity-2
#: fold): exactly the digests these entries held before the fold-by-8
#: schedule, so the schedule generalises the old prover rather than
#: replacing it.
ARITY2_DIGESTS = {
    "stark": "111c298a5fab5dd1368bbf070f5c9379ad28c1e1f2a671244cdeeb7d12d2dd22",
    "plonk": "96ef6472f512d48f2a64904b7d528ea83ba62f1ca3c5b5fa0eb49a54b65b5a17",
}

#: Plonk over the MVM workload at scale 6, same config.
PLONK_MVM_DIGEST = "0ddac549b214b5a4bf1adf124d3da2b67bb83d133bba2f32d771ce6252ecc461"

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
#: hash exactly what walking every path alone would.
VERIFY_COUNTERS = {
    "stark": {"sponge_permutations": 120, "challenger_permutations": 10},
    "plonk": {"sponge_permutations": 248, "challenger_permutations": 15},
    "hyperplonk": {"sponge_permutations": 64, "challenger_permutations": 13},
}

#: sha256 of ``proof_to_blob`` and of the service result envelope.
FRAMED = {
    "stark": (
        "09925a60635b2f7e78096a9045abbdbe0b8b9e423ecead3722b1123a262beadc",
        "b5b4a8ab9626ff4b5e659fd45fe3127ba578dde9ef2e3314d491454731a32488",
    ),
    "plonk": (
        "2e5fd8cc54ed0a869893ccd872bdeb732b6bb877c929e2aed6a3709d34030605",
        "7d5a60dcf97415bd08d78ee514cde4856d5a631a75cfde0577e3dc8c61680055",
    ),
    "hyperplonk": (
        "9b90d5ce1826c31e85f425439f884f3ed77aeffcc9156da5ffcabb2e9951aa6a",
        "7f3ec9d3d2874f02b92f45c3327152920a619f56c579421de61df96afb9587d2",
    ),
}
