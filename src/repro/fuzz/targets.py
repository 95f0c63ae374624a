"""Deterministic honest-proof targets for the soundness fuzzer.

A :class:`FuzzTarget` bundles everything one mutation iteration needs:
the honest serialized proof, a *second* honest proof (for splicing
mutators), and decode / encode / verify callables whose error behaviour
is the thing under test.  Targets are built once per process and
cached -- every byte of ``blob`` is deterministic, which is what makes
seeded findings replayable across runs and processes.

Target blobs are *tagged proof blobs* (magic + format version +
protocol tag, see :func:`repro.serialize.proof_to_blob`), the same
framing the proving service ships, so byte-level mutants exercise the
envelope parser alongside the per-protocol codec.  The protocol list
is the :mod:`repro.protocols` registry itself: each backend's
``fuzz_target()`` returns one of the targets built here, and
:func:`target_for` just asks it.

The proofs are deliberately tiny (scaled-down FRI parameters, small
traces): a fuzz campaign spends its budget on *mutations*, not on
proving.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

from ..errors import VerifierError
from ..fri import FriConfig
from ..hyperplonk import HyperPlonkConfig
from ..hyperplonk import prove as hp_prove, setup as hp_setup, verify as hp_verify
from ..plonk import CircuitBuilder
from ..plonk import prove as plonk_prove, setup as plonk_setup, verify as plonk_verify
from ..plonk.protocol import PLONK
from ..protocols import get as get_protocol
from ..serialize import proof_from_blob, proof_to_blob
from ..stark import prove as stark_prove, verify as stark_verify
from ..stark.protocol import stark
from ..workloads import by_name

#: Exception types that constitute a *valid* rejection of a hostile
#: proof.  Anything else escaping decode or verify -- ``IndexError``,
#: ``ZeroDivisionError``, ``MemoryError``, ... -- would kill a service
#: worker and is reported as a finding, exactly like an accept.
#: ``ProofFormatError`` (bad blob framing) is a ``ValueError``;
#: :class:`~repro.errors.VerifierError` is the base of exactly
#: ``FriError`` / ``StarkError`` / ``PlonkError`` / ``HyperPlonkError``.
TYPED_REJECTIONS: Tuple[type, ...] = (ValueError, VerifierError)


#: Both FRI targets commit a fold layer wider than a pair (the STARK
#: target one by 8, its ``alt_blob`` one by 8 and one by 4; Plonk one
#: by 4), so every coset-leaf mutator applies to both.  The STARK
#: target's batches commit 8-row coset leaves (a virtual first layer;
#: the ``alt_blob``'s 4-row ones); Plonk's commit 2-row coset leaves,
#: a virtual fold by 2 ahead of its committed fold by 4.
_STARK_CONFIG = FriConfig(
    rate_bits=1, cap_height=1, num_queries=4, proof_of_work_bits=2, final_poly_len=1
)
_PLONK_CONFIG = FriConfig(
    rate_bits=3, cap_height=1, num_queries=4, proof_of_work_bits=2, final_poly_len=1
)
_HYPERPLONK_CONFIG = HyperPlonkConfig(cap_height=1, num_queries=4)


@dataclass(frozen=True)
class FuzzTarget:
    """One protocol's honest proof plus its decode/verify surface."""

    protocol: str
    blob: bytes  # honest serialized proof (tagged blob)
    alt_blob: bytes  # a second, structurally different honest proof
    decode: Callable[[bytes], object]
    encode: Callable[[object], bytes]
    run_verify: Callable[[object], None]  # raises a typed error to reject
    proof_format: str = "uzkp-v1"  # blob framing, for artifacts
    #: Public columns of each committed FRI batch, in commitment order
    #: (the protocol's ``fri_layout`` input; empty without FRI).
    leaf_widths: Tuple[int, ...] = ()


def _target(protocol: str, proof, alt_proof, run_verify, leaf_widths=()) -> FuzzTarget:
    """Frame two honest proofs as ``protocol``'s target (tagged blobs)."""

    def decode(data: bytes):
        _, decoded = proof_from_blob(data, expected_protocol=protocol)
        return decoded

    def encode(p) -> bytes:
        return proof_to_blob(protocol, p)

    run_verify(proof)  # sanity: the honest proof must pass
    return FuzzTarget(
        protocol=protocol,
        # Format versions are per protocol, so artifacts record the
        # protocol's own rather than one constant.
        proof_format=f"uzkp-v{get_protocol(protocol).format_version}",
        blob=encode(proof),
        alt_blob=encode(alt_proof),
        decode=decode,
        encode=encode,
        run_verify=run_verify,
        leaf_widths=tuple(leaf_widths),
    )


def _cube_circuit():
    """The tiny shared circuit (``pub == x**3``) for plonkish targets."""
    b = CircuitBuilder()
    x = b.add_variable()
    pub = b.public_input()
    b.assert_equal(pub, b.mul(b.mul(x, x), x))
    return b.build(), x, pub


@lru_cache(maxsize=1)
def stark_target() -> FuzzTarget:
    """Fibonacci STARK target (two scales, so splices cross shapes)."""
    spec = by_name("Fibonacci")
    air, trace, publics = spec.build_air(6)
    proof = stark_prove(air, trace, publics, _STARK_CONFIG)
    alt_air, alt_trace, alt_publics = spec.build_air(7)
    alt_proof = stark_prove(alt_air, alt_trace, alt_publics, _STARK_CONFIG)
    return _target(
        "stark", proof, alt_proof,
        lambda p: stark_verify(air, len(trace), publics, p, _STARK_CONFIG), stark(air).widths,
    )


@lru_cache(maxsize=1)
def plonk_target() -> FuzzTarget:
    """Tiny Plonk circuit target (``pub == x**3``, two witnesses; the
    verifier's statement is the first's, ``pub == 27``)."""
    circuit, x, pub = _cube_circuit()
    data = plonk_setup(circuit, _PLONK_CONFIG)
    proof = plonk_prove(data, {x.index: 3, pub.index: 27})
    alt_proof = plonk_prove(data, {x.index: 5, pub.index: 125})
    return _target(
        "plonk", proof, alt_proof, lambda p: plonk_verify(data.verifier_data, [27], p), PLONK.widths
    )


@lru_cache(maxsize=1)
def hyperplonk_target() -> FuzzTarget:
    """Sumcheck-native HyperPlonk target over the same cube circuit."""
    circuit, x, pub = _cube_circuit()
    data = hp_setup(circuit, _HYPERPLONK_CONFIG)
    proof = hp_prove(data, {x.index: 3, pub.index: 27})
    alt_proof = hp_prove(data, {x.index: 5, pub.index: 125})
    return _target(
        "hyperplonk", proof, alt_proof, lambda p: hp_verify(data.verifier_data, [27], p)
    )


def target_for(protocol: str) -> FuzzTarget:
    """The registered backend's target (built on first use)."""
    return get_protocol(protocol).fuzz_target()
