"""The protocol-backend interface.

A :class:`ProofSystem` is the one description of a registered proving
protocol (STARK, Plonk, HyperPlonk-lite): its config knobs, how to
build a setup, prove and verify, its proof-body codec and format
version, and its fuzz target.  The CLI (``repro prove --protocol``),
the proving service (job kinds, ``<name>-proof`` envelopes), the
tagged-blob framing in :mod:`repro.serialize` and the soundness fuzzer
all ask the registry (:mod:`repro.protocols.registry`) instead of
keeping per-protocol tables of their own, so a new backend is one
subclass plus :func:`~repro.protocols.register`.

The interface deliberately wraps the existing ``prove``/``verify``
functions rather than replacing them -- the functional modules stay the
source of truth (and keep their pinned op-counter goldens); a backend
only adapts signatures and owns the workload -> setup plumbing (a
:class:`FriSystem` also names its protocol's
:class:`~repro.pcs.protocol.FriProtocol` declaration, which gives it its
proof codec and its transcript spec).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..context import RUN, lru
from ..field import gl64
from ..fri import fri_layout
from ..pcs.protocol import FriProtocol, Proof
from .transcript import CapBinding, TranscriptSpec

#: Per-thread instance-cache capacity (``RUN.instances``, LRU).
INSTANCE_CACHE_CAP = 16


def instance(key, build: Callable[[], Any]) -> Any:
    """This thread's cached instance under ``key``, made by ``build()``
    on a miss.  ``key`` names exactly what ``build`` reads; the result
    is shared by every later setup under it, so it must be read-only.
    """
    return lru(RUN.instances, key, INSTANCE_CACHE_CAP, build)[0]


def circuit_instance(workload, scale: int):
    """The cached ``(circuit, inputs, publics)`` of ``workload.build_circuit(scale)``,
    arrays read-only, inputs a read-only mapping and publics a tuple."""

    def build():
        circuit, inputs, publics = workload.build_circuit(scale)
        gl64.freeze(circuit.selectors, circuit.wire_vars, circuit.sigma)
        return circuit, MappingProxyType(inputs), tuple(publics)

    return instance(("circuit", workload, scale), build)


@dataclass
class ProtocolSetup:
    """One proved instance: workload + scale bound to a backend setup.

    ``data`` is backend-specific (AIR + trace for STARK, circuit setup
    artifacts + inputs for the Plonk family); callers treat it as
    opaque and hand it back to the owning :class:`ProofSystem`.
    ``publics`` is the statement (the workload builder's public
    values): every verifier checks a proof against it.
    """

    protocol: str
    workload: str
    scale: int
    config: Any
    data: Any
    publics: Tuple[int, ...]
    #: Trace/circuit rows (display + sizing; a power of two).
    rows: int


class ProofSystem(ABC):
    """One registered proving protocol."""

    #: Registry name; also the proof-blob protocol tag, the job kind and
    #: (as ``<name>-proof``) the result-envelope kind.
    name: str = "?"
    #: One-line description shown by ``repro prove --list-protocols``.
    description: str = ""
    #: A known soundness gap, printed by ``repro prove``; empty if none.
    caveat: str = ""
    #: Proof-body format version, the tagged blob's version byte; bumped
    #: when :meth:`to_bytes` changes incompatibly.
    format_version: int = 1
    #: Whether the prover's hot path runs NTTs (False for the
    #: sumcheck-native backend -- asserted by its perf gate).
    uses_ntt: bool = True

    # -- configuration ---------------------------------------------------

    @abstractmethod
    def default_config(self) -> Dict[str, int]:
        """Default config knobs as a plain dict (small/fast, NOT sound)."""

    @abstractmethod
    def config_from(self, knobs: Mapping[str, int]) -> Any:
        """Build the frozen config object from a complete knob dict."""

    def make_config(self, overrides: Optional[Mapping[str, int]] = None) -> Any:
        """Defaults + overrides -> frozen config.

        Unknown keys and values that are not plain ``int`` (``bool``
        included) are rejected here; ranges by the config object itself.
        """
        base = dict(self.default_config())
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(base)
        if unknown:
            raise ValueError(
                f"unknown {self.name} config keys: {', '.join(sorted(unknown))} "
                f"(valid: {', '.join(sorted(base))})"
            )
        for key, value in overrides.items():
            if type(value) is not int:
                raise ValueError(f"{self.name} config {key} must be an int, got {value!r}")
        base.update(overrides)
        return self.config_from(base)

    # -- proving ---------------------------------------------------------

    def supports(self, workload) -> bool:
        """Whether a :class:`~repro.workloads.WorkloadSpec` has the
        builder this backend needs."""
        return True

    @abstractmethod
    def setup(self, workload, scale: int, config: Any) -> ProtocolSetup:
        """Bind ``config`` to the instance (circuit/AIR + preprocessing),
        preprocessed once per thread (:func:`instance`) and read-only."""

    @abstractmethod
    def prove(self, setup: ProtocolSetup, pool=None, challenger=None):
        """Prove the instance.

        ``pool`` scopes a :class:`~repro.parallel.ShardPool` over the
        proof; ``None`` inherits :func:`repro.parallel.current_pool`.
        Every backend's stages are shard graphs, so the proof is
        bit-identical whichever pool runs them.  ``challenger``
        replaces the fresh Fiat-Shamir transcript (the conformance
        analyzer passes a recording one).
        """

    @abstractmethod
    def verify(self, setup: ProtocolSetup, proof, challenger=None) -> None:
        """Verify ``proof`` of the instance's statement ``setup.publics``;
        raises the backend's typed error on any failure."""

    # -- transcript conformance ------------------------------------------

    def transcript_spec(self):
        """The backend's :class:`~repro.protocols.transcript.TranscriptSpec`.

        ``None`` means the backend does not declare its transcript shape
        and the conformance analyzer reports it as unverifiable.  New
        backends should return a spec so ``repro analyze`` checks their
        Fiat-Shamir sequencing for free.
        """
        return None

    def cap_bindings(self, setup: ProtocolSetup, proof):
        """Cap-to-challenge deadlines for one proved instance.

        Returns a list of :class:`~repro.protocols.transcript.CapBinding`
        covering every commitment cap the proof (and setup) carries.
        """
        raise NotImplementedError(
            f"{self.name} backend does not declare cap bindings"
        )

    # -- serialization ---------------------------------------------------

    @abstractmethod
    def to_bytes(self, proof) -> bytes:
        """Raw canonical proof body (digests are defined over this)."""

    @abstractmethod
    def from_bytes(self, data: bytes):
        """Decode a raw proof body (typed ``ValueError`` on bad input)."""

    def digest(self, proof) -> str:
        """Hex content address of the canonical proof body."""
        return hashlib.sha256(self.to_bytes(proof)).hexdigest()

    # -- fuzzing ---------------------------------------------------------

    @abstractmethod
    def fuzz_target(self):
        """The soundness-fuzz target for this protocol (import
        :mod:`repro.fuzz.targets` lazily -- building a target proves
        small honest instances)."""


class FriSystem(ProofSystem):
    """A backend over the FRI PCS: its proof codec, analyzer spec and
    cap bindings are read from its protocol's declaration."""

    #: The declaration whose round names and label the codec reads (an
    #: instance's widths may differ: see :meth:`transcript`).
    protocol: FriProtocol
    #: Fibonacci scales (``setup`` units) ``repro analyze`` proves at.
    analyzed_scales: Tuple[int, ...] = ()

    @abstractmethod
    def transcript(self, setup: ProtocolSetup) -> Tuple[FriProtocol, tuple]:
        """The instance's declaration and its setup batches' caps."""

    def transcript_spec(self) -> TranscriptSpec:
        from ..workloads import by_name

        # Few queries, minimal grinding: conformance is structural.  A
        # 4-coefficient final polynomial keeps a committed FRI layer at
        # the small analyzed scales.
        overrides = dict(num_queries=2, proof_of_work_bits=1, final_poly_len=4)
        first = self.setup(by_name("Fibonacci"), self.analyzed_scales[0], self.make_config(overrides))
        setup_caps = len(self.transcript(first)[0].setup)
        return TranscriptSpec("Fibonacci", self.analyzed_scales, overrides, setup_caps)

    def cap_bindings(self, setup: ProtocolSetup, proof: Proof):
        """Each cap's deadline, counted from the declared draws (an
        extension challenge takes two): setup caps bind challenge 0, a
        round's cap the first one after the rounds before it.  FRI then
        draws alpha and, under a virtual first layer, its beta; each
        committed layer's cap precedes its own beta."""
        protocol, setup_caps = self.transcript(setup)
        bindings = [CapBinding(f"{r.name}_cap", cap, 0) for r, cap in zip(protocol.setup, setup_caps)]
        draws = 0
        for round_, cap in zip(protocol.rounds, proof.caps):
            bindings.append(CapBinding(f"{round_.name}_cap", cap, draws))
            draws += len(round_.base) + 2 * len(round_.ext)
        virtual, _ = fri_layout(setup.config, setup.rows.bit_length() - 1, protocol.widths)
        first = draws + (4 if virtual else 2)
        for k, cap in enumerate(proof.fri_proof.commit_caps):
            bindings.append(CapBinding(f"fri.commit_caps[{k}]", cap, first + 2 * k))
        return bindings

    def to_bytes(self, proof: Proof) -> bytes:
        return proof.to_bytes()

    def from_bytes(self, data) -> Proof:
        return Proof.from_bytes(data, self.protocol)
