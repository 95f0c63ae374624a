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
only adapts signatures and owns the workload -> setup plumbing.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional


@dataclass
class ProtocolSetup:
    """One proved instance: workload + scale bound to a backend setup.

    ``data`` is backend-specific (AIR + trace for STARK, circuit setup
    artifacts + inputs for the Plonk family); callers treat it as
    opaque and hand it back to the owning :class:`ProofSystem`.
    """

    protocol: str
    workload: str
    scale: int
    config: Any
    data: Any
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
        """Build the instance (circuit/AIR + preprocessing) to prove."""

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
        """Verify; raises the backend's typed error on any failure."""

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

    def public_inputs_of(self, setup: ProtocolSetup, proof):
        """The public-input values bound into the transcript."""
        return list(proof.public_inputs)

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
