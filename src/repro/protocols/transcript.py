"""Per-backend Fiat-Shamir transcript declarations.

A :class:`FriProtocol` states a FRI protocol's rounds once (:data:`PLONK`,
:func:`stark`): its prover steps them, its verifier replays them in the
shared tail :meth:`FriProtocol.verify`, and its cap bindings and
setup-cap count are counted from them.

A :class:`TranscriptSpec` is a backend's declaration of its transcript
*shape*: which workload/scales to drive it at for conformance checking,
how many setup-time caps precede the public inputs, and -- the heart of
the soundness argument -- which commitment caps must be bound into the
transcript **before** which challenge ordinal (:class:`CapBinding`).

The analyzer (:mod:`repro.analysis.transcript`) records the prover's
and verifier's actual challenger interactions with a recording shim and
checks them against this declaration; the types live here (not in
``repro.analysis``) so backends can declare their specs without the
protocols package importing the analysis layer.

Challenge positions are counted in **base-challenge ordinals**: every
single squeezed base-field element advances the count by one, so an
extension challenge advances it by two and ``get_n_challenges(n)`` by
``n``.  A binding ``before_challenge=k`` asserts the cap's observation
happens before the ``k``-th base challenge (0-indexed) is drawn --
i.e. the cap is in the duplex state that produces that challenge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Mapping, Sequence, Tuple

import numpy as np

from .. import tracing
from ..field import extension as fext, gl64, goldilocks as gl
from ..fri import FriConfig, FriOpenings, fri_layout, fri_verify
from ..fri.verifier import FriError, proof_words
from ..hashing import Challenger
from ..plonk.prover import LEAF_WIDTHS, OPENING_COLUMNS, ZK_SALT_COLUMNS
from ..plonk.verifier import PlonkError
from ..stark.air import Air
from ..stark.prover import leaf_widths, opening_columns
from ..stark.verifier import StarkError

@dataclass(frozen=True)
class CapBinding:
    """One cap-to-challenge dependency the transcript must satisfy.

    ``cap`` is the cap payload as carried by the proof (or setup); the
    analyzer locates its observation event by value and checks it
    precedes base-challenge ordinal ``before_challenge``.
    """

    label: str
    cap: np.ndarray
    before_challenge: int


@dataclass(frozen=True)
class TranscriptSpec:
    """A backend's transcript-shape declaration for conformance checks.

    ``setup_caps`` counts the setup-time (preprocessed/circuit-digest)
    caps a verifier observes *before* the public inputs -- the publics
    must be the first non-setup observation, ahead of every challenge.
    """

    #: Workload driven at tiny scale (must support this backend).
    workload: str = "Fibonacci"
    #: Scales (backend ``setup`` units) exercised by the analyzer.
    scales: Tuple[int, ...] = (2, 3)
    #: Config knob overrides shrinking the instance (fewer queries,
    #: minimal grinding) -- soundness checks are structural, not
    #: statistical, so tiny parameters are fine.
    config_overrides: Mapping[str, int] = field(default_factory=dict)
    #: Caps observed before the public inputs (0 = publics first).
    setup_caps: int = 0


@dataclass(frozen=True)
class Round:
    """A committed batch (a round's cap is the proof's ``<name>_cap``)
    and the ``base``, then ``ext`` challenges drawn after its cap."""

    name: str
    width: int
    salt: int = 0
    base: Tuple[str, ...] = ()
    ext: Tuple[str, ...] = ()


@dataclass(frozen=True)
class FriProtocol:
    """The ``setup`` batches, observed before the publics, then the
    ``rounds`` -- all of them FRI's batches in that order -- with the
    opening ``columns`` at :meth:`points` and the verifier's ``error``."""

    setup: Tuple[Round, ...]
    rounds: Tuple[Round, ...]
    columns: tuple
    error: type

    def start(self, challenger: Challenger, setup_caps, publics) -> Callable[[str, np.ndarray], Tuple]:
        """Observe the setup caps and the publics; return the driver
        ``commit(name, cap)``: it observes the declared next round's cap
        (any other name raises ``ValueError``) and returns its challenges."""
        for cap in setup_caps:
            challenger.observe_cap(cap)
        challenger.observe_elements(np.asarray(list(publics), dtype=np.uint64))
        rounds = iter(self.rounds)

        def commit(name: str, cap: np.ndarray) -> Tuple:
            round_ = next(rounds, None)
            if round_ is None or round_.name != name:
                expected = repr(round_.name) if round_ else "no round"
                raise ValueError(f"{expected} is next, not {name!r}")
            challenger.observe_cap(cap)
            return tuple(challenger.get_challenge() for _ in round_.base) + tuple(
                challenger.get_ext_challenge() for _ in round_.ext
            )

        return commit

    def points(self, zeta: np.ndarray, n: int) -> List[np.ndarray]:
        """The opening points ``zeta`` and ``zeta * omega``, ``omega``
        generating the size-``n`` subgroup."""
        omega = gl.primitive_root_of_unity(n.bit_length() - 1)
        return [zeta, fext.scalar_mul(zeta, np.uint64(omega))]

    def round_caps(self, proof) -> List[np.ndarray]:
        """The caps ``proof`` carries, one a round."""
        return [getattr(proof, f"{r.name}_cap") for r in self.rounds]

    def cap_bindings(self, setup_caps, proof, config: FriConfig, degree_bits: int) -> List[CapBinding]:
        """Each cap's deadline, counted from the declared draws (an
        extension challenge takes two): setup caps bind challenge 0, a
        round's cap the first one after the rounds before it.  FRI then
        draws alpha and, under a virtual first layer, its beta; each
        committed layer's cap precedes its own beta."""
        bindings = [CapBinding(f"{r.name}_cap", cap, 0) for r, cap in zip(self.setup, setup_caps)]
        draws = 0
        for round_, cap in zip(self.rounds, self.round_caps(proof)):
            bindings.append(CapBinding(f"{round_.name}_cap", cap, draws))
            draws += len(round_.base) + 2 * len(round_.ext)
        virtual, _ = fri_layout(config, degree_bits, [r.width for r in self.setup + self.rounds])
        first = draws + (4 if virtual else 2)
        for k, cap in enumerate(proof.fri_proof.commit_caps):
            bindings.append(CapBinding(f"fri.commit_caps[{k}]", cap, first + 2 * k))
        return bindings

    def verify(
        self,
        proof,
        setup_caps: Sequence[np.ndarray],
        config: FriConfig,
        n: int,
        challenger: Challenger,
        check_identity: Callable[..., None],
    ) -> None:
        """The verifier after a protocol's own pre-check: canonical
        words before any hashing, the transcript replay, the opening
        set at :meth:`points`, ``check_identity(openings, *challenges)``,
        then FRI over the declared leaf widths.  Raises ``error``."""
        error, caps = self.error, self.round_caps(proof)
        if not gl64.all_canonical(
            proof.public_inputs, *caps, proof.opened_values, *proof_words(proof.fri_proof)
        ):
            raise error("proof word is not a canonical field element")

        with tracing.span("verify:transcript", category="verify"):
            commit = self.start(challenger, setup_caps, proof.public_inputs)
            challenges = sum((commit(r.name, cap) for r, cap in zip(self.rounds, caps)), ())

        try:
            openings = FriOpenings.from_flat(
                self.points(challenges[-1], n), self.columns, proof.opened_values
            )
        except ValueError as exc:
            raise error(str(exc)) from exc

        with tracing.span("verify:identity", category="verify"):
            check_identity(openings, *challenges)

        # A salted batch admits its bare and its salted width; any other
        # stays rejected -- that is the hash_or_noop zero-pad
        # malleability the pin exists for.
        widths = [(r.width, r.width + r.salt) if r.salt else r.width for r in self.setup + self.rounds]
        try:
            fri_verify(
                [*setup_caps, *caps], openings, proof.fri_proof, challenger, config, n,
                leaf_widths=widths,
            )
        except FriError as exc:
            raise error(f"FRI verification failed: {exc}") from exc


@lru_cache(maxsize=16)
def stark(air: Air) -> FriProtocol:
    """STARK: the publics; the trace cap, ``alpha``; the quotient cap, ``zeta``."""
    trace, quotient = leaf_widths(air)
    return FriProtocol(
        setup=(),
        rounds=(Round("trace", trace, ext=("alpha",)), Round("quotient", quotient, ext=("zeta",))),
        columns=opening_columns(air),
        error=StarkError,
    )


#: Plonk: the preprocessed cap and the publics; the wires cap (salted
#: when blinding), ``beta``, ``gamma``; the Z cap, ``alpha``; the
#: quotient cap, ``zeta``.
PLONK = FriProtocol(
    setup=(Round("preprocessed", LEAF_WIDTHS[0]),),
    rounds=(
        Round("wires", LEAF_WIDTHS[1], salt=ZK_SALT_COLUMNS, base=("beta", "gamma")),
        Round("z", LEAF_WIDTHS[2], ext=("alpha",)),
        Round("quotient", LEAF_WIDTHS[3], ext=("zeta",)),
    ),
    columns=OPENING_COLUMNS,
    error=PlonkError,
)
