"""A FRI protocol's one declaration, its proof and the proof's codec.

A :class:`FriProtocol` states a FRI protocol's rounds once
(:data:`repro.stark.protocol.STARK`, :data:`repro.plonk.protocol.PLONK`):
its prover steps them and ends in :meth:`FriProtocol.finish`, its
verifier replays them in the mirror tail :meth:`FriProtocol.verify`,
and everything a proof's shape depends on --
the caps it carries, the columns it opens, the leaf widths FRI pins --
is read from them.  A :class:`Proof` carries one cap a declared round
and nothing its verifier can derive: no opening points, column lists,
leaf indices, trace length or public inputs (the statement is the
verifier's, from its instance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .. import tracing
from ..field import extension as fext, gl64, goldilocks as gl
from ..fri import FriConfig, FriOpenings, FriProof, fri_verify
from ..fri.verifier import FriError, proof_words
from ..hashing import Challenger
from ..merkle.multiproof import array_bytes
from ..serialize import ByteReader, ByteWriter, read_cap, read_fri_proof, write_fri_proof
from .fri import FriPCS


@dataclass(frozen=True)
class Round:
    """A committed batch of ``width`` public columns (plus ``salt``
    when blinding) and the ``base``, then ``ext`` challenges drawn
    after its cap; ``at_next`` batches are also opened at
    ``zeta * omega``."""

    name: str
    width: int
    salt: int = 0
    base: Tuple[str, ...] = ()
    ext: Tuple[str, ...] = ()
    at_next: bool = False


@dataclass(frozen=True)
class FriProtocol:
    """The ``setup`` batches, observed before the publics, then the
    ``rounds`` -- all of them FRI's batches in that order, the last the
    quotient's (:meth:`FriPCS.commit_quotient`) -- and the verifier's
    ``error``; ``name`` labels the proof in codec errors."""

    name: str
    setup: Tuple[Round, ...]
    rounds: Tuple[Round, ...]
    error: type

    @property
    def widths(self) -> Tuple[int, ...]:
        """Public columns of each batch, in commitment order: the input
        to :func:`~repro.fri.config.fri_layout`."""
        return tuple(r.width for r in self.setup + self.rounds)

    @property
    def columns(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """The ``(batch, column)`` pairs opened at :meth:`points`: every
        public column of every batch at ``zeta``, then every column of
        each ``at_next`` batch at ``zeta * omega``."""
        batches = list(enumerate(self.setup + self.rounds))
        at_zeta = tuple((b, c) for b, r in batches for c in range(r.width))
        at_next = tuple((b, c) for b, r in batches if r.at_next for c in range(r.width))
        return at_zeta, at_next

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

    def finish(
        self, pcs: FriPCS, commit, quotient: np.ndarray, n: int, challenger: Challenger
    ) -> "Proof":
        """The prover's tail, :meth:`verify`'s mirror: commit the
        ``quotient`` coset evaluation at the declared width under the
        layout of the batches before it, step ``commit`` to ``zeta``,
        open :attr:`columns` at :meth:`points` and prove them."""
        chunks = self.rounds[-1].width // 2
        batch = pcs.commit_quotient(quotient, n, chunks, coset_bits=pcs.batches[-1].coset_bits)
        (zeta,) = commit("quotient", batch.cap)
        openings, fri_proof = pcs.open_and_prove(self.points(zeta, n), self.columns, challenger)
        caps = [b.cap.copy() for b in pcs.batches[len(self.setup):]]
        return Proof(caps=caps, opened_values=openings.flat_values(), fri_proof=fri_proof)

    def verify(
        self,
        proof: "Proof",
        setup_caps: Sequence[np.ndarray],
        publics: Sequence[int],
        config: FriConfig,
        n: int,
        challenger: Challenger,
        identity: Callable[..., np.ndarray],
    ) -> None:
        """The verifier of an ``n``-row instance with statement
        ``publics``: one cap a round, canonical statement and proof
        words before any hashing, the transcript replay, the opening
        set at :meth:`points`, the constraint identity at ``zeta``, then
        FRI over the declared leaf widths.  Raises ``error``.

        ``identity(at_zeta, at_next, zh, *challenges)`` returns the
        constraint blend from the openings at ``zeta`` (one array a
        batch), at ``zeta * omega`` and ``zh = Z_H(zeta)``: the quotient
        there."""
        error, caps = self.error, proof.caps
        if len(caps) != len(self.rounds):
            raise error("wrong number of round caps")
        if not gl64.all_canonical(publics):
            raise error("public input is not a canonical field element")
        if not gl64.all_canonical(*caps, proof.opened_values, *proof_words(proof.fri_proof)):
            raise error("proof word is not a canonical field element")

        with tracing.span("verify:transcript", category="verify"):
            commit = self.start(challenger, setup_caps, publics)
            challenges = sum((commit(r.name, cap) for r, cap in zip(self.rounds, caps)), ())

        zeta = challenges[-1]
        try:
            openings = FriOpenings.from_flat(self.points(zeta, n), self.columns, proof.opened_values)
        except ValueError as exc:
            raise error(str(exc)) from exc

        with tracing.span("verify:identity", category="verify"):
            zeta_n = fext.pow_scalar(zeta, n)
            zh = fext.sub(zeta_n, fext.one())
            if bool(fext.is_zero(zh)):
                raise error("zeta landed inside the subgroup (reject)")
            at_zeta, at_next = openings.values
            at_zeta = np.split(at_zeta, np.cumsum(self.widths)[:-1])
            blended = identity(at_zeta, at_next, zh, *challenges)
            if not np.array_equal(blended, FriPCS.quotient_at(at_zeta[-1], zeta_n)):
                raise error("constraint identity fails at zeta")

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


@dataclass
class Proof:
    """A FRI protocol's proof: ``caps``, one a declared round in order,
    the opening set's
    :meth:`~repro.fri.FriOpenings.flat_values` -- one ``(c0, c1)`` row
    per column of :attr:`FriProtocol.columns`, at ``zeta`` then at
    ``zeta * omega`` -- and the FRI proof."""

    caps: List[np.ndarray]
    opened_values: np.ndarray  # (k, 2)
    fri_proof: FriProof

    def size_bytes(self) -> int:
        """Serialized proof size, ``len(self.to_bytes())``: caps, opened
        values, FRI proof."""
        arrays = sum(array_bytes(arr) for arr in (*self.caps, self.opened_values))
        return arrays + self.fri_proof.size_bytes()

    def to_bytes(self) -> bytes:
        """Raw canonical proof body (digests are defined over this)."""
        w = ByteWriter()
        for cap in self.caps:
            w.elems(cap, 4)
        w.elems(self.opened_values, 2)
        write_fri_proof(w, self.fri_proof)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes, protocol: FriProtocol) -> "Proof":
        """Decode a raw ``protocol`` proof body (typed ``ValueError`` on
        bad input)."""
        r = ByteReader(data)
        caps = [read_cap(r, f"{round_.name} cap") for round_ in protocol.rounds]
        opened_values = r.elems(2, "opened values")
        fri_proof = read_fri_proof(r)
        if not r.done():
            raise ValueError(f"trailing bytes after {protocol.name} proof")
        return cls(caps=caps, opened_values=opened_values, fri_proof=fri_proof)
