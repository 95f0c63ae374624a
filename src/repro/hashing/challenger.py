"""Duplex Fiat-Shamir challenger (paper Figure 7's "Get Challenges").

The prover and verifier both run this transcript object: every message
the prover would send interactively is *observed*, and every verifier
random value is *squeezed* from the sponge state, making the protocol
non-interactive (Fiat-Shamir transform, Section 2.1 of the paper).

Mirrors Plonky2's duplex challenger: observed elements buffer until a
full rate chunk (or a squeeze) forces a permutation; squeezed elements
come from the rate part of the state.
"""

from __future__ import annotations

import numpy as np

from ..context import RUN
from ..field import extension as fext, gl64, goldilocks as gl
from . import optimized
from .constants import WIDTH
from .sponge import DIGEST_LEN, RATE


class Challenger:
    """Deterministic transcript with duplex absorb/squeeze semantics."""

    def __init__(self) -> None:
        self._state = gl64.zeros(WIDTH)
        self._input_buffer: list[int] = []
        self._output_buffer: list[int] = []

    # -- observing prover messages ----------------------------------------

    def observe_element(self, value: int) -> None:
        """Absorb one field element."""
        self._output_buffer.clear()
        self._input_buffer.append(gl.canonical(int(value)))
        if len(self._input_buffer) == RATE:
            self._duplex()

    def observe_elements(self, values) -> None:
        """Absorb a sequence of field elements."""
        for v in np.asarray(values, dtype=np.uint64).reshape(-1):
            self.observe_element(int(v))

    def observe_digest(self, digest: np.ndarray) -> None:
        """Absorb a 4-element Poseidon digest (e.g. a Merkle cap entry)."""
        digest = np.asarray(digest, dtype=np.uint64).reshape(-1)
        if digest.size != DIGEST_LEN:
            raise ValueError("digest must have 4 elements")
        self.observe_elements(digest)

    def observe_cap(self, cap: np.ndarray) -> None:
        """Absorb a Merkle cap (a (c, 4) array of digests)."""
        for digest in np.atleast_2d(np.asarray(cap, dtype=np.uint64)):
            self.observe_digest(digest)

    def clone(self) -> "Challenger":
        """Fork the transcript (used by proof-of-work grinding).

        Constructs ``type(self)()`` so subclasses fork as themselves --
        the analysis-layer recording challenger relies on this to give
        every grinding fork its own (discarded) event stream.
        """
        other = type(self)()
        other._state = self._state.copy()
        other._input_buffer = list(self._input_buffer)
        other._output_buffer = list(self._output_buffer)
        return other

    # -- squeezing verifier randomness -------------------------------------

    def get_challenge(self) -> int:
        """Squeeze one base-field challenge."""
        if self._input_buffer or not self._output_buffer:
            self._duplex()
        return self._output_buffer.pop()

    def get_n_challenges(self, n: int) -> list[int]:
        """Squeeze ``n`` base-field challenges."""
        return [self.get_challenge() for _ in range(n)]

    def get_ext_challenge(self) -> np.ndarray:
        """Squeeze one extension-field challenge (two limbs)."""
        c0 = self.get_challenge()
        c1 = self.get_challenge()
        return fext.make(c0, c1)

    def get_indices(self, n: int, domain_size: int) -> list[int]:
        """Squeeze ``n`` query indices uniform over ``[0, domain_size)``.

        Domain sizes are powers of two, so masking low bits is unbiased.
        """
        if domain_size & (domain_size - 1):
            raise ValueError("domain_size must be a power of two")
        mask = domain_size - 1
        return [self.get_challenge() & mask for _ in range(n)]

    # -- internals ----------------------------------------------------------

    def _duplex(self) -> None:
        for i, v in enumerate(self._input_buffer):
            self._state[i] = np.uint64(v)
        self._input_buffer.clear()
        RUN.counters.challenger_permutations += 1
        self._state = optimized.permute(self._state)
        self._output_buffer = [int(x) for x in self._state[:RATE]][::-1]
