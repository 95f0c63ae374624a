"""Per-backend Fiat-Shamir transcript declarations for the analyzer.

A :class:`TranscriptSpec` is a backend's declaration of its transcript
*shape*: which workload/scales to drive it at for conformance checking,
how many setup-time caps precede the public inputs, and -- the heart of
the soundness argument -- which commitment caps must be bound into the
transcript **before** which challenge ordinal (:class:`CapBinding`).
A FRI backend counts both from its protocol's one declaration, a
:class:`~repro.pcs.protocol.FriProtocol`.

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
from typing import Mapping, Tuple

import numpy as np


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
