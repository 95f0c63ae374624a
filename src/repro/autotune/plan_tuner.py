"""Software-side plan tuner: wall-clock search over prover knobs.

The hardware search scores candidates on the simulator; the software
prover has no simulator, so the :class:`PlanTuner` measures real
wall-clock time (the ``prove:*`` span from :mod:`repro.tracing`,
min-of-repeats to shed scheduler noise) for each point of the
:class:`~repro.tunables.PlanTuning` space and stores the winner in the
same :class:`~repro.autotune.cache.TuningCache` under the pseudo
hardware key ``"software"``.  ``plan_for`` consults the stored winner
when building a plan (:func:`cached_tuning`), so every later proof of
that shape runs tuned.

Every knob is bit-identity-preserving by construction (see
:mod:`repro.tunables`), and the tuner *checks* that anyway: a candidate
whose proof digest differs from the default's is discarded as a bug,
never stored.

Search strategy: coordinate descent from the default point, one knob at
a time in a seeded order -- the space is tiny (tens of points), the
cost of a trial is a whole proof, and the knobs are near-independent.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import tracing
from ..tunables import DEFAULT_TUNING, PlanTuning
from .cache import SOFTWARE_HW_KEY, TuningCache, load_default_cache, plan_key

#: Values each knob may take (0 = heuristic/never; see repro.tunables).
KNOB_VALUES: Dict[str, Tuple[int, ...]] = {
    "scalar_batch_limit": (0, 4, 8, 16, 32),
    "ntt_row_block": (0, 2, 4, 8, 16, 64),
    "leaf_hash_chunk": (0, 64, 256, 1024),
}


def cached_tuning(protocol: str, n: int, rate_bits: int) -> Optional[PlanTuning]:
    """The stored plan-tuning winner for a shape, or ``None``.

    Never raises: consulted on every ``plan_for`` miss, where a broken
    cache must degrade to the heuristic defaults.
    """
    try:
        entry = load_default_cache().lookup(
            plan_key(protocol, n, rate_bits), SOFTWARE_HW_KEY
        )
        if entry is None:
            return None
        tuning = PlanTuning.from_dict(entry.get("params", {}))
        return None if tuning == DEFAULT_TUNING else tuning
    except Exception:
        return None


@dataclass
class PlanTrial:
    """One measured candidate."""

    tuning: Dict[str, int]
    seconds: float
    digest: str
    digest_ok: bool

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (report files)."""
        return {
            "tuning": dict(self.tuning),
            "seconds": self.seconds,
            "digest_ok": self.digest_ok,
        }


@dataclass
class PlanTuneReport:
    """Outcome of tuning one prover shape."""

    key: str
    default_seconds: float
    best_seconds: float
    winner: PlanTuning
    trials: List[PlanTrial] = field(default_factory=list)
    seed: int = 0

    @property
    def improved(self) -> bool:
        """True when the winner beats the default tuning's wall-clock."""
        return self.best_seconds < self.default_seconds

    @property
    def speedup(self) -> float:
        """Default/best wall-clock ratio (1.0 = no change)."""
        if self.best_seconds <= 0:
            return 1.0
        return self.default_seconds / self.best_seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (report files)."""
        return {
            "key": self.key,
            "seed": self.seed,
            "default_seconds": self.default_seconds,
            "best_seconds": self.best_seconds,
            "speedup": self.speedup,
            "improved": self.improved,
            "winner": self.winner.to_dict(),
            "trials": [t.to_dict() for t in self.trials],
        }


class PlanTuner:
    """Coordinate-descent wall-clock tuner for one prover shape.

    ``run_proof`` executes one complete proof under the ambient tunables
    context (via ``tunables.applied`` inside the prover) and returns a
    stable digest of the proof; the tuner owns applying each candidate.
    """

    def __init__(
        self,
        key: str,
        run_proof: Callable[[PlanTuning], str],
        repeats: int = 3,
        seed: int = 0,
    ) -> None:
        self.key = key
        self.run_proof = run_proof
        self.repeats = max(1, repeats)
        self.seed = seed

    def _measure(self, tuning: PlanTuning) -> Tuple[float, str]:
        """Min-of-repeats prove time (seconds) and the proof digest.

        Timed through the tracer's ``prove:*`` span when one is emitted
        (the prover's own instrumentation), falling back to the whole
        call otherwise.
        """
        best = float("inf")
        digest = ""
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            with tracing.trace() as session:
                digest = self.run_proof(tuning)
            elapsed = time.perf_counter() - t0
            prove_spans = [
                s
                for top in session.spans
                for s in top.walk()
                if s.name.startswith("prove:")
            ]
            if prove_spans:
                elapsed = sum(s.elapsed_s for s in prove_spans)
            best = min(best, elapsed)
        return best, digest

    def tune(
        self,
        cache: Optional[TuningCache] = None,
        budget_s: Optional[float] = None,
    ) -> PlanTuneReport:
        """Search the knob grid; optionally store the winner in ``cache``."""
        deadline = None if budget_s is None else time.monotonic() + budget_s
        default_s, default_digest = self._measure(DEFAULT_TUNING)
        report = PlanTuneReport(
            key=self.key,
            default_seconds=default_s,
            best_seconds=default_s,
            winner=DEFAULT_TUNING,
            seed=self.seed,
        )
        report.trials.append(
            PlanTrial(DEFAULT_TUNING.to_dict(), default_s, default_digest, True)
        )

        rng = random.Random(self.seed)
        knobs = sorted(KNOB_VALUES)
        rng.shuffle(knobs)
        current = DEFAULT_TUNING
        for knob in knobs:
            values = [v for v in KNOB_VALUES[knob] if v != getattr(current, knob)]
            rng.shuffle(values)
            for value in values:
                if deadline is not None and time.monotonic() > deadline:
                    break
                candidate = replace(current, **{knob: value})
                seconds, digest = self._measure(candidate)
                ok = digest == default_digest
                report.trials.append(
                    PlanTrial(candidate.to_dict(), seconds, digest, ok)
                )
                if ok and seconds < report.best_seconds:
                    report.best_seconds = seconds
                    report.winner = candidate
            current = report.winner

        if cache is not None:
            cache.store(
                self.key,
                SOFTWARE_HW_KEY,
                report.winner.to_dict(),
                seconds=report.best_seconds,
                meta={"seed": self.seed, "default_seconds": default_s},
            )
        return report


def tune_plan(
    protocol: str,
    workload: str,
    scale: int,
    cache: Optional[TuningCache] = None,
    repeats: int = 3,
    seed: int = 0,
    budget_s: Optional[float] = None,
) -> PlanTuneReport:
    """Tune the software prover for one ``(protocol, workload, scale)``.

    Builds the workload once, then repeatedly proves it under candidate
    tunings, comparing proof digests against the default run.  The
    winner is stored under ``plan.<protocol>/n<n>/r<rate>`` with the
    ``"software"`` hardware key.
    """
    from ..fri import FriConfig
    from ..workloads import by_name

    spec = by_name(workload)
    if protocol == "plonk":
        from ..plonk import plan as plonk_plan, prove, setup
        from ..serialize import plonk_proof_digest

        config = FriConfig(
            rate_bits=3, cap_height=1, num_queries=8,
            proof_of_work_bits=4, final_poly_len=4,
        )
        circuit, inputs, _ = spec.build_circuit(scale)
        data = setup(circuit, config)
        key = plan_key("plonk", circuit.n, config.rate_bits)

        def run(tuning: PlanTuning) -> str:
            plan = plonk_plan.plan_for(circuit.n, config.rate_bits)
            old = plan.tuning
            plan.tuning = tuning
            try:
                return plonk_proof_digest(prove(data, inputs, plan=plan))
            finally:
                plan.tuning = old

    elif protocol == "stark":
        from ..serialize import stark_proof_digest
        from ..stark import plan as stark_plan, prove

        config = FriConfig(
            rate_bits=1, cap_height=1, num_queries=10,
            proof_of_work_bits=3, final_poly_len=4,
        )
        air, trace_rows, publics = spec.build_air(scale)
        n = trace_rows.shape[0]
        key = plan_key("stark", n, config.rate_bits)

        def run(tuning: PlanTuning) -> str:
            plan = stark_plan.plan_for(n, config.rate_bits)
            old = plan.tuning
            plan.tuning = tuning
            try:
                return stark_proof_digest(
                    prove(air, trace_rows, publics, config, plan=plan)
                )
            finally:
                plan.tuning = old

    else:
        raise ValueError(f"unknown protocol {protocol!r} (stark or plonk)")

    tuner = PlanTuner(key, run, repeats=repeats, seed=seed)
    return tuner.tune(cache=cache, budget_s=budget_s)
