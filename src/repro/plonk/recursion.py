"""Recursive verification building blocks.

Recursive aggregation (paper Sections 2.2, 7.4) expresses a verifier as
a circuit.  Two pieces make that possible and both live here:

* :class:`CircuitChallenger` -- the duplex Fiat-Shamir transcript as a
  circuit gadget, mirroring :class:`repro.hashing.Challenger` exactly:
  with the same observations, the squeezed in-circuit challenge's
  witness value equals the native challenge.  This is what lets a
  circuit re-derive an inner proof's randomness.
* :func:`verify_sumcheck_in_circuit` -- a complete in-circuit verifier
  for the sum-check protocol (Algorithm 2), including the final
  multilinear-extension evaluation when the table is public.  Sum-check
  is the verification core of the Spartan/Binius/Basefold family the
  paper's Section 8.1 targets, and its verifier is small enough to
  recurse exactly.

A full in-circuit FRI verifier composes these same pieces (transcript +
Merkle gadgets from :mod:`repro.plonk.gadgets` + field arithmetic) and
is a matter of circuit size, not new machinery; the fixed-shape
recursion circuit of the performance model (``RECURSION_PARAMS``)
accounts for it with Plonky2's wide custom gates.
"""

from __future__ import annotations

from typing import List, Sequence

from ..field import goldilocks as gl
from ..hashing.constants import WIDTH
from ..hashing.sponge import RATE
from .circuit import CircuitBuilder, Variable
from .gadgets import poseidon_permutation


class CircuitChallenger:
    """The duplex challenger as a circuit gadget.

    Mirrors :class:`repro.hashing.Challenger` operation for operation:
    observations buffer until a full rate chunk (or a squeeze) forces a
    permutation; challenges pop from the rate lanes in the same order.
    """

    def __init__(self, builder: CircuitBuilder, **round_kwargs) -> None:
        self._builder = builder
        self._round_kwargs = round_kwargs
        zero = builder.constant(0)
        self._state: List[Variable] = [zero] * WIDTH
        self._input_buffer: List[Variable] = []
        self._output_buffer: List[Variable] = []

    def observe(self, value: Variable) -> None:
        """Absorb one circuit variable."""
        self._output_buffer.clear()
        self._input_buffer.append(value)
        if len(self._input_buffer) == RATE:
            self._duplex()

    def get_challenge(self) -> Variable:
        """Squeeze one challenge variable."""
        if self._input_buffer or not self._output_buffer:
            self._duplex()
        return self._output_buffer.pop()

    def _duplex(self) -> None:
        for i, v in enumerate(self._input_buffer):
            self._state[i] = v
        self._input_buffer.clear()
        self._state = poseidon_permutation(
            self._builder, self._state, **self._round_kwargs
        )
        self._output_buffer = list(self._state[:RATE])[::-1]


def verify_sumcheck_in_circuit(
    builder: CircuitBuilder,
    claimed_sum: Variable,
    round_values: Sequence[Sequence[Variable]],
    final_value: Variable,
    table: Sequence[Variable] | None = None,
    **round_kwargs,
) -> List[Variable]:
    """Constrain a complete sum-check verification inside a circuit.

    ``round_values[k] = (y0, y1)`` are the prover's per-round messages;
    the gadget re-derives every Fiat-Shamir challenge with
    :class:`CircuitChallenger`, enforces the running-claim consistency
    ``y0 + y1 == expected`` each round, folds
    ``expected' = y0 (1 - r) + y1 r``, and pins the last claim to
    ``final_value``.  If ``table`` (the public multilinear table,
    ``2**rounds`` variables) is given, the gadget additionally evaluates
    the multilinear extension at the challenge point in-circuit and
    constrains it to equal ``final_value`` -- making the verification
    complete with no outside oracle.

    Returns the challenge-point variables.
    """
    challenger = CircuitChallenger(builder, **round_kwargs)
    challenger.observe(claimed_sum)
    expected = claimed_sum
    one = builder.constant(1)
    point: List[Variable] = []
    for y0, y1 in round_values:
        total = builder.add(y0, y1)
        builder.assert_equal(total, expected)
        challenger.observe(y0)
        challenger.observe(y1)
        r = challenger.get_challenge()
        point.append(r)
        one_minus_r = builder.sub(one, r)
        left = builder.mul(y0, one_minus_r)
        right = builder.mul(y1, r)
        expected = builder.add(left, right)
    builder.assert_equal(expected, final_value)

    if table is not None:
        if len(table) != 1 << len(round_values):
            raise ValueError("table size must be 2**rounds")
        folded = list(table)
        for r in point:
            one_minus_r = builder.sub(one, r)
            half = len(folded) // 2
            folded = [
                builder.add(
                    builder.mul(folded[i], one_minus_r),
                    builder.mul(folded[half + i], r),
                )
                for i in range(half)
            ]
        builder.assert_equal(folded[0], final_value)
    return point


def build_sumcheck_verifier_circuit(num_vars: int, **round_kwargs):
    """Build a circuit verifying a sum-check proof over a public table.

    Returns ``(circuit, handles)`` where ``handles`` maps the proof
    fields to input variables: fill them from a
    :class:`repro.sumcheck.SumcheckProof` plus the table values, and the
    witness satisfies the circuit iff the proof verifies.
    """
    builder = CircuitBuilder()
    claimed = builder.add_variable()
    rounds = [(builder.add_variable(), builder.add_variable()) for _ in range(num_vars)]
    final = builder.add_variable()
    table = [builder.add_variable() for _ in range(1 << num_vars)]
    verify_sumcheck_in_circuit(
        builder, claimed, rounds, final, table=table, **round_kwargs
    )
    circuit = builder.build()
    handles = {
        "claimed": claimed,
        "rounds": rounds,
        "final": final,
        "table": table,
    }
    return circuit, handles


def sumcheck_proof_inputs(handles, proof, table_values) -> dict:
    """Map a native sum-check proof onto the verifier circuit's inputs."""
    inputs = {handles["claimed"].index: proof.claimed_sum}
    for (y0v, y1v), (y0, y1) in zip(handles["rounds"], proof.round_values):
        inputs[y0v.index] = y0
        inputs[y1v.index] = y1
    inputs[handles["final"].index] = proof.final_value
    for var, val in zip(handles["table"], table_values):
        inputs[var.index] = gl.canonical(int(val))
    return inputs
