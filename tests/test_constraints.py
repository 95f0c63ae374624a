"""Plonk's one constraint definition, and cheating provers refused at zeta.

``repro.plonk.protocol.constraints`` is the only statement of Plonk's
gate and copy constraints: the Plonk prover and verifier and
HyperPlonk-lite's prover and verifier all evaluate it.  Here it is
checked over the subgroup against the independent oracles
``Circuit.check_gates`` and ``check_copy_constraints`` on every
registered Plonk workload.  Then a cheating Plonk prover -- the real
prover fed a wire matrix that breaks exactly one constraint -- must be
refused by the unpatched verifier at the identity, with the typed error
and its message (the STARK cheaters are in ``test_stark.py``), and the
shared verifier tail refuses a ``zeta`` inside the subgroup.
"""

import numpy as np
import pytest

from repro.errors import VerifierError
from repro.field import extension as fext, goldilocks as gl
from repro.field.algebra import BaseVecAlgebra
from repro.hashing import Challenger
from repro.plonk import Circuit, PlonkError, check_copy_constraints
from repro.plonk.permutation import compute_z, id_values, sigma_values
from repro.plonk.protocol import constraints
from repro.protocols import get
from repro.workloads import by_name, mvm, workload_names

from .goldens import SCALE, WORKLOADS

IDENTITY = "constraint identity fails at zeta"


def _subgroup_terms(circuit, wires, publics, beta=123, gamma=456):
    """``(gate, copy, start)`` of :func:`constraints` on every subgroup
    row, ``Z`` accumulated from ``wires``."""
    n = circuit.n
    z, _, _ = compute_z(wires, id_values(n), sigma_values(circuit), beta, gamma)
    pi, l1 = np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)
    l1[0] = 1
    for row, value in zip(circuit.public_input_rows, publics, strict=True):
        pi[row] = gl.neg(value)
    return constraints(
        BaseVecAlgebra(n), [*circuit.selectors, *sigma_values(circuit)], wires,
        id_values(n), z, np.roll(z, -1), pi, l1, beta, gamma,
    )


@pytest.mark.parametrize("name", workload_names())
def test_one_definition_matches_the_oracles(name, monkeypatch):
    circuit, inputs, publics = by_name(name).build_circuit(5)
    witness = circuit.generate_witness(inputs)
    wires = circuit.wire_values(witness)
    assert circuit.check_gates(witness, publics) and check_copy_constraints(circuit, witness)
    for term in _subgroup_terms(circuit, wires, publics):
        assert not np.asarray(term).any()

    # One gate row's output wire changed: that row's gate term alone.
    row = int(np.flatnonzero(circuit.selectors[3])[0])
    bad = wires.copy()
    bad[2, row] = gl.add(int(bad[2, row]), 1)
    gate, _, _ = _subgroup_terms(circuit, bad, publics)
    assert np.flatnonzero(gate).tolist() == [row]
    monkeypatch.setattr(Circuit, "wire_values", lambda self, w: bad)
    assert not circuit.check_gates(witness, publics)


def _tampered(circuit, wires, broken):
    """The first single-position change of ``wires`` (off the public
    rows) after which ``broken(bad)`` holds."""
    for pos in range(wires.size):
        col, row = divmod(pos, circuit.n)
        if row in circuit.public_input_rows:
            continue
        bad = wires.copy()
        bad[col, row] = gl.add(int(bad[col, row]), 1)
        if broken(bad):
            return bad
    raise AssertionError("no such position")


@pytest.mark.parametrize("broken", ["gate", "copy"])
def test_plonk_cheater_refused_at_the_identity(broken, monkeypatch):
    """Plonk MVM 6 proved on a wire matrix, through a patched
    ``Circuit.wire_values``, that breaks exactly one gate (copies
    intact) or exactly one copy constraint (every gate holds)."""
    system = get("plonk")
    setup = system.setup(mvm.SPEC, 6, system.make_config())
    data, inputs = setup.data
    circuit = data.circuit
    witness = circuit.generate_witness(dict(inputs))
    honest = circuit.wire_values(witness)

    def oracles(bad):
        with monkeypatch.context() as patch:
            patch.setattr(Circuit, "wire_values", lambda self, w: bad)
            return circuit.check_gates(witness, setup.publics), check_copy_constraints(circuit, witness)

    want = (False, True) if broken == "gate" else (True, False)
    bad = _tampered(circuit, honest, lambda b: oracles(b) == want)
    if broken == "gate":
        gate, _, _ = _subgroup_terms(circuit, bad, setup.publics)
        assert len(np.flatnonzero(gate)) == 1
    monkeypatch.setattr(Circuit, "wire_values", lambda self, w: bad)
    proof = system.prove(setup)
    monkeypatch.undo()
    with pytest.raises(PlonkError, match=IDENTITY):
        system.verify(setup, proof)


@pytest.mark.parametrize("name", ["stark", "plonk"])
def test_zeta_inside_the_subgroup_is_refused(name, monkeypatch):
    """The shared tail refuses a ``zeta`` with ``Z_H(zeta) = 0`` for
    both FRI protocols, before any identity is evaluated."""
    system = get(name)
    setup = system.setup(by_name(WORKLOADS[name]), SCALE, system.make_config())
    proof = system.prove(setup)
    monkeypatch.setattr(Challenger, "get_ext_challenge", lambda self: fext.one())
    with pytest.raises(VerifierError, match=r"zeta landed inside the subgroup \(reject\)"):
        system.verify(setup, proof)
