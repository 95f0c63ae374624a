"""The quotient rule is tight and sufficient on every shipped instance.

:meth:`repro.pcs.FriPCS.quotient_shape` sizes a quotient from its
constraint degree: ``chunks`` degree-``n`` chunks a limb, evaluated on
a ``2**bits * n``-point coset.  For every shipped STARK AIR and both
Plonk instances, at each ``rate_bits <= 3`` the protocol admits, the
blend the prover hands to ``commit_quotient`` is read back:

* tight -- the top committed chunk is not identically zero, so no
  chunk is committed for nothing;
* sufficient -- the same blend evaluated on the whole LDE coset (the
  rule's ``bits`` forced to ``rate_bits``) has no nonzero coefficient
  past ``chunks * n``, and its first ``2**bits * n`` coefficients are
  the ones the prover interpolates from the smaller coset.

Each prove stops at the quotient commit, so no FRI runs.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro import plonk, stark
from repro.fri import FriConfig
from repro.ntt import coset_intt_ext
from repro.pcs import FriPCS
from repro.plonk.protocol import CONSTRAINT_DEGREE
from repro.stark import PoseidonAir
from repro.stark.poseidon_air import generate_trace, public_values
from repro.workloads import by_name


class _Captured(Exception):
    """Stops a prove at its quotient commit, carrying the blend."""


def _poseidon(_scale):
    state = list(range(1, 13))
    return PoseidonAir(num_perms=1), generate_trace(state, 1), public_values(state, 1)


#: Every shipped STARK AIR: its builder and a small scale.
STARK_AIRS = {
    "Fibonacci": (by_name("Fibonacci").build_air, 5),
    "Factorial": (by_name("Factorial").build_air, 5),
    "MVM": (by_name("MVM").build_air, 5),
    "SHA-256": (by_name("SHA-256").build_air, 4),
    "Poseidon": (_poseidon, 0),
}
#: Both Plonk instances the service mix proves: workload and scale.
PLONK_CIRCUITS = {"MVM": 6, "Fibonacci": 64}


@lru_cache(maxsize=None)
def _instance(kind, name):
    """``(constraint degree, prove(config))`` of a shipped instance."""
    if kind == "stark":
        build, scale = STARK_AIRS[name]
        air, trace, publics = build(scale)
        return air.constraint_degree, lambda config: stark.prove(air, trace, publics, config)
    circuit, inputs, _ = by_name(name).build_circuit(PLONK_CIRCUITS[name])
    return CONSTRAINT_DEGREE, lambda config: plonk.prove(plonk.setup(circuit, config), inputs)


def _cases():
    """Every instance at each ``rate_bits <= 3`` its quotient fits."""
    for kind, names in (("stark", STARK_AIRS), ("plonk", PLONK_CIRCUITS)):
        for name in names:
            chunks, _ = FriPCS.quotient_shape(_instance(kind, name)[0])
            for rate_bits in (1, 2, 3):
                if chunks <= 1 << rate_bits:
                    yield pytest.param(kind, name, rate_bits, id=f"{kind}-{name}-r{rate_bits}")


def _blend(run, rate_bits, monkeypatch):
    """``(coefficients a limb, n, chunks)`` of the blend ``run`` commits."""

    def capture(self, ext_values, n, chunks, label="quotient", coset_bits=0):
        raise _Captured(np.array(ext_values), n, chunks)

    monkeypatch.setattr(FriPCS, "commit_quotient", capture)
    config = FriConfig(rate_bits=rate_bits, cap_height=1, num_queries=2, proof_of_work_bits=0, final_poly_len=4)
    with pytest.raises(_Captured) as caught:
        run(config)
    ext_values, n, chunks = caught.value.args
    return coset_intt_ext(ext_values).T, n, chunks


@pytest.mark.parametrize("kind, name, rate_bits", list(_cases()))
def test_quotient_rule_is_tight_and_sufficient(kind, name, rate_bits, monkeypatch):
    degree, run = _instance(kind, name)
    want_chunks, bits = FriPCS.quotient_shape(degree)

    coeffs, n, chunks = _blend(run, rate_bits, monkeypatch)
    assert chunks == want_chunks
    top = coeffs[:, (chunks - 1) * n : chunks * n]
    assert top.any(), f"quotient chunk {chunks - 1} of {chunks} is zero"
    assert coeffs.shape == (2, n << bits)

    rule = FriPCS.quotient_shape
    monkeypatch.setattr(FriPCS, "quotient_shape", staticmethod(lambda d: (rule(d)[0], rate_bits)))
    whole, _, _ = _blend(run, rate_bits, monkeypatch)
    assert whole.shape == (2, n << rate_bits)
    assert not whole[:, chunks * n :].any(), "the blend has a coefficient past its chunks"
    assert np.array_equal(whole[:, : n << bits], coeffs)
