"""FRI across the configuration matrix: blowups, final sizes, caps."""

import numpy as np
import pytest

from repro.field import extension as fext, gl64
from repro.fri import (
    FriConfig,
    FriError,
    fri_prove,
    fri_verify,
    open_batches,
)
from repro.hashing import Challenger

from .reference_oracles import commit_coeffs


def _roundtrip(cfg: FriConfig, n: int, rng) -> int:
    batch = commit_coeffs(
        gl64.random((2, n), rng), cfg.rate_bits, cfg.cap_height
    )
    openings = open_batches([batch], [fext.make(9, 11)], [[(0, 0), (0, 1)]])
    ch = Challenger()
    ch.observe_cap(batch.cap)
    proof = fri_prove([batch], openings, ch, cfg)
    vh = Challenger()
    vh.observe_cap(batch.cap)
    fri_verify([batch.cap], openings, proof, vh, cfg, n)
    return proof.size_bytes()


class TestConfigMatrix:
    @pytest.mark.parametrize("rate_bits", [1, 2, 3, 4])
    def test_blowup_sweep(self, rate_bits, rng):
        cfg = FriConfig(rate_bits=rate_bits, cap_height=1, num_queries=4,
                        proof_of_work_bits=2, final_poly_len=4)
        _roundtrip(cfg, 32, rng)

    @pytest.mark.parametrize("final_len", [1, 2, 4, 8])
    def test_final_poly_sweep(self, final_len, rng):
        cfg = FriConfig(rate_bits=2, cap_height=1, num_queries=4,
                        proof_of_work_bits=2, final_poly_len=final_len)
        _roundtrip(cfg, 32, rng)

    @pytest.mark.parametrize("cap_height", [0, 1, 2, 3])
    def test_cap_sweep(self, cap_height, rng):
        cfg = FriConfig(rate_bits=2, cap_height=cap_height, num_queries=4,
                        proof_of_work_bits=2, final_poly_len=4)
        _roundtrip(cfg, 32, rng)

    def test_degree_equal_to_final_len_skips_folding(self, rng):
        cfg = FriConfig(rate_bits=2, cap_height=1, num_queries=3,
                        proof_of_work_bits=2, final_poly_len=8)
        batch = commit_coeffs(
            gl64.random((1, 8), rng), cfg.rate_bits, cfg.cap_height
        )
        openings = open_batches([batch], [fext.make(3, 4)], [[(0, 0)]])
        ch = Challenger()
        ch.observe_cap(batch.cap)
        proof = fri_prove([batch], openings, ch, cfg)
        assert len(proof.commit_caps) == 0  # no fold rounds at all
        vh = Challenger()
        vh.observe_cap(batch.cap)
        fri_verify([batch.cap], openings, proof, vh, cfg, 8)

    def test_more_queries_bigger_proof(self, rng):
        few = FriConfig(rate_bits=2, cap_height=1, num_queries=3,
                        proof_of_work_bits=2, final_poly_len=4)
        many = FriConfig(rate_bits=2, cap_height=1, num_queries=12,
                         proof_of_work_bits=2, final_poly_len=4)
        assert _roundtrip(many, 32, rng) > _roundtrip(few, 32, rng)

    def test_higher_blowup_fewer_queries_same_security(self):
        a = FriConfig(rate_bits=1, num_queries=48, proof_of_work_bits=4)
        b = FriConfig(rate_bits=3, num_queries=16, proof_of_work_bits=4)
        assert a.conjectured_security_bits() == b.conjectured_security_bits()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            FriConfig(rate_bits=0)
        with pytest.raises(ValueError):
            FriConfig(final_poly_len=3)
        with pytest.raises(ValueError):
            FriConfig(proof_of_work_bits=40)

    def test_cross_config_proof_rejected(self, rng):
        """A proof made under one config fails under another."""
        cfg_a = FriConfig(rate_bits=2, cap_height=1, num_queries=4,
                          proof_of_work_bits=2, final_poly_len=4)
        cfg_b = FriConfig(rate_bits=2, cap_height=1, num_queries=6,
                          proof_of_work_bits=2, final_poly_len=4)
        n = 32
        batch = commit_coeffs(
            gl64.random((1, n), rng), cfg_a.rate_bits, cfg_a.cap_height
        )
        openings = open_batches([batch], [fext.make(1, 2)], [[(0, 0)]])
        ch = Challenger()
        ch.observe_cap(batch.cap)
        proof = fri_prove([batch], openings, ch, cfg_a)
        vh = Challenger()
        vh.observe_cap(batch.cap)
        with pytest.raises(FriError):
            fri_verify([batch.cap], openings, proof, vh, cfg_b, n)
