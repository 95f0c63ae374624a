"""Shared fixtures for the test-suite."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.context import scoped
from repro.fri import FriConfig


@pytest.fixture
def fresh_instance_cache():
    """An empty preprocessed-instance cache for this thread; the
    thread's own cache is back in place afterwards."""
    with scoped("instances", OrderedDict()):
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic NumPy generator."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def fri_test_config() -> FriConfig:
    """Small, fast FRI parameters (NOT sound; for functional tests)."""
    return FriConfig(
        rate_bits=3, cap_height=1, num_queries=6, proof_of_work_bits=3, final_poly_len=4
    )


@pytest.fixture
def stark_test_config() -> FriConfig:
    """Small Starky-flavoured FRI parameters (blowup 2)."""
    return FriConfig(
        rate_bits=1, cap_height=1, num_queries=10, proof_of_work_bits=3, final_poly_len=4
    )
