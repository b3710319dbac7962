"""Shared fixtures for the CSM reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.gf.prime_field import PrimeField
from repro.gf.extension_field import BinaryExtensionField

# Tier-1 gives the same answer twice: every property test draws a fixed,
# derandomised example sequence and no example database replays old
# failures.  ``--hypothesis-profile=default`` explores fresh seeds.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def small_field() -> PrimeField:
    """A small prime field (GF(97)) convenient for exhaustive checks."""
    return PrimeField(97)


@pytest.fixture
def big_field() -> PrimeField:
    """The default production field GF(2**31 - 1)."""
    return PrimeField()


@pytest.fixture
def gf256() -> BinaryExtensionField:
    """GF(2**8), the extension field used by most Appendix A tests."""
    return BinaryExtensionField(8)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
