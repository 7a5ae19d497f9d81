"""Shared fixtures for the test suite, and the hypothesis profile.

Every property test is derandomized and keeps no example database, so a
run draws the same examples on every machine and every run; each test's
own ``max_examples`` still applies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator so every test run sees identical draws."""
    return np.random.default_rng(20240817)
