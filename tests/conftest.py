"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.sparsity.config import NMPattern

#: The serving chaos fuzzer's long run (``tests/test_serve_fuzz.py``
#: draws a few tier-1 examples unless this profile is loaded with
#: ``--hypothesis-profile=serve-fuzz``).
settings.register_profile("serve-fuzz", max_examples=300)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def registry_snapshot():
    """Restore the backend registry (contents *and* registration
    order) after tests that register or unregister backends."""
    from repro.backends import registry as registry_module

    saved = dict(registry_module._REGISTRY)
    yield
    registry_module._REGISTRY.clear()
    registry_module._REGISTRY.update(saved)


@pytest.fixture
def pattern_2_4() -> NMPattern:
    """The canonical Fig. 1 pattern: 2:4 with L=4."""
    return NMPattern(2, 4, vector_length=4)


@pytest.fixture
def pattern_4_32() -> NMPattern:
    """The paper's 87.5%-sparsity benchmark pattern."""
    return NMPattern(4, 32, vector_length=32)


@pytest.fixture
def pattern_16_32() -> NMPattern:
    """The paper's 50%-sparsity benchmark pattern."""
    return NMPattern(16, 32, vector_length=32)


def make_dense(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)).astype(np.float32)
