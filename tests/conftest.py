"""Shared random-instance generators for the test suite."""

import math

import numpy as np
import pytest

from geocache import CoverageDistribution, PopularityDistribution


def random_popularity(rng, J: int) -> PopularityDistribution:
    w = rng.random(J) + 1e-3
    w = np.sort(w)[::-1]
    return PopularityDistribution(w / math.fsum(w.tolist()))


def random_coverage(rng, kmax: int | None = None) -> CoverageDistribution:
    """Random finite-support coverage pmf; some entries zeroed for variety."""
    if kmax is None:
        kmax = int(rng.integers(1, 7))
    w = rng.random(kmax + 1)
    w[rng.random(kmax + 1) < 0.25] = 0.0
    if w.sum() <= 0.0:
        w[int(rng.integers(0, kmax + 1))] = 1.0
    return CoverageDistribution(pmf=w / math.fsum(w.tolist()), model_label="random")


def closed_form_I_at_zero(n, beta):
    """I_{n,beta}(0) = 2^(n-1) / (beta^(n-1) Gamma(1-2/beta)^n Gamma(1+2/beta)^n)."""
    g1 = math.gamma(1.0 - 2.0 / beta)
    g2 = math.gamma(1.0 + 2.0 / beta)
    return 2.0 ** (n - 1) / (beta ** (n - 1) * g1**n * g2**n)


def random_instance(rng, max_J: int = 12, max_L: int = 4):
    J = int(rng.integers(2, max_J + 1))
    L = int(rng.integers(1, max_L + 1))
    return random_popularity(rng, J), random_coverage(rng), L


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
