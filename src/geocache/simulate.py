"""Monte Carlo verification of hit probabilities and Boolean coverage.

All randomness flows through numpy Generators seeded per trial block from
(seed, block_index), so totals are reproducible regardless of how blocks
are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .coverage import CoverageDistribution
from .errors import ParameterError
from .policy import GeneralPolicy, StructuredPolicy, item_thresholds
from .popularity import PopularityDistribution

__all__ = ["SimReport", "simulate_hits", "simulate_boolean_ppp", "poisson_gof_pvalue"]

_TRIAL_BLOCK = 1 << 14
_GOF_MAX_BIN = 8


@dataclass(frozen=True)
class SimReport:
    estimate: float
    stderr: float
    trials: int
    seed: int


def _trial_blocks(trials: int):
    start = 0
    index = 0
    while start < trials:
        yield index, min(_TRIAL_BLOCK, trials - start)
        start += _TRIAL_BLOCK
        index += 1


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(block_index)]))


def simulate_hits(
    policy: GeneralPolicy | StructuredPolicy,
    pop: PopularityDistribution,
    dist: CoverageDistribution,
    trials: int,
    seed: int = 0,
) -> SimReport:
    """Estimate the hit probability by sampling (N, I) independently.

    A trial succeeds iff the smallest block containing the requested item
    has cardinality at most the sampled coverage number.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ParameterError("seed must be a nonnegative integer")
    J = pop.size
    threshold = item_thresholds(policy, J)  # UNCACHED exceeds every coverage number

    support = np.arange(dist.pmf.size)
    successes = 0
    for block, count in _trial_blocks(trials):
        rng = _block_rng(seed, block)
        n_cov = rng.choice(support, size=count, p=dist.pmf)
        items = rng.choice(J, size=count, p=pop.probs)
        successes += int(np.count_nonzero(threshold[items] <= n_cov))

    estimate = successes / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return SimReport(estimate=estimate, stderr=stderr, trials=trials, seed=seed)


def simulate_boolean_ppp(
    lam: float,
    radius: float,
    window_side: float,
    trials: int,
    seed: int = 0,
) -> CoverageDistribution:
    """Empirical coverage-count distribution of a planar Poisson process.

    Stations land uniformly in a square window; the coverage count is the
    number of stations within ``radius`` of the window center. The window
    is at least 10 radii wide, so the disc lies inside it and the count is
    exactly Poisson(lam * pi * radius^2), with no edge effect.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ParameterError("seed must be a nonnegative integer")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ParameterError(f"intensity must be positive, got {lam}")
    if radius < 0.0:
        raise ParameterError(f"radius must be >= 0, got {radius}")
    if window_side < 10.0 * radius or window_side <= 0.0:
        raise ParameterError("window side must be at least 10x the radius")

    mu = lam * window_side * window_side
    center = 0.5 * window_side
    r2 = radius * radius
    covered = []  # the coverage count of every trial, block by block
    for block, count in _trial_blocks(trials):
        rng = _block_rng(seed, block)
        n_points = rng.poisson(mu, size=count)
        total = int(n_points.sum())
        xy = rng.random((total, 2)) * window_side
        d = xy - center
        inside = (d * d).sum(axis=1) <= r2
        trial_ids = np.repeat(np.arange(count), n_points)
        covered.append(np.bincount(trial_ids[inside], minlength=count))

    histogram = np.bincount(np.concatenate(covered))  # ends at the largest count seen
    return CoverageDistribution(
        pmf=histogram / trials,
        model_label="boolean-ppp-empirical",
        meta={
            "lambda": lam,
            "radius": radius,
            "window_side": window_side,
            "trials": trials,
            "seed": seed,
            "counts": histogram.tolist(),
        },
    )


def poisson_gof_pvalue(empirical: CoverageDistribution, mu: float) -> float:
    """Chi-square goodness-of-fit p-value of empirical counts against Poisson(mu).

    Counts are binned at 0..7 with everything >= 8 lumped into the final
    category, matching the expected Poisson masses.
    """
    counts = empirical.meta.get("counts")
    trials = empirical.meta.get("trials")
    if counts is None or trials is None:
        raise ParameterError("empirical distribution lacks counts/trials metadata")
    counts = np.asarray(counts, dtype=float)
    observed = np.zeros(_GOF_MAX_BIN + 1)
    upto = min(_GOF_MAX_BIN, counts.size)
    observed[:upto] = counts[:upto]
    if counts.size > _GOF_MAX_BIN:
        observed[_GOF_MAX_BIN] = counts[_GOF_MAX_BIN:].sum()
    expected = stats.poisson.pmf(np.arange(_GOF_MAX_BIN), mu)
    expected = np.append(expected, stats.poisson.sf(_GOF_MAX_BIN - 1, mu)) * trials
    result = stats.chisquare(observed, expected)
    return float(result.pvalue)
