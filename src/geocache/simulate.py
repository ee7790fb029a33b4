"""Monte Carlo verification of hit probabilities and Boolean coverage.

All randomness flows through numpy Generators seeded per trial block from
(seed, block_index), so totals are reproducible regardless of how blocks
are scheduled. One ``simulate_hits`` call draws each block's sample once
and scores every policy it is given on it; a policy's estimate depends
only on (pop, dist, trials, seed), never on the other policies of the call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

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
    policies: Sequence[GeneralPolicy | StructuredPolicy],
    pop: PopularityDistribution,
    dist: CoverageDistribution,
    trials: int,
    seed: int = 0,
) -> list[SimReport]:
    """Estimate each policy's hit probability by sampling (N, I) independently.

    Returns one report per policy, in order. Every trial block draws its
    coverage numbers N and requested items I once, and all policies are
    scored on that one sample, so each report equals the one a call with
    that policy alone returns. A trial succeeds iff the smallest block
    containing the requested item has cardinality at most the sampled
    coverage number. An empty ``policies`` draws nothing and returns [].
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ParameterError("seed must be a nonnegative integer")
    J = pop.size
    # UNCACHED exceeds every coverage number
    thresholds = [item_thresholds(policy, J) for policy in policies]
    if not thresholds:
        return []

    support = np.arange(dist.pmf.size)
    successes = [0] * len(thresholds)
    for block, count in _trial_blocks(trials):
        rng = _block_rng(seed, block)
        n_cov = rng.choice(support, size=count, p=dist.pmf)
        items = rng.choice(J, size=count, p=pop.probs)
        for i, threshold in enumerate(thresholds):
            successes[i] += int(np.count_nonzero(threshold[items] <= n_cov))

    reports = []
    for hits in successes:
        estimate = hits / trials
        stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
        reports.append(SimReport(estimate=estimate, stderr=stderr, trials=trials, seed=seed))
    return reports


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
    category, matching the expected Poisson masses. The masses and the
    chi-square survival function Q(df/2, x/2) are regularized incomplete
    gamma functions, evaluated by mpmath.
    """
    import mpmath  # here, not at the top: only this check needs it

    counts = empirical.meta.get("counts")
    trials = empirical.meta.get("trials")
    if counts is None or trials is None:
        raise ParameterError("empirical distribution lacks counts/trials metadata")
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ParameterError(f"Poisson mean must be positive and finite, got {mu}")
    counts = np.asarray(counts, dtype=float)
    observed = np.zeros(_GOF_MAX_BIN + 1)
    upto = min(_GOF_MAX_BIN, counts.size)
    observed[:upto] = counts[:upto]
    if counts.size > _GOF_MAX_BIN:
        observed[_GOF_MAX_BIN] = counts[_GOF_MAX_BIN:].sum()
    with mpmath.workdps(40):  # digits to spare for the differences of the cdf
        # cdf[k] = Pr{N < k} = Q(k, mu) for k >= 1; the last bin is Pr{N >= 8} = P(8, mu)
        cdf = [0] + [mpmath.gammainc(k, mu, regularized=True) for k in range(1, _GOF_MAX_BIN + 1)]
        masses = [b - a for a, b in zip(cdf, cdf[1:])]
        masses.append(mpmath.gammainc(_GOF_MAX_BIN, 0, mu, regularized=True))
        expected = np.array([float(m) for m in masses]) * trials
    statistic = float(((observed - expected) ** 2 / expected).sum())
    dof = _GOF_MAX_BIN  # nine bins, whose counts must add up to trials
    return float(mpmath.gammainc(dof / 2, statistic / 2, regularized=True))
