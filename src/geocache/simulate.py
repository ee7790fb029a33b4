"""Monte Carlo verification of hit probabilities and Boolean coverage.

All randomness flows through numpy Generators seeded per trial block from
(seed, block_index), so totals are reproducible regardless of how blocks
are scheduled. One ``simulate_hits`` call draws each block's sample once
and scores every (policy, coverage) case it is given on it; a case's
estimate depends only on (policy, pop, dist, trials, seed), never on the
other cases of the call.

A hit needs the coverage number N to reach the item's threshold r. N is
never drawn: ``Generator.choice`` would take it as the inverse cdf
``searchsorted(cdf, u, side="right")``, which is >= r exactly when
``cdf[r - 1] <= u`` (Devroye 1986, sec. III.2), so each case tests that
cut against the same uniform u. The items I are the ones ``choice``
draws from the same stream, found by a guide-table inverse cdf (Chen &
Asau, AIIE Trans. 1974; Devroye 1986, sec. III.2.4) instead of a binary
search over the whole support. The spatial check samples only the
coverage disc's bounding square: by the restriction property of the
Poisson process, the stations outside it never count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .coverage import MAX_POISSON_MEAN, CoverageDistribution
from .errors import ParameterError
from .policy import GeneralPolicy, StructuredPolicy, item_thresholds
from .popularity import PopularityDistribution

__all__ = ["SimReport", "simulate_hits", "simulate_boolean_ppp", "poisson_gof_pvalue"]

_TRIAL_BLOCK = 1 << 14
_PPP_RUN_POINTS = 1 << 20  # points the PPP check draws at once: 16 MiB of offsets
_GOF_MAX_BIN = 8


@dataclass(frozen=True)
class SimReport:
    estimate: float
    stderr: float
    trials: int
    seed: int


def _trial_blocks(trials: int):
    for index, start in enumerate(range(0, trials, _TRIAL_BLOCK)):
        yield index, min(_TRIAL_BLOCK, trials - start)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(block_index)]))


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The cdf ``Generator.choice`` builds for the pmf p; draws and cuts must both read it."""
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


def _inverse_cdf(p: np.ndarray):
    """Draw function u -> index for the pmf p, equal to ``Generator.choice``.

    The cdf is built as ``choice`` builds it and the index is its
    ``searchsorted(cdf, u, side="right")``, so the draws match ``choice``
    draw for draw on the same uniforms. A guide table of m >= 4 * p.size
    keys brackets each index: u in [k/m, (k+1)/m) lies in [g[k], g[k+1]],
    with g[k] = searchsorted(cdf, k/m, side="right"). m is a power of two,
    so u * m and k/m are exact. Each bracket is then halved, all uniforms at
    once, in at most ceil(log2(p.size)) passes: a long run of zero mass
    widens one bracket, not the pass count.
    """
    cdf = _choice_cdf(p)
    m = 1 << (4 * cdf.size - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(m + 1) / m, side="right")
    lower = guide[:-1]
    upper = np.minimum(guide[1:], cdf.size - 1)  # u < 1 = cdf[-1]

    def draw(u: np.ndarray) -> np.ndarray:
        key = (u * m).astype(np.intp)
        index, top = lower[key], upper[key]
        open_ = np.flatnonzero(index < top)  # brackets holding more than one index
        lo, hi, v = index[open_], top[open_], u[open_]
        for _ in range(int((hi - lo).max(initial=0)).bit_length()):
            lo, hi = _halve(cdf, v, lo, hi)
        index[open_] = lo
        return index

    return draw


def _halve(cdf, u, lo, hi):
    """One bisection pass: keep the half of [lo, hi] holding the first cdf > u."""
    mid = (lo + hi) >> 1
    right = cdf[mid] <= u
    return np.where(right, mid + 1, lo), np.where(right, hi, mid)


def _cuts(threshold: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    """Per item, ``cdf[r - 1]`` for its threshold r, or inf for r > kmax: with
    the cdf built as ``Generator.choice`` builds it, ``cut <= u`` holds
    exactly when the N that ``choice`` takes from u is >= r."""
    cdf = _choice_cdf(pmf)
    cdf[-1] = np.inf  # r = kmax + 1 and UNCACHED: N never exceeds kmax
    return cdf[np.minimum(threshold, cdf.size) - 1]


def simulate_hits(
    policies: Sequence[GeneralPolicy | StructuredPolicy],
    pop: PopularityDistribution,
    dists: Sequence[CoverageDistribution],
    trials: int,
    seed: int = 0,
) -> list[SimReport]:
    """Estimate each case's hit probability by sampling (N, I) independently.

    Case i is ``policies[i]`` on the coverage ``dists[i]``; one report per
    case, in order. Every trial block draws one uniform u per trial, then
    the requested items from a second one by the inverse cdf of
    ``Generator.choice`` (``_inverse_cdf``). A trial succeeds iff N reaches
    the item's threshold r, the size of its smallest block. N is not
    drawn: the test is ``cdf[r - 1] <= u`` (``_cuts``). All cases share one
    sample, so each report equals the one a call with that case alone
    returns. An empty ``policies`` draws nothing and returns [].
    """
    if len(policies) != len(dists):
        raise ParameterError(f"{len(policies)} policies but {len(dists)} coverage distributions")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ParameterError("seed must be a nonnegative integer")
    J = pop.size
    cuts = [_cuts(item_thresholds(policy, J), dist.pmf) for policy, dist in zip(policies, dists)]
    if not cuts:
        return []
    distinct = {}  # cut bytes -> (slot, cut): equal cut vectors are scored once
    slots = [distinct.setdefault(cut.tobytes(), (len(distinct), cut))[0] for cut in cuts]

    draw_item = _inverse_cdf(pop.probs)
    successes = [0] * len(distinct)
    for block, count in _trial_blocks(trials):
        rng = _block_rng(seed, block)
        u = rng.random(count)
        items = draw_item(rng.random(count))
        for i, cut in distinct.values():
            successes[i] += int(np.count_nonzero(cut[items] <= u))

    reports = []
    for hits in (successes[i] for i in slots):
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

    Stations form a Poisson process of intensity ``lam`` on a square window
    at least 10 radii wide; the coverage count is the number of stations
    within ``radius`` of the window center. By the restriction property, the
    stations in the disc's bounding square [c - r, c + r]^2 are a Poisson
    process of their own and the ones outside it never count, so only that
    square is sampled: Poisson(lam * (2r)^2) points per trial, uniform in
    it. The count is exactly Poisson(lam * pi * radius^2), with no edge
    effect, and does not depend on ``window_side``. A per-trial mean over
    ``coverage.MAX_POISSON_MEAN`` is refused before any draw. Each trial
    block's points are drawn in runs of consecutive trials of at most
    ``_PPP_RUN_POINTS`` points (a trial with more is a run alone); the runs
    continue one stream, so the counts do not depend on the run size.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ParameterError("seed must be a nonnegative integer")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ParameterError(f"intensity must be positive, got {lam}")
    if not (radius >= 0.0 and math.isfinite(radius)):  # NaN too
        raise ParameterError(f"radius must be finite and >= 0, got {radius}")
    if not (window_side >= 10.0 * radius and 0.0 < window_side < math.inf):
        raise ParameterError(f"window side must be finite and >= 10x the radius, got {window_side}")
    mu = lam * window_side * window_side
    if not math.isfinite(mu):
        raise ParameterError(f"mean station count lam * window_side^2 must be finite, got {mu}")
    side = 2.0 * radius
    mu_square = lam * side * side
    if not mu_square <= MAX_POISSON_MEAN:
        raise ParameterError(
            f"mean station count lam * (2 radius)^2 per trial is {mu_square:g}, "
            f"above the limit {MAX_POISSON_MEAN:g}"
        )

    r2 = radius * radius
    covered = []  # the coverage count of every trial, run by run
    for block, count in _trial_blocks(trials):
        rng = _block_rng(seed, block)
        n_points = rng.poisson(mu_square, size=count)
        ends = np.cumsum(n_points)
        lo = 0
        while lo < count:  # trials lo..hi-1: at most _PPP_RUN_POINTS points, or one trial
            start = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, start + _PPP_RUN_POINTS, side="right")))
            d = rng.random((int(ends[hi - 1]) - start, 2))
            d -= 0.5
            d *= side  # offsets from the center
            x, y = d.T
            # inside[:i].sum() for every i: a trial's count is the rise over its points
            seen = np.zeros(d.shape[0] + 1, dtype=np.intp)
            np.cumsum(x * x + y * y <= r2, out=seen[1:])
            covered.append(np.diff(seen[ends[lo:hi] - start], prepend=0))
            lo = hi

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
