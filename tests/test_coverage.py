import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import poisson

from geocache import (
    BooleanModelParams,
    CoverageDistribution,
    ParameterError,
    SinrModelParams,
    boolean_coverage,
    mean_coverage,
    noise_factor,
    sinr_coverage,
    special_J,
)
from geocache import coverage
from geocache.errors import NumericalCancellationError

import coverage_oracles
from conftest import closed_form_I_at_zero


# ---------------------------------------------------------------------------
# distribution container
# ---------------------------------------------------------------------------


def test_tail_is_reverse_cumulative():
    dist = CoverageDistribution(pmf=np.array([0.1, 0.4, 0.3, 0.2]))
    assert dist.tail_at(0) == pytest.approx(1.0, abs=1e-15)
    for k in range(dist.kmax + 1):
        assert dist.tail_at(k) - dist.tail_at(k + 1) == pytest.approx(
            float(dist.pmf[k]), abs=1e-14
        )
    assert dist.tail_at(dist.kmax + 1) == 0.0
    assert dist.tail_at(99) == 0.0


def test_tail_is_derived_not_an_input():
    with pytest.raises(TypeError):
        CoverageDistribution(pmf=np.array([0.5, 0.5]), tail=np.array([1.0, 0.5, 0.0]))


@settings(max_examples=200)
@given(
    raw=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=9
    ).filter(lambda xs: sum(xs) > 1e-6)
)
def test_constructed_distribution_invariants(raw):
    pmf = np.array(raw) / math.fsum(raw)
    dist = CoverageDistribution(pmf=pmf)
    assert math.fsum(dist.pmf.tolist()) == pytest.approx(1.0, abs=1e-9)
    tails = dist.tail[:-1]
    assert np.all(np.diff(dist.tail) <= 1e-15)  # nonincreasing
    np.testing.assert_allclose(tails - dist.tail[1:], dist.pmf, atol=1e-14)


def _per_k_fsum_tail(pmf):
    """The tail rebuilt by one exactly rounded sum per k: the O(kmax^2) reference."""
    values = np.asarray(pmf).tolist()
    return np.array([math.fsum(values[k:]) for k in range(len(values))] + [0.0])


def test_tail_equals_per_k_fsum_bit_for_bit():
    rng = np.random.default_rng(7)
    pmfs = [rng.dirichlet(np.full(int(rng.integers(1, 400)), a)) for a in (0.05, 1.0, 20.0)]
    pmfs += [rng.dirichlet(np.ones(50)) * 10.0 ** -rng.integers(0, 300, 50) for _ in range(3)]
    mu = 1800.0
    pmfs.append(boolean_coverage(BooleanModelParams(lam=mu / math.pi, tau=1.0, beta=3.0)).pmf)
    # entries spread over 1e-320..1, where a summation by floating-point partials
    # that are not kept in magnitude order can lose 1 ulp
    rng = np.random.default_rng(1)
    for _ in range(3000):
        k = int(rng.integers(1, 60))
        w = rng.random(k) * 10.0 ** rng.integers(-320, 0, size=k)
        w[0] = 1.0
        pmfs.append(w)
    for pmf in pmfs:
        dist = CoverageDistribution(pmf=pmf / math.fsum(pmf.tolist()))
        np.testing.assert_array_equal(dist.tail, _per_k_fsum_tail(dist.pmf))


def test_distribution_rejects_bad_pmf():
    with pytest.raises(ParameterError):
        CoverageDistribution(pmf=np.array([0.5, 0.2]))  # mass far from 1
    with pytest.raises(ParameterError):
        CoverageDistribution(pmf=np.array([1.2, -0.2]))
    with pytest.raises(ParameterError):
        CoverageDistribution(pmf=np.zeros(3))  # no mass at all


def test_a_zero_pmf_entry_is_stored_as_positive_zero():
    dist = CoverageDistribution(pmf=[-0.0, 1.0])
    assert math.copysign(1.0, dist.pmf[0]) == 1.0


def test_json_round_trip():
    dist = boolean_coverage(BooleanModelParams(lam=0.7, tau=2.0, beta=3.5))
    payload = json.loads(json.dumps(dist.to_json_dict()))
    back = CoverageDistribution(pmf=payload["pmf"], model_label=payload["model_label"])
    np.testing.assert_array_equal(back.pmf, dist.pmf)
    assert back.model_label == "boolean"


# ---------------------------------------------------------------------------
# Boolean model
# ---------------------------------------------------------------------------


def test_boolean_unit_parameters_give_poisson_pi():
    params = BooleanModelParams(lam=1.0, tau=1.0, beta=3.0, K=1.0, power_ratio=1.0)
    assert params.poisson_parameter == pytest.approx(math.pi, rel=1e-15)
    dist = boolean_coverage(params)
    assert dist.pmf[0] == pytest.approx(math.exp(-math.pi), rel=1e-9)
    assert mean_coverage(dist) == pytest.approx(math.pi, abs=1e-9)


def test_boolean_mean_matches_disk_area_formula():
    # E[N] = pi * lam * tau^(-2/beta) * (P/W)^(2/beta) / K^2
    params = BooleanModelParams(lam=2.0, tau=0.5, beta=4.0, K=1.5, power_ratio=3.0)
    expected = math.pi * 2.0 * 0.5 ** (-0.5) * 3.0**0.5 / 1.5**2
    assert mean_coverage(boolean_coverage(params)) == pytest.approx(expected, rel=1e-9)


def test_boolean_empty_coverage_limit():
    dist = boolean_coverage(BooleanModelParams(lam=1e-12, tau=1.0, beta=3.0))
    assert dist.pmf[0] == pytest.approx(1.0, abs=1e-11)
    assert dist.tail_at(1) == pytest.approx(0.0, abs=1e-11)


def test_boolean_pmf_matches_scipy_poisson():
    # the support rule of the scipy build this replaced: the smallest kmax with
    # Pr{N > kmax} < MASS_CUTOFF, placed by isf and corrected by sf
    for mu in np.logspace(-3, 4, 120).tolist():
        params = BooleanModelParams(lam=mu / math.pi, tau=1.0, beta=3.0)
        mu = params.poisson_parameter
        kmax = max(0, int(poisson.isf(coverage.MASS_CUTOFF, mu)))
        while poisson.sf(kmax, mu) >= coverage.MASS_CUTOFF:
            kmax += 1
        while kmax > 0 and poisson.sf(kmax - 1, mu) < coverage.MASS_CUTOFF:
            kmax -= 1
        expected = CoverageDistribution(pmf=poisson.pmf(np.arange(kmax + 1), mu))
        dist = boolean_coverage(params)
        assert dist.kmax == kmax, mu
        worst = float(np.max(np.abs(dist.tail - expected.tail)))
        assert worst <= (1e-13 if mu <= 100.0 else 2e-12), (mu, worst)


def test_boolean_variance_equals_mean():
    dist = boolean_coverage(BooleanModelParams(lam=1.0, tau=1.0, beta=3.0))
    mean = mean_coverage(dist)
    second = math.fsum(k * k * p for k, p in enumerate(dist.pmf.tolist()))
    assert second - mean * mean == pytest.approx(mean, abs=1e-6)


def test_boolean_larger_power_means_more_coverage():
    base = BooleanModelParams(lam=1.0, tau=1.0, beta=3.0, power_ratio=1.0)
    boosted = BooleanModelParams(lam=1.0, tau=1.0, beta=3.0, power_ratio=4.0)
    assert boosted.poisson_parameter > base.poisson_parameter


def test_boolean_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        BooleanModelParams(lam=1.0, tau=1.0, beta=3.0, power_ratio=math.inf)
    with pytest.raises(ParameterError):
        BooleanModelParams(lam=-1.0, tau=1.0, beta=3.0)
    with pytest.raises(ParameterError):
        BooleanModelParams(lam=1.0, tau=1.0, beta=1.5)
    with pytest.raises(ParameterError, match="cannot place the support"):
        boolean_coverage(BooleanModelParams(lam=1e300, tau=1.0, beta=3.0))  # scipy's isf is NaN
    with pytest.raises(ParameterError, match="cannot place the support"):
        BooleanModelParams(lam=1.01 * coverage.MAX_POISSON_MEAN / math.pi, tau=1.0, beta=3.0)
    BooleanModelParams(lam=0.99 * coverage.MAX_POISSON_MEAN / math.pi, tau=1.0, beta=3.0)


# ---------------------------------------------------------------------------
# noise factor I_n(x) / I_n(0)
# ---------------------------------------------------------------------------


def defining_I(n, beta, x):
    """I_{n,beta}(x) by quadrature of its defining u-integral.

    I_{n,beta}(x) = 2^n / (beta^(n-1) (n-1)! (G1 G2)^n)
                    * int_0^inf u^(2n-1) exp(-u^2 - u^beta x G1^(-beta/2)) du,
    with G1 = Gamma(1-2/beta) and G2 = Gamma(1+2/beta).
    """
    g1, g2 = math.gamma(1.0 - 2.0 / beta), math.gamma(1.0 + 2.0 / beta)
    c = g1 ** (-beta / 2.0)
    peak = math.sqrt((2 * n - 1) / 2.0)
    integral = 0.0
    for a, b in ((0.0, peak), (peak, math.inf)):
        integral += quad(
            lambda u: u ** (2 * n - 1) * math.exp(-u * u - u**beta * x * c),
            a, b, epsabs=0.0, epsrel=1e-12, limit=200,
        )[0]
    return 2.0**n / (beta ** (n - 1) * math.factorial(n - 1) * (g1 * g2) ** n) * integral


def test_special_I_simple_value():
    # I_1(0) at beta = 4 is 2/pi; the closed form the tests use for I_n(0) gives it
    assert closed_form_I_at_zero(1, 4.0) == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert defining_I(1, 4.0, 0.0) == pytest.approx(2.0 / math.pi, rel=1e-9)


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("beta", [3.0, 4.0])
def test_special_I_matches_closed_form_at_zero(n, beta):
    # the closed-form I_n(0) that the dual routes below multiply by the noise factor
    assert defining_I(n, beta, 0.0) == pytest.approx(closed_form_I_at_zero(n, beta), rel=1e-7)
    # and I_n(x) / I_n(0) from the defining integral is the library's noise factor
    for x in (0.01, 1.0):
        ratio = defining_I(n, beta, x) / closed_form_I_at_zero(n, beta)
        assert noise_factor(n, beta, x)[0] == pytest.approx(ratio, rel=1e-7)


def test_noise_factor_is_exactly_one_at_zero_argument():
    for beta in (2.5, 3.0, 4.0):
        for n in range(1, 101):
            assert noise_factor(n, beta, 0.0) == (1.0, 0.0)


def test_noise_factor_decreases_to_zero():
    # I_n(x) decays algebraically, roughly as x^(-2n/beta), and underflows by x = 1e300
    xs = (0.0, 1e-6, 1.0, 10.0, 1e3, 1e6, 1e9, 1e12, 1e300)
    values = [noise_factor(2, 3.0, x)[0] for x in xs]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-12


def noise_factor_reference(mp, n, beta, x):
    """E[exp(-x c V^(beta/2))], V ~ Gamma(n, 1), c = Gamma(1-2/beta)^(-beta/2), by mp.quad.

    The integral is split at v_p, the peak of v^(n-1/2) exp(-v - x c v^(beta/2)),
    next to the peak of the integrand v^(n-1) exp(...), and the integrand is
    divided by its value at v_p: mp.quad stops at an absolute tolerance, so
    a factor far below 1 would otherwise come back with a few digits only.
    """
    e = mp.mpf(beta) / 2
    cx = mp.gamma(1 - 1 / e) ** -e * x
    lo, hi = mp.mpf(0), mp.mpf(n)
    for _ in range(180):  # bisection for v_p: v + e cx v^e = n - 1/2
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid + e * cx * mid**e < n - 0.5 else (lo, mid)

    def log_f(v):
        return (n - 1) * mp.log(v) - v - cx * v**e

    top = log_f(lo)
    # on this grid, maxdegree 6 agrees to 3e-30 with the default degree and a finer split
    body = mp.quad(lambda v: mp.exp(log_f(v) - top), [0, lo, mp.inf], maxdegree=6)
    return body * mp.exp(top - mp.loggamma(n))


@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0])
def test_noise_factor_matches_mpmath_reference(beta):
    # both branches: d = 1 - factor ~ x at x = 1e-6, the factor far below 1e-30 at n >= 60
    import mpmath

    mp = mpmath.MPContext()
    mp.dps = 50
    for n in (1, 5, 20, 60, 100):
        for x in (1e-6, 1e-2, 1.0, 18.0):
            ref = float(noise_factor_reference(mp, n, beta, x))
            value, err = noise_factor(n, beta, x)
            assert abs(value - ref) <= 3 * err + 4e-16 * ref, (n, x, value, ref, err)


def test_noise_factor_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        noise_factor(0, 3.0, 0.0)
    with pytest.raises(ParameterError):
        noise_factor(1, 2.0, 0.0)
    with pytest.raises(ParameterError):
        noise_factor(1, 3.0, -1.0)


# ---------------------------------------------------------------------------
# special function J
# ---------------------------------------------------------------------------


def test_special_J_order_one_is_exactly_one():
    for beta in np.linspace(2.2, 6.0, 5):
        for x in (1e-3, 0.1, 0.7, 15.0):
            assert special_J(1, float(beta), x) == (1.0, 0.0)


def test_special_J_order_two_matches_adaptive_quad_oracle():
    # independent route: 1-D adaptive quadrature of the raw integrand
    def oracle(beta, x):
        a = 2.0 / beta
        val, _ = quad(
            lambda v: v**a * (1 - v) ** a / ((x + v) * (x + 1.0 - v)),
            0.0,
            1.0,
            epsabs=1e-14,
            epsrel=1e-12,
        )
        return (1.0 + 2.0 * x) / 2.0 * val

    for beta, x in [(4.0, 1.0), (3.0, 0.25), (3.0, 2.5)]:
        value, err = special_J(2, beta, x)
        assert value == pytest.approx(oracle(beta, x), rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_special_J_tensor_and_inversion_agree(n):
    # S_n by the Laplace inversion vs tau_n^(-2n/beta) I_n(0) J_n(tau_n), J by tensor quadrature
    beta, tau = 3.0, 10 ** (-6.5 / 10)  # nmax = 5
    meta = sinr_coverage(sir_params(tau, beta)).meta
    tau_n = tau / (1.0 - (n - 1) * tau)
    scale = tau_n ** (-2.0 * n / beta) * closed_form_I_at_zero(n, beta)
    tensor_value, tensor_err = special_J(n, beta, tau_n)
    budget = 3.0 * (scale * tensor_err + meta["sn_error_estimates"][n - 1]) + 1e-12
    assert abs(meta["sn"][n - 1] - scale * tensor_value) <= budget


def test_special_J_decreases_in_argument():
    xs = np.linspace(0.05, 20.0, 12)
    vals = [special_J(2, 4.0, float(x))[0] for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_special_J_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        special_J(2, 3.0, 0.0)
    with pytest.raises(ParameterError):
        special_J(0, 3.0, 1.0)
    with pytest.raises(ParameterError, match="1..5"):
        special_J(6, 3.0, 1.0)  # beyond the tensor rule


# ---------------------------------------------------------------------------
# SINR model
# ---------------------------------------------------------------------------


def sir_params(tau, beta=3.0, **kw):
    return SinrModelParams(lam=1.0, tau=tau, beta=beta, **kw)


def test_sinr_thresholds_past_the_support_limit_are_refused():
    # the cost of a build grows with nmax = ceil(1/tau): -25 dB (nmax 317) builds
    # in seconds, -30 dB (nmax 1000) would run for minutes
    limit = coverage.SINR_NMAX_MAX
    assert sir_params(10 ** (-25 / 10)).nmax == 317
    assert sir_params(1.0 / limit).nmax == limit
    for tau in (0.999 / limit, 1e-3, 5e-324):
        with pytest.raises(ParameterError, match=f"must be at most {limit}"):
            sir_params(tau)


def test_sn_zero_when_tuple_infeasible():
    # once (n-1) tau >= 1 no n stations can all reach tau: the support ends at nmax
    for tau, nmax in ((1.0, 1), (0.6, 2)):
        dist = sinr_coverage(sir_params(tau))
        assert dist.kmax == nmax and len(dist.meta["sn"]) == nmax


def test_s1_reduces_to_special_I_at_unit_threshold():
    params = sir_params(1.0)
    s1 = sinr_coverage(params).meta["sn"][0]
    assert s1 == pytest.approx(closed_form_I_at_zero(1, 3.0), rel=1e-12)


def test_sinr_single_term_above_zero_db():
    tau = 10 ** (3 / 10)  # 3 dB -> nmax = 1
    params = sir_params(tau)
    dist = sinr_coverage(params)
    assert dist.kmax == 1
    s1 = dist.meta["sn"][0]
    assert dist.pmf[1] == pytest.approx(s1, rel=1e-12)
    assert dist.pmf[0] == pytest.approx(1.0 - s1, rel=1e-12)


def test_sinr_support_bound():
    params = sir_params(0.4)
    dist = sinr_coverage(params)
    assert dist.kmax == math.ceil(1.0 / 0.4)
    assert dist.tail_at(dist.kmax + 1) == 0.0


def test_sinr_first_moment_identity():
    params = sir_params(0.4)
    dist = sinr_coverage(params)
    expected = math.fsum(k * p for k, p in enumerate(dist.pmf.tolist()))
    assert expected == pytest.approx(dist.meta["sn"][0], abs=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sn_equals_binomial_moment(n):
    # S_n is the expected number of n-subsets of covering stations:
    # S_n = sum_k C(k, n) p_k
    params = sir_params(10 ** (-6 / 10))
    dist = sinr_coverage(params)
    moment = math.fsum(
        math.comb(k, n) * p for k, p in enumerate(dist.pmf.tolist())
    )
    assert moment == pytest.approx(dist.meta["sn"][n - 1], abs=1e-6)


def test_mean_coverage_degenerate_single_station():
    assert mean_coverage(CoverageDistribution(pmf=np.array([0.0, 1.0]))) == 1.0


def test_sinr_mean_coverage_nonincreasing_in_threshold():
    means = []
    for db in (-6.0, -3.0, 0.0, 3.0, 6.0):
        dist = sinr_coverage(sir_params(10 ** (db / 10)))
        means.append(mean_coverage(dist))
    assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))


def test_sinr_mean_equals_s1_with_noise():
    # W > 0 exercises the I special function at a positive argument
    params = sir_params(0.8, noise_W=0.5)
    dist = sinr_coverage(params)
    assert mean_coverage(dist) == pytest.approx(dist.meta["sn"][0], abs=1e-6)


def closed_form_mean(tau, beta):
    """E[N] = tau^(-alpha) sin(pi alpha) / (pi alpha), alpha = 2/beta, without noise."""
    alpha = 2.0 / beta
    return tau ** (-alpha) * math.sin(math.pi * alpha) / (math.pi * alpha)


@pytest.mark.parametrize("beta", [3.0, 4.0])
def test_sinr_mean_matches_closed_form_down_to_minus_20_db(beta):
    # nmax = 1 from 0 dB up, where S_1 = E[N] is taken in closed form
    for db in (-20, -17, -14, -13, -10, -6, -3, -1, 0, 4, 12, 40):
        tau = 10 ** (db / 10)
        dist = sinr_coverage(sir_params(tau, beta))
        assert mean_coverage(dist) == pytest.approx(closed_form_mean(tau, beta), rel=1e-12), db
        assert dist.meta["pmf_error_estimate"] <= 1e-12, db
        if db <= -14:
            assert dist.kmax == math.ceil(1.0 / tau)
            assert max(dist.meta["sn_error_estimates"]) <= 1e-12, db


# (nmax, m, coarse): the first and last support bound of each rung of the node rule
INVERSION_SIZES = [
    (3, 32, 24), (13, 32, 24), (14, 48, 32), (40, 48, 32), (41, 64, 48), (66, 64, 48),
    (67, 80, 64), (100, 96, 80), (120, 96, 80), (121, 112, 96), (126, 112, 96), (159, 128, 112),
    (200, 144, 128), (226, 160, 144), (252, 176, 160), (253, 176, 160), (254, 192, 176),
    (280, 192, 176), (306, 208, 192), (307, 224, 208), (317, 224, 208), (320, 224, 208),
]


@pytest.mark.parametrize("nmax, m, coarse", [(1, 32, 24), (2, 32, 24)] + INVERSION_SIZES)
def test_inversion_sizes_follow_the_node_rule(nmax, m, coarse, monkeypatch):
    # m is the first rung of 32, 48, 64, ... at or above 24 + ceil(0.6 nmax); each
    # build runs m nodes, then coarse nodes, at m digits, and a build with nmax <= 2
    # takes S_1 and S_2 in closed form at m digits, with no inversion
    assert coverage._inversion_sizes(nmax) == (m, coarse)
    calls = []

    def record(ctx, alpha, s, n, nodes):
        calls.append((nodes, ctx.dps))
        return [ctx.zero] * n

    monkeypatch.setattr(coverage, "_pd_sn", record)
    params = sir_params(1.0 / (nmax - 0.5))
    assert params.nmax == nmax
    ctx = coverage._sn_with_errors(params)[0]
    assert ctx.dps == m
    assert calls == ([] if nmax <= 2 else [(m, m), (coarse, m)])


@pytest.mark.parametrize(
    "beta, db",
    [(3.0, -14), (3.0, -6), (3.0, -1), (3.0, -0.1), (3.0, -0.003)]
    + [(3.0, -20), (3.0, -17), (3.0, -5), (6.0, -20), (6.0, -17), (6.0, -9), (6.0, -5)]
    # one cell per rung from 80 nodes (nmax 80, 126, 159, 200, 224, 252, 270, 282, 317),
    # and the extreme alpha of the p_0 precision limit
    + [(3.0, -19), (4.0, -21), (6.0, -22), (3.0, -23), (4.0, -23.5), (2.5, -24), (2.5, -24.3)]
    + [(6.0, -24.5), (3.0, -25)]
    + [(2.05, -14), (2.05, -3), (20.0, -14), (20.0, -3)]
    # nmax 2 just below 0 dB, where an inversion converges slowest and beta >= 6
    # needs the closed form to build at all
    + [(3.0, -0.007), (5.0, -0.01), (2.5, -0.003), (6.0, -0.01), (8.0, -0.001)],
)
def test_sn_error_estimate_bounds_the_inversion_error(beta, db, monkeypatch):
    # the reference runs 40 more nodes at 40 more digits, or for nmax <= 2 the
    # closed forms of the oracle at 40 more digits; compared in mpmath, as float
    # rounding of S_n (~1e-16) would swamp errors of ~1e-30
    import mpmath

    params = sir_params(10 ** (db / 10), beta)
    real, counts = coverage._pd_sn, []
    monkeypatch.setattr(coverage, "_pd_sn", lambda *args: counts.append(args[-1]) or real(*args))
    ctx, sn, errs = coverage._sn_with_errors(params)
    monkeypatch.undo()
    ref_ctx = mpmath.MPContext()
    ref_ctx.dps = ctx.dps + 40
    if params.nmax <= 2:
        assert counts == [], counts
        ref = coverage_oracles.closed_form_s1_s2(ref_ctx, params.beta, params.tau)
    else:
        assert counts == list(coverage._inversion_sizes(params.nmax)), counts
        alpha = ref_ctx.mpf(2) / params.beta
        s = ref_ctx.mpf(params.tau) / (1 + ref_ctx.mpf(params.tau))
        ref = coverage._pd_sn(ref_ctx, alpha, s, params.nmax, ref_ctx.dps)
    for n, (value, err, exact) in enumerate(zip(sn, errs, ref), start=1):
        assert abs(ref_ctx.mpf(value) - exact) <= err, (db, n)


@pytest.mark.parametrize(
    "beta, db", [(beta, db) for beta in (2.5, 3.0, 6.0) for db in (-4, -10, -20)] + [(3.0, -25)]
)
def test_inverted_s1_and_s2_match_their_closed_forms(beta, db):
    # the inversion's first two S_n against the oracle's closed forms at 40 more
    # digits, each within the build's own estimate: a route that shares no code
    # with the inversion, down to the deepest threshold the model accepts
    import mpmath

    params = sir_params(10 ** (db / 10), beta)
    assert params.nmax >= 3
    ctx, sn, errs = coverage._sn_with_errors(params)
    ref_ctx = mpmath.MPContext()
    ref_ctx.dps = ctx.dps + 40
    exact = coverage_oracles.closed_form_s1_s2(ref_ctx, params.beta, params.tau)
    for n in (1, 2):
        assert abs(ref_ctx.mpf(sn[n - 1]) - exact[n - 1]) <= errs[n - 1], n


def assert_node_gammas(params, reference):
    """Each node value of both inversions of the build of params that reference(k, m)
    names lies within 2^(8 - prec) relative of that reference at 30 more digits, at
    the exact product s p_k the series runs on: mpmath's incomplete gamma
    ("gammainc") or the earlier 1F1 form ("1f1"). For
    nmax <= 2, whose builds invert nothing, the two node sets of the first rung."""
    import mpmath

    digits, coarse = coverage._inversion_sizes(params.nmax)  # a build's digits, its two node counts
    ctx = mpmath.MPContext()
    ctx.dps = digits
    ref = mpmath.MPContext()
    ref.dps = ctx.dps + 30
    alpha = ctx.mpf(2) / params.beta
    s = ctx.mpf(params.tau) / (1 + ctx.mpf(params.tau))
    for m in (digits, coarse):
        nodes = coverage._talbot_nodes(m, ctx.prec)[1]
        zs = [ref.convert(s) * ref.make_mpc(p) for p, _, _ in nodes]
        kinds = [reference(k, m) for k in range(m)]
        if "1f1" in kinds:
            oracle = coverage_oracles.node_gammas_1f1(ref, ref.convert(alpha), zs)
        values = coverage._node_gammas(ctx, alpha, s, nodes)
        for k, (kind, z, value) in enumerate(zip(kinds, zs, values)):
            if kind is not None:
                exact = ref.gammainc(-ref.convert(alpha), z) if kind == "gammainc" else oracle[k]
                bound = abs(exact) * ref.ldexp(1, 8 - ctx.prec)
                assert abs(ref.make_mpc(value) - exact) <= bound, (params.tau, m, k, kind)


@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0, 6.0])
def test_node_gammas_match_mpmath_gammainc(beta):
    # the one check of Gamma(-alpha, z) that does not go through _pd_sn, at every node
    # of both inversions of a build: mpmath's own incomplete gamma at 30 more digits at
    # the first and the last node, and the 1F1 form, which shares no code with the
    # series, at the same digits in between; -3.02 and -3.5 dB are the shallowest
    # builds that invert (nmax 3)
    for db in (-3.02, -3.5, -6, -14, -20):
        assert_node_gammas(
            sir_params(10 ** (db / 10), beta),
            lambda k, m: "gammainc" if k in (0, m - 1) else "1f1",
        )


@pytest.mark.parametrize("beta, db", [(2.5, -0.01), (6.0, -0.01), (2.5, -3.02), (3.0, -25)])
def test_node_gammas_match_mpmath_gammainc_where_the_guards_peak(beta, db):
    # -3.02 dB (nmax 3, 32 nodes) has the largest Re z (~4.3) at node 0 of any build,
    # the largest cancellation against Gamma(-alpha), and the largest |z| (~130) at
    # the last node; just below 0 dB, where no build inverts since S_2 is taken in
    # closed form, the first rung's nodes reach further (~6.4 and ~200); -25 dB runs
    # 224 nodes at 224 digits, the most terms per node
    assert_node_gammas(
        sir_params(10 ** (db / 10), beta),
        lambda k, m: "gammainc" if k % 16 == 0 or k == m - 1 else None,
    )


def test_node_gammas_rerun_a_node_whose_scale_fell_short(monkeypatch):
    # an estimate of |Gamma(-alpha, z)| 2^64 too large sets every scale 64 bits short;
    # each node must find that from its result and rerun, or miss the reference by 2^64
    real = coverage._log2_gamma_estimate
    monkeypatch.setattr(coverage, "_log2_gamma_estimate", lambda z, a: real(z, a) + 64.0)
    assert_node_gammas(
        sir_params(10 ** (-1 / 10), 3.0),
        lambda k, m: "gammainc" if k in (0, m - 1) else "1f1",
    )


def test_talbot_nodes_are_cached_per_precision():
    # one node count at the digits of a build (48) and of the m + 40 reference of the
    # error-estimate test (88): a key blind to the precision would hand one the other's nodes
    import mpmath

    def sn(dps):
        ctx = mpmath.MPContext()
        ctx.dps = dps
        alpha = ctx.mpf(2) / 3
        s = ctx.mpf(0.25) / (1 + ctx.mpf(0.25))
        return coverage._pd_sn(ctx, alpha, s, 4, 48)

    cold = {}
    for dps in (48, 88):
        coverage._talbot_nodes.cache_clear()
        cold[dps] = sn(dps)
    coverage._talbot_nodes.cache_clear()
    for dps in (48, 88, 48, 88):
        assert sn(dps) == cold[dps], dps  # mpf equality is exact
    assert coverage._talbot_nodes.cache_info().hits == 2


def test_pmf_errors_match_the_binomial_sums():
    # Pascal's rule gives C(n, k) exactly, and each sum is exact, so every estimate
    # equals the fsum of math.comb products bit for bit
    rng = np.random.default_rng(28)
    for nmax in (1, 2, 7, 100, 317):
        errs = (10.0 ** rng.uniform(-300, 0, nmax)).tolist()
        expected = [
            math.fsum(math.comb(n, k) * errs[n - 1] for n in range(1, nmax + 1)) for k in range(nmax + 1)
        ]
        assert coverage._pmf_errors(errs) == expected, nmax


def test_cached_contexts_keep_their_precision():
    # every build at a digit count shares one mpmath context; a noisy build (32
    # digits), then W = 0 builds at 32 and 48 digits (nmax 26) must leave each at its
    # precision, and rebuilding them in reverse must give the same bytes
    import mpmath

    builds = [sir_params(10 ** (-6 / 10), noise_W=0.01), sir_params(10 ** (-6 / 10)), sir_params(1 / 25.5)]
    first = [sinr_coverage(params) for params in builds]
    for dps in (32, 48):
        fresh = mpmath.MPContext()
        fresh.dps = dps
        assert (coverage._context(dps).dps, coverage._context(dps).prec) == (dps, fresh.prec)
    assert coverage._sn_with_errors(builds[2])[0] is coverage._context(48)
    again = [sinr_coverage(params) for params in reversed(builds)][::-1]
    for a, b in zip(first, again):
        assert a.pmf.tobytes() == b.pmf.tobytes()
        assert a.meta == b.meta


def test_a_second_pass_over_the_sinr_sweep_grid_misses_no_cache():
    # the benchmark's SIR grid (beta = 3, -14..12 dB) runs at two digit counts with four
    # (count, precision) node sets, as many as under the earlier max(48, 24 + nmax)
    # nodes; from empty caches one pass fills them, and a second, shuffled, misses none
    caches = [coverage._context, coverage._talbot_nodes, coverage._power_slots]
    caches += [coverage._gamma_int, coverage._reciprocals]
    for cache in caches:
        cache.cache_clear()
    grid = list(range(-14, 13))
    for db in grid:
        sinr_coverage(sir_params(10 ** (db / 10)))
    assert [cache.cache_info().currsize for cache in caches[:3]] == [2, 4, 4]
    misses = [cache.cache_info().misses for cache in caches]
    for db in np.random.default_rng(30).permutation(grid).tolist():
        sinr_coverage(sir_params(10 ** (db / 10)))
    assert [cache.cache_info().misses for cache in caches] == misses


# S_n and pmf of SIR builds (beta = 3), as float.hex strings: -1 dB takes S_1 and S_2
# in closed form, -20 dB runs 96 nodes at 96 digits
PINNED_SIR = {
    -1: (
        "0x1.edac130b77282p-2 0x1.4ca0a4af5ca06p-10",
        "0x1.09d046cc9c1a4p-1 0x1.eb12d1c2186eep-2 0x1.4ca0a4af5ca06p-10",
    ),
    -6: (
        "0x1.09e5677323defp+0 0x1.8313bed8b684cp-3 0x1.7df9e0f6221ffp-8 0x1.dae47351b7278p-18",
        "0x1.27fc6a00cd1f9p-3 0x1.5b3114f6caa4ep-1 0x1.5f5a94770b265p-3 0x1.7c1efc82d068dp-8 "
        "0x1.dae47351b7278p-18",
    ),
    -14: (
        "0x1.c5f5274f8644cp+1 0x1.7e676447a7357p+2 0x1.948159e5b5f9ep+2 0x1.2254781038a33p+2 "
        "0x1.2643e143506eep+1 0x1.ae28de3e01f2fp-1 0x1.c9f4800c3c8cfp-3 0x1.63cb7190b4e1bp-5 "
        "0x1.91bf17522130bp-8 0x1.466aa5ee886a5p-11 0x1.77d2af76b0eabp-15 0x1.2c117df966878p-19 "
        "0x1.42f2fa53dffe0p-24 0x1.c3786da554a99p-30 0x1.86b0deb15a9d6p-36 0x1.893704bfd2667p-43 "
        "0x1.a7d0c5bffee55p-51 0x1.b5ab008a75f04p-60 0x1.7310a02f90089p-70 0x1.9d587cb0ffc03p-82 "
        "0x1.af0bb1cc9ef96p-96 0x1.e3a8a5dce7594p-113 -0x1.329505f6faf2dp-124 0x1.4709d6861c623p-125 "
        "0x1.1c69ae9940033p-125 -0x1.542a423b9559dp-124",
        "0x1.d8ace145e4d8ep-18 0x1.106ba1c6339a1p-3 0x1.5d16032af866ap-3 0x1.9ea43b9d070c0p-3 "
        "0x1.9eac0ab6e43dfp-3 0x1.3fdb93868324cp-3 0x1.688ffe665c9f2p-4 0x1.20e9848eb8d34p-5 "
        "0x1.4462ca1d4ac3dp-7 0x1.f92c54eb1b5bbp-10 0x1.0de7b4ee62180p-12 0x1.8668636af1218p-16 "
        "0x1.773ba76a744bep-20 0x1.d395ddebab0a5p-25 0x1.6d86ab2d616b2p-30 0x1.5746de556d75cp-36 "
        "0x1.6d9441e397a7ap-43 0x1.988cafde5f8a1p-51 0x1.aecd3c2451138p-60 0x1.710c49f8661b9p-70 "
        "0x1.9ccb0f04a3039p-82 0x1.af0d93e81564ep-96 0x0.0p+0 0x1.c29d823cd6015p-113 "
        "0x0.0p+0 0x1.18d3fc8ace590p-119 0x0.0p+0",
    ),
    -20: (
        "0x1.1d128f96de418p+3 0x1.76e06335f29fdp+5 0x1.64d9587b1d126p+7 0x1.08eab28d54cd0p+9 "
        "0x1.4041ffb1ca5eep+10 0x1.44324f4f784e3p+11 0x1.1846adaeed530p+12 0x1.a3ee6081efbb9p+12 "
        "0x1.13a73e2d65703p+13 0x1.3fe5dc03c2cdfp+13 0x1.4a7cfda3bf728p+13 0x1.31b402914010ap+13 "
        "0x1.fccbb27338881p+12 0x1.7e6ecf72f8b1ap+12 0x1.0481ac852c6f3p+12 0x1.428bb5b0c1e1bp+11 "
        "0x1.6bd115e9e75e3p+10 0x1.769ac8a39c6fep+9 0x1.60b380425d0dfp+8 0x1.30187c42b8116p+7 "
        "0x1.e0c4a99b509c8p+5 0x1.5cc84cbb2756ap+4 0x1.d0cf6a5737ffep+2 0x1.1ca6d21dcd10dp+1 "
        "0x1.40945324f1b1ap-1 0x1.4c170d8cb4297p-3 0x1.3c7d9a7984127p-5 0x1.1583319423cf9p-7 "
        "0x1.bfbed16be221ap-10 0x1.4c4282d72d57dp-12 0x1.c57d142ca6281p-15 0x1.1c7eb90a419b8p-17 "
        "0x1.47fc7deb7f6e2p-20 0x1.5b3d292bbe2dep-23 0x1.515d01eef8aebp-26 0x1.2c8e5ef58a0e5p-29 "
        "0x1.eaa2c9f761578p-33 0x1.6e885014167ecp-36 0x1.f4b1fec1de90ep-40 0x1.384b888f0e12bp-43 "
        "0x1.634a31a38a0acp-47 0x1.701d6ece2f6ccp-51 0x1.5ad1e35310a9bp-55 0x1.28a3a9e2dace3p-59 "
        "0x1.cbd9f7db25176p-64 0x1.4264295d2ab21p-68 0x1.9809356d15c12p-73 0x1.d1237cbd03009p-78 "
        "0x1.dc73315f23356p-83 0x1.b56f8860cc7b0p-88 0x1.6702f2ece7fb7p-93 0x1.06a2d46a10eafp-98 "
        "0x1.5577d271ba997p-104 0x1.8939880350089p-110 0x1.8faba1036f57fp-116 0x1.653119875a0ffp-122 "
        "0x1.1791f1a7bf18cp-128 0x1.7d9d5fbb5fdcbp-135 0x1.c4213ffd8167cp-142 0x1.cea419749ad9dp-149 "
        "0x1.96abffbf34f1dp-156 0x1.3152f35b9ee1dp-163 0x1.85288ee336743p-171 0x1.a236462fb55c4p-179 "
        "0x1.78333339219dbp-187 0x1.190bb4055ca01p-195 0x1.59c5f075f0590p-204 0x1.5b0d6f4903bc0p-213 "
        "0x1.194f7a00d416dp-222 0x1.6c3be39f7d7e1p-232 0x1.73ef46cd229d6p-242 0x1.d2d22281e1750p-252 "
        "-0x1.365f21f9c1529p-253 0x1.0faafc3abf200p-253 -0x1.c8f1a648b0d47p-254 0x1.70fd179326245p-254 "
        "-0x1.1cbedbd8c2196p-254 0x1.9ffda04448b74p-255 -0x1.1a36f4b8cc587p-255 0x1.54e13ac39017bp-256 "
        "-0x1.43d0889670e35p-257 0x1.9202a8504be8cp-260 0x1.27528523bfd59p-258 -0x1.18e1573a8d20ep-257 "
        "0x1.692d38902d8bbp-257 -0x1.90125e14dc013p-257 0x1.981d0a7a8feccp-257 -0x1.8a7337ae0fb03p-257 "
        "0x1.6ea55d989bf6ap-257 -0x1.4aad63d09a4a7p-257 0x1.230cd017e8219p-257 -0x1.f5fa94a5e29fap-258 "
        "0x1.a9526a5a1d72ep-258 -0x1.62c9c172e9755p-258 0x1.23c6d4b6094dep-258 -0x1.d992029bbc625p-259 "
        "0x1.7b679a78a6e97p-259 -0x1.2c12e481e9400p-259 0x1.d45998ee29968p-260 -0x1.6840759ef844cp-260",
        "0x1.19edbec039f41p-68 0x1.86f35f7ef0dc1p-5 0x1.a8e5ac1b80c71p-5 0x1.cad7f8b810b02p-5 "
        "0x1.ebb2bbb4fab9cp-5 0x1.05099b6f38116p-4 0x1.1225bbb64508ap-4 0x1.1c35f1f580969p-4 "
        "0x1.222d564d4f813p-4 0x1.22feb962a5304p-4 0x1.1dbc0c721362ep-4 0x1.11bff6fc6a000p-4 "
        "0x1.fdbb592dd5c0fp-5 0x1.cb1bcb83a7731p-5 0x1.8e14940e09e19p-5 0x1.4a8bc5020b8efp-5 "
        "0x1.056bd18378e26p-5 0x1.87b486cf43f7dp-6 0x1.148482134a82ep-6 0x1.6e072cedb22eep-7 "
        "0x1.c42c024a26a93p-8 0x1.03939d14bbc6ap-8 0x1.13fb7514b01c1p-9 0x1.0edd532f93e99p-10 "
        "0x1.e97b1d98812e4p-12 0x1.963b056759947p-13 0x1.350f35608ddbbp-14 0x1.ae60017c68decp-16 "
        "0x1.11d7ba831be08p-17 0x1.3e10b6a930ea3p-19 0x1.50cd3f975018ap-21 0x1.44cfa32f12a87p-23 "
        "0x1.1d04607e3ae08p-25 0x1.c6b3e54f4a637p-28 0x1.496bd7df4f294p-30 0x1.b1200ab55ed05p-33 "
        "0x1.0223daf14195dp-35 0x1.16b1692205736p-38 0x1.103f75eca2293p-41 0x1.e0c77a2d13a1dp-45 "
        "0x1.7f49e643373f0p-48 0x1.138fe39513e4dp-51 0x1.64dd6a6833644p-55 0x1.9fad9d8f962c6p-59 "
        "0x1.b2dad6524e434p-63 0x1.97ed66ec961e9p-67 0x1.56900b0b70938p-71 0x1.010e7e6f1ae4bp-75 "
        "0x1.580f3ce229929p-80 0x1.99d782520854bp-85 0x1.b1832c8643e9bp-90 0x1.9633a165c3906p-95 "
        "0x1.5049c89d1fb6ap-100 0x1.ea9b0a14152c6p-106 0x1.3a5f84f394badp-111 0x1.60c9c60c14d43p-117 "
        "0x1.5977958cef4b9p-123 0x1.261bc83621068p-129 0x1.b19e065010b61p-136 0x1.1397d703855b7p-142 "
        "0x1.2c9fd5ae0ab78p-149 0x1.1853e4df0eb2ap-156 0x1.894bc67724706p-164 0x1.f93ab5be58bc1p-168 "
        "0x0.0p+0 0x1.1e7d7a595f037p-169 0x0.0p+0 0x1.272c3269e1705p-171 "
        "0x0.0p+0 0x1.fd8d75cfaf1a2p-174 0x0.0p+0 0x1.6e4021cf8ed76p-176 "
        "0x0.0p+0 0x1.b3527a6e4bc0ep-179 0x0.0p+0 0x1.a8367bd97fc2cp-182 "
        "0x0.0p+0 0x1.4f8513d27d1e8p-185 0x0.0p+0 0x1.a99634200ae12p-189 "
        "0x0.0p+0 0x1.aa931cc4a7e8dp-193 0x0.0p+0 0x1.4bd62a3c52671p-197 "
        "0x0.0p+0 0x1.87cabe4b93e8cp-202 0x0.0p+0 0x1.552304bffa305p-207 "
        "0x0.0p+0 0x1.a5f5767198a4ap-213 0x0.0p+0 0x1.603cd36a759c1p-219 "
        "0x0.0p+0 0x1.70c0078e35c9bp-226 0x0.0p+0 0x1.afd7825980eeep-234 "
        "0x0.0p+0 0x1.ce389f24a0973p-243 0x0.0p+0 0x1.1d1b0f160e48ep-253 "
        "0x0.0p+0",
    ),
}


@pytest.mark.parametrize("db", sorted(PINNED_SIR))
def test_sir_values_are_pinned(db):
    # a change to the node count or the digits that moves a value fails here
    dist = sinr_coverage(sir_params(10 ** (db / 10)))
    sn, pmf = PINNED_SIR[db]
    assert [v.hex() for v in dist.meta["sn"]] == sn.split()
    assert [float(v).hex() for v in dist.pmf] == pmf.split()


# S_n and pmf of SIR builds at other beta and with noise, as PINNED_SIR, keyed by
# (beta, dB, W): just below 0 dB, where an inversion converges slowest, S_2 is taken
# in closed form; beta = 2.5 has the largest 1/(1 - alpha); beta = 2.5 at -14 dB
# (nmax 26) and beta = 6 at -9 dB (nmax 8) hold the inversion to its bytes at two
# more alpha than beta = 3
PINNED_SIR_CELLS = {
    (2.5, -14, 0.0): (
        "0x1.8aa0fa21ad2afp+1 0x1.09abcfc68b2f5p+2 0x1.a316618a9a72ep+1 0x1.aa024dce1cd23p+0 "
        "0x1.24e4c01b61c56p-1 0x1.178a291cb7de9p-3 0x1.770f0e3ea034dp-6 0x1.62f4e88bf29fcp-9 "
        "0x1.d83391714d8b5p-13 0x1.b51ff385ebf62p-17 0x1.15121c9a3e52bp-21 0x1.d624180970db5p-27 "
        "0x1.02edf7ea7b93ep-32 0x1.63d4a61468144p-39 0x1.21aa518859554p-46 0x1.052410a18bd36p-54 "
        "0x1.dcf7561e6f751p-64 0x1.873a8aab4096ep-74 0x1.e7c5e8b34ae54p-86 0x1.6b2a0d41d7de3p-99 "
        "0x1.bf9a1f277d227p-115 0x1.05b2bd16261d9p-133 0x1.71152ca282504p-142 -0x1.4cf6e7a49ceb4p-139 "
        "0x1.c09569916fb69p-141 0x1.88752f47782f3p-141",
        "0x1.1212cb1b227dbp-9 0x1.0759e6e74f27ap-3 0x1.d25f69a164e39p-3 0x1.1a073c6d8b185p-2 "
        "0x1.b5cff9eb0f34ep-3 0x1.b83fd2df0a3a8p-4 0x1.243e893d4441dp-5 0x1.03d49d7bf848cp-7 "
        "0x1.37bd253007254p-10 0x1.f91c34e05ce02p-14 0x1.12c39beb6729ep-17 0x1.8c98ce9522530p-22 "
        "0x1.749bc0b60674cp-27 0x1.bbaa2aefeefe1p-33 0x1.42d50b25669d6p-39 0x1.11971b83dd83fp-46 "
        "0x1.fa8f16bbc64cfp-55 0x1.d61be52914c52p-64 0x1.84f7d666fbe74p-74 0x1.e6e2f9e44a81bp-86 "
        "0x1.6b05569eda17cp-99 0x1.bf5220aec8bacp-115 0x1.14878a24c005dp-127 0x0.0p+0 "
        "0x1.c13a5217f5377p-133 0x0.0p+0 0x1.88752f47782f3p-141",
    ),
    (6.0, -9, 0.0): (
        "0x1.a66ae631b5971p+0 0x1.b6aada1d127fap-1 0x1.e7f0be3ef3f6bp-3 0x1.131e7da0c0420p-5 "
        "0x1.0efe902f5b7d5p-9 0x1.55df7be92aa77p-15 0x1.0fbdc8731fbd0p-23 0x1.c8c0962911c46p-38",
        "0x1.1ab2cdc552716p-17 0x1.0dd81105ebc15p-1 0x1.4b3720413d2a7p-2 0x1.fb02045abf854p-4 "
        "0x1.86cf5a48ece01p-6 0x1.de95876fe87a7p-10 0x1.4e71af5825a24p-15 0x1.0fa13c69bd2bep-23 "
        "0x1.c8c0962911c46p-38",
    ),
    (6.0, -0.01, 0.0): (
        "0x1.a7bee670dc50fp-1 0x1.45ce19573f921p-18",
        "0x1.6106f1d8c16abp-3 0x1.a7bda0a2c2f9cp-1 0x1.45ce19573f922p-18",
    ),
    (2.5, -3, 0.0): (
        "0x1.a02d7c45736c9p-2 0x1.c48d77b4cda4fp-8",
        "0x1.33725cccafe50p-1 0x1.92091087ccff7p-2 0x1.c48d77b4cda4fp-8",
    ),
    (3.0, -10, 0.01): (
        "0x1.eb119d439bc25p+0 0x1.45130493c415cp+0 0x1.997a3001a7ca6p-2 0x1.f45a664e5300ap-5 "
        "0x1.186e9ada0c55ep-8 0x1.f990654d40bcep-14 0x1.1e5a731af069dp-20 0x1.fbe5b8330ff12p-30 "
        "0x1.ee9371bd7b2e0p-43 0x1.4e1bdea1f0fc3p-64",
        "0x1.1a8a259a24749p-7 0x1.6b1caf61877d1p-2 0x1.9524224f90a64p-2 0x1.9160266817e37p-3 "
        "0x1.5396f92eefcfap-5 0x1.d4fe578e9c080p-9 0x1.da7608c431410p-14 0x1.1a6332c3f87d7p-20 "
        "0x1.fb5a9ec9c1600p-30 0x1.ee930954c59b6p-43 0x1.4e1bdea1f0fc3p-64",
    ),
}


@pytest.mark.parametrize("beta, db, noise_W", sorted(PINNED_SIR_CELLS))
def test_sir_cells_are_pinned(beta, db, noise_W):
    dist = sinr_coverage(sir_params(10 ** (db / 10), beta, noise_W=noise_W))
    sn, pmf = PINNED_SIR_CELLS[beta, db, noise_W]
    assert [v.hex() for v in dist.meta["sn"]] == sn.split()
    assert [float(v).hex() for v in dist.pmf] == pmf.split()


def tensor_pmf(tau, beta, noise_W):
    """The pmf from S_n = tau_n^(-2n/beta) I_n(x) J_n(tau_n), J by tensor quadrature
    and I_n(x) as the closed-form I_n(0) times the noise factor."""
    params = sir_params(tau, beta, noise_W=noise_W)
    sn = []
    for n in range(1, params.nmax + 1):
        tau_n = tau / (1.0 - (n - 1) * tau)
        j_value, _ = special_J(n, beta, tau_n)
        i_n = closed_form_I_at_zero(n, beta) * noise_factor(n, beta, params.noise_argument)[0]
        sn.append(tau_n ** (-2.0 * n / beta) * i_n * j_value)
    pk = [
        math.fsum((-1) ** (n - k) * math.comb(n, k) * sn[n - 1] for n in range(k, len(sn) + 1))
        for k in range(1, len(sn) + 1)
    ]
    return [1.0 - math.fsum(pk)] + pk


@pytest.mark.parametrize("noise_W", [0.1, 0.5, 2.0])
def test_sinr_pmf_with_noise_matches_the_tensor_route(noise_W):
    for db in (-6, -3, 0, 3):  # nmax <= 4: J by the tensor rule alone
        tau = 10 ** (db / 10)
        dist = sinr_coverage(sir_params(tau, noise_W=noise_W))
        np.testing.assert_allclose(dist.pmf, tensor_pmf(tau, 3.0, noise_W), rtol=0, atol=1e-12)


@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0])
def test_noisy_sinr_builds_at_the_lowest_figure_threshold(beta):
    # the error of the noise factor, times C(n, k) over 100 terms, must stay below
    # the pmf error limit; at W = 0.01 the factor is 1 - d with a small d
    for noise_W in (1.0, 0.01):
        dist = sinr_coverage(sir_params(10 ** (-20 / 10), beta, noise_W=noise_W))
        assert dist.meta["pmf_error_estimate"] <= 1e-6, noise_W
        assert dist.pmf.size == 101


def test_sinr_without_noise_computes_no_I(monkeypatch):
    def no_I(n, beta, x):
        raise AssertionError("noise factor evaluated at W = 0")

    monkeypatch.setattr(coverage, "noise_factor", no_I)
    assert sinr_coverage(sir_params(0.5)).kmax == 2


def test_sinr_raises_when_the_propagated_pmf_error_is_too_large(monkeypatch):
    real = coverage.noise_factor

    def loose_I(n, beta, x):
        value, _ = real(n, beta, x)
        return value, 1e-5 * value  # as if the quadrature met only 1e-5

    monkeypatch.setattr(coverage, "noise_factor", loose_I)
    params = sir_params(10 ** (-9 / 10), noise_W=0.5)
    with pytest.raises(NumericalCancellationError, match="propagated error estimate"):
        sinr_coverage(params)


def sample_pd_coverage(alpha, s, size, rng):
    """Atoms above s of `size` PD(alpha, 0) draws by stick-breaking.

    V_i = B_i prod_{j<i} (1 - B_j) with B_i ~ Beta(1 - alpha, i alpha); a
    draw stops once the mass left is <= s, as no later atom can exceed s.
    """
    counts = np.zeros(size, dtype=np.int64)
    remaining = np.ones(size)
    live = np.arange(size)
    i = 1
    while live.size:
        atom = rng.beta(1.0 - alpha, i * alpha, size=live.size) * remaining
        remaining -= atom
        counts[live] += atom > s
        keep = remaining > s
        live, remaining = live[keep], remaining[keep]
        i += 1
    return counts


@pytest.mark.parametrize("db", [-6, -12, -14])
def test_sinr_pmf_matches_poisson_dirichlet_sampling(db):
    # an independent check of the law below the tensor oracle's reach
    tau, size = 10 ** (db / 10), 10_000
    pmf = sinr_coverage(sir_params(tau)).pmf
    counts = sample_pd_coverage(2.0 / 3.0, tau / (1.0 + tau), size, np.random.default_rng(db + 100))
    assert counts.max() <= pmf.size - 1
    observed = np.bincount(counts, minlength=pmf.size) / size
    big = pmf * size >= 5  # entries too small for a normal approximation are pooled
    expected = np.append(pmf[big], pmf[~big].sum())
    seen = np.append(observed[big], observed[~big].sum())
    z = (seen - expected) / np.sqrt(np.maximum(expected * (1.0 - expected), 1e-12) / size)
    assert np.max(np.abs(z)) < 4.0, z
