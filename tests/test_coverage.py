import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from geocache import (
    BooleanModelParams,
    CoverageDistribution,
    ParameterError,
    SinrModelParams,
    boolean_coverage,
    mean_coverage,
    sinr_coverage,
    special_I,
    special_J,
)
from geocache import coverage
from geocache.errors import NumericalCancellationError


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


def test_distribution_rejects_bad_pmf():
    with pytest.raises(ParameterError):
        CoverageDistribution(pmf=np.array([0.5, 0.2]))  # mass far from 1
    with pytest.raises(ParameterError):
        CoverageDistribution(pmf=np.array([1.2, -0.2]))


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


# ---------------------------------------------------------------------------
# special function I
# ---------------------------------------------------------------------------


def closed_form_I_at_zero(n, beta):
    g1 = math.gamma(1.0 - 2.0 / beta)
    g2 = math.gamma(1.0 + 2.0 / beta)
    return 2.0 ** (n - 1) / (beta ** (n - 1) * g1**n * g2**n)


def test_special_I_simple_value():
    assert special_I(1, 4.0, 0.0) == pytest.approx(2.0 / math.pi, rel=1e-9)


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("beta", [3.0, 4.0])
def test_special_I_matches_closed_form_at_zero(n, beta):
    assert special_I(n, beta, 0.0) == pytest.approx(
        closed_form_I_at_zero(n, beta), rel=1e-7
    )


def test_special_I_vanishes_for_large_argument():
    # decay is algebraic, roughly x^(-2n/beta - 2/beta)
    values = [special_I(2, 3.0, x) for x in (0.0, 1.0, 10.0, 1e3, 1e6, 1e9)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-12


def test_special_I_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        special_I(0, 3.0, 0.0)
    with pytest.raises(ParameterError):
        special_I(1, 2.0, 0.0)
    with pytest.raises(ParameterError):
        special_I(1, 3.0, -1.0)


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
    scale = tau_n ** (-2.0 * n / beta) * special_I(n, beta, 0.0)
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


def test_sn_zero_when_tuple_infeasible():
    # once (n-1) tau >= 1 no n stations can all reach tau: the support ends at nmax
    for tau, nmax in ((1.0, 1), (0.6, 2)):
        dist = sinr_coverage(sir_params(tau))
        assert dist.kmax == nmax and len(dist.meta["sn"]) == nmax


def test_s1_reduces_to_special_I_at_unit_threshold():
    params = sir_params(1.0)
    s1 = sinr_coverage(params).meta["sn"][0]
    assert s1 == pytest.approx(special_I(1, 3.0, 0.0), rel=1e-12)


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


def tensor_pmf(tau, beta, noise_W):
    """The pmf from S_n = tau_n^(-2n/beta) I_n(x) J_n(tau_n), J by tensor quadrature."""
    params = sir_params(tau, beta, noise_W=noise_W)
    sn = []
    for n in range(1, params.nmax + 1):
        tau_n = tau / (1.0 - (n - 1) * tau)
        j_value, _ = special_J(n, beta, tau_n)
        sn.append(tau_n ** (-2.0 * n / beta) * special_I(n, beta, params.noise_argument) * j_value)
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


def test_sinr_without_noise_computes_no_I(monkeypatch):
    def no_I(n, beta, x):
        raise AssertionError("I evaluated at W = 0")

    monkeypatch.setattr(coverage, "_special_I_with_error", no_I)
    assert sinr_coverage(sir_params(0.5)).kmax == 2


def test_sinr_raises_when_the_propagated_pmf_error_is_too_large(monkeypatch):
    real = coverage._special_I_with_error

    def loose_I(n, beta, x):
        value, _ = real(n, beta, x)
        return value, 1e-5 * value  # as if the quadrature met only 1e-5

    monkeypatch.setattr(coverage, "_special_I_with_error", loose_I)
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
