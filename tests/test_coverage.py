import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from geocache import (
    BooleanModelParams,
    CoverageDistribution,
    IntegrationConfig,
    ParameterError,
    SinrModelParams,
    boolean_coverage,
    mean_coverage,
    sinr_coverage,
    sinr_Sn,
    special_I,
    special_J,
)
from geocache import coverage
from geocache.coverage import _j_qmc_raw
from geocache.errors import GeocacheError, IntegrationError, NumericalCancellationError
from scipy.stats import qmc

CFG = IntegrationConfig()


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


def test_integration_config_holds_only_the_qmc_effort():
    assert [f.name for f in fields(IntegrationConfig)] == ["qmc_points", "qmc_replicates", "seed"]
    assert (CFG.gauss_nodes, CFG.tensor_dim_limit) == (48, 4)
    with pytest.raises(TypeError):
        IntegrationConfig(gauss_nodes=24)


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
    payload = dist.to_json_dict()
    back = CoverageDistribution.from_json_dict(payload)
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
            assert special_J(1, float(beta), x, CFG) == (1.0, 0.0)


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
        value, err = special_J(2, beta, x, CFG)
        assert value == pytest.approx(oracle(beta, x), rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_special_J_tensor_and_qmc_agree(n):
    beta, x = 3.0, 0.8
    tensor_value, tensor_err = special_J(n, beta, x, CFG)
    front = (1.0 + n * x) / n
    [(qmc_mean, qmc_err)] = _j_qmc_raw(n - 1, beta, [x], CFG, n_tag=n)
    qmc_value = front * qmc_mean
    budget = 3.0 * (tensor_err + front * qmc_err) + 1e-12
    assert abs(tensor_value - qmc_value) <= budget


def _seed_j_qmc_raw(d, beta, x, cfg, n_tag):
    """The one-x QMC estimator as first written, kept as a bitwise reference."""
    a = 2.0 / beta
    b = np.array([i * (2.0 / beta + 1.0) - 1.0 for i in range(1, d + 1)])
    scale = float(np.prod(1.0 / (b + 1.0)))
    inv_exp = 1.0 / (b + 1.0)
    npts = int(cfg.qmc_points)
    m2 = npts.bit_length() - 1
    estimates = []
    for rep in range(cfg.qmc_replicates):
        ss = np.random.SeedSequence([int(cfg.seed), int(n_tag), rep])
        engine = qmc.Sobol(d, scramble=True, seed=np.random.default_rng(ss))
        u = engine.random_base2(m2) if (1 << m2) == npts else engine.random(npts)
        v = u**inv_exp
        n = d + 1
        suffix, denom = 1.0, 1.0
        for i in range(n, 1, -1):
            denom = denom * (x + (1.0 - v[:, i - 2]) * suffix)
            suffix = suffix * v[:, i - 2]
        f = np.prod((1.0 - v) ** a, axis=1) / (denom * (x + suffix))
        estimates.append(scale * float(np.mean(f)))
    mean = math.fsum(estimates) / len(estimates)
    var = math.fsum((e - mean) ** 2 for e in estimates) / (len(estimates) - 1)
    return mean, math.sqrt(var / len(estimates))


@pytest.mark.filterwarnings("ignore:The balance properties")
@pytest.mark.parametrize("points", [1024, 1000])  # random_base2 and random draws
def test_j_qmc_sequence_form_matches_scalar_calls_bitwise(points):
    cfg = IntegrationConfig(qmc_points=points, qmc_replicates=3, seed=4)
    xs = [0.05, 0.3, 1.7, 0.3]
    for d in (5, 8):
        batch = _j_qmc_raw(d, 3.0, xs, cfg, n_tag=d + 1)
        singles = [_j_qmc_raw(d, 3.0, [x], cfg, n_tag=d + 1)[0] for x in xs]
        reference = [_seed_j_qmc_raw(d, 3.0, x, cfg, d + 1) for x in xs]
        assert batch == singles == reference


def test_special_J_decreases_in_argument():
    xs = np.linspace(0.05, 20.0, 12)
    vals = [special_J(2, 4.0, float(x), CFG)[0] for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_special_J_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        special_J(2, 3.0, 0.0, CFG)
    with pytest.raises(ParameterError):
        special_J(0, 3.0, 1.0, CFG)


# ---------------------------------------------------------------------------
# SINR model
# ---------------------------------------------------------------------------


def sir_params(tau, beta=3.0, **kw):
    return SinrModelParams(lam=1.0, tau=tau, beta=beta, **kw)


def test_sn_zero_when_tuple_infeasible():
    assert sinr_Sn(2, sir_params(1.0)) == 0.0
    assert sinr_Sn(3, sir_params(0.6)) == 0.0


def test_s1_reduces_to_special_I_at_unit_threshold():
    params = sir_params(1.0)
    assert sinr_Sn(1, params) == pytest.approx(special_I(1, 3.0, 0.0), rel=1e-12)


def test_sinr_single_term_above_zero_db():
    tau = 10 ** (3 / 10)  # 3 dB -> nmax = 1
    params = sir_params(tau)
    dist = sinr_coverage(params)
    assert dist.kmax == 1
    s1 = sinr_Sn(1, params)
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
    assert expected == pytest.approx(sinr_Sn(1, params), abs=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sn_equals_binomial_moment(n):
    # S_n is the expected number of n-subsets of covering stations:
    # S_n = sum_k C(k, n) p_k
    params = sir_params(10 ** (-6 / 10))
    dist = sinr_coverage(params)
    moment = math.fsum(
        math.comb(k, n) * p for k, p in enumerate(dist.pmf.tolist())
    )
    assert moment == pytest.approx(sinr_Sn(n, params), abs=1e-6)


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
    assert mean_coverage(dist) == pytest.approx(sinr_Sn(1, params), abs=1e-6)


# Small QMC effort: -13 dB fails its cancellation check at seed 1, -11 and
# -7 dB reach the QMC path (n >= 6), 0 and 3 dB have nmax = 1.
GRID_DB = (-13.0, -11.0, -7.0, 0.0, 3.0, -11.0)


def _grid_params(seed=1):
    cfg = IntegrationConfig(qmc_points=1024, qmc_replicates=2, seed=seed)
    return [sir_params(10 ** (db / 10), integration=cfg) for db in GRID_DB]


def _build(params):
    try:
        dist = sinr_coverage(params)
    except GeocacheError as exc:
        return type(exc), str(exc)
    return dist.pmf.tolist(), dist.meta


def test_sinr_grid_rows_equal_single_builds():
    grid = _grid_params()
    alone = [_build(p) for p in grid]
    with coverage._sinr_grid(grid):
        assert coverage._GRID_ROWS.get().keys() == set(grid)
        together = [_build(p) for p in grid]
    assert together == alone
    assert alone[0][0] is NumericalCancellationError
    assert len(alone[1][1]["sn"]) == 13 and alone[3][1]["nmax"] == 1
    for params, (_, meta) in zip(grid[1:], alone[1:]):
        assert meta["sn"] == [sinr_Sn(n, params) for n in range(1, params.nmax + 1)]


def test_sinr_grid_groups_models_and_leaves_nothing_behind():
    grid = _grid_params() + _grid_params(seed=2)
    with pytest.raises(KeyError):
        with coverage._sinr_grid(grid):
            assert len(coverage._GRID_ROWS.get()) == 10
            assert _build(grid[7]) == _build(replace(grid[7]))
            raise KeyError("leave the block early")
    assert coverage._GRID_ROWS.get() is None


def test_sinr_grid_keeps_the_first_failure_of_each_threshold(monkeypatch):
    real = coverage._special_I_with_error

    def failing(n, beta, x):
        if n in (6, 8):
            raise IntegrationError(f"forced at n = {n}", achieved_error=1.0)
        return real(n, beta, x)

    monkeypatch.setattr(coverage, "_special_I_with_error", failing)
    grid = _grid_params()
    with coverage._sinr_grid(grid):
        outcomes = [_build(p) for p in grid]
    assert outcomes == [_build(p) for p in grid]
    assert outcomes[:3] == [(IntegrationError, "forced at n = 6")] * 3
    assert outcomes[3][1]["nmax"] == 1
