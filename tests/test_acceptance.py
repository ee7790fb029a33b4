"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from geocache import (
    CoverageDistribution,
    GeneralPolicy,
    PopularityDistribution,
    SinrModelParams,
    greedy_disjoint,
    greedy_general,
    hit_probability_general,
    hit_probability_structured,
    independent_caching,
    mean_coverage,
    most_popular,
    simulate_boolean_ppp,
    simulate_hits,
    sinr_coverage,
    solve_dp,
    special_J,
    zipf,
)
from geocache.cli import ExperimentConfig, main, run_sweep
from geocache.oracle import brute_general, brute_structured
from geocache.simulate import poisson_gof_pvalue

from conftest import closed_form_I_at_zero, random_coverage, random_popularity


def _criterion(num, label, ok, detail=""):
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_dp_matches_exhaustive_search():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        J = int(rng.integers(2, 13))
        L = int(rng.integers(1, 5))
        pop = random_popularity(rng, J)
        dist = random_coverage(rng)
        gap = abs(solve_dp(pop, dist, L).hit_prob - brute_structured(pop, dist, L).hit_prob)
        worst = max(worst, gap)
    elapsed = time.time() - t0
    _criterion(
        1,
        "dp-equals-exhaustive-structured",
        worst < 1e-12 and elapsed < 60.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s over 500 fixtures",
    )


def test_criterion_02_general_optimum_is_structured():
    rng = np.random.default_rng(102)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        J = int(rng.integers(2, 7))
        L = int(rng.integers(1, 3))
        pop = random_popularity(rng, J)
        dist = random_coverage(rng)
        gap = abs(brute_general(pop, dist, L).hit_prob - brute_structured(pop, dist, L).hit_prob)
        worst = max(worst, gap)
    elapsed = time.time() - t0
    _criterion(
        2,
        "general-equals-structured-optimum",
        worst < 1e-12 and elapsed < 120.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s over 100 fixtures",
    )


def test_criterion_03_greedy_approximation_bound():
    rng = np.random.default_rng(103)
    violations = 0
    worst_margin = math.inf
    for _ in range(1000):
        J = int(rng.integers(2, 13))
        L = int(rng.integers(1, 4))
        pop = random_popularity(rng, J)
        dist = random_coverage(rng)
        optimum = solve_dp(pop, dist, L).hit_prob
        for K in (L, 2 * L):
            bound = (1.0 - math.exp(-L / K)) * optimum
            margin = greedy_general(pop, dist, K).hit_prob - bound
            worst_margin = min(worst_margin, margin)
            if margin < -1e-12:
                violations += 1
    _criterion(
        3,
        "greedy-1-minus-exp-bound",
        violations == 0,
        f"0 expected, {violations} violations; tightest slack {worst_margin:.3e}",
    )


def test_criterion_04_monotone_submodular_probes():
    rng = np.random.default_rng(104)
    violations = 0
    for _ in range(1000):
        J = int(rng.integers(2, 10))
        pop = random_popularity(rng, J)
        dist = random_coverage(rng)

        def rand_block():
            size = int(rng.integers(1, J + 1))
            return frozenset(int(j) + 1 for j in rng.choice(J, size=size, replace=False))

        def value(blocks):
            return hit_probability_general(GeneralPolicy(tuple(blocks)), pop, dist)

        small = [rand_block() for _ in range(int(rng.integers(1, 3)))]
        large = small + [rand_block() for _ in range(int(rng.integers(1, 3)))]
        extra = rand_block()
        f_small, f_large = value(small), value(large)
        if f_small > f_large + 1e-12:
            violations += 1
        gain_small = value(small + [extra]) - f_small
        gain_large = value(large + [extra]) - f_large
        if gain_small < gain_large - 1e-12:
            violations += 1
    _criterion(4, "hit-function-monotone-submodular", violations == 0,
               f"{violations} violations over 1000 probes")


def test_criterion_05_special_functions():
    ok = True
    details = []

    # J_1 == 1 exactly on a 20-point grid, no integration involved
    grid = [(beta, x) for beta in (2.5, 3.0, 3.5, 4.0, 5.0) for x in (0.01, 0.3, 1.0, 9.0)]
    assert len(grid) == 20
    exact = all(special_J(1, beta, x) == (1.0, 0.0) for beta, x in grid)
    ok &= exact
    details.append(f"J_1 grid exact: {exact}")

    # dual-route agreement for S_n: Laplace inversion vs
    # tau_n^(-2n/beta) I_n(0) J_n(tau_n) with the tensor-quadrature J
    worst_sigma = 0.0
    beta = 3.0
    for db in (-9.0, -6.5):  # nmax = 8 and 5
        tau = 10 ** (db / 10.0)
        meta = sinr_coverage(SinrModelParams(lam=1.0, tau=tau, beta=beta)).meta
        for n in (2, 3, 4, 5):
            tau_n = tau / (1.0 - (n - 1) * tau)
            scale = tau_n ** (-2.0 * n / beta) * closed_form_I_at_zero(n, beta)
            tensor_value, tensor_err = special_J(n, beta, tau_n)
            diff = abs(scale * tensor_value - meta["sn"][n - 1])
            budget = 3.0 * (scale * tensor_err + meta["sn_error_estimates"][n - 1]) + 5e-13
            worst_sigma = max(worst_sigma, diff / budget)
            ok &= diff <= budget
    details.append(f"dual-method worst diff/budget {worst_sigma:.2f}")

    _criterion(5, "special-functions", ok, "; ".join(details))


def test_criterion_06_sinr_moment_identity():
    ok = True
    details = []
    for db in (-6.0, -3.0, 0.0, 3.0):
        params = SinrModelParams(lam=1.0, tau=10 ** (db / 10.0), beta=3.0, noise_W=0.0)
        dist = sinr_coverage(params)
        first_moment = mean_coverage(dist)
        s1 = dist.meta["sn"][0]
        tolerance = max(1e-4, 5.0 * math.fsum(dist.meta["sn_error_estimates"]))
        gap = abs(first_moment - s1)
        ok &= gap <= tolerance
        ok &= dist.kmax == params.nmax and dist.tail_at(params.nmax + 1) == 0.0
        details.append(f"{db:+.0f}dB gap {gap:.1e}")
    _criterion(6, "sinr-first-moment-identity", ok, "; ".join(details))


def test_criterion_07_monte_carlo_agreement():
    rng = np.random.default_rng(107)
    ok = True
    worst_sigma = 0.0
    for i in range(20):
        J = int(rng.integers(4, 12))
        pop = random_popularity(rng, J)
        dist = random_coverage(rng)
        blocks = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, J + 1))
            blocks.append(frozenset(int(j) + 1 for j in rng.choice(J, size=size, replace=False)))
        policy = GeneralPolicy(tuple(blocks))
        analytic = hit_probability_general(policy, pop, dist)
        report = simulate_hits([policy], pop, dist, trials=10**5, seed=1000 + i)[0]
        sigma = max(report.stderr, 1e-12)
        worst_sigma = max(worst_sigma, abs(report.estimate - analytic) / sigma)
        ok &= abs(report.estimate - analytic) <= 4.0 * report.stderr

    mu = 2.0
    radius = math.sqrt(mu / math.pi)
    passes = 0
    for seed in range(100):
        emp = simulate_boolean_ppp(
            lam=1.0, radius=radius, window_side=10.0 * radius, trials=15000, seed=seed
        )
        if poisson_gof_pvalue(emp, mu) > 0.01:
            passes += 1
    ok &= passes >= 95
    _criterion(
        7,
        "monte-carlo-agreement",
        ok,
        f"hit sims worst {worst_sigma:.2f} sigma; chi-square {passes}/100 runs accepted",
    )


def test_criterion_08_boolean_sweep_reproduces_curve_ordering():
    t0 = time.time()
    ok = True
    details = []
    ind_report = []
    for gamma in (0.9, 0.56):
        rows, clean = run_sweep(ExperimentConfig(gamma=gamma))
        ok &= clean
        by_tau = {}
        for row in rows:
            by_tau.setdefault(row["tau_db"], {})[row["policy"]] = row
        assert len(by_tau) == 25  # -12..12 dB step 1
        worst_gap = math.inf
        for tau, cell in by_tau.items():
            onc = cell["onc"]["hit_prob"]
            ok &= onc >= cell["gdbnc"]["hit_prob"] - 1e-12
            ok &= onc >= cell["mp"]["hit_prob"] - 1e-12
            mc = cell["onc"]["mean_coverage"]
            if mc > 2.0:
                gap = onc - cell["mp"]["hit_prob"]
                worst_gap = min(worst_gap, gap)
                ok &= gap > 0.01
            better = onc >= cell["ind"]["hit_prob"]
            ind_report.append((gamma, tau, mc, onc - cell["ind"]["hit_prob"], better))
        details.append(f"gamma={gamma}: min ONC-MP gap above mean 2 is {worst_gap:.4f}")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    # recorded, not asserted: where ONC beats IND (expected at large coverage)
    for gamma in (0.9, 0.56):
        points = [p for p in ind_report if p[0] == gamma]
        wins = [p for p in points if p[4]]
        high = [p for p in points if p[2] > 5.0]
        high_wins = [p for p in high if p[4]]
        print(
            f"    onc-vs-ind report gamma={gamma}: onc >= ind at {len(wins)}/{len(points)} "
            f"points, {len(high_wins)}/{len(high)} with mean coverage > 5"
        )
    _criterion(
        8,
        "boolean-figure-sweep-ordering",
        ok,
        f"{'; '.join(details)}; {elapsed:.0f}s for both gammas",
    )


def test_sir_low_threshold_onc_vs_ind_report():
    # The paper's claim that onc beats ind at moderately high coverage, in
    # SIR: -12..-20 dB spans E[N] 2.6..8.9, the Boolean panels' range.
    # Each pmf is built once and serves both Zipf exponents.
    t0 = time.time()
    dists = {
        tau_db: sinr_coverage(SinrModelParams(lam=1.0, tau=10.0 ** (tau_db / 10.0), beta=3.0))
        for tau_db in range(-12, -21, -1)
    }
    for gamma in (0.9, 0.56):
        pop = zipf(40, gamma)
        gaps = []
        for tau_db, dist in dists.items():
            onc = solve_dp(pop, dist, 5).hit_prob
            assert onc >= greedy_disjoint(pop, dist, 5).hit_prob - 1e-12, (gamma, tau_db)
            assert onc >= most_popular(pop, dist, 5).hit_prob - 1e-12, (gamma, tau_db)
            gaps.append(onc - independent_caching(pop, dist, 5).hit_prob)
        # recorded, not asserted: the sign of onc - ind
        print(
            f"    SIR onc-vs-ind report gamma={gamma}: onc >= ind at "
            f"{sum(g >= 0.0 for g in gaps)}/{len(gaps)} points from -12 to -20 dB, "
            f"onc - ind from {min(gaps):.4f} to {max(gaps):.4f}"
        )
    print(f"    {time.time() - t0:.1f}s")


def test_criterion_09_single_coverage_regime_collapse():
    rng = np.random.default_rng(109)
    ok = True
    for case in range(30):
        J = int(rng.integers(2, 12))
        L = int(rng.integers(1, J + 1))
        pop = random_popularity(rng, J)
        q = 1.0 if case == 0 else float(rng.uniform(0.05, 1.0))
        dist = CoverageDistribution(pmf=np.array([1.0 - q, q]))
        values = [
            solve_dp(pop, dist, L).hit_prob,
            greedy_disjoint(pop, dist, L).hit_prob,
            greedy_general(pop, dist, L).hit_prob,
            most_popular(pop, dist, L).hit_prob,
        ]
        ok &= values.count(values[0]) == len(values)  # bitwise identical
        closed_form = pop.prefix[L] * dist.tail_at(1)  # mass of the L top items
        ok &= abs(values[0] - closed_form) < 1e-12
    _criterion(9, "single-coverage-collapse-to-mp", ok, "30 fixtures, exact equality")


def test_criterion_10_sweep_determinism(tmp_path):
    args = [
        "sweep",
        "--tau-db=-12:12:1",
        "--gamma", "0.9",
        "-J", "40",
        "-L", "5",
        "--trials", "10000",
        "--seed", "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(args + ["--output", str(a)])
    code_b = main(args + ["--output", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    _criterion(
        10,
        "sweep-byte-identical-rerun",
        code_a == 0 and code_b == 0 and identical,
        f"{len(a.read_bytes())} bytes compared",
    )
