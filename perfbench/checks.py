"""Correctness checks of one workload unit against the stored reference.

Rows are keyed by (panel, tau_db, policy), never by position or CSV bytes:
``run_sweep`` leaves NaN-coverage rows unordered, and the SINR values move
with the QMC seed. ``reference.json`` holds every row of every workload;
``make_reference.py`` rebuilds it.
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path

from geocache import coverage
from geocache.errors import GeocacheError, NumericalCancellationError

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

BOOLEAN_TOL = 1e-12  # deterministic solvers: hits may move by at most this
SINR_ERR_MULTIPLE = 3.0  # allowed |hit - ref| in units of the summed propagated error bounds
MC_Z = 5.0  # Monte Carlo estimate vs analytic hit, in binomial standard errors
PPP_PVALUE_FLOOR = 1e-6  # chi-square goodness of fit of the spatial PPP counts
EXPECTED_FAILURE = NumericalCancellationError.__name__


def row_key(panel: str, row: dict) -> str:
    return f"{panel}|{row['tau_db']!r}|{row['policy']}"


def hit_error_bound(sn_errors) -> float:
    """Error of any hit probability implied by the S_n error estimates.

    The tail is Pbar(k) = sum_{n>=k} (-1)^(n-k) C(n-1,k-1) S_n, so its error
    is at most sum_{n>=k} C(n-1,k-1) err(S_n). Every policy's hit is a
    combination sum_k w_k Pbar(k) with w >= 0 and sum w <= 1 (for ind,
    1 - G(1-b) = sum_k b (1-b)^(k-1) Pbar(k)), so the largest tail error
    bounds it.
    """
    nmax = len(sn_errors)
    return max(
        (
            math.fsum(math.comb(n - 1, k - 1) * sn_errors[n - 1] for n in range(k, nmax + 1))
            for k in range(1, nmax + 1)
        ),
        default=0.0,
    )


@contextlib.contextmanager
def sinr_tap(store: dict):
    """Record, per linear tau, each SINR build's S_n errors or its failure.

    ``run_sweep`` returns rows only; this is the one hook an untimed run
    keeps, so the SINR rows can be checked against their own error
    estimates. It does no timing.
    """
    original = coverage.sinr_coverage

    def tapped(params):
        try:
            dist = original(params)
        except GeocacheError as exc:
            store[params.tau] = type(exc).__name__
            raise
        store[params.tau] = list(dist.meta["sn_error_estimates"])
        return dist

    coverage.sinr_coverage = tapped
    try:
        yield store
    finally:
        coverage.sinr_coverage = original


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def rows_identical(first: dict, other: dict) -> list:
    """Problems where two units' rows differ; rows keyed, values compared exactly."""
    problems = []
    fields = ("tau_linear", "mean_coverage", "hit_prob", "sim_estimate", "sim_stderr")
    for panel, rows in first.items():
        a = {row_key(panel, r): r for r in rows}
        b = {row_key(panel, r): r for r in other[panel]}
        if a.keys() != b.keys():
            problems.append(f"{panel}: row keys differ between units")
            continue
        for key, row in a.items():
            if not all(_same(row[f], b[key][f]) for f in fields):
                problems.append(f"{key}: differs between units")
    return problems


def check_unit(workload, panels, unit: dict, reference: dict) -> list:
    """Problems found in one unit; an empty list means every check passed."""
    problems = []
    expected = reference[workload.name]
    for panel, config in panels:
        if not unit["ok"][panel]:
            problems.append(f"{panel}: run_sweep consistency flag is false")
        rows = unit["rows"][panel]
        keyed = {row_key(panel, r): r for r in rows}
        want = {k for k in expected if k.startswith(panel + "|")}
        if len(keyed) != len(rows) or keyed.keys() != want:
            problems.append(f"{panel}: rows do not match the reference grid x policies")
            continue
        for key, row in keyed.items():
            problems += _check_row(workload, config, key, row, expected[key], unit["sinr"])
    if workload.ppp and not unit["ppp_pvalue"] >= PPP_PVALUE_FLOOR:
        problems.append(f"ppp: goodness-of-fit p-value {unit['ppp_pvalue']!r} below {PPP_PVALUE_FLOOR}")
    return problems


def _check_row(workload, config, key, row, ref, sinr) -> list:
    hit = row["hit_prob"]
    if hit is None:
        outcome = sinr.get(row["tau_linear"]) if config.model == "sinr" else None
        if (
            row["tau_db"] in workload.expected_failures
            and math.isnan(row["mean_coverage"])
            and outcome == EXPECTED_FAILURE
        ):
            return []
        return [f"{key}: unexpected failure ({outcome or 'policy failed'})"]
    if not 0.0 <= hit <= 1.0:
        return [f"{key}: hit {hit!r} outside [0, 1]"]
    problems = []
    if config.model == "boolean":
        if abs(hit - ref["hit"]) > BOOLEAN_TOL:
            problems.append(f"{key}: hit {hit!r} vs reference {ref['hit']!r}")
    else:
        err = hit_error_bound(sinr[row["tau_linear"]])
        tol = SINR_ERR_MULTIPLE * (err + ref["err"]) + BOOLEAN_TOL
        if abs(hit - ref["hit"]) > tol:
            problems.append(f"{key}: hit {hit!r} vs reference {ref['hit']!r} beyond {tol:.3e}")
    if config.trials and row["policy"] != "ind":
        est = row["sim_estimate"]
        allowed = MC_Z * math.sqrt(hit * (1.0 - hit) / config.trials) + 1.0 / config.trials
        if est is None or abs(est - hit) > allowed:
            problems.append(f"{key}: Monte Carlo {est!r} vs analytic {hit!r} beyond {allowed:.3e}")
    return problems
