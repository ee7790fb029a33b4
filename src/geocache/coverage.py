"""Coverage-number distributions for the Boolean and SINR cellular models.

The coverage number N is the count of base-station cells covering a fixed
location. Everything downstream consumes only its pmf {p_k} and tail
Pbar(k) = Pr{N >= k}.

Boolean model: N is Poisson with parameter
    lam' = lam * pi * tau^(-2/beta) * (P/W)^(2/beta) / K^2,
the mean cell area times the station density (SNR >= tau disk radius).

SINR model: N has bounded support ceil(1/tau) and
    p_k = sum_{n=k}^{nmax} (-1)^(n-k) C(n,k) S_n(tau),
where S_n(tau) = tau_n^(-2n/beta) * I_{n,beta}(W a^(-beta/2)) * J_{n,beta}(tau_n)
is the expected number of n-tuples of stations jointly reaching SINR tau,
tau_n = tau / (1 - (n-1) tau), and a = lam * pi * E[(P S)^(2/beta)] / K^2.
The two special functions I and J are evaluated numerically here:
I by adaptive 1-D quadrature, J by tensor Gauss-Jacobi quadrature in low
dimension and by randomized low-discrepancy (Sobol) sampling above it.

A sweep over thresholds builds every S_n of its grid in one pass over n:
I_n once per n, and each (n, replicate) Sobol point set drawn once and
shared by all of that n's tau_n (``_sinr_grid``); the values are bitwise
those of one threshold at a time.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import integrate
from scipy.special import roots_jacobi
from scipy.stats import poisson, qmc

from .errors import GeocacheError, IntegrationError, NumericalCancellationError, ParameterError

__all__ = [
    "CoverageDistribution",
    "BooleanModelParams",
    "SinrModelParams",
    "IntegrationConfig",
    "boolean_coverage",
    "special_I",
    "special_J",
    "sinr_Sn",
    "sinr_coverage",
    "mean_coverage",
]

MASS_CUTOFF = 1e-12  # the Boolean pmf ends where the tail mass Pr{N > k} drops below this
I_REL_TOL = 1e-9  # relative tolerance of the adaptive quadrature of I

# Full tensor grids above ~250k points thrash memory bandwidth; chunk the
# leading axis instead of materializing them (values are unchanged).
_TENSOR_CHUNK_LIMIT = 300_000


# ---------------------------------------------------------------------------
# Coverage-number distribution container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageDistribution:
    """Distribution of the coverage number N on 0..kmax.

    ``pmf[k] = Pr{N = k}`` and ``tail[k] = Pr{N >= k}`` for k = 0..kmax+1;
    the tail is rebuilt by backward exact-rounded summation so that deep
    tail values keep full relative accuracy. Beyond kmax the tail is zero.
    """

    pmf: np.ndarray
    tail: np.ndarray = field(init=False, repr=False, compare=False)
    model_label: str = "custom"
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size < 1:
            raise ParameterError("coverage pmf must be a nonempty 1-D vector")
        if not np.all(np.isfinite(pmf)):
            raise ParameterError("coverage pmf must be finite")
        if np.any(pmf < -1e-12) or np.any(pmf > 1.0 + 1e-12):
            raise ParameterError("coverage pmf entries must lie in [0, 1]")
        pmf = np.clip(pmf, 0.0, 1.0)
        total = math.fsum(pmf.tolist())
        if not (0.0 < total):
            raise ParameterError("coverage pmf must have positive mass")
        if abs(total - 1.0) > 1e-6:
            raise ParameterError(f"coverage pmf sums to {total!r}, expected 1")
        pmf = pmf / total
        values = pmf.tolist()
        tail = np.empty(pmf.size + 1)
        tail[-1] = 0.0
        for k in range(pmf.size - 1, -1, -1):
            tail[k] = math.fsum(values[k:])
        pmf.flags.writeable = False
        tail.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "tail", tail)

    @property
    def kmax(self) -> int:
        return int(self.pmf.size - 1)

    def tail_at(self, k: int) -> float:
        """Pr{N >= k}; zero beyond the stored support."""
        if k < 0:
            return 1.0
        if k >= self.tail.size:
            return 0.0
        return float(self.tail[k])

    def tail_array(self, upto: int) -> np.ndarray:
        """Tail values Pbar(0..upto) as a dense vector (zero-padded)."""
        out = np.zeros(upto + 1)
        m = min(upto + 1, self.tail.size)
        out[:m] = self.tail[:m]
        return out

    def to_json_dict(self) -> dict:
        return {
            "model_label": self.model_label,
            "pmf": self.pmf.tolist(),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CoverageDistribution":
        return cls(
            pmf=np.asarray(payload["pmf"], dtype=float),
            model_label=payload.get("model_label", "custom"),
            meta=dict(payload.get("meta", {})),
        )


def mean_coverage(dist: CoverageDistribution) -> float:
    """E[N] = sum_k k * p_k."""
    return math.fsum(k * p for k, p in enumerate(dist.pmf.tolist()))


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BooleanModelParams:
    """Noise-limited Boolean model parameters (all linear units)."""

    lam: float
    tau: float
    beta: float
    K: float = 1.0
    power_ratio: float = 1.0  # P/W; must be finite for the Boolean model

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ParameterError(f"station density must be positive, got {self.lam}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ParameterError(f"threshold must be positive and finite, got {self.tau}")
        if not (self.beta > 2.0 and math.isfinite(self.beta)):
            raise ParameterError(f"path-loss exponent must exceed 2, got {self.beta}")
        if not (self.K > 0.0 and math.isfinite(self.K)):
            raise ParameterError(f"path-loss constant must be positive, got {self.K}")
        if not (self.power_ratio > 0.0 and math.isfinite(self.power_ratio)):
            raise ParameterError(
                "P/W must be positive and finite for the Boolean model; "
                f"got {self.power_ratio}"
            )

    @property
    def poisson_parameter(self) -> float:
        """lam' = lam * pi * tau^(-2/beta) * (P/W)^(2/beta) / K^2."""
        e = 2.0 / self.beta
        return self.lam * math.pi * self.tau ** (-e) * self.power_ratio**e / self.K**2


@dataclass(frozen=True)
class IntegrationConfig:
    """QMC effort for J. The tensor rule is fixed: class constants, not fields."""

    gauss_nodes = 48  # Gauss-Jacobi nodes per dimension
    tensor_dim_limit = 4  # largest dimension of the tensor rule; QMC above
    qmc_points: int = 2**17
    qmc_replicates: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("qmc_points", "qmc_replicates"):
            if int(getattr(self, name)) < 1:
                raise ParameterError(f"{name} must be >= 1")


@dataclass(frozen=True)
class SinrModelParams:
    """SINR model parameters; moment_PS = E[(P*S)^(2/beta)] (1 = no shadowing)."""

    lam: float
    tau: float
    beta: float
    K: float = 1.0
    noise_W: float = 0.0
    moment_PS: float = 1.0
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ParameterError(f"station density must be positive, got {self.lam}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ParameterError(f"threshold must be positive and finite, got {self.tau}")
        if not (self.beta > 2.0 and math.isfinite(self.beta)):
            raise ParameterError(f"path-loss exponent must exceed 2, got {self.beta}")
        if not (self.K > 0.0 and math.isfinite(self.K)):
            raise ParameterError(f"path-loss constant must be positive, got {self.K}")
        if not (self.noise_W >= 0.0 and math.isfinite(self.noise_W)):
            raise ParameterError(f"noise power must be >= 0, got {self.noise_W}")
        if not (self.moment_PS > 0.0 and math.isfinite(self.moment_PS)):
            raise ParameterError(f"moment_PS must be positive, got {self.moment_PS}")

    @property
    def a(self) -> float:
        """Propagation constant a = lam * pi * E[(PS)^(2/beta)] / K^2."""
        return self.lam * math.pi * self.moment_PS / self.K**2

    @property
    def nmax(self) -> int:
        """Support bound: the coverage number never exceeds ceil(1/tau)."""
        return max(1, math.ceil(1.0 / self.tau))

    @property
    def noise_argument(self) -> float:
        """Argument W * a^(-beta/2) fed to the I special function."""
        return self.noise_W * self.a ** (-self.beta / 2.0)


# ---------------------------------------------------------------------------
# Boolean model
# ---------------------------------------------------------------------------


def boolean_coverage(params: BooleanModelParams) -> CoverageDistribution:
    """Poisson coverage-number distribution, truncated at tail mass < MASS_CUTOFF."""
    mu = params.poisson_parameter
    if not math.isfinite(mu):
        raise ParameterError(f"Poisson parameter is not finite: {mu}")

    # smallest kmax with Pr{N > kmax} < cutoff
    kmax = max(0, int(poisson.isf(MASS_CUTOFF, mu)))
    while poisson.sf(kmax, mu) >= MASS_CUTOFF:
        kmax += 1
    while kmax > 0 and poisson.sf(kmax - 1, mu) < MASS_CUTOFF:
        kmax -= 1

    pmf = poisson.pmf(np.arange(kmax + 1), mu)
    return CoverageDistribution(
        pmf=pmf,
        model_label="boolean",
        meta={
            "lambda": params.lam,
            "tau": params.tau,
            "beta": params.beta,
            "K": params.K,
            "power_ratio": params.power_ratio,
            "poisson_parameter": mu,
            "mass_cutoff": MASS_CUTOFF,
        },
    )


# ---------------------------------------------------------------------------
# SINR special functions
# ---------------------------------------------------------------------------


def _special_I_with_error(n, beta, x):
    if n < 1:
        raise ParameterError(f"order n must be >= 1, got {n}")
    if not (beta > 2.0):
        raise ParameterError(f"path-loss exponent must exceed 2, got {beta}")
    if not (x >= 0.0):
        raise ParameterError(f"argument must be >= 0, got {x}")

    lg1 = math.lgamma(1.0 - 2.0 / beta)
    lg2 = math.lgamma(1.0 + 2.0 / beta)
    # log prefactor: 2^n / (beta^(n-1) G(1-2/b)^n G(1+2/b)^n (n-1)!)
    log_pref = n * math.log(2.0) - (n - 1) * math.log(beta) - n * (lg1 + lg2) - math.lgamma(n)
    c = math.exp(-beta / 2.0 * lg1)  # Gamma(1-2/beta)^(-beta/2)

    two_n_m1 = 2 * n - 1

    def integrand(t):
        # u = t/(1-t) maps (0,1) -> (0,inf); evaluate in log domain
        if t <= 0.0 or t >= 1.0:
            return 0.0
        u = t / (1.0 - t)
        logf = two_n_m1 * math.log(u) - u * u + log_pref
        if x > 0.0:
            logf -= x * c * u**beta
        if logf < -745.0:  # exp underflow
            return 0.0
        return math.exp(logf) / (1.0 - t) ** 2

    u_peak = math.sqrt(two_n_m1 / 2.0)
    t_peak = u_peak / (1.0 + u_peak)
    value, abserr, info = integrate.quad(
        integrand,
        0.0,
        1.0,
        epsabs=1e-300,
        epsrel=I_REL_TOL,
        limit=400,
        points=[t_peak],
        full_output=True,
    )[:3]
    if value != 0.0 and abserr > 100.0 * I_REL_TOL * abs(value):
        raise IntegrationError(
            f"I_({n},{beta})({x}): quadrature achieved {abserr:.3e} absolute error "
            f"(value {value:.6e}), above the fixed relative tolerance {I_REL_TOL:g}",
            achieved_error=abserr,
        )
    return value, abserr


def special_I(n: int, beta: float, x: float) -> float:
    """Special function I_{n,beta}(x).

    I = 2^n * int_0^inf u^(2n-1) exp(-u^2 - u^beta x Gamma(1-2/beta)^(-beta/2)) du
        / [beta^(n-1) Gamma(1-2/beta)^n Gamma(1+2/beta)^n (n-1)!].

    The prefactor is accumulated in the log domain (stable up to n ~ 20) and
    the integral is evaluated adaptively to ``I_REL_TOL`` on a transformed interval.
    """
    return _special_I_with_error(n, beta, x)[0]


def _jacobi_rules(d, beta, m):
    """Per-dimension Gauss-Jacobi nodes/weights on [0,1] for the J integrand.

    Dimension i (1-based) carries the weight v^(i(2/beta+1)-1) * (1-v)^(2/beta),
    which is exactly the Jacobi weight after mapping [-1,1] -> [0,1].
    """
    a = 2.0 / beta
    nodes, weights = [], []
    for i in range(1, d + 1):
        b_i = i * (2.0 / beta + 1.0) - 1.0
        xs, ws = roots_jacobi(m, a, b_i)
        nodes.append(0.5 * (xs + 1.0))
        weights.append(ws * 2.0 ** (-(a + b_i + 1.0)))
    return nodes, weights


def _eta_chain(vs):
    """eta_n, eta_(n-1), ..., eta_1 of the stick-breaking chain built from vs.

    eta_1 = v_1 ... v_{n-1}; eta_i = (1 - v_{i-1}) v_i ... v_{n-1}; eta_n = 1 - v_{n-1}.
    Entries of vs may be scalars or broadcastable arrays.
    """
    suffix = 1.0
    for v in reversed(vs):
        yield (1.0 - v) * suffix
        suffix = suffix * v
    yield suffix


def _eta_denominator(x, etas):
    """prod_i (x + eta_i), multiplied in the order of ``etas``."""
    denom = 1.0
    for eta in etas:
        denom = denom * (x + eta)
    return denom


def _j_tensor_raw(d, beta, x, m):
    """Tensor Gauss-Jacobi value of the d-dim J integral (without (1+nx)/n)."""
    nodes, weights = _jacobi_rules(d, beta, m)
    if m**d <= _TENSOR_CHUNK_LIMIT:
        vs = []
        for i in range(d):
            shape = [1] * d
            shape[i] = m
            vs.append(nodes[i].reshape(shape))
        g = 1.0 / _eta_denominator(x, _eta_chain(vs))
        for i in range(d):
            g = np.tensordot(weights[i], g, axes=(0, 0))
        return float(g)
    # chunk the leading axis to keep working arrays cache-resident
    vs_inner = []
    for i in range(1, d):
        shape = [1] * (d - 1)
        shape[i - 1] = m
        vs_inner.append(nodes[i].reshape(shape))
    total = 0.0
    for k in range(m):
        g = 1.0 / _eta_denominator(x, _eta_chain([float(nodes[0][k])] + vs_inner))
        for i in range(1, d):
            g = np.tensordot(weights[i], g, axes=(0, 0))
        total += float(weights[0][k]) * float(g)
    return total


def _j_qmc_raw(d, beta, xs, cfg, n_tag):
    """Randomized-Sobol estimates [(mean, stderr)] of the d-dim J integral, one per x of xs.

    The large monomial weights v^(b_i) are absorbed into the sampling
    measure through v = u^(1/(b_i+1)), leaving a bounded low-variance
    integrand; replicate scrambles give the error estimate. Only
    prod_i (x + eta_i) depends on x: each replicate's points, weight and
    eta chain are built once and shared by every x.
    """
    a = 2.0 / beta
    b = np.array([i * (2.0 / beta + 1.0) - 1.0 for i in range(1, d + 1)])
    scale = float(np.prod(1.0 / (b + 1.0)))
    inv_exp = 1.0 / (b + 1.0)
    npts = int(cfg.qmc_points)
    m2 = npts.bit_length() - 1
    estimates = [[] for _ in xs]
    for rep in range(cfg.qmc_replicates):
        ss = np.random.SeedSequence([int(cfg.seed), int(n_tag), rep])
        engine = qmc.Sobol(d, scramble=True, seed=np.random.default_rng(ss))
        u = engine.random_base2(m2) if (1 << m2) == npts else engine.random(npts)
        # v[i] is dimension i, contiguous; the product over axis 0 multiplies
        # the dimensions of each point in order, as the row product over u did
        v = np.power(u.T, inv_exp[:, None], order="C")
        del u
        weight = np.prod((1.0 - v) ** a, axis=0)
        etas = list(_eta_chain(v))
        del v
        for x, found in zip(xs, estimates):
            found.append(scale * float(np.mean(weight / _eta_denominator(x, etas))))
    return [_mean_stderr(found) for found in estimates]


def _mean_stderr(estimates):
    """Mean of the replicate estimates and its standard error (NaN for one)."""
    mean = math.fsum(estimates) / len(estimates)
    if len(estimates) > 1:
        var = math.fsum((e - mean) ** 2 for e in estimates) / (len(estimates) - 1)
        stderr = math.sqrt(var / len(estimates))
    else:
        stderr = float("nan")
    return mean, stderr


def special_J(
    n: int, beta: float, x: float, cfg: IntegrationConfig = IntegrationConfig()
) -> tuple[float, float]:
    """Special function J_{n,beta}(x); returns (value, error_estimate).

    J = (1+nx)/n * int_{[0,1]^(n-1)} prod_i v_i^(i(2/beta+1)-1) (1-v_i)^(2/beta)
        / prod_{i=1}^{n} (x + eta_i) dv,
    with the stick-breaking eta chain (eta_1 = v_1...v_{n-1}, ...,
    eta_n = 1 - v_{n-1}). J_{1,beta}(x) = 1 identically, returned without
    integration. Dimensions up to ``cfg.tensor_dim_limit`` (4) use tensor
    Gauss-Jacobi quadrature (error = refinement delta against half the
    nodes); higher dimensions use randomized Sobol sampling (error =
    replicate standard error).
    """
    if n < 1:
        raise ParameterError(f"order n must be >= 1, got {n}")
    if not (x > 0.0 and math.isfinite(x)):
        raise ParameterError(f"argument must be positive and finite, got {x}")
    if not (beta > 2.0):
        raise ParameterError(f"path-loss exponent must exceed 2, got {beta}")
    if n == 1:
        return 1.0, 0.0
    d = n - 1
    if d > cfg.tensor_dim_limit:
        return _special_J_many(n, beta, [x], cfg)[0]
    front = (1.0 + n * x) / n
    full = _j_tensor_raw(d, beta, x, cfg.gauss_nodes)
    half = _j_tensor_raw(d, beta, x, max(2, cfg.gauss_nodes // 2))
    return front * full, front * abs(full - half)


# ---------------------------------------------------------------------------
# SINR model
# ---------------------------------------------------------------------------


def _special_J_many(n, beta, xs, cfg):
    """[special_J(n, beta, x, cfg) for x in xs]; above ``tensor_dim_limit``
    every x shares one set of QMC point sets."""
    if n - 1 <= cfg.tensor_dim_limit:
        return [special_J(n, beta, x, cfg) for x in xs]
    out = []
    for x, (mean, stderr) in zip(xs, _j_qmc_raw(n - 1, beta, xs, cfg, n_tag=n)):
        front = (1.0 + n * x) / n
        out.append((front * mean, front * stderr))
    return out


def _sn_terms(n, taus, params: SinrModelParams):
    """[(S_n(tau), error estimate)] for each tau of taus; zero where
    1 - (n-1) tau <= 0. ``params`` gives everything but the threshold."""
    out = [(0.0, 0.0)] * len(taus)
    live = {}  # index -> tau_n = tau / (1 - (n-1) tau)
    for k, tau in enumerate(taus):
        denom = 1.0 - (n - 1) * tau
        if denom > 0.0:
            live[k] = tau / denom
    if not live:
        return out
    i_val, i_err = _special_I_with_error(n, params.beta, params.noise_argument)
    js = _special_J_many(n, params.beta, list(live.values()), params.integration)
    for (k, tau_n), (j_val, j_err) in zip(live.items(), js):
        scale = tau_n ** (-2.0 * n / params.beta)
        out[k] = (scale * i_val * j_val, scale * (abs(i_val) * j_err + abs(j_val) * i_err))
    return out


def sinr_Sn(n: int, params: SinrModelParams) -> float:
    """Expected number S_n(tau) of n-tuples of stations jointly above threshold."""
    if n < 1:
        raise ParameterError(f"order n must be >= 1, got {n}")
    return _sn_terms(n, [params.tau], params)[0][0]


def _sn_rows(grid) -> dict:
    """{params: (sn, errs) for n = 1..nmax, or the GeocacheError its build
    raised} for SINR params that differ only in tau, in one pass over n:
    I_n is computed once per n and J_n once for all of that n's tau_n."""
    rows = {params: ([], []) for params in grid}
    for n in range(1, max(params.nmax for params in rows) + 1):
        live = [p for p, row in rows.items() if n <= p.nmax and isinstance(row, tuple)]
        if not live:
            break
        try:
            terms = _sn_terms(n, [p.tau for p in live], live[0])
        except GeocacheError as exc:
            rows.update(dict.fromkeys(live, exc))
            continue
        for p, (value, error) in zip(live, terms):
            rows[p][0].append(value)
            rows[p][1].append(error)
    return rows


# The rows of the open ``_sinr_grid`` block, keyed by frozen params. A
# context variable, because sinr_coverage keeps its one-argument signature:
# a sweep (and anything wrapping it) still calls it once per threshold.
_GRID_ROWS: contextvars.ContextVar = contextvars.ContextVar("_GRID_ROWS", default=None)


@contextlib.contextmanager
def _sinr_grid(grid):
    """Build S_n for every SINR params of ``grid`` in one pass per model,
    then let ``sinr_coverage`` read them instead of recomputing.

    The rows live until the block exits; params outside the grid are built
    as usual.
    """
    models = {}
    for params in grid:
        models.setdefault(replace(params, tau=1.0), []).append(params)
    rows = {}
    for group in models.values():
        rows.update(_sn_rows(group))
    token = _GRID_ROWS.set(rows)
    try:
        yield
    finally:
        _GRID_ROWS.reset(token)


def sinr_coverage(params: SinrModelParams) -> CoverageDistribution:
    """SINR coverage-number distribution on 0..nmax via the alternating sum.

    Terms C(n,k) S_n cancel heavily for small tau; the sum is accumulated
    exactly-rounded, near-boundary values are clamped, and material
    cancellation failures raise instead of silently renormalizing.
    """
    nmax = params.nmax
    row = (_GRID_ROWS.get() or {}).get(params)
    if row is None:
        row = _sn_rows([params])[params]
    if isinstance(row, GeocacheError):
        raise row
    sn, errs = list(row[0]), list(row[1])

    pk = [0.0]  # placeholder for p_0
    for k in range(1, nmax + 1):
        terms = [
            (-1.0) ** (n - k) * math.comb(n, k) * sn[n - 1] for n in range(k, nmax + 1)
        ]
        pk.append(math.fsum(terms))
    pk[0] = 1.0 - math.fsum(pk[1:])

    clamped = []
    for k, p in enumerate(pk):
        if p < -1e-3 or p > 1.0 + 1e-3:
            raise NumericalCancellationError(
                f"p_{k} = {p:.6e} after the alternating sum; raise integration effort"
            )
        if -1e-6 <= p < 0.0:
            p = 0.0
        elif 1.0 < p <= 1.0 + 1e-6:
            p = 1.0
        clamped.append(p)
    total = math.fsum(clamped)
    if abs(total - 1.0) > 1e-3:
        raise NumericalCancellationError(
            f"coverage pmf sums to {total:.6e} before normalization; "
            "raise integration effort"
        )
    if any(p < 0.0 for p in clamped):
        raise NumericalCancellationError(
            "negative pmf entry survived clamping; raise integration effort"
        )

    return CoverageDistribution(
        pmf=np.array(clamped) / total,
        model_label="sinr",
        meta={
            "lambda": params.lam,
            "tau": params.tau,
            "beta": params.beta,
            "K": params.K,
            "noise_W": params.noise_W,
            "moment_PS": params.moment_PS,
            "nmax": nmax,
            "sn": sn,
            "sn_error_estimates": errs,
        },
    )
