"""Coverage-number distributions for the Boolean and SINR cellular models.

The coverage number N is the count of base-station cells covering a fixed
location. Everything downstream consumes only its pmf {p_k} and tail
Pbar(k) = Pr{N >= k}.

Boolean model: N is Poisson with parameter
    lam' = lam * pi * tau^(-2/beta) * (P/W)^(2/beta) / K^2,
the mean cell area times the station density (SNR >= tau disk radius).
The pmf is built in plain Python by the ratio recurrence from the mode
and cut where the tail mass Pr{N > k} drops below ``MASS_CUTOFF``; a mean
above ``MAX_POISSON_MEAN`` is refused when the parameters are built.
Every tail Pr{N >= k} is one exact integer suffix sum, rounded once per k.

SINR model: N has bounded support nmax = ceil(1/tau) and
    p_k = sum_{n=k}^{nmax} (-1)^(n-k) C(n,k) S_n(tau),
where S_n(tau) is the expected number of n-tuples of stations jointly
reaching SINR tau. Without noise, the ratios of each station's received
power to the total form a Poisson-Dirichlet PD(alpha, 0) process with
alpha = 2/beta, and N counts its atoms above s = tau/(1+tau), so
    S_n = alpha^(n-1) / (n Gamma(1-alpha)^n) * L^-1[Gamma(-alpha, s p)^n](1),
one inverse Laplace transform of a power of the upper incomplete gamma
function. It is evaluated by fixed-Talbot inversion in mpmath, with the
node count and the working precision growing with nmax, and the
alternating sum runs at that precision. For tau >= 1 (nmax = 1) the one
term S_1 = E[N] = tau^(-alpha) sin(pi alpha) / (pi alpha) is taken in
closed form instead. Noise W multiplies S_n by
I_{n,beta}(x) / I_{n,beta}(0), where x = W a^(-beta/2) and
a = lam * pi * E[(P S)^(2/beta)] / K^2. Each S_n carries an error
estimate (its change under an inversion with 16 fewer nodes, plus the
quadrature error of I). The form S_n = tau_n^(-2n/beta) I_n(x) J_n(tau_n),
tau_n = tau / (1 - (n-1) tau), is the independent check: ``special_J``
evaluates J by tensor quadrature for n <= 5.

scipy is imported inside the two functions that use it, the quadrature
of I (noisy SINR builds only) and the Gauss-Jacobi nodes of J (reached
only from the tests), so the Boolean and SIR (W = 0) builds never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError, NumericalCancellationError, ParameterError

__all__ = [
    "CoverageDistribution",
    "BooleanModelParams",
    "SinrModelParams",
    "boolean_coverage",
    "special_I",
    "special_J",
    "sinr_coverage",
    "mean_coverage",
]

MASS_CUTOFF = 1e-12  # the Boolean pmf ends where the tail mass Pr{N > k} drops below this
MAX_POISSON_MEAN = 1e6  # Boolean models with a larger mean are refused: the pmf has ~mean entries
I_REL_TOL = 1e-14  # relative tolerance of the adaptive quadrature of I
GAUSS_NODES = 48  # Gauss-Jacobi nodes per dimension of the tensor rule for J
J_MAX_ORDER = 5  # special_J's tensor rule covers n <= 5 (4 dimensions)
PMF_ERR_LIMIT = 1e-6  # sinr_coverage raises above this propagated pmf error


# ---------------------------------------------------------------------------
# Coverage-number distribution container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageDistribution:
    """Distribution of the coverage number N on 0..kmax.

    ``pmf[k] = Pr{N = k}`` and ``tail[k] = Pr{N >= k}`` for k = 0..kmax+1.
    The tail is one exact integer suffix sum of the pmf, rounded once per k,
    so deep tail values keep full relative accuracy and each equals
    ``math.fsum(pmf[k:])``. Beyond kmax the tail is zero: the solvers and the
    block-policy evaluator index ``tail`` directly and read its last slot,
    ``tail[kmax+1] = 0``, for every size past kmax.
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
        if abs(total - 1.0) > 1e-6:
            raise ParameterError(f"coverage pmf sums to {total!r}, expected 1")
        pmf = pmf / total
        values = pmf.tolist()
        tail = np.empty(pmf.size + 1)
        tail[-1] = 0.0
        # a double in [0, ~1] is num / den with den = 2^e <= 2^1074, so the shift below
        # is exactly value * 2^1074; int / int rounds correctly, so tail[k] == math.fsum(values[k:])
        scale = 1 << 1074
        exact = 0
        for k in range(pmf.size - 1, -1, -1):
            num, den = values[k].as_integer_ratio()
            exact += num << (1075 - den.bit_length())
            tail[k] = exact / scale
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

    def to_json_dict(self) -> dict:
        return {
            "model_label": self.model_label,
            "pmf": self.pmf.tolist(),
            "meta": dict(self.meta),
        }


def mean_coverage(dist: CoverageDistribution) -> float:
    """E[N] = sum_k k * p_k."""
    return math.fsum(k * p for k, p in enumerate(dist.pmf.tolist()))


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ModelParams:
    """Fields both cellular models share (all linear units)."""

    lam: float
    tau: float
    beta: float
    K: float = 1.0

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ParameterError(f"station density must be positive, got {self.lam}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ParameterError(f"threshold must be positive and finite, got {self.tau}")
        if not (self.beta > 2.0 and math.isfinite(self.beta)):
            raise ParameterError(f"path-loss exponent must exceed 2, got {self.beta}")
        if not (self.K > 0.0 and math.isfinite(self.K)):
            raise ParameterError(f"path-loss constant must be positive, got {self.K}")


@dataclass(frozen=True)
class BooleanModelParams(_ModelParams):
    """Noise-limited Boolean model parameters (all linear units)."""

    power_ratio: float = 1.0  # P/W; must be finite for the Boolean model

    def __post_init__(self):
        super().__post_init__()
        if not (self.power_ratio > 0.0 and math.isfinite(self.power_ratio)):
            raise ParameterError(
                "P/W must be positive and finite for the Boolean model; "
                f"got {self.power_ratio}"
            )
        try:
            mu = self.poisson_parameter
        except ArithmeticError as exc:  # K**2 or tau**(-2/beta) beyond the float range
            raise ParameterError(f"Poisson parameter out of range: {exc}") from None
        if not mu <= MAX_POISSON_MEAN:  # inf and NaN too
            raise ParameterError(
                f"cannot place the support of a Poisson pmf of mean {mu:g} "
                f"(the limit is {MAX_POISSON_MEAN:g})"
            )

    @property
    def poisson_parameter(self) -> float:
        """lam' = lam * pi * tau^(-2/beta) * (P/W)^(2/beta) / K^2."""
        e = 2.0 / self.beta
        return self.lam * math.pi * self.tau ** (-e) * self.power_ratio**e / self.K**2


@dataclass(frozen=True)
class SinrModelParams(_ModelParams):
    """SINR model parameters; moment_PS = E[(P*S)^(2/beta)] (1 = no shadowing)."""

    noise_W: float = 0.0
    moment_PS: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (self.noise_W >= 0.0 and math.isfinite(self.noise_W)):
            raise ParameterError(f"noise power must be >= 0, got {self.noise_W}")
        if not (self.moment_PS > 0.0 and math.isfinite(self.moment_PS)):
            raise ParameterError(f"moment_PS must be positive, got {self.moment_PS}")
        try:
            x = self.noise_argument
        except ArithmeticError as exc:  # a is 0 or beyond the float range
            raise ParameterError(f"noise argument W a^(-beta/2) out of range: {exc}") from None
        if not math.isfinite(x):
            raise ParameterError(f"noise argument W a^(-beta/2) is not finite: {x}")

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
        """Argument W * a^(-beta/2) fed to the I special function; 0 without
        noise, whatever the float range makes of a^(-beta/2)."""
        if self.noise_W == 0.0:
            return 0.0
        return self.noise_W * self.a ** (-self.beta / 2.0)


# ---------------------------------------------------------------------------
# Boolean model
# ---------------------------------------------------------------------------


def boolean_coverage(params: BooleanModelParams) -> CoverageDistribution:
    """Poisson coverage-number distribution, truncated at tail mass < MASS_CUTOFF.

    The weights w_k = p_k / p_mode come from the ratio recurrence, anchored
    at w_mode = 1 (mode = floor(mu)) and run up to mu + 12 sqrt(mu) + 60,
    where the Poisson tail is far below the cutoff, and down to 0; their
    exact sum normalises them. kmax is the smallest k with Pr{N > k} <
    MASS_CUTOFF, found by a running tail sum from the top.
    """
    mu = params.poisson_parameter
    mode = int(mu)
    top = int(mu + 12.0 * math.sqrt(mu) + 60.0)
    w = [0.0] * (top + 1)
    w[mode] = 1.0
    for k in range(mode, top):
        w[k + 1] = w[k] * mu / (k + 1)
    for k in range(mode, 0, -1):
        w[k - 1] = w[k] * k / mu
    total = math.fsum(w)
    pmf = [v / total for v in w]
    kmax, beyond = top, 0.0  # beyond = Pr{N > kmax}
    while kmax > 0 and beyond + pmf[kmax] < MASS_CUTOFF:
        beyond += pmf[kmax]
        kmax -= 1
    return CoverageDistribution(
        pmf=np.array(pmf[: kmax + 1]),
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


def special_I(n: int, beta: float, x: float) -> tuple[float, float]:
    """Special function I_{n,beta}(x); returns (value, error_estimate).

    I = 2^n * int_0^inf u^(2n-1) exp(-u^2 - u^beta x Gamma(1-2/beta)^(-beta/2)) du
        / [beta^(n-1) Gamma(1-2/beta)^n Gamma(1+2/beta)^n (n-1)!].

    The prefactor is accumulated in the log domain (stable up to n ~ 20) and
    the integral is evaluated adaptively to ``I_REL_TOL`` on a transformed
    interval; the error estimate is the quadrature's absolute error.
    """
    if n < 1:
        raise ParameterError(f"order n must be >= 1, got {n}")
    if not (beta > 2.0):
        raise ParameterError(f"path-loss exponent must exceed 2, got {beta}")
    if not (x >= 0.0):
        raise ParameterError(f"argument must be >= 0, got {x}")
    from scipy import integrate  # here, not at the top: only noisy SINR builds need it

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
            f"(value {value:.6e}), above the fixed relative tolerance {I_REL_TOL:g}"
        )
    return value, abserr


def _jacobi_rules(d, beta, m):
    """Per-dimension Gauss-Jacobi nodes/weights on [0,1] for the J integrand.

    Dimension i (1-based) carries the weight v^(i(2/beta+1)-1) * (1-v)^(2/beta),
    which is exactly the Jacobi weight after mapping [-1,1] -> [0,1].
    """
    from scipy.special import roots_jacobi  # here, not at the top: only the tests reach J

    a = 2.0 / beta
    nodes, weights = [], []
    for i in range(1, d + 1):
        b_i = i * (2.0 / beta + 1.0) - 1.0
        xs, ws = roots_jacobi(m, a, b_i)
        nodes.append(0.5 * (xs + 1.0))
        weights.append(ws * 2.0 ** (-(a + b_i + 1.0)))
    return nodes, weights


def _j_tensor_raw(d, beta, x, m):
    """Tensor Gauss-Jacobi value of the d-dim J integral (without (1+nx)/n).

    The integrand is 1 / prod_i (x + eta_i) over the stick-breaking chain
    eta_1 = v_1...v_{d}, eta_i = (1 - v_{i-1}) v_i...v_{d}, eta_{d+1} = 1 - v_{d}.
    The leading axis is summed one node at a time, so the working arrays
    hold m^(d-1) points and stay cache-resident.
    """
    nodes, weights = _jacobi_rules(d, beta, m)
    inner = []  # v_2..v_d, each along its own axis of an m^(d-1) grid
    for i in range(1, d):
        shape = [1] * (d - 1)
        shape[i - 1] = m
        inner.append(nodes[i].reshape(shape))
    total = 0.0
    for v0, w0 in zip(nodes[0].tolist(), weights[0].tolist()):
        denom = suffix = 1.0
        for v in reversed([v0] + inner):  # eta_(d+1), ..., eta_2
            denom = denom * (x + (1.0 - v) * suffix)
            suffix = suffix * v
        g = 1.0 / (denom * (x + suffix))  # suffix is eta_1
        for w in weights[1:]:
            g = np.tensordot(w, g, axes=(0, 0))
        total += w0 * float(g)
    return total


def special_J(n: int, beta: float, x: float) -> tuple[float, float]:
    """Special function J_{n,beta}(x) for n <= 5; returns (value, error_estimate).

    J = (1+nx)/n * int_{[0,1]^(n-1)} prod_i v_i^(i(2/beta+1)-1) (1-v_i)^(2/beta)
        / prod_{i=1}^{n} (x + eta_i) dv,
    with the stick-breaking eta chain (eta_1 = v_1...v_{n-1}, ...,
    eta_n = 1 - v_{n-1}). J_{1,beta}(x) = 1 identically, returned without
    integration; n = 2..5 use tensor Gauss-Jacobi quadrature with
    ``GAUSS_NODES`` per dimension (error = refinement delta against half
    the nodes). ``sinr_coverage`` does not use J; it is the tensor oracle
    that the tests hold the Laplace inversion to.
    """
    if not (1 <= n <= J_MAX_ORDER):
        raise ParameterError(f"order n must be in 1..{J_MAX_ORDER}, got {n}")
    if not (x > 0.0 and math.isfinite(x)):
        raise ParameterError(f"argument must be positive and finite, got {x}")
    if not (beta > 2.0):
        raise ParameterError(f"path-loss exponent must exceed 2, got {beta}")
    if n == 1:
        return 1.0, 0.0
    front = (1.0 + n * x) / n
    full = _j_tensor_raw(n - 1, beta, x, GAUSS_NODES)
    half = _j_tensor_raw(n - 1, beta, x, GAUSS_NODES // 2)
    return front * full, front * abs(full - half)


# ---------------------------------------------------------------------------
# SINR model
# ---------------------------------------------------------------------------


def _upper_gamma(ctx, a, z):
    """Gamma(a, z) = Gamma(a) - z^a e^(-z) / a * 1F1(1; 1 + a; z), a not an integer.

    This is the form ``ctx.gammainc`` falls back to after its asymptotic
    2F0 series fails to converge, as it does for |z| below about 2.3 times
    the digits, which holds at most nodes here. Calling it directly gives
    the same values without that attempt, up to 9 times faster at low
    thresholds. ``hypercomb`` adds precision where the two terms cancel.
    """
    def terms(a):
        return (
            ([], [], [a], [], [], [], 0),
            ([-ctx.exp(-z), z, a], [1, a, -1], [], [], [1], [1 + a], z),
        )

    return ctx.hypercomb(terms, [a])


def _pd_sn(ctx, alpha, s, nmax: int, m: int) -> list:
    """[S_n^PD for n = 1..nmax] by fixed Talbot inversion with m nodes.

    S_n^PD = alpha^(n-1) / (n Gamma(1-alpha)^n) * f_n(1), where f_n is the
    inverse Laplace transform of Gamma(-alpha, s p)^n. Fixed Talbot
    (Abate & Valko 2004) with r = 2m/5, theta_k = k pi/m,
    p_k = r theta_k (cot theta_k + i) and
    sigma_k = theta_k + (theta_k cot theta_k - 1) cot theta_k gives
        f(1) = r/m [e^r F(r)/2 + sum_{k=1}^{m-1} Re(e^(p_k) F(p_k) (1 + i sigma_k))].
    Every n reuses the m values Gamma(-alpha, s p_k).
    """
    r = ctx.mpf(2 * m) / 5
    terms = [ctx.exp(r) / 2]
    gammas = [_upper_gamma(ctx, -alpha, s * r)]
    for k in range(1, m):
        theta = ctx.pi * k / m
        cot = ctx.cot(theta)
        p = r * theta * ctx.mpc(cot, 1)
        terms.append(ctx.exp(p) * ctx.mpc(1, theta + (theta * cot - 1) * cot))
        gammas.append(_upper_gamma(ctx, -alpha, s * p))
    front = r / m / alpha
    base = alpha / ctx.gamma(1 - alpha)
    out = []
    for n in range(1, nmax + 1):
        terms = [t * g for t, g in zip(terms, gammas)]
        out.append(front * base**n / n * ctx.re(ctx.fsum(terms)))
    return out


def _sn_with_errors(params: SinrModelParams):
    """(ctx, sn, errs): S_1..S_nmax as numbers of the mpmath context ctx,
    at its working precision, and their error estimates as floats.

    W = 0 gives S_n = S_n^PD: the signal-to-total-power ratios of a Poisson
    network form a PD(2/beta, 0) process, and N counts its atoms above
    s = tau/(1+tau) (Keeler & Blaszczyszyn 2014). Noise enters only
    through I: S_n = S_n^PD I_n(x) / I_n(0) with x = W a^(-beta/2),
    because J does not depend on W; I_n(0) is taken in closed form. The
    error of S_n is its change when the inversion uses 16 fewer nodes at
    the same digits, plus the propagated quadrature error of I(x). The
    change bounds the error where the inversion converges fast; within
    about 0.01 dB below 0 dB it converges slowly and can fall short.

    With nmax = 1 (tau >= 1) the only term is S_1^PD = E[N] =
    tau^(-alpha) sin(pi alpha) / (pi alpha), taken in closed form: there
    the inversion is not needed, and it converges slowly as s -> 1 (it
    fails its error limit from about 30 dB).
    """
    import mpmath  # here, not at the top: the Boolean path never loads it

    nmax = params.nmax
    # nodes, and digits: the alternating sum multiplies S_n by up to C(nmax, nmax/2)
    m = max(48, 24 + nmax)
    ctx = mpmath.MPContext()
    ctx.dps = m
    alpha = ctx.mpf(2) / params.beta
    if nmax == 1:
        sn = [ctx.mpf(params.tau) ** -alpha * ctx.sinpi(alpha) / (ctx.pi * alpha)]
        errs = [0.0]
    else:
        s = ctx.mpf(params.tau) / (1 + ctx.mpf(params.tau))
        sn = _pd_sn(ctx, alpha, s, nmax, m)
        coarser = _pd_sn(ctx, alpha, s, nmax, m - 16)
        errs = [float(abs(a - b)) for a, b in zip(sn, coarser)]
    x = params.noise_argument
    if x > 0.0:
        log_g = math.lgamma(1.0 - 2.0 / params.beta) + math.lgamma(1.0 + 2.0 / params.beta)
        for n in range(1, nmax + 1):
            i_x, err_x = special_I(n, params.beta, x)
            # I_n(0) = 2^(n-1) / (beta^(n-1) Gamma(1-2/beta)^n Gamma(1+2/beta)^n)
            i_0 = math.exp((n - 1) * math.log(2.0 / params.beta) - n * log_g)
            ratio = i_x / i_0
            errs[n - 1] = errs[n - 1] * ratio + abs(float(sn[n - 1])) * err_x / i_0
            sn[n - 1] *= ratio
    return ctx, sn, errs


def sinr_coverage(params: SinrModelParams) -> CoverageDistribution:
    """SINR coverage-number distribution on 0..nmax via the alternating sum.

    p_k = sum_n (-1)^(n-k) C(n,k) S_n runs at the working precision of the
    inversion, so its cancellation costs no accuracy. The error estimate
    of p_k is sum_n C(n,k) err(S_n); above ``PMF_ERR_LIMIT`` the build
    raises ``NumericalCancellationError``. Below it, each p_k lies within
    that error of [0, 1] and is clipped to it.
    """
    ctx, sn, errs = _sn_with_errors(params)
    nmax = params.nmax
    pk = [
        ctx.fsum((-1) ** (n - k) * math.comb(n, k) * sn[n - 1] for n in range(k, nmax + 1))
        for k in range(1, nmax + 1)
    ]
    pk.insert(0, 1 - ctx.fsum(pk))
    pmf_errs = [
        math.fsum(math.comb(n, k) * errs[n - 1] for n in range(1, nmax + 1))
        for k in range(nmax + 1)
    ]
    worst = max(range(nmax + 1), key=pmf_errs.__getitem__)
    if pmf_errs[worst] > PMF_ERR_LIMIT:
        raise NumericalCancellationError(
            f"p_{worst} = {float(pk[worst]):.6e} has a propagated error estimate "
            f"{pmf_errs[worst]:.3e}, above {PMF_ERR_LIMIT:g}"
        )
    return CoverageDistribution(
        pmf=np.clip([float(p) for p in pk], 0.0, 1.0),
        model_label="sinr",
        meta={
            "lambda": params.lam,
            "tau": params.tau,
            "beta": params.beta,
            "K": params.K,
            "noise_W": params.noise_W,
            "moment_PS": params.moment_PS,
            "nmax": nmax,
            "sn": [float(v) for v in sn],
            "sn_error_estimates": errs,
            "pmf_error_estimate": pmf_errs[worst],
        },
    )
