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
function. It is evaluated by fixed-Talbot inversion in mpmath, with m
nodes at m digits, m the first of 32, 48, 64, ... at or above 24 + 0.6
nmax, and the alternating sum runs at that precision. Each process
builds the nodes of a (count, precision) pair once. Every node's
Gamma(-alpha, s p) is summed from its power series in Python integers,
at the exact product s p and at a scale that covers the cancellations
within the sum and against Gamma(-alpha), and the node products
w_k Gamma^n run as integer mantissas. A support bound nmax above ``SINR_NMAX_MAX`` is refused when
the parameters are built, as its build would take minutes. For tau > 1/2
(nmax <= 2) S_1 = E[N] = tau^(-alpha) sin(pi alpha) / (pi alpha) and
S_2, through 2F1, are taken in closed form at 32 digits instead. Noise W
multiplies S_n by ``noise_factor``, I_{n,beta}(x) / I_{n,beta}(0), where
x = W a^(-beta/2) and a = lam * pi * E[(P S)^(2/beta)] / K^2. Each S_n
carries an error estimate: its change under a second inversion with the
next smaller node count of that ladder (24 below 32) at the same digits,
or that of the closed form at 48 digits, plus the error of the noise
factor. The builds at one digit count share one mpmath context. The form
S_n = tau_n^(-2n/beta) I_n(x) J_n(tau_n), tau_n = tau / (1 - (n-1) tau),
is the independent check: ``special_J`` evaluates J by tensor quadrature
for n <= 5.

scipy is imported inside the two functions that use it, ``noise_factor``
(noisy SINR builds only) and the Gauss-Jacobi nodes of J (reached only
from the tests), so the Boolean and SIR (W = 0) builds never load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError, NumericalCancellationError, ParameterError

__all__ = [
    "CoverageDistribution",
    "BooleanModelParams",
    "SinrModelParams",
    "boolean_coverage",
    "noise_factor",
    "special_J",
    "sinr_coverage",
    "mean_coverage",
]

MASS_CUTOFF = 1e-12  # the Boolean pmf ends where the tail mass Pr{N > k} drops below this
MAX_POISSON_MEAN = 1e6  # Boolean models with a larger mean are refused: the pmf has ~mean entries
SINR_NMAX_MAX = 320  # SINR models with a larger support bound are refused: -25 dB (nmax 317) takes ~0.7 s
I_REL_TOL = 1e-14  # relative tolerance of the adaptive quadrature of the noise factor
GAUSS_NODES = 48  # Gauss-Jacobi nodes per dimension of the tensor rule for J
J_MAX_ORDER = 5  # special_J's tensor rule covers n <= 5 (4 dimensions)
PMF_ERR_LIMIT = 1e-6  # sinr_coverage raises above this propagated pmf error
GAMMA_GUARD = 20  # bits above the working precision of each node's Gamma(-alpha, z) and product
_LOG2E = 1.0 / math.log(2.0)


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


def check_power_ratio(power_ratio: float) -> None:
    """The Boolean model's rule for P/W: positive and finite."""
    if not (power_ratio > 0.0 and math.isfinite(power_ratio)):
        raise ParameterError(
            f"P/W must be positive and finite for the Boolean model; got {power_ratio}"
        )


@dataclass(frozen=True)
class BooleanModelParams(_ModelParams):
    """Noise-limited Boolean model parameters (all linear units)."""

    power_ratio: float = 1.0  # P/W; must be finite for the Boolean model

    def __post_init__(self):
        super().__post_init__()
        check_power_ratio(self.power_ratio)
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
        if not 1.0 / self.tau <= SINR_NMAX_MAX:  # nmax = ceil(1/tau); 1/tau = inf too
            raise ParameterError(
                f"SINR support bound ceil(1/tau) must be at most {SINR_NMAX_MAX} (tau >= "
                f"{-10 * math.log10(SINR_NMAX_MAX):.2f} dB), got tau = {self.tau:g}"
            )
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
        """Argument W * a^(-beta/2) of the noise factor; 0 without
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


def noise_factor(n: int, beta: float, x: float) -> tuple[float, float]:
    """Noise factor I_{n,beta}(x) / I_{n,beta}(0) of S_n; returns (value, error_estimate).

    With v = u^2 in the integral of I the prefactor cancels, and the factor
    is the mean E[exp(-x c V^(beta/2))] over V ~ Gamma(n, 1), with
    c = Gamma(1-2/beta)^(-beta/2). The deviation d = E[-expm1(-x c V^(beta/2))]
    is integrated first and 1 - d returned where d <= 1/2, so the error
    scales with d, not with 1. Where d > 1/2 the factor is small, and the
    mean is integrated directly to keep its relative accuracy. Both weigh
    by the Gamma density in the log domain and run adaptively to
    ``I_REL_TOL`` on [0, 4(n-1) + 200]; the error estimate is the
    quadrature's plus the rounding of lgamma(n) and of 1 - d.
    """
    if n < 1:
        raise ParameterError(f"order n must be >= 1, got {n}")
    if not (beta > 2.0):
        raise ParameterError(f"path-loss exponent must exceed 2, got {beta}")
    if not (x >= 0.0):
        raise ParameterError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 1.0, 0.0
    from scipy import integrate  # here, not at the top: only noisy SINR builds need it

    cx = x * math.exp(-beta / 2.0 * math.lgamma(1.0 - 2.0 / beta))
    log_norm = math.lgamma(n)
    log_norm_err = 2.0 * math.ulp(max(log_norm, 1.0))  # bounds its error for n <= 5000
    top = 4.0 * (n - 1) + 200.0

    def mean(g, points):
        def integrand(v):
            return math.exp((n - 1) * math.log(v) - v - log_norm) * g(cx * v ** (beta / 2.0))

        value, abserr = integrate.quad(
            integrand,
            0.0,
            top,
            epsabs=1e-300,
            epsrel=I_REL_TOL,
            limit=400,
            points=points,
            full_output=True,
        )[:2]
        if value != 0.0 and abserr > 100.0 * I_REL_TOL * value:
            raise IntegrationError(
                f"noise factor ({n},{beta})({x}): quadrature achieved {abserr:.3e} absolute "
                f"error (value {value:.6e}), above the fixed relative tolerance {I_REL_TOL:g}"
            )
        return value, abserr + log_norm_err * value

    d, err = mean(lambda y: -math.expm1(-y), [n - 0.5])
    if d <= 0.5:
        return 1.0 - d, err + 0.5 * math.ulp(1.0 - d)
    # the peak of the mean's integrand moves down from n - 1/2 as x grows; split
    # within a factor 2 of it and at its doublings, so no piece hides a narrow peak
    # (at most 60: past 2^60 times the peak the integrand underflows to 0)
    split = min(n - 0.5, ((n - 0.5) / (0.5 * beta) / cx) ** (2.0 / beta))
    points = [split * 2.0**k for k in range(min(60, math.ceil(math.log2(top / split))))]
    return mean(lambda y: math.exp(-y), points)


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


@functools.lru_cache(maxsize=32)
def _context(dps: int):
    """The mpmath context of the SIR builds at dps digits, one per digit count;
    nothing sets its precision again."""
    import mpmath  # here, not at the top: the Boolean path never loads it

    ctx = mpmath.MPContext()
    ctx.dps = dps
    return ctx


@functools.lru_cache(maxsize=16)
def _talbot_nodes(m: int, prec: int):
    """(r, nodes, weights) of fixed Talbot with m nodes at prec bits: r = 2m/5,
    theta_k = k pi/m, p_0 = r, p_k = r theta_k (cot theta_k + i), and the
    weights e^r/2 and e^(p_k)(1 + i sigma_k), sigma_k = theta_k +
    (theta_k cot theta_k - 1) cot theta_k. They depend on neither tau nor
    beta; the key holds the precision, so no value is reused at another.

    r is a raw mpf. Each node is (raw mpc, ``_complex_ints``, p as a complex
    float), each weight its ``_complex_ints``: what every build reads of them.
    """
    import mpmath  # here, not at the top: the Boolean path never loads it
    from mpmath.libmp import fzero, mpc_to_complex, round_nearest

    ctx = mpmath.MPContext()
    ctx.prec = prec
    r = ctx.mpf(2 * m) / 5
    nodes, weights = [(r._mpf_, fzero)], [((ctx.exp(r) / 2)._mpf_, fzero)]
    for k in range(1, m):
        theta = ctx.pi * k / m
        cot = ctx.cot(theta)
        p = r * theta * ctx.mpc(cot, 1)
        nodes.append(p._mpc_)
        weights.append((ctx.exp(p) * ctx.mpc(1, theta + (theta * cot - 1) * cot))._mpc_)
    nodes = tuple((p, _complex_ints(p), mpc_to_complex(p, rnd=round_nearest)) for p in nodes)
    return r._mpf_, nodes, tuple(_complex_ints(w) for w in weights)


def _complex_ints(parts) -> tuple:
    """(re, im, e) with v = (re + i im) 2^e for the raw mpc v = parts."""
    from mpmath.libmp import to_fixed

    e = min((part[2] for part in parts if part[1]), default=0)  # of the nonzero parts
    return to_fixed(parts[0], -e), to_fixed(parts[1], -e), e


@functools.lru_cache(maxsize=16)
def _gamma_int(alpha: tuple, scale: int) -> int:
    """Gamma(-alpha) 2^scale, rounded down, for the raw mpf alpha in (0, 1)."""
    from mpmath.libmp import mpf_gamma, mpf_neg, to_fixed, to_float

    a = to_float(alpha)
    magnitude = max(0, math.ceil(math.log2(math.gamma(1.0 - a) / a)))  # of Gamma(-alpha)
    return to_fixed(mpf_gamma(mpf_neg(alpha), scale + magnitude + 8), scale)


@functools.lru_cache(maxsize=32)
def _reciprocals(alpha: tuple, scale: int, length: int) -> tuple:
    """(2^scale / (j - alpha) for j < length), rounded down, for the raw mpf alpha."""
    _, man, exp, _ = alpha  # j - alpha = (j 2^-exp - man) 2^exp
    num = 1 << (scale - exp)
    return tuple(num // ((j << -exp) - man) for j in range(length))


@functools.lru_cache(maxsize=32)
def _power_slots(m: int, prec: int, alpha: tuple) -> list:
    """Per node of the m-node Talbot rule at prec bits, (bits, p_k^(-alpha)): the raw
    power to bits of relative precision, filled and refined by ``_node_gammas``."""
    return [(0, None)] * m


def _node_gammas(ctx, alpha, s, nodes) -> list:
    """[Gamma(-alpha, z_k) for z_k = s p_k] at the working precision of ctx, as raw
    mpc, for the nodes p_k of ``_talbot_nodes(m, ctx.prec)``, with z_k the exact
    product, not rounded. From the power series
        Gamma(-alpha, z) = Gamma(-alpha) - z^(-alpha) T(z),
        T(z) = sum_j (-z)^j / (j! (j - alpha)),
    with T summed by ``_series_sum`` at a scale 2^F.

    T carries an error under 7 C e^|z| units 2^-F, C = max(1/alpha, 1/(1-alpha)).
    Against |Gamma(-alpha, z)|, estimated by ``_log2_gamma_estimate``, that
    covers both cancellations, among the terms (up to e^|z|) and against
    Gamma(-alpha) (up to e^(Re z)): a node runs at
        F = prec + GAMMA_GUARD + log2(7 C e^|z| |z^(-alpha)| / |Gamma(-alpha, z)|),
    rounded up to a multiple of 16, and checks F again with |Gamma| from its
    result. A node whose result is smaller than the estimate, so that F fell
    short, runs again at the bits it lacked plus GAMMA_GUARD.

    z^(-alpha) = s^(-alpha) p_k^(-alpha), as s > 0. Each p_k^(-alpha) is kept per
    (node count, precision, alpha), at 32 bits more than F + 14 asked, and
    computed again when a later F asks for more.
    """
    from mpmath.libmp import (
        from_man_exp, mpc_mul_mpf, mpc_pow_mpf, mpf_neg, mpf_pow, round_nearest, to_fixed,
    )

    prec = ctx.prec
    at = alpha._mpf_
    neg_alpha = mpf_neg(at)
    a = float(alpha)
    c_max = max(1.0 / a, 1.0 / (1.0 - a))
    least = prec + GAMMA_GUARD + math.log2(7.0 * c_max)
    sm, se = s._mpf_[1], s._mpf_[2]
    sf = float(s)
    powers = _power_slots(len(nodes), prec, at)
    s_bits, s_power = 0, None
    out = []
    for k, (p, (pr, pi, ep), pc) in enumerate(nodes):
        xr, xi, ez = sm * pr, sm * pi, se + ep  # z = s p exactly, in ~2 prec bits
        zc = sf * pc
        size = abs(zc)
        above = least + _LOG2E * size - a * math.log2(size)  # F is this less log2 |Gamma|
        scale = 16 * math.ceil((above + 3 - _log2_gamma_estimate(zc, a)) / 16)
        while True:
            hr, hi = _series_sum(at, xr, xi, ez, _series_terms(size, scale, c_max), scale)
            # z^(-alpha) 2^wscale from s^(-alpha) and p^(-alpha) to rel bits
            rel = scale + 14
            if s_bits < rel:
                s_bits, s_power = rel + 32, mpf_pow(s._mpf_, neg_alpha, rel + 32)
            bits, p_power = powers[k]
            if bits < rel:
                p_power = mpc_pow_mpf(p, neg_alpha, rel + 32)
                powers[k] = rel + 32, p_power
            # each part of the product rounded to rel bits, so off by under 2^-5 max(1, |z|^-a)
            # units, as |z^(-alpha)| 2^wscale < 2^(scale + 9) max(1, |z|^-a)
            wscale = scale + 8 + max(0, math.ceil(a * math.log2(size)))
            wr, wi = (to_fixed(v, wscale) for v in mpc_mul_mpf(p_power, s_power, rel, round_nearest))
            gr = _gamma_int(at, scale) - ((wr * hr - wi * hi) >> wscale)
            gi = -((wr * hi + wi * hr) >> wscale)
            # F again, with the result's |Gamma| in place of the estimate
            low = max(gr.bit_length(), gi.bit_length()) - 1 - scale  # <= log2 |Gamma|
            lacking = above - low + 1 - scale
            if lacking <= 0:
                break
            scale = 16 * math.ceil((scale + lacking + GAMMA_GUARD) / 16)
        out.append(tuple(from_man_exp(v, -scale, prec, round_nearest) for v in (gr, gi)))
    return out


def _log2_gamma_estimate(z: complex, a: float) -> float:
    """log2 |z^(-a) e^(-z) / (z + 1 + a)|, from the first convergent of the
    continued fraction of Gamma(-a, z): its size for large |z|, within a bit of
    it on the Talbot contours of the SIR builds, and below it for real z > 0."""
    return -a * math.log2(abs(z)) - _LOG2E * z.real - math.log2(abs(z + 1.0 + a))


def _series_terms(size: float, scale: int, c_max: float) -> int:
    """Last index j of the series T of Gamma(-alpha, z), |z| = size, at scale 2^scale:
    the first j >= 2|z| with |z|^j / j! <= e^|z| 2^-scale / (8 C). Past 2|z| each
    term at most halves, so the terms left sum to under e^|z| / 4 units."""
    log_size = math.log(size)
    target = size - (scale + 3) * math.log(2.0) - math.log(c_max)

    def excess(x):  # log(|z|^x / x!) - target: concave and falling for x >= |z|
        return x * log_size - math.lgamma(x + 1.0) - target

    # Newton steps, with log(x + 1/2) > digamma(x + 1) in the slope: up to past the
    # root, then down towards it, each step too short to cross it
    x = max(1.0, 2.0 * size)
    if excess(x) <= 0.0:
        return math.ceil(x)
    while excess(x) > 0.0:
        x += excess(x) / (math.log(x + 0.5) - log_size)
    while (step := -excess(x) / (math.log(x + 0.5) - log_size)) >= 0.5:
        x -= step
    return math.ceil(x)


def _series_sum(alpha: tuple, xr: int, xi: int, ez: int, count: int, scale: int) -> tuple:
    """(Re T, Im T) times 2^scale as integers, for the raw mpf alpha, z = (xr + i xi)
    2^ez and T = sum_{j <= count} (-z)^j / (j! (j - alpha)).

    Horner's rule, H_count = 1/(count - alpha) and H_(j-1) = 1/(j-1-alpha) - z H_j / j,
    T = H_0, in fixed point with three products per complex step. The at most three
    units a step rounds off reach T times |z|^j / j!, so T is off by under
    3 sqrt(2) e^|z| units, and by C e^|z| more for z's own units.
    """
    recips = _reciprocals(alpha, scale, 1 << count.bit_length())  # > count, one of a few lengths
    shift = ez + scale
    zr, zi = (xr << shift, xi << shift) if shift >= 0 else (xr >> -shift, xi >> -shift)
    zsum, zdiff = zr + zi, zi - zr
    hr, hi = recips[count], 0
    for j in range(count, 0, -1):
        both = zr * (hr + hi)
        hr, hi = (
            recips[j - 1] - ((both - hi * zsum) >> scale) // j,
            ((both + hr * zdiff) >> scale) // -j,
        )
    return hr, hi


def _pd_sn(ctx, alpha, s, nmax: int, m: int) -> list:
    """[S_n^PD for n = 1..nmax] by fixed Talbot inversion with m nodes.

    S_n^PD = alpha^(n-1) / (n Gamma(1-alpha)^n) * f_n(1), where f_n is the
    inverse Laplace transform of Gamma(-alpha, s p)^n. Fixed Talbot
    (Abate & Valko 2004) with the nodes p_k and the weights of
    ``_talbot_nodes`` gives
        f(1) = r/m [e^r F(r)/2 + sum_{k=1}^{m-1} Re(e^(p_k) F(p_k) (1 + i sigma_k))].
    Every n reuses the m values Gamma(-alpha, s p_k) of ``_node_gammas``. Each
    node's running product w_k Gamma_k^n is an integer mantissa pair with an
    exponent, cut back to prec + GAMMA_GUARD bits after every step; the real
    parts are summed exactly at one scale, prec + GAMMA_GUARD + 8 bits below the
    largest term, and rounded once to the working precision.
    """
    from mpmath.libmp import from_man_exp, round_nearest

    r, nodes, terms = _talbot_nodes(m, ctx.prec)
    gammas = []
    for g in _node_gammas(ctx, alpha, s, nodes):
        gr, gi, ge = _complex_ints(g)
        gammas.append((gr, gi + gr, gi - gr, ge))  # three products per complex step
    keep = ctx.prec + GAMMA_GUARD
    front = ctx.make_mpf(r) / m / alpha
    base = alpha / ctx.gamma(1 - alpha)
    out = []
    for n in range(1, nmax + 1):
        top = -math.inf
        step = []
        for (tr, ti, te), (gr, gsum, gdiff, ge) in zip(terms, gammas):
            both = gr * (tr + ti)
            re, im, e = both - ti * gsum, both + tr * gdiff, te + ge
            size = max(re.bit_length(), im.bit_length())
            top = max(top, e + size)
            if size > keep:
                re, im, e = re >> (size - keep), im >> (size - keep), e + size - keep
            step.append((re, im, e))
        terms = step
        low = top - keep - 8
        parts = [re << (e - low) if e >= low else re >> (low - e) for re, _, e in terms]
        factor = front * base**n / n
        out.append(factor * ctx.make_mpf(from_man_exp(sum(parts), low, ctx.prec, round_nearest)))
    return out


def _inversion_sizes(nmax: int) -> tuple:
    """(m, coarse) of the SIR build with support bound nmax: the inversion runs m
    nodes at m digits, and the one for its error estimate coarse nodes at the same
    digits.

    m is the first rung of 32, 48, 64, ... at or above 24 + ceil(0.6 nmax): the
    alternating sum multiplies S_n by up to C(nmax, nmax/2), and the inversion's
    error falls by about 0.6 digits per node. coarse is the rung below m (24
    below 32), so one rung's two node sets serve every build on it. Builds with
    nmax <= 2 run no inversion and take only the digits, 32.
    """
    need = 24 + -(-3 * nmax // 5)  # 24 + ceil(0.6 nmax), in integers
    m = max(32, -(-need // 16) * 16)
    return m, max(24, m - 16)


def _closed_form_sn(ctx, params: SinrModelParams) -> list:
    """[S_1^PD, ..., S_nmax^PD] for nmax <= 2 in closed form, at the working
    precision of ctx. With alpha = 2/beta and tau_2 = tau / (1 - tau),
        S_1 = E[N] = tau^(-alpha) sin(pi alpha) / (pi alpha),
        S_2 = tau_2^(-2 alpha) I_2(0) J_2(tau_2),
        I_2(0) = 2 / (beta Gamma(1 - alpha)^2 Gamma(1 + alpha)^2),
        J_2(x) = B(1 + alpha, 1 + alpha) / x 2F1(1, 1 + alpha; 2 + 2 alpha; -1/x).
    J_2 is the n = 2 integral of ``special_J``: partial fractions split its
    integrand into two halves, equal under v <-> 1 - v, and each is Euler's
    integral of 2F1 (Abramowitz & Stegun 15.3.1).
    """
    alpha = ctx.mpf(2) / params.beta
    tau = ctx.mpf(params.tau)
    sn = [tau**-alpha * ctx.sinpi(alpha) / (ctx.pi * alpha)]
    if params.nmax == 2:
        x = tau / (1 - tau)
        i_0 = 2 / (params.beta * (ctx.gamma(1 - alpha) * ctx.gamma(1 + alpha)) ** 2)
        j = ctx.beta(1 + alpha, 1 + alpha) / x * ctx.hyp2f1(1, 1 + alpha, 2 + 2 * alpha, -1 / x)
        sn.append(x ** (-2 * alpha) * i_0 * j)
    return sn


def _sn_with_errors(params: SinrModelParams):
    """(ctx, sn, errs): S_1..S_nmax as numbers of the mpmath context ctx,
    at its working precision, and their error estimates as floats.

    W = 0 gives S_n = S_n^PD: the signal-to-total-power ratios of a Poisson
    network form a PD(2/beta, 0) process, and N counts its atoms above
    s = tau/(1+tau) (Keeler & Blaszczyszyn 2014). Noise enters only
    through I: S_n = S_n^PD I_n(x) / I_n(0) with x = W a^(-beta/2),
    because J does not depend on W.

    The inversion runs m nodes at m digits, ``_inversion_sizes(nmax)``. The
    error estimate of S_n is its change under a second inversion with the
    coarser node count at the same digits, plus the propagated error of the
    noise factor. The rule on the even-indexed nodes alone would cost no
    Gamma(-alpha, z), but at these node counts it shares the full rule's
    unresolved error in the top S_n: at beta = 2.5, -24 dB its change is
    0.19 times the error of S_252.

    With nmax <= 2 (tau > 1/2) S_1^PD and S_2^PD are taken in closed form
    (``_closed_form_sn``) at 32 digits, and the estimate is their change at
    48 digits, the context of the next rung, plus one unit of the working
    precision. The inversion converges slowly
    as s -> 1/2, where the kink of the 2-fold density at t = 2s nears t = 1,
    and as s -> 1: within about 0.01 dB below 0 dB its change under fewer
    nodes fell short of its error, and from about 30 dB it failed its error
    limit.
    """
    nmax = params.nmax
    m, coarse = _inversion_sizes(nmax)
    ctx = _context(m)
    if nmax <= 2:
        sn = _closed_form_sn(ctx, params)
        finer = _context(m + 16)
        again = _closed_form_sn(finer, params)
        # the change, plus one unit of the working precision: the change alone can
        # fall short of the error by the rounding of the finer value or of the float
        errs = [float(abs(finer.convert(a) - b) + abs(b) * ctx.eps) for a, b in zip(sn, again)]
    else:
        alpha = ctx.mpf(2) / params.beta
        s = ctx.mpf(params.tau) / (1 + ctx.mpf(params.tau))
        sn = _pd_sn(ctx, alpha, s, nmax, m)
        coarser = _pd_sn(ctx, alpha, s, nmax, coarse)
        errs = [float(abs(a - b)) for a, b in zip(sn, coarser)]
    x = params.noise_argument
    if x > 0.0:
        for n in range(1, nmax + 1):
            factor, err_f = noise_factor(n, params.beta, x)
            errs[n - 1] = errs[n - 1] * factor + abs(float(sn[n - 1])) * err_f
            sn[n - 1] *= factor
    return ctx, sn, errs


def _pmf_errors(errs) -> list:
    """[sum_n C(n, k) errs[n-1] for k = 0..nmax]: the error estimates of p_k,
    with C(n, k) from Pascal's rule in integers and each sum exact."""
    terms = [[] for _ in range(len(errs) + 1)]  # terms[k]: C(n, k) errs[n-1] for n >= k
    row = [1]
    for err in errs:
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        for k, c in enumerate(row):
            terms[k].append(c * err)
    return [math.fsum(t) for t in terms]


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
    pmf_errs = _pmf_errors(errs)
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
