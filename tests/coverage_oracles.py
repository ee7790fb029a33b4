"""Oracles of the SIR build that share no code with it.

``node_gammas_1f1`` is the 1F1 form that ``coverage._node_gammas``'s power
series replaced. ``closed_form_s1_s2`` gives S_1 and S_2 in closed form at any
threshold below 0 dB, the reference of the inversion's first two S_n.
"""


def node_gammas_1f1(ctx, alpha, zs) -> list:
    """[Gamma(-alpha, z) for z in zs] at the working precision of ctx, as
        Gamma(-alpha, z) = Gamma(-alpha) + e^(-alpha log z - z) 1F1(1; 1-alpha; z) / alpha.
    The two terms cancel by up to Re(z) log2(e) bits, so each z runs
    int(1.45 max(0, Re z)) + 20 bits above the working precision, and
    Gamma(-alpha), computed once, runs at the largest of these guards.
    """
    top = max(float(ctx.re(z)) for z in zs)
    with ctx.extraprec(int(1.45 * max(0.0, top)) + 20):
        gamma_alpha = ctx.gamma(-alpha)
    out = []
    for z in zs:
        with ctx.extraprec(int(1.45 * max(0.0, float(ctx.re(z)))) + 20):
            g = ctx.exp(-alpha * ctx.log(z) - z) * ctx.hyp1f1(1, 1 - alpha, z) / alpha
            g += gamma_alpha
        out.append(+g)  # rounded to the working precision
    return out


def closed_form_s1_s2(ctx, beta, tau) -> list:
    """[S_1, S_2] of the SIR model without noise, for tau < 1, at the working
    precision of ctx, with alpha = 2/beta:
        S_1 = tau^(-alpha) sin(pi alpha) / (pi alpha),
        S_2 = ((1 - tau) / tau)^(2 alpha) (2/beta) (sin(pi alpha) / (pi alpha))^2
              B(1 + alpha, 1 + alpha) (1 - tau) 2F1(1, 1 + alpha; 2 + 2 alpha; 1 - tau).
    S_2 is tau_2^(-2 alpha) I_2(0) J_2(tau_2), tau_2 = tau / (1 - tau), with
    Gamma(1 - alpha) Gamma(1 + alpha) = pi alpha / sin(pi alpha) in I_2(0) and
    J_2's 2F1 at -1/tau_2 taken to 1 - tau by Pfaff's transformation: a route
    apart from the inversion and from ``coverage._closed_form_sn``.
    """
    alpha = ctx.mpf(2) / beta
    tau = ctx.mpf(tau)
    c = ctx.sinpi(alpha) / (ctx.pi * alpha)
    b = ctx.gamma(1 + alpha) ** 2 / ctx.gamma(2 + 2 * alpha)
    f = ctx.hyp2f1(1, 1 + alpha, 2 + 2 * alpha, 1 - tau)
    return [tau**-alpha * c, ((1 - tau) / tau) ** (2 * alpha) * 2 / beta * c**2 * b * (1 - tau) * f]
