"""Earlier forms of two SIR build steps, kept as oracles for the current ones.

``node_gammas_1f1`` is the 1F1 form that ``coverage._node_gammas``'s power
series replaced; it shares no code with the series. ``sn_with_errors_two_inversions``
is ``coverage._sn_with_errors`` in an mpmath context of its own, with the sizes of
``coverage._inversion_sizes``: both inversions in every build.
"""

from geocache import coverage


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


def sn_with_errors_two_inversions(params):
    """(ctx, sn, errs) of ``coverage._sn_with_errors``, every estimate from the change
    under the coarser inversion, in a context of its own."""
    import mpmath

    nmax = params.nmax
    m, coarse = coverage._inversion_sizes(nmax)
    ctx = mpmath.MPContext()
    ctx.dps = m
    alpha = ctx.mpf(2) / params.beta
    if nmax == 1:
        sn = [ctx.mpf(params.tau) ** -alpha * ctx.sinpi(alpha) / (ctx.pi * alpha)]
        errs = [0.0]
    else:
        s = ctx.mpf(params.tau) / (1 + ctx.mpf(params.tau))
        sn = coverage._pd_sn(ctx, alpha, s, nmax, m)
        coarser = coverage._pd_sn(ctx, alpha, s, nmax, coarse)
        errs = [float(abs(a - b)) for a, b in zip(sn, coarser)]
    x = params.noise_argument
    if x > 0.0:
        for n in range(1, nmax + 1):
            factor, err_f = coverage.noise_factor(n, params.beta, x)
            errs[n - 1] = errs[n - 1] * factor + abs(float(sn[n - 1])) * err_f
            sn[n - 1] *= factor
    return ctx, sn, errs
