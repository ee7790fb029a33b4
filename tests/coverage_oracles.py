"""The node gammas' earlier 1F1 form, kept as an oracle for the power series.

``coverage._node_gammas`` sums Gamma(-alpha, z) from its power series in
fixed-point integers. This is the form it replaced: mpmath's confluent
hypergeometric function, which shares no code with the series.
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
