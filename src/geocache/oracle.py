"""A reference hit evaluator, built to be obviously correct, not fast."""

from __future__ import annotations

import math
from itertools import chain

from .coverage import CoverageDistribution
from .errors import ParameterError
from .policy import StructuredPolicy
from .popularity import PopularityDistribution
from .solvers import IndPolicy


def reference_hit(policy, pop: PopularityDistribution, dist: CoverageDistribution) -> float:
    """P_hit of any solver's policy, computed without the evaluators the solvers use.

    Block policies: a plain loop over the blocks finds each item's smallest
    block size r_j, and P_hit = sum_j a_j Pbar(r_j). Independent caching
    uses the tail identity 1 - G(1 - b) = sum_{k>=1} Pbar(k) b (1 - b)^(k-1)
    instead of the coverage pgf G. Only items with b_j > 0 are summed: every
    term of the others is a_j * 0 * ... = +0.0, which leaves an fsum as it is.
    (``hit_probability_ind`` cannot skip them the same way: its term
    a_j (1 - G(1)) is a rounding residue of G(1) = 1, not an exact zero.)
    """
    J = pop.size
    if isinstance(policy, IndPolicy):
        if policy.b.size != J:
            raise ParameterError("caching probabilities must cover the catalog exactly")
        held = policy.b > 0.0
        b = policy.b[held]

        def rows():  # one k at a time: fsum streams, so only one row is held
            term = pop.probs[held] * b  # a_j b_j (1 - b_j)^(k-1) at k = 1
            for k in range(1, dist.kmax + 1):
                yield (dist.tail_at(k) * term).tolist()
                term = term * (1.0 - b)

        return math.fsum(chain.from_iterable(rows()))
    if isinstance(policy, StructuredPolicy):
        blocks, start = [], 1
        for m in policy.sizes:
            blocks.append(range(start, start + m))
            start += m
    else:
        blocks = policy.blocks
    smallest = {}
    for block in blocks:
        for j in block:
            if j > J:
                raise ParameterError("policy references items beyond the catalog")
            smallest[j] = min(len(block), smallest.get(j, len(block)))
    probs = pop.probs.tolist()
    return math.fsum(probs[j - 1] * dist.tail_at(r) for j, r in smallest.items())
