"""Caching-policy representations and hit-probability evaluation.

A policy assigns content subsets C_1..C_L to the L memory blocks every
station carries; block i stores one linear combination of the items in
C_i, so a requested item j is recoverable iff some block containing j has
cardinality at most the coverage number N. Hence the hit probability

    P_hit = sum_j a_j * Pbar(min{|C_i| : j in C_i}),   min{} = infinity.

Both policy types are scored through the per-item threshold vector
r_j = min{|C_i| : j in C_i} of ``item_thresholds``; for pairwise-disjoint
consecutive blocks the sum reduces to sum_k A(C_k) * Pbar(|C_k|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverage import CoverageDistribution
from .errors import ParameterError
from .popularity import PopularityDistribution

__all__ = [
    "GeneralPolicy",
    "StructuredPolicy",
    "UNCACHED",
    "canonical_sizes",
    "item_thresholds",
    "hit_probability_general",
    "hit_probability_structured",
    "canonicalize",
]


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as Python ints; each must be an int or a numpy integer, not a bool."""
    values = tuple(values)
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in values):
        raise ParameterError(f"{what} must be integers, got {list(values)}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class GeneralPolicy:
    """L content subsets (overlap allowed), indices 1-based."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        blocks = tuple(frozenset(_integers(b, "content indices")) for b in self.blocks)
        if len(blocks) < 1:
            raise ParameterError("policy needs at least one block")
        for b in blocks:
            if not b:
                raise ParameterError("blocks must be nonempty")
            if any(j < 1 for j in b):
                raise ParameterError("content indices must be >= 1")
        object.__setattr__(self, "blocks", blocks)

    def to_json_dict(self) -> dict:
        return {"type": "general", "blocks": [sorted(b) for b in self.blocks]}


@dataclass(frozen=True)
class StructuredPolicy:
    """Consecutive disjoint blocks encoded by their sizes (0 = unused block).

    Nonzero sizes must be nondecreasing; block k covers the interval
    starting right after the blocks before it.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = _integers(self.sizes, "block sizes")
        if len(sizes) < 1:
            raise ParameterError("structured policy needs at least one block size")
        if any(m < 0 for m in sizes):
            raise ParameterError("block sizes must be >= 0")
        nonzero = [m for m in sizes if m > 0]
        if any(b < a for a, b in zip(nonzero, nonzero[1:])):
            raise ParameterError("nonzero block sizes must be nondecreasing")
        object.__setattr__(self, "sizes", sizes)

    @property
    def total_items(self) -> int:
        return sum(self.sizes)

    def intervals(self) -> list:
        """(start, end, size) of each used block, 1-based inclusive."""
        out = []
        start = 1
        for m in self.sizes:
            if m > 0:
                out.append((start, start + m - 1, m))
                start += m
        return out

    def to_json_dict(self) -> dict:
        return {"type": "structured", "sizes": list(self.sizes)}


def canonical_sizes(sizes) -> tuple[int, ...]:
    """Nonzero sizes sorted nondecreasing, zero sizes trailing."""
    nz = sorted(m for m in sizes if m > 0)
    return tuple(nz) + (0,) * (len(tuple(sizes)) - len(nz))


def policy_from_json_dict(payload: dict):
    kind = payload.get("type")
    if kind == "structured":
        return StructuredPolicy(tuple(payload["sizes"]))
    if kind == "general":
        return GeneralPolicy(tuple(payload["blocks"]))
    raise ParameterError(f"unknown policy type {kind!r}")


# r_j of an item no block holds: larger than any coverage number, so its
# tail Pr{N >= r_j} is exactly 0 whatever the distribution's support
UNCACHED = np.iinfo(np.int64).max


def item_thresholds(policy: GeneralPolicy | StructuredPolicy, J: int) -> np.ndarray:
    """Per item j = 1..J the size r_j of the smallest block holding j.

    Accepts a ``GeneralPolicy`` or a ``StructuredPolicy``; items held by no
    block get ``UNCACHED``. Item j is hit iff its coverage number is >= r_j.
    """
    r = np.full(J, UNCACHED, dtype=np.int64)
    if isinstance(policy, StructuredPolicy):
        if policy.total_items > J:
            raise ParameterError("policy references items beyond the catalog")
        for start, end, m in policy.intervals():
            r[start - 1 : end] = m
        return r
    # largest blocks first, so the smallest block holding an item is written last
    for block in sorted(policy.blocks, key=len, reverse=True):
        items = [j - 1 for j in block]
        if max(items) >= J:
            raise ParameterError("policy references items beyond the catalog")
        r[items] = len(block)
    return r


def hit_probability_general(
    policy: GeneralPolicy | StructuredPolicy,
    pop: PopularityDistribution,
    dist: CoverageDistribution,
) -> float:
    """P_hit = sum_j a_j * Pbar(r_j) of any block policy, summed exactly rounded."""
    J = pop.size
    r = item_thresholds(policy, J)
    cached = r != UNCACHED
    terms = pop.probs[cached] * dist.tail_array(J)[r[cached]]
    return math.fsum(terms.tolist())


# one evaluator serves both policy types; the two names stay so callers say
# which kind of policy they score
hit_probability_structured = hit_probability_general


def canonicalize(policy: GeneralPolicy, pop: PopularityDistribution) -> StructuredPolicy:
    """Reduce a general policy to a structured one of no smaller hit probability.

    Applies three value-monotone moves: keep each duplicated item only in a
    smallest containing block, repack onto the most popular items, and sort
    block sizes nondecreasing so more popular items land in smaller blocks.
    Each move is value-monotone under every coverage distribution, so none
    is passed in.
    """
    item_thresholds(policy, pop.size)  # rejects items beyond the catalog
    blocks = [set(b) for b in policy.blocks]
    owners = {}
    for idx, b in enumerate(blocks):
        for j in b:
            owners.setdefault(j, []).append(idx)
    for j in sorted(owners):
        containing = [i for i in owners[j] if j in blocks[i]]
        if len(containing) > 1:
            keep = min(containing, key=lambda i: (len(blocks[i]), i))
            for i in containing:
                if i != keep:
                    blocks[i].discard(j)
    return StructuredPolicy(canonical_sizes(len(b) for b in blocks))
