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

import itertools
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
    def blocks(self) -> tuple[range, ...]:
        """The items of each nonzero size, in consecutive ranges from item 1."""
        starts = itertools.accumulate(self.sizes, initial=1)
        return tuple(range(s, s + m) for s, m in zip(starts, self.sizes) if m > 0)

    def to_json_dict(self) -> dict:
        return {"type": "structured", "sizes": list(self.sizes)}


def canonical_sizes(sizes) -> tuple[int, ...]:
    """Nonzero sizes sorted nondecreasing, zero sizes trailing."""
    sizes = tuple(sizes)  # read twice below, and callers may pass a generator
    nz = sorted(m for m in sizes if m > 0)
    return tuple(nz) + (0,) * (len(sizes) - len(nz))


def policy_from_json_dict(payload: dict):
    kind = payload.get("type")
    if kind == "structured":
        return StructuredPolicy(tuple(payload["sizes"]))
    if kind == "general":
        return GeneralPolicy(tuple(payload["blocks"]))
    raise ParameterError(f"unknown policy type {kind!r}")


# r_j of an item no block holds: larger than any coverage number, so it is
# never hit; the evaluator reads its tail, like any r_j > kmax, at tail[kmax + 1] = 0
UNCACHED = np.iinfo(np.int64).max


def item_thresholds(policy: GeneralPolicy | StructuredPolicy, J: int) -> np.ndarray:
    """Per item j = 1..J the size r_j of the smallest block holding j.

    Reads ``policy.blocks`` of either policy type; items held by no block
    get ``UNCACHED``. Item j is hit iff its coverage number is >= r_j.
    """
    blocks = policy.blocks
    # stops at the first item past J, so a huge structured size costs O(J)
    if any(j > J for block in blocks for j in block):
        raise ParameterError("policy references items beyond the catalog")
    r = np.full(J, UNCACHED, dtype=np.int64)
    # largest blocks first, so the smallest block holding an item is written last
    for block in sorted(blocks, key=len, reverse=True):
        r[np.fromiter(block, np.int64, len(block)) - 1] = len(block)
    return r


def hit_probability_general(
    policy: GeneralPolicy | StructuredPolicy,
    pop: PopularityDistribution,
    dist: CoverageDistribution,
) -> float:
    """P_hit = sum_j a_j * Pbar(r_j) of any block policy, summed exactly rounded."""
    r = item_thresholds(policy, pop.size)
    terms = pop.probs * dist.tail[np.minimum(r, dist.kmax + 1)]
    return math.fsum(terms.tolist())


# one evaluator serves both policy types; the two names stay so callers say
# which kind of policy they score
hit_probability_structured = hit_probability_general

