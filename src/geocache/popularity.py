"""Content popularity distributions.

Contents are indexed 1..J in nonincreasing order of request probability.
The solvers read interval masses A([k, l]) = sum_{j=k}^{l} a_j as
differences of the prefix-sum table ``prefix``.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParameterError

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PopularityDistribution:
    """Nonincreasing probability vector a_1 >= ... >= a_J with prefix sums.

    The order is exact: any rise between ranks is refused, so every solver may
    rely on a_i >= a_j for i < j. A raw vector goes through ``from_probs``,
    which sorts it.
    """

    probs: np.ndarray
    prefix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ParameterError("popularity requires a nonempty 1-D probability vector")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
            raise ParameterError("popularity probabilities must be finite and nonnegative")
        if np.any(np.diff(probs) > 0.0):
            raise ParameterError("popularity probabilities must be nonincreasing")
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"popularity probabilities must sum to 1, got {total!r}")
        probs = probs.copy()
        probs.flags.writeable = False
        prefix = np.concatenate(([0.0], np.cumsum(probs)))
        prefix.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "prefix", prefix)

    @property
    def size(self) -> int:
        return int(self.probs.size)


def from_probs(raw) -> PopularityDistribution:
    """Build a popularity distribution from a raw nonnegative vector.

    Values are sorted into nonincreasing order (content indices are
    popularity ranks) and normalized; a warning is emitted when the input
    was not normalized to within 1e-9.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ParameterError("popularity vector must be nonempty and 1-D")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ParameterError("popularity vector must be finite and nonnegative")
    arr = np.sort(arr)[::-1]
    total = math.fsum(arr.tolist())
    if total <= 0.0:
        raise ParameterError("popularity vector must have positive total mass")
    if abs(total - 1.0) > _SUM_TOL:
        warnings.warn(
            f"popularity vector sums to {total:.6g}; normalizing", stacklevel=2
        )
    return PopularityDistribution(arr / total)


def zipf(J: int, gamma: float) -> PopularityDistribution:
    """Truncated Zipf popularity: a_j = j^(-gamma) / sum_{i=1}^{J} i^(-gamma)."""
    if J < 1:
        raise ParameterError(f"catalog size must be >= 1, got {J}")
    if not (gamma >= 0.0 and math.isfinite(gamma)):
        raise ParameterError(f"Zipf exponent must be finite and >= 0, got {gamma}")
    j = np.arange(1, J + 1, dtype=float)
    w = j ** (-gamma)
    return PopularityDistribution(w / math.fsum(w.tolist()))


def load_popularity(path) -> PopularityDistribution:
    """Load a popularity vector from JSON ({"probs": [...]}) or CSV/text.

    Text/CSV input carries one probability per line (a single-column CSV);
    a row with more than one non-blank field is refused.
    Unnormalized vectors are normalized with a warning; values are sorted
    into nonincreasing order.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"{p}: cannot read popularity file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{p}: popularity file is not UTF-8 text: {exc.reason}") from None
    if p.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ParameterError(f"{p}: not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or not isinstance(payload.get("probs"), list):
            raise ParameterError(f"{p}: JSON popularity input must carry a 'probs' array")
        values = payload["probs"]
        for i, value in enumerate(values):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParameterError(f"{p}: probs[{i}] is not a number: {value!r}")
            try:
                float(value)
            except OverflowError:  # an integer beyond the float range
                raise ParameterError(f"{p}: probs[{i}] is too large for a float") from None
    else:
        values = []
        reader = csv.reader(text.splitlines())
        for row in reader:
            fields = [f for f in row if f.strip()]
            if not fields:
                continue
            if len(fields) > 1:
                raise ParameterError(
                    f"{p}:{reader.line_num}: expected one probability per line, "
                    f"got {len(fields)} fields"
                )
            try:
                values.append(float(fields[0]))
            except ValueError:
                raise ParameterError(f"{p}:{reader.line_num}: not a number: {fields[0]!r}") from None
    return from_probs(values)
