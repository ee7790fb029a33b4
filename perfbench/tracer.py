"""Spans recorded from outside the library, around the calls into each layer.

``Tracer.installed()`` swaps the bindings the production code resolves at
call time for timing wrappers and restores them on exit:

- ``solvers.BLOCK_SOLVERS`` entries (``cli`` looks them up per call);
- ``solvers.independent_caching``;
- ``coverage.boolean_coverage``, ``coverage.sinr_coverage`` (``cli.cov``)
  and ``coverage.special_J`` (looked up by ``_sn_with_error``);
- ``simulate.simulate_hits`` and ``simulate.simulate_boolean_ppp``;
- the ``hit_probability_*`` names ``cli`` and ``solvers`` import by name;
- ``cli.zipf``, ``cli.run_sweep`` and ``cli.write_sweep_csv``.

Spans stay in memory; ``write_jsonl`` writes them out once the run ends.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

from geocache import cli, coverage, simulate, solvers

BLOCK_SOLVER_NAMES = ("onc", "ggb", "gdbnc", "mp")
HIT_EVALUATORS = ("hit_probability_structured", "hit_probability_general")


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "error", "attrs", "child_s")

    def __init__(self, sid, name, parent, attrs):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.error = None
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _special_j_attrs(args, kwargs) -> dict:
    """Work of one special_J(n, beta, x, cfg) call; coverage passes all four."""
    n, _, _, cfg = args
    d = n - 1
    if d > cfg.tensor_dim_limit:
        return {"kind": "qmc", "points": cfg.qmc_points * cfg.qmc_replicates}
    m = cfg.gauss_nodes
    # full rule plus the half rule used for the error estimate; n=1 is closed form
    nodes = m**d + max(2, m // 2) ** d if d > 0 else 0
    return {"kind": "tensor", "nodes": nodes}


def _trials_attr(args, kwargs) -> dict:
    """``trials`` is the fourth positional argument of both simulate entry points."""
    return {"trials": args[3]}


class Tracer:
    """Records one span per wrapped call; ``trace_id`` groups spans by unit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.trace_id = 0

    def wrap(self, name, fn, attrs_of=None, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            attrs = attrs_of(args, kwargs) if attrs_of else {}
            attrs["trace_id"] = self.trace_id
            span = Span(len(self.spans), name, parent.sid if parent else None, attrs)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if on_result is not None:
                on_result(span, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        def sinr_result(span, dist):
            span.attrs["sn_err_max"] = max(dist.meta["sn_error_estimates"], default=0.0)

        def onc_result(span, result):
            span.attrs["stage_maximizations"] = result.diagnostics["stage_maximizations"]

        def ggb_result(span, result):
            span.attrs["candidate_evaluations"] = result.diagnostics["candidate_evaluations"]

        def ppp_result(span, dist):
            span.attrs["points"] = sum(k * c for k, c in enumerate(dist.meta["counts"]))

        solver_hooks = {"onc": onc_result, "ggb": ggb_result}
        patches = [
            (coverage, "boolean_coverage", "coverage.boolean", None, None),
            (coverage, "sinr_coverage", "coverage.sinr", None, sinr_result),
            (coverage, "special_J", "coverage.J", _special_j_attrs, None),
            (solvers, "independent_caching", "solvers.ind", None, None),
            (simulate, "simulate_hits", "simulate.hits", _trials_attr, None),
            (simulate, "simulate_boolean_ppp", "simulate.ppp", _trials_attr, ppp_result),
            (cli, "zipf", "popularity.zipf", None, None),
            (cli, "run_sweep", "cli.run_sweep", None, None),
            (cli, "write_sweep_csv", "cli.csv_write", None, None),
        ]
        patches += [(mod, fn, "policy.hit_eval", None, None)
                    for mod in (cli, solvers) for fn in HIT_EVALUATORS]
        saved = []
        try:
            for owner, attr, name, attrs_of, on_result in patches:
                original = getattr(owner, attr)
                saved.append((setattr, owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, attrs_of, on_result))
            for key in BLOCK_SOLVER_NAMES:
                original = solvers.BLOCK_SOLVERS[key]
                saved.append((dict.__setitem__, solvers.BLOCK_SOLVERS, key, original))
                solvers.BLOCK_SOLVERS[key] = self.wrap(
                    f"solvers.{key}", original, None, solver_hooks.get(key)
                )
            yield self
        finally:
            for restore, owner, attr, original in reversed(saved):
                restore(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "error": s.error, **s.attrs,
                }) + "\n")


def _sum(values):
    return float(sum(values))


def layer_metrics(spans) -> dict:
    """Per-layer times and work counts of one traced unit."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def spans_of(name, pred=None):
        found = by_name.get(name, [])
        return [s for s in found if pred(s)] if pred else found

    qmc = spans_of("coverage.J", lambda s: s.attrs["kind"] == "qmc")
    tensor = spans_of("coverage.J", lambda s: s.attrs["kind"] == "tensor")
    sinr = spans_of("coverage.sinr")
    sinr_failed = [s for s in sinr if s.error is not None]
    m = {
        "coverage.J_qmc_s": _sum(s.duration for s in qmc),
        "coverage.J_qmc_calls": len(qmc),
        "coverage.J_qmc_points": sum(s.attrs["points"] for s in qmc),
        "coverage.J_tensor_s": _sum(s.duration for s in tensor),
        "coverage.J_tensor_calls": len(tensor),
        "coverage.J_tensor_nodes": sum(s.attrs["nodes"] for s in tensor),
        "coverage.sinr_s": _sum(s.duration for s in sinr),
        "coverage.sinr_calls": len(sinr),
        "coverage.sinr_self_s": _sum(s.self_s for s in sinr),
        "coverage.sinr_failed": len(sinr_failed),
        "coverage.sinr_failed_s": _sum(s.duration for s in sinr_failed),
        "coverage.sn_err_max": max((s.attrs.get("sn_err_max", 0.0) for s in sinr), default=0.0),
        "coverage.boolean_s": _sum(s.duration for s in spans_of("coverage.boolean")),
        "coverage.boolean_calls": len(spans_of("coverage.boolean")),
        "popularity.zipf_s": _sum(s.duration for s in spans_of("popularity.zipf")),
        "popularity.zipf_calls": len(spans_of("popularity.zipf")),
    }
    for key in BLOCK_SOLVER_NAMES + ("ind",):
        found = spans_of(f"solvers.{key}")
        m[f"solvers.{key}_s"] = _sum(s.duration for s in found)
        m[f"solvers.{key}_calls"] = len(found)
    m["solvers.onc_stage_max"] = sum(
        s.attrs.get("stage_maximizations", 0) for s in spans_of("solvers.onc"))
    m["solvers.ggb_evals"] = sum(
        s.attrs.get("candidate_evaluations", 0) for s in spans_of("solvers.ggb"))
    hits = spans_of("simulate.hits")
    ppp = spans_of("simulate.ppp")
    m.update({
        "policy.hit_eval_s": _sum(s.duration for s in spans_of("policy.hit_eval")),
        "policy.hit_eval_calls": len(spans_of("policy.hit_eval")),
        "simulate.hits_s": _sum(s.duration for s in hits),
        "simulate.hits_trials": sum(s.attrs["trials"] for s in hits),
        "simulate.ppp_s": _sum(s.duration for s in ppp),
        "simulate.ppp_trials": sum(s.attrs["trials"] for s in ppp),
        "simulate.ppp_points": sum(s.attrs.get("points", 0) for s in ppp),
        "cli.sweep_self_s": _sum(s.self_s for s in spans_of("cli.run_sweep")),
        "cli.csv_write_s": _sum(s.duration for s in spans_of("cli.csv_write")),
    })
    return m
