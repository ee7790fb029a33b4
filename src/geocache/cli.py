"""Command-line interface: parameter sweeps, single solves, tabulation, simulation.

Subcommands: sweep, solve, coverage, simulate, bound. Thresholds are
given in dB on the command line and converted to linear internally. The
sweep emits a fixed-schema CSV whose bytes are reproducible for a fixed
config and seed. The flags and config-file keys are derived from the
fields of ``ExperimentConfig`` and ``coverage.IntegrationConfig``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
import typing
from dataclasses import dataclass, field, fields, replace

from . import coverage as cov
from . import simulate, solvers
from .errors import GeocacheError, ParameterError
from .policy import (
    GeneralPolicy,
    StructuredPolicy,
    hit_probability_general,
    hit_probability_structured,
    policy_from_json_dict,
)
from .popularity import PopularityDistribution, load_popularity, zipf

ALL_POLICIES = ("onc", "ggb", "gdbnc", "mp", "ind")
ENV_SEED = "GEOCACHE_SEED"
CSV_FIELDS = (
    "tau_db",
    "tau_linear",
    "mean_coverage",
    "policy",
    "hit_prob",
    "sim_estimate",
    "sim_stderr",
    "wall_time_ms",
)


def db_to_linear(tau_db: float) -> float:
    return 10.0 ** (tau_db / 10.0)


def linear_to_db(tau: float) -> float:
    return 10.0 * math.log10(tau)


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "boolean"
    lam: float = 1.0
    beta: float = 3.0
    K: float = 1.0
    power_ratio: float = 1.0  # Boolean model P/W
    noise_w: float = 0.0  # SINR model W
    moment_ps: float = 1.0  # SINR model E[(PS)^(2/beta)]
    tau_db_grid: tuple = tuple(float(d) for d in range(-12, 13))
    L: int = 5
    J: int = 40
    gamma: float = 0.9
    pop_file: str = ""
    policies: tuple = ALL_POLICIES
    trials: int = 0
    seed: int = 0
    output: str = ""
    timing: bool = False
    integration: cov.IntegrationConfig = field(default_factory=cov.IntegrationConfig)

    def __post_init__(self):
        if self.model not in ("boolean", "sinr"):
            raise ParameterError(f"model must be 'boolean' or 'sinr', got {self.model!r}")
        if not self.tau_db_grid:
            raise ParameterError("threshold grid must be nonempty")
        if not all(math.isfinite(t) for t in self.tau_db_grid):
            raise ParameterError(f"threshold grid values must be finite, got {self.tau_db_grid}")
        unknown = set(self.policies) - set(ALL_POLICIES)
        if unknown:
            raise ParameterError(f"unknown policies: {sorted(unknown)}")
        if self.L < 1:
            raise ParameterError(f"block count L must be >= 1, got {self.L}")
        if self.J < 1:
            raise ParameterError(f"catalog size J must be >= 1, got {self.J}")
        if self.trials < 0:
            raise ParameterError(f"trials must be >= 0, got {self.trials}")


def _build_popularity(config: ExperimentConfig) -> PopularityDistribution:
    if config.pop_file:
        return load_popularity(config.pop_file)
    return zipf(config.J, config.gamma)


def _build_coverage(config: ExperimentConfig, tau: float) -> cov.CoverageDistribution:
    if config.model == "boolean":
        params = cov.BooleanModelParams(
            lam=config.lam,
            tau=tau,
            beta=config.beta,
            K=config.K,
            power_ratio=config.power_ratio,
        )
        return cov.boolean_coverage(params)
    return cov.sinr_coverage(_sinr_params(config, tau))


def _sinr_params(config: ExperimentConfig, tau: float) -> cov.SinrModelParams:
    return cov.SinrModelParams(
        lam=config.lam,
        tau=tau,
        beta=config.beta,
        K=config.K,
        noise_W=config.noise_w,
        moment_PS=config.moment_ps,
        integration=replace(config.integration, seed=config.seed),
    )


def _coverage_scope(config: ExperimentConfig):
    """For a SINR sweep, a block in which every grid threshold's S_n are
    built in one pass over n; ``sinr_coverage`` is still called per cell."""
    if config.model != "sinr":
        return contextlib.nullcontext()
    return cov._sinr_grid(
        [_sinr_params(config, db_to_linear(tau_db)) for tau_db in config.tau_db_grid]
    )


def _run_policy(name, pop, dist, L) -> solvers.SolverResult:
    # read from the module on every call, never stored in a table, so that
    # rebinding solvers.independent_caching (a wrapper, a test double) takes effect
    solve = solvers.independent_caching if name == "ind" else solvers.BLOCK_SOLVERS[name]
    return solve(pop, dist, L)


def _simulable(policy) -> bool:
    """A deterministic block policy that caches something: one Monte Carlo can check."""
    if isinstance(policy, StructuredPolicy):
        return policy.total_items > 0
    return isinstance(policy, GeneralPolicy)


def _revalidate(result, pop, dist) -> bool:
    """Emitted hit probabilities must match an independent re-evaluation."""
    policy = result.policy
    if isinstance(policy, solvers.IndPolicy):
        again = solvers.hit_probability_ind(policy, pop, dist)
    elif isinstance(policy, StructuredPolicy):
        again = hit_probability_structured(policy, pop, dist)
    else:
        again = hit_probability_general(policy, pop, dist)
    return abs(again - result.hit_prob) <= 1e-12


def run_sweep(config: ExperimentConfig):
    """Evaluate every requested policy on every grid threshold.

    Returns (rows, ok): row dicts sorted by mean coverage then policy
    name, and an all-consistency-checks-passed flag. Failures at single
    cells are marked (empty hit_prob) without aborting the sweep; cells
    whose coverage build failed (NaN mean coverage) sort last, by
    threshold then policy. A SINR sweep builds the S_n of the whole grid
    in one pass before its cells.
    """
    with _coverage_scope(config):
        rows, ok = _sweep_cells(config)
    rows.sort(key=_row_order)
    return rows, ok


def _sweep_cells(config: ExperimentConfig):
    pop = _build_popularity(config)
    rows = []
    ok = True
    for tau_db in config.tau_db_grid:
        tau = db_to_linear(tau_db)
        try:
            dist = _build_coverage(config, tau)
        except GeocacheError as exc:
            print(f"warning: coverage failed at {tau_db} dB: {exc}", file=sys.stderr)
            for name in sorted(config.policies):
                rows.append(
                    {
                        "tau_db": tau_db,
                        "tau_linear": tau,
                        "mean_coverage": float("nan"),
                        "policy": name,
                        "hit_prob": None,
                        "sim_estimate": None,
                        "sim_stderr": None,
                        "wall_time_ms": None,
                    }
                )
            continue
        mean_cov = cov.mean_coverage(dist)
        for name in sorted(config.policies):
            t0 = time.perf_counter()
            sim_estimate = sim_stderr = None
            try:
                result = _run_policy(name, pop, dist, config.L)
                hit = result.hit_prob
                if not _revalidate(result, pop, dist):
                    ok = False
                if config.trials and _simulable(result.policy):
                    report = simulate.simulate_hits(
                        result.policy, pop, dist, config.trials, config.seed
                    )
                    sim_estimate = report.estimate
                    sim_stderr = report.stderr
            except GeocacheError as exc:
                print(
                    f"warning: policy {name} failed at {tau_db} dB: {exc}",
                    file=sys.stderr,
                )
                hit = None
            wall_ms = (time.perf_counter() - t0) * 1e3
            rows.append(
                {
                    "tau_db": tau_db,
                    "tau_linear": tau,
                    "mean_coverage": mean_cov,
                    "policy": name,
                    "hit_prob": hit,
                    "sim_estimate": sim_estimate,
                    "sim_stderr": sim_stderr,
                    "wall_time_ms": wall_ms,
                }
            )
    return rows, ok


def _row_order(row) -> tuple:
    """By mean coverage, policy, tau; failed cells (NaN coverage) last by tau, policy."""
    if math.isnan(row["mean_coverage"]):
        return (1, row["tau_db"], row["policy"])
    return (0, row["mean_coverage"], row["policy"], row["tau_db"])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_sweep_csv(rows, config: ExperimentConfig, stream) -> None:
    """Fixed-header CSV; wall_time_ms is blank unless timing was requested
    so that reruns with one seed stay byte-identical."""
    include_sim = bool(config.trials)
    names = [
        f
        for f in CSV_FIELDS
        if include_sim or f not in ("sim_estimate", "sim_stderr")
    ]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        record = dict(row)
        if not config.timing:
            record["wall_time_ms"] = None
        writer.writerow([_fmt(record[name]) for name in names])


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


_CONFIG_ALIASES = {"lambda": "lam", "tau_db": "tau_db_grid"}


def parse_config_file(path) -> dict:
    """Flat ``key = value`` config text; '#' starts a comment. Values stay
    text; keys ``lambda`` and ``tau_db`` become ``lam`` and ``tau_db_grid``.
    A key may appear once, counting an alias and its target as one key."""
    values = {}
    seen = {}  # canonical key -> (key as written, line)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise GeocacheError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            name = _CONFIG_ALIASES.get(key, key)
            if name in seen:
                first, first_line = seen[name]
                raise ParameterError(
                    f"{path}:{lineno}: key {key!r} repeats {first!r} from line {first_line}"
                )
            seen[name] = (key, lineno)
            values[name] = value.strip()
    return values


def parse_grid(text: str) -> tuple:
    """Grid syntax: 'start:stop:step' (inclusive) or comma-separated dB values."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise GeocacheError(f"grid range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise GeocacheError("grid step must be positive")
        values = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + 1e-9:
                break
            values.append(round(v, 12))
            k += 1
        return tuple(values)
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_policies(text: str) -> tuple:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")


# How the text of a flag or a config-file value becomes a field value: by
# the field's annotation, except for the two tuple fields.
_PARSE_BY_TYPE = {float: float, int: int, str: str, bool: _parse_bool}
_SPECIAL_PARSERS = {"tau_db_grid": parse_grid, "policies": _parse_policies}
# Every field is set by --<field-name-with-dashes> unless "flags" says
# otherwise; the rest of each entry goes to add_argument.
_FLAG_SPECS = {
    "model": {"choices": ("boolean", "sinr")},
    "lam": {"flags": ("--lambda",), "help": "station density"},
    "beta": {"help": "path-loss exponent (>2)"},
    "K": {"flags": ("-K", "--path-loss-constant")},
    "power_ratio": {"help": "Boolean model P/W (linear)"},
    "noise_w": {"help": "SINR model noise power W"},
    "moment_ps": {"help": "SINR moment E[(PS)^(2/beta)]"},
    "tau_db_grid": {"flags": ("--tau-db",), "help": "dB grid: 'start:stop:step' or comma list"},
    "L": {"flags": ("-L", "--blocks"), "help": "cache blocks"},
    "J": {"flags": ("-J", "--catalog"), "help": "catalog size"},
    "gamma": {"help": "Zipf exponent"},
    "pop_file": {"help": "popularity vector (JSON or CSV)"},
    "trials": {"help": "Monte Carlo trials per cell (0 = off)"},
    "output": {"flags": ("--output", "-o"), "help": "CSV output path (default stdout)"},
    "timing": {"help": "record wall_time_ms (breaks byte-identical reruns)"},
}
_SWEEP_ONLY = ("policies", "trials", "output", "timing")


def _settable_fields() -> dict:
    """{field name: value parser} for every field a flag or config key sets:
    those of ``ExperimentConfig`` and of its ``IntegrationConfig``, whose
    ``seed`` is the config's (``_build_coverage`` copies it)."""
    hints = typing.get_type_hints(ExperimentConfig) | typing.get_type_hints(cov.IntegrationConfig)
    del hints["integration"]
    return {n: _SPECIAL_PARSERS.get(n) or _PARSE_BY_TYPE[t] for n, t in hints.items()}


def _config_args(parser, *, sweep: bool) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for name, parse in _settable_fields().items():
        if name in _SWEEP_ONLY and not sweep:
            continue
        spec = dict(_FLAG_SPECS.get(name, {}))
        flags = spec.pop("flags", ("--" + name.replace("_", "-"),))
        if parse is _parse_bool:
            spec.update(action="store_const", const=True)
        else:
            spec.update(type=parse)
        parser.add_argument(*flags, dest=name, **spec)


def _config_from_args(args, *, sweep: bool) -> ExperimentConfig:
    """Each field from its CLI flag, else its config-file key, else (seed
    only) $GEOCACHE_SEED, else the dataclass default.

    Outside ``sweep`` the threshold is one value, 0 dB unless set.
    """
    file_cfg = parse_config_file(args.config) if args.config else {}
    parsers = _settable_fields()
    unknown = sorted(set(file_cfg) - set(parsers))
    if unknown:
        raise ParameterError(f"{args.config}: unknown config keys {unknown}")
    values = {}
    for name, parse in parsers.items():
        value = getattr(args, name, None)
        if value is None and name in file_cfg:
            try:
                value = parse(file_cfg[name])
            except (ValueError, GeocacheError) as exc:
                raise ParameterError(f"{args.config}: bad value for {name}: {exc}") from None
        if value is not None:
            values[name] = value
    if "seed" not in values and os.environ.get(ENV_SEED):
        text = os.environ[ENV_SEED]
        try:
            values["seed"] = int(text)
        except ValueError:
            raise ParameterError(f"{ENV_SEED} must be an integer, got {text!r}") from None
    if not sweep:
        values.setdefault("tau_db_grid", (0.0,))
        if len(values["tau_db_grid"]) != 1:
            raise ParameterError(f"this command takes one threshold, got {values['tau_db_grid']}")
    own = {f.name for f in fields(ExperimentConfig)}
    integration = {n: values.pop(n) for n in list(values) if n not in own}
    return ExperimentConfig(**values, integration=cov.IntegrationConfig(**integration))


def _instance_from_config(config: ExperimentConfig):
    pop = _build_popularity(config)
    tau = db_to_linear(config.tau_db_grid[0])
    dist = _build_coverage(config, tau)
    return pop, dist


def _emit_json(payload, stream) -> None:
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    config = _config_from_args(args, sweep=True)
    rows, ok = run_sweep(config)
    buffer = io.StringIO()
    write_sweep_csv(rows, config, buffer)
    data = buffer.getvalue()
    if config.output:
        with open(config.output, "w", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)
    return 0 if ok else 2


def _cmd_solve(args) -> int:
    config = _config_from_args(args, sweep=False)
    pop, dist = _instance_from_config(config)
    name = args.policy
    result = _run_policy(name, pop, dist, config.L)
    payload = {
        "policy_name": name,
        "hit_prob": result.hit_prob,
        "diagnostics": result.diagnostics,
    }
    if isinstance(result.policy, solvers.IndPolicy):
        payload.update(b=result.policy.b.tolist(), multiplier=result.policy.multiplier)
    else:
        payload["policy"] = result.policy.to_json_dict()
    _emit_json(payload, sys.stdout)
    return 0


def _cmd_coverage(args) -> int:
    config = _config_from_args(args, sweep=False)
    tau = db_to_linear(config.tau_db_grid[0])
    dist = _build_coverage(config, tau)
    _emit_json(dist.to_json_dict(), sys.stdout)
    return 0


def _load_policy_arg(text: str):
    text = text.strip()
    if text.startswith("{"):
        return policy_from_json_dict(json.loads(text))
    with open(text) as fh:
        return policy_from_json_dict(json.load(fh))


def _cmd_simulate(args) -> int:
    config = _config_from_args(args, sweep=False)
    pop, dist = _instance_from_config(config)
    policy = _load_policy_arg(args.policy)
    report = simulate.simulate_hits(policy, pop, dist, args.trials, config.seed)
    _emit_json(report.to_json_dict(), sys.stdout)
    return 0


def _cmd_bound(args) -> int:
    config = _config_from_args(args, sweep=False)
    pop, dist = _instance_from_config(config)
    report = solvers.greedy_bound_check(pop, dist, config.L, args.greedy_K)
    _emit_json(report, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geocache",
        description="Geographic caching policies with linear content coding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a threshold sweep and emit CSV")
    _config_args(p, sweep=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("solve", help="solve one instance with one policy")
    _config_args(p, sweep=False)
    p.add_argument("--policy", required=True, choices=ALL_POLICIES)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("coverage", help="tabulate the coverage-number pmf as JSON")
    _config_args(p, sweep=False)
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("simulate", help="Monte Carlo hit estimate for a policy")
    _config_args(p, sweep=False)
    p.add_argument("--policy", required=True, help="policy JSON (inline or file path)")
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bound", help="greedy suboptimality bound report")
    _config_args(p, sweep=False)
    p.add_argument("--greedy-blocks", dest="greedy_K", type=int, required=True,
                   help="number of blocks handed to the greedy (>= L)")
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeocacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
