"""Command-line interface: parameter sweeps, single solves, tabulation, simulation.

Subcommands: sweep, solve, coverage, simulate, bound (plus an unlisted
``brute`` used for debugging the exhaustive oracles). Thresholds are given
in dB on the command line and converted to linear internally. The sweep
emits a fixed-schema CSV whose bytes are reproducible for a fixed config
and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

from . import coverage as cov
from . import oracle, simulate, solvers
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
    params = cov.SinrModelParams(
        lam=config.lam,
        tau=tau,
        beta=config.beta,
        K=config.K,
        noise_W=config.noise_w,
        moment_PS=config.moment_ps,
        integration=replace(config.integration, seed=config.seed),
    )
    return cov.sinr_coverage(params)


def _run_policy(name, pop, dist, L):
    """(SolverResult, general_policy_or_None); None when nothing can be simulated."""
    # read from the module on every call, never stored in a table, so that
    # rebinding solvers.independent_caching (a wrapper, a test double) takes effect
    solve = solvers.independent_caching if name == "ind" else solvers.BLOCK_SOLVERS[name]
    result = solve(pop, dist, L)
    policy = result.policy
    if isinstance(policy, solvers.IndPolicy):
        return result, None  # randomized marginals, no deterministic block family
    try:
        general = policy if isinstance(policy, GeneralPolicy) else policy.to_general()
    except GeocacheError:
        general = None  # policy caches nothing; nothing to simulate
    return result, general


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
    threshold then policy.
    """
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
                result, general = _run_policy(name, pop, dist, config.L)
                hit = result.hit_prob
                if not _revalidate(result, pop, dist):
                    ok = False
                if config.trials and general is not None:
                    report = simulate.simulate_hits(
                        general, pop, dist, config.trials, config.seed
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
    rows.sort(key=_row_order)
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


def parse_config_file(path) -> dict:
    """Flat ``key = value`` config text; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise GeocacheError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    if "lambda" in values:
        values["lam"] = values.pop("lambda")
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


_CONFIG_PARSERS = {
    "model": str,
    "lam": float,
    "beta": float,
    "K": float,
    "power_ratio": float,
    "noise_w": float,
    "moment_ps": float,
    "tau_db_grid": parse_grid,
    "tau_db": float,
    "L": int,
    "J": int,
    "gamma": float,
    "pop_file": str,
    "policies": lambda s: tuple(p.strip() for p in s.split(",") if p.strip()),
    "trials": int,
    "seed": int,
    "output": str,
    "timing": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "rel_tol_1d": float,
    "qmc_points": int,
    "qmc_replicates": int,
    "gauss_nodes": int,
    "tensor_dim_limit": int,
}


def _resolve(args, file_cfg, key, default, parser=None):
    """CLI flag beats config file beats default."""
    cli_val = getattr(args, key, None)
    if cli_val is not None:
        return cli_val
    if key in file_cfg:
        p = parser or _CONFIG_PARSERS.get(key, str)
        return p(file_cfg[key])
    return default


def _resolve_seed(args, file_cfg) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in file_cfg:
        return int(file_cfg["seed"])
    env = os.environ.get(ENV_SEED)
    return int(env) if env else 0


def _model_args(parser, *, grid: bool):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--model", choices=("boolean", "sinr"))
    parser.add_argument("--lambda", dest="lam", type=float, help="station density")
    parser.add_argument("--beta", type=float, help="path-loss exponent (>2)")
    parser.add_argument("-K", "--path-loss-constant", dest="K", type=float)
    parser.add_argument("--power-ratio", type=float, help="Boolean model P/W (linear)")
    parser.add_argument("--noise-w", type=float, help="SINR model noise power W")
    parser.add_argument("--moment-ps", type=float, help="SINR moment E[(PS)^(2/beta)]")
    if grid:
        parser.add_argument(
            "--tau-db",
            dest="tau_db_grid",
            type=parse_grid,
            help="dB grid: 'start:stop:step' or comma list",
        )
    else:
        parser.add_argument("--tau-db", type=float, help="threshold in dB")
    parser.add_argument("-L", "--blocks", dest="L", type=int, help="cache blocks")
    parser.add_argument("-J", "--catalog", dest="J", type=int, help="catalog size")
    parser.add_argument("--gamma", type=float, help="Zipf exponent")
    parser.add_argument("--pop-file", help="popularity vector (JSON or CSV)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--rel-tol-1d", type=float)
    parser.add_argument("--qmc-points", type=int)
    parser.add_argument("--qmc-replicates", type=int)
    parser.add_argument("--gauss-nodes", type=int)
    parser.add_argument("--tensor-dim-limit", type=int)


def _config_from_args(args, *, grid: bool) -> ExperimentConfig:
    file_cfg = parse_config_file(args.config) if args.config else {}
    seed = _resolve_seed(args, file_cfg)
    integration = cov.IntegrationConfig(
        rel_tol_1d=_resolve(args, file_cfg, "rel_tol_1d", 1e-9),
        qmc_points=_resolve(args, file_cfg, "qmc_points", 2**17),
        qmc_replicates=_resolve(args, file_cfg, "qmc_replicates", 8),
        gauss_nodes=_resolve(args, file_cfg, "gauss_nodes", 48),
        tensor_dim_limit=_resolve(args, file_cfg, "tensor_dim_limit", 4),
        seed=seed,
    )
    if grid:
        tau_grid = _resolve(
            args, file_cfg, "tau_db_grid",
            tuple(float(d) for d in range(-12, 13)),
        )
    else:
        tau_db = _resolve(args, file_cfg, "tau_db", 0.0)
        tau_grid = (float(tau_db),)
    return ExperimentConfig(
        model=_resolve(args, file_cfg, "model", "boolean"),
        lam=_resolve(args, file_cfg, "lam", 1.0),
        beta=_resolve(args, file_cfg, "beta", 3.0),
        K=_resolve(args, file_cfg, "K", 1.0),
        power_ratio=_resolve(args, file_cfg, "power_ratio", 1.0),
        noise_w=_resolve(args, file_cfg, "noise_w", 0.0),
        moment_ps=_resolve(args, file_cfg, "moment_ps", 1.0),
        tau_db_grid=tuple(tau_grid),
        L=_resolve(args, file_cfg, "L", 5),
        J=_resolve(args, file_cfg, "J", 40),
        gamma=_resolve(args, file_cfg, "gamma", 0.9),
        pop_file=_resolve(args, file_cfg, "pop_file", ""),
        policies=tuple(_resolve(args, file_cfg, "policies", ALL_POLICIES)),
        trials=int(_resolve(args, file_cfg, "trials", 0) or 0),
        seed=seed,
        output=_resolve(args, file_cfg, "output", ""),
        timing=bool(_resolve(args, file_cfg, "timing", False)),
        integration=integration,
    )


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
    config = _config_from_args(args, grid=True)
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
    config = _config_from_args(args, grid=False)
    pop, dist = _instance_from_config(config)
    name = args.policy
    result, _ = _run_policy(name, pop, dist, config.L)
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
    config = _config_from_args(args, grid=False)
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
    config = _config_from_args(args, grid=False)
    pop, dist = _instance_from_config(config)
    policy = _load_policy_arg(args.policy)
    if isinstance(policy, StructuredPolicy):
        policy = policy.to_general()
    report = simulate.simulate_hits(policy, pop, dist, args.trials, config.seed)
    _emit_json(report.to_json_dict(), sys.stdout)
    return 0


def _cmd_bound(args) -> int:
    config = _config_from_args(args, grid=False)
    pop, dist = _instance_from_config(config)
    report = solvers.greedy_bound_check(pop, dist, config.L, args.greedy_K)
    _emit_json(report, sys.stdout)
    return 0


def _cmd_brute(args) -> int:
    config = _config_from_args(args, grid=False)
    pop, dist = _instance_from_config(config)
    fn = oracle.brute_structured if args.kind == "structured" else oracle.brute_general
    result = fn(pop, dist, config.L)
    payload = {
        "policy": result.policy.to_json_dict(),
        "hit_prob": result.hit_prob,
        "diagnostics": result.diagnostics,
    }
    _emit_json(payload, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geocache",
        description="Geographic caching policies with linear content coding.",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{sweep,solve,coverage,simulate,bound}",
    )

    p = sub.add_parser("sweep", help="run a threshold sweep and emit CSV")
    _model_args(p, grid=True)
    p.add_argument("--policies", type=lambda s: tuple(x.strip() for x in s.split(",")))
    p.add_argument("--trials", type=int, help="Monte Carlo trials per cell (0 = off)")
    p.add_argument("--output", "-o", help="CSV output path (default stdout)")
    p.add_argument("--timing", action="store_const", const=True, default=None,
                   help="record wall_time_ms (breaks byte-identical reruns)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("solve", help="solve one instance with one policy")
    _model_args(p, grid=False)
    p.add_argument("--policy", required=True, choices=ALL_POLICIES)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("coverage", help="tabulate the coverage-number pmf as JSON")
    _model_args(p, grid=False)
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("simulate", help="Monte Carlo hit estimate for a policy")
    _model_args(p, grid=False)
    p.add_argument("--policy", required=True, help="policy JSON (inline or file path)")
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bound", help="greedy suboptimality bound report")
    _model_args(p, grid=False)
    p.add_argument("--greedy-blocks", dest="greedy_K", type=int, required=True,
                   help="number of blocks handed to the greedy (>= L)")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("brute")  # debugging oracle; intentionally unlisted
    _model_args(p, grid=False)
    p.add_argument("--kind", choices=("structured", "general"), default="structured")
    p.set_defaults(func=_cmd_brute)

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
