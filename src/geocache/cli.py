"""Command-line interface: parameter sweeps, single solves, tabulation, simulation.

Subcommands: sweep, solve, coverage, simulate, bound. Thresholds are
given in dB on the command line and converted to linear internally. The
sweep emits a fixed-schema CSV whose bytes are reproducible for a fixed
config and seed. The flags and config-file keys are derived from the
fields of ``ExperimentConfig``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time
import typing
from dataclasses import asdict, dataclass

from . import coverage as cov
from . import simulate, solvers
from .errors import GeocacheError, ParameterError
from .oracle import reference_hit
from .policy import (  # the benchmark tracer rebinds the two hit_probability_* names here
    hit_probability_general,
    hit_probability_structured,
    policy_from_json_dict,
)
from .popularity import PopularityDistribution, load_popularity, zipf

ALL_POLICIES = ("onc", "ggb", "gdbnc", "mp", "ind")
GRID_POINTS_MAX = 100_000  # the figure sweeps use at most 33
BLOCKS_MAX = 1000  # -L and --greedy-blocks; `bound` at J = 2000, -12 dB: ~2.2 s on a 2-vCPU Xeon
CATALOG_MAX = 100_000  # -J; a default sweep at J = 10^5, -12 dB: ~1.2 s and 258 MiB peak, same host
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

    def __post_init__(self):
        if self.model not in ("boolean", "sinr"):
            raise ParameterError(f"model must be 'boolean' or 'sinr', got {self.model!r}")
        if not self.tau_db_grid:
            raise ParameterError("threshold grid must be nonempty")
        if not all(math.isfinite(t) for t in self.tau_db_grid):
            raise ParameterError(f"threshold grid values must be finite, got {self.tau_db_grid}")
        if not self.policies:
            raise ParameterError("policy list must be nonempty")
        unknown = set(self.policies) - set(ALL_POLICIES)
        if unknown:
            raise ParameterError(f"unknown policies: {sorted(unknown)}")
        if len(set(self.policies)) != len(self.policies):
            raise ParameterError(f"each policy may be named once, got {self.policies}")
        if not 1 <= self.L <= BLOCKS_MAX:
            raise ParameterError(f"block count L must be in 1..{BLOCKS_MAX}, got {self.L}")
        if not 1 <= self.J <= CATALOG_MAX:
            raise ParameterError(f"catalog size J must be in 1..{CATALOG_MAX}, got {self.J}")
        if self.trials < 0:
            raise ParameterError(f"trials must be >= 0, got {self.trials}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        for tau_db in self.tau_db_grid:
            _model_params(self, tau_db)  # both models check their own settings


def _build_popularity(config: ExperimentConfig) -> PopularityDistribution:
    if config.pop_file:
        return load_popularity(config.pop_file)
    return zipf(config.J, config.gamma)


def _model_params(config: ExperimentConfig, tau_db: float):
    """The coverage-model parameters of ``config`` at threshold ``tau_db``; both
    models' parameters are built, so each checks its settings whichever one runs.
    Of the SINR checks, only the support limit reads tau beyond the checks both
    share; it bounds the cost of a SINR build, so a Boolean run builds its SINR
    parameters at tau = 1."""
    try:
        tau = db_to_linear(tau_db)
    except OverflowError:
        tau = math.inf
    if not 0.0 < tau < math.inf:
        raise ParameterError(f"threshold {tau_db} dB is {tau} in linear units, out of range")
    boolean = cov.BooleanModelParams(
        lam=config.lam,
        tau=tau,
        beta=config.beta,
        K=config.K,
        power_ratio=config.power_ratio,
    )
    sinr = cov.SinrModelParams(
        lam=config.lam,
        tau=tau if config.model == "sinr" else 1.0,
        beta=config.beta,
        K=config.K,
        noise_W=config.noise_w,
        moment_PS=config.moment_ps,
    )
    return boolean if config.model == "boolean" else sinr


def _build_coverage(params) -> cov.CoverageDistribution:
    if isinstance(params, cov.BooleanModelParams):
        return cov.boolean_coverage(params)
    return cov.sinr_coverage(params)


def _run_policy(name, pop, dist, L) -> solvers.SolverResult:
    # read from the module on every call, never stored in a table, so that
    # rebinding solvers.independent_caching (a wrapper, a test double) takes effect
    solve = solvers.independent_caching if name == "ind" else solvers.BLOCK_SOLVERS[name]
    return solve(pop, dist, L)


def _simulable(policy) -> bool:
    """A deterministic block policy that caches something: one Monte Carlo can check."""
    return not isinstance(policy, solvers.IndPolicy) and len(policy.blocks) > 0


def run_sweep(config: ExperimentConfig, pop: PopularityDistribution | None = None):
    """Evaluate every requested policy on every grid threshold.

    Returns (rows, ok): row dicts sorted by mean coverage then policy
    name, and a flag that is False if any solver's hit probability differs
    by more than 1e-12 from ``oracle.reference_hit``. Failures at single
    cells are marked (empty hit_prob) without aborting the sweep; cells
    whose coverage build failed (NaN mean coverage) sort last, by
    threshold then policy. The SINR coverage does not depend on the seed,
    which drives only the Monte Carlo columns. A cell's policies are all
    solved and re-checked first; then one ``simulate_hits`` call draws the
    sample that checks every policy of the cell that caches something.
    ``pop`` is the config's popularity, built here unless the caller has.
    """
    if pop is None:
        pop = _build_popularity(config)
    rows = []
    ok = True
    for tau_db in config.tau_db_grid:
        params = _model_params(config, tau_db)
        try:
            dist = _build_coverage(params)
        except GeocacheError as exc:
            print(f"warning: coverage failed at {tau_db} dB: {exc}", file=sys.stderr)
            dist = None
        mean_cov = float("nan") if dist is None else cov.mean_coverage(dist)
        simulated = []  # (row, policy) of the cell's rows that one Monte Carlo checks
        for name in sorted(config.policies):
            row = dict.fromkeys(CSV_FIELDS)
            row.update(tau_db=tau_db, tau_linear=params.tau, mean_coverage=mean_cov, policy=name)
            rows.append(row)
            if dist is None:
                continue
            t0 = time.perf_counter()
            try:
                result = _run_policy(name, pop, dist, config.L)
                if abs(reference_hit(result.policy, pop, dist) - result.hit_prob) > 1e-12:
                    ok = False
                row["hit_prob"] = result.hit_prob
                if config.trials and _simulable(result.policy):
                    simulated.append((row, result.policy))
            except GeocacheError as exc:
                print(
                    f"warning: policy {name} failed at {tau_db} dB: {exc}",
                    file=sys.stderr,
                )
            row["wall_time_ms"] = (time.perf_counter() - t0) * 1e3
        if simulated:  # one sample for the whole cell; each row bears an equal share of its time
            t0 = time.perf_counter()
            reports = simulate.simulate_hits(
                [policy for _, policy in simulated], pop, dist, config.trials, config.seed
            )
            share_ms = (time.perf_counter() - t0) * 1e3 / len(simulated)
            for (row, _), report in zip(simulated, reports):
                row.update(sim_estimate=report.estimate, sim_stderr=report.stderr)
                row["wall_time_ms"] += share_ms
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
    """Flat ``key = value`` config text; '#' starts a comment. Values stay
    text, and a key may appear once."""
    values = {}
    lines = {}  # key -> line of its first use
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParameterError(f"{path}: cannot open config file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: config file is not UTF-8 text: {exc.reason}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GeocacheError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ParameterError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        values[key] = value.strip()
    return values


def parse_grid(text: str) -> tuple:
    """Grid syntax: 'start:stop:step' (inclusive) or comma-separated dB values."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError(f"grid range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ParameterError(f"grid range parts must be finite, got {text!r}")
        if step <= 0:
            raise ParameterError("grid step must be positive")
        if (stop - start) / step >= GRID_POINTS_MAX:  # the range has floor(ratio) + 1 points
            raise ParameterError(f"grid range has more than {GRID_POINTS_MAX} points, got {text!r}")
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


def _grid_flag(text: str) -> tuple:
    """``parse_grid`` for ``--tau-db``: argparse shows the reason a range is bad."""
    try:
        return parse_grid(text)
    except ValueError as exc:  # ParameterError included
        raise argparse.ArgumentTypeError(str(exc)) from None


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
# Every field is set by --<field-name-with-dashes> and parsed as above
# unless "flags" or "type" says otherwise; the rest of each entry goes to
# add_argument.
_FLAG_SPECS = {
    "model": {"choices": ("boolean", "sinr")},
    "lam": {"flags": ("--lambda",), "help": "station density"},
    "beta": {"help": "path-loss exponent (>2)"},
    "K": {"flags": ("-K", "--path-loss-constant")},
    "power_ratio": {"help": "Boolean model P/W (linear)"},
    "noise_w": {"help": "SINR model noise power W"},
    "moment_ps": {"help": "SINR moment E[(PS)^(2/beta)]"},
    "tau_db_grid": {"flags": ("--tau-db",), "type": _grid_flag,
                    "help": "dB grid: 'start:stop:step' or comma list"},
    "L": {"flags": ("-L", "--blocks"), "help": "cache blocks"},
    "J": {"flags": ("-J", "--catalog"), "help": "catalog size"},
    "gamma": {"help": "Zipf exponent"},
    "pop_file": {"help": "popularity vector (JSON or CSV)"},
    "trials": {"help": "Monte Carlo trials: per sweep cell (0 = off), "
                        "or simulate's total (100000 unless set)"},
    "output": {"flags": ("--output", "-o"), "help": "CSV output path (default stdout)"},
    "timing": {"help": "record wall_time_ms (breaks byte-identical reruns)"},
}
# Fields only some commands take; every command takes all the others.
_TAKEN_ONLY_BY = {
    "policies": ("sweep",),
    "trials": ("sweep", "simulate"),
    "output": ("sweep",),
    "timing": ("sweep",),
}
# What the one-threshold commands use where neither a flag nor the config
# file sets a field (of them, only simulate reads trials).
_ONE_THRESHOLD_DEFAULTS = {"tau_db_grid": (0.0,), "trials": 100_000}


def _settable_fields() -> dict:
    """{field name: value parser} for every field of ``ExperimentConfig``,
    each set by a flag or a config key."""
    hints = typing.get_type_hints(ExperimentConfig)
    return {n: _SPECIAL_PARSERS.get(n) or _PARSE_BY_TYPE[t] for n, t in hints.items()}


def _config_args(parser, command: str) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for name, parse in _settable_fields().items():
        if command not in _TAKEN_ONLY_BY.get(name, (command,)):
            continue
        spec = dict(_FLAG_SPECS.get(name, {}))
        flags = spec.pop("flags", ("--" + name.replace("_", "-"),))
        if parse is _parse_bool:
            spec.update(action="store_const", const=True)
        else:
            spec.setdefault("type", parse)
        parser.add_argument(*flags, dest=name, **spec)


def _config_from_args(args) -> ExperimentConfig:
    """Each field from its CLI flag, else its config-file key, else the
    command's default.

    Outside ``sweep`` the threshold is one value, and the defaults of
    ``_ONE_THRESHOLD_DEFAULTS`` replace the dataclass defaults.
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
    if args.command != "sweep":
        values = {**_ONE_THRESHOLD_DEFAULTS, **values}
        if len(values["tau_db_grid"]) != 1:
            raise ParameterError(f"this command takes one threshold, got {values['tau_db_grid']}")
    return ExperimentConfig(**values)


def _instance_from_config(config: ExperimentConfig):
    pop = _build_popularity(config)
    dist = _build_coverage(_model_params(config, config.tau_db_grid[0]))
    return pop, dist


def _emit_json(payload, stream) -> None:
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    pop = _build_popularity(config)  # a bad --gamma or --pop-file fails before -o creates a file
    out = contextlib.nullcontext(sys.stdout)
    if config.output:  # opened before any cell runs, so an unwritable path costs no sweep
        try:
            out = open(config.output, "w", newline="")
        except OSError as exc:
            reason = exc.strerror
            raise ParameterError(f"{config.output}: cannot write output file: {reason}") from None
    with out as stream:
        rows, ok = run_sweep(config, pop)
        write_sweep_csv(rows, config, stream)
    return 0 if ok else 2


def _cmd_solve(args) -> int:
    config = _config_from_args(args)
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
    config = _config_from_args(args)
    dist = _build_coverage(_model_params(config, config.tau_db_grid[0]))
    _emit_json(dist.to_json_dict(), sys.stdout)
    return 0


def _load_policy_arg(text: str):
    text = text.strip()
    source = "--policy"
    try:
        if not text.startswith("{"):
            source = text
            with open(text) as fh:
                text = fh.read()
        return policy_from_json_dict(json.loads(text))
    except OSError as exc:
        raise ParameterError(f"{source}: cannot read policy file: {exc.strerror}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # bad JSON or bad policy
        raise ParameterError(f"{source}: not a valid policy: {exc}") from None


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    pop, dist = _instance_from_config(config)
    policy = _load_policy_arg(args.policy)
    [report] = simulate.simulate_hits([policy], pop, dist, config.trials, config.seed)
    _emit_json(asdict(report), sys.stdout)
    return 0


def _cmd_bound(args) -> int:
    config = _config_from_args(args)
    if args.greedy_K > BLOCKS_MAX:
        raise ParameterError(f"--greedy-blocks must be at most {BLOCKS_MAX}, got {args.greedy_K}")
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
    _config_args(p, "sweep")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("solve", help="solve one instance with one policy")
    _config_args(p, "solve")
    p.add_argument("--policy", required=True, choices=ALL_POLICIES)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("coverage", help="tabulate the coverage-number pmf as JSON")
    _config_args(p, "coverage")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("simulate", help="Monte Carlo hit estimate for a policy")
    _config_args(p, "simulate")
    p.add_argument("--policy", required=True, help="policy JSON (inline or file path)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bound", help="greedy suboptimality bound report")
    _config_args(p, "bound")
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
