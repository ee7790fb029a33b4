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
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, fields

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

ALL_POLICIES = (*solvers.BLOCK_SOLVERS, "ind")
GRID_POINTS_MAX = 100_000  # the figure sweeps use at most 33
BLOCKS_MAX = 1000  # -L and --greedy-blocks; `bound` at J = 2000, -12 dB: ~2.2 s on a 2-vCPU Xeon
CATALOG_MAX = 100_000  # -J; a default sweep at J = 10^5, -12 dB: ~0.45 s and 46 MiB peak, same host
MC_PASS_ENTRIES = 1 << 20  # per-item cut values one Monte Carlo pass of a sweep holds: 8 MiB
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
        # floor(ratio) + 1 points, the last at most min(1e-9, step / 1000) past stop;
        # max(-1, .) gives a stop far below start (a ratio of -inf) no point
        ratio = max(-1.0, (stop - start + min(1e-9, step / 1000)) / step)
        if ratio >= GRID_POINTS_MAX:
            raise ParameterError(f"grid range has more than {GRID_POINTS_MAX} points, got {text!r}")
        return tuple(round(start + k * step, 12) for k in range(math.floor(ratio) + 1))
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


_PARSE_BY_TYPE = {float: float, int: int, str: str, bool: _parse_bool}


def _setting(default, *flags, parse=None, commands=None, one_threshold=None, help=None, **spec):
    """An ``ExperimentConfig`` field: its default and how a flag or a config key sets it.

    ``flags`` default to --<field-name-with-dashes>; ``parse`` turns flag and
    config-file text into a value (by the default's type unless given);
    ``commands`` take the flag (every command if None); ``one_threshold`` replaces
    the default outside ``sweep`` (if not None); ``help`` may name it as
    {one_threshold}; ``spec`` is the rest of the flag's add_argument arguments.
    """
    parse = parse or _PARSE_BY_TYPE[type(default)]
    if parse is _parse_bool:
        spec.update(action="store_const", const=True)
    else:
        spec.setdefault("type", parse)
    spec["help"] = help and help.format(one_threshold=one_threshold)
    return field(default=default, metadata={
        "flags": flags, "parse": parse, "commands": commands,
        "one_threshold": one_threshold, "add_argument": spec,
    })


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep's settings; each field is also a flag and a config-file key."""

    model: str = _setting("boolean", choices=("boolean", "sinr"))
    lam: float = _setting(1.0, "--lambda", help="station density")
    beta: float = _setting(3.0, help="path-loss exponent (>2)")
    K: float = _setting(cov.BooleanModelParams.K, "-K", "--path-loss-constant")
    power_ratio: float = _setting(cov.BooleanModelParams.power_ratio,
                                  help="Boolean model P/W (linear)")
    noise_w: float = _setting(cov.SinrModelParams.noise_W, help="SINR model noise power W")
    moment_ps: float = _setting(cov.SinrModelParams.moment_PS,
                                help="SINR moment E[(PS)^(2/beta)]")
    tau_db_grid: tuple = _setting(
        tuple(float(d) for d in range(-12, 13)), "--tau-db", parse=parse_grid, type=_grid_flag,
        one_threshold=(0.0,), help="dB grid: 'start:stop:step' or comma list",
    )
    L: int = _setting(5, "-L", "--blocks", help="cache blocks")
    J: int = _setting(40, "-J", "--catalog", help="catalog size")
    gamma: float = _setting(0.9, help="Zipf exponent")
    pop_file: str = _setting("", help="popularity vector (JSON or CSV)")
    policies: tuple = _setting(ALL_POLICIES, parse=_parse_policies, commands=("sweep",))
    trials: int = _setting(0, commands=("sweep", "simulate"), one_threshold=100_000,
                           help="Monte Carlo trials: per sweep cell (0 = off), "
                                "or simulate's total ({one_threshold} unless set)")
    seed: int = _setting(0)
    output: str = _setting("", "--output", "-o", commands=("sweep",),
                           help="CSV output path (default stdout)")
    timing: bool = _setting(False, commands=("sweep",),
                            help="record wall_time_ms (breaks byte-identical reruns)")

    def __post_init__(self):
        if self.model not in ("boolean", "sinr"):
            raise ParameterError(f"model must be 'boolean' or 'sinr', got {self.model!r}")
        if not self.tau_db_grid:
            raise ParameterError("threshold grid must be nonempty")
        if not all(math.isfinite(t) for t in self.tau_db_grid):
            raise ParameterError(f"threshold grid values must be finite, got {self.tau_db_grid}")
        if len(set(self.tau_db_grid)) != len(self.tau_db_grid):  # 0 and -0 are one threshold
            raise ParameterError(f"each threshold may be named once, got {len(self.tau_db_grid)} "
                                 f"values with {len(set(self.tau_db_grid))} distinct")
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
        zipf(1, self.gamma)  # zipf's check of the exponent, whichever popularity runs
        for tau_db in self.tau_db_grid:
            _model_params(self, tau_db)  # both models' settings, the running one's cost limit


def _build_popularity(config: ExperimentConfig) -> PopularityDistribution:
    if not config.pop_file:
        return zipf(config.J, config.gamma)
    with warnings.catch_warnings(record=True) as caught:  # one stderr line each, naming the file
        warnings.simplefilter("always")
        pop = load_popularity(config.pop_file)
    for warning in caught:
        print(f"warning: {config.pop_file}: {warning.message}", file=sys.stderr)
    if pop.size > CATALOG_MAX:
        raise ParameterError(
            f"{config.pop_file}: catalog size must be in 1..{CATALOG_MAX}, got {pop.size} items"
        )
    return pop


def _model_params(config: ExperimentConfig, tau_db: float):
    """The coverage-model parameters of ``config`` at threshold ``tau_db``; the
    settings only the other model reads are checked too, but not that model's
    cost limit. Of the SINR checks, only the support limit reads tau beyond the
    checks both share, so a Boolean run builds its SINR parameters at tau = 1.
    The Boolean Poisson mean reads every setting, so a SINR run checks only
    the Boolean P/W."""
    try:
        tau = db_to_linear(tau_db)
    except OverflowError:
        tau = math.inf
    if not 0.0 < tau < math.inf:
        raise ParameterError(f"threshold {tau_db} dB is {tau} in linear units, out of range")
    sinr = cov.SinrModelParams(
        lam=config.lam,
        tau=tau if config.model == "sinr" else 1.0,
        beta=config.beta,
        K=config.K,
        noise_W=config.noise_w,
        moment_PS=config.moment_ps,
    )
    if config.model == "sinr":
        cov.check_power_ratio(config.power_ratio)
        return sinr
    return cov.BooleanModelParams(
        lam=config.lam,
        tau=tau,
        beta=config.beta,
        K=config.K,
        power_ratio=config.power_ratio,
    )


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
    which drives only the Monte Carlo columns. Every row whose policy
    caches something is checked on one sample, in one ``simulate_hits``
    pass for the whole sweep; pending rows times J reaching
    ``MC_PASS_ENTRIES`` start a new pass. No estimate depends on its pass.
    ``pop`` is the config's popularity, built here unless the caller has.
    """
    if pop is None:
        pop = _build_popularity(config)
    rows = []
    ok = True
    pending = []  # (row, policy, dist) of the rows the next Monte Carlo pass checks
    for tau_db in config.tau_db_grid:
        params = _model_params(config, tau_db)
        try:
            dist = _build_coverage(params)
        except GeocacheError as exc:
            print(f"warning: coverage failed at {tau_db} dB: {exc}", file=sys.stderr)
            dist = None
        mean_cov = float("nan") if dist is None else cov.mean_coverage(dist)
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
                    pending.append((row, result.policy, dist))
            except GeocacheError as exc:
                print(
                    f"warning: policy {name} failed at {tau_db} dB: {exc}",
                    file=sys.stderr,
                )
            row["wall_time_ms"] = (time.perf_counter() - t0) * 1e3
            if len(pending) * pop.size >= MC_PASS_ENTRIES:
                _simulate_pass(pending, pop, config)
                pending = []
    if pending:
        _simulate_pass(pending, pop, config)
    rows.sort(key=_row_order)
    return rows, ok


def _simulate_pass(cases, pop, config: ExperimentConfig) -> None:
    """Fill the Monte Carlo columns of the (row, policy, dist) cases from one
    sample; each row's wall time gains an equal share of the pass."""
    t0 = time.perf_counter()
    rows, policies, dists = zip(*cases)
    # trials by position: the benchmark's tracer reads it as the fourth argument
    reports = simulate.simulate_hits(policies, pop, dists, config.trials, config.seed)
    share_ms = (time.perf_counter() - t0) * 1e3 / len(cases)
    for row, report in zip(rows, reports):
        row.update(sim_estimate=report.estimate, sim_stderr=report.stderr)
        row["wall_time_ms"] += share_ms


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
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ParameterError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        values[key] = value.strip()
    return values


def _config_args(parser, command: str) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for f in fields(ExperimentConfig):
        meta = f.metadata
        if command in (meta["commands"] or (command,)):
            flags = meta["flags"] or ("--" + f.name.replace("_", "-"),)
            parser.add_argument(*flags, dest=f.name, **meta["add_argument"])


def _config_from_args(args) -> ExperimentConfig:
    """Each field from its CLI flag, else its config-file key, else the
    command's default: outside ``sweep``, its one-threshold default if it
    has one, and the threshold must be one value."""
    file_cfg = parse_config_file(args.config) if args.config else {}
    settings = {f.name: f.metadata for f in fields(ExperimentConfig)}
    unknown = sorted(set(file_cfg) - set(settings))
    if unknown:
        raise ParameterError(f"{args.config}: unknown config keys {unknown}")
    values = {}
    for name, meta in settings.items():
        value = getattr(args, name, None)
        if value is None and name in file_cfg:
            try:
                value = meta["parse"](file_cfg[name])
            except (ValueError, GeocacheError) as exc:
                raise ParameterError(f"{args.config}: bad value for {name}: {exc}") from None
        if value is None and args.command != "sweep":
            value = meta["one_threshold"]
        if value is not None:
            values[name] = value
    if args.command != "sweep" and len(values["tau_db_grid"]) != 1:
        raise ParameterError(f"this command takes one threshold, got {values['tau_db_grid']}")
    return ExperimentConfig(**values)


def _instance_from_config(config: ExperimentConfig):
    pop = _build_popularity(config)
    dist = _build_coverage(_model_params(config, config.tau_db_grid[0]))
    return pop, dist


@contextlib.contextmanager
def _writing(stream, name: str):
    """Write the output ``name`` to ``stream`` in the block, then flush it. A failed write
    ends in one error line, a closed pipe in ``main``; as Python's signal docs advise,
    ``stream`` then points at os.devnull, so its buffer cannot fail again at close or exit."""
    try:
        yield
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise
        raise ParameterError(f"{name}: cannot write output file: {exc.strerror}") from None


def _emit_json(payload) -> None:
    with _writing(sys.stdout, "stdout"):
        print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_sweep(args, config: ExperimentConfig) -> int:
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
        with _writing(stream, config.output or "stdout"):
            write_sweep_csv(rows, config, stream)
    return 0 if ok else 2


def _cmd_solve(args, config: ExperimentConfig) -> int:
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
    _emit_json(payload)
    return 0


def _cmd_coverage(args, config: ExperimentConfig) -> int:
    _, dist = _instance_from_config(config)
    _emit_json(dist.to_json_dict())
    return 0


def _load_policy_arg(text: str):
    text = text.strip()
    source = "--policy"
    try:
        if not text.startswith("{"):
            source = text
            with open(text, encoding="utf-8") as fh:
                text = fh.read()
        return policy_from_json_dict(json.loads(text))
    except OSError as exc:
        raise ParameterError(f"{source}: cannot read policy file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{source}: policy file is not UTF-8 text: {exc.reason}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # bad JSON or bad policy
        raise ParameterError(f"{source}: not a valid policy: {exc}") from None


def _cmd_simulate(args, config: ExperimentConfig) -> int:
    pop, dist = _instance_from_config(config)
    policy = _load_policy_arg(args.policy)
    [report] = simulate.simulate_hits([policy], pop, [dist], config.trials, config.seed)
    _emit_json(asdict(report))
    return 0


def _cmd_bound(args, config: ExperimentConfig) -> int:
    if args.greedy_K > BLOCKS_MAX:
        raise ParameterError(f"--greedy-blocks must be at most {BLOCKS_MAX}, got {args.greedy_K}")
    if args.greedy_K < config.L:
        raise ParameterError(
            f"--greedy-blocks must be at least L = {config.L}, got {args.greedy_K}")
    pop, dist = _instance_from_config(config)
    report = solvers.greedy_bound_check(pop, dist, config.L, args.greedy_K)
    _emit_json(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geocache",
        description="Geographic caching policies with linear content coding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):  # one command's parser, holding its config flags
        p = sub.add_parser(name, help=help)
        _config_args(p, name)
        p.set_defaults(func=func)
        return p

    command("sweep", _cmd_sweep, "run a threshold sweep and emit CSV")
    command("solve", _cmd_solve, "solve one instance with one policy").add_argument(
        "--policy", required=True, choices=ALL_POLICIES)
    command("coverage", _cmd_coverage, "tabulate the coverage-number pmf as JSON")
    command("simulate", _cmd_simulate, "Monte Carlo hit estimate for a policy").add_argument(
        "--policy", required=True, help="policy JSON (inline or file path)")
    command("bound", _cmd_bound, "greedy suboptimality bound report").add_argument(
        "--greedy-blocks", dest="greedy_K", type=int, required=True,
        help="number of blocks handed to the greedy (>= L)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _config_from_args(args))
    except BrokenPipeError:  # the reader left; _writing dropped the rest of the output
        return 1
    except GeocacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
