import argparse
import contextlib
import io
import json
import math

import numpy as np
import pytest

from geocache.cli import (
    ExperimentConfig,
    db_to_linear,
    linear_to_db,
    main,
    parse_config_file,
    parse_grid,
    run_sweep,
)
from geocache import CoverageDistribution, IntegrationConfig, cli, solvers
from geocache import coverage as cov
from geocache.errors import GeocacheError, NumericalCancellationError, ParameterError


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-12.0) == pytest.approx(0.06309573444801933, rel=1e-14)
    assert db_to_linear(12.0) == pytest.approx(15.848931924611133, rel=1e-14)
    assert linear_to_db(db_to_linear(7.3)) == pytest.approx(7.3, abs=1e-12)


def test_parse_grid_range_and_list():
    assert parse_grid("-2:2:1") == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert parse_grid("0, 3,6") == (0.0, 3.0, 6.0)
    with pytest.raises(GeocacheError):
        parse_grid("0:5")
    with pytest.raises(GeocacheError):
        parse_grid("0:5:-1")


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment\nmodel = boolean\nlambda = 2.5\ntau_db_grid = 0,3\n\nL=4\n"
    )
    cfg = parse_config_file(path)
    assert cfg == {"model": "boolean", "lam": "2.5", "tau_db_grid": "0,3", "L": "4"}


def test_parse_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("just some words\n")
    with pytest.raises(GeocacheError):
        parse_config_file(path)


def test_config_validation():
    with pytest.raises(GeocacheError):
        ExperimentConfig(model="hexagonal")
    with pytest.raises(GeocacheError):
        ExperimentConfig(policies=("onc", "magic"))
    with pytest.raises(GeocacheError):
        ExperimentConfig(tau_db_grid=())


@pytest.mark.parametrize(
    "overrides",
    [
        {"model": "hexagonal"},
        {"policies": ("onc", "magic")},
        {"tau_db_grid": ()},
        {"tau_db_grid": (0.0, float("nan"))},
        {"tau_db_grid": (float("-inf"), 3.0)},
        {"L": 0},
        {"J": 0},
        {"trials": -1},
    ],
)
def test_config_rejects_bad_values_up_front(overrides):
    with pytest.raises(ParameterError):
        ExperimentConfig(**overrides)


def test_config_accepts_boundary_values():
    config = ExperimentConfig(L=1, J=1, trials=0, tau_db_grid=(-30.0, 30.0))
    assert (config.L, config.J, config.trials) == (1, 1, 0)


def _sweep_config(argv):
    args = cli.build_parser().parse_args(["sweep", *argv])
    return cli._config_from_args(args, sweep=True)


def test_sweep_defaults_are_the_dataclass_defaults(monkeypatch):
    monkeypatch.delenv("GEOCACHE_SEED", raising=False)
    assert _sweep_config([]) == ExperimentConfig()


# a non-default value for every settable field, as flag / config-file text
FIELD_TEXT = {
    "model": "sinr", "tau_db_grid": "-3:3:3", "policies": "onc,mp,",
    "pop_file": "pop.json", "output": "rows.csv", "timing": "true",
}
TYPE_TEXT = {float: "2.5", int: "7"}


def test_every_field_set_alike_by_flag_and_by_config_key(tmp_path, monkeypatch):
    monkeypatch.delenv("GEOCACHE_SEED", raising=False)
    parser = argparse.ArgumentParser()
    cli._config_args(parser, sweep=True)
    flags = {
        a.dest: next(o for o in a.option_strings if o.startswith("--"))
        for a in parser._actions
    }
    settable = cli._settable_fields()
    assert set(settable) <= set(flags)
    for name, parse in settable.items():
        text = FIELD_TEXT.get(name) or TYPE_TEXT[parse]
        path = tmp_path / f"{name}.cfg"
        path.write_text(f"{name} = {text}\n")
        by_file = _sweep_config(["--config", str(path)])
        argv = [flags[name]] if name == "timing" else [f"{flags[name]}={text}"]
        assert _sweep_config(argv) == by_file, name
        owner, default = by_file, ExperimentConfig()
        if not hasattr(default, name):
            owner, default = owner.integration, default.integration
        assert getattr(owner, name) == parse(text) != getattr(default, name), name


@pytest.mark.parametrize(
    "line", ["gama = 0.5", "modle = sinr", "seed_ = 1", "integration = 0", "J = forty",
             "tau_db = 0:5"],
)
def test_bad_config_line_names_key_and_file(tmp_path, capsys, line):
    path = tmp_path / "exp.cfg"
    path.write_text(f"L = 3\n{line}\n")
    assert main(["sweep", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert line.split("=")[0].strip() in err and str(path) in err


@pytest.mark.parametrize("word", ["1", "TRUE", "yes", "On", "0", "false", "NO", "off"])
def test_config_booleans_read_every_spelling(tmp_path, word):
    path = tmp_path / "exp.cfg"
    path.write_text(f"timing = {word}\n")
    assert _sweep_config(["--config", str(path)]).timing is (word.lower() in ("1", "true", "yes", "on"))


@pytest.mark.parametrize("word", ["flase", "ture", "2", "y", ""])
def test_config_boolean_typo_is_an_error(tmp_path, capsys, word):
    path = tmp_path / "exp.cfg"
    path.write_text(f"timing = {word}\n")
    with pytest.raises(ParameterError, match="bad value for timing"):
        _sweep_config(["--config", str(path)])
    assert main(["sweep", "--config", str(path)]) == 1
    assert "bad value for timing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, key",
    [
        ("J = 8\nL = 2\nJ = 12\n", 3, "'J' repeats 'J' from line 1"),
        ("lambda = 2\nlam = 3\n", 2, "'lam' repeats 'lambda' from line 1"),
        ("tau_db_grid = 0,3\n# the same key again\ntau_db = 6\n", 3,
         "'tau_db' repeats 'tau_db_grid' from line 1"),
    ],
)
def test_config_repeated_key_is_an_error(tmp_path, capsys, text, line, key):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    with pytest.raises(ParameterError, match=f"{line}: key {key}"):
        parse_config_file(path)
    assert main(["sweep", "--config", str(path)]) == 1
    assert f"{path}:{line}: key {key}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tau_db", "tau_db_grid"])
def test_tau_db_key_read_by_every_command(tmp_path, key):
    path = tmp_path / "exp.cfg"
    path.write_text(f"{key} = 3\n")
    for command in ("sweep", "coverage", "solve"):
        argv = [command, "--config", str(path)]
        if command == "solve":
            argv += ["--policy", "onc"]
        args = cli.build_parser().parse_args(argv)
        assert cli._config_from_args(args, sweep=command == "sweep").tau_db_grid == (3.0,)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--policy", "onc"],
        ["coverage"],
        ["simulate", "--policy", '{"type": "structured", "sizes": [1]}'],
        ["bound", "--greedy-blocks", "4"],
    ],
)
def test_single_threshold_commands(argv, capsys):
    args = cli.build_parser().parse_args(argv)
    assert cli._config_from_args(args, sweep=False).tau_db_grid == (0.0,)
    assert main(argv + ["--tau-db=-3:3:3", "-J", "8"]) == 1
    assert "one threshold" in capsys.readouterr().err


def test_flag_beats_file_beats_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOCACHE_SEED", "9")
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 5\nJ = 12\n")
    assert _sweep_config([]).seed == 9
    from_file = _sweep_config(["--config", str(path)])
    assert (from_file.seed, from_file.J) == (5, 12)
    config = _sweep_config(["--config", str(path), "--seed", "2", "-J", "30"])
    assert (config.seed, config.J) == (2, 30)


def test_sweep_policies_accept_trailing_comma():
    assert _sweep_config(["--policies", "onc,"]).policies == ("onc",)


def test_cli_rejects_bad_config_before_any_work(capsys):
    code = main(["sweep", "--tau-db", "0", "-J", "0", "-L", "2"])
    assert code == 1
    assert "catalog size" in capsys.readouterr().err


def test_run_sweep_rows_sorted_and_consistent():
    config = ExperimentConfig(
        tau_db_grid=(6.0, 0.0, 3.0), J=10, L=3, policies=("onc", "mp"), seed=1
    )
    rows, ok = run_sweep(config)
    assert ok
    assert len(rows) == 6
    keys = [(r["mean_coverage"], r["policy"]) for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert 0.0 <= row["hit_prob"] <= 1.0


def test_run_sweep_sorts_failed_cells_last(monkeypatch):
    real_build = cli._build_coverage

    def build(config, tau):
        if tau < 1.0:  # every negative-dB threshold fails
            raise NumericalCancellationError("forced failure")
        return real_build(config, tau)

    monkeypatch.setattr(cli, "_build_coverage", build)
    config = ExperimentConfig(
        tau_db_grid=(3.0, -2.0, 0.0, -5.0, 6.0), J=8, L=2, policies=("onc", "mp")
    )
    rows, ok = run_sweep(config)
    assert ok
    good, failed = rows[:6], rows[6:]
    assert [(r["mean_coverage"], r["policy"]) for r in good] == sorted(
        (r["mean_coverage"], r["policy"]) for r in good
    )
    assert [(r["tau_db"], r["policy"]) for r in failed] == [
        (-5.0, "mp"), (-5.0, "onc"), (-2.0, "mp"), (-2.0, "onc"),
    ]
    assert all(math.isnan(r["mean_coverage"]) and r["hit_prob"] is None for r in failed)


def test_sinr_sweep_mean_coverage_stays_small():
    # the bounded-support model never covers much: E[N] < 3 across the grid
    config = ExperimentConfig(
        model="sinr",
        tau_db_grid=(-12.0, -6.0, 0.0, 6.0, 12.0),
        policies=("onc", "mp"),
        seed=0,
    )
    rows, ok = run_sweep(config)
    assert ok
    assert all(row["mean_coverage"] < 3.0 for row in rows)
    by_tau = {}
    for row in rows:
        by_tau.setdefault(row["tau_db"], {})[row["policy"]] = row["hit_prob"]
    for cell in by_tau.values():
        assert cell["onc"] >= cell["mp"] - 1e-12


# Small QMC effort at seed 1: -13 dB fails its cancellation check, -11 and
# -7 dB reach the QMC path (n >= 6), 0 and 3 dB have nmax = 1.
SINR_GRID_CONFIG = ExperimentConfig(
    model="sinr", tau_db_grid=(0.0, -11.0, 3.0, -13.0, -7.0), J=8, L=2,
    policies=("onc", "mp"), seed=1,
    integration=IntegrationConfig(qmc_points=1024, qmc_replicates=2),
)


def _csv_bytes(rows, config):
    """Every row field but wall_time_ms, NaN coverage included, as the CSV writes it."""
    buffer = io.StringIO()
    cli.write_sweep_csv(rows, config, buffer)
    return buffer.getvalue()


def test_sinr_sweep_equals_threshold_by_threshold_build(monkeypatch):
    rows, ok = run_sweep(SINR_GRID_CONFIG)
    monkeypatch.setattr(cli, "_coverage_scope", lambda config: contextlib.nullcontext())
    alone, alone_ok = run_sweep(SINR_GRID_CONFIG)
    assert ok and alone_ok
    assert _csv_bytes(rows, SINR_GRID_CONFIG) == _csv_bytes(alone, SINR_GRID_CONFIG)
    assert [(r["tau_db"], r["hit_prob"]) for r in rows[-2:]] == [(-13.0, None)] * 2


def test_sinr_sweep_calls_sinr_coverage_once_per_threshold(monkeypatch):
    real = cov.sinr_coverage
    seen = []

    def tapped(params):
        try:
            dist = real(params)
        except GeocacheError as exc:
            seen.append((params.tau, type(exc)))
            raise
        seen.append((params.tau, len(dist.meta["sn_error_estimates"])))
        return dist

    monkeypatch.setattr(cov, "sinr_coverage", tapped)
    run_sweep(SINR_GRID_CONFIG)
    assert seen == [
        (db_to_linear(0.0), 1), (db_to_linear(-11.0), 13), (db_to_linear(3.0), 1),
        (db_to_linear(-13.0), NumericalCancellationError), (db_to_linear(-7.0), 6),
    ]


def test_sinr_sweeps_repeat_and_keep_nothing_between_them(monkeypatch):
    real, passes = cov._sn_rows, []
    monkeypatch.setattr(cov, "_sn_rows", lambda grid: passes.append(len(grid)) or real(grid))
    first, _ = run_sweep(SINR_GRID_CONFIG)
    assert cov._GRID_ROWS.get() is None
    again, _ = run_sweep(SINR_GRID_CONFIG)
    assert cov._GRID_ROWS.get() is None
    assert _csv_bytes(again, SINR_GRID_CONFIG) == _csv_bytes(first, SINR_GRID_CONFIG)
    assert passes == [5, 5]  # one pass over the grid per sweep, none per cell


def test_sweep_cli_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(
        [
            "sweep",
            "--tau-db",
            "0,3",
            "-J",
            "8",
            "-L",
            "2",
            "--policies",
            "onc,mp",
            "--seed",
            "2",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau_db,tau_linear,mean_coverage,policy,hit_prob,wall_time_ms"
    assert len(lines) == 5
    # timing column stays blank by default so reruns are byte-identical
    assert all(line.endswith(",") for line in lines[1:])


def test_sweep_reruns_byte_identical(tmp_path):
    args = [
        "sweep", "--tau-db=-3:3:3", "-J", "12", "-L", "3",
        "--trials", "2000", "--seed", "9",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_sim_columns_present_with_trials(tmp_path):
    out = tmp_path / "sim.csv"
    main(
        [
            "sweep", "--tau-db", "0", "-J", "6", "-L", "2",
            "--policies", "mp", "--trials", "1000", "--seed", "4",
            "--output", str(out),
        ]
    )
    header, row = out.read_text().splitlines()
    assert "sim_estimate" in header and "sim_stderr" in header
    fields = row.split(",")
    estimate = float(fields[header.split(",").index("sim_estimate")])
    assert 0.0 <= estimate <= 1.0


def test_sweep_sim_blank_for_policies_caching_nothing(monkeypatch):
    never_covered = CoverageDistribution(pmf=np.array([1.0]))
    monkeypatch.setattr(cli, "_build_coverage", lambda config, tau: never_covered)
    config = ExperimentConfig(
        tau_db_grid=(0.0,), J=6, L=2, trials=500, policies=("onc", "mp", "ind")
    )
    rows, ok = run_sweep(config)
    assert ok
    sims = {r["policy"]: r["sim_estimate"] for r in rows}
    assert sims == {"ind": None, "mp": 0.0, "onc": None}  # onc caches no item here


def test_solve_cli_emits_json(capsys):
    code = main(["solve", "--policy", "gdbnc", "--tau-db", "0", "-J", "8", "-L", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy"]["type"] == "structured"
    assert 0.0 <= payload["hit_prob"] <= 1.0


def test_solve_cli_ind_reports_marginals(capsys):
    code = main(["solve", "--policy", "ind", "--tau-db", "0", "-J", "6", "-L", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"policy_name", "b", "multiplier", "hit_prob"} <= set(payload)
    assert len(payload["b"]) == 6
    assert sum(payload["b"]) == pytest.approx(2.0, abs=1e-6)
    assert payload["diagnostics"]["mu_iterations"] > 0


def test_sweep_resolves_ind_solver_at_call_time(monkeypatch):
    calls = []
    real = solvers.independent_caching

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solvers, "independent_caching", counting)
    rows, ok = run_sweep(ExperimentConfig(tau_db_grid=(0.0, 3.0), J=8, L=2, policies=("ind",)))
    assert ok
    assert len(calls) == 2
    assert all(row["hit_prob"] is not None for row in rows)


def test_coverage_cli_schema(capsys):
    code = main(["coverage", "--tau-db", "3", "--model", "boolean"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"model_label", "pmf", "meta"}
    assert payload["model_label"] == "boolean"
    assert sum(payload["pmf"]) == pytest.approx(1.0, abs=1e-9)


def test_simulate_cli_inline_policy(capsys):
    code = main(
        [
            "simulate", "--policy", '{"type": "structured", "sizes": [1, 2]}',
            "--tau-db", "0", "-J", "8", "--trials", "5000", "--seed", "6",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 5000
    assert 0.0 <= payload["estimate"] <= 1.0


def test_bound_cli(capsys):
    code = main(
        ["bound", "--tau-db", "0", "-J", "8", "-L", "2", "--greedy-blocks", "4"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfied"] is True


def test_env_seed_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GEOCACHE_SEED", "123")
    code = main(
        [
            "simulate", "--policy", '{"type": "structured", "sizes": [1]}',
            "--tau-db", "0", "-J", "4", "--trials", "100",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 123


def test_cli_reports_errors_cleanly(capsys):
    code = main(["solve", "--policy", "onc", "--tau-db", "0", "-J", "8", "-L", "0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_non_integer_env_seed_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv("GEOCACHE_SEED", "abc")
    assert main(["sweep", "--tau-db", "0", "-J", "4", "-L", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: GEOCACHE_SEED must be an integer, got 'abc'\n"
