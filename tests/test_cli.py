import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from geocache.cli import (
    BLOCKS_MAX,
    CATALOG_MAX,
    GRID_POINTS_MAX,
    ExperimentConfig,
    db_to_linear,
    main,
    parse_grid,
    run_sweep,
)
from geocache import CoverageDistribution, cli, simulate, solvers
from geocache import coverage as cov
from geocache.errors import GeocacheError, NumericalCancellationError, ParameterError


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-12.0) == pytest.approx(0.06309573444801933, rel=1e-14)
    assert db_to_linear(12.0) == pytest.approx(15.848931924611133, rel=1e-14)


def test_parse_grid_range_and_list():
    assert parse_grid("-2:2:1") == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert parse_grid("0, 3,6") == (0.0, 3.0, 6.0)
    assert len(parse_grid(f"0:{GRID_POINTS_MAX - 1}:1")) == GRID_POINTS_MAX
    with pytest.raises(GeocacheError):
        parse_grid("0:5")
    with pytest.raises(GeocacheError):
        parse_grid("0:5:-1")


def test_parse_grid_stops_at_stop_for_a_step_below_the_slack():
    # the slack past stop is at most step / 1000, so a step under 1e-9 does not run
    # on to stop + 1e-9; a range of 10 steps has 11 points at any step size
    assert len(parse_grid("0:1e-12:1e-13")) == 11
    assert parse_grid("0:1e-299:1e-300") == (0.0,) * 11
    assert parse_grid("0:1e-3:1e-4")[-1] == 1e-3


@pytest.mark.parametrize("text", ["0,0", "0,-0", "3,1,3", "0:1e-12:1e-13", "0:1e-299:1e-300"])
def test_sweep_rejects_a_repeated_threshold_before_any_work(tmp_path, monkeypatch, capsys, text):
    # 0 and -0 dB are one threshold, as are the 11 points of 0:1e-12:1e-13 once rounded
    # to 12 decimals; each would build its cell again and write rows with one key
    def no_sweep(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    output = tmp_path / "rows.csv"
    assert main(["sweep", f"--tau-db={text}", "-J", "4", "-L", "1", "-o", str(output)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: each threshold may be named once") and err.count("\n") == 1
    assert not output.exists()


@pytest.mark.parametrize("text", ["0:5:nan", "0:inf:1", "nan:5:1", "-inf:0:1", "0:5:inf"])
def test_parse_grid_rejects_non_finite_parts(text, capsys):
    with pytest.raises(GeocacheError, match="finite"):
        parse_grid(text)
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", f"--tau-db={text}"])
    assert exit_info.value.code == 2
    assert "--tau-db" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, reason",
    [
        ("0:5:nan", "grid range parts must be finite, got '0:5:nan'"),
        ("0:5", "grid range must be start:stop:step, got '0:5'"),
        ("0:5:0", "grid step must be positive"),
        ("0:5:-1", "grid step must be positive"),
        ("0:1e12:1", "grid range has more than 100000 points, got '0:1e12:1'"),
        ("0:100000:1", "grid range has more than 100000 points, got '0:100000:1'"),
    ],
)
def test_tau_db_flag_reports_why_a_range_is_bad(text, reason, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", f"--tau-db={text}"])
    assert exit_info.value.code == 2
    assert f"argument --tau-db: {reason}\n" in capsys.readouterr().err


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
        {"L": BLOCKS_MAX + 1},
        {"J": 0},
        {"trials": -1},
        {"policies": ("onc", "onc", "mp")},
        {"seed": -1},
        # the coverage model's own checks, at every grid threshold
        {"beta": 1.5},
        {"lam": -1.0},
        {"model": "sinr", "noise_w": -1.0},
        {"tau_db_grid": (0.0, -4000.0)},  # 0 in linear units
        {"tau_db_grid": (0.0, 4000.0)},  # overflows
        {"policies": ()},
        # a setting only the other model reads is checked too
        {"noise_w": -1.0},
        # and so is the Zipf exponent where a file replaces Zipf
        {"pop_file": "pop.json", "gamma": -1.0},
        # derived values beyond the float range: tau**(-2/beta) overflows, the Poisson
        # parameter overflows, a**(-beta/2) overflows
        {"beta": 2.01, "tau_db_grid": (-3200.0,)},
        {"lam": 1e308},
        {"model": "sinr", "lam": 1e-300, "noise_w": 1.0},
        # a Poisson mean above MAX_POISSON_MEAN
        {"lam": 1e7},
        # a catalog above the limit (J = 10^12 ran out of memory)
        {"J": CATALOG_MAX + 1},
        # 0 and -0 dB are one threshold
        {"tau_db_grid": (0.0, -0.0)},
        # the edges of the open ranges: beta > 2, 0 < lambda < inf
        {"beta": 2.0},
        {"lam": 0.0},
        {"lam": float("inf")},
        {"gamma": float("nan")},
    ],
)
def test_config_rejects_bad_values_up_front(overrides):
    with pytest.raises(ParameterError):
        ExperimentConfig(**overrides)


def test_config_accepts_boundary_values():
    config = ExperimentConfig(L=1, J=1, trials=0, tau_db_grid=(-30.0, 30.0))
    assert (config.L, config.J, config.trials) == (1, 1, 0)
    assert ExperimentConfig(L=BLOCKS_MAX).L == BLOCKS_MAX
    assert ExperimentConfig(J=CATALOG_MAX).J == CATALOG_MAX
    assert ExperimentConfig(J=2000).J == 2000  # the benchmark's catalog
    # a^(-beta/2) overflows here, but without noise it is never read
    assert run_sweep(ExperimentConfig(model="sinr", lam=1e-320, J=4, L=1, tau_db_grid=(0.0,)))[1]
    # the Boolean Poisson mean limit holds for Boolean runs only; without noise the SIR
    # pmf does not depend on lambda
    dense = ExperimentConfig(model="sinr", lam=1e7)
    sparse = replace(dense, lam=1.0)
    pmfs = [cli._build_coverage(cli._model_params(c, 0.0)).pmf for c in (dense, sparse)]
    assert pmfs[0].tobytes() == pmfs[1].tobytes()


def _sweep_config(argv):
    args = cli.build_parser().parse_args(["sweep", *argv])
    return cli._config_from_args(args)


def test_sweep_defaults_are_the_dataclass_defaults():
    assert _sweep_config([]) == ExperimentConfig()


# a non-default value for every settable field, as flag text
FIELD_TEXT = {
    "model": "sinr", "tau_db_grid": "-3:3:3", "policies": "onc,mp,",
    "pop_file": "pop.json", "output": "rows.csv",
}
TYPE_TEXT = {float: "2.5", int: "7"}


def test_every_field_set_by_its_flag():
    parser = argparse.ArgumentParser()
    cli._config_args(parser, "sweep")
    flags = {
        a.dest: next(o for o in a.option_strings if o.startswith("--"))
        for a in parser._actions
    }
    settable = fields(ExperimentConfig)
    assert len(settable) == 14 and {f.name for f in settable} <= set(flags)
    for f in settable:
        default = getattr(ExperimentConfig(), f.name)
        if f.name == "timing":  # a store_true flag
            argv, value = [flags[f.name]], True
        else:
            text = FIELD_TEXT.get(f.name) or TYPE_TEXT[type(default)]
            argv, value = [f"{flags[f.name]}={text}"], f.metadata["add_argument"]["type"](text)
        assert getattr(_sweep_config(argv), f.name) == value != default, f.name


@pytest.mark.parametrize("flag", ["--config", "-K", "--power-ratio", "--moment-ps"])
def test_config_files_and_folded_model_coordinates_have_no_flag(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", flag, "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# the dest of every flag each command takes: the settings all five share, and each one's own
SHARED_DESTS = {"help", "model", "lam", "beta", "noise_w", "tau_db_grid", "L", "J", "gamma",
                "pop_file", "seed"}
COMMAND_DESTS = {
    "sweep": SHARED_DESTS | {"policies", "trials", "output", "timing"},
    "solve": SHARED_DESTS | {"policy"},
    "coverage": SHARED_DESTS,
    "simulate": SHARED_DESTS | {"trials", "policy"},
    "bound": SHARED_DESTS | {"greedy_K"},
}


def test_each_command_takes_its_own_flags_and_renders_its_help():
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(COMMAND_DESTS)
    for command, parser in sub.choices.items():
        assert {a.dest for a in parser._actions} == COMMAND_DESTS[command], command
        assert parser.format_help().startswith(f"usage: geocache {command} [-h]"), command


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
    assert cli._config_from_args(args).tau_db_grid == (0.0,)
    assert main(argv + ["--tau-db=-3:3:3", "-J", "8"]) == 1
    assert "one threshold" in capsys.readouterr().err


def test_env_seed_is_not_read(monkeypatch):
    monkeypatch.setenv("GEOCACHE_SEED", "9")  # not a seed source: the default stays 0
    assert _sweep_config([]).seed == 0


def test_csv_pop_file_skips_blank_lines(tmp_path, capsys):
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text("0.5\n0.3\n0.2\n")
    spaced.write_text("\n0.5\n\n  \n0.3\n\n0.2\n\n")
    outputs = []
    for path in (plain, spaced):
        assert main(["solve", "--policy", "onc", "--pop-file", str(path), "-L", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_unnormalized_pop_file_warns_in_one_line(tmp_path, capsys):
    # the note names the file, not the library line that found the sum
    path = tmp_path / "un.csv"
    path.write_text("3\n2\n1\n")
    assert main(["solve", "--policy", "mp", "--pop-file", str(path), "-L", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == f"warning: {path}: popularity vector sums to 6; normalizing\n"
    assert json.loads(out)["policy_name"] == "mp"


def test_sweep_policies_accept_trailing_comma():
    assert _sweep_config(["--policies", "onc,"]).policies == ("onc",)


def test_sweep_rejects_a_repeated_policy(capsys):
    assert main(["sweep", "--tau-db", "0", "-J", "4", "-L", "1", "--policies", "onc,onc,mp"]) == 1
    err = capsys.readouterr()
    assert "each policy may be named once" in err.err and err.out == ""


@pytest.mark.parametrize(
    "flag", ["--rel-tol-1d", "--gauss-nodes", "--tensor-dim-limit", "--qmc-points", "--qmc-replicates"]
)
def test_fixed_integration_settings_have_no_flag(flag, capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["sweep", flag, "1"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_rejects_bad_config_before_any_work(tmp_path, monkeypatch, capsys):
    def no_sweep(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    output = tmp_path / "rows.csv"
    big = tmp_path / "big.json"  # normalized, so that no warning line precedes the error
    big.write_text(json.dumps({"probs": [1.0 / (CATALOG_MAX + 1)] * (CATALOG_MAX + 1)}))
    p3 = tmp_path / "p3.json"
    p3.write_text(json.dumps({"probs": [0.5, 0.3, 0.2]}))
    for argv, reason in [
        (["-J", "0", "-o", str(output)], "catalog size"),
        (["-L", "100000000", "-o", str(output)], f"block count L must be in 1..{BLOCKS_MAX}"),
        (["-J", "1000000000000", "-o", str(output)], f"catalog size J must be in 1..{CATALOG_MAX}"),
        (["--beta", "1.5"], "path-loss exponent must exceed 2"),
        (["--seed", "-1", "--trials", "100"], "seed must be >= 0"),
        (["--tau-db", "4000"], "threshold 4000.0 dB"),
        (["-o", str(tmp_path / "missing" / "x.csv")], "x.csv: cannot write output file"),
        # the popularity is built before -o opens its file
        (["--gamma", "-1", "-o", str(output)], "Zipf exponent must be finite and >= 0"),
        (["--pop-file", str(tmp_path / "missing.json"), "-o", str(output)],
         "cannot read popularity file"),
        (["--pop-file", str(big), "-o", str(output)],
         f"big.json: catalog size must be in 1..{CATALOG_MAX}, got {CATALOG_MAX + 1} items"),
        # the Zipf exponent is checked where a file replaces Zipf
        (["--pop-file", str(p3), "--gamma", "-1", "-o", str(output)],
         "Zipf exponent must be finite and >= 0"),
        # a setting only the other model reads, and an empty policy list
        (["--noise-w", "-1"], "noise power must be >= 0"),
        (["--policies", ","], "policy list must be nonempty"),
        # derived model values beyond the float range, and a Poisson mean over the limit
        (["--beta", "2.01", "--tau-db=-3200"], "Poisson parameter out of range"),
        (["--lambda", "1e308"], "Poisson pmf of mean inf"),
        (["--lambda", "1e7"], "Poisson pmf of mean 3.14159e+07"),
        (["--model", "sinr", "--lambda", "1e-300", "--noise-w", "1"],
         "noise argument W a^(-beta/2) out of range"),
    ]:
        assert main(["sweep", "--tau-db", "0", "-J", "4", "-L", "2", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and reason in err and err.count("\n") == 1
    assert not output.exists()  # a rejected config creates no file


@pytest.mark.parametrize("command", [["sweep", "-J", "4", "-L", "1"], ["coverage"]])
def test_sinr_threshold_past_the_support_limit_is_refused_before_any_build(
    monkeypatch, capsys, command
):
    def no_build(params):
        raise AssertionError("a coverage build ran")

    monkeypatch.setattr(cov, "sinr_coverage", no_build)
    assert main([*command, "--model", "sinr", "--tau-db=-30"]) == 1
    out, err = capsys.readouterr()
    limit = f"support bound ceil(1/tau) must be at most {cov.SINR_NMAX_MAX}"
    assert out == "" and err.startswith("error: ") and limit in err and err.count("\n") == 1


def test_sinr_support_limit_leaves_the_boolean_model_and_minus_25_db():
    assert ExperimentConfig(model="sinr", tau_db_grid=(-25.0,)).tau_db_grid == (-25.0,)
    assert ExperimentConfig(model="boolean", tau_db_grid=(-36.0,)).model == "boolean"
    with pytest.raises(ParameterError, match="support bound"):
        ExperimentConfig(model="sinr", tau_db_grid=(0.0, -30.0))


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

    def build(params):
        if params.tau < 1.0:  # every negative-dB threshold fails
            raise NumericalCancellationError("forced failure")
        return real_build(params)

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


# -13 and -11 dB reach n = 20 and 13, 0 and 3 dB have nmax = 1.
SINR_GRID_CONFIG = ExperimentConfig(
    model="sinr", tau_db_grid=(0.0, -11.0, 3.0, -13.0, -7.0), J=8, L=2,
    policies=("onc", "mp"), seed=1,
)


def _csv_bytes(rows, config):
    """Every row field but wall_time_ms, NaN coverage included, as the CSV writes it."""
    buffer = io.StringIO()
    cli.write_sweep_csv(rows, config, buffer)
    return buffer.getvalue()


def test_sinr_sweep_equals_threshold_by_threshold_build():
    rows, ok = run_sweep(SINR_GRID_CONFIG)
    alone = []
    for tau_db in SINR_GRID_CONFIG.tau_db_grid:
        cell_rows, cell_ok = run_sweep(replace(SINR_GRID_CONFIG, tau_db_grid=(tau_db,)))
        assert cell_ok
        alone += cell_rows
    alone.sort(key=cli._row_order)
    assert ok
    assert _csv_bytes(rows, SINR_GRID_CONFIG) == _csv_bytes(alone, SINR_GRID_CONFIG)
    assert all(row["hit_prob"] is not None for row in rows)


def test_sinr_sweep_calls_sinr_coverage_once_per_threshold(monkeypatch):
    real = cov.sinr_coverage
    seen = []

    def tapped(params):
        dist = real(params)
        seen.append((params.tau, len(dist.meta["sn_error_estimates"])))
        return dist

    monkeypatch.setattr(cov, "sinr_coverage", tapped)
    run_sweep(SINR_GRID_CONFIG)
    assert seen == [
        (db_to_linear(0.0), 1), (db_to_linear(-11.0), 13), (db_to_linear(3.0), 1),
        (db_to_linear(-13.0), 20), (db_to_linear(-7.0), 6),
    ]


def test_sinr_sweeps_repeat_and_keep_nothing_between_them():
    first, _ = run_sweep(SINR_GRID_CONFIG)
    # the SINR coverage is exact: the seed reaches only the Monte Carlo columns
    again, _ = run_sweep(replace(SINR_GRID_CONFIG, seed=2))
    assert _csv_bytes(again, SINR_GRID_CONFIG) == _csv_bytes(first, SINR_GRID_CONFIG)


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
    monkeypatch.setattr(cli, "_build_coverage", lambda params: never_covered)
    config = ExperimentConfig(
        tau_db_grid=(0.0,), J=6, L=2, trials=500, policies=("onc", "mp", "ind")
    )
    rows, ok = run_sweep(config)
    assert ok
    sims = {r["policy"]: r["sim_estimate"] for r in rows}
    assert sims == {"ind": None, "mp": 0.0, "onc": None}  # onc caches no item here


def test_sweep_sim_columns_equal_one_simulate_call_per_policy():
    # rows whose policy caches nothing: test_sweep_sim_blank_for_policies_caching_nothing
    config = ExperimentConfig(tau_db_grid=(-3.0, 0.0, 6.0), J=8, L=2, trials=20000, seed=6)
    rows, ok = run_sweep(config)
    assert ok
    pop = cli._build_popularity(config)
    for row in rows:
        sim = (row["sim_estimate"], row["sim_stderr"])
        if row["policy"] == "ind":
            assert sim == (None, None)
            continue
        dist = cli._build_coverage(cli._model_params(config, row["tau_db"]))
        policy = cli._run_policy(row["policy"], pop, dist, config.L).policy
        [report] = simulate.simulate_hits([policy], pop, [dist], config.trials, config.seed)
        assert sim == (report.estimate, report.stderr), row


# sim_estimate of a J = 2000, L = 5 sweep at -6, 0 and 6 dB, 20000 trials, seed 7,
# equal to one simulate_hits call per row; ind rows have none
PINNED_SWEEP = {
    (-6.0, "gdbnc"): "0x1.50be0ded288cep-2",
    (-6.0, "ggb"): "0x1.50be0ded288cep-2",
    (-6.0, "mp"): "0x1.9ed288ce703b0p-3",
    (-6.0, "onc"): "0x1.59e83e425aee6p-2",
    (0.0, "gdbnc"): "0x1.b74bc6a7ef9dbp-3",
    (0.0, "ggb"): "0x1.b74bc6a7ef9dbp-3",
    (0.0, "mp"): "0x1.8d9e83e425aeep-3",
    (0.0, "onc"): "0x1.cd844d013a92ap-3",
    (6.0, "gdbnc"): "0x1.29930be0ded29p-3",
    (6.0, "ggb"): "0x1.29930be0ded29p-3",
    (6.0, "mp"): "0x1.29930be0ded29p-3",
    (6.0, "onc"): "0x1.29930be0ded29p-3",
}
PINNED_SWEEP_CONFIG = ExperimentConfig(J=2000, L=5, tau_db_grid=(-6.0, 0.0, 6.0), trials=20000, seed=7)


def test_sweep_sim_estimates_are_pinned():
    rows, ok = run_sweep(PINNED_SWEEP_CONFIG)
    assert ok
    got = {
        (r["tau_db"], r["policy"]): r["sim_estimate"].hex()
        for r in rows
        if r["sim_estimate"] is not None
    }
    assert got == PINNED_SWEEP


@pytest.mark.parametrize("cases_per_pass", [1, 5])
def test_sweep_starts_a_new_pass_at_the_entry_bound(monkeypatch, cases_per_pass):
    calls = []
    simulate_hits = simulate.simulate_hits

    def counted(*args):  # no keywords: the benchmark's tracer reads trials as args[3]
        calls.append(len(args[0]))
        return simulate_hits(*args)

    monkeypatch.setattr(simulate, "simulate_hits", counted)
    whole, _ = run_sweep(PINNED_SWEEP_CONFIG)
    assert calls == [len(PINNED_SWEEP)]  # the whole sweep in one pass
    calls.clear()
    monkeypatch.setattr(cli, "MC_PASS_ENTRIES", cases_per_pass * PINNED_SWEEP_CONFIG.J)
    split, _ = run_sweep(PINNED_SWEEP_CONFIG)
    full, rest = divmod(len(PINNED_SWEEP), cases_per_pass)
    assert calls == [cases_per_pass] * full + [rest] * (rest > 0)

    def untimed(rows):
        return [dict(row, wall_time_ms=None) for row in rows]

    assert untimed(split) == untimed(whole)


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


def test_sweep_row_of_a_failing_solver_stays_blank(monkeypatch, tmp_path, capsys):
    # a solver failing in one cell leaves that row's hit_prob empty, warns once, and the
    # sweep fills every other row and exits 0
    calls = []

    def fails(pop, dist, L):
        calls.append(L)
        if len(calls) == 1:  # the first cell, 0 dB
            raise ParameterError("no solution here")
        return solvers.most_popular(pop, dist, L)

    monkeypatch.setitem(solvers.BLOCK_SOLVERS, "mp", fails)
    out = tmp_path / "rows.csv"
    args = ["sweep", "--tau-db", "0,12", "-J", "8", "-L", "2", "--policies", "mp,onc", "-o", str(out)]
    assert main(args) == 0
    assert capsys.readouterr().err == "warning: policy mp failed at 0.0 dB: no solution here\n"
    rows = list(csv.DictReader(out.open()))
    assert [(row["tau_db"], row["policy"]) for row in rows if row["hit_prob"] == ""] == [("0.0", "mp")]
    assert len(rows) == 4


def test_coverage_cli_schema(capsys):
    code = main(["coverage", "--tau-db", "3", "--model", "boolean"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"model_label", "pmf", "meta"}
    assert payload["model_label"] == "boolean"
    assert sum(payload["pmf"]) == pytest.approx(1.0, abs=1e-9)


def test_coverage_cli_prints_no_negative_zero_probability(capsys):
    # the SIR inversion at a beta just above 2 gives -0.0 for 16 entries of the pmf and
    # of sn that underflow
    assert main(["coverage", "--model", "sinr", "--beta", "2.000001", "--tau-db=-20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for values in (payload["pmf"], payload["meta"]["sn"]):
        assert values.count(0.0) > 0 and all(math.copysign(1.0, v) == 1.0 for v in values)


def test_default_catalog_sweep_raises_no_runtime_warning(tmp_path, capsys):
    # all five policies on the default grid at J = 2000; the suite's filterwarnings
    # setting (pyproject.toml) turns a RuntimeWarning anywhere in it into a failure
    assert main(["sweep", "-J", "2000", "-o", str(tmp_path / "rows.csv")]) == 0
    assert capsys.readouterr().err == ""


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


def test_simulate_trials_from_flag_then_default(capsys):
    argv = ["simulate", "--policy", '{"type": "structured", "sizes": [1]}']
    assert main(argv + ["-J", "8", "--trials", "700"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 700
    assert cli._config_from_args(cli.build_parser().parse_args(argv)).trials == 100_000


@pytest.mark.parametrize("name", ["mp", "ind"])
def test_sweep_flags_a_hit_the_reference_disagrees_with(monkeypatch, name):
    real = cli._run_policy

    def off_by_1e9(*args):
        result = real(*args)
        return replace(result, hit_prob=result.hit_prob + 1e-9)

    monkeypatch.setattr(cli, "_run_policy", off_by_1e9)
    rows, ok = run_sweep(ExperimentConfig(tau_db_grid=(0.0,), J=8, L=2, policies=(name,)))
    assert not ok and rows[0]["hit_prob"] is not None
    assert main(["sweep", "--tau-db", "0", "-J", "8", "-L", "2", "--policies", name,
                 "-o", os.devnull]) == 2


def test_sweep_flag_does_not_trust_the_solvers_own_evaluators(monkeypatch):
    # every name a solver scores through, also the ones cli imports, off by 1e-9
    for module, name in [(solvers, "hit_probability_ind"), (solvers, "hit_probability_general"),
                         (solvers, "hit_probability_structured"), (cli, "hit_probability_general"),
                         (cli, "hit_probability_structured")]:
        monkeypatch.setattr(module, name, lambda *a, real=getattr(module, name): real(*a) + 1e-9)
    for policy in ("onc", "ggb", "ind"):
        rows, ok = run_sweep(ExperimentConfig(tau_db_grid=(0.0,), J=8, L=2, policies=(policy,)))
        assert not ok, policy


def test_bound_cli(capsys):
    code = main(
        ["bound", "--tau-db", "0", "-J", "8", "-L", "2", "--greedy-blocks", "4"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfied"] is True


def test_cli_reports_errors_cleanly(capsys):
    code = main(["solve", "--policy", "onc", "--tau-db", "0", "-J", "8", "-L", "0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = main(["bound", "-J", "8", "--greedy-blocks", str(BLOCKS_MAX + 1)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --greedy-blocks must be at most {BLOCKS_MAX}, got {BLOCKS_MAX + 1}\n"
    )


@pytest.mark.parametrize("greedy_blocks", ["3", "0", "-1"])
def test_bound_greedy_blocks_below_L_names_the_flag(capsys, greedy_blocks):
    assert main(["bound", "-J", "8", "-L", "5", "--greedy-blocks", greedy_blocks]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --greedy-blocks must be at least L = 5, got {greedy_blocks}\n"


SOLVE = ["solve", "--policy", "onc", "--pop-file", "FILE"]
SIMULATE = ["simulate", "--policy", "FILE"]
# case: (file name, file text or None for a missing file, argv naming FILE, error text)
BAD_FILES = {
    "missing-pop-file": ("pop.csv", None, SOLVE, "cannot read popularity file"),
    "csv-header": ("pop.csv", "prob\n0.5\n0.5\n", SOLVE, ":1: not a number: 'prob'"),
    "csv-word": ("pop.csv", "0.5\n0.3\nn/a\n",
                 ["bound", "--greedy-blocks", "2", "--pop-file", "FILE"],
                 ":3: not a number: 'n/a'"),
    "json-string-prob": ("pop.json", '{"probs": [0.5, "x"]}', SOLVE,
                         "probs[1] is not a number: 'x'"),
    "json-truncated": ("pop.json", '{"probs": [0.5, 0.5', SOLVE, "not valid JSON"),
    "json-int-beyond-float": ("pop.json", '{"probs": [1' + "0" * 400 + ', 1]}', SOLVE,
                              "probs[0] is too large for a float"),
    "missing-policy": ("policy.json", None, SIMULATE, "cannot read policy file"),
    "policy-list": ("policy.json", "[1, 2]", SIMULATE, "not a valid policy"),
    "policy-no-sizes": ("policy.json", '{"type": "structured"}', SIMULATE, "not a valid policy"),
    "policy-bad-sizes": ("policy.json", '{"type": "structured", "sizes": [2, 1]}', SIMULATE,
                         "not a valid policy: nonzero block sizes must be nondecreasing"),
    "policy-not-json": ("policy.json", "sizes = 1", SIMULATE, "not a valid policy"),
    "policy-not-utf8": ("policy.json", b'{"type": "structured", "sizes": [1]}\xff', SIMULATE,
                        "policy file is not UTF-8 text"),
    "pop-file-not-utf8": ("pop.csv", b"\xff\xfe0.5\n0.5\n", SOLVE,
                          "popularity file is not UTF-8 text"),
    "coverage-missing-pop-file": ("pop.json", None, ["coverage", "--pop-file", "FILE"],
                                  "cannot read popularity file"),
    # item ids beside the probabilities were read as the probabilities 1, 2, 3
    "csv-two-fields": ("pop.csv", "1,0.5\n2,0.3\n3,0.2\n", SOLVE,
                       ":1: expected one probability per line, got 2 fields"),
}


@pytest.mark.parametrize("name, text, argv, message", BAD_FILES.values(), ids=BAD_FILES)
def test_bad_input_files_end_in_an_error_line(tmp_path, capsys, name, text, argv, message):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    assert main(argv + ["-J", "4", "-L", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and message in err and err.count("\n") == 1


def test_inline_policy_errors_name_the_flag(capsys):
    for policy in [
        '{"type": "structured", "sizes": [1',
        # sizes and item indices are integers, never truncated floats or booleans
        '{"type": "structured", "sizes": [1.7, 2]}',
        '{"type": "structured", "sizes": [true, 2]}',
        '{"type": "structured", "sizes": "12"}',
        '{"type": "general", "blocks": [[true, 2]]}',
        '{"type": "general", "blocks": [[1, true]]}',
        '{"type": "general", "blocks": [[1.0]]}',
        '{"type": "ring"}',  # an unknown policy type
        '{"type": "structured", "sizes": []}',
    ]:
        assert main(["simulate", "--policy", policy, "-J", "4", "--trials", "100"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --policy: not a valid policy"), policy


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


CLI = [sys.executable, "-m", "geocache.cli"]


def test_closed_stdout_ends_quietly():
    # 241 thresholds: ~80 KB of CSV, more than a pipe holds, so the write meets the closed pipe
    argv = ["sweep", "-J", "4", "-L", "1", "--tau-db=-12:12:0.1"]
    with subprocess.Popen(CLI + argv, env=_src_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"tau_db,")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 1 and err == b""


DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@DEV_FULL
def test_failed_output_file_write_names_the_file(capsys):
    assert main(["sweep", "--tau-db", "0", "-J", "4", "-L", "1", "-o", "/dev/full"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: /dev/full: cannot write output file: No space left on device\n"


@DEV_FULL
@pytest.mark.parametrize("argv", [["solve", "--policy", "onc"], ["sweep", "--tau-db", "0"]])
def test_failed_stdout_write_names_stdout(argv):
    with open("/dev/full", "w") as full:
        done = subprocess.run(CLI + argv + ["-J", "4", "-L", "1"], env=_src_env(), stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == "error: stdout: cannot write output file: No space left on device\n"


# Boolean commands in a fresh interpreter; then one SINR command, which does load mpmath.
LAZY_MPMATH = """
import os, sys
from geocache import cli
for argv in (
    ["sweep", "--tau-db", "0,3", "-J", "8", "-L", "2", "--trials", "200", "-o", os.devnull],
    ["solve", "--policy", "onc", "-J", "8"],
    ["coverage"],
    ["simulate", "--policy", '{"type": "structured", "sizes": [1]}', "--trials", "100"],
    ["bound", "--greedy-blocks", "10", "-J", "8"],
):
    assert cli.main(argv) == 0, argv
assert "mpmath" not in sys.modules, "a Boolean command loaded mpmath"
assert "scipy" not in sys.modules, "a Boolean command loaded scipy"
assert cli.main(["coverage", "--model", "sinr"]) == 0
assert "mpmath" in sys.modules
assert "scipy" not in sys.modules, "a SIR (W = 0) command loaded scipy"
assert cli.main(["coverage", "--model", "sinr", "--noise-w", "0.5"]) == 0
assert "scipy" in sys.modules
"""


def test_boolean_commands_do_not_load_mpmath():
    done = subprocess.run(
        [sys.executable, "-c", LAZY_MPMATH], env=_src_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("flag", [["--step", "0"], ["--trials", "-5"]])
def test_figure_script_refuses_a_bad_setting_in_one_line(tmp_path, flag):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_figure1.py"
    out_dir = tmp_path / "nofig"
    done = subprocess.run(
        [sys.executable, str(script), *flag, "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert not out_dir.exists()
