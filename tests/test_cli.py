import json
import math

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
from geocache import cli, solvers
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


def test_brute_cli_hidden_but_usable(capsys):
    code = main(["brute", "--tau-db", "0", "-J", "5", "-L", "1", "--kind", "general"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy"]["type"] == "general"


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
