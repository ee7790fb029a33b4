"""The benchmark tracer (perfbench/tracer.py) still sees the work of every layer.

The tracer rebinds library names at run time; when a refactor moves a call
away from a rebound name, the benchmark's per-layer metrics silently read 0.
This runs small sweeps under the tracer and checks the counts it reports.
"""

import importlib.util
import math
from pathlib import Path

from geocache import cli

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_tracer_counts_the_work_of_a_sinr_and_a_boolean_sweep():
    # -6.5 dB gives nmax = 5
    sinr = cli.ExperimentConfig(model="sinr", tau_db_grid=(-6.5, 3.0), J=8, L=2)
    boolean = cli.ExperimentConfig(tau_db_grid=(-3.0, 0.0), J=8, L=2)
    trace = tracer.Tracer()
    with trace.installed():
        for config in (sinr, boolean):
            rows, ok = cli.run_sweep(config)
            assert ok and all(row["hit_prob"] is not None for row in rows)
    m = tracer.layer_metrics(trace.spans)
    assert m["coverage.sinr_calls"] == 2 and m["coverage.boolean_calls"] == 2
    assert math.isfinite(m["coverage.sn_err_max"])  # read from each SINR build's meta
    assert m["solvers.ind_calls"] == 4
    assert m["solvers.onc_stage_max"] > 0
    assert m["policy.hit_eval_calls"] > 0


def test_tracer_counts_the_trials_of_a_monte_carlo_sweep():
    # cli passes trials positionally, the only form the tracer's attribute reader takes
    config = cli.ExperimentConfig(tau_db_grid=(0.0,), J=8, L=2, trials=1000)
    trace = tracer.Tracer()
    with trace.installed():
        rows, ok = cli.run_sweep(config)
    assert ok and sum(row["sim_estimate"] is not None for row in rows) == 4  # ind is not simulated
    assert tracer.layer_metrics(trace.spans)["simulate.hits_trials"] == 1000
