"""One benchmark process, started fresh by run.py for every measurement.

``setup`` times importing geocache and building the workload's configs and
popularity vectors. ``run`` does the same, then repeats the workload until
``--seconds`` have passed (at least once), checks every repeat and prints
one JSON line. With ``--trace 1`` each untraced repeat is followed by a
traced one.
"""

import time

T0 = time.perf_counter()  # before any heavy import: set-up starts here

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from geocache import cli, coverage, popularity, simulate  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def build(name: str, seed: int):
    workload = wl.WORKLOADS[name]
    panels = wl.seeded_panels(workload, seed)
    for _, config in panels:
        popularity.zipf(config.J, config.gamma)
    return workload, panels


def run_unit(workload, panels, seed: int, ppp_trials: int = wl.PPP_TRIALS) -> dict:
    """One repeat of the workload; returns its wall time and outputs."""
    sinr = {}
    with checks.sinr_tap(sinr):
        start = time.perf_counter()
        rows, ok = {}, {}
        for panel, config in panels:
            rows[panel], ok[panel] = cli.run_sweep(config)
            cli.write_sweep_csv(rows[panel], config, io.StringIO())
        pvalue = None
        if workload.ppp:
            reference = coverage.boolean_coverage(coverage.BooleanModelParams(
                lam=wl.PPP_LAMBDA, tau=cli.db_to_linear(wl.PPP_TAU_DB), beta=3.0,
            ))
            empirical = simulate.simulate_boolean_ppp(
                wl.PPP_LAMBDA, wl.PPP_RADIUS, wl.PPP_WINDOW, ppp_trials, seed
            )
            pvalue = simulate.poisson_gof_pvalue(empirical, reference.meta["poisson_parameter"])
        wall = time.perf_counter() - start
    return {"wall_s": wall, "rows": rows, "ok": ok, "sinr": sinr, "ppp_pvalue": pvalue}


def warm_up(workload, panels, seed: int) -> None:
    """One cheap cell per panel, so lazy imports and first-call set-up are not timed."""
    small = [
        (panel, replace(config, tau_db_grid=(max(config.tau_db_grid),), trials=min(config.trials, 1000)))
        for panel, config in panels
    ]
    run_unit(workload, small, seed, ppp_trials=1000)


def cells(unit) -> tuple:
    rows = [r for panel_rows in unit["rows"].values() for r in panel_rows]
    return len(rows), sum(r["hit_prob"] is not None for r in rows)


def run(args) -> dict:
    workload, panels = build(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    reference = checks.load_reference()
    warm_up(workload, panels, args.seed)

    trace = tracer.Tracer() if args.trace else None
    plain, traced, layers = [], [], []
    loop_start = time.perf_counter()
    while True:
        plain.append(run_unit(workload, panels, args.seed))
        if len(plain) == 1:
            # after one repeat, so the figure does not depend on how many repeats fit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace is not None:
            trace.trace_id = len(traced)
            first_span = len(trace.spans)
            with trace.installed():
                traced.append(run_unit(workload, panels, args.seed))
            layers.append(tracer.layer_metrics(trace.spans[first_span:]))
        now = time.perf_counter()
        per_repeat = (now - loop_start) / len(plain)
        if now - loop_start >= args.seconds or now + per_repeat > T0 + args.budget:
            break

    problems = []
    for unit in plain + traced:
        problems += checks.check_unit(workload, panels, unit, reference)
        problems += checks.rows_identical(plain[0]["rows"], unit["rows"])
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in layers]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("work counts differ between traced repeats of one seed")
    n_cells, ok_cells = cells(plain[0])
    result = {
        "setup_s": setup_s,
        "wall_s": [u["wall_s"] for u in plain],
        "cells": n_cells,
        "ok_cells": ok_cells,
        "attempted": n_cells * len(plain + traced),
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if trace is not None:
        merged = dict(counts[0])
        for key in layers[0]:
            if key.endswith("_s"):
                merged[key] = statistics.median(m[key] for m in layers)
        merged["cli.failed_frac"] = (n_cells - ok_cells) / n_cells
        merged["trace.overhead_frac"] = (
            statistics.median(u["wall_s"] for u in traced) / statistics.median(result["wall_s"]) - 1.0
        )
        result["layers"] = merged
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        trace.write_jsonl(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=float, default=150.0,
                        help="start no repeat that would end later than this after start-up")
    args = parser.parse_args()
    if args.mode == "setup":
        build(args.workload, args.seed)
        result = {"setup_s": time.perf_counter() - T0}
    else:
        result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
