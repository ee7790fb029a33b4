#!/usr/bin/env python3
"""Time the ind solver and the Figure 1 Boolean sweep in process; write BENCH_<k>.json.

What it measures, each after one untimed warm-up:
  ind_figure_cells   solvers.independent_caching on the 50 Figure 1 Boolean
                     cells (the default sweep config at Zipf 0.9 and 0.56:
                     J = 40, L = 5, -12..12 dB);
  ind_catalog_cells  the same on the 5 catalog cells (the default config at
                     J = 2000, -12, -6, 0, 6 and 12 dB);
  fig1_sweep         cli.run_sweep over both Boolean panels of Figure 1,
                     all five policies, no Monte Carlo;
  kernel             a fixed pure-Python loop, the host calibration.
The coverage of each ind cell is built before timing. The timed blocks run
in turn, once per repeat, so a slow phase of the host falls on all of them.
Each timing gives its median, interquartile range and repeat count, in
seconds and as a ratio to the kernel's median: the ratios are what compare
across hosts and runs.

Work counts of ind, from one untimed pass over the same cells, summed from
its diagnostics: mu steps (``mu_iterations``), ``_marginals`` solves
(``solves``) and Newton item-iterations, the interior items that each
Newton step of a solve moves (``newton_item_iterations``). Two runs give the
same counts.

Usage: python3 scripts/bench.py [--out BENCH_<k>.json]
(the record goes to stdout unless --out names a file)
"""

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from geocache import cli, solvers  # noqa: E402

REPEATS = 21
CATALOG_GRID = (-12.0, -6.0, 0.0, 6.0, 12.0)
KERNEL_STEPS = 200_000


def ind_cells(config):
    """[(pop, dist, L)] of ``config``'s instance at each threshold of its grid."""
    return [(*cli._instance_from_config(replace(config, tau_db_grid=(db,))), config.L)
            for db in config.tau_db_grid]


def solve_all(cells):
    return [solvers.independent_caching(pop, dist, L) for pop, dist, L in cells]


def kernel():
    acc = 0
    for i in range(KERNEL_STEPS):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def work_counts(cells):
    diagnostics = [r.diagnostics for r in solve_all(cells)]
    return {
        "cells": len(cells),
        "mu_steps": sum(d["mu_iterations"] for d in diagnostics),
        "solves": sum(d["solves"] for d in diagnostics),
        "newton_item_iterations": sum(d["newton_item_iterations"] for d in diagnostics),
    }


def summary(samples, scale):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median_s": median,
        "iqr_s": q3 - q1,
        "n": len(samples),
        "ratio_median": median / scale,
        "ratio_iqr": (q3 - q1) / scale,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="output JSON file (default stdout)")
    args = parser.parse_args()

    panels = [cli.ExperimentConfig(gamma=gamma) for gamma in (0.9, 0.56)]
    figure = [cell for config in panels for cell in ind_cells(config)]
    catalog = ind_cells(cli.ExperimentConfig(J=2000, tau_db_grid=CATALOG_GRID))
    blocks = {
        "kernel": kernel,
        "ind_figure_cells": lambda: solve_all(figure),
        "ind_catalog_cells": lambda: solve_all(catalog),
        "fig1_sweep": lambda: [cli.run_sweep(config) for config in panels],
    }
    samples = {name: [] for name in blocks}
    for _ in range(REPEATS + 1):  # the first round warms up
        for name, block in blocks.items():
            gc.collect()
            start = time.perf_counter()
            block()
            samples[name].append(time.perf_counter() - start)
    scale = statistics.median(samples["kernel"][1:])

    record = {
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "calibration": f"kernel: {KERNEL_STEPS} steps of acc = (acc * 31 + i) % 1000003",
        "timings": {name: summary(values[1:], scale) for name, values in samples.items()},
        "work": {
            "ind_figure_cells": work_counts(figure),
            "ind_catalog_cells": work_counts(catalog),
        },
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
