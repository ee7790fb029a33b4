"""The benchmark's workloads: which sweeps each one runs, built from a seed.

Every workload is a list of panels. A panel is one ``ExperimentConfig``
handed to ``cli.run_sweep``; its rows are keyed by (panel, tau_db, policy).
The seed reaches the program in two ways only: as the config seed (SINR
QMC scrambles and Monte Carlo streams) and as the order in which the
threshold grid is listed. ``run_sweep`` sorts its rows, so the grid order
changes the execution order and nothing in the results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from geocache import cli

FIG1_GRID = tuple(float(d) for d in range(-12, 13))
# The paper's SIR grid plus the two cells below it: -13 dB succeeds and
# -14 dB raises the known NumericalCancellationError.
SINR_GRID = tuple(float(d) for d in range(-14, 13))
CATALOG_GRID = (-12.0, -6.0, 0.0, 6.0, 12.0)

# Spatial Poisson check run by catalog_mc: simulate_boolean_ppp against
# the Boolean coverage at 0 dB (the disc of radius 1 at lambda=1, beta=3).
PPP_LAMBDA = 1.0
PPP_RADIUS = 1.0
PPP_WINDOW = 10.0
PPP_TRIALS = 200_000
PPP_TAU_DB = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    panels: tuple  # (panel name, ExperimentConfig without seed/grid order)
    expected_failures: frozenset = frozenset()  # tau_db whose coverage build fails
    ppp: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig1_boolean",
            panels=(
                ("fig1a", cli.ExperimentConfig(model="boolean", gamma=0.9, tau_db_grid=FIG1_GRID)),
                ("fig1b", cli.ExperimentConfig(model="boolean", gamma=0.56, tau_db_grid=FIG1_GRID)),
            ),
        ),
        Workload(
            name="sinr_sweep",
            panels=(
                ("fig1c", cli.ExperimentConfig(model="sinr", gamma=0.9, noise_w=0.0, tau_db_grid=SINR_GRID)),
            ),
            expected_failures=frozenset({-14.0}),
        ),
        Workload(
            name="catalog_mc",
            panels=(
                ("catalog", cli.ExperimentConfig(
                    model="boolean", gamma=0.9, J=2000, trials=10**6, tau_db_grid=CATALOG_GRID,
                )),
            ),
            ppp=True,
        ),
    )
}


def seeded_panels(workload: Workload, seed: int) -> list:
    """[(panel, config)] with the seed applied and the grid order drawn from it."""
    rng = random.Random(seed)
    out = []
    for panel, config in workload.panels:
        grid = list(config.tau_db_grid)
        rng.shuffle(grid)
        out.append((panel, replace(config, seed=seed, tau_db_grid=tuple(grid))))
    return out
