#!/usr/bin/env python3
"""Run the three headline hit-probability sweeps and write their CSVs.

Panels: Boolean model with Zipf exponents 0.9 and 0.56, thresholds from
-12 dB to 12 dB, and the SINR (SIR, W=0) model with exponent 0.9,
thresholds from -20 dB to 12 dB, so that its mean coverage reaches that
of the Boolean panels (about 9); 5 cache blocks, 40 contents, unit
station density. Plot hit_prob against mean_coverage per policy to
recreate the curves.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from geocache.cli import ExperimentConfig, parse_grid, run_sweep, write_sweep_csv  # noqa: E402
from geocache.errors import GeocacheError  # noqa: E402

PANELS = [  # (name, model, Zipf exponent, lowest threshold in dB)
    ("fig1a_boolean_gamma09", "boolean", 0.9, -12),
    ("fig1b_boolean_gamma056", "boolean", 0.56, -12),
    ("fig1c_sinr_gamma09", "sinr", 0.9, -20),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", help="output directory")
    parser.add_argument("--step", type=float, default=1.0, help="dB grid step")
    parser.add_argument("--trials", type=int, default=0,
                        help="Monte Carlo verification trials per cell (0 = off)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    try:  # a bad setting ends here, before the output directory exists
        configs = {
            name: ExperimentConfig(
                model=model,
                gamma=gamma,
                tau_db_grid=parse_grid(f"{lowest}:12:{args.step}"),
                trials=args.trials,
                seed=args.seed,
            )
            for name, model, gamma, lowest in PANELS
        }
    except GeocacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    status = 0
    for name, config in configs.items():
        t0 = time.time()
        rows, ok = run_sweep(config)
        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            write_sweep_csv(rows, config, fh)
        print(f"{path}: {len(rows)} rows in {time.time() - t0:.1f}s (consistent={ok})")
        if not ok:
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
