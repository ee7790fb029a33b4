#!/usr/bin/env python3
"""Rebuild perfbench/reference.json from the current sources.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Runs every workload once with seed 0 and stores each row's hit, keyed by
(panel, tau_db, policy). SINR rows also store the hit error bound
propagated from that build's S_n error estimates. A cell whose SINR build
fails at seed 0 (an expected failure) is taken from the first seed in
1..9 at which it succeeds. Only rebuild after a change that is meant to
move the results, and say so where the change is described.
"""

import json
import sys
from dataclasses import replace

import worker  # puts src/ on sys.path
from checks import REFERENCE_PATH, hit_error_bound, row_key
from workloads import WORKLOADS, seeded_panels


def reference_rows(workload, panels, seed) -> dict:
    unit = worker.run_unit(workload, panels, seed)
    out = {}
    for panel, config in panels:
        for row in unit["rows"][panel]:
            entry = {"hit": row["hit_prob"]}
            if config.model == "sinr" and row["hit_prob"] is not None:
                entry["err"] = hit_error_bound(unit["sinr"][row["tau_linear"]])
            out[row_key(panel, row)] = entry
    return out


def main() -> int:
    reference = {}
    for name, workload in WORKLOADS.items():
        panels = seeded_panels(workload, 0)
        rows = reference_rows(workload, panels, 0)
        for panel, config in panels:
            for tau_db in workload.expected_failures:
                for seed in range(1, 10):
                    retry = [(panel, replace(config, seed=seed, tau_db_grid=(tau_db,)))]
                    found = reference_rows(workload, retry, seed)
                    if all(v["hit"] is not None for v in found.values()):
                        rows.update(found)
                        break
        reference[name] = dict(sorted(rows.items()))
        print(f"{name}: {len(rows)} rows", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
