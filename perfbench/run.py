#!/usr/bin/env python3
"""geocache benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload fig1_boolean --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source tree that has ``src/geocache``. Every
measurement happens in a fresh interpreter (``worker.py``) with one BLAS
thread: a few set-up-only processes, then one process that repeats the
workload for ``--seconds`` (at least once). The last line of standard
output is the result; ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics of a traced run. The run record (seed,
versions, cores, revision) is printed on the line before and written to
``perfbench/out/``. Workloads and metrics are explained in NOTES.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("fig1_boolean", "sinr_sweep", "catalog_mc")
SETUP_PROBES = 3  # plus the set-up of the workload process itself
TIME_LIMIT_S = 170.0  # the whole run, set-up probes included
BLAS_THREADS = "1"
TIMING_NOTE = (
    "in-process time.perf_counter around calls into the library; "
    "no machine setting (CPU pinning, frequency, caches) was touched"
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def worker(args, mode: str, deadline: float, env: dict) -> dict:
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload, "--seed", str(args.seed)]
    if mode == "run":
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace),
                "--budget", str(max(1.0, deadline - time.monotonic() - 5.0))]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "geocache").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        return fail("--seed must be >= 0")
    if not (ROOT / "src" / "geocache" / "__init__.py").is_file():
        return fail(f"no geocache sources under {ROOT / 'src'}")

    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    try:
        setups = [worker(args, "setup", deadline, env)["setup_s"] for _ in range(SETUP_PROBES)]
        res = worker(args, "run", deadline, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(f"{args.workload}: {exc}")

    setups.append(res["setup_s"])
    wall = statistics.median(res["wall_s"])
    problems = res["problems"]
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(res["layers"].items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "cells_per_s": {"value": res["ok_cells"] / wall, "unit": "1/s"},
            "ok_frac": {"value": res["ok_cells"] / res["cells"], "unit": "frac"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        **res["versions"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "timing": TIMING_NOTE,
        "setup_s_samples": setups,
        "wall_s_samples": res["wall_s"],
        "problems": problems,
        "metrics": metrics,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"run_record": record}))
    correct = not problems
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": len(problems),
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name == "coverage.sn_err_max":
        return "abs"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
