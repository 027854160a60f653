#!/usr/bin/env python3
"""platmod benchmark.

    python3 bench/run.py --workload chain_sweep --seed 0 --seconds 30 --trace 0

Runs one workload of BENCHMARK.json in fresh worker processes with BLAS
threads pinned to 1, and prints one JSON object as the last line of standard
output: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a traced run in the same
worker. Names and units are those BENCHMARK.json lists. The run environment
(versions, nproc, load average before and after) and any failed solve or
check go to standard error.

The set-up time is the median over ``SETUP_REPEATS`` extra worker processes
that only start, import and generate their inputs, plus the measuring worker.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 6
DEADLINE_S = 170.0  # the whole run, worker processes included
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class WorkerFailed(Exception):
    pass


def run_worker(args, deadline: float, setup_only: bool = False) -> tuple[float, dict]:
    """Start one worker and wait for it; returns (set-up seconds, its result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED_ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    result = json.loads(lines[-1])
    return result["t_ready"] - started, result


def emitted_metrics(result: dict, setups: list[float], trace: int) -> dict:
    """The result line's metrics: per-layer when traced, else end-to-end."""
    values = result["layer"] if trace else {
        "setup_s": statistics.median(setups),
        "solves_per_s": result["solves_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_units(trace).items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "platmod" / "__init__.py").is_file():
        print(f"no platmod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    try:
        setups = [] if args.trace else [
            run_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_REPEATS)
        ]
        setup_s, result = run_worker(args, deadline)
    except WorkerFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "setup_s": setups,
        "pass_wall_s": result["pass_wall_s"],
        "traced_pass_wall_s": result.get("traced_pass_wall_s", []),
        "checks": result["checks"],
    }), file=sys.stderr)

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": emitted_metrics(result, setups, args.trace),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
