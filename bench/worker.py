"""One workload in its own process: set-up, measured passes, checks.

``run.py`` starts this file; it is not meant to be run by hand. It prints one
JSON object as the last line of its standard output, and everything meant for
a reader on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
MAX_ERRORS_SHOWN = 20
P99_MIN_SOLVES = 1000  # at least 10 samples beyond the 99th percentile


def import_platmod() -> None:
    """Import platmod from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import platmod

    if Path(platmod.__file__).resolve().parent != src / "platmod":
        raise SystemExit(f"platmod imported from {platmod.__file__}, not from {src}")


def load_reference(name: str) -> list:
    path = BENCH / "reference" / f"{name}.json"
    return json.loads(path.read_text())["items"] if path.exists() else []


def run_passes(workload, inputs, budget_s: float, out_dir: Path, traced: bool) -> list:
    """Repeat the pass on the same inputs while another one fits in the
    budget; always at least one. Returns (wall seconds, Outcome, Tracer)."""
    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        if traced:
            with tracer:
                outcome = workload.run_pass(inputs, out_dir)
        else:
            outcome = workload.run_pass(inputs, out_dir)
        passes.append((time.perf_counter() - t0, outcome, tracer))
        typical = statistics.median(p[0] for p in passes)
        if time.perf_counter() - start + typical > budget_s:
            return passes


def measure(workload, inputs, seconds: float, trace: bool, out_dir: Path,
            setup_tracer=None) -> dict:
    """Measured passes plus checks; the per-layer metrics when traced."""
    from workloads import RHO_TOL

    budget = seconds / 2 if trace else seconds
    untraced = run_passes(workload, inputs, budget, out_dir, traced=False)
    traced = run_passes(workload, inputs, budget, out_dir, traced=True) if trace else []
    everything = untraced + traced
    first = untraced[0][1]

    check = workload.check(first.summary, load_reference(workload.name))
    if check.kind_mismatches:
        check.problems.append(f"{check.kind_mismatches} solves differ in kind from the reference")
    if check.rho_se_max_abs_err > RHO_TOL:
        check.problems.append(f"rho_se differs from the reference by {check.rho_se_max_abs_err}")
    for k, (_, outcome, tracer) in enumerate(everything[1:], start=1):
        if outcome.summary != first.summary:
            what = "traced pass" if tracer is not None else "untraced pass"
            check.problems.append(f"{what} {k} output differs from pass 0")

    attempted = sum(o.attempted for _, o, _ in everything)
    failed = sum(o.failed for _, o, _ in everything)
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": not check.problems,
        "problems": check.problems,
        "notes": check.notes,
        "errors": first.errors,
        "pass_wall_s": [w for w, _, _ in untraced],
        "solves_per_s": sum(o.attempted - o.failed for _, o, _ in untraced)
                        / sum(w for w, _, _ in untraced),
        "checks": {
            "failed_frac": failed / attempted,
            "kind_mismatches": check.kind_mismatches,
            "rho_se_max_abs_err": check.rho_se_max_abs_err,
            "reference_solves": check.reference_solves,
        },
    }
    if trace:
        # report one whole traced pass, the median one, so its layers and
        # remainder add up to its wall time
        walls = sorted(traced, key=lambda p: p[0])
        _, _, tracer = walls[(len(walls) - 1) // 2]
        if setup_tracer is not None:
            tracer.merge(setup_tracer)
        layer = tracer.metrics()
        untraced_wall = statistics.median(w for w, _, _ in untraced)
        layer["trace.overhead_frac"] = (statistics.median(w for w, _, _ in traced)
                                        - untraced_wall) / untraced_wall
        if layer["regulation.solves"] < P99_MIN_SOLVES:
            check.notes.append(f"regulation.solve_p99_ms rests on {layer['regulation.solves']} "
                               "solves, fewer than 10 beyond the 99th percentile")
        layer.update(result["checks"])
        result["layer"] = layer
        result["traced_pass_wall_s"] = [w for w, _, _ in traced]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_platmod()
    import numpy
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup_tracer = Tracer() if args.trace else None
    if setup_tracer is not None:
        with setup_tracer:
            inputs = workload.setup(args.seed)
    else:
        inputs = workload.setup(args.seed)
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(workload, inputs, args.seconds, bool(args.trace), out_dir, setup_tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["t_ready"] = t_ready
    result["numpy"] = numpy.__version__
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for line in result["errors"][:MAX_ERRORS_SHOWN]:
        print(f"failed solve: {line}", file=sys.stderr)
    if len(result["errors"]) > MAX_ERRORS_SHOWN:
        print(f"... and {len(result['errors']) - MAX_ERRORS_SHOWN} more failed cells",
              file=sys.stderr)
    for line in result["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    for line in result["notes"]:
        print(f"note: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
