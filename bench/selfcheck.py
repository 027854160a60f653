#!/usr/bin/env python3
"""Self-check of the benchmark harness on tiny inputs.

    python3 bench/selfcheck.py

Checks that
- BENCHMARK.json lists exactly the workloads the harness runs, and the
  harness computes exactly the metrics BENCHMARK.json lists, emitting each
  with its listed unit;
- a different seed changes the SBM inputs of every workload that samples SBMs;
- traced and untraced passes return identical outputs, and tracing leaves
  platmod unpatched afterwards.
Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from worker import ROOT, import_platmod, measure


def tiny_workloads():
    from workloads import (C, BlocWorkload, GraphsWorkload, SweepFamily, SweepWorkload)
    import platmod.experiments

    sizes = (6, 6, 6)
    theta = [list(r) for r in platmod.experiments.chain_theta(sizes, 0.75)]
    return [
        SweepWorkload("tiny_chain", (SweepFamily("chain", "sbm", {
            "sizes": list(sizes), "theta": theta, "c": [C] * 3}),),
            p_range=(0.5, 0.9, 2), ba_range=(0.0, 0.02, 3), samples=2),
        GraphsWorkload("tiny_graphs", line_n=12, two_link_n=10, sbm_sizes=(8, 8, 8),
                       sbm_diag=0.5, tree_depth=3),
        SweepWorkload("tiny_families", (SweepFamily("line", "linear", {"n": 5},
                                                    dict(kind="linear-finite", n=5, r=None)),),
                      p_range=(0.1, 0.9, 2), ba_range=(0.0, 0.2, 3), samples=1),
        BlocWorkload("tiny_bloc", theta_jj=(0.75, 0.25), n_seeds=2, sizes=(8, 8, 8)),
    ]


def main() -> int:
    import_platmod()
    import platmod.graph
    from workloads import WORKLOADS

    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json names the harness's workloads")

    for workload in WORKLOADS.values():
        edges = [workload.sbm_edges(workload.setup(seed)) for seed in (0, 1)]
        if edges[0]:
            check(edges[0] != edges[1], f"{workload.name}: seed 1 samples other SBMs than seed 0")

    original = platmod.graph.through_platform_distances
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in tiny_workloads():
            for trace in (0, 1):
                inputs = workload.setup(0)
                result = measure(workload, inputs, 0.0, bool(trace), Path(tmp))
                result.update(peak_rss_mb=1.0)
                units = run.metric_units(trace)
                try:
                    emitted = run.emitted_metrics(result, [1.0], trace)
                except KeyError as exc:
                    emitted = {}
                    print(f"     BENCHMARK.json lists {exc}, which the harness does not compute")
                check({k: v["unit"] for k, v in emitted.items()} == units and
                      all(isinstance(v["value"], (int, float)) for v in emitted.values()) and
                      (not trace or set(result["layer"]) == set(units)),
                      f"{workload.name} trace={trace}: every listed metric, and only those, "
                      "emitted with its unit")
                check(result["correct"] and result["attempted"] > 0 and not result["failed"],
                      f"{workload.name} trace={trace}: passes agree and checks hold "
                      f"{result['problems']}")
            check(result["layer"]["regulation.solves"] > 0,
                  f"{workload.name}: the traced pass recorded its solves")
    check(platmod.graph.through_platform_distances is original
          and platmod.adoption.through_platform_distances is original,
          "tracing left platmod unpatched")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
