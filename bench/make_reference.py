#!/usr/bin/env python3
"""Write the reference outputs the benchmark checks every run against.

    python3 bench/make_reference.py [workload ...]

Runs one untraced pass of each named workload (default: all) at seed 0 and
writes its output summary to bench/reference/<workload>.json. Rewrite a
reference only when a change to platmod is meant to change its output, and
say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from worker import BENCH, import_platmod

REFERENCE_SEED = 0


def main(argv: list[str]) -> int:
    import_platmod()
    from workloads import WORKLOADS

    names = argv or sorted(WORKLOADS)
    (BENCH / "reference").mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
            outcome = workload.run_pass(workload.setup(REFERENCE_SEED), Path(tmp))
        if outcome.failed:
            print(f"{name}: {outcome.failed} failed solves, reference not written", file=sys.stderr)
            return 1
        doc = {"workload": name, "seed": REFERENCE_SEED, "items": outcome.summary}
        text = json.dumps(doc, separators=(",", ":")) + "\n"
        (BENCH / "reference" / f"{name}.json").write_text(text)
        print(f"{name}: wrote reference")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
