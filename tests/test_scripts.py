"""The README's experiment scripts run end to end on their fast grids."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from platmod.experiments import SWEEP_CSV_HEADER

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, extra, written", [
    ("prototype_family_maps.py", [],
     [f"{name}_{part}" for name in ("line", "star_chain", "tree")
      for part in ("map.csv", "map.pgm", "curve.csv")]),
    ("community_chain_map.py", ["--workers", "1"],
     ["chain_base.csv", "chain_base.pgm", "chain_base_curve.csv"]),
])
def test_experiment_script_writes_its_maps(tmp_path, script, extra, written):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--out-dir", str(tmp_path),
                    "--fast", *extra], env=env, capture_output=True, text=True, check=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)
    for name in written:
        if name.endswith(".csv") and not name.endswith("_curve.csv"):
            assert (tmp_path / name).read_text().startswith(SWEEP_CSV_HEADER + "\n")
