import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from platmod import Network
from platmod.cli import main


def run_cli(args):
    return main(args)


def test_gen_network_linear(tmp_path):
    out = tmp_path / "line.json"
    assert run_cli(["gen-network", "--kind", "linear", "--n", "6", "--out", str(out)]) == 0
    net = Network.load(out)
    assert net.n_users == 6
    assert net.generator_meta["kind"] == "linear"


def test_gen_network_other_kinds(tmp_path):
    star = tmp_path / "star.json"
    assert run_cli(
        ["gen-network", "--kind", "star-chain", "--n-hubs", "5", "--r", "2", "--out", str(star)]
    ) == 0
    assert Network.load(star).n_users == 10
    tree = tmp_path / "tree.json"
    assert run_cli(
        ["gen-network", "--kind", "tree", "--r", "2", "--depth", "3", "--out", str(tree)]
    ) == 0
    assert Network.load(tree).n_users == 15
    assert run_cli(["gen-network", "--kind", "tree", "--r", "2"]) == 2  # missing depth


def test_gen_network_sbm_seeded(tmp_path):
    theta = json.dumps([[0.8, 0.05], [0.05, 0.8]])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = run_cli(
            [
                "gen-network", "--kind", "sbm", "--sizes", "6,6",
                "--theta", theta, "--seed", "9", "--out", str(path),
            ]
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_adoption_trace(tmp_path, capsys):
    net_path = tmp_path / "line.json"
    run_cli(["gen-network", "--kind", "linear", "--n", "3", "--out", str(net_path)])
    code = run_cli(
        [
            "adoption", "--network", str(net_path), "--beta", "0.0",
            "--sender-platform", "B", "--trace", "--bA", "0.0", "--bB", "0.0",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0]) == {"iteration": 0, "switchers": [0]}
    final = json.loads(lines[-1])
    assert final["final"] == ["B", "B", "B"]
    assert final["iterations"] == 3


def test_rho_se_json(tmp_path, capsys):
    net_path = tmp_path / "line.json"
    run_cli(["gen-network", "--kind", "linear", "--n", "20", "--out", str(net_path)])
    code = run_cli(
        ["rho-se", "--network", str(net_path), "--mu", "0.2", "--c", "0.3",
         "--p", "0.9", "--bA", "0.2", "--bB", "0.0"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "AnyRegulation"
    assert doc["rho_se"] == 0.0
    assert doc["sum_p_A"] == pytest.approx((1 - 0.9**20) / 0.1)


def test_analytic_csv(capsys):
    code = run_cli(
        ["analytic", "--family", "linear-infinite", "--p-range", "0.1:0.9:5",
         "--bB", "0.0", "--bA", "0.01"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,threshold_b_gap,rho_se"
    assert len(lines) == 6


def test_sweep_fast_profile(tmp_path):
    out = tmp_path / "grid.csv"
    code = run_cli(
        [
            "sweep", "--recipe", json.dumps({"kind": "linear", "args": {"n": 5}}),
            "--fast", "--p-range", "0.3:0.7:3", "--ba-range", "0.0:0.1:3",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("p,b_A,samples")
    assert len(text.splitlines()) == 10


def test_sweep_pgm_output(tmp_path):
    out = tmp_path / "grid.pgm"
    code = run_cli(
        [
            "sweep", "--recipe", json.dumps({"kind": "linear", "args": {"n": 5}}),
            "--p-range", "0.3:0.7:2", "--ba-range", "0.0:0.1:2",
            "--format", "pgm", "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_text().startswith("P2\n2 2\n255\n")


def test_validate_a1_csv(tmp_path):
    out = tmp_path / "a1.csv"
    code = run_cli(
        ["validate-a1", "--theta-jj", "0.75", "--seeds", "2", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta_JJ,seed,n_users_B,irregular_choices"
    assert len(lines) == 3


@pytest.mark.parametrize("args", [
    ["validate-a1", "--theta-jj", "0.75", "--seeds", "1"],
    ["sweep", "--recipe", json.dumps({"kind": "linear", "args": {"n": 5}}),
     "--p-range", "0.3:0.7:2", "--ba-range", "0.0:0.1:2"],
], ids=["validate-a1", "sweep"])
def test_out_into_a_missing_directory_writes_the_printed_bytes(tmp_path, capsys, args):
    assert run_cli(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "new" / "dir" / "result.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize("fmt, want", [
    ("csv", "p,b_A,samples,n_no_effective,n_any,n_moderate,mean_rho_se,seed_base\n"
            "0.3,0.0,0,0,0,0,,0\n0.3,0.1,0,0,0,0,,0\n0.7,0.0,0,0,0,0,,0\n0.7,0.1,0,0,0,0,,0\n"),
    ("pgm", "P2\n2 2\n255\n0 0\n0 0\n"),
], ids=["csv", "pgm"])
def test_sweep_names_failed_cells_on_stderr(capsys, fmt, want):
    # users 0-3 have c <= mu, so every cell of every sample fails
    recipe = {"kind": "linear", "args": {"n": 5, "c": [0.3, 0.3, 0.3, 0.3, 0.4]}}
    code = run_cli(["sweep", "--recipe", json.dumps(recipe), "--mu", "0.35", "--samples", "2",
                    "--p-range", "0.3:0.7:2", "--ba-range", "0.0:0.1:2", "--format", fmt])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == want
    lines = captured.err.splitlines()
    cells = [(p, b_a) for p in ("0.3", "0.7") for b_a in ("0.0", "0.1")]
    assert len(lines) == len(cells)
    for line, (p, b_a) in zip(lines, cells):
        assert f"p={p} b_A={b_a}: InvalidParamsError: user 0 has c=0.3 <= mu=0.35" in line


def test_config_file_merge(tmp_path, capsys):
    net_path = tmp_path / "line.json"
    run_cli(["gen-network", "--kind", "linear", "--n", "20", "--out", str(net_path)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": 0.2, "p": 0.9, "bA": 0.2, "bB": 0.0}))
    code = run_cli(["rho-se", "--network", str(net_path), "--config", str(cfg)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "AnyRegulation"
    # explicit flags beat the config file
    code = run_cli(
        ["rho-se", "--network", str(net_path), "--config", str(cfg), "--bA", "0.0"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "NoEffectiveRegulation"


def test_invalid_params_exit_code(tmp_path, capsys):
    net_path = tmp_path / "line.json"
    run_cli(["gen-network", "--kind", "linear", "--n", "5", "--out", str(net_path)])
    code = run_cli(["rho-se", "--network", str(net_path), "--mu", "0.7"])
    assert code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "platmod.cli", "gen-network", "--kind", "linear", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_users"] == 2


def test_benchmark_tracer_bindings_resolve():
    # the benchmark's tracer wraps these functions by module and name, and
    # its workloads import the scalar trust threshold
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module_name, func_name, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), func_name))
    from platmod.model import trust_threshold

    assert isinstance(trust_threshold(0.2, 0.3), float)
