import hashlib
import importlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import platmod.cli
import platmod.graph
import platmod.regulation
from platmod import (InvariantViolationError, ModelParams, Network, NetworkRecipe, Platform,
                     SbmSpec, SweepSpec, gen_linear, gen_sbm, run_adoption, sweep,
                     validate_assumption1)
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


def test_c_override_shares_one_profile_per_community(tmp_path, monkeypatch):
    # --c gives the users of a loaded network one profile per community, as
    # a generated network has, not one per user
    net_path = tmp_path / "sbm.json"
    gen_sbm(SbmSpec(sizes=(5, 6, 7), theta=((0.8, 0.1, 0.0), (0.1, 0.8, 0.1), (0.0, 0.1, 0.8)),
                    seed=3, c_by_community=(0.25, 0.35, 0.45))).save(net_path)
    loaded = []
    for name in ("run_adoption", "strictest_effective_regulation"):
        monkeypatch.setattr(platmod.cli, name,
                            lambda net, *args, run=getattr(platmod.cli, name):
                            loaded.append(net) or run(net, *args))
    for cmd in (["adoption", "--beta", "0.1"], ["rho-se"]):
        assert run_cli(cmd + ["--network", str(net_path), "--c", "0.4",
                              "--out", str(tmp_path / "out.json")]) == 0
    assert len(loaded) == 2
    for net in loaded:
        assert len({id(u) for u in net.profiles}) == net.n_communities == 3
        assert net.c_values.tolist() == [0.4] * 18
        assert net.community_sizes == (5, 6, 7)


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


def test_python_m_platmod_runs_the_cli():
    # from a checkout, with src on the path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "platmod", "--help"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: platmod")
    assert "validate-a1" in proc.stdout and proc.stderr == ""


def _bench_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_bindings_resolve():
    # the benchmark's tracer wraps these functions by module and name, and
    # its workloads import the scalar trust threshold
    spans = _bench_spans()
    assert spans.WRAPPED
    for module_name, func_name, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), func_name))
    from platmod.model import trust_threshold

    assert isinstance(trust_threshold(0.2, 0.3), float)
    # its large-graph workload rebuilds each generated network from its
    # edges every pass, and its self-check tells two seeds' SBM samples
    # apart by comparing their edges with !=
    graph = platmod.graph
    recipe = NetworkRecipe("sbm", {"sizes": [6, 6], "theta": [[0.9, 0.1], [0.1, 0.9]]})
    samples = [recipe.build(s) for s in (0, 1)]
    for net in samples + [gen_linear(5), graph.gen_star_chain(3, 2), graph.gen_regular_tree(2, 3)]:
        fresh = Network(n_users=net.n_users, edges=net.edges, sender_links=net.sender_links,
                        profiles=net.profiles, generator_meta=net.generator_meta)
        assert np.array_equal(fresh.edge_array, net.edge_array) and fresh.edges == net.edges
    assert [samples[0].edges] != [samples[1].edges]
    assert not [samples[0].edges] != [recipe.build(0).edges]


def test_benchmark_tracer_reads_the_engine_and_the_bfs():
    # the tracer's counters unpack the engine's result and read the BFS
    # result's shape, so a change to either shows here
    spec = SweepSpec(
        p_range=(0.5, 0.9, 2),
        ba_range=(0.0, 0.01, 2),
        recipe=NetworkRecipe("sbm", {"sizes": [6, 6], "theta": [[0.9, 0.08], [0.08, 0.9]]}),
        samples=2,
        base_seed=4,
    )
    tracer, results, walked = _bench_spans().Tracer(), [], []
    with tracer, pytest.MonkeyPatch.context() as patched:
        engine = platmod.regulation.batch_final_b_sets  # the tracer's wrapper

        def counted(cols, mu, betas, *args, admit, **kwargs):
            # every column handed to the engine: the first ones and the admitted
            def admitting(n_live):
                more = admit(n_live)
                walked.extend(more[1] if more else [])
                return more
            walked.extend(betas)
            results.append(engine(cols, mu, betas, *args, admit=admitting, **kwargs))
            return results[-1]

        patched.setattr(platmod.regulation, "batch_final_b_sets", counted)
        sweep(spec)
    metrics = tracer.metrics()
    # one engine call per task, whose result holds every column it walked
    [(on_b, _, rounds, _)] = results
    assert metrics["adoption.engine_calls"] == 1
    assert metrics["adoption.engine_cols"] == len(walked) == on_b.shape[1] == rounds.size
    assert 0 < len(walked) <= spec.samples * 4
    assert metrics["adoption.engine_rounds"] == rounds.sum() > 0
    tracer = _bench_spans().Tracer()
    with tracer:
        validate_assumption1([0.75], seeds=range(2), sizes=(6, 6, 6))
    metrics = tracer.metrics()
    assert metrics["adoption.engine_calls"] > 0
    assert metrics["graph.bfs_calls"] > 0
    assert metrics["adoption.engine_rounds"] > 0
    # the third value of the engine's result is its per-column round count
    tracer = _bench_spans().Tracer()
    with tracer:
        outcome = run_adoption(gen_linear(8), ModelParams(mu=0.2, p=0.9, b_a=0.001, b_b=0.0),
                               0.1, Platform.B)
    metrics = tracer.metrics()
    assert metrics["adoption.engine_calls"] == 1
    assert metrics["adoption.engine_rounds"] == outcome.iterations == 8


# sha256 of stdout for one or more invocations per subcommand: every
# valid invocation keeps printing the same bytes; "{net}" is a line of 20
# users and "{cfg}" a config file, both written by the test
PINNED_STDOUT = {
    "gen-linear": ("gen-network --kind linear --n 6",
        "85b29f715b47cf9645937925f125f04022b2de3fed464c05283ef0dfc3033703"),
    "gen-linear-c-list": ("gen-network --kind linear --n 3 --c 0.3,0.35,0.4",
        "4b0829a475021ca32f4931747a8c8c7282fec32769f2118efe38d6daae991e65"),
    "gen-star-chain": ("gen-network --kind star-chain --n-hubs 3 --r 2 --c 0.35",
        "36ee2f53af50488dd79081742bf6b28d34795048c5cc611a701bc8205061a6bd"),
    "gen-tree": ("gen-network --kind tree --r 2 --depth 2",
        "6ec747f692bc2be1c25ad489e6ff0277570518f60cc0f39381462a590bc5b9c6"),
    "gen-sbm-int-theta": (
        "gen-network --kind sbm --sizes 4,4 --theta '[[1,0],[0,1]]' --seed 3",
        "30a5e93cfb2e1757562e8cbf5410ce71111e014b1884f5527dd378b51f2dd607"),
    "gen-sbm-c-list": (
        "gen-network --kind sbm --sizes 5,5 --theta '[[0.5,0.1],[0.1,0.5]]'"
        " --sender-community 1 --c 0.3,0.4 --seed 1",
        "c393d549e56d977425ee7548b15e59cca89d98410e2197c7f6bd137b442f733c"),
    "adoption-trace": ("adoption --network {net} --beta 0.2 --trace",
        "b33a11c8bfb8d0cba24cbf12f8f837ff7809a035f47957e37501e1b7a5c90066"),
    "adoption-A": (
        "adoption --network {net} --beta 0.05 --sender-platform A --p 0.5 --bA 0.02",
        "3bf3bd576133f084d4e38ca6ea72a51069ce7b3f57da597c23f6a929baab610a"),
    "rho-se": ("rho-se --network {net}",
        "26639ee93732864449f0b2086add1f956904df885ff8d4d0484e9bdc4e650bdf"),
    "rho-se-c": ("rho-se --network {net} --c 0.35 --bA 0.001",
        "cc1a4f421f2677a49c4bf27814568153c271cf8f0a7addc3128dfdcc07cc7b29"),
    "rho-se-config": ("rho-se --network {net} --config {cfg} --bA 0.0",
        "eee295dd03752145964abbc81005195689bbefd6c53ce529f7c4d8320e77c094"),
    "analytic-bA": ("analytic --family linear-infinite --p-range 0.1:0.9:5 --bA 0.01",
        "87238bc43ce590df18c9850023f3862a775227facd3e634b66063c4bf78301f2"),
    "analytic-linear-finite": ("analytic --family linear-finite --n 6 --p-range 0.2:0.8:4",
        "02d522da6c2ef2ef9b0d05cc75a435cccfa1fcbb982848967e778bd79adbd390"),
    "analytic-tree": (
        "analytic --family tree-finite --n 4 --r 2 --p-range 0.2:0.8:4 --c 0.35 --mu 0.25",
        "44afcfdfa2bf8f9e71a79bba35c5e1c8f5b108d26e7ab6834dbf0f28746e284b"),
    "sweep-csv": ("sweep --recipe '{\"kind\":\"linear\",\"args\":{\"n\":5}}'",
        "fb57e4378d2f6e92ba354b372dab6510141b503bc2e4d5c968b356e354d9f0b7"),
    "sweep-pgm": (
        "sweep --recipe '{\"kind\":\"star_chain\",\"args\":{\"n_hubs\":3,\"r\":2}}'"
        " --p-range 0.2:0.9:6 --ba-range 0.0:0.1:5 --format pgm",
        "5fcdf0dc5f94fb9462d329937897c8ffb3e8c6ade1af48b8322a46512c057196"),
    "sweep-fast": ("sweep --recipe '{\"kind\":\"linear\",\"args\":{\"n\":5}}' --fast",
        "e02694fb888dd78dd9feb32b451130ba3dd4cdce4a92ec83951b83b62ebdb997"),
    "sweep-sbm": (
        "sweep --recipe '{\"kind\":\"sbm\",\"args\":{\"sizes\":[6,6],"
        "\"theta\":[[0.6,0.1],[0.1,0.6]]}}' --samples 2 --seed 4"
        " --p-range 0.3:0.9:3 --ba-range 0.0:0.05:3",
        "fac5174e9c52479425808933bd37257ca85120d6a3bb44c671592b1393e25c7e"),
    "validate-a1": ("validate-a1 --theta-jj 0.75 --seeds 2",
        "18c344ff8217ac3b889e677160a3d1585b6388ac970b9763843b9c62b7996fd8"),
    "validate-a1-groups": ("validate-a1 --theta-jj 0.75,0.0625 --seeds 13",
        "0a9f95a76d941abda66f25434416ca76e82c5b18c58857e6cc6b0e0709cc0271"),
    "validate-a1-several-groups": (
        "validate-a1 --theta-jj 0.75,0.0625 --sizes 10,10,10 --seeds 41",
        "5640911d59187441a9af6c4f0d422a79b7c48bfb2df994ebed684e49754ad882"),
}


@pytest.mark.parametrize("name", list(PINNED_STDOUT))
def test_stdout_bytes_are_pinned(tmp_path, capsys, name):
    gen_linear(20).save(tmp_path / "net.json")
    (tmp_path / "cfg.json").write_text(json.dumps({"mu": 0.2, "p": 0.9, "bA": 0.2, "bB": 0.0}))
    command, digest = PINNED_STDOUT[name]
    argv = [a.format(net=tmp_path / "net.json", cfg=tmp_path / "cfg.json")
            if a in ("{net}", "{cfg}") else a for a in shlex.split(command)]
    assert run_cli(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# every flag of every subcommand with the default its --help shows (None:
# no default shown); sweep's profile flags spell out both profiles
CLI_SURFACE = {
    "gen-network": {
        "--config": None, "--out": None, "--kind": None, "--n": None, "--n-hubs": None,
        "--r": None, "--depth": None, "--sizes": None, "--theta": None,
        "--sender-community": "0", "--seed": "0", "--c": "0.3",
    },
    "adoption": {
        "--config": None, "--out": None, "--mu": "0.2", "--p": "0.9", "--bA": "0.01",
        "--bB": "0.0", "--network": None, "--beta": None, "--sender-platform": "B",
        "--trace": None, "--c": "the network's",
    },
    "rho-se": {
        "--config": None, "--out": None, "--mu": "0.2", "--p": "0.9", "--bA": "0.01",
        "--bB": "0.0", "--network": None, "--c": "the network's",
    },
    "analytic": {
        "--config": None, "--out": None, "--family": None, "--p-range": None, "--n": None,
        "--r": None, "--c": "0.3", "--mu": "0.2", "--bA": None, "--bB": "0.0",
    },
    "sweep": {
        "--config": None, "--out": None, "--recipe": None,
        "--p-range": "0.1:0.9:50; --fast: 0.1:0.9:20",
        "--ba-range": "0.0:0.2:50; --fast: 0.0:0.2:20",
        "--samples": "50 for sbm, else 1; --fast: 10 for sbm, else 1", "--fast": None, "--seed": "0",
        "--workers": "1", "--mu": "0.2", "--bB": "0.0", "--format": "csv",
    },
    "validate-a1": {
        "--config": None, "--out": None, "--mu": "0.2", "--p": "0.7", "--bA": "0.002",
        "--bB": "0.0", "--theta-jj": "0.75,0.0625", "--seeds": "50", "--seed": "0",
        "--sizes": "30,30,30", "--c": "0.3",
    },
}


def _help_flags(command, capsys) -> dict:
    """{flag: default shown or None} from a subcommand's --help."""
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    entries = []
    for line in capsys.readouterr().out.split("options:\n", 1)[1].splitlines():
        if line.startswith("  --"):
            entries.append(line.split(None, 1))
        elif entries:  # a wrapped help line
            entries[-1].append(line)
    flags = {}
    for flag, *text in entries:
        shown = re.search(r"\(default: ([^)]*)\)$", " ".join(" ".join(text).split()))
        flags[flag] = shown and shown.group(1)
    return flags


def test_each_subcommand_declares_only_the_flags_it_reads(capsys):
    assert {command: _help_flags(command, capsys) for command in CLI_SURFACE} == CLI_SURFACE
    assert sum(len(flags) for flags in CLI_SURFACE.values()) == 64


@pytest.mark.parametrize("args", [
    ["rho-se", "--network", "net.json", "--format", "pgm"],
    ["analytic", "--family", "linear-infinite", "--p-range", "0.1:0.9:3", "--p", "0.5"],
    ["analytic", "--family", "linear-infinite", "--p", "0.5", "--p-range", "0.1:0.9:3"],
    ["analytic", "--family", "linear-infinite", "--p-range", "0.1:0.9:3", "--seed", "1"],
    ["adoption", "--network", "net.json", "--beta", "0.1", "--fast"],
    ["gen-network", "--kind", "linear", "--n", "3", "--format", "csv"],
    ["validate-a1", "--fast"],
], ids=["rho-se-format", "analytic-p", "analytic-p-first", "analytic-seed", "adoption-fast",
        "gen-network-format", "validate-a1-fast"])
def test_a_flag_the_subcommand_never_reads_exits_2(args):
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2


LINE = json.dumps({"kind": "linear", "args": {"n": 5}})
SBM_ARGS = {"sizes": [3, 3], "theta": [[0.5, 0.1], [0.1, 0.5]]}
# run against a user cap of 10, so the case builds nothing large
OVER_THE_CAP = ["gen-network", "--kind", "linear", "--n", "11"]


@pytest.mark.parametrize("args", [
    ["sweep", "--recipe", LINE, "--p-range", "0.3:0.7"],
    ["sweep", "--recipe", LINE, "--ba-range", "0:x:2"],
    ["analytic", "--family", "linear-infinite", "--p-range", "0.3:0.7"],
    ["analytic", "--family", "linear-infinite", "--p-range", "0.1:0.9:-1"],
    ["analytic", "--family", "linear-infinite", "--p-range", "0.1:0.9:0"],
    ["sweep", "--recipe", "{kind: linear}"],
    ["sweep", "--recipe", "[1, 2]"],
    ["sweep", "--recipe", json.dumps({"kind": "linear"})],
    ["sweep", "--recipe", json.dumps({"kind": "ring", "args": {"n": 5}})],
    ["sweep"],
    ["gen-network", "--kind", "sbm", "--sizes", "3,3", "--theta", "[[0.5, 0.1]"],
    ["gen-network", "--kind", "sbm", "--theta", "[[0.5]]"],
    ["gen-network", "--kind", "star-chain", "--n-hubs", "3"],
    ["gen-network", "--kind", "linear", "--n", "3", "--c", "0.3,x"],
    ["validate-a1", "--sizes", "30,,x"],
    ["validate-a1", "--theta-jj", "0.75", "--seeds", "0"],
    ["validate-a1", "--theta-jj", "0.75", "--seeds", "-3"],
    ["validate-a1", "--theta-jj", ""],
    ["rho-se", "--network", "{missing}"],
    ["adoption", "--network", "{malformed}", "--beta", "0.1"],
    ["rho-se", "--network", "{not_a_network}"],
    ["rho-se", "--network", "{net}", "--config", "{missing}"],
    ["rho-se", "--network", "{net}", "--config", "{malformed}"],
    ["rho-se", "--network", "{net}", "--config", "{config_with_seed}"],
    ["validate-a1", "--config", "{config_float_seeds}"],
    ["sweep", "--config", "{config_svg_format}"],
    ["sweep", "--recipe", json.dumps({"kind": "sbm", "args": {"sizes": 5, "theta": [[0.5]]}}),
     "--p-range", "0.3:0.7:2", "--ba-range", "0:0.1:2"],
    OVER_THE_CAP,
    ["gen-network", "--kind", "tree", "--r", "2", "--depth", "20000"],
    *(["sweep", "--recipe", json.dumps(recipe), "--p-range", "0.3:0.7:2", "--ba-range", "0:0.1:2"]
      for recipe in ({"kind": "sbm", "args": dict(SBM_ARGS, sender_attach=0.5)},
                     {"kind": "sbm", "args": dict(SBM_ARGS, sender_community=1.0)},
                     {"kind": "sbm", "args": dict(SBM_ARGS, sender_community="1")},
                     {"kind": "linear", "args": {"n": 5, "c": "x"}})),
    ["validate-a1", "--sizes", "0,3", "--seeds", "2"],
    *(["sweep", "--recipe", LINE, "--p-range", "0.3:0.7:2", "--ba-range", "0:0.1:2", "--workers",
       workers] for workers in ("0", "-2")),
], ids=["p-range", "ba-range", "analytic-p-range", "analytic-negative-steps",
        "analytic-zero-steps", "recipe-not-json", "recipe-not-object",
        "recipe-missing-arg", "recipe-unknown-kind", "no-recipe", "theta-not-json",
        "sbm-missing-sizes", "star-chain-missing-r", "c-list", "sizes-list",
        "validate-a1-zero-seeds", "validate-a1-negative-seeds", "validate-a1-empty-theta-jj",
        "network-missing", "network-malformed", "network-not-an-object", "config-missing",
        "config-malformed", "config-unknown-key", "config-float-for-int",
        "config-value-outside-choices", "recipe-sizes-not-a-list",
        "more-users-than-the-cap", "tree-too-deep-to-count", "recipe-sender-attach-float",
        "recipe-sender-community-float", "recipe-sender-community-string", "recipe-c-string",
        "validate-a1-zero-size", "sweep-zero-workers", "sweep-negative-workers"])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, args):
    if args == OVER_THE_CAP:
        monkeypatch.setattr(platmod.graph, "MAX_GENERATED_USERS", 10)
    gen_linear(5).save(tmp_path / "net.json")
    (tmp_path / "malformed.json").write_text('{"n_users": 2')
    (tmp_path / "not_a_network.json").write_text("[1, 2]")
    (tmp_path / "config_with_seed.json").write_text('{"seed": 3}')
    (tmp_path / "config_float_seeds.json").write_text('{"seeds": 2.5}')
    (tmp_path / "config_svg_format.json").write_text(json.dumps(
        {"format": "svg", "recipe": LINE, "p-range": "0.3:0.7:2", "ba-range": "0:0.1:2"}
    ))
    names = ("net", "missing", "malformed", "not_a_network", "config_with_seed",
             "config_float_seeds", "config_svg_format")
    paths = {f"{{{name}}}": str(tmp_path / f"{name}.json") for name in names}
    assert run_cli([paths.get(a, a) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("invalid parameters: ")


@pytest.mark.parametrize("field, value", [("n_users", 3.7), ("n_users", "3"),
                                          ("community", 0.9), ("c", "0.3")])
def test_network_file_refuses_truncation_and_conversion(tmp_path, capsys, field, value):
    doc = gen_linear(3).to_json_dict()
    if field == "n_users":
        doc[field] = value
    else:
        doc["profiles"][1][field] = value
    (tmp_path / "net.json").write_text(json.dumps(doc))
    assert run_cli(["rho-se", "--network", str(tmp_path / "net.json")]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"{field} must be {'a number' if field == 'c' else 'an integer'}, "
                        f"got {value!r}\n")
    assert len(err.splitlines()) == 1


def test_invariant_violation_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    def broken_solver(network, params):
        raise InvariantViolationError("faulty kernel")

    gen_linear(5).save(tmp_path / "net.json")
    monkeypatch.setattr(platmod.cli, "strictest_effective_regulation", broken_solver)
    assert run_cli(["rho-se", "--network", str(tmp_path / "net.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant violation: faulty kernel\n"


def test_sweep_counts_a_repeated_cell_error_once(capsys):
    recipe = {"kind": "linear", "args": {"n": 5, "c": [0.3, 0.3, 0.3, 0.3, 0.4]}}
    code = run_cli(["sweep", "--recipe", json.dumps(recipe), "--mu", "0.35", "--samples", "3",
                    "--p-range", "0.3:0.7:2", "--ba-range", "0.0:0.1:2"])
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 4
    for line in lines:
        assert line.count("InvalidParamsError") == 1
        assert line.endswith("InvalidParamsError: user 0 has c=0.3 <= mu=0.35 (3 samples)")


def test_config_supplies_flags_of_every_kind(tmp_path, capsys):
    # a number, a switch, a string parsed like the flag, a JSON list for a
    # comma-list flag; the explicit --samples still wins over the file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": LINE, "fast": True, "p-range": "0.3:0.7:2",
                               "ba_range": "0.0:0.1:2", "samples": 5, "mu": 0.2}))
    assert run_cli(["sweep", "--config", str(cfg), "--samples", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 5 and all(row.split(",")[2] == "1" for row in rows[1:])
    cfg.write_text(json.dumps({"c": [0.3, 0.35, 0.4]}))
    assert run_cli(["gen-network", "--kind", "linear", "--n", "3", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [u["c"] for u in doc["profiles"]] == [0.3, 0.35, 0.4]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip()]
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "platmod"
        assert run_cli(argv[1:]) == 0, argv
