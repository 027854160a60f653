import concurrent.futures
import csv
import hashlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import platmod
import platmod.experiments
import platmod.regulation
from platmod import (
    HeatmapGrid,
    InvalidParamsError,
    InvariantViolationError,
    ModelParams,
    NetworkRecipe,
    Platform,
    SweepSpec,
    chain_theta,
    gen_sbm,
    gen_linear,
    irregular_choices,
    run_adoption,
    sender_equilibrium,
    sweep,
    validate_assumption1,
)
from platmod.adoption import Assignment
from platmod.experiments import (
    A1_GROUP,
    SWEEP_CSV_HEADER,
    A1Row,
    a1_csv_text,
    emit_csv,
    pgm_text,
    sweep_csv_text,
)
from platmod.graph import SbmSpec


def small_line_spec(**overrides):
    base = dict(
        p_range=(0.3, 0.8, 2),
        ba_range=(0.0, 0.1, 2),
        recipe=NetworkRecipe("linear", {"n": 5}),
        samples=1,
        base_seed=0,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_sweep_cell_layout_and_determinism():
    spec = small_line_spec()
    g1 = sweep(spec)
    g2 = sweep(spec)
    assert len(g1.cells) == 4
    assert sweep_csv_text(g1) == sweep_csv_text(g2)
    assert sweep_csv_text(g1).splitlines()[0] == SWEEP_CSV_HEADER


def test_sweep_parallel_matches_serial():
    spec = SweepSpec(
        p_range=(0.4, 0.9, 3),
        ba_range=(0.0, 0.01, 3),
        recipe=NetworkRecipe(
            "sbm", {"sizes": [8, 8], "theta": [[0.8, 0.05], [0.05, 0.8]]}
        ),
        samples=4,
        base_seed=11,
    )
    assert sweep_csv_text(sweep(spec, workers=1)) == sweep_csv_text(sweep(spec, workers=2))


def test_serial_import_leaves_out_the_process_pool():
    code = ("import sys, platmod, platmod.experiments; "
            "print('concurrent.futures.process' in sys.modules)")
    src = str(Path(platmod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_sweep_columns_monotone_in_quality():
    # for fixed p, raising b_a never flips a cell back out of AnyRegulation
    spec = SweepSpec(
        p_range=(0.5, 0.9, 3),
        ba_range=(0.0, 0.2, 21),
        recipe=NetworkRecipe("linear", {"n": 12}),
        samples=1,
    )
    grid = sweep(spec)
    steps = spec.ba_range[2]
    for p_idx in range(3):
        seen_any = False
        for ba_idx in range(steps):
            cell = grid.cell(p_idx, ba_idx)
            if seen_any:
                assert cell.n_any == cell.samples
            seen_any |= cell.n_any == cell.samples


def test_sample_results_independent_of_order():
    # per-sample outcomes depend only on (spec, sample index): one pool of
    # every sample and all p columns, as a serial sweep runs it, gives each
    # sample's columns as one-sample pools of one p column taken in reverse
    recipe = NetworkRecipe("sbm", {"sizes": [10], "theta": [[0.6]]})
    spec = SweepSpec(
        p_range=(0.5, 0.7, 2), ba_range=(0.0, 0.004, 2), recipe=recipe, samples=5, base_seed=3
    )
    from platmod.experiments import _pool_results

    ba_values = tuple(spec.ba_values())
    alone = {}
    for p_idx, p in reversed(list(enumerate(spec.p_values()))):
        for seed in reversed(spec.seeds()):
            alone.update(_pool_results((recipe, (seed,), 0.2, 0.0, p_idx, (p,), ba_values)))
    pooled = _pool_results((recipe, spec.seeds(), 0.2, 0.0, 0, tuple(spec.p_values()),
                            ba_values))
    assert sorted(pooled) == [(seed, p_idx, ba_idx) for seed in spec.seeds()
                              for p_idx in range(2) for ba_idx in range(2)]
    assert pooled == alone
    # the sweep tallies those same outcomes
    grid = sweep(spec)
    for p_idx in range(2):
        for ba_idx in range(2):
            cell = grid.cell(p_idx, ba_idx)
            outcomes = [pooled[seed, p_idx, ba_idx] for seed in spec.seeds()]
            kinds = [kind for kind, _ in outcomes]
            rhos = [value for kind, value in outcomes if kind == "Moderate"]
            assert (cell.n_no_effective, cell.n_any, cell.n_moderate) == tuple(
                kinds.count(k) for k in ("NoEffectiveRegulation", "AnyRegulation", "Moderate"))
            assert cell.mean_rho_se == (sum(rhos) / len(rhos) if rhos else None)


def test_irregular_choices_values():
    net = gen_sbm(SbmSpec(sizes=(30, 30, 30), theta=((0.5, 0, 0), (0, 0.5, 0), (0, 0, 0.5)), seed=0))
    n = net.n_users
    all_a = Assignment.all_a(n, Platform.B)
    assert irregular_choices(net, all_a) == 0
    split = Assignment(np.arange(n) < 10, Platform.B)  # 10 of community 1 on B
    assert irregular_choices(net, split) == 10
    three_way = np.zeros(n, dtype=bool)
    three_way[0:30] = True        # community 1 fully on B
    three_way[30:45] = True       # community 2 split 15/15
    assert irregular_choices(net, Assignment(three_way, Platform.B)) == 15


def test_validate_assumption1_smoke():
    report = validate_assumption1([0.75, 1 / 16], seeds=range(4))
    tight = [r for r in report.rows if r.theta_jj == 0.75]
    loose = [r for r in report.rows if r.theta_jj != 0.75]
    assert tight and all(r.irregular == 0 for r in tight)
    assert any(r.irregular > 0 for r in loose)
    text = a1_csv_text(report)
    assert text.splitlines()[0] == "theta_JJ,seed,n_users_B,irregular_choices"
    assert len(text.splitlines()) == 1 + len(report.rows)


def _one_solve_per_sample(thetas, seeds, b_a, sizes=(30, 30, 30)):
    """validate_assumption1's rows and skips from one sender_equilibrium and
    run_adoption per sample."""
    rows, skipped = [], []
    for theta_jj in thetas:
        theta = chain_theta(sizes, theta_jj)
        for seed in seeds:
            network = gen_sbm(SbmSpec(sizes=sizes, theta=theta, seed=seed))
            params = ModelParams(mu=0.2, p=0.7, b_a=b_a, b_b=0.0, rho_a=0.0)
            decision = sender_equilibrium(network, params)
            if decision.platform is Platform.A:
                skipped.append((theta_jj, seed))
                continue
            on_b = run_adoption(network, params, decision.beta_star, Platform.B).assignment
            rows.append(A1Row(theta_jj, seed, int(on_b.on_b.sum()),
                              irregular_choices(network, on_b)))
    return rows, skipped


@pytest.mark.parametrize("b_a", [0.002, 0.01])
@pytest.mark.parametrize("n_seeds", [1, A1_GROUP // 2, A1_GROUP // 2 + 1, 13])
def test_validate_assumption1_matches_one_solve_per_seed(n_seeds, b_a):
    # the grouped walk gives each seed the decision and adopter set of its
    # own sender_equilibrium and run_adoption; at b_A = 0.01 the zero cap
    # keeps the sender on A for some seeds. Over four tightnesses,
    # A1_GROUP // 2 seeds fill two groups that each span two tightnesses,
    # and one seed more leaves a last, partial group
    thetas = [0.75, 0.25, 0.125, 0.0625]
    seeds = range(3, 3 + n_seeds)
    rows, skipped = _one_solve_per_sample(thetas, seeds, b_a)
    report = validate_assumption1(thetas, seeds=seeds, b_a=b_a)
    assert report.rows == rows
    assert report.skipped == skipped
    if b_a == 0.01 and n_seeds == 13:
        assert rows and skipped


@pytest.mark.parametrize("group, thetas", [(3, [0.75, 0.25]), (4, [0.75, 0.125, 0.0625])])
def test_validate_assumption1_groups_span_tightnesses(monkeypatch, group, thetas):
    # groups of 3 or 4 samples over 5 seeds per tightness: most groups hold
    # samples of two tightnesses, and each sample still gets the decision
    # and adopter set of its own solve, rows and skips in report order
    monkeypatch.setattr(platmod.experiments, "A1_GROUP", group)
    walks = []
    original = platmod.experiments.sender_equilibria

    def counted(networks, params):
        walks.append(len(networks))
        return original(networks, params)

    monkeypatch.setattr(platmod.experiments, "sender_equilibria", counted)
    rows, skipped = _one_solve_per_sample(thetas, range(5), 0.01)
    report = validate_assumption1(thetas, seeds=range(5), b_a=0.01)
    assert report.rows == rows and report.skipped == skipped
    assert rows and skipped
    n = 5 * len(thetas)
    assert walks == [group] * (n // group) + [n % group] * (n % group > 0)


def test_validate_assumption1_reads_seeds_once():
    # a one-shot iterator of seeds serves every tightness, as a range does
    once = validate_assumption1([0.75, 0.25], seeds=iter(range(2)), sizes=(5, 5, 5))
    again = validate_assumption1([0.75, 0.25], seeds=range(2), sizes=(5, 5, 5))
    assert len(once.rows) + len(once.skipped) == 4
    assert once == again


def test_validate_assumption1_holds_one_group_of_networks(monkeypatch):
    # seeds are sampled lazily, a group at a time, and a group's networks
    # are gone before the next group is sampled
    alive, most = [0], [0]

    def counted(spec):
        network = gen_sbm(spec)
        alive[0] += 1
        most[0] = max(most[0], alive[0])
        weakref.finalize(network, lambda: alive.__setitem__(0, alive[0] - 1))
        return network

    monkeypatch.setattr(platmod.experiments, "gen_sbm", counted)
    report = validate_assumption1([0.75, 0.0625], seeds=range(2 * A1_GROUP + 1),
                                  sizes=(10, 10, 10))
    assert len(report.rows) + len(report.skipped) == 2 * (2 * A1_GROUP + 1)
    assert most[0] == A1_GROUP
    assert alive[0] == 0


def test_empty_grid_header_only(tmp_path):
    spec = small_line_spec()
    grid = HeatmapGrid(spec=spec, cells=[])
    out = tmp_path / "empty.csv"
    emit_csv(grid, out)
    assert out.read_text() == SWEEP_CSV_HEADER + "\n"


def test_csv_round_trip(tmp_path):
    spec = small_line_spec(ba_range=(0.0, 0.2, 3))
    grid = sweep(spec)
    path = tmp_path / "grid.csv"
    emit_csv(grid, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(grid.cells)
    for rec, cell in zip(rows, grid.cells):
        assert float(rec["p"]) == cell.p
        assert float(rec["b_A"]) == cell.b_a
        assert int(rec["samples"]) == cell.samples
        assert int(rec["n_no_effective"]) == cell.n_no_effective
        assert int(rec["n_any"]) == cell.n_any
        assert int(rec["n_moderate"]) == cell.n_moderate
        rho = rec["mean_rho_se"]
        assert (float(rho) if rho else None) == cell.mean_rho_se
        assert int(rec["seed_base"]) == spec.base_seed


def test_pgm_format_and_extremes():
    spec = SweepSpec(
        p_range=(0.5, 0.9, 2),
        ba_range=(0.0, 0.2, 3),
        recipe=NetworkRecipe("linear", {"n": 8}),
        samples=1,
    )
    grid = sweep(spec)
    text = pgm_text(grid)
    lines = text.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 3"
    assert lines[2] == "255"
    values = [int(v) for row in lines[3:] for v in row.split()]
    assert len(values) == 6
    assert all(0 <= v <= 255 for v in values)
    # b_a = 0 row: equal qualities, the cap never bites -> black
    assert lines[3] == "0 0"
    # b_a = 0.2 row: any cap enforceable -> white
    assert lines[5] == "255 255"


def test_cell_failures_recorded_without_aborting():
    # mu above every user's c makes each cell invalid; the sweep still
    # finishes and records the problem per cell
    spec = SweepSpec(
        p_range=(0.5, 0.7, 2),
        ba_range=(0.0, 0.01, 2),
        recipe=NetworkRecipe("linear", {"n": 4, "c": 0.3}),
        mu=0.45,
        samples=1,
    )
    grid = sweep(spec)
    assert len(grid.cells) == 4
    for cell in grid.cells:
        assert cell.samples == 0
        assert "InvalidParamsError" in cell.error
        assert cell.error == "InvalidParamsError: user 0 has c=0.3 <= mu=0.45"


@pytest.mark.parametrize("kind, args, missing", [
    ("linear", {"c": 0.3}, "n"),
    ("star_chain", {"n_hubs": 3}, "r"),
    ("tree", {}, "r, depth"),
    ("sbm", {"sizes": [4], "theta": None}, "theta"),
])
def test_recipe_names_its_missing_arguments(kind, args, missing):
    with pytest.raises(InvalidParamsError, match=f"^{kind} recipe needs {missing}$"):
        NetworkRecipe(kind, args)


@pytest.mark.parametrize("kind, args, key", [
    ("sbm", {"sizes": 5, "theta": [[0.5]]}, "sizes"),
    ("sbm", {"sizes": [4, 0], "theta": [[0.5, 0.1], [0.1, 0.5]]}, "sizes"),
    ("sbm", {"sizes": [4, 2.5], "theta": [[0.5, 0.1], [0.1, 0.5]]}, "sizes"),
    ("sbm", {"sizes": [4], "theta": 0.5}, "theta"),
    ("sbm", {"sizes": [4, 4], "theta": [[0.5, 0.1], [0.1]]}, "theta"),
    ("sbm", {"sizes": [4], "theta": [["0.5"]]}, "theta"),
    ("linear", {"n": 2.5}, "n"),
    ("linear", {"n": True}, "n"),
    ("star_chain", {"n_hubs": "3", "r": 2}, "n_hubs"),
    ("tree", {"r": 2, "depth": [3]}, "depth"),
])
def test_recipe_names_an_argument_of_the_wrong_type(kind, args, key):
    with pytest.raises(InvalidParamsError, match=f"^{kind} recipe wants {key} as "):
        NetworkRecipe(kind, args)


def test_invalid_cells_leave_the_others_unchanged():
    # p = 1 is outside the model: those cells record the error while the
    # cells of the same sampled networks are solved as without them
    recipe = NetworkRecipe("sbm", {"sizes": [8, 8], "theta": [[0.8, 0.05], [0.05, 0.8]]})
    full = sweep(SweepSpec(
        p_range=(0.5, 1.0, 3), ba_range=(0.0, 0.01, 3), recipe=recipe, samples=3, base_seed=2
    ))
    valid = sweep(SweepSpec(
        p_range=(0.5, 0.75, 2), ba_range=(0.0, 0.01, 3), recipe=recipe, samples=3, base_seed=2
    ))
    assert full.cells[:6] == valid.cells
    for cell in full.cells[6:]:
        assert cell.p == 1.0 and cell.samples == 0
        assert cell.error == "InvalidParamsError: p must lie in (0, 1), got 1.0 (3 samples)"


def test_small_chain_sweep_csv_is_pinned():
    # the CSV of the exact breakpoint walk (the 1e-9 bisection before it
    # left four mean_rho_se fields up to 3e-10 lower); two workers, each
    # solving whole samples, must give it too
    spec = SweepSpec(
        p_range=(0.5, 0.9, 3),
        ba_range=(0.0, 0.02, 4),
        recipe=NetworkRecipe(
            "sbm",
            {"sizes": [10, 10, 10], "theta": [list(r) for r in chain_theta((10, 10, 10), 0.75)]},
        ),
        samples=4,
        base_seed=0,
    )
    for workers in (1, 2):
        text = sweep_csv_text(sweep(spec, workers=workers))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "43955b016d494a6a43e850125f0df32563ad9e958698d27eebfb8edb09c8702c"
        )


def test_sweep_reraises_invariant_violation(monkeypatch):
    # a broken invariant is a program fault: it must not become a cell error
    import platmod.experiments as experiments

    def broken_solver(*args, **kwargs):
        raise InvariantViolationError("faulty kernel")

    monkeypatch.setattr(experiments, "solve_each", broken_solver)
    with pytest.raises(InvariantViolationError, match="faulty kernel"):
        sweep(small_line_spec())


def test_sweep_propagates_a_program_fault(monkeypatch):
    # only a network failing mu < c is a cell error; any other exception is
    # a bug in the program and leaves the sweep
    def broken_solver(*args, **kwargs):
        raise IndexError("list index out of range")

    monkeypatch.setattr(platmod.experiments, "solve_each", broken_solver)
    with pytest.raises(IndexError, match="list index out of range"):
        sweep(small_line_spec())


@pytest.fixture
def inline_pool(monkeypatch):
    """Run sweep's process pool in this process; returns the tasks it got."""
    tasks = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            tasks.extend(items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return tasks


def test_parallel_sbm_sweep_builds_each_sample_once(monkeypatch, inline_pool):
    built = []

    def counted(spec):
        built.append(spec.seed)
        return gen_sbm(spec)

    monkeypatch.setattr(platmod.experiments, "gen_sbm", counted)
    spec = SweepSpec(
        p_range=(0.4, 0.9, 3),
        ba_range=(0.0, 0.01, 3),
        recipe=NetworkRecipe("sbm", {"sizes": [8, 8], "theta": [[0.8, 0.05], [0.05, 0.8]]}),
        samples=4,
        base_seed=11,
    )
    sweep(spec, workers=2)
    assert sorted(built) == [11, 12, 13, 14]
    # two pools of two samples each, one per worker, every p column in each
    assert [task[1] for task in inline_pool] == [(11, 12), (13, 14)]
    assert [task[4:6] for task in inline_pool] == [(0, tuple(spec.p_values()))] * 2


def test_sweep_holds_one_pool_of_networks(monkeypatch):
    # a task's samples are built as the walk admits their first column and
    # are gone after their last finishes: with at most POOL_COLUMNS live
    # columns, at most POOL_COLUMNS + 1 networks are held at once (every one
    # but the one being admitted has a live column), each built once
    alive, most, built = [0], [0], []

    def counted(spec):
        network = gen_sbm(spec)
        built.append(spec.seed)
        alive[0] += 1
        most[0] = max(most[0], alive[0])
        weakref.finalize(network, lambda: alive.__setitem__(0, alive[0] - 1))
        return network

    monkeypatch.setattr(platmod.experiments, "gen_sbm", counted)
    monkeypatch.setattr(platmod.regulation, "POOL_COLUMNS", 7)
    spec = SweepSpec(
        p_range=(0.4, 0.9, 4),
        ba_range=(0.0, 0.01, 5),
        recipe=NetworkRecipe("sbm", {"sizes": [8, 8], "theta": [[0.8, 0.05], [0.05, 0.8]]}),
        samples=30,
    )
    grid = sweep(spec)
    assert all(cell.samples == spec.samples for cell in grid.cells)
    assert built == list(spec.seeds())
    assert 1 < most[0] <= 7 + 1
    assert alive[0] == 0
    # the same grid as walks of the usual width
    monkeypatch.setattr(platmod.regulation, "POOL_COLUMNS", 220)
    assert sweep_csv_text(sweep(spec)) == sweep_csv_text(grid)


def test_chain_sweep_benchmark_grid_is_pinned():
    # the seed-0 grid of the benchmark's chain_sweep workload: 80 sampled
    # 3x30 chains, pooled serially and shared between two workers
    sizes = (30, 30, 30)
    spec = SweepSpec(
        p_range=(0.5, 0.9, 5),
        ba_range=(0.0, 0.02, 11),
        recipe=NetworkRecipe("sbm", {"sizes": list(sizes), "c": [0.3] * 3,
                                     "theta": [list(r) for r in chain_theta(sizes, 0.75)]}),
        samples=80,
        base_seed=0,
    )
    for workers in (1, 2):
        text = sweep_csv_text(sweep(spec, workers=workers))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0708a108ed698f94d645a07fc93a4b989d861dd6ba96a0694e1a88840d4b8df3"
        )


LINE_4X3 = SweepSpec(p_range=(0.3, 0.9, 4), ba_range=(0.0, 0.02, 3),
                     recipe=NetworkRecipe("linear", {"n": 20}))


def test_parallel_deterministic_sweep_splits_p(inline_pool):
    # one sample and two workers: the p columns split into two blocks
    sweep(LINE_4X3, workers=2)
    p_values = tuple(LINE_4X3.p_values())
    assert [task[4:6] for task in inline_pool] == [(0, p_values[:2]), (2, p_values[2:])]


def test_parallel_deterministic_sweep_matches_serial():
    assert sweep_csv_text(sweep(LINE_4X3, workers=2)) == sweep_csv_text(sweep(LINE_4X3))


def test_pgm_moderate_gray_formula():
    from platmod.experiments import CellStats, HeatmapGrid, pgm_text
    from platmod import trust_threshold

    spec = small_line_spec()
    bp = trust_threshold(0.2, 0.3)
    cells = [
        CellStats(
            p=0.5, b_a=0.0, samples=1, n_no_effective=0, n_any=0,
            n_moderate=1, mean_rho_se=bp / 2, seeds=(0,),
        )
        for _ in range(4)
    ]
    lines = pgm_text(HeatmapGrid(spec=spec, cells=cells)).splitlines()
    assert lines[3] == "128 128"  # round(255 * (1 - 0.5))


def test_a1_over_strict_cap_sends_sender_away():
    # at theta=3/4 chain base the zero cap pushes the sender to B and two
    # communities follow as blocs
    report = validate_assumption1([0.75], seeds=range(2))
    assert all(r.n_users_b in (0, 30, 60, 90) for r in report.rows)
