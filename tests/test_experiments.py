import hashlib

import numpy as np
import pytest

from platmod import (
    HeatmapGrid,
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
    sweep,
    validate_assumption1,
)
from platmod.adoption import Assignment
from platmod.experiments import (
    SWEEP_CSV_HEADER,
    a1_csv_text,
    emit_csv,
    pgm_text,
    read_sweep_csv,
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
    # per-sample outcomes depend only on (spec, sample index)
    recipe = NetworkRecipe("sbm", {"sizes": [10], "theta": [[0.6]]})
    spec_a = SweepSpec(
        p_range=(0.5, 0.7, 2), ba_range=(0.0, 0.004, 2), recipe=recipe, samples=5, base_seed=3
    )
    grid_a = sweep(spec_a)
    from platmod.experiments import _column_results

    shuffled = []
    tasks = [
        (recipe, seed, 0.2, 0.0, p_idx, (p,), tuple(spec_a.ba_values()))
        for p_idx, p in enumerate(spec_a.p_values())
        for seed in reversed(spec_a.seeds())
    ]
    for t in tasks:
        shuffled.append(_column_results(t))
    by_key = {(seed, p_idx): out[0] for seed, p_idx, out in shuffled}
    # one task per sample, all p columns at once, as a serial sweep runs it
    tasks_fwd = [
        (recipe, seed, 0.2, 0.0, 0, tuple(spec_a.p_values()), tuple(spec_a.ba_values()))
        for seed in spec_a.seeds()
    ]
    for recipe_, seed, mu, bb, p_start, ps, bas in tasks_fwd:
        again = _column_results((recipe_, seed, mu, bb, p_start, ps, bas))
        for p_idx, column in enumerate(again[2]):
            assert by_key[(seed, p_idx)] == column


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
    rows = read_sweep_csv(path)
    assert len(rows) == len(grid.cells)
    for rec, cell in zip(rows, grid.cells):
        assert rec["p"] == cell.p
        assert rec["b_A"] == cell.b_a
        assert rec["samples"] == cell.samples
        assert rec["n_no_effective"] == cell.n_no_effective
        assert rec["n_any"] == cell.n_any
        assert rec["n_moderate"] == cell.n_moderate
        assert rec["mean_rho_se"] == cell.mean_rho_se
        assert rec["seed_base"] == spec.base_seed


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
        assert cell.error == "; ".join(["InvalidParamsError: p must lie in (0, 1), got 1.0"] * 3)


def test_small_chain_sweep_csv_is_pinned():
    # the CSV of the exact breakpoint walk (the 1e-9 bisection before it
    # left four mean_rho_se fields up to 3e-10 lower); parallel blocks of p
    # columns must give it too
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

    monkeypatch.setattr(experiments, "solve_cells", broken_solver)
    with pytest.raises(InvariantViolationError, match="faulty kernel"):
        sweep(small_line_spec())


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
