"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Runtime-sensitive checks measure wall time and assert their stated budgets.
The SBM chain sweep is computed once in a session fixture and shared between
the overlay check and the byte-determinism check.
"""

import time

import numpy as np
import pytest

from platmod import (
    FamilySpec,
    ModelParams,
    NetworkRecipe,
    Platform,
    RegulationKind,
    SweepSpec,
    chain_theta,
    complete_theta,
    gen_linear,
    gen_regular_tree,
    gen_star_chain,
    nash_check,
    run_adoption,
    strictest_effective_regulation,
    sweep,
    threshold_rho0,
    validate_assumption1,
)
from platmod.analytic import SbmAnalyticSpec, f_k, f_nk, g_nk, h_nk, k_cap, sbm_boundary_b_a
from platmod.experiments import sweep_csv_text
from platmod.graph import through_platform_distances

from conftest import random_sbm_instance

GRID_STEP = 0.002
SBM_STEP = 0.0005
WORKERS = 2

P_VALUES_9 = np.linspace(0.1, 0.9, 9)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")


def _family_boundaries(kind: str, args: dict) -> tuple[list, float]:
    spec = SweepSpec(
        p_range=(0.1, 0.9, 9),
        ba_range=(0.0, 0.2, 101),
        recipe=NetworkRecipe(kind, args),
        samples=1,
        base_seed=0,
    )
    t0 = time.monotonic()
    grid = sweep(spec, workers=1)
    elapsed = time.monotonic() - t0
    bounds = [grid.any_boundary_b_a(i, quota=1.0) for i in range(9)]
    return bounds, elapsed


def _check_columns(tag: str, bounds, analytic, step: float) -> None:
    failures = []
    for p, sim, ana in zip(P_VALUES_9, bounds, analytic):
        if sim is None or abs(sim - ana) > step + 1e-12:
            failures.append(
                f"p={p:.1f}: simulated boundary {sim} vs curve {ana:.6f} "
                f"({abs(sim - ana) / step:.2f} grid steps)"
            )
    _report(tag, not failures, "; ".join(failures) or f"all 9 columns within one step")
    assert not failures, f"{tag}: " + "; ".join(failures)


def test_criterion_1_finite_line_overlay():
    bounds, elapsed = _family_boundaries("linear", {"n": 20})
    analytic = [max(f_nk(20, k, float(p)) for k in range(19)) for p in P_VALUES_9]
    assert elapsed < 30.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 30s single-threaded"
    _check_columns("C1 line n=20", bounds, analytic, GRID_STEP)


def test_criterion_2_star_chain_overlay():
    # NOTE: expected to fail at p = 0.9. The uniform-hub stop-index curve
    # treats the farthest hub like an interior one (social stake r*b_a), but
    # in the exact process that hub has only r-1 leaves left once its hub
    # neighbor departs, so for p > 1/r it always follows and full migration
    # is governed by the second-to-last hub: the simulated collapse boundary
    # is mu*(1-c)*p**(n-2)/r, above the curve by ~2.6 grid steps at p = 0.9.
    bounds, elapsed = _family_boundaries("star_chain", {"n_hubs": 5, "r": 2})
    analytic = [max(g_nk(5, k, float(p)) for k in range(5)) / 2 for p in P_VALUES_9]
    assert elapsed < 30.0
    _check_columns("C2 star-chain n=5 r=2", bounds, analytic, GRID_STEP)


def test_criterion_2_tree_overlay():
    bounds, elapsed = _family_boundaries("tree", {"r": 2, "depth": 5})
    analytic = [max(h_nk(6, k, float(p), 2) for k in range(5)) / 2 for p in P_VALUES_9]
    assert elapsed < 30.0
    _check_columns("C2 tree r=2 depth=5", bounds, analytic, GRID_STEP)


def test_criterion_3_infinite_tree_collapse():
    zeros = []
    for p in np.arange(0.51, 1.0, 0.02):
        params = ModelParams(mu=0.2, p=float(p), b_a=0.005, b_b=0.0)
        zeros.append(threshold_rho0(FamilySpec(kind="tree-infinite", params=params, r=2)))
    assert all(z == 0.0 for z in zeros)

    params = ModelParams(mu=0.2, p=0.6, b_a=0.005, b_b=0.0)
    res5 = strictest_effective_regulation(gen_regular_tree(2, 5), params)
    res4 = strictest_effective_regulation(gen_regular_tree(2, 4), params)
    assert res5.kind is RegulationKind.MODERATE and res4.kind is RegulationKind.MODERATE
    ok = res5.rho_se <= res4.rho_se
    _report(
        "C3 infinite-tree collapse",
        ok,
        f"analytic threshold 0 for pr>1; depth-5 cap {res5.rho_se:.4f} <= depth-4 cap {res4.rho_se:.4f}",
    )
    assert ok


def test_criterion_4_stop_index_curve_tightness():
    strict = False
    worst = 0.0
    for p in np.linspace(0.01, 0.99, 100):
        tight = max(f_k(k, float(p)) for k in range(k_cap(0.2, float(p)) + 1))
        loose = min(0.2 * 0.7, 0.2 * 0.49 / float(p))
        assert tight <= loose + 1e-12, f"p={p}: {tight} > {loose}"
        worst = max(worst, tight - loose)
        strict |= tight < loose - 1e-9
    _report("C4 tightness", strict, f"max excess {worst:.2e}; strictly below somewhere: {strict}")
    assert strict


def _chain_base_spec() -> SweepSpec:
    sizes = [30, 30, 30]
    return SweepSpec(
        p_range=(0.5, 0.9, 5),
        ba_range=(0.0, 0.02, 41),
        recipe=NetworkRecipe(
            "sbm", {"sizes": sizes, "theta": [list(r) for r in chain_theta(sizes, 0.75)]}
        ),
        samples=50,
        base_seed=0,
    )


@pytest.fixture(scope="session")
def chain_base_grid():
    spec = _chain_base_spec()
    t0 = time.monotonic()
    grid = sweep(spec, workers=WORKERS)
    elapsed = time.monotonic() - t0
    return grid, elapsed


def test_criterion_5_chain_overlay(chain_base_grid):
    # NOTE: expected to fail at most columns by a fraction of a grid step
    # beyond tolerance. The community-level curve prices the pivotal user's
    # social stake at n*theta*b_a with the first relocator's receive
    # probability, but in the exact cascade later movers face a residual
    # stake (friends already departed) and the sender optimizes over partial
    # sets, so the simulated 90%-quantile boundary sits ~2-2.6 steps above
    # the curve rather than within 2.
    grid, elapsed = chain_base_grid
    assert elapsed < 600.0, f"chain sweep took {elapsed:.0f}s, over the 10-minute budget"
    failures = []
    for p_idx, p in enumerate(grid.spec.p_values()):
        ana = sbm_boundary_b_a(
            SbmAnalyticSpec(
                sizes=(30, 30, 30), theta_diag=(0.75,) * 3, b_a=0.0, b_b=0.0,
                p=float(p), scaling="chain",
            )
        )
        sim = grid.any_boundary_b_a(p_idx, quota=0.9)
        if sim is None or abs(sim - ana) > 2 * SBM_STEP + 1e-12:
            failures.append(
                f"p={p:.1f}: 90%-quantile boundary {sim} vs curve {ana:.6f} "
                f"({abs(sim - ana) / SBM_STEP:.2f} steps)"
            )
    _report("C5 chain overlay", not failures, "; ".join(failures) or "all 5 columns within 2 steps")
    assert not failures, "C5 chain overlay: " + "; ".join(failures)


def _single_column_boundary(recipe: NetworkRecipe, p: float) -> float:
    spec = SweepSpec(
        p_range=(p, p + 1e-9, 2),
        ba_range=(0.0, 0.02, 41),
        recipe=recipe,
        samples=50,
        base_seed=0,
    )
    grid = sweep(spec, workers=WORKERS)
    return grid.any_boundary_b_a(0, quota=0.9)


def test_criterion_5_qualitative_middle_community_tightness():
    sizes = [30, 30, 30]
    bounds = {}
    for label, th22 in (("loose", 0.5), ("tight", 1.0)):
        theta = chain_theta(sizes, (0.75, th22, 0.75))
        recipe = NetworkRecipe("sbm", {"sizes": sizes, "theta": [list(r) for r in theta]})
        bounds[label] = _single_column_boundary(recipe, 0.9)
    ok = bounds["tight"] < bounds["loose"]
    _report("C5 tight middle community", ok, f"tight {bounds['tight']} < loose {bounds['loose']}")
    assert ok


def test_criterion_5_qualitative_sender_community_size():
    bounds = {}
    for label, sizes in (("small", [20, 30, 40, 50]), ("large", [50, 20, 30, 40])):
        theta = complete_theta(sizes, 0.75)
        recipe = NetworkRecipe("sbm", {"sizes": sizes, "theta": [list(r) for r in theta]})
        bounds[label] = _single_column_boundary(recipe, 0.5)
    ok = bounds["large"] < bounds["small"]
    _report("C5 sender community size", ok, f"large {bounds['large']} < small {bounds['small']}")
    assert ok


def test_criterion_6_bloc_migration():
    report = validate_assumption1([0.75], seeds=range(50))
    zeros = sum(1 for r in report.rows if r.irregular == 0)
    ok_tight = len(report.rows) == 50 and zeros >= 0.95 * 50
    report_loose = validate_assumption1([1 / 16], seeds=range(50))
    ok_loose = any(r.irregular > 0 for r in report_loose.rows)
    _report(
        "C6 bloc migration",
        ok_tight and ok_loose,
        f"theta=3/4: {zeros}/50 fully regular; theta=1/16: "
        f"{sum(1 for r in report_loose.rows if r.irregular > 0)}/50 with irregular choices",
    )
    assert ok_tight and ok_loose


def _line_boundary(c, p: float) -> float:
    for b_a in np.linspace(0.0, 0.2, 101):
        res = strictest_effective_regulation(
            gen_linear(60, c=c), ModelParams(mu=0.2, p=p, b_a=float(b_a), b_b=0.0)
        )
        if res.kind is RegulationKind.ANY_REGULATION:
            return float(b_a)
    return float("inf")


def test_criterion_7_sympathizers_near_sender():
    sympathizer_near = [0.21] * 3 + [0.4] * 57
    low_p = (_line_boundary(sympathizer_near, 0.3), _line_boundary(0.3, 0.3))
    high_p = (_line_boundary(sympathizer_near, 0.9), _line_boundary(0.3, 0.9))
    ok = low_p[0] > low_p[1] and high_p[0] <= high_p[1]
    _report(
        "C7 sympathizers",
        ok,
        f"p=0.3: {low_p[0]:.3f} > {low_p[1]:.3f}; p=0.9: {high_p[0]:.3f} <= {high_p[1]:.3f}",
    )
    assert ok


def test_criterion_8_dynamics_invariants():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        network, params, beta = random_sbm_instance(rng)
        out = run_adoption(network, params, beta, Platform.B)
        assert out.iterations <= network.n_users
        seen = set()
        for s in out.trace:
            assert not (s & seen), "a user switched twice"
            seen |= s
        assert seen == set(np.nonzero(out.assignment.on_b)[0])
        assert nash_check(network, params, beta, out.assignment) == []

    # wave structure on acyclic networks: switchers at round t sit t edges out
    for _ in range(20):
        nets = [
            gen_linear(int(rng.integers(2, 25))),
            gen_star_chain(int(rng.integers(1, 7)), int(rng.integers(1, 5))),
            gen_regular_tree(int(rng.integers(1, 4)), int(rng.integers(0, 5))),
        ]
        for net in nets:
            depth = through_platform_distances(
                net, np.ones((net.n_users, 1), dtype=bool)
            )[:, 0]
            params = ModelParams(
                mu=0.2,
                p=float(rng.uniform(0.3, 0.95)),
                b_a=float(rng.uniform(0.0, 0.05)),
                b_b=float(rng.uniform(0.0, 0.01)),
            )
            out = run_adoption(net, params, float(rng.uniform(0, 0.6)), Platform.B)
            for t, switchers in enumerate(out.trace):
                assert {int(depth[u]) for u in switchers} == {t}
    _report("C8 dynamics invariants", True, "500 instances converged, one-way, Nash-stable")


def test_criterion_9_byte_identical_sweep(chain_base_grid):
    grid, _ = chain_base_grid
    again = sweep(_chain_base_spec(), workers=WORKERS)
    ok = sweep_csv_text(grid) == sweep_csv_text(again)
    _report("C9 determinism", ok, "two full chain sweeps agree byte for byte")
    assert ok
