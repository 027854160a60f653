import math

import numpy as np
import pytest

import platmod.regulation
from platmod import (
    InvalidParamsError,
    InvariantViolationError,
    ModelParams,
    Network,
    NetworkRecipe,
    Platform,
    RegulationKind,
    SbmSpec,
    SweepSpec,
    gen_linear,
    gen_regular_tree,
    gen_sbm,
    gen_star_chain,
    optimal_B,
    sender_equilibrium,
    strictest_effective_regulation,
    sweep,
    trust_threshold,
    utility_on_A,
)
from platmod.analytic import big_f
from platmod.regulation import (
    BISECT_WIDTH,
    _SetCache,
    _candidate_betas,
    _ensure_all,
    solve_cells,
)
from platmod.adoption import _beta_primes

from conftest import (
    default_params,
    dense_beta_regulation,
    per_community_c_sbm,
    random_sbm_instance,
    widened_sbm_instance,
)

BETA_PRIME = trust_threshold(0.2, 0.3)


def test_utility_on_a_linear_in_beta():
    net = gen_linear(8)
    params = default_params(p=0.5)
    u0 = utility_on_A(net, params, 0.0)
    assert u0 == pytest.approx(0.2 * sum(0.5**k for k in range(8)), abs=1e-12)
    u_mid = utility_on_A(net, params, 0.25)
    assert u_mid == pytest.approx(u0 * (0.2 + 0.8 * 0.25) / 0.2, abs=1e-12)


def test_utility_on_a_star_chain_enumeration():
    net = gen_star_chain(2, 2)
    params = default_params(p=0.5)
    # distances: hub0 at 0, its leaf and hub1 at 1, hub1's leaf at 2
    assert utility_on_A(net, params, 0.0) == pytest.approx(0.45, abs=1e-12)


def test_utility_on_a_geometric_limit():
    net = gen_linear(200)
    params = default_params()
    assert utility_on_A(net, params, 0.0) == pytest.approx(2.0, abs=1e-8)


def test_optimal_b_no_migration():
    net = gen_linear(6)
    decision = optimal_B(net, ModelParams(mu=0.2, p=0.9, b_a=0.5, b_b=0.0))
    assert decision.utility == 0.0
    assert decision.beta_star == 0.0
    assert decision.platform is Platform.B


def test_optimal_b_single_user_follows_to_threshold():
    net = gen_linear(1)
    decision = optimal_B(net, ModelParams(mu=0.2, p=0.9, b_a=0.3, b_b=0.3))
    assert decision.beta_star == pytest.approx(BETA_PRIME, abs=1e-12)
    assert decision.utility == pytest.approx(0.2 + 0.8 * BETA_PRIME, abs=1e-12)


def test_optimal_b_matches_infinite_line_formula():
    # brute-force oracle: maximize over stop indices with the closed form
    params = default_params(b_a=0.01, b_b=0.0)
    best = 0.0
    for k in range(200):
        beta = big_f(k, params, 0.3)
        if beta < 0:
            break
        best = max(best, (0.2 + 0.8 * beta) * (1 - 0.9 ** (k + 1)) / 0.1)
    decision = optimal_B(gen_linear(200), params)
    assert decision.utility == pytest.approx(best, abs=1e-3)
    assert decision.beta_star == pytest.approx(big_f(14, params, 0.3), abs=1e-6)


def test_strictest_linear_any_regulation():
    res = strictest_effective_regulation(
        gen_linear(20), ModelParams(mu=0.2, p=0.9, b_a=0.2, b_b=0.0)
    )
    assert res.kind is RegulationKind.ANY_REGULATION
    assert res.rho_se == 0.0
    assert res.sum_p_a == pytest.approx((1 - 0.9**20) / 0.1, abs=1e-12)


def test_strictest_equal_qualities_no_effective():
    res = strictest_effective_regulation(
        gen_linear(10), ModelParams(mu=0.2, p=0.9, b_a=0.0, b_b=0.0)
    )
    assert res.kind is RegulationKind.NO_EFFECTIVE_REGULATION
    assert res.rho_se is None
    assert res.u_star_b == pytest.approx((0.2 + 0.8 * BETA_PRIME) * res.sum_p_a, abs=1e-12)


def test_strictest_moderate_defining_equality():
    for p, b_a in [(0.9, 0.01), (0.8, 0.005), (0.7, 0.02)]:
        net = gen_linear(30)
        params = ModelParams(mu=0.2, p=p, b_a=b_a, b_b=0.0)
        res = strictest_effective_regulation(net, params)
        assert res.kind is RegulationKind.MODERATE
        assert 0.0 < res.rho_se < BETA_PRIME
        assert utility_on_A(net, params, res.rho_se) == pytest.approx(
            res.u_star_b, abs=1e-9
        )


def test_trichotomy_exclusive_and_exhaustive():
    net = gen_star_chain(4, 2)
    for p in (0.3, 0.6, 0.9):
        for b_a in np.linspace(0.0, 0.12, 13):
            res = strictest_effective_regulation(
                net, ModelParams(mu=0.2, p=p, b_a=float(b_a), b_b=0.0)
            )
            if res.kind is RegulationKind.MODERATE:
                assert res.rho_se is not None and 0.0 < res.rho_se
            elif res.kind is RegulationKind.ANY_REGULATION:
                assert res.rho_se == 0.0
            else:
                assert res.rho_se is None


def test_u_star_b_monotone_in_qualities():
    rng = np.random.default_rng(19)
    for _ in range(15):
        network, params, _ = random_sbm_instance(rng)
        base = optimal_B(network, params).utility
        richer_a = ModelParams(
            mu=params.mu, p=params.p, b_a=params.b_a + 0.01, b_b=params.b_b
        )
        richer_b = ModelParams(
            mu=params.mu, p=params.p, b_a=params.b_a, b_b=params.b_b + 0.01
        )
        assert optimal_B(network, richer_a).utility <= base + 1e-9
        assert optimal_B(network, richer_b).utility >= base - 1e-9


def test_bisection_brackets_are_set_constant():
    # generic path (cyclic network): equal-set neighbors bound a constant
    # piece, differing-set neighbors are brackets refined to the search width
    from platmod import SbmSpec, gen_sbm

    net = gen_sbm(SbmSpec(sizes=(6, 6), theta=((0.9, 0.08), (0.08, 0.9)), seed=4))
    params = ModelParams(mu=0.2, p=0.85, b_a=0.01, b_b=0.0)
    cache = _SetCache(net, params)
    assert not cache.use_cascade
    [candidates] = _candidate_betas([cache], _beta_primes(net, params.mu))
    changed = 0
    for lo, hi in zip(candidates, candidates[1:]):
        if cache.set_key(lo) == cache.set_key(hi):
            mid = (lo + hi) / 2
            _ensure_all([(cache, [mid])])
            assert cache.set_key(mid) == cache.set_key(lo)
        else:
            assert hi - lo <= 2 * BISECT_WIDTH
            changed += 1
    assert changed >= 1  # the instance has at least one adopter-set jump


def test_cascade_candidates_sit_on_piece_tops():
    # fast path (tree): breakpoints are exact, each candidate closes its
    # piece from above, and the set just past a differing pair matches the
    # upper neighbor
    net = gen_star_chain(5, 2)
    params = ModelParams(mu=0.2, p=0.85, b_a=0.03, b_b=0.0)
    cache = _SetCache(net, params)
    assert cache.use_cascade
    [candidates] = _candidate_betas([cache], _beta_primes(net, params.mu))
    changed = 0
    for lo, hi in zip(candidates, candidates[1:]):
        mid = (lo + hi) / 2
        _ensure_all([(cache, [mid])])
        if cache.set_key(lo) == cache.set_key(hi):
            assert cache.set_key(mid) == cache.set_key(lo)
        else:
            assert cache.set_key(mid) == cache.set_key(hi)
            changed += 1
    assert changed >= 1


def test_grid_fallback_agrees():
    # the breakpoint search against the dense-beta oracle on a cascade tree,
    # a cyclic SBM with two sender links and an SBM with one c per community
    star_chain = gen_star_chain(4, 2)
    cases = [
        (star_chain, ModelParams(mu=0.2, p=0.8, b_a=b_a, b_b=0.0)) for b_a in (0.01, 0.03, 0.06)
    ]
    rng = np.random.default_rng(3)
    while len(cases) < 6:
        fields, params, _ = widened_sbm_instance(rng)
        network = Network(**fields)
        if len(network.edges) >= network.n_users:  # a cycle
            cases.append((network, params))
    cases += [
        (per_community_c_sbm(), ModelParams(mu=0.2, p=p, b_a=b_a, b_b=0.0))
        for p, b_a in ((0.8, 0.005), (0.6, 0.01), (0.9, 0.03))
    ]
    kinds = set()
    for net, params in cases:
        exact = strictest_effective_regulation(net, params)
        kind, rho_se, u_star_b = dense_beta_regulation(net, params)
        assert kind is exact.kind
        assert u_star_b == pytest.approx(exact.u_star_b, abs=2e-4)
        if exact.rho_se is not None:
            assert rho_se == pytest.approx(exact.rho_se, abs=1e-3)
        kinds.add(kind)
    assert RegulationKind.MODERATE in kinds


def test_sender_equilibrium_unregulated_stays_on_a():
    net = gen_linear(20)
    params = ModelParams(mu=0.2, p=0.9, b_a=0.2, b_b=0.0, rho_a=1.0)
    decision = sender_equilibrium(net, params)
    assert decision.platform is Platform.A
    assert decision.beta_star == pytest.approx(BETA_PRIME, abs=1e-12)


def test_sender_equilibrium_zero_cap_retains_when_any():
    net = gen_linear(20)
    params = ModelParams(mu=0.2, p=0.9, b_a=0.2, b_b=0.0, rho_a=0.0)
    decision = sender_equilibrium(net, params)
    assert decision.platform is Platform.A
    assert decision.beta_star == 0.0


def test_sender_equilibrium_flees_too_strict_cap():
    net = gen_linear(200)
    base = ModelParams(mu=0.2, p=0.9, b_a=0.01, b_b=0.0)
    res = strictest_effective_regulation(net, base)
    assert res.kind is RegulationKind.MODERATE
    capped = ModelParams(mu=0.2, p=0.9, b_a=0.01, b_b=0.0, rho_a=res.rho_se / 2)
    decision = sender_equilibrium(net, capped)
    assert decision.platform is Platform.B
    assert decision.beta_star == pytest.approx(res.beta_star_b, abs=1e-9)
    # at or above the strictest cap the sender stays
    kept = ModelParams(mu=0.2, p=0.9, b_a=0.01, b_b=0.0, rho_a=res.rho_se + 1e-6)
    assert sender_equilibrium(net, kept).platform is Platform.A


def test_moderate_zero_boundary_reported_as_any():
    # a single sender-linked user with b_a = b_b follows at every beta, so
    # U_A(0) == U*_B(0-candidate)... the zero-cap boundary must classify Any
    net = gen_linear(1)
    params = ModelParams(mu=0.2, p=0.9, b_a=0.1, b_b=0.1)
    res = strictest_effective_regulation(net, params)
    assert res.kind is not RegulationKind.ANY_REGULATION  # follows to beta', cap bites
    # construct exact boundary: no network beats staying when nobody migrates
    res2 = strictest_effective_regulation(
        gen_linear(2), ModelParams(mu=0.2, p=0.9, b_a=0.3, b_b=0.0)
    )
    assert res2.kind is RegulationKind.ANY_REGULATION and res2.rho_se == 0.0


def _random_cells(rng, mu, k):
    return [
        ModelParams(
            mu=mu,
            p=float(rng.uniform(0.2, 0.95)),
            b_a=float(rng.uniform(0.0, 0.03)),
            b_b=float(rng.uniform(0.0, 0.01)),
        )
        for _ in range(k)
    ]


def test_lockstep_cells_equal_one_cell_solves():
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(4):
        network, params, _ = random_sbm_instance(rng)
        cases.append((network, params.mu))
    fields, params, _ = widened_sbm_instance(rng)
    cases.append((Network(**fields), params.mu))  # two sender links
    cases.append((per_community_c_sbm(), 0.2))
    tree = gen_star_chain(4, 2)
    assert tree.is_cascade_tree
    cases.append((tree, 0.2))
    kinds = set()
    for network, mu in cases:
        cells = _random_cells(rng, mu, 10)
        together = solve_cells(network, cells)
        assert together == [strictest_effective_regulation(network, c) for c in cells]
        kinds.update(res.kind for res in together)
    assert kinds == set(RegulationKind)
    with pytest.raises(InvalidParamsError, match="share mu"):
        solve_cells(tree, [default_params(), default_params(mu=0.1)])


def test_set_cache_rejects_non_nested_sets():
    net = gen_star_chain(3, 2)  # 6 users
    cache = _SetCache(net, default_params())
    sets = lambda *cols: np.array([[u in col for col in cols] for u in range(6)])
    dist = np.zeros((6, 2), dtype=np.int32)
    cache.store([0.0, 0.5], sets({0, 1}, {0}), dist)
    cache.store([0.4], sets({0, 1}), dist[:, :1])  # nested between its neighbours
    for bad in ({0, 2}, {1}):  # not within the lower set; not holding the upper one
        fresh = _SetCache(net, default_params())
        fresh.store([0.0, 0.5], sets({0, 1}, {0}), dist)
        with pytest.raises(InvariantViolationError, match="not a subset"):
            fresh.store([0.25], sets(bad), dist[:, :1])


def test_non_nested_engine_output_raises(monkeypatch):
    # an engine whose adopter sets grow with beta breaks the nesting the
    # bisection relies on; solves and sweeps must fail loudly
    def growing_sets(network, mu, betas, p, b_a, b_b, collect_trace=False):
        betas = np.asarray(betas)
        on_b = np.broadcast_to(betas > 0.1, (network.n_users, betas.size)).copy()
        dist = np.zeros(on_b.shape, dtype=np.int32)
        return on_b, dist, np.zeros(betas.size, dtype=np.int64), []

    monkeypatch.setattr(platmod.regulation, "batch_final_b_sets", growing_sets)
    net = gen_sbm(SbmSpec(sizes=(6, 6), theta=((0.9, 0.08), (0.08, 0.9)), seed=4))
    assert not net.is_cascade_tree
    with pytest.raises(InvariantViolationError, match="not a subset"):
        strictest_effective_regulation(net, default_params())
    spec = SweepSpec(
        p_range=(0.5, 0.9, 2),
        ba_range=(0.0, 0.01, 2),
        recipe=NetworkRecipe("sbm", {"sizes": [6, 6], "theta": [[0.9, 0.08], [0.08, 0.9]]}),
        samples=2,
        base_seed=4,
    )
    with pytest.raises(InvariantViolationError, match="not a subset"):
        sweep(spec)
