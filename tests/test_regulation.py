import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import platmod.adoption
import platmod.experiments
import platmod.graph
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
    UserProfile,
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
from platmod.experiments import _pool_results, validate_assumption1
from platmod.regulation import (_b_sides, _side, _walk, sender_equilibria, solve_cells, solve_each,
                                 solve_pool)
from platmod.adoption import Columns, _beta_primes, batch_final_b_sets
from platmod.graph import pooled_relay_distances, receive_map, through_platform_distances
from platmod.model import TIE_TOL, sender_payoff, trusts

from conftest import (
    _all_a_tiers,
    bisection_regulation,
    build_network,
    default_params,
    dense_beta_regulation,
    float64_neighbour_counts,
    per_community_c_sbm,
    random_sbm_instance,
    widened_sbm_instance,
)

BETA_PRIME = trust_threshold(0.2, 0.3)


def _one_b_side(network, params):
    """(thresholds, pieces) of one cell on one network, from _b_sides."""
    got = []
    _b_sides([network], [params],
             lambda side, _, __, pieces: got.append((side.thresholds, pieces)))
    [(thresholds, pieces)] = got
    return thresholds, pieces


def walk_pieces(networks, cells):
    """The pieces of every column, cells[i] on the k-th network at
    k * len(cells) + i, walked down from the network's largest trust
    threshold: one walk of every network's side, cascade trees included."""
    mu, pieces = cells[0].mu, [None] * (len(networks) * len(cells))
    _walk(mu, cells, (_side(k, net, mu) for k, net in enumerate(networks)),
          lambda side, i, walked: pieces.__setitem__(side.k * len(cells) + i, walked))
    return pieces


def _piece_bits(pieces):
    """Each piece's top, set and scored (beta, utility) pairs, floats as
    their exact hex."""
    return [(top.hex(), on_b.tobytes(), [(b.hex(), u.hex()) for b, u in scored])
            for top, on_b, scored in pieces]


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


@pytest.mark.parametrize(
    "net, params, cascade",
    [
        (gen_sbm(SbmSpec(sizes=(6, 6), theta=((0.9, 0.08), (0.08, 0.9)), seed=4)),
         ModelParams(mu=0.2, p=0.85, b_a=0.01, b_b=0.0), False),
        (gen_star_chain(5, 2), ModelParams(mu=0.2, p=0.85, b_a=0.03, b_b=0.0), True),
    ],
    ids=["cyclic-sbm", "star-chain"],
)
def test_candidates_sit_on_piece_tops(net, params, cascade):
    # the walk (cyclic network) and the closed form (tree) both give exact
    # pieces: a cold engine run at each top gives the piece's set, and one
    # between two consecutive candidates gives the upper candidate's set
    assert net.is_cascade_tree is cascade
    thresholds, pieces = _one_b_side(net, params)
    cold = lambda b: batch_final_b_sets(net, params.mu, np.array([b]), params.p, params.b_a,
                                        params.b_b)[0][:, 0]
    for top, on_b, _ in pieces:
        assert np.array_equal(cold(top), on_b)
    set_at = lambda b: min((p for p in pieces if p[0] >= b), key=lambda p: p[0])[1]
    candidates = sorted({0.0} | {top for top, _, _ in pieces} | set(thresholds))
    for lo, hi in zip(candidates, candidates[1:]):
        assert np.array_equal(cold((lo + hi) / 2), set_at(hi))
    # the instance has at least one adopter-set jump
    assert len({on_b.tobytes() for _, on_b, _ in pieces}) >= 2


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


def test_sender_equilibrium_on_a_several_trust_tiers():
    # three trust tiers: under each cap the A side's best is a brute-force
    # max over [0, cap] of the tiered utility from the definitions, the
    # smallest level within TIE_TOL of it winning; the sender picks B only
    # when optimal_B beats that by more than TIE_TOL
    net = per_community_c_sbm()
    outcomes = set()
    for p in (0.2, 0.45):
        for b_a in (0.0, 0.005, 0.01):
            params = ModelParams(mu=0.2, p=p, b_a=b_a, b_b=0.0)
            bp, p_a = _all_a_tiers(net, params)
            tiers = np.unique(bp)
            assert tiers.size == 3
            on_b = optimal_B(net, params)
            caps = np.concatenate([[0.0], tiers, (tiers[1:] + tiers[:-1]) / 2, [tiers[-1] + 1e-3]])
            for cap in caps.tolist():
                betas = np.unique(np.concatenate([np.linspace(0.0, cap, 201), bp[bp <= cap]]))
                u = np.array([(0.2 + 0.8 * b) * p_a[b <= bp + TIE_TOL].sum() for b in betas])
                beta_a = betas[np.argmax(u >= u.max() - TIE_TOL)]
                decision = sender_equilibrium(net, ModelParams(mu=0.2, p=p, b_a=b_a, b_b=0.0,
                                                               rho_a=cap))
                if u.max() >= on_b.utility - TIE_TOL:
                    assert decision.platform is Platform.A
                    assert decision.beta_star == pytest.approx(beta_a, abs=1e-12)
                    assert decision.utility == pytest.approx(u.max(), abs=1e-12)
                    outcomes.add("A at the cap" if beta_a == cap and cap not in bp
                                 else "A at a threshold")
                else:
                    assert decision == on_b
                    outcomes.add("B")
    assert outcomes == {"A at the cap", "A at a threshold", "B"}


def test_optimal_b_is_the_solves_b_side():
    rng = np.random.default_rng(21)
    cases = [random_sbm_instance(rng)[:2] for _ in range(8)]
    cases += [(gen_star_chain(5, 2), default_params(p=0.85, b_a=b_a)) for b_a in (0.01, 0.03)]
    for network, params in cases:
        decision, res = optimal_B(network, params), strictest_effective_regulation(network, params)
        assert decision.platform is Platform.B
        assert decision.beta_star.hex() == float(res.beta_star_b).hex()
        assert decision.utility.hex() == float(res.u_star_b).hex()


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


def _patch_walk_step(patched, wrap):
    """Make the walk's engine call wrap(step) in place of the walk's step
    callback: the boundary where faults are injected."""
    engine = platmod.regulation.batch_final_b_sets

    def wrapped(*args, step=None, **kwargs):
        return engine(*args, step=wrap(step), **kwargs)

    patched.setattr(platmod.regulation, "batch_final_b_sets", wrapped)


def _restart_above_the_top(step):
    """The first columns with adopters that are given a next breakpoint
    restart at beta = 1 instead, above every top, where nobody trusts: the
    set they carry is not inside the set there."""
    lifted = [False]

    def restart(index, cols, beta, on_b, *state):
        nxt = step(index, cols, beta, on_b, *state)
        lift = (nxt >= 0.0) & on_b.any(axis=0)
        if not lifted[0] and lift.any():
            lifted[0] = True
            return np.where(lift, 1.0, nxt)
        return nxt

    return restart


def _stalled_after_restart(step):
    """Each column hands the walk the state it first settled in at every
    later level, as if the engine moved nobody after a restart."""
    first = {}

    def stalled(index, cols, beta, *state):
        for k, j in enumerate(index.tolist()):
            first.setdefault(j, tuple(x[:, k] for x in state))
        return step(index, cols, beta, *(np.stack([first[j][i] for j in index.tolist()], axis=1)
                                         for i in range(len(state))))

    return stalled


def test_non_nested_engine_output_raises(monkeypatch):
    # a column restarted from a set that is not inside the set at its new
    # level has users on B who strictly prefer A; solves and sweeps must
    # fail loudly
    _patch_walk_step(monkeypatch, _restart_above_the_top)
    net = gen_sbm(SbmSpec(sizes=(6, 6), theta=((0.9, 0.08), (0.08, 0.9)), seed=4))
    assert not net.is_cascade_tree
    with pytest.raises(InvariantViolationError, match="one-way migration violated"):
        strictest_effective_regulation(net, default_params())
    spec = SweepSpec(
        p_range=(0.5, 0.9, 2),
        ba_range=(0.0, 0.01, 2),
        recipe=NetworkRecipe("sbm", {"sizes": [6, 6], "theta": [[0.9, 0.08], [0.08, 0.9]]}),
        samples=2,
        base_seed=4,
    )
    with pytest.raises(InvariantViolationError, match="one-way migration violated"):
        sweep(spec)


def _oracle_cases():
    """Cyclic two-sender-link SBMs with b_B > 0, the per-community-c SBM and
    a star chain, each with random cells and one where B is the better
    platform."""
    rng = np.random.default_rng(11)
    cells = lambda mu: _random_cells(rng, mu, 7) + [ModelParams(mu=mu, p=0.8, b_a=0.0, b_b=0.005)]
    cases = []
    while len(cases) < 6:
        fields, params, _ = widened_sbm_instance(rng)
        network = Network(**fields)
        if len(network.edges) >= network.n_users and params.b_b > 0.0:
            cases.append((network, cells(params.mu)))
    cases.append((per_community_c_sbm(), cells(0.2)))
    cases.append((gen_star_chain(5, 2), cells(0.2)))
    return cases


def test_walk_agrees_with_the_bisection_oracle():
    # the bisection stops up to 1e-9 short of a piece top; the walk stops
    # half a tie tolerance's worth of advantage short of it
    kinds = set()
    for network, cells in _oracle_cases():
        for params, res in zip(cells, solve_cells(network, cells)):
            kind, _, u_oracle = bisection_regulation(network, params)
            assert res.kind is kind
            slack = (1.0 - params.mu) * res.sum_p_a * 1e-9
            assert u_oracle - 1e-10 <= res.u_star_b <= u_oracle + slack + 1e-10
            kinds.add(kind)
    assert kinds == set(RegulationKind)


def test_walk_retries_a_missed_join_at_its_exact_root(monkeypatch):
    # at a margin of twice the tie tolerance the engine leaves every
    # predicted joiner out, so every breakpoint comes from the retry
    steps = []

    def counting(step):
        def counted(index, *state):
            steps.append(index.size)  # one walk step per settled column
            return step(index, *state)
        return counted

    _patch_walk_step(monkeypatch, counting)
    for network, cells in _oracle_cases()[:-1]:  # the star chain never walks
        exact = solve_cells(network, cells)
        n_exact = sum(steps)
        with monkeypatch.context() as patched:
            patched.setattr(platmod.regulation, "_JOIN_MARGIN", 2 * TIE_TOL)
            retried = solve_cells(network, cells)
        assert sum(steps) - n_exact > n_exact  # the retries cost walk steps
        steps.clear()
        for a, b in zip(exact, retried):
            assert a.kind is b.kind
            assert b.u_star_b == pytest.approx(a.u_star_b, abs=1e-9)


@pytest.mark.parametrize("dense_max_users", [10**9, 0], ids=["dense", "CSR"])
@pytest.mark.parametrize("make, cascade", [(lambda: gen_star_chain(5, 2), True),
                                           (per_community_c_sbm, False)],
                         ids=["cascade-tree", "cyclic-sbm"])
def test_one_relay_bfs_per_network(monkeypatch, make, cascade, dense_max_users):
    """The solves on one network share one all-relay BFS (Network.relay_distances)."""
    base = make()
    net = build_network(monkeypatch, dense_max_users, dict(
        n_users=base.n_users, edges=base.edges, sender_links=base.sender_links,
        profiles=base.profiles,
    ))
    original = platmod.graph.through_platform_distances
    relay_runs = []

    def counting(network, on_side):
        if on_side.all():
            relay_runs.append(network)
        return original(network, on_side)

    monkeypatch.setattr(platmod.graph, "through_platform_distances", counting)
    params = default_params(p=0.7, b_a=0.002)
    assert net.is_cascade_tree is cascade
    strictest_effective_regulation(net, params)
    optimal_B(net, params)
    sender_equilibrium(net, default_params(p=0.7, b_a=0.002, rho_a=0.0))
    utility_on_A(net, params, 0.1)
    assert relay_runs == [net]


def test_trust_thresholds_once_per_network_and_call(monkeypatch):
    # a walked network and a cascade tree of one size
    nets = [per_community_c_sbm(), gen_linear(24)]
    original = platmod.regulation._beta_primes
    seen = []
    monkeypatch.setattr(platmod.regulation, "_beta_primes",
                        lambda network, mu: seen.append(network) or original(network, mu))
    solve_pool(nets, _random_cells(np.random.default_rng(5), 0.2, 3))
    assert seen == nets
    seen.clear()
    sender_equilibria(nets, default_params(rho_a=0.1))
    assert seen == nets
    seen.clear()
    optimal_B(nets[0], default_params())
    assert seen == nets[:1]


@pytest.mark.parametrize("dense_max_users", [10**9, 0], ids=["dense", "CSR"])
def test_warm_walk_steps_make_no_full_distance_query(monkeypatch, dense_max_users):
    """The engine hands each settled column's distances and counts to the
    walk's step and restarts the column from them, relaxing them round by
    round; the all-A start builds its distances directly, so a walk makes
    no full distance query."""
    base = per_community_c_sbm()
    net = build_network(monkeypatch, dense_max_users, dict(
        n_users=base.n_users, edges=base.edges, sender_links=base.sender_links,
        profiles=base.profiles,
    ))
    net.relay_distances  # the one all-relay BFS, made before counting
    original = platmod.graph.through_platform_distances
    queries = []

    def counting(network, on_side):
        queries.append(on_side.copy())
        return original(network, on_side)

    engine = platmod.regulation.batch_final_b_sets
    calls, restarts = [], []

    def counting_engine(*args, step=None, **kwargs):
        def counted(*state):
            nxt = step(*state)
            restarts.append(int(np.count_nonzero(nxt >= 0.0)))
            return nxt
        calls.append(1)
        return engine(*args, step=counted, **kwargs)

    for module in (platmod.graph, platmod.adoption):
        monkeypatch.setattr(module, "through_platform_distances", counting)
    monkeypatch.setattr(platmod.regulation, "batch_final_b_sets", counting_engine)
    cells = _random_cells(np.random.default_rng(12), 0.2, 6)
    solve_cells(net, cells)
    assert len(calls) == 1 and sum(restarts) > 3
    assert queries == []


@st.composite
def same_size_networks(draw, most=4, dense=None, isolated=0):
    """Two to most networks of one size: SBM edges over the same community
    sizes plus isolated to two isolated users, one to four sender links (so
    pooled networks have unequal link counts, which _seeds pads), per-user c
    and a dense or CSR representation each (every one dense or CSR when
    dense is given)."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    n = sum(sizes) + draw(st.integers(isolated, 2))
    networks = []
    for _ in range(draw(st.integers(2, most))):
        m = len(sizes)
        diag = draw(st.lists(st.floats(0.3, 1.0), min_size=m, max_size=m))
        bridge = draw(st.floats(0.0, 0.4))
        theta = tuple(tuple(diag[i] if i == j else bridge for j in range(m)) for i in range(m))
        base = gen_sbm(SbmSpec(tuple(sizes), theta, seed=draw(st.integers(0, 2**16))))
        links = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
        c = draw(st.lists(st.floats(0.22, 0.49), min_size=n, max_size=n))
        with pytest.MonkeyPatch.context() as patched:
            dense_here = draw(st.booleans()) if dense is None else dense
            patched.setattr(platmod.graph, "DENSE_MAX_USERS", n if dense_here else 0)
            networks.append(Network(n_users=n, edges=base.edges, sender_links=tuple(links),
                                    profiles=tuple(UserProfile(c=x) for x in c)))
    return networks


@st.composite
def multi_network_batches(draw):
    """(networks, the index of each column's network, cells): one to three
    cells at mu = 0.2, b_B > 0 in some, shared by every network, as the walk
    takes them; column k * len(cells) + i is cells[i] on the k-th network."""
    networks = draw(same_size_networks())
    cells = [ModelParams(mu=0.2, p=draw(st.floats(0.2, 0.95)), b_a=draw(st.floats(0.0, 0.05)),
                         b_b=draw(st.sampled_from([0.0, 0.004, 0.015])))
             for _ in range(draw(st.integers(1, 3)))]
    return networks, [k for k in range(len(networks)) for _ in cells], cells


def _split(networks, owner):
    """(network, the slice of its columns) for each network, in order; owner
    is nondecreasing."""
    return [(net, slice(owner.index(k), len(owner) - owner[::-1].index(k)))
            for k, net in enumerate(networks)]


@settings(max_examples=40)
@given(batch=multi_network_batches(), betas=st.lists(st.floats(0.0, 1.0), min_size=12,
                                                     max_size=12))
def test_engine_on_several_networks_equals_one_call_per_network(batch, betas):
    networks, owner, cells = batch
    columns = Columns(tuple(networks), np.array(owner))
    betas = np.array(betas[:len(owner)])
    p, b_a, b_b = (np.array([getattr(x, name) for x in cells * len(networks)])
                   for name in ("p", "b_a", "b_b"))
    together = batch_final_b_sets(columns, 0.2, betas, p, b_a, b_b, collect_trace=True)
    for net, cols in _split(networks, owner):
        alone = batch_final_b_sets(net, 0.2, betas[cols], p[cols], b_a[cols], b_b[cols],
                                   collect_trace=True)
        for mine, theirs in zip(together[:3], alone[:3]):
            assert mine[..., cols].tobytes() == theirs.tobytes()
        assert together[3][cols] == alone[3]
    # the same columns, each network's admitted as others finish, end in the
    # same states, and the result holds every column in order
    runs = [(Columns.repeat((net,), cols.stop - cols.start), betas[cols], p[cols], b_a[cols],
             b_b[cols]) for net, cols in _split(networks, owner)]
    admitted = batch_final_b_sets(runs[0][0], 0.2, *runs[0][1:], collect_trace=True,
                                  admit=lambda n_live: runs.pop(1) if len(runs) > 1 else None)
    for mine, theirs in zip(admitted[:3], together[:3]):
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
    assert admitted[3] == together[3]
    # the walk's pieces, warm engine starts included, are those of one walk
    # per network
    walked = walk_pieces(networks, cells)
    for net, cols in _split(networks, owner):
        for mine, theirs in zip(walked[cols], walk_pieces([net], cells), strict=True):
            assert _piece_bits(mine) == _piece_bits(theirs)


@st.composite
def relax_cases(draw):
    """(networks, owner, on_side, joined): two to four dense networks of
    one size with one to three columns each, a relay set per column and
    users joining it."""
    networks = draw(same_size_networks(dense=True))
    owner = [k for k in range(len(networks)) for _ in range(draw(st.integers(1, 3)))]
    n = networks[0].n_users
    sets = [draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=len(owner),
                          max_size=len(owner))) for _ in range(2)]
    return networks, owner, *(np.array(x).T for x in sets)


@settings(max_examples=40)
@given(case=relax_cases())
def test_relax_equals_a_fresh_distance_query(case):
    # Columns.relax lowers the distances of a relay set through the users
    # that join it, counting each column through the batched matmul; the
    # result is each column's distances computed from scratch on its own
    # network (a queue walk), bit for bit, for the pool and for a take of it
    networks, owner, on_side, joined = case
    columns = Columns(tuple(networks), np.array(owner))
    assert columns.batched
    grown = on_side | joined
    for keep in (np.arange(len(owner)), np.arange(0, len(owner), 2)):
        cols = columns.take(keep)
        dist = through_platform_distances(cols, on_side[:, keep])
        cols.relax(dist, grown[:, keep], (joined & ~on_side)[:, keep])
        for k, j in enumerate(keep.tolist()):
            net = networks[owner[j]]
            fresh = through_platform_distances(net, grown[:, j:j + 1])
            assert dist[:, k].tobytes() == fresh[:, 0].tobytes()


@settings(max_examples=30)
@given(batch=multi_network_batches(), width=st.integers(1, 3))
def test_walks_of_a_few_live_columns_equal_one_unbounded_walk(batch, width):
    # a walk holding one to three live columns admits the rest as others
    # finish; its pieces and results are those of a walk holding them all
    networks, _, cells = batch
    wide = walk_pieces(networks, cells)
    wide_results = solve_pool(networks, cells)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(platmod.regulation, "POOL_COLUMNS", width)
        narrow = walk_pieces(networks, cells)
        narrow_results = solve_pool(networks, cells)
    for mine, theirs in zip(narrow, wide):
        assert _piece_bits(mine) == _piece_bits(theirs)
    assert [_bits(res) for res in narrow_results] == [_bits(res) for res in wide_results]


@st.composite
def stacked_pools(draw):
    """(networks, cells, marked): two to six dense networks of one size with
    one or two isolated users each, one cell per network at mu = 0.2 (b_B > 0
    in some), and a 0/1 column per network. The first network's second
    sender link sits on an isolated user."""
    networks = draw(same_size_networks(most=6, dense=True, isolated=1))
    first = networks[0]
    networks[0] = Network(n_users=first.n_users, edges=first.edges,
                          sender_links=(first.sender_links[0], first.n_users - 1),
                          profiles=first.profiles)
    cells = [ModelParams(mu=0.2, p=draw(st.floats(0.2, 0.95)), b_a=draw(st.floats(0.0, 0.05)),
                         b_b=draw(st.sampled_from([0.0, 0.004, 0.015]))) for _ in networks]
    n = first.n_users
    marked = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                           min_size=len(networks), max_size=len(networks)))
    return networks, cells, np.array(marked).T


@settings(max_examples=40)
@given(pool=stacked_pools(), betas=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
def test_stacked_pool_equals_one_call_per_network(pool, betas):
    # dense networks with one column each count neighbours as one batched
    # float32 matmul and relax through it; the engine, the walk, the counts
    # and the pooled all-relay distances equal those of each network alone,
    # bit for bit (the counts equal a float64 count), and the pool's counts
    # and query never build a network's own CSR arrays or adjacency lists
    networks, cells, marked = pool
    k = len(networks)
    columns = Columns.repeat(networks, 1)
    assert columns.batched and all(net.degrees[-1] == 0 for net in networks)
    betas = np.array(betas[:k])
    p, b_a, b_b = (np.array([getattr(x, name) for x in cells]) for name in ("p", "b_a", "b_b"))
    counts = columns.neighbour_counts(marked)
    # a subset of the columns counts through the pool's stack; merged down
    # to its own networks it takes their layers along (a pool of one
    # network counts through its one layer)
    half = np.arange(0, k, 2)
    half_counts = columns.take(half).neighbour_counts(marked[:, half])
    merged = columns.take(half).merge()
    assert merged.networks == tuple(networks[::2])
    assert merged.batched == (half.size > 1)
    again = columns.neighbour_counts(marked)
    pooled = pooled_relay_distances(Columns.repeat(networks, 1))
    for net in networks:
        assert not {"csr", "adjacency_lists"} & set(vars(net))
    merged_counts = merged.neighbour_counts(marked[:, half])
    together = batch_final_b_sets(columns, 0.2, betas, p, b_a, b_b, collect_trace=True)
    # one walk per cell, each with one column per network
    walked = [walk_pieces(networks, [cell])[j] for j, cell in enumerate(cells)]
    for j, net in enumerate(networks):
        alone = batch_final_b_sets(net, 0.2, betas[j:j + 1], p[j], b_a[j], b_b[j],
                                   collect_trace=True)
        for mine, theirs in zip(together[:3], alone[:3]):
            assert mine[..., j].tobytes() == theirs[..., 0].tobytes()
        assert together[3][j] == alone[3][0]
        [theirs] = walk_pieces([net], cells[j:j + 1])
        assert _piece_bits(walked[j]) == _piece_bits(theirs)
        own = float64_neighbour_counts(net, marked[:, j])
        assert counts[:, j].dtype == own.dtype and counts[:, j].tobytes() == own.tobytes()
        assert again[:, j].tobytes() == own.tobytes()
        if j % 2 == 0:
            assert half_counts[:, j // 2].tobytes() == own.tobytes()
            assert merged_counts[:, j // 2].tobytes() == own.tobytes()
        relay = through_platform_distances(net, np.ones((net.n_users, 1), dtype=bool))[:, 0]
        assert pooled[j].tobytes() == relay.tobytes() and not pooled[j].flags.writeable
        assert net.relay_distances is pooled[j]


def _bits(results):
    """Every field of each RegulationResult, floats as their exact hex."""
    return [(res.kind, None if res.rho_se is None else res.rho_se.hex(), res.u_star_b.hex(),
             res.beta_star_b.hex(), res.sum_p_a.hex()) for res in results]


@settings(max_examples=30)
@given(networks=same_size_networks(most=6),
       p=st.lists(st.floats(0.2, 0.95), min_size=1, max_size=3),
       b_a=st.lists(st.floats(0.0, 0.05), min_size=1, max_size=3),
       b_b=st.sampled_from([0.0, 0.004, 0.015]), refuse=st.booleans())
def test_pooled_solves_equal_one_solve_per_network(networks, p, b_a, b_b, refuse):
    if refuse:  # the middle network fails mu < c
        mid = networks[len(networks) // 2]
        networks[len(networks) // 2] = Network(
            n_users=mid.n_users, edges=mid.edges, sender_links=mid.sender_links,
            profiles=(UserProfile(c=0.15),) + mid.profiles[1:])
    cells = [ModelParams(mu=0.2, p=x, b_a=y, b_b=b_b) for x in p for y in b_a]
    alone = []
    for net in networks:
        try:
            alone.append(solve_cells(net, cells))
        except InvalidParamsError as exc:
            alone.append(f"InvalidParamsError: {exc}")
    solved = [res for res in alone if not isinstance(res, str)]
    assert len(solved) == len(networks) - refuse
    valid = [net for net, res in zip(networks, alone) if not isinstance(res, str)]
    assert [_bits(res) for res in solve_pool(valid, cells)] == [_bits(res) for res in solved]
    # a sweep task over the whole pool: the refused network's cells record
    # its error, and every other network's cells are solved as alone
    recipe = SimpleNamespace(build=networks.__getitem__)
    task = (recipe, tuple(range(len(networks))), 0.2, b_b, 0, tuple(p), tuple(b_a))
    for (_, _, grid), res in zip(_pool_results(task), alone):
        expect = ([("error", res)] * len(cells) if isinstance(res, str)
                  else [(r.kind.value, r.rho_se) for r in res])
        assert [x for row in grid for x in row] == expect


def _cycle(c, links):
    """A cycle of len(c) users, user k with c[k], linked to the sender at
    links."""
    n = len(c)
    return Network(n_users=n, edges=tuple(tuple(sorted((k, (k + 1) % n))) for k in range(n)),
                   sender_links=tuple(links), profiles=tuple(UserProfile(c=x) for x in c))


@st.composite
def cycles(draw):
    """A cycle of 3 to 8 users with one or two sender links and per-user c,
    so that several trust tiers meet on one network."""
    n = draw(st.integers(3, 8))
    return _cycle(draw(st.lists(st.floats(0.22, 0.49), min_size=n, max_size=n)),
                  draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)))


@st.composite
def oracle_cases(draw):
    """(network, cells): a same_size_networks sample (isolated users, one to
    four sender links, per-user c), a cycle (cycles), or a line, star chain
    or regular tree, which take the closed form; one to three cells at
    mu = 0.2, b_B 0 or 0.01."""
    network = draw(st.one_of(
        same_size_networks().flatmap(st.sampled_from),
        cycles(),
        st.builds(gen_linear, st.integers(2, 12)),
        st.builds(gen_star_chain, st.integers(1, 4), st.integers(1, 3)),
        st.builds(gen_regular_tree, st.integers(1, 3), st.integers(1, 3)),
    ))
    cells = draw(st.lists(st.builds(ModelParams, mu=st.just(0.2), p=st.floats(0.2, 0.95),
                                    b_a=st.floats(0.0, 0.05), b_b=st.sampled_from([0.0, 0.01])),
                          min_size=1, max_size=3))
    return network, cells


@settings(max_examples=60)
@given(case=oracle_cases())
# two trust thresholds 2.8e-13 apart, less than TIE_TOL: both users trust at
# both, so the two candidates score the same set, in one piece (b_A = 0) or
# in a piece below the top (b_A = 0.01), and the lower wins the tie
@example(case=(_cycle((0.25, 0.3, 0.3 + 1e-13, 0.3), (0,)),
               [ModelParams(mu=0.2, p=0.9, b_a=b_a, b_b=0.0) for b_a in (0.0, 0.01)]))
def test_solves_equal_the_bisection_oracle(case):
    # the walk or the closed form against interval bisection of the engine's
    # sets, cell by cell: the same kind, U*_B and cap
    network, cells = case
    for params, res in zip(cells, solve_cells(network, cells), strict=True):
        kind, rho_se, u_star_b = bisection_regulation(network, params)
        assert res.kind is kind
        assert res.u_star_b == pytest.approx(u_star_b, abs=1e-7)
        assert (res.rho_se is None) == (rho_se is None)
        if rho_se is not None:
            assert res.rho_se == pytest.approx(rho_se, abs=1e-6)


def test_columns_need_same_size_networks():
    a, b = gen_linear(4), gen_linear(4)
    with pytest.raises(InvalidParamsError, match="same size"):
        Columns.repeat([a, gen_linear(5)], 1)
    with pytest.raises(InvalidParamsError, match="same size"):
        solve_pool([a, gen_linear(5)], [default_params()])
    with pytest.raises(InvalidParamsError, match="same size"):
        sender_equilibria([a, gen_linear(5)], default_params())
    assert Columns.repeat([a, b], 2).owner.tolist() == [0, 0, 1, 1]


def test_sender_equilibria_keep_the_invariant_checks(monkeypatch):
    # a set restarted outside the set at its new level, a missed joiner and
    # the round cap raise on the several-network walk as on a one-network one
    nets = [gen_sbm(SbmSpec(sizes=(6, 6), theta=((0.9, 0.08), (0.08, 0.9)), seed=s))
            for s in (4, 5)]
    params = default_params(rho_a=0.0)
    with monkeypatch.context() as patched:
        _patch_walk_step(patched, _restart_above_the_top)
        with pytest.raises(InvariantViolationError, match="one-way migration violated"):
            sender_equilibria(nets, params)
    with monkeypatch.context() as patched:
        _patch_walk_step(patched, _stalled_after_restart)
        with pytest.raises(InvariantViolationError, match="left out a user"):
            sender_equilibria(nets, params)
    with monkeypatch.context() as patched:
        patched.setattr(platmod.adoption, "ITERATION_CAP_SLACK", -nets[0].n_users)
        with pytest.raises(InvariantViolationError, match="round cap"):
            sender_equilibria(nets, params)


def test_restarts_that_move_nobody_are_bounded():
    # a step that always names the column's own level restarts it where it
    # stays put: the third start or restart in a row that moves nobody
    # raises instead of looping, on one network and on a batched pool alike.
    # The start counts, so a column whose first run moves nobody (as a
    # walk's seeded column whose predicted joiner stays out) goes to step
    # once less
    nets = [gen_sbm(SbmSpec(sizes=(6, 6), theta=((0.9, 0.08), (0.08, 0.9)), seed=s))
            for s in (4, 5)]
    restarts = []

    def own_level(index, cols, beta, *state):
        restarts.append(index.size)
        return beta

    for network in (nets[0], Columns.repeat(nets, 1)):
        for b_a, handed in ((0.01, [2, 2, 2]), (0.5, [2, 2])):
            restarts.clear()
            with pytest.raises(InvariantViolationError, match="3 times in a row without moving"):
                batch_final_b_sets(network, 0.2, np.array([0.05, 0.1]), 0.9, b_a, 0.0,
                                   step=own_level)
            assert restarts == handed
    # so does the start of an admitted column
    seen, admitted = [], []

    def first_two_finish(index, cols, beta, *state):
        seen.extend(index.tolist())
        return np.where(index < 2, -1.0, beta)

    def admit_once(n_live):
        if admitted:
            return None
        admitted.append(n_live)
        return Columns.repeat(nets[:1], 2), [0.05, 0.1], [0.9] * 2, [0.5] * 2, [0.0] * 2

    with pytest.raises(InvariantViolationError, match="3 times in a row without moving"):
        batch_final_b_sets(nets[0], 0.2, np.array([0.05, 0.1]), 0.9, 0.01, 0.0,
                           step=first_two_finish, admit=admit_once)
    # the admitted columns, numbers 2 and 3, went to step twice each
    assert admitted == [0] and sorted(seen) == [0, 1, 2, 2, 3, 3]


@settings(max_examples=30)
@given(batch=multi_network_batches())
def test_flowing_walk_pieces_equal_cold_runs_at_their_tops(batch):
    # columns settle and restart at their own rounds within one engine call;
    # every piece the walk keeps, seeded ones included, and every state it
    # is handed, is that of a cold run from all-A at the piece's top: set,
    # distances, B-neighbour counts and receive probabilities, bit for bit;
    # and each piece scores its candidates (its top, the trust thresholds
    # down to the next top and 0 on the lowest; none where nobody joins)
    # with sender_payoff on that run's set and receive probabilities
    networks, owner, cells = batch
    beta_max = np.array([_beta_primes(net, 0.2).max() for net in networks])
    handed = []  # (level, set, distances, counts, receive map) as handed

    def recording(step):
        def recorded(index, cols, beta, *state):
            handed.extend((float(b), *(x[:, k] for x in state)) for k, b in enumerate(beta))
            return step(index, cols, beta, *state)
        return recorded

    with pytest.MonkeyPatch.context() as patched:
        _patch_walk_step(patched, recording)
        walked = walk_pieces(networks, cells)
    for k, (net, cols) in enumerate(_split(networks, owner)):
        tops = [(j, top) for j in range(cols.start, cols.stop) for top, _, _ in walked[j]]
        p, b_a, b_b = (np.array([getattr(cells[j % len(cells)], name) for j, _ in tops])
                       for name in ("p", "b_a", "b_b"))
        on_b, dist, _, _ = batch_final_b_sets(net, 0.2, np.array([t for _, t in tops]), p,
                                              b_a, b_b)
        bp = _beta_primes(net, 0.2)
        pieces = [(j, below, piece) for j in range(cols.start, cols.stop)
                  for piece, below in zip(walked[j], [t for t, _, _ in walked[j][1:]] + [-1.0])]
        for c, (j, below, (top, kept_set, scored)) in enumerate(pieces):
            cold_p_recv = receive_map(p[c], dist[:, c])
            assert kept_set.tobytes() == on_b[:, c].tobytes()
            candidates = sorted({top, *(x for x in bp.tolist() if below < x <= top),
                                 *([0.0] if below < 0.0 else [])})
            assert [b for b, _ in scored] == (candidates if kept_set.any() else [])
            for b, u in scored:
                cold_u = sender_payoff(0.2, b, cold_p_recv, on_b[:, c] & trusts(b, bp))
                assert u.hex() == cold_u.hex()
            # the state the piece was made from, unless the walk seeded it
            made = next((h for h, s in enumerate(handed) if s[0] == top and
                         s[1].tobytes() == kept_set.tobytes() and
                         s[4].tobytes() == cold_p_recv.tobytes()), None)
            if made is None:
                assert walked[j][0][0] == top == beta_max[k] and not kept_set.any()
                continue
            _, set_, d, n_b, p_recv = handed.pop(made)
            assert set_.tobytes() == on_b[:, c].tobytes()
            assert p_recv.tobytes() == cold_p_recv.tobytes()
            assert d.tobytes() == dist[:, c].tobytes()
            assert n_b.tobytes() == float64_neighbour_counts(net, on_b[:, c]).tobytes()
    assert not handed


def test_round_cap_counts_the_rounds_since_a_restart(monkeypatch):
    # a line linked to the sender at both ends whose users trust less along
    # it: its columns restart at many thresholds and move in different
    # rounds, so the engine runs more than n + 1 rounds in which some column
    # moves, though each column moves at most n rounds since any restart,
    # and the solves go through
    n = 10
    line = gen_linear(n)
    net = Network(n_users=n, edges=line.edges, sender_links=(0, n - 1),
                  profiles=tuple(UserProfile(c=0.22 + 0.026 * k) for k in range(n)))
    cells = [default_params(p=p, b_a=b_a) for p in (0.3, 0.5, 0.7, 0.9)
             for b_a in (0.0, 0.001, 0.004)]
    moving_rounds = []
    relax = platmod.adoption.Columns.relax
    monkeypatch.setattr(platmod.adoption.Columns, "relax",
                        lambda cols, *args: moving_rounds.append(1) or relax(cols, *args))
    results = solve_cells(net, cells)
    assert len(moving_rounds) > n + 1 + platmod.adoption.ITERATION_CAP_SLACK
    for params, res in zip(cells, results):
        kind, _, u_oracle = bisection_regulation(net, params)
        assert res.kind is kind
        assert res.u_star_b == pytest.approx(u_oracle, abs=1e-8)


def test_walks_hold_at_most_pool_columns(monkeypatch):
    # a walk is one engine call that admits queued columns as others
    # finish: it never holds more than POOL_COLUMNS live columns, and gives
    # the results of a walk that holds them all
    nets = [gen_sbm(SbmSpec(sizes=(6, 6), theta=((0.9, 0.08), (0.08, 0.9)), seed=s))
            for s in (4, 5, 6)]
    cells = _random_cells(np.random.default_rng(8), 0.2, 9)
    whole = solve_pool(nets, cells)
    engine = platmod.regulation.batch_final_b_sets
    calls, admitted, widths = [], [], []

    def counting_engine(*args, admit, **kwargs):
        def counted(n_live):
            more = admit(n_live)
            admitted.append(0 if more is None else more[0].owner.size)
            return more
        calls.append(args[0].owner.size)
        return engine(*args, admit=counted, **kwargs)

    counts = platmod.graph.Columns.neighbour_counts
    monkeypatch.setattr(platmod.graph.Columns, "neighbour_counts",
                        lambda cols, marked: widths.append(marked.shape[1])
                        or counts(cols, marked))
    monkeypatch.setattr(platmod.regulation, "batch_final_b_sets", counting_engine)
    monkeypatch.setattr(platmod.regulation, "POOL_COLUMNS", 7)
    narrow = solve_pool(nets, cells)
    assert len(calls) == 1 and calls[0] <= 7 and sum(admitted) > 7
    assert max(widths) <= 7
    assert [_bits(res) for res in narrow] == [_bits(res) for res in whole]


def test_walks_build_each_network_rows_once(monkeypatch):
    # the relay query, the seeds and the engine of a walk read one pool of
    # each network's rows: its float32 adjacency layer is built once, and its
    # trust thresholds are worked out once (for its _Side), over one
    # validate_assumption1 group and over a solve_each walk that admits
    # several times, a pool whose columns are only partly admitted included
    built = {"layer": [], "thresholds": []}
    layer, thresholds = platmod.graph._adjacency_f32, platmod.adoption._beta_primes

    def counted_layer(net):
        built["layer"].append(net)
        return layer(net)

    def counted_thresholds(net, mu):
        built["thresholds"].append(net)
        return thresholds(net, mu)

    def once_each(networks):
        for made in built.values():
            assert sorted(map(id, made)) == sorted(map(id, networks))
            made.clear()

    monkeypatch.setattr(platmod.graph, "_adjacency_f32", counted_layer)
    for module in (platmod.adoption, platmod.regulation):
        monkeypatch.setattr(module, "_beta_primes", counted_thresholds)
    generated = []
    monkeypatch.setattr(platmod.experiments, "gen_sbm",
                        lambda spec: generated.append(gen_sbm(spec)) or generated[-1])
    report = validate_assumption1([0.75, 0.25], seeds=range(6), sizes=(10, 10, 10))
    assert len(report.rows) + len(report.skipped) == len(generated) == 12
    once_each(generated)

    engine = platmod.regulation.batch_final_b_sets
    admitted = []

    def counting_engine(*args, admit, **kwargs):
        def counted(n_live):
            more = admit(n_live)
            admitted.append(more is not None)
            return more
        return engine(*args, admit=counted, **kwargs)

    monkeypatch.setattr(platmod.regulation, "batch_final_b_sets", counting_engine)
    monkeypatch.setattr(platmod.regulation, "POOL_COLUMNS", 7)
    # with 6 cells the walk reads two networks at a time, with 9 one (whose
    # pool needs no layer for its relay query)
    for n_cells in (6, 9):
        nets = [gen_sbm(SbmSpec(sizes=(6, 6), theta=((0.9, 0.08), (0.08, 0.9)), seed=s))
                for s in range(6)]
        admitted.clear()
        solve_each(nets, _random_cells(np.random.default_rng(3), 0.2, n_cells),
                   lambda k, i, result: None)
        assert sum(admitted) >= 2
        once_each(nets)
