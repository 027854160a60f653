"""Cross-check the vectorized engine against a deliberately naive
re-implementation of the same dynamics: dict-and-loop BFS, per-user utility
comparison, synchronous rounds. No code is shared with the production path,
so agreement here validates the batched linear algebra and the cascade fast
path end to end, including at the contested collapse boundaries.
"""

from math import isclose

import numpy as np
import pytest

import platmod.graph
from platmod import (
    ModelParams,
    Network,
    Platform,
    gen_linear,
    gen_regular_tree,
    gen_star_chain,
    run_adoption,
    strictest_effective_regulation,
    trust_threshold,
    RegulationKind,
)
from platmod.adoption import (
    Assignment,
    batch_final_b_sets,
    best_response,
    cascade_final_b_sets,
    nash_check,
)
from platmod.graph import UNREACHED, through_platform_distances

from conftest import build_network, random_sbm_instance, widened_sbm_instance

TOL = 1e-12


def _adjacency(net):
    adj = {u: set() for u in range(net.n_users)}
    for i, j in net.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def ref_distances(net, on_side):
    """Sender-to-user hop counts relayed only through on_side users; the
    sender's own links cost nothing."""
    adj = _adjacency(net)
    dist = {}
    for u in net.sender_links:
        dist[u] = 0
    frontier = [u for u in net.sender_links if on_side[u]]
    d = 0
    while frontier:
        d += 1
        new = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    new.append(v)
        frontier = [v for v in new if on_side[v]]
    return dist


def ref_round(net, params, beta, on_b):
    """One synchronous update with the sender on B; returns the switch set."""
    adj = _adjacency(net)
    dist = ref_distances(net, on_b)
    switches = []
    for u in range(net.n_users):
        if on_b[u]:
            continue
        c = net.profiles[u].c
        bp = params.mu * (1 - c) / ((1 - params.mu) * c)
        n_b = sum(1 for v in adj[u] if on_b[v])
        n_a = len(adj[u]) - n_b
        p_recv = params.p ** dist[u] if u in dist else 0.0
        gain = 0.0
        if beta <= bp + TOL:
            gain = p_recv * (params.mu * (1 - c) - (1 - params.mu) * beta * c)
        diff = n_b * params.b_b - n_a * params.b_a + gain
        attached = u in net.sender_links or n_b >= 1
        if diff > TOL or (abs(diff) <= TOL and attached):
            switches.append(u)
    return switches


def ref_adoption(net, params, beta):
    on_b = [False] * net.n_users
    trace = []
    for _ in range(net.n_users + 1):
        switches = ref_round(net, params, beta, on_b)
        if not switches:
            break
        trace.append(frozenset(switches))
        for u in switches:
            on_b[u] = True
    return on_b, trace


def ref_sender_utility(net, params, beta, on_b):
    dist = ref_distances(net, on_b)
    total = 0.0
    for u in range(net.n_users):
        if not on_b[u] or u not in dist:
            continue
        c = net.profiles[u].c
        bp = params.mu * (1 - c) / ((1 - params.mu) * c)
        if beta <= bp + TOL:
            total += params.p ** dist[u]
    return (params.mu + (1 - params.mu) * beta) * total


def ref_unilateral(net, params, beta, on_b, sender_platform):
    """Per user: V_sender - V_other, computed alone, and whether the user is
    attached to the sender's platform (direct link or a friend on it). A user
    off the sender's platform gets the receive probability of moving alone."""
    adj = _adjacency(net)
    if sender_platform is Platform.B:
        on_side, b_side, b_other = list(on_b), params.b_b, params.b_a
    else:
        on_side, b_side, b_other = [not x for x in on_b], params.b_a, params.b_b
    dist = ref_distances(net, on_side)
    out = []
    for u in range(net.n_users):
        c = net.profiles[u].c
        bp = params.mu * (1 - c) / ((1 - params.mu) * c)
        n_side = sum(1 for v in adj[u] if on_side[v])
        n_other = len(adj[u]) - n_side
        p_recv = params.p ** dist[u] if u in dist else 0.0
        gain = 0.0
        if beta <= bp + TOL:
            gain = p_recv * (params.mu * (1 - c) - (1 - params.mu) * beta * c)
        diff = n_side * b_side - n_other * b_other + gain
        out.append((diff, u in net.sender_links or n_side >= 1))
    return on_side, out


def test_reference_agrees_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(40):
        network, params, beta = random_sbm_instance(rng)
        if network.n_users > 25:
            continue
        ref_on_b, ref_trace = ref_adoption(network, params, beta)
        out = run_adoption(network, params, beta, Platform.B)
        assert out.assignment.on_b.tolist() == ref_on_b
        assert out.trace == ref_trace


def test_reference_agrees_on_heterogeneous_line():
    net = gen_linear(12, c=[0.21] * 3 + [0.4] * 9)
    for beta in (0.0, 0.2, 0.38, 0.5, 0.95):
        for b_a in (0.0, 0.004, 0.03):
            params = ModelParams(mu=0.2, p=0.7, b_a=b_a, b_b=0.001)
            ref_on_b, _ = ref_adoption(net, params, beta)
            out = run_adoption(net, params, beta, Platform.B)
            assert out.assignment.on_b.tolist() == ref_on_b


def test_reference_confirms_star_chain_collapse_boundary():
    # the contested region: at p = 0.9 the farthest hub follows whenever its
    # hub neighbor moves, so the zero-cap boundary is 0.14 * 0.9**3 / 2
    net = gen_star_chain(5, 2)
    crossing = 0.14 * 0.9**3 / 2
    for b_a, expect_any in ((0.050, False), (0.052, True)):
        params = ModelParams(mu=0.2, p=0.9, b_a=b_a, b_b=0.0)
        res = strictest_effective_regulation(net, params)
        assert (res.kind is RegulationKind.ANY_REGULATION) == expect_any
        # reference check: maximize the sender utility over a dense beta grid
        u_a0 = ref_sender_utility(net, params, 0.0, [True] * 10)
        best = 0.0
        for beta in np.linspace(0.0, 0.59, 1181):
            on_b, _ = ref_adoption(net, params, float(beta))
            best = max(best, ref_sender_utility(net, params, float(beta), on_b))
        assert (u_a0 >= best - 1e-9) == expect_any
    assert 0.050 < crossing < 0.052


def test_reference_fixed_points_are_nash():
    rng = np.random.default_rng(123)
    for _ in range(20):
        network, params, beta = random_sbm_instance(rng)
        if network.n_users > 20:
            continue
        ref_on_b, _ = ref_adoption(network, params, beta)
        state = Assignment(np.array(ref_on_b), Platform.B)
        assert nash_check(network, params, beta, state) == []


def _ref_distance_column(net, on_side):
    dist = ref_distances(net, on_side)
    return [dist.get(u, UNREACHED) for u in range(net.n_users)]


@pytest.mark.parametrize("n_cols", [1, 63, 64, 65, 130])
def test_sparse_engine_agrees_with_dense_and_reference(monkeypatch, n_cols):
    # isolated users, two sender links and batches around the 64-column word
    rng = np.random.default_rng(500 + n_cols)
    checked = 0
    while checked < 6:
        fields, params, beta = widened_sbm_instance(rng)
        if fields["n_users"] > 25:
            continue
        checked += 1
        dense = build_network(monkeypatch, 10**9, fields)
        sparse = build_network(monkeypatch, 0, fields)
        assert dense.dense and not sparse.dense

        on_side = rng.random((sparse.n_users, n_cols)) < rng.uniform(0.2, 1.0)
        dist = through_platform_distances(sparse, on_side)
        assert np.array_equal(dist, through_platform_distances(dense, on_side))
        for j in range(n_cols):
            assert dist[:, j].tolist() == _ref_distance_column(sparse, on_side[:, j].tolist())

        betas = rng.uniform(0.0, 1.0, n_cols)
        got = batch_final_b_sets(
            sparse, params.mu, betas, params.p, params.b_a, params.b_b, collect_trace=True
        )
        want = batch_final_b_sets(
            dense, params.mu, betas, params.p, params.b_a, params.b_b, collect_trace=True
        )
        for g, w in zip(got[:3], want[:3]):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert got[3] == want[3]
        on_b, _, _, traces = got
        for j in range(n_cols):
            ref_on_b, ref_trace = ref_adoption(sparse, params, float(betas[j]))
            assert on_b[:, j].tolist() == ref_on_b
            assert traces[j] == ref_trace

        ref_on_b, ref_trace = ref_adoption(sparse, params, beta)
        assert run_adoption(sparse, params, beta, Platform.B).trace == ref_trace
        assert run_adoption(dense, params, beta, Platform.B).trace == ref_trace
        state = Assignment(np.array(ref_on_b), Platform.B)
        assert nash_check(sparse, params, beta, state) == []
        for user in range(sparse.n_users):
            assert best_response(sparse, params, beta, state, user) is \
                best_response(dense, params, beta, state, user)

        # no social payoff and no trust at beta = 1: every user is exactly
        # indifferent, so the tie rule's attachment test decides
        tie_params = ModelParams(mu=params.mu, p=params.p, b_a=0.0, b_b=0.0)
        on_b = rng.random(sparse.n_users) < 0.5
        state = Assignment(on_b, Platform.B)
        adj = _adjacency(sparse)
        for user in range(sparse.n_users):
            attached = user in sparse.sender_links or any(on_b[v] for v in adj[user])
            want = Platform.B if attached else state.platform_of(user)
            assert best_response(sparse, tie_params, 1.0, state, user) is want
        assert "adjacency_f" not in sparse.__dict__


def test_sparse_cascade_matches_engine_above_cutoff():
    tree = gen_regular_tree(2, 8)
    assert tree.n_users > platmod.graph.DENSE_MAX_USERS and not tree.dense
    params = ModelParams(mu=0.2, p=0.9, b_a=0.01, b_b=0.0)
    betas = np.linspace(0.0, 0.6, 13)
    engine, _, _, _ = batch_final_b_sets(
        tree, params.mu, betas, params.p, params.b_a, params.b_b
    )
    fast, _ = cascade_final_b_sets(tree, params, betas)
    assert np.array_equal(engine, fast)
    assert "adjacency_f" not in tree.__dict__


def test_line_above_cutoff_with_two_sender_links(monkeypatch):
    line = gen_linear(300)
    fields = dict(n_users=300, edges=line.edges, sender_links=(0, 299), profiles=line.profiles)
    net = Network(**fields)
    assert net.n_users > platmod.graph.DENSE_MAX_USERS and not net.dense
    params = ModelParams(mu=0.2, p=0.9, b_a=0.01, b_b=0.0)
    res = strictest_effective_regulation(net, params)
    assert "adjacency" not in net.__dict__ and "adjacency_f" not in net.__dict__
    for beta in (0.1, res.beta_star_b, 0.3):
        ref_on_b, ref_trace = ref_adoption(net, params, beta)
        out = run_adoption(net, params, beta, Platform.B)
        assert out.assignment.on_b.tolist() == ref_on_b
        assert out.trace == ref_trace
    dense = build_network(monkeypatch, 10**9, fields)
    assert dense.dense
    assert strictest_effective_regulation(dense, params) == res


@pytest.mark.parametrize("dense_max_users", [10**9, 0])
def test_engine_columns_carry_their_own_params(monkeypatch, dense_max_users):
    # one batch mixes p, b_a and b_b across its columns; columns finish in
    # different rounds, so later rounds run on a subset of them
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 6:
        fields, params, _ = widened_sbm_instance(rng)
        if fields["n_users"] > 25:
            continue
        checked += 1
        net = build_network(monkeypatch, dense_max_users, fields)
        assert net.dense == (dense_max_users > 0)
        n_cols = 12
        bp = trust_threshold(params.mu, fields["profiles"][0].c)
        betas = rng.uniform(0.0, 1.1 * bp, n_cols)  # mostly trusted, so users move
        p = rng.uniform(0.2, 0.95, n_cols)
        b_a = rng.uniform(0.0, 0.02, n_cols)
        b_b = rng.uniform(0.0, 0.01, n_cols)
        on_b, dist, rounds, traces = batch_final_b_sets(
            net, params.mu, betas, p, b_a, b_b, collect_trace=True
        )
        for j in range(n_cols):
            col_params = ModelParams(
                mu=params.mu, p=float(p[j]), b_a=float(b_a[j]), b_b=float(b_b[j])
            )
            ref_on_b, ref_trace = ref_adoption(net, col_params, float(betas[j]))
            assert on_b[:, j].tolist() == ref_on_b
            assert traces[j] == ref_trace
            assert dist[:, j].tolist() == _ref_distance_column(net, ref_on_b)
            one = batch_final_b_sets(
                net, params.mu, betas[j:j + 1], p[j], b_a[j], b_b[j], collect_trace=True
            )
            assert np.array_equal(one[0][:, 0], on_b[:, j])
            assert np.array_equal(one[1][:, 0], dist[:, j])
            assert one[2][0] == rounds[j] and one[3][0] == traces[j]


@pytest.mark.parametrize("dense_max_users", [10**9, 0])
def test_warm_start_from_a_higher_beta_reaches_the_cold_set(monkeypatch, dense_max_users):
    # the set of a higher beta lies inside the equilibrium set of a lower
    # one, so a run started from it reaches the set of a run from all-A
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 6:
        fields, params, _ = widened_sbm_instance(rng)
        if fields["n_users"] > 25:
            continue
        checked += 1
        net = build_network(monkeypatch, dense_max_users, fields)
        assert net.dense == (dense_max_users > 0)
        bp = trust_threshold(params.mu, fields["profiles"][0].c)
        high = rng.uniform(0.0, 1.1 * bp, 12)
        low = high * rng.uniform(0.0, 1.0, 12)
        args = (params.p, params.b_a, params.b_b)
        start = batch_final_b_sets(net, params.mu, high, *args)[0]
        cold = batch_final_b_sets(net, params.mu, low, *args)
        warm = batch_final_b_sets(net, params.mu, low, *args, start=start)
        assert np.array_equal(warm[0], cold[0]) and np.array_equal(warm[1], cold[1])
        assert not (start > warm[0]).any()
        for j in range(low.size):
            assert warm[0][:, j].tolist() == ref_adoption(net, params, float(low[j]))[0]


@pytest.mark.parametrize("dense_max_users", [10**9, 0])
def test_best_response_and_nash_check_match_reference(monkeypatch, dense_max_users):
    # cyclic networks with two sender links, the sender on either platform,
    # random assignments and zero-quality ties where the attachment decides
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 8:
        fields, params, beta = widened_sbm_instance(rng)
        if fields["n_users"] > 25 or len(fields["edges"]) < fields["n_users"]:
            continue
        checked += 1
        net = build_network(monkeypatch, dense_max_users, fields)
        assert net.dense == (dense_max_users > 0)
        tie_params = ModelParams(mu=params.mu, p=params.p, b_a=0.0, b_b=0.0)
        for sender in (Platform.A, Platform.B):
            on_b = rng.random(net.n_users) < rng.uniform(0.2, 0.8)
            state = Assignment(on_b, sender)
            for case_params, case_beta in ((params, beta), (params, 0.0), (tie_params, 1.0)):
                on_side, ref = ref_unilateral(net, case_params, case_beta, on_b.tolist(), sender)
                for user, (diff, attached) in enumerate(ref):
                    if diff > TOL or (abs(diff) <= TOL and attached):
                        want = sender
                    elif diff < -TOL:
                        want = sender.other()
                    else:
                        want = state.platform_of(user)
                    assert best_response(net, case_params, case_beta, state, user) is want
                unstable = [
                    user for user, (diff, _) in enumerate(ref)
                    if (diff < -TOL if on_side[user] else diff > TOL)
                ]
                assert nash_check(net, case_params, case_beta, state) == unstable
