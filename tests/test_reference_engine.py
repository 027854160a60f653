"""Cross-check the vectorized engine against a deliberately naive
re-implementation of the same dynamics: dict-and-loop BFS, per-user utility
comparison, synchronous rounds. No code is shared with the production path,
so agreement here validates the batched linear algebra and the cascade fast
path end to end, including at the contested collapse boundaries.
"""

from math import isclose

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import platmod.graph
from platmod import (
    ModelParams,
    Network,
    Platform,
    UserProfile,
    gen_linear,
    gen_regular_tree,
    gen_star_chain,
    run_adoption,
    strictest_effective_regulation,
    trust_threshold,
    RegulationKind,
    SbmSpec,
    gen_sbm,
)
from platmod.adoption import (
    Assignment,
    batch_final_b_sets,
    best_response,
    cascade_final_b_sets,
    nash_check,
)
from platmod.graph import (UNREACHED, Columns, receive_map, receive_probs,
                           through_platform_distances)

from conftest import (build_network, float64_neighbour_counts, random_sbm_instance,
                      refuse_dense_operand, widened_sbm_instance)

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
    refuse_dense_operand(monkeypatch)
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


def _check_one_column(net, on_side):
    """A one-column query equals the oracle and the batched BFS run on the
    same column twice."""
    dist = through_platform_distances(net, on_side[:, None])
    assert dist.dtype == np.int32 and dist.shape == (net.n_users, 1)
    assert dist[:, 0].tolist() == _ref_distance_column(net, on_side.tolist())
    batched = through_platform_distances(net, np.repeat(on_side[:, None], 2, axis=1))
    assert np.array_equal(batched, np.repeat(dist, 2, axis=1))
    return dist


@pytest.mark.parametrize("dense_max_users", [10**9, 0], ids=["dense", "CSR"])
def test_one_column_queue_bfs_matches_reference_and_batch(monkeypatch, dense_max_users):
    rng = np.random.default_rng(90)
    isolated = off_side_links = 0
    for _ in range(30):
        fields, _, _ = widened_sbm_instance(rng)
        net = build_network(monkeypatch, dense_max_users, fields)
        assert net.dense == (dense_max_users > 0)
        on_side = rng.random(net.n_users) < rng.uniform(0.2, 1.0)
        # the second sender link sits off side half the time: it is still
        # reached at 0 but relays nothing
        on_side[net.sender_links[1]] = rng.random() < 0.5
        off_side_links += int(not on_side[net.sender_links[1]])
        isolated += int((net.degrees == 0).sum())
        _check_one_column(net, on_side)
    assert isolated > 0 and off_side_links > 0


def _chain_sbm_3x300():
    return gen_sbm(SbmSpec(
        sizes=(300, 300, 300),
        theta=((0.075, 0.003, 0.0), (0.003, 0.075, 0.003), (0.0, 0.003, 0.075)),
        seed=4,
    ))


def test_one_column_queue_bfs_above_cutoff():
    line = gen_linear(400)
    two_link = Network(n_users=400, edges=line.edges, sender_links=(0, 399),
                       profiles=line.profiles)
    rng = np.random.default_rng(91)
    for net in (gen_linear(2000), two_link, _chain_sbm_3x300()):
        assert not net.dense
        everyone = np.ones(net.n_users, dtype=bool)
        assert np.array_equal(_check_one_column(net, everyone)[:, 0], net.relay_distances)
        _check_one_column(net, rng.random(net.n_users) < 0.9)
    assert two_link.relay_distances.max() == 199


def test_one_column_queries_need_neither_matmul_nor_level_loop(monkeypatch):
    def refuse(*_):
        raise AssertionError("a one-column query took the batched BFS")

    # the level loop, and every count, reaches through Columns.neighbour_counts
    monkeypatch.setattr(Columns, "neighbour_counts", refuse)
    params = ModelParams(mu=0.2, p=0.9, b_a=0.01, b_b=0.0)
    for net in (gen_linear(12), gen_linear(300)):
        state = Assignment(np.arange(net.n_users) < 5, Platform.B)
        assert net.relay_distances.tolist() == list(range(net.n_users))
        assert receive_probs(net, params, state).tolist() == [0.9**k for k in range(5)] + \
            [0.0] * (net.n_users - 5)


@pytest.mark.parametrize("n_cols", [1, 7], ids=["one-column", "batch"])
@pytest.mark.parametrize("dense_max_users", [10**9, 0], ids=["dense", "CSR"])
def test_relax_from_joined_relays_matches_reference(monkeypatch, dense_max_users, n_cols):
    # the distances of a relay set, lowered through the relays that join it,
    # are those of the grown set; joiners may be unreached before they join
    # (and reached through another joiner), and the second sender link may
    # sit off side
    rng = np.random.default_rng(95 + n_cols)
    isolated = off_side_links = unreached_joiners = reached_through_joiners = 0
    for _ in range(20):
        fields, _, _ = widened_sbm_instance(rng)
        net = build_network(monkeypatch, dense_max_users, fields)
        assert net.dense == (dense_max_users > 0)
        old = rng.random((net.n_users, n_cols)) < rng.uniform(0.0, 0.6)
        joined = ~old & (rng.random(old.shape) < rng.uniform(0.1, 0.9))
        if rng.random() < 0.5:
            old[net.sender_links[1]] = joined[net.sender_links[1]] = False
            off_side_links += 1
        grown = old | joined
        dist = through_platform_distances(net, old)
        before = dist.copy()
        assert Columns.repeat((net,), n_cols).relax(dist, grown, joined) is dist
        assert dist.dtype == np.int32
        assert not ((before != UNREACHED) & ((dist > before) | (dist == UNREACHED))).any()
        for j in range(n_cols):
            assert dist[:, j].tolist() == _ref_distance_column(net, grown[:, j].tolist())
        isolated += int((net.degrees == 0).sum())
        unreached_joiners += int((joined & (before == UNREACHED)).sum())
        reached_through_joiners += int((joined & (before == UNREACHED) & (dist >= 0)).sum())
    assert isolated > 0 and off_side_links > 0
    assert unreached_joiners > 0 and reached_through_joiners > 0


@st.composite
def pools(draw):
    """(columns, marked, old, joined): one to four networks of one size, all
    dense or all CSR, with one to four columns each; a 0/1 column to count,
    a relay set and users joining it per column."""
    n = draw(st.integers(1, 12))
    dense = draw(st.booleans())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    networks = []
    for _ in range(draw(st.integers(1, 4))):
        kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        links = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(platmod.graph, "DENSE_MAX_USERS", n if dense else 0)
            networks.append(Network(n, [e for e, keep in zip(pairs, kept) if keep], links,
                                    (UserProfile(c=0.3),) * n))
    owner = np.repeat(np.arange(len(networks)), [draw(st.integers(1, 4)) for _ in networks])
    size = n * owner.size
    return (Columns(tuple(networks), owner),
            *(np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
              .reshape(n, owner.size) for _ in range(3)))


@settings(max_examples=80)
@given(case=pools())
def test_pool_counts_and_relax_equal_a_float64_count_and_the_reference(case):
    # each column's count of marked neighbours on its own network is a
    # float64 count from the edge array, and each column relaxed through
    # the users joining its relay set has the reference distances of the
    # grown set, bit for bit: dense pools of one network (its one float32
    # layer) or several, and CSR pools, which build no dense operand
    columns, marked, old, joined = case
    grown = old | joined
    with pytest.MonkeyPatch.context() as patched:
        refuse_dense_operand(patched)
        counts = columns.neighbour_counts(marked)
        dist = through_platform_distances(columns, old)
        assert columns.relax(dist, grown, joined & ~old) is dist
    assert counts.dtype == np.float64 and dist.dtype == np.int32
    assert ("adjacency_f32" in columns.shared) == columns.networks[0].dense
    for j, k in enumerate(columns.owner.tolist()):
        net = columns.networks[k]
        assert counts[:, j].tobytes() == float64_neighbour_counts(net, marked[:, j]).tobytes()
        assert dist[:, j].tolist() == _ref_distance_column(net, grown[:, j].tolist())


@pytest.mark.parametrize("n_cols", [1, 2], ids=["one-column", "batch"])
def test_relax_walks_past_a_gap_between_joined_levels(n_cols):
    # a line of 10 linked to the sender at both ends: user 1 joins at level
    # 1 and its walk stops at user 2; user 4 joins at level 5, past the gap
    line = gen_linear(10)
    net = Network(n_users=10, edges=line.edges, sender_links=(0, 9), profiles=line.profiles)
    old = np.isin(np.arange(10), [0, 5, 6, 7, 8, 9])[:, None].repeat(n_cols, axis=1)
    joined = np.isin(np.arange(10), [1, 4])[:, None].repeat(n_cols, axis=1)
    dist = through_platform_distances(net, old)
    assert dist[[1, 4], 0].tolist() == [1, 5] and dist[3, 0] == UNREACHED
    assert Columns.repeat((net,), n_cols).relax(dist, old | joined, joined) is dist
    assert dist[:, 0].tolist() == _ref_distance_column(net, (old | joined)[:, 0].tolist())
    assert dist[:, 0].tolist() == [0, 1, 2, 6, 5, 4, 3, 2, 1, 0]
    assert np.array_equal(dist, np.repeat(dist[:, :1], n_cols, axis=1))


def test_adjacency_lists_are_read_only():
    net = gen_linear(4)
    assert net.adjacency_lists == ((1,), (0, 2), (1, 3), (2,))
    with pytest.raises(TypeError):
        net.adjacency_lists[1] = ()
    with pytest.raises(TypeError):
        net.adjacency_lists[1][0] = 3


def test_sparse_cascade_matches_engine_above_cutoff(monkeypatch):
    refuse_dense_operand(monkeypatch)
    tree = gen_regular_tree(2, 8)
    assert tree.n_users > platmod.graph.DENSE_MAX_USERS and not tree.dense
    params = ModelParams(mu=0.2, p=0.9, b_a=0.01, b_b=0.0)
    betas = np.linspace(0.0, 0.6, 13)
    engine, _, _, _ = batch_final_b_sets(
        tree, params.mu, betas, params.p, params.b_a, params.b_b
    )
    fast, _ = cascade_final_b_sets(tree, params, betas)
    assert np.array_equal(engine, fast)


def test_line_above_cutoff_with_two_sender_links(monkeypatch):
    line = gen_linear(300)
    fields = dict(n_users=300, edges=line.edges, sender_links=(0, 299), profiles=line.profiles)
    net = Network(**fields)
    assert net.n_users > platmod.graph.DENSE_MAX_USERS and not net.dense
    params = ModelParams(mu=0.2, p=0.9, b_a=0.01, b_b=0.0)
    with pytest.MonkeyPatch.context() as patched:
        refuse_dense_operand(patched)
        res = strictest_effective_regulation(net, params)
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


def _restart_once_at(levels, seen):
    """A step callback that restarts each column once, at levels[j], and
    appends every state it is handed to seen as (column, beta, state as
    handed, a copy of it made then); a state is (on_b, dist, n_b, p_recv)."""
    def step(index, cols, beta, *state):
        again = []
        for k, j in enumerate(index.tolist()):
            again.append(all(s[0] != j for s in seen))
            given = tuple(x[:, k] for x in state)
            seen.append((j, float(beta[k]), given, tuple(x.copy() for x in given)))
        return np.where(again, levels[index], -1.0)
    return step


@pytest.mark.parametrize("dense_max_users", [10**9, 0])
def test_warm_start_from_a_higher_beta_reaches_the_cold_set(monkeypatch, dense_max_users):
    # the set of a higher beta lies inside the equilibrium set of a lower
    # one, so a column restarted from it reaches the set of a run from all-A
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
        seen = []
        warm = batch_final_b_sets(net, params.mu, high, *args, step=_restart_once_at(low, seen))
        assert np.array_equal(warm[0], cold[0]) and np.array_equal(warm[1], cold[1])
        assert not (start > warm[0]).any()
        for j in range(low.size):
            # the column settled at high with the cold set there, then at low
            [(_, at_high, (set_high, *_), _), (_, at_low, (set_low, *_), _)] = [
                x for x in seen if x[0] == j]
            assert (at_high, at_low) == (high[j], low[j])
            assert np.array_equal(set_high, start[:, j]) and np.array_equal(set_low, warm[0][:, j])
            assert warm[0][:, j].tolist() == ref_adoption(net, params, float(low[j]))[0]


@pytest.mark.parametrize("dense_max_users", [10**9, 0], ids=["dense", "CSR"])
def test_engine_given_the_start_state_equals_computing_it(monkeypatch, dense_max_users):
    # the state the engine hands over at each fixed point, from all-A and
    # after a restart, is the one built here with the full distance query,
    # the counts and the receive map, bit for bit; the engine never changes
    # a state it handed over, and a restarted column's trace runs on from
    # its first run's
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 6:
        fields, params, _ = widened_sbm_instance(rng)
        if fields["n_users"] > 25:
            continue
        checked += 1
        net = build_network(monkeypatch, dense_max_users, fields)
        bp = trust_threshold(params.mu, fields["profiles"][0].c)
        high = rng.uniform(0.0, 1.1 * bp, 9)
        low = high * rng.uniform(0.0, 1.0, 9)
        args = (params.p, params.b_a, params.b_b)
        first = batch_final_b_sets(net, params.mu, high, *args, collect_trace=True)
        seen = []
        on_b, dist, rounds, traces = batch_final_b_sets(
            net, params.mu, high, *args, collect_trace=True, step=_restart_once_at(low, seen))
        assert len(seen) == 2 * low.size
        for _, _, given, kept in seen:
            set_ = given[0]
            built_dist = through_platform_distances(net, set_[:, None])[:, 0]
            built = (set_, built_dist, float64_neighbour_counts(net, set_),
                     receive_map(params.p, built_dist))
            for g, w, k in zip(given, built, kept):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes() == k.tobytes()
        for j in range(low.size):
            assert traces[j][:len(first[3][j])] == first[3][j]
            assert rounds[j] == len(traces[j]) >= first[2][j]
            # the engine returns the state it handed over last
            last = [given for k, _, given, _ in seen if k == j][-1]
            assert np.array_equal(on_b[:, j], last[0]) and np.array_equal(dist[:, j], last[1])


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
