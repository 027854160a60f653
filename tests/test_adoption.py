import numpy as np
import pytest

from platmod import (
    ModelParams,
    Network,
    Platform,
    UserProfile,
    best_response,
    gen_linear,
    gen_regular_tree,
    gen_star_chain,
    nash_check,
    run_adoption,
)
from platmod.adoption import (
    Assignment,
    batch_final_b_sets,
    cascade_final_b_sets,
    cascade_thresholds,
)
from platmod.graph import through_platform_distances

from conftest import default_params, random_sbm_instance


def test_sender_on_a_is_immediate_equilibrium():
    net = gen_linear(5)
    out = run_adoption(net, default_params(), 0.3, Platform.A)
    assert out.iterations == 0
    assert out.trace == []
    assert not out.assignment.on_b.any()
    # on A with the sender, everyone receives
    assert out.p_recv.tolist() == pytest.approx([0.9**k for k in range(5)])


def test_linear_cascade_order():
    net = gen_linear(3)
    params = ModelParams(mu=0.2, p=0.9, b_a=0.0, b_b=0.0)
    out = run_adoption(net, params, 0.0, Platform.B)
    assert out.iterations == 3
    assert [sorted(s) for s in out.trace] == [[0], [1], [2]]
    assert out.assignment.on_b.all()
    assert out.p_recv.tolist() == pytest.approx([1.0, 0.9, 0.81])


def test_linear_high_quality_nobody_moves():
    net = gen_linear(3)
    params = ModelParams(mu=0.2, p=0.9, b_a=0.2, b_b=0.0)
    out = run_adoption(net, params, 0.0, Platform.B)
    assert out.iterations == 0
    assert not out.assignment.on_b.any()


def test_best_response_stays_with_all_friends():
    net = gen_linear(4)
    params = default_params()
    all_a = Assignment.all_a(4, Platform.A)
    assert best_response(net, params, 0.3, all_a, 1) is Platform.A


def test_best_response_user_zero_with_quality_gap():
    # the direct news gain is bounded by mu*(1-c); a larger social gap holds user 0
    net = gen_linear(4)
    params = ModelParams(mu=0.2, p=0.9, b_a=0.2, b_b=0.0)
    all_a = Assignment.all_a(4, Platform.B)
    assert best_response(net, params, 0.0, all_a, 0) is Platform.A


def test_best_response_leaf_follows_hub():
    net = gen_star_chain(2, 2)  # hubs 0,1; leaves 2,3
    params = ModelParams(mu=0.2, p=0.9, b_a=0.05, b_b=0.0)
    state = Assignment(np.array([True, False, False, False]), Platform.B)
    assert best_response(net, params, 0.2, state, 2) is Platform.B


def test_best_response_tie_unattached_stays_put():
    net = gen_linear(3)
    params = ModelParams(mu=0.2, p=0.9, b_a=0.0, b_b=0.0)
    all_a = Assignment.all_a(3, Platform.B)
    # user 2 has no sender link and no friend on B: pure tie, stays
    assert best_response(net, params, 0.0, all_a, 2) is Platform.A
    # user 0 is sender-linked: strict gain, moves
    assert best_response(net, params, 0.0, all_a, 0) is Platform.B


def test_nash_check_trivial_equilibrium():
    net = gen_linear(4)
    assert nash_check(net, default_params(), 0.3, Assignment.all_a(4, Platform.A)) == []


def test_nash_check_flags_misplaced_user():
    net = gen_linear(2)
    params = ModelParams(mu=0.2, p=0.9, b_a=0.2, b_b=0.0)
    # beta above the trust threshold so user 0 gains nothing by deviating
    state = Assignment(np.array([False, True]), Platform.B)
    assert nash_check(net, params, 0.99, state) == [1]


def test_adoption_fixed_points_are_nash():
    rng = np.random.default_rng(42)
    for _ in range(60):
        network, params, beta = random_sbm_instance(rng)
        out = run_adoption(network, params, beta, Platform.B)
        assert nash_check(network, params, beta, out.assignment) == []
        assert out.iterations <= network.n_users


def test_trace_sets_disjoint_and_one_way():
    rng = np.random.default_rng(7)
    for _ in range(40):
        network, params, beta = random_sbm_instance(rng)
        out = run_adoption(network, params, beta, Platform.B)
        seen = set()
        for s in out.trace:
            assert not (s & seen)
            seen |= s
        assert seen == set(np.nonzero(out.assignment.on_b)[0])


@pytest.mark.parametrize(
    "net",
    [gen_linear(12), gen_star_chain(5, 3), gen_regular_tree(2, 4)],
    ids=["line", "star-chain", "tree"],
)
def test_wave_switchers_sit_at_their_distance(net):
    # acyclic case: iteration-t switchers are exactly t edges from the sender
    depth = through_platform_distances(net, np.ones((net.n_users, 1), dtype=bool))[:, 0]
    for beta in (0.0, 0.2, 0.45):
        params = ModelParams(mu=0.2, p=0.85, b_a=0.004, b_b=0.0)
        out = run_adoption(net, params, beta, Platform.B)
        for t, switchers in enumerate(out.trace):
            assert {int(depth[u]) for u in switchers} == {t}


def test_engine_distances_come_back_exact_past_128_users():
    # the engine keeps its set-aside columns' distances in the narrowest
    # integer type that holds -n_users; on a line of 300 everybody joins and
    # the distances reach 299
    net = gen_linear(300)
    on_b, dist, _, _ = batch_final_b_sets(net, 0.2, np.array([0.0, 0.0]), 0.99, 0.0, 0.0)
    assert on_b.all() and dist.dtype == np.int32
    assert (dist == np.arange(300)[:, None]).all()


def test_adopter_sets_monotone_in_beta():
    rng = np.random.default_rng(11)
    for _ in range(25):
        network, params, _ = random_sbm_instance(rng)
        betas = np.sort(rng.uniform(0.0, 1.0, 6))
        on_b, _, _, _ = batch_final_b_sets(
            network, params.mu, betas, params.p, params.b_a, params.b_b
        )
        for lo, hi in zip(range(5), range(1, 6)):
            assert (on_b[:, hi] <= on_b[:, lo]).all()


def test_cascade_matches_engine_on_trees():
    rng = np.random.default_rng(3)
    nets = [
        gen_linear(int(rng.integers(2, 30))),
        gen_star_chain(int(rng.integers(2, 8)), int(rng.integers(1, 5))),
        gen_regular_tree(int(rng.integers(1, 4)), int(rng.integers(1, 4))),
    ]
    for net in nets:
        for _ in range(12):
            params = ModelParams(
                mu=float(rng.uniform(0.05, 0.4)),
                p=float(rng.uniform(0.2, 0.95)),
                b_a=float(rng.uniform(0.0, 0.08)),
                b_b=float(rng.uniform(0.0, 0.04)),
            )
            c = float(rng.uniform(params.mu + 0.02, 0.49))
            net_c = Network(
                n_users=net.n_users,
                edges=net.edges,
                sender_links=net.sender_links,
                profiles=tuple(UserProfile(c=c) for _ in range(net.n_users)),
                generator_meta=net.generator_meta,
            )
            betas = rng.uniform(0.0, 1.0, 8)
            engine, _, _, _ = batch_final_b_sets(
                net_c, params.mu, betas, params.p, params.b_a, params.b_b
            )
            fast, _ = cascade_final_b_sets(net_c, params, betas)
            assert (engine == fast).all()


def test_cascade_thresholds_shape():
    net = gen_star_chain(3, 2)
    params = ModelParams(mu=0.2, p=0.9, b_a=0.01, b_b=0.0)
    depth, m = cascade_thresholds(net, params)
    assert depth.tolist() == [0, 1, 2, 1, 2, 3]
    # thresholds weakly decrease along the hub chain
    assert m[0] >= m[1] >= m[2]


def test_heterogeneous_trust_blocks_wave():
    # distrusting users relay nothing and block their subtree
    c = [0.21, 0.4, 0.21]
    net = gen_linear(3, c=c)
    params = ModelParams(mu=0.2, p=0.9, b_a=0.001, b_b=0.0)
    beta = 0.5  # above threshold for c=0.4 (0.375), below for c=0.21 (0.94)
    out = run_adoption(net, params, beta, Platform.B)
    assert out.assignment.on_b.tolist() == [True, False, False]


def test_invalid_beta_rejected():
    from platmod import InvalidParamsError

    with pytest.raises(InvalidParamsError):
        run_adoption(gen_linear(2), default_params(), 1.5, Platform.B)
