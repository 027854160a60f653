import json
import math

import numpy as np
import pytest

from platmod import (
    InvalidParamsError,
    ModelParams,
    Network,
    Platform,
    SbmSpec,
    UserProfile,
    gen_linear,
    gen_regular_tree,
    gen_sbm,
    gen_star_chain,
    receive_probs,
    validate_profiles,
)
from platmod.adoption import Assignment
from platmod.graph import UNREACHED, receive_map, through_platform_distances

from conftest import build_network, diamond_network, default_params, widened_sbm_instance


def degrees(net):
    d = [0] * net.n_users
    for i, j in net.edges:
        d[i] += 1
        d[j] += 1
    return d


def test_gen_linear():
    n1 = gen_linear(1)
    assert n1.n_users == 1 and n1.edges == () and n1.sender_links == (0,)
    n3 = gen_linear(3)
    assert n3.edges == ((0, 1), (1, 2))
    assert degrees(gen_linear(5)) == [1, 2, 2, 2, 1]
    with pytest.raises(InvalidParamsError):
        gen_linear(0)


def test_gen_star_chain():
    single = gen_star_chain(1, 1)
    assert single.n_users == 1 and single.edges == ()
    net = gen_star_chain(5, 2)
    assert net.n_users == 10 and len(net.edges) == 9
    net23 = gen_star_chain(2, 3)
    d = degrees(net23)
    assert d[0] == 3 and d[1] == 3
    assert all(d[u] == 1 for u in range(2, 6))
    with pytest.raises(InvalidParamsError):
        gen_star_chain(0, 2)


def test_gen_regular_tree():
    assert gen_regular_tree(2, 0).n_users == 1
    assert gen_regular_tree(2, 5).n_users == 63
    assert gen_regular_tree(3, 2).n_users == 13
    with pytest.raises(InvalidParamsError):
        gen_regular_tree(10, 9)  # >10^7 nodes


def test_tree_structure():
    net = gen_regular_tree(3, 2)
    d = degrees(net)
    assert d[0] == 3
    assert sorted(d)[-4:] == [4, 4, 4, 4] or d.count(4) == 3  # interior nodes
    assert d.count(1) == 9  # leaves


def test_gen_sbm_degenerate():
    zero = gen_sbm(SbmSpec(sizes=(4,), theta=((0.0,),), seed=1))
    assert zero.edges == ()
    tri = gen_sbm(SbmSpec(sizes=(3,), theta=((1.0,),), seed=1))
    assert tri.edges == ((0, 1), (0, 2), (1, 2))


def test_gen_sbm_chain_edge_count():
    from platmod import chain_theta

    theta = chain_theta((30, 30, 30), 0.75)
    assert theta[0][1] == pytest.approx(4 / 900)
    net = gen_sbm(SbmSpec(sizes=(30, 30, 30), theta=theta, seed=42))
    labels = net.communities
    intra = sum(1 for i, j in net.edges if labels[i] == labels[j])
    # binomial: mean 3 * 0.75 * C(30,2) = 978.75, sd ~ 15.6
    assert abs(intra - 978.75) <= 5 * 16.5


def test_gen_sbm_deterministic():
    spec = SbmSpec(sizes=(10, 10), theta=((0.5, 0.1), (0.1, 0.5)), seed=123)
    assert gen_sbm(spec).edges == gen_sbm(spec).edges
    other = SbmSpec(sizes=(10, 10), theta=((0.5, 0.1), (0.1, 0.5)), seed=124)
    assert gen_sbm(spec).edges != gen_sbm(other).edges


def test_gen_sbm_sender_attach():
    spec = SbmSpec(sizes=(5, 5), theta=((0.9, 0.1), (0.1, 0.9)), sender_community=1, seed=3)
    net = gen_sbm(spec)
    assert net.sender_links == (5,)
    with pytest.raises(InvalidParamsError):
        gen_sbm(
            SbmSpec(
                sizes=(5, 5),
                theta=((0.9, 0.1), (0.1, 0.9)),
                sender_community=1,
                sender_attach=0,
                seed=3,
            )
        )


def test_network_validation():
    prof = (UserProfile(c=0.3),) * 2
    with pytest.raises(InvalidParamsError):
        Network(n_users=2, edges=((0, 0),), sender_links=(0,), profiles=prof)
    with pytest.raises(InvalidParamsError):
        Network(n_users=2, edges=((0, 1), (1, 0)), sender_links=(0,), profiles=prof)
    with pytest.raises(InvalidParamsError):
        Network(n_users=2, edges=(), sender_links=(), profiles=prof)
    with pytest.raises(InvalidParamsError):
        Network(n_users=2, edges=((0, 2),), sender_links=(0,), profiles=prof)


def test_validate_profiles_against_mu():
    net = gen_linear(3, c=0.25)
    validate_profiles(net, ModelParams(mu=0.2, p=0.5, b_a=0.0, b_b=0.0))
    with pytest.raises(InvalidParamsError):
        validate_profiles(net, ModelParams(mu=0.3, p=0.5, b_a=0.0, b_b=0.0))


def test_receive_probs_off_platform_is_zero():
    net = gen_linear(3)
    params = default_params()
    all_a = Assignment.all_a(3, Platform.B)  # sender on B, everyone on A
    assert receive_probs(net, params, all_a).tolist() == [0.0, 0.0, 0.0]


def test_receive_probs_linear_all_with_sender():
    net = gen_linear(3)
    params = default_params()
    assign = Assignment(np.ones(3, dtype=bool), Platform.B)
    probs = receive_probs(net, params, assign)
    assert probs.tolist() == pytest.approx([1.0, 0.9, 0.81])


def test_receive_probs_two_paths_single_shortest():
    # two distinct length-2 routes still give p**2, not 1-(1-p**2)**2
    net = diamond_network()
    params = default_params(p=0.6)
    assign = Assignment(np.ones(4, dtype=bool), Platform.B)
    probs = receive_probs(net, params, assign)
    assert probs[3] == pytest.approx(0.6**2, abs=1e-15)


def test_receive_probs_disconnected_zero():
    net = Network(
        n_users=3,
        edges=((0, 1),),
        sender_links=(0,),
        profiles=(UserProfile(c=0.3),) * 3,
    )
    assign = Assignment(np.ones(3, dtype=bool), Platform.B)
    probs = receive_probs(net, default_params(), assign)
    assert probs[2] == 0.0


def test_entry_receive_probs():
    # the receive probability a user would have after moving alone to the
    # sender's platform: its through-platform distance, everyone else fixed
    net = gen_linear(3)
    params = default_params()
    only_zero = Assignment(np.array([True, False, False]), Platform.B)
    dist = through_platform_distances(net, only_zero.on_b[:, None])[:, 0]
    entry = receive_map(params.p, dist)
    # user with no path to the sender's platform
    assert dist[2] == UNREACHED and entry[2] == 0.0
    # off the sender's platform entirely
    assert receive_probs(net, params, only_zero)[1] == 0.0
    # one edge beyond the directly-linked user (distance convention: the
    # sender link itself costs nothing)
    assert entry[1] == pytest.approx(0.9)
    # a user already on the sender's platform sees its actual value
    assert entry[0] == pytest.approx(receive_probs(net, params, only_zero)[0])


def test_receive_probs_monotone_in_platform_membership():
    rng = np.random.default_rng(5)
    params = default_params(p=0.7)
    for _ in range(30):
        n = int(rng.integers(3, 12))
        edges = set()
        for i in range(n - 1):
            edges.add((i, i + 1))
        for _ in range(n):
            i, j = rng.integers(0, n, 2)
            if i != j:
                edges.add((min(i, j), max(i, j)))
        net = Network(
            n_users=n,
            edges=tuple(sorted(edges)),
            sender_links=(0,),
            profiles=(UserProfile(c=0.3),) * n,
        )
        on_b = rng.random(n) < 0.5
        off = np.nonzero(~on_b)[0]
        if off.size == 0:
            continue
        base = receive_probs(net, params, Assignment(on_b, Platform.B))
        grown = on_b.copy()
        grown[rng.choice(off)] = True
        after = receive_probs(net, params, Assignment(grown, Platform.B))
        mask = on_b  # users already on the sender's platform
        assert (after[mask] >= base[mask] - 1e-15).all()


def test_network_json_round_trip(tmp_path):
    net = gen_star_chain(3, 3, c=0.31)
    path = tmp_path / "net.json"
    net.save(path)
    loaded = Network.load(path)
    assert loaded.n_users == net.n_users
    assert loaded.edges == net.edges
    assert loaded.sender_links == net.sender_links
    assert loaded.profiles == net.profiles
    assert loaded.generator_meta == net.generator_meta
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["edges", "generator_meta", "n_users", "profiles", "sender_links"]
    assert doc["edges"] == sorted(doc["edges"])  # canonical ordering


def test_edges_canonicalized():
    net = Network(
        n_users=3,
        edges=((2, 1), (1, 0)),
        sender_links=(0,),
        profiles=(UserProfile(c=0.3),) * 3,
    )
    assert net.edges == ((0, 1), (1, 2))


def test_community_sizes():
    net = gen_sbm(SbmSpec(sizes=(4, 6), theta=((0.5, 0.1), (0.1, 0.5)), seed=0))
    assert net.community_sizes == (4, 6)
    assert net.n_communities == 2


def test_is_cascade_tree():
    assert gen_linear(5).is_cascade_tree
    assert gen_star_chain(4, 3).is_cascade_tree
    assert gen_regular_tree(2, 3).is_cascade_tree
    assert not diamond_network().is_cascade_tree
    forest = Network(
        n_users=3,
        edges=((0, 1),),
        sender_links=(0,),
        profiles=(UserProfile(c=0.3),) * 3,
    )
    assert not forest.is_cascade_tree


@pytest.mark.parametrize("n_cols", [1, 63, 64, 65, 130])
def test_sparse_distances_match_dense(monkeypatch, n_cols):
    rng = np.random.default_rng(n_cols)
    for _ in range(20):
        fields, _, _ = widened_sbm_instance(rng)
        dense = build_network(monkeypatch, 10**9, fields)
        sparse = build_network(monkeypatch, 0, fields)
        assert dense.dense and not sparse.dense
        on_side = rng.random((fields["n_users"], n_cols)) < rng.uniform(0.2, 1.0)
        assert np.array_equal(
            through_platform_distances(sparse, on_side),
            through_platform_distances(dense, on_side),
        )
        assert np.array_equal(sparse.neighbour_counts(on_side), dense.neighbour_counts(on_side))
        marked = on_side[:, 0].astype(np.float64)
        assert np.array_equal(sparse.neighbour_counts(marked), dense.neighbour_counts(marked))
        assert sparse.degrees.tolist() == degrees(sparse)
        assert "adjacency_f" not in sparse.__dict__


def test_sparse_neighbours_ascending(monkeypatch):
    sparse = build_network(monkeypatch, 0, dict(
        n_users=5,
        edges=((3, 1), (0, 3), (3, 4)),
        sender_links=(0,),
        profiles=(UserProfile(c=0.3),) * 5,
    ))
    assert sparse.neighbours(3).tolist() == [0, 1, 4]
    assert sparse.neighbours(2).tolist() == []
