import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import platmod.graph
from platmod import (
    InvalidParamsError,
    Network,
    SbmSpec,
    UserProfile,
    chain_theta,
    gen_linear,
    gen_regular_tree,
    gen_sbm,
    gen_star_chain,
)
from platmod.graph import (UNREACHED, Columns, receive_map, through_platform_distances,
                           validate_mu)

from conftest import (build_network, diamond_network, float64_neighbour_counts,
                      refuse_dense_operand, widened_sbm_instance)


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
    assert gen_sbm(SbmSpec(sizes=(1,), theta=((1.0,),))).edges == ()
    assert gen_sbm(SbmSpec(sizes=(2,), theta=((1.0,),))).edges == ((0, 1),)
    pair = SbmSpec(sizes=(1, 1), theta=((0.0, 0.5), (0.5, 0.0)))
    assert [gen_sbm(replace(pair, seed=s)).edges for s in range(6)] == [
        (), (), ((0, 1),), ((0, 1),), (), ()
    ]


def test_gen_sbm_chain_edge_count():
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


# sha256 of repr(edges), taken when every pair was drawn in one call
_SBM_PINS = [
    ((30, 30, 30), 0.75, 5, 1007,
     "fec1b99dc9e23b629208be47305d55712080e61caef1a47c0d3dba541bf8e0cf"),
    ((300, 300, 300), 0.075, 1, 10154,
     "c8add8d5ce1a09dcbed00e0a8f2b6be8c578777664371a6e58c0374382f9ccaf"),
    ((400, 400, 400), 0.06, 2, 14467,
     "bc0fc60a587e66ed4321e281f268eee86ba9694b080170a1804bf11254b20197"),
]


def _sbm_digest(sizes, diag, seed) -> tuple[int, str]:
    edges = gen_sbm(SbmSpec(sizes=sizes, theta=chain_theta(sizes, diag), seed=seed)).edges
    return len(edges), hashlib.sha256(repr(edges).encode()).hexdigest()


@pytest.mark.parametrize("sizes, diag, seed, n_edges, digest", _SBM_PINS,
                         ids=["3x30", "3x300", "3x400"])
def test_gen_sbm_edges_are_pinned(sizes, diag, seed, n_edges, digest):
    # 3x30 is one chunk of draws, 3x300 and 3x400 span several
    assert _sbm_digest(sizes, diag, seed) == (n_edges, digest)


# sha256 of repr(edges), taken when the generators built Python tuples
_GENERATOR_PINS = [
    (lambda: gen_linear(2000), 1999,
     "45cedf77be845f9253dcc29d1a61d17d70a3b6c6a949386b8dc8697870a257fd"),
    (lambda: gen_star_chain(40, 5), 199,
     "cc2393e1fae53d6307900652a0bf407a8d448809cf64ee09c3e8a4380903c363"),
    (lambda: gen_regular_tree(3, 6), 1092,
     "d642f24ca37fb48fc294c0e2327cfa96877bf097d4e90f242f098b4d0fccb30c"),
    (lambda: gen_regular_tree(2, 11), 4094,
     "6a59ec1be9cfc037b494e893e6784154742bc5696059016377b98f77e796ef00"),
]


@pytest.mark.parametrize("build, n_edges, digest", _GENERATOR_PINS,
                         ids=["line2000", "star_chain40x5", "tree3x6", "tree2x11"])
def test_generator_edges_are_pinned(build, n_edges, digest):
    edges = build().edges
    assert (len(edges), hashlib.sha256(repr(edges).encode()).hexdigest()) == (n_edges, digest)


def test_a_deep_tree_holds_little_memory():
    # 65535 users: edge_array (1 MiB) and a tuple of one shared profile (0.5 MiB)
    tracemalloc.start()
    try:
        net = gen_regular_tree(2, 15)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.n_users == 65535 and live < 4 * 2**20


@pytest.mark.parametrize("chunk", [1, 7, 100, 1000])
def test_gen_sbm_chunk_size_leaves_edges_unchanged(monkeypatch, chunk):
    # a budget below a row's length gives that row a chunk of its own
    monkeypatch.setattr(platmod.graph, "_SBM_PAIR_CHUNK", chunk)
    sizes, diag, seed, n_edges, digest = _SBM_PINS[0]
    assert _sbm_digest(sizes, diag, seed) == (n_edges, digest)


@pytest.mark.parametrize("chunk", [1, 7, 40, 1 << 16])
@pytest.mark.parametrize("sizes", [(5, 1, 7), (1,), (2,), (3, 4)])
def test_gen_sbm_equals_one_draw_over_every_pair(monkeypatch, sizes, chunk):
    # every pair in row-major order, drawn at once: the chunks of whole rows
    # and the probabilities laid out as one run per community block give the
    # same edges where the budget is below a row's length (1 and 7; row 0 of
    # the 13 users has 12 pairs), where it ends inside a row (40 ends inside
    # row 3 of the first block of five, which goes whole to the next chunk)
    # and where one chunk holds every row
    monkeypatch.setattr(platmod.graph, "_SBM_PAIR_CHUNK", chunk)
    n, m = sum(sizes), len(sizes)
    theta = tuple(tuple(0.3 + 0.1 * (i + j) if i != j else 0.8 - 0.1 * i for j in range(m))
                  for i in range(m))
    labels = np.repeat(np.arange(m), sizes)
    for seed in range(6):
        iu, ju = np.triu_indices(n, 1)
        keep = (np.random.default_rng(seed).random(iu.size)
                < np.asarray(theta)[labels[iu], labels[ju]])
        net = gen_sbm(SbmSpec(sizes=sizes, theta=theta, seed=seed))
        assert net.edge_array.tolist() == np.stack([iu[keep], ju[keep]], axis=1).tolist()


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


@pytest.mark.parametrize("build", [
    gen_linear,
    lambda n: gen_star_chain(n, 1),
    lambda n: gen_regular_tree(n - 1, 1),
    lambda n: gen_regular_tree(1, n - 1),
    lambda n: gen_sbm(SbmSpec(sizes=(n - 5, 5), theta=((0.5, 0.1), (0.1, 0.5)))),
], ids=["linear", "star_chain", "tree", "deep_tree", "sbm"])
def test_every_generator_refuses_more_than_the_user_cap(monkeypatch, build):
    monkeypatch.setattr(platmod.graph, "MAX_GENERATED_USERS", 10)
    assert build(10).n_users == 10
    with pytest.raises(InvalidParamsError,
                       match="^refusing to build an? [a-zA-Z ]+ of more than 10 users$"):
        build(11)


def test_a_tree_too_deep_to_count_is_refused_at_once():
    # 2**20000 users: more digits than Python will print, and too many
    # levels to sum before the check
    with pytest.raises(InvalidParamsError, match="^refusing to build a tree of more than "):
        gen_regular_tree(2, 20000)


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
    for links in ((0.5,), (1.0,), ("1",), (True,), (0, np.float64(1.0))):
        with pytest.raises(InvalidParamsError, match="^sender_links .* are not all user ids$"):
            Network(n_users=2, edges=(), sender_links=links, profiles=prof)
    assert Network(n_users=2, edges=(), sender_links=(np.int64(1), 0, 1),
                   profiles=prof).sender_links == (0, 1)


def test_network_names_its_first_bad_edge():
    # self-loops and out-of-range edges in input order, duplicates in
    # sorted order
    prof = (UserProfile(c=0.3),) * 4

    def refusal(edges):
        with pytest.raises(InvalidParamsError) as info:
            Network(n_users=4, edges=edges, sender_links=(0,), profiles=prof)
        return str(info.value)

    assert refusal(((0, 1), (5, 2), (3, 3))) == "edge (5, 2) out of range"
    assert refusal(((0, 1), (3, 3), (-1, 2))) == "self-loop at user 3"
    assert refusal(((2, 3), (1, 0), (3, 2), (0, 1))) == "duplicate edge (0, 1)"
    assert refusal(((0, 1), (1, 2, 3))) == "edge (1, 2, 3) is not a pair of user ids"
    # entries that are not integers are refused, not truncated or converted
    for edge in ((0.5, 1), ("0", "1"), (True, 2), (1, np.float64(2.0)), (2**70, 1)):
        assert refusal(((0, 1), edge, (0.5, 2))) == f"edge {edge!r} is not a pair of user ids"
    with pytest.raises(InvalidParamsError, match=r"^edge \[0\.5, 1\] is not a pair of user ids$"):
        Network.from_json_dict({"n_users": 2, "edges": [[0.5, 1]], "sender_links": [0],
                                "profiles": [{"c": 0.3}] * 2})
    # numpy integers are user ids
    assert refusal(((np.int64(1), 0), (np.uint8(0), 1))) == "duplicate edge (0, 1)"


def test_network_json_refuses_what_it_would_truncate_or_convert():
    doc = gen_linear(3).to_json_dict()
    assert Network.from_json_dict(doc).to_json_dict() == doc
    for field, value, want in (("n_users", 3.7, "an integer"), ("n_users", "3", "an integer"),
                               ("n_users", True, "an integer"), ("community", 0.9, "an integer"),
                               ("community", False, "an integer"), ("c", "0.3", "a number"),
                               ("c", None, "a number"), ("c", True, "a number")):
        bad = json.loads(json.dumps(doc))
        (bad if field == "n_users" else bad["profiles"][2])[field] = value
        with pytest.raises(InvalidParamsError, match=f"^{field} must be {want}, got "):
            Network.from_json_dict(bad)


def test_loaded_users_share_profiles():
    # users with equal c and community share one profile, as generated ones do
    net = gen_sbm(SbmSpec(sizes=(4, 4), theta=((0.9, 0.1), (0.1, 0.9)), seed=2,
                          c_by_community=(0.3, 0.4)))
    doc = net.to_json_dict()
    doc["profiles"][1] = {"c": 0.3, "community": 1}
    loaded = Network.from_json_dict(doc)
    assert loaded.profiles == tuple(UserProfile(**u) for u in doc["profiles"])
    assert len({id(u) for u in loaded.profiles}) == 3
    assert loaded.profiles[0] is loaded.profiles[2] and loaded.profiles[1] is not loaded.profiles[0]
    assert len({id(u) for u in Network.from_json_dict(gen_linear(5).to_json_dict()).profiles}) == 1


def test_edges_canonical_as_given_or_rebuilt():
    net = gen_sbm(SbmSpec(sizes=(6, 6), theta=((0.7, 0.1), (0.1, 0.7)), seed=3))
    rows = [list(e) for e in net.edges]
    # every input gives the same read-only edge_array and edges built from it
    for edges in (list(net.edges), [(j, i) for i, j in reversed(net.edges)], rows,
                  np.array(rows)):
        again = Network(n_users=12, edges=edges, sender_links=(0,), profiles=net.profiles)
        assert again.edges == net.edges and type(again.edges) is tuple
        assert all(type(x) is int for e in again.edges for x in e)
        assert again.edge_array.dtype == np.intp and again.edge_array.tolist() == rows
        assert not again.edge_array.flags.writeable and again.edges is again.edges
        # each user's neighbours ascend, as a sort by (source, target) lists them
        i, j = again.edge_array.T
        src, dst = np.concatenate([i, j]), np.concatenate([j, i])
        assert again.csr.indices.tolist() == dst[np.lexsort((dst, src))].tolist()


def receive_probs(net, p, on_side):
    """Each user's receive probability p**distance with the users of on_side
    on the sender's platform, from through_platform_distances and
    receive_map: 0 off that platform or out of its reach."""
    dist = through_platform_distances(net, on_side[:, None])[:, 0]
    return np.where(on_side, receive_map(p, dist), 0.0)


def test_validate_profiles_against_mu():
    net = gen_linear(3, c=0.25)
    validate_mu(net, 0.2)
    with pytest.raises(InvalidParamsError):
        validate_mu(net, 0.3)


def test_receive_probs_off_platform_is_zero():
    # sender on B, everyone on A
    assert receive_probs(gen_linear(3), 0.9, np.zeros(3, bool)).tolist() == [0.0, 0.0, 0.0]


def test_receive_probs_linear_all_with_sender():
    probs = receive_probs(gen_linear(3), 0.9, np.ones(3, bool))
    assert probs.tolist() == pytest.approx([1.0, 0.9, 0.81])


def test_receive_probs_two_paths_single_shortest():
    # two distinct length-2 routes still give p**2, not 1-(1-p**2)**2
    probs = receive_probs(diamond_network(), 0.6, np.ones(4, bool))
    assert probs[3] == pytest.approx(0.6**2, abs=1e-15)


def test_receive_probs_disconnected_zero():
    net = Network(
        n_users=3,
        edges=((0, 1),),
        sender_links=(0,),
        profiles=(UserProfile(c=0.3),) * 3,
    )
    assert receive_probs(net, 0.9, np.ones(3, bool))[2] == 0.0


def test_entry_receive_probs():
    # the receive probability a user would have after moving alone to the
    # sender's platform: its through-platform distance, everyone else fixed
    net = gen_linear(3)
    only_zero = np.array([True, False, False])
    dist = through_platform_distances(net, only_zero[:, None])[:, 0]
    entry = receive_map(0.9, dist)
    # user with no path to the sender's platform
    assert dist[2] == UNREACHED and entry[2] == 0.0
    # off the sender's platform entirely
    assert receive_probs(net, 0.9, only_zero)[1] == 0.0
    # one edge beyond the directly-linked user (distance convention: the
    # sender link itself costs nothing)
    assert entry[1] == pytest.approx(0.9)
    # a user already on the sender's platform sees its actual value
    assert entry[0] == pytest.approx(receive_probs(net, 0.9, only_zero)[0])


def test_receive_probs_monotone_in_platform_membership():
    rng = np.random.default_rng(5)
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
        base = receive_probs(net, 0.7, on_b)
        grown = on_b.copy()
        grown[rng.choice(off)] = True
        after = receive_probs(net, 0.7, grown)
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
    refuse_dense_operand(monkeypatch)
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
        want = float64_neighbour_counts(dense, on_side)
        for net in (sparse, dense):
            got = Columns.repeat((net,), n_cols).neighbour_counts(on_side)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        marked = on_side[:, :1].astype(np.float64)
        assert np.array_equal(Columns.repeat((sparse,), 1).neighbour_counts(marked), want[:, :1])
        assert sparse.degrees.tolist() == degrees(sparse)


def test_sparse_neighbours_ascending(monkeypatch):
    sparse = build_network(monkeypatch, 0, dict(
        n_users=5,
        edges=((3, 1), (0, 3), (3, 4)),
        sender_links=(0,),
        profiles=(UserProfile(c=0.3),) * 5,
    ))
    assert sparse.neighbours(3).tolist() == [0, 1, 4]
    assert sparse.neighbours(2).tolist() == []


@pytest.mark.parametrize("dense_max_users", [10**9, 0], ids=["dense", "CSR"])
def test_relay_distances_equal_a_fresh_bfs(monkeypatch, dense_max_users):
    rng = np.random.default_rng(17)
    unreached = 0
    for _ in range(20):
        fields, _, _ = widened_sbm_instance(rng)
        net = build_network(monkeypatch, dense_max_users, fields)
        everyone = np.ones((net.n_users, 1), dtype=bool)
        fresh = through_platform_distances(net, everyone)[:, 0]
        assert np.array_equal(net.relay_distances, fresh)
        unreached += int((fresh == UNREACHED).sum())
    assert unreached > 0


def test_relay_distances_are_read_only():
    net = gen_linear(4)
    with pytest.raises(ValueError):
        net.relay_distances[1] = 0
    assert net.relay_distances.tolist() == [0, 1, 2, 3]


def test_merge_keeps_rows_only_when_it_adds_no_network(monkeypatch):
    # a merge that only sheds networks keeps this pool's rows, moved down in
    # place, builds no layer and leaves this pool no rows; a merge that adds
    # a network starts with no rows and makes them when asked, while the
    # other pool keeps its own. Either way every row and every count equals
    # that of a fresh pool of the same columns, bit for bit
    nets = [gen_sbm(SbmSpec(sizes=(4, 4), theta=((0.8, 0.2), (0.2, 0.8)), seed=s))
            for s in range(5)]
    layers = []
    build = platmod.graph._adjacency_f32
    monkeypatch.setattr(platmod.graph, "_adjacency_f32",
                        lambda net: layers.append(net) or build(net))
    keys = ("adjacency_f32", "degrees", "c_values")

    def made(pool):
        pool.layers()
        pool.rows("degrees")
        pool.rows("c_values")
        return pool

    first = made(Columns.repeat(nets[:3], 2))
    # the other pool's network is one that stays
    shed = first.take([2, 3, 4]).merge(Columns(nets[2:3], np.array([0])))
    assert shed.networks == (nets[1], nets[2]) and shed.owner.tolist() == [0, 0, 1, 1]
    assert not first.shared and set(shed.shared) == set(keys)
    second = made(Columns.repeat(nets[2:], 1))
    grown = made(Columns.repeat(nets[:3], 2)).take([4, 5]).merge(second.take([0, 2]))
    assert grown.networks == (nets[2], nets[4]) and grown.owner.tolist() == [0, 0, 0, 1]
    assert not grown.shared and set(second.shared) == set(keys)
    assert len(layers) == 9  # three pools of made rows
    marked = np.random.default_rng(0).random((8, 4)) < 0.5
    for pool in (shed, grown):
        counts = pool.neighbour_counts(marked)
        fresh = Columns(pool.networks, pool.owner)
        assert pool.layers().tobytes() == fresh.layers().tobytes()
        for key in keys[1:]:
            assert pool.rows(key).tobytes() == fresh.rows(key).tobytes()
        assert counts.tobytes() == fresh.neighbour_counts(marked).tobytes()
    assert len(layers) == 9 + 2 + 2 + 2  # grown's own, then each fresh pool's
