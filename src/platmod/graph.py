"""Network representation, prototypical generators, and receive probabilities.

Distance convention: edges from the sender to its directly-linked users cost
0, user-user edges cost 1, and a user at distance k on the sender's platform
receives the signal with probability p**k. This is the only convention that
reproduces the geometric-series sender utility on a line exactly (directly
linked user receives with probability 1), so it is used everywhere.

Storage: a Network keeps its edges once, as one read-only array of
ascending (lo, hi) pairs, and the generators build those arrays with numpy.
Users with the same c (and community) share one UserProfile, in a generated
network and in a loaded one, so a network holds O(n + E) numbers and n
pointers, not n objects.

Representation: a Network keeps data only: its edge array and, built
when first read, its CSR arrays, its adjacency lists and its relay
distances. Columns, a batch of columns each on its own network (one network
is the one-network case), does every neighbour count and relaxation on
them. Distances only shrink as users join a platform, so every distance
query is one relaxation (Columns.relax): from the sender links over an
all-UNREACHED start for a full query (through_platform_distances), or from
the users who just joined over the distances before they did, as the
adoption engine does each round.

Two count paths remain, chosen by representation alone. A Network with at
most DENSE_MAX_USERS users is dense, and a pool of dense networks counts
every column by one float32 matmul over the stack of its networks'
adjacency, built from the edge arrays (each column scattered to its
network's layer; a lone network is a stack of one), which the pool keeps
while it holds the network. Above the cutoff a network keeps only CSR edge
arrays and the counts are np.add.reduceat over them, so it never builds an
n x n matrix and takes O(n + E) memory plus O((n + E) * B) bytes per batch
of B columns. gen_sbm still draws all n(n-1)/2 pairs, so SBM generation
takes quadratic time, but it draws them in chunks of whole rows, so its
memory stays bounded.

Two relax paths remain. Where each network has one column and the pool is
not several dense networks, each column is a FIFO queue walk over its
network's adjacency lists that visits only the users whose distance falls
and their neighbours, O(n + E) at most: a level-synchronous numpy loop pays
a fixed cost per level, which a deep network multiplies (large_graph's
line of 2000 has 1999 levels, which once cost a level loop 162 ms).
Otherwise one level loop runs over every column, whose reach step is the
count, so the fixed cost per level is shared: by the columns of one
network, and by the one-column-per-network pools of the sweeps'
(chain_sweep) and validate_assumption1's (bloc_migration) walks and their
all-relay queries (pooled_relay_distances). The adjacency lists, a tuple of
tuples of Python ints, pay for their memory: a queue walk over the CSR
arrays, tolist()'d on each call, raised large_graph's CPU time per pass
from 0.056-0.061 to 0.071-0.073 s (2-vCPU machine, 3 alternating rounds
of 9 passes).

A CSR pool with one column per network keeps its queue walks, though a
level loop would share its per-level cost: validate_assumption1([0.25,
0.0625], seeds=range(20), sizes=(100, 100, 100)) walks pools of 20 such
networks of 300 users, and with the level loop there it took 0.27-0.38 s
CPU against 0.19-0.20 s (minimum of 3 runs, 4 alternating rounds, 2-vCPU
machine, the same output). No benchmark workload holds such a pool, so this
is the only measurement behind the choice.

The plain sender-to-user hop counts (every user relaying) depend on the
graph alone; Network.relay_distances computes them once per network, and
pooled_relay_distances computes a pool's in one query.

The cutoff sits well below the measured crossovers of solve_cells over the
5 x 11 (p, b_A) grid of the C5 chain sweep: about 350 users on chain SBMs
and about 300 on a line linked at both ends (2-vCPU machine, numpy 2.4.6,
one BLAS thread, dense and CSR runs interleaved in one process). Those runs
counted dense networks through a float64 adjacency, which the float32 stack
has since replaced. On 3-community chain SBMs with mean degree about 22,
CSR took 1.16x the dense time at n = 90, 1.13x at 270, 1.08x at 330, 0.86x
at 360 and 0.75x at 480; on a line linked to the sender at both ends, 1.14x
at 90, 1.13x at 150, 1.03x at 270, 0.78x at 320 and 0.82x at 400. At paper
scale CSR took 1.1-1.3x the dense time on the 80 sampled 3 x 30 chains of
the C5 sweep and 1.04-1.06x on validate_assumption1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InvalidParamsError
from .model import UserProfile

# Refuse to materialize absurdly large generated networks.
MAX_GENERATED_USERS = 10**7

UNREACHED = -1
# UNREACHED as a uint32 distance: larger than every real one
_UNSIGNED_UNREACHED = np.uint32(UNREACHED & 0xFFFFFFFF)

# Networks with more users than this keep CSR edge arrays instead of the
# dense adjacency (measured crossover in the module docstring).
DENSE_MAX_USERS = 256

# gen_sbm draws at most this many pairs at once (unless one row holds more)
_SBM_PAIR_CHUNK = 1 << 16


class Csr(NamedTuple):
    """Compressed sparse rows of the symmetric adjacency.

    User u's neighbours, ascending, are indices[indptr[u]:indptr[u + 1]].
    rows lists the users with at least one neighbour and starts their offsets
    into indices: ufunc.reduceat reads an empty segment as one element, so
    reductions run over those rows only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    starts: np.ndarray


class Network:
    """Immutable-by-convention undirected user graph plus sender attachment.

    The sender is not a user node: it contributes to nobody's friend count
    and appears only through sender_links, the users it can signal directly
    (kept ascending, without repeats). edges is a sequence of pairs of
    integers or an (m, 2) integer array. Construction refuses anything else,
    self-loops, out-of-range users and repeated edges, and keeps the edges
    only as `edge_array`, a read-only (m, 2) intp array of ascending (lo, hi)
    pairs; `edges` is built from it when first read. `dense` records the
    representation chosen at construction: True when
    n_users <= DENSE_MAX_USERS.
    """

    def __init__(self, n_users: int, edges, sender_links, profiles, generator_meta=None):
        n = self.n_users = n_users
        if n < 1:
            raise InvalidParamsError("network needs at least one user")
        if len(profiles) != n:
            raise InvalidParamsError("profiles must cover every user")
        self.profiles = profiles
        self.generator_meta = {} if generator_meta is None else generator_meta
        i, j = _edge_pairs(edges).astype(np.intp, copy=False).T
        # the first self-loop or out-of-range edge in input order, the
        # first duplicate in sorted order
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            k = int(bad.argmax())
            if i[k] == j[k]:
                raise InvalidParamsError(f"self-loop at user {i[k]}")
            raise InvalidParamsError(f"edge ({i[k]}, {j[k]}) out of range")
        key = np.sort(lo * n + hi)
        lo, hi = np.divmod(key, n)
        dup = np.flatnonzero(key[1:] == key[:-1])
        if dup.size:
            raise InvalidParamsError(f"duplicate edge {(int(lo[dup[0]]), int(hi[dup[0]]))}")
        self.edge_array = np.stack([lo, hi], axis=1)
        self.edge_array.flags.writeable = False
        links = tuple(sender_links)
        if not links:
            raise InvalidParamsError("sender_links must be nonempty")
        if not all(map(_is_user_id, links)):
            raise InvalidParamsError(f"sender_links {links!r} are not all user ids")
        links = sorted(set(map(int, links)))
        if links[0] < 0 or links[-1] >= n:
            raise InvalidParamsError("sender_links out of range")
        self.sender_links = tuple(links)
        # the representation is fixed once, by size alone
        self.dense = n <= DENSE_MAX_USERS

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """edge_array as a tuple of (lo, hi) pairs of Python ints."""
        return tuple(zip(*self.edge_array.T.tolist()))

    @cached_property
    def csr(self) -> Csr:
        # the edges ascend by (lo, hi), so a stable sort by source lists each
        # user's lower neighbours (from the hi column), then its higher ones,
        # each ascending
        i, j = self.edge_array.T
        src = np.concatenate([j, i])
        dst = np.concatenate([i, j])
        indptr = np.zeros(self.n_users + 1, dtype=np.intp)
        np.cumsum(self.degrees, out=indptr[1:])
        rows = np.flatnonzero(self.degrees)
        return Csr(indptr, dst[np.argsort(src, kind="stable")], rows, indptr[rows])

    @cached_property
    def adjacency_lists(self) -> tuple[tuple[int, ...], ...]:
        """Each user's neighbours, ascending, as Python ints: the operand of
        the one-column relaxation. Read-only (tuples)."""
        ptr = self.csr.indptr.tolist()
        idx = self.csr.indices.tolist()
        return tuple(tuple(idx[a:b]) for a, b in zip(ptr, ptr[1:]))

    def neighbours(self, user: int) -> np.ndarray:
        """The user's neighbours, ascending (a view into the CSR arrays)."""
        indptr, indices = self.csr[:2]
        return indices[indptr[user]:indptr[user + 1]]

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.n_users)

    @cached_property
    def sender_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_users, dtype=bool)
        mask[list(self.sender_links)] = True
        return mask

    @cached_property
    def c_values(self) -> np.ndarray:
        return np.array([u.c for u in self.profiles], dtype=np.float64)

    @cached_property
    def communities(self) -> np.ndarray:
        return np.array([u.community for u in self.profiles], dtype=np.int64)

    @property
    def n_communities(self) -> int:
        return int(self.communities.max()) + 1

    @cached_property
    def community_sizes(self) -> tuple[int, ...]:
        counts = np.bincount(self.communities, minlength=self.n_communities)
        return tuple(int(x) for x in counts)

    @cached_property
    def is_cascade_tree(self) -> bool:
        """Connected, acyclic, single sender link: the adoption process is an
        exact root-to-leaf wave on such networks (fast path in regulation)."""
        if len(self.sender_links) != 1 or len(self.edge_array) != self.n_users - 1:
            return False
        return bool((self.relay_distances != UNREACHED).all())

    @cached_property
    def relay_distances(self) -> np.ndarray:
        """through_platform_distances with every user on the sender's platform:
        the plain sender-to-user hop counts, one per user. Read-only."""
        dist = through_platform_distances(self, np.ones((self.n_users, 1), dtype=bool))[:, 0]
        dist.flags.writeable = False
        return dist

    def to_json_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "edges": self.edge_array.tolist(),
            "sender_links": list(self.sender_links),
            "profiles": [{"c": u.c, "community": u.community} for u in self.profiles],
            "generator_meta": self.generator_meta,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Network":
        """The Network of a to_json_dict document. Refuses an n_users or
        community that is not an integer and a c that is not a number. Users
        with equal c and community share one UserProfile."""
        from numbers import Integral, Real

        def typed(value, name: str, kind):
            """value as an int (kind Integral) or a float (kind Real)."""
            if isinstance(value, bool) or not isinstance(value, kind):
                want = "an integer" if kind is Integral else "a number"
                raise InvalidParamsError(f"{name} must be {want}, got {value!r}")
            return int(value) if kind is Integral else float(value)

        shared = {}

        def profile(u: dict) -> UserProfile:
            key = (typed(u["c"], "c", Real), typed(u.get("community", 0), "community", Integral))
            if key not in shared:
                shared[key] = UserProfile(*key)
            return shared[key]

        profiles = tuple(map(profile, doc["profiles"]))
        return cls(typed(doc["n_users"], "n_users", Integral), doc["edges"], doc["sender_links"],
                   profiles, dict(doc.get("generator_meta", {})))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "Network":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def validate_mu(network: Network, mu: float) -> None:
    """Check mu < c_i for every user (UserProfile holds each c_i below 1/2)."""
    bad = np.nonzero(network.c_values <= mu)[0]
    if bad.size:
        raise InvalidParamsError(
            f"user {int(bad[0])} has c={network.c_values[bad[0]]} <= mu={mu}"
        )


def _as_profiles(n: int, c) -> tuple[UserProfile, ...]:
    """One c for every user or one per user; users with equal c share one
    profile."""
    if np.isscalar(c):
        return (UserProfile(c=float(c)),) * n
    cs = [float(x) for x in c]
    if len(cs) != n:
        raise InvalidParamsError(f"need {n} per-user c values, got {len(cs)}")
    shared = {x: UserProfile(c=x) for x in dict.fromkeys(cs)}
    return tuple(map(shared.__getitem__, cs))


def _is_user_id(x) -> bool:
    """An integer that int64 holds, numpy's included; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and -2**63 <= x < 2**63


def _edge_pairs(edges) -> np.ndarray:
    """edges as an (m, 2) integer array. Refuses the first edge, in input
    order, that is not a pair of user ids."""
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
        return edges
    import struct

    edges = tuple(edges)
    try:
        flat = np.frombuffer(struct.pack(f"{2 * len(edges)}q", *chain.from_iterable(edges)),
                             dtype=np.int64)
    except struct.error:  # a float, a string, an integer beyond int64 or a wrong count
        flat = None
    # struct packs a bool as 0 or 1, so only those values need a closer look
    if flat is None or set(map(len, edges)) - {2} or not all(
            _is_user_id(edges[k >> 1][k & 1]) for k in np.flatnonzero(flat >> 1 == 0).tolist()):
        first = next(e for e in edges if len(e) != 2 or not all(map(_is_user_id, e)))
        raise InvalidParamsError(f"edge {first!r} is not a pair of user ids")
    return flat.reshape(-1, 2)


def _check_size(what: str, n: int) -> None:
    """Refuse a generated network of more than MAX_GENERATED_USERS users,
    before anything is allocated. The message leaves n out: a requested
    count can have more digits than Python will print."""
    if n > MAX_GENERATED_USERS:
        raise InvalidParamsError(f"refusing to build {what} of more than "
                                 f"{MAX_GENERATED_USERS} users")


def _tree(parents: np.ndarray, c, meta: dict) -> Network:
    """The tree rooted at the sender-linked user 0 in which user k + 1 hangs
    from user parents[k]."""
    n = len(parents) + 1
    return Network(n, np.stack([parents, np.arange(1, n)], axis=1), (0,), _as_profiles(n, c), meta)


def gen_linear(n: int, c=0.3) -> Network:
    """Path graph 0-1-...-(n-1); the sender signals user 0."""
    if n < 1:
        raise InvalidParamsError("linear network needs n >= 1")
    _check_size("a line", n)
    return _tree(np.arange(n - 1), c, {"kind": "linear", "n": n})


def gen_star_chain(n_hubs: int, r: int, c=0.3) -> Network:
    """Chain of hubs, each carrying r-1 pendant leaves; sender signals hub 0.

    Hub ids are 0..n_hubs-1; the leaves of hub k follow in blocks of r-1.
    """
    if n_hubs < 1 or r < 1:
        raise InvalidParamsError("star chain needs n_hubs >= 1 and r >= 1")
    n = n_hubs * r
    _check_size("a star chain", n)
    k = np.arange(n - 1)
    parents = np.where(k < n_hubs - 1, k, (k + 1 - n_hubs) // max(r - 1, 1))
    return _tree(parents, c, {"kind": "star_chain", "n_hubs": n_hubs, "r": r})


def gen_regular_tree(r: int, depth: int, c=0.3) -> Network:
    """Complete r-ary tree of the given depth, rooted at user 0 (sender-linked)."""
    if r < 1 or depth < 0:
        raise InvalidParamsError("tree needs r >= 1 and depth >= 0")
    n = level = 1
    for _ in range(depth):  # a level at a time, so a deep tree is refused early
        level *= r
        n += level
        _check_size("a tree", n)
    # users are numbered level by level, so user u > 0 hangs from (u - 1) // r
    return _tree(np.arange(n - 1) // r, c, {"kind": "tree", "r": r, "depth": depth})


def check_community_sizes(sizes) -> None:
    """Refuse an SBM's community sizes unless there is one at least and each
    is at least 1."""
    if len(sizes) < 1 or any(s < 1 for s in sizes):
        raise InvalidParamsError("community sizes must all be >= 1")


@dataclass(frozen=True)
class SbmSpec:
    """Stochastic block model: sizes per community, symmetric link-probability
    matrix theta, the sender's community, and one designated attachment user
    (defaults to the first user of the sender's community)."""

    sizes: tuple[int, ...]
    theta: tuple[tuple[float, ...], ...]
    sender_community: int = 0
    sender_attach: int | None = None
    seed: int = 0
    c_by_community: tuple[float, ...] | float = 0.3

    def __post_init__(self):
        m = len(self.sizes)
        check_community_sizes(self.sizes)
        if len(self.theta) != m or any(len(row) != m for row in self.theta):
            raise InvalidParamsError("theta must be MxM")
        for i in range(m):
            for j in range(m):
                v = self.theta[i][j]
                if not 0.0 <= v <= 1.0:
                    raise InvalidParamsError(f"theta[{i}][{j}]={v} outside [0, 1]")
                if self.theta[i][j] != self.theta[j][i]:
                    raise InvalidParamsError("theta must be symmetric")
        if not 0 <= self.sender_community < m:
            raise InvalidParamsError("sender_community out of range")
        if not np.isscalar(self.c_by_community) and len(self.c_by_community) != m:
            raise InvalidParamsError("need one c per community")


def gen_sbm(spec: SbmSpec) -> Network:
    """Sample an SBM network reproducibly.

    Each unordered pair (i, j) with i < j is an edge with probability
    theta[community(i)][community(j)], drawn from a seeded generator in
    row-major pair order, so identical spec+seed gives an identical edge set.
    The draws come in chunks of whole rows, at most _SBM_PAIR_CHUNK pairs
    each unless one row holds more; consecutive draws from one generator
    form the same stream as a single draw, so the chunking leaves the edges
    unchanged. A row's probabilities are one run per community block after
    it, and only the kept pairs are decoded from their flat index, so a
    chunk builds no per-pair index arrays.
    """
    sizes = spec.sizes
    n = sum(sizes)
    _check_size("an SBM", n)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    theta = np.asarray(spec.theta, dtype=np.float64)
    rng = np.random.default_rng(spec.seed)
    # row i holds the pairs (i, i+1..n-1); first[i] counts the pairs before it
    per_row = np.arange(n - 1, -1, -1)
    first = np.concatenate([[0], np.cumsum(per_row)])
    # a row's partners run through the community blocks after it in order, so
    # its probabilities are one run per block: theta[own, block] repeated
    # over its partners in that block
    ends = np.cumsum(sizes)
    kept = [np.empty((0, 2), dtype=np.intp)]
    lo = 0
    while lo < n - 1:
        hi = max(lo + 1, int(np.searchsorted(first, first[lo] + _SBM_PAIR_CHUNK, "right")) - 1)
        rows = np.arange(lo, hi)
        runs = np.minimum(np.maximum(ends - rows[:, None] - 1, 0), sizes)
        keep = rng.random(first[hi] - first[lo]) < np.repeat(theta[labels[rows]].ravel(),
                                                              runs.ravel())
        # decode only the kept pairs from their flat index
        k = np.flatnonzero(keep) + first[lo]
        iu = np.searchsorted(first[lo:hi], k, "right") - 1 + lo
        kept.append(np.stack([iu, k - first[iu] + iu + 1], axis=1))
        lo = hi

    if spec.sender_attach is None:
        attach = int(sum(sizes[: spec.sender_community]))
    else:
        attach = spec.sender_attach
        if not 0 <= attach < n or labels[attach] != spec.sender_community:
            raise InvalidParamsError("sender_attach must sit in the sender community")

    cs = spec.c_by_community
    if np.isscalar(cs):
        cs = [cs] * len(sizes)
    # each community's users share one profile
    shared = [UserProfile(c=float(x), community=k) for k, x in enumerate(cs)]
    return Network(
        n_users=n,
        edges=np.concatenate(kept),
        sender_links=(attach,),
        profiles=tuple(map(shared.__getitem__, labels.tolist())),
        generator_meta={
            "kind": "sbm",
            "sizes": list(sizes),
            "theta": [list(row) for row in spec.theta],
            "sender_community": spec.sender_community,
            "sender_attach": attach,
            "seed": spec.seed,
            "community_sizes": list(sizes),
        },
    )


@dataclass(frozen=True, eq=False)
class Columns:
    """The network of each column of a batch.

    networks share n_users, and column j runs on networks[owner[j]]; each
    network's columns are contiguous (owner is nondecreasing), so per-network
    work runs on column slices, in place. shared, common to a pool and every
    take of it, keeps the per-network rows (rows) the pool made from its own
    networks.

    Columns does every neighbour count and relaxation (the module docstring
    names the paths). A pool's networks share n_users, so they are all
    dense or all CSR, and the count goes by that alone. A dense pool counts
    by one float32 matmul over the (networks, n, n) stack of their
    adjacency, a row the pool keeps, with each column scattered to its
    network's layer at its rank among that network's columns; a lone
    network is a stack of one, so a pool that set-aside has left with one
    network counts through its own layer. Counts of at most
    DENSE_MAX_USERS < 2**24 are exact in float32. A CSR pool counts each
    network's columns with np.add.reduceat over its CSR arrays.
    """

    networks: tuple[Network, ...]
    owner: np.ndarray
    shared: dict = field(default_factory=dict, repr=False)

    @classmethod
    def repeat(cls, networks, n_cols: int) -> "Columns":
        """n_cols columns on each network, in order; every network must have
        the same number of users."""
        networks = tuple(networks)
        if len({net.n_users for net in networks}) > 1:
            raise InvalidParamsError("networks batched together must have the same size")
        return cls(networks, np.repeat(np.arange(len(networks)), n_cols))

    @property
    def n_users(self) -> int:
        return self.networks[0].n_users

    def take(self, keep) -> "Columns":
        """The columns selected by keep (a boolean mask or indices), in order."""
        return Columns(self.networks, self.owner[keep], self.shared)

    def merge(self, other: "Columns | None" = None) -> "Columns":
        """These columns, then other's, on only the networks that hold one:
        these columns' networks, then those of other's columns that are new
        (the same object is the same network). A merge that adds no network
        keeps this pool's rows, moved down in place, so a pool that only
        sheds networks never holds two stacks at once; one that adds a
        network makes its rows when asked. Either way this pool gives its
        rows up and makes them again if asked."""
        kept = np.unique(self.owner)
        networks = [self.networks[k] for k in kept.tolist()]
        owner = np.searchsorted(kept, self.owner)
        if other is not None:
            if networks and other.n_users != self.n_users:
                raise InvalidParamsError("networks batched together must have the same size")
            slot = {id(net): k for k, net in enumerate(networks)}
            moved = np.zeros(len(other.networks), dtype=np.intp)
            for k in np.unique(other.owner).tolist():
                net = other.networks[k]
                if id(net) not in slot:
                    slot[id(net)] = len(networks)
                    networks.append(net)
                moved[k] = slot[id(net)]
            owner = np.concatenate([owner, moved[other.owner]])
        shared = {}
        if len(networks) == kept.size:
            for key, rows in self.shared.items():
                for k, old in enumerate(kept.tolist()):  # kept ascends
                    if k != old:
                        rows[k] = rows[old]
                shared[key] = rows[:kept.size]
        self.shared.clear()
        return Columns(tuple(networks), owner, shared)

    def rows(self, key, per_network=None) -> np.ndarray:
        """per_network(net) of each network (by default its attribute named
        key), stacked: made once for a pool and its takes, and kept in
        shared under key, so per_network must give a network the same row
        whenever it is asked."""
        if key not in self.shared:
            self.shared[key] = _stacked(per_network or attrgetter(key), self.networks)
        return self.shared[key]

    def spread(self, rows: np.ndarray) -> np.ndarray:
        """rows, one (n_users,) row per network, at each column: (n_users, n_cols)."""
        return rows.take(self.owner, axis=0).T

    @cached_property
    def runs(self) -> list[tuple[Network, slice]]:
        """(network, its columns) for every network with a column."""
        if len(self.networks) == 1:
            return [(self.networks[0], slice(None))]
        bounds = np.searchsorted(self.owner, np.arange(len(self.networks) + 1)).tolist()
        return [(net, slice(a, b)) for net, a, b in zip(self.networks, bounds, bounds[1:])
                if a < b]

    @cached_property
    def batched(self) -> bool:
        """Whether the pool holds several dense networks, whose columns one
        matmul counts together, so relax runs the level loop even where
        each network has one column."""
        return len(self.networks) > 1 and self.networks[0].dense

    @cached_property
    def _ranks(self) -> tuple[np.ndarray, int]:
        """Each column's rank among its network's columns, and the most
        columns one network has."""
        rank = np.arange(self.owner.size) - np.searchsorted(self.owner, self.owner)
        return rank, int(rank.max(initial=-1)) + 1

    def layers(self) -> np.ndarray | None:
        """The (networks, n, n) float32 adjacency stack of a dense pool,
        which neighbour_counts reads, kept like any row; None for CSR."""
        return self.rows("adjacency_f32", _adjacency_f32) if self.networks[0].dense else None

    def neighbour_counts(self, marked: np.ndarray) -> np.ndarray:
        """Each column's count of marked neighbours on its own network:
        marked is (n_users, n_cols) 0/1, the counts float64 of that shape."""
        stack = self.layers()
        if stack is not None:
            # a layer is symmetric, so a column times it is its count
            rank, width = self._ranks
            per_net = np.zeros((len(self.networks), width, self.n_users), dtype=np.float32)
            per_net[self.owner, rank] = marked.T
            return np.matmul(per_net, stack)[self.owner, rank].T.astype(np.float64)
        counts = np.empty(marked.shape)
        for net, cols in self.runs:
            counts[:, cols] = _csr_neighbour_counts(net.csr, marked[:, cols])
        return counts

    def relax(self, dist: np.ndarray, on_side: np.ndarray, joined: np.ndarray) -> np.ndarray:
        """Lower dist, in place, through the relays that just joined, each
        column on its own network.

        dist (n_users, n_cols) int32 holds the through_platform_distances of
        the relay set on_side & ~joined; afterwards it holds those of on_side
        (joined must lie inside it). Distances only shrink as relays join,
        so only the joined relays that are reached and the relays they bring
        closer need passing on, each column in increasing distance. Where
        every network has one column and the pool is not batched, that is a
        queue walk per network; else one level loop over every column,
        whose reach step is neighbour_counts. Returns dist.
        """
        if self.owner.size == len(self.runs) and not self.batched:
            for j, k in enumerate(self.owner.tolist()):
                _relax_column(self.networks[k], dist[:, j], on_side[:, j], joined[:, j])
            return dist
        # relays whose distance was set or lowered but not yet passed on
        pending = joined & (dist != UNREACHED)
        # UNREACHED reads as the largest uint32 here, so one comparison finds
        # both the unreached users and those a new path brings closer
        as_unsigned = dist.view(np.uint32)
        while pending.any():
            # each column passes on its own lowest pending level; a column
            # with none pending gets the largest uint32, and its step
            # (wrapped to 0) reaches nobody
            level = np.where(pending, as_unsigned, _UNSIGNED_UNREACHED).min(axis=0)
            active = pending & (as_unsigned == level)
            pending ^= active
            step = level + 1
            lower = (self.neighbour_counts(active) > 0.0) & (as_unsigned > step)
            np.copyto(as_unsigned, step, where=lower)
            pending |= lower & on_side
        return dist


def _stacked(per_network, networks) -> np.ndarray:
    """per_network(net) of each network, written one network at a time into
    a new array."""
    for k, net in enumerate(networks):
        row = per_network(net)
        if k == 0:
            out = np.empty((len(networks),) + row.shape, dtype=row.dtype)
        out[k] = row
    return out


def _adjacency_f32(network: Network) -> np.ndarray:
    """A network's adjacency as float32, built from its edge array."""
    adj = np.zeros((network.n_users, network.n_users), dtype=np.float32)
    i, j = network.edge_array.T
    adj[i, j] = adj[j, i] = 1.0
    return adj


def through_platform_distances(network: Network | Columns, on_side: np.ndarray) -> np.ndarray:
    """Shortest sender-to-user distances routed through on-side users only.

    on_side is (n_users, B) boolean for B independent platform configurations,
    on network, or each on its own network of Columns. A user's own
    membership does not gate being reached, only relaying: the returned
    value is therefore the actual distance for on-side users and the
    hypothetical entry distance for everyone else. UNREACHED marks users with
    no path. It is Columns.relax from the sender links alone, every relay
    joining.
    """
    cols = (network if isinstance(network, Columns)
            else Columns.repeat((network,), on_side.shape[1]))
    linked = cols.spread(cols.rows("sender_mask"))
    dist = np.where(linked, np.int32(0), np.int32(UNREACHED))
    cols.relax(dist, on_side, on_side)
    return dist


def pooled_relay_distances(pool: Columns) -> list[np.ndarray]:
    """Network.relay_distances of each network of a pool, whose rows the
    query reads and keeps. The ones not yet computed come from one
    through_platform_distances query over them, one column per network, and
    are kept on their networks."""
    missing = [k for k, net in enumerate(pool.networks) if "relay_distances" not in vars(net)]
    if missing:
        # one column on each missing network, reading the pool's rows
        query = Columns(pool.networks, np.array(missing, dtype=np.intp), pool.shared)
        on_side = np.ones((pool.n_users, len(missing)), dtype=bool)
        rows = through_platform_distances(query, on_side).T.copy()
        rows.flags.writeable = False
        for k, row in zip(missing, rows):
            vars(pool.networks[k])["relay_distances"] = row
    return [net.relay_distances for net in pool.networks]


def _relax_column(network: Network, dist: np.ndarray, on_side: np.ndarray,
                  joined: np.ndarray) -> None:
    """Columns.relax for one column: a _queue_walk from the joined relays
    that are reached. It reads the distances as a list and writes each one
    that falls straight into dist, so it costs O(n) plus the users it
    visits."""
    seeds = (joined & (dist != UNREACHED)).nonzero()[0]
    if not seeds.size:
        return
    as_unsigned = dist.view(np.uint32)
    d = as_unsigned.tolist()
    _queue_walk(network.adjacency_lists, d, as_unsigned.data, on_side.data,
                sorted(seeds.tolist(), key=d.__getitem__))


def _queue_walk(neighbours, d, out, relays, seeds) -> None:
    """The one-column relaxation: lower d, the distances as a list of
    uint32 values (UNREACHED the largest), from seeds, relays sorted by
    distance, writing each distance that falls into out as well.

    While seeds are left it walks one level at a time, and the seeds of a
    level join it there (a seed that fell below its level since sorting
    joined when it fell); a level with nothing on it jumps to the next
    seed's. The rest is a FIFO queue walk over the adjacency lists, which
    visits only the users whose distance falls and their neighbours, where
    a level-synchronous numpy loop pays a fixed cost per level.
    """
    keys = [d[u] for u in seeds]
    k, end = 0, len(seeds)
    frontier, level = [], keys[0] if seeds else 0
    while k < end:
        while k < end and keys[k] == level:
            if d[seeds[k]] == level:
                frontier.append(seeds[k])
            k += 1
        if not frontier:
            if k < end:
                level = keys[k]
            continue
        reached, du = [], level + 1
        for u in frontier:
            for v in neighbours[u]:
                if d[v] > du:
                    d[v] = out[v] = du
                    if relays[v]:
                        reached.append(v)
        frontier, level = reached, du
    # the list grows while it is walked, so it is the FIFO queue
    for u in frontier:
        du = d[u] + 1
        for v in neighbours[u]:
            if d[v] > du:
                d[v] = out[v] = du
                if relays[v]:
                    frontier.append(v)


def _csr_neighbour_counts(csr: Csr, marked: np.ndarray) -> np.ndarray:
    # reduce along the last axis of the transposed batch, where each user's
    # neighbour segment is contiguous
    per_col = np.asarray(marked).T.astype(np.uint8, order="C")
    counts = np.zeros(per_col.shape)
    if csr.rows.size:
        counts[..., csr.rows] = np.add.reduceat(
            per_col.take(csr.indices, axis=-1), csr.starts, axis=-1, dtype=np.int32
        )
    return counts.T


def receive_map(p, dist: np.ndarray) -> np.ndarray:
    """Receive probability p**dist at each through-platform distance, 0 where
    dist is UNREACHED. p is a scalar or broadcasts against dist (one value
    per batch column); with p in (0, 1) and dist >= 0 nothing overflows."""
    probs = p ** np.maximum(dist, 0)
    np.copyto(probs, 0.0, where=dist < 0)
    return probs
