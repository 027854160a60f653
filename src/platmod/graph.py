"""Network representation, prototypical generators, and receive probabilities.

Distance convention: edges from the sender to its directly-linked users cost
0, user-user edges cost 1, and a user at distance k on the sender's platform
receives the signal with probability p**k. This is the only convention that
reproduces the geometric-series sender utility on a line exactly (directly
linked user receives with probability 1), so it is used everywhere.

Representation: distances only shrink as users join a platform, so every
distance query is one relaxation (relax): from the sender links over an
all-UNREACHED start for a full query (through_platform_distances), or from
the users who just joined over the distances before they did, as the
adoption engine does each round. A one-column relaxation is a FIFO queue
walk over cached adjacency lists that visits only the users whose distance
falls and their neighbours, O(n + E) at most: a level-synchronous numpy
loop pays a fixed cost per level, which a deep network (a line of 2000 has
1999 levels) multiplies. A batch of two or more columns runs one level loop
whose reach step is Network.neighbour_counts. A Network with at most
DENSE_MAX_USERS users keeps a dense float64 adjacency, so those counts are
BLAS matmuls; above the cutoff it keeps only CSR edge arrays and the counts
are np.add.reduceat over them, so it never builds an n x n matrix and takes
O(n + E) memory plus O((n + E) * B) bytes per batch of B columns. gen_sbm
still draws all n(n-1)/2 pairs, so SBM generation takes quadratic time, but
it draws them in chunks of whole rows, so its memory stays bounded.

The plain sender-to-user hop counts (every user relaying) depend on the
graph alone; Network.relay_distances computes them once per network.

The cutoff sits just below the measured crossovers of solve_cells over the
5 x 11 (p, b_A) grid of the C5 chain sweep (2-vCPU machine, numpy 2.4.6,
one BLAS thread, dense and CSR runs interleaved in one process). On
3-community chain SBMs with mean degree about 22, CSR took 1.16x the dense
time at n = 90, 1.13x at 270, 1.08x at 330, 0.86x at 360 and 0.75x at 480;
on a line linked to the sender at both ends, 1.14x at 90, 1.13x at 150,
1.03x at 270, 0.78x at 320 and 0.82x at 400. At paper scale CSR took
1.1-1.3x the dense time on the 80 sampled 3 x 30 chains of the C5 sweep and
1.04-1.06x on validate_assumption1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InvalidParamsError
from .model import ModelParams, Platform, UserProfile

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


@dataclass(eq=False)
class Network:
    """Immutable-by-convention undirected user graph plus sender attachment.

    The sender is not a user node: it contributes to nobody's friend count
    and appears only through sender_links, the set of users it can signal
    directly. Construction checks the edges and makes them canonical:
    ascending (lo, hi) pairs, kept as given when they already are.
    `edge_array` holds them as an (n_edges, 2) intp array, and `dense`
    records the representation chosen at construction: True when
    n_users <= DENSE_MAX_USERS.
    """

    n_users: int
    edges: tuple[tuple[int, int], ...]
    sender_links: tuple[int, ...]
    profiles: tuple[UserProfile, ...]
    generator_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.n_users
        if n < 1:
            raise InvalidParamsError("network needs at least one user")
        if len(self.profiles) != n:
            raise InvalidParamsError("profiles must cover every user")
        edges = tuple(self.edges)
        if set(map(len, edges)) - {2}:
            raise InvalidParamsError("every edge must be a pair of users")
        pairs = np.fromiter(chain.from_iterable(edges), dtype=np.intp,
                            count=2 * len(edges)).reshape(-1, 2)
        # the first self-loop or out-of-range edge in input order, the
        # first duplicate in sorted order
        i, j = pairs.T
        bad = (i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n)
        if bad.any():
            k = int(bad.argmax())
            if i[k] == j[k]:
                raise InvalidParamsError(f"self-loop at user {i[k]}")
            raise InvalidParamsError(f"edge ({i[k]}, {j[k]}) out of range")
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        key = lo * n + hi
        # kept as given only if it is already ascending (lo, hi) tuples
        if not ((i < j).all() and (key[1:] > key[:-1]).all() and set(map(type, edges)) <= {tuple}):
            order = np.argsort(key, kind="stable")
            lo, hi, key = lo[order], hi[order], key[order]
            dup = np.flatnonzero(key[1:] == key[:-1])
            if dup.size:
                raise InvalidParamsError(f"duplicate edge {(int(lo[dup[0]]), int(hi[dup[0]]))}")
            edges = tuple(zip(lo.tolist(), hi.tolist()))
            pairs = np.stack([lo, hi], axis=1)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "edge_array", pairs)
        if not self.sender_links:
            raise InvalidParamsError("sender_links must be nonempty")
        links = sorted(set(self.sender_links))
        if links[0] < 0 or links[-1] >= n:
            raise InvalidParamsError("sender_links out of range")
        object.__setattr__(self, "sender_links", tuple(links))
        # the representation is fixed once, by size alone
        object.__setattr__(self, "dense", n <= DENSE_MAX_USERS)

    @cached_property
    def adjacency_f(self) -> np.ndarray:
        """Dense float64 adjacency, the BLAS operand of small networks."""
        adj = np.zeros((self.n_users, self.n_users))
        i, j = self.edge_array.T
        adj[i, j] = adj[j, i] = 1.0
        return adj

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
    def neighbour_counts(self):
        """Callable mapping an (n_users,) or (n_users, B) 0/1 array to each
        user's count of marked neighbours, as float64 of the same shape."""
        if self.dense:
            return self.adjacency_f.__matmul__
        return partial(_csr_neighbour_counts, self.csr)

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
        if len(self.sender_links) != 1 or len(self.edges) != self.n_users - 1:
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
            "edges": [list(e) for e in self.edges],
            "sender_links": list(self.sender_links),
            "profiles": [{"c": u.c, "community": u.community} for u in self.profiles],
            "generator_meta": self.generator_meta,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Network":
        return cls(
            n_users=int(doc["n_users"]),
            edges=tuple((int(i), int(j)) for i, j in doc["edges"]),
            sender_links=tuple(int(i) for i in doc["sender_links"]),
            profiles=tuple(
                UserProfile(c=float(u["c"]), community=int(u.get("community", 0)))
                for u in doc["profiles"]
            ),
            generator_meta=dict(doc.get("generator_meta", {})),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "Network":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def validate_profiles(network: Network, params: ModelParams) -> None:
    """Check mu < c_i < 1/2 for every user against concrete params."""
    validate_mu(network, params.mu)


def validate_mu(network: Network, mu: float) -> None:
    """validate_profiles for a bare mu, the one parameter the check reads."""
    bad = np.nonzero(network.c_values <= mu)[0]
    if bad.size:
        raise InvalidParamsError(
            f"user {int(bad[0])} has c={network.c_values[bad[0]]} <= mu={mu}"
        )


def _as_profiles(n: int, c) -> tuple[UserProfile, ...]:
    if np.isscalar(c):
        return tuple(UserProfile(c=float(c)) for _ in range(n))
    cs = list(c)
    if len(cs) != n:
        raise InvalidParamsError(f"need {n} per-user c values, got {len(cs)}")
    return tuple(UserProfile(c=float(x)) for x in cs)


def _check_size(what: str, n: int) -> None:
    """Refuse a generated network of more than MAX_GENERATED_USERS users,
    before anything is allocated. The message leaves n out: a requested
    count can have more digits than Python will print."""
    if n > MAX_GENERATED_USERS:
        raise InvalidParamsError(f"refusing to build {what} of more than "
                                 f"{MAX_GENERATED_USERS} users")


def gen_linear(n: int, c=0.3) -> Network:
    """Path graph 0-1-...-(n-1); the sender signals user 0."""
    if n < 1:
        raise InvalidParamsError("linear network needs n >= 1")
    _check_size("a line", n)
    return Network(
        n_users=n,
        edges=tuple((i, i + 1) for i in range(n - 1)),
        sender_links=(0,),
        profiles=_as_profiles(n, c),
        generator_meta={"kind": "linear", "n": n},
    )


def gen_star_chain(n_hubs: int, r: int, c=0.3) -> Network:
    """Chain of hubs, each carrying r-1 pendant leaves; sender signals hub 0.

    Hub ids are 0..n_hubs-1; the leaves of hub k follow in blocks of r-1.
    """
    if n_hubs < 1 or r < 1:
        raise InvalidParamsError("star chain needs n_hubs >= 1 and r >= 1")
    n = n_hubs * r
    _check_size("a star chain", n)
    edges = [(k, k + 1) for k in range(n_hubs - 1)]
    for k in range(n_hubs):
        base = n_hubs + k * (r - 1)
        edges.extend((k, base + j) for j in range(r - 1))
    return Network(
        n_users=n,
        edges=tuple(edges),
        sender_links=(0,),
        profiles=_as_profiles(n, c),
        generator_meta={"kind": "star_chain", "n_hubs": n_hubs, "r": r},
    )


def gen_regular_tree(r: int, depth: int, c=0.3) -> Network:
    """Complete r-ary tree of the given depth, rooted at user 0 (sender-linked)."""
    if r < 1 or depth < 0:
        raise InvalidParamsError("tree needs r >= 1 and depth >= 0")
    n = level = 1
    for _ in range(depth):  # a level at a time, so a deep tree is refused early
        level *= r
        n += level
        _check_size("a tree", n)
    edges = []
    next_id = 1
    frontier = [0]
    for _ in range(depth):
        new_frontier = []
        for parent in frontier:
            for _ in range(r):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return Network(
        n_users=n,
        edges=tuple(edges),
        sender_links=(0,),
        profiles=_as_profiles(n, c),
        generator_meta={"kind": "tree", "r": r, "depth": depth},
    )


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
        if m < 1 or any(s < 1 for s in self.sizes):
            raise InvalidParamsError("community sizes must all be >= 1")
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
    unchanged.
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
    edges = []
    lo = 0
    while lo < n - 1:
        hi = max(lo + 1, int(np.searchsorted(first, first[lo] + _SBM_PAIR_CHUNK, "right")) - 1)
        rows = np.arange(lo, hi)
        iu = np.repeat(rows, per_row[lo:hi])
        ju = np.arange(first[lo], first[hi]) - np.repeat(first[lo:hi] - rows - 1, per_row[lo:hi])
        keep = rng.random(iu.size) < theta[labels[iu], labels[ju]]
        edges.extend(zip(iu[keep].tolist(), ju[keep].tolist()))
        lo = hi

    if spec.sender_attach is None:
        attach = int(sum(sizes[: spec.sender_community]))
    else:
        attach = spec.sender_attach
        if not 0 <= attach < n or labels[attach] != spec.sender_community:
            raise InvalidParamsError("sender_attach must sit in the sender community")

    if np.isscalar(spec.c_by_community):
        cs = [float(spec.c_by_community)] * n
    else:
        cs = [float(spec.c_by_community[lab]) for lab in labels]
    profiles = tuple(
        UserProfile(c=cs[i], community=int(labels[i])) for i in range(n)
    )
    return Network(
        n_users=n,
        edges=edges,
        sender_links=(attach,),
        profiles=profiles,
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


def through_platform_distances(network: Network, on_side: np.ndarray) -> np.ndarray:
    """Shortest sender-to-user distances routed through on-side users only.

    on_side is (n_users, B) boolean for B independent platform configurations.
    A user's own membership does not gate being reached, only relaying: the
    returned value is therefore the actual distance for on-side users and the
    hypothetical entry distance for everyone else. UNREACHED marks users with
    no path. It is relax from the sender links alone, every relay joining.
    """
    dist = np.full(on_side.shape, UNREACHED, dtype=np.int32)
    dist[network.sender_mask] = 0
    return relax(network, dist, on_side, on_side)


def relax(network: Network, dist: np.ndarray, on_side: np.ndarray,
          joined: np.ndarray) -> np.ndarray:
    """Lower dist, in place, through the relays that just joined.

    dist (n_users, B) int32 holds the through_platform_distances of the relay
    set on_side & ~joined; afterwards it holds those of on_side (joined must
    lie inside it). Distances only shrink as relays join, so only the joined
    relays that are reached and the relays they bring closer need passing
    on, each column in increasing distance. Returns dist.
    """
    if dist.shape[1] == 1:
        _relax_column(network, dist[:, 0], on_side[:, 0], joined[:, 0])
        return dist
    # relays whose distance was set or lowered but not yet passed on
    pending = joined & (dist != UNREACHED)
    # UNREACHED reads as the largest uint32 here, so one comparison finds
    # both the unreached users and those a new path brings closer
    as_unsigned = dist.view(np.uint32)
    neighbour_counts = network.neighbour_counts
    while pending.any():
        # each column passes on its own lowest pending level; a column with
        # none pending gets the largest uint32, and its step (wrapped to 0)
        # reaches nobody
        level = np.where(pending, as_unsigned, _UNSIGNED_UNREACHED).min(axis=0)
        active = pending & (as_unsigned == level)
        pending ^= active
        step = level + 1
        lower = (neighbour_counts(active) > 0.0) & (as_unsigned > step)
        np.copyto(as_unsigned, step, where=lower)
        pending |= lower & on_side
    return dist


def _relax_column(network: Network, dist: np.ndarray, on_side: np.ndarray,
                  joined: np.ndarray) -> None:
    """relax for one column: a _queue_walk from the joined relays that are
    reached. It reads the distances as a list and writes each one that falls
    straight into dist, so it costs O(n) plus the users it visits."""
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


def receive_probs(network: Network, params: ModelParams, assignment) -> np.ndarray:
    """Per-user signal receive probability p**distance under an assignment.

    Zero for users off the sender's platform or unreachable through it.
    """
    on_side = (assignment.on_b if assignment.sender_platform is Platform.B
               else ~assignment.on_b)
    dist = through_platform_distances(network, on_side[:, None])[:, 0]
    probs = receive_map(params.p, dist)
    probs[~on_side] = 0.0
    return probs

