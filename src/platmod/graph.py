"""Network representation, prototypical generators, and receive probabilities.

Distance convention: edges from the sender to its directly-linked users cost
0, user-user edges cost 1, and a user at distance k on the sender's platform
receives the signal with probability p**k. This is the only convention that
reproduces the geometric-series sender utility on a line exactly (directly
linked user receives with probability 1), so it is used everywhere.

Representation: a Network with at most DENSE_MAX_USERS users keeps a dense
float64 adjacency, so its BFS layers and neighbour counts are BLAS matmuls.
Above the cutoff it keeps only CSR edge arrays and never builds an n x n
matrix: the graph takes O(n + E) memory, and each BFS batch of B columns
adds n * ceil(B / 64) uint64 words of packed frontier bits. gen_sbm still
draws all n(n-1)/2 pairs, so SBM generation itself stays quadratic.

The cutoff is the measured crossover of one strictest_effective_regulation
solve (2-vCPU machine, numpy 2.4.6, one BLAS thread). On 3-community chain
SBMs with mean degree about 22, CSR took 1.8x the dense time at n = 90,
1.26x at 270, 0.75x at 360 and 0.45x at 480; on a line linked to the sender
at both ends, 1.28x at 90, 0.86x at 150 and 0.35x at 270. 256 sits between
the two crossovers (about 310 and 140 users).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InvalidParamsError
from .model import ModelParams, Platform, UserProfile

# Refuse to materialize absurdly large generated networks.
MAX_GENERATED_USERS = 10**7

UNREACHED = -1

# Networks with more users than this keep CSR edge arrays instead of the
# dense adjacency (measured crossover in the module docstring).
DENSE_MAX_USERS = 256

_WORD_BITS = 64


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
    directly. `dense` records the representation chosen at construction:
    True when n_users <= DENSE_MAX_USERS.
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
        canon = []
        for i, j in self.edges:
            if i == j:
                raise InvalidParamsError(f"self-loop at user {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidParamsError(f"edge ({i}, {j}) out of range")
            canon.append((i, j) if i < j else (j, i))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise InvalidParamsError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(canon))
        if not self.sender_links:
            raise InvalidParamsError("sender_links must be nonempty")
        links = sorted(set(self.sender_links))
        if links[0] < 0 or links[-1] >= n:
            raise InvalidParamsError("sender_links out of range")
        object.__setattr__(self, "sender_links", tuple(links))
        # the representation is fixed once, by size alone
        object.__setattr__(self, "dense", n <= DENSE_MAX_USERS)

    @cached_property
    def edge_array(self) -> np.ndarray:
        return np.array(self.edges, dtype=np.intp).reshape(-1, 2)

    @cached_property
    def adjacency_f(self) -> np.ndarray:
        """Dense float64 adjacency, the BLAS operand of small networks."""
        adj = np.zeros((self.n_users, self.n_users))
        i, j = self.edge_array.T
        adj[i, j] = adj[j, i] = 1.0
        return adj

    @cached_property
    def csr(self) -> Csr:
        i, j = self.edge_array.T
        src = np.concatenate([i, j])
        dst = np.concatenate([j, i])
        indptr = np.zeros(self.n_users + 1, dtype=np.intp)
        np.cumsum(self.degrees, out=indptr[1:])
        rows = np.flatnonzero(self.degrees)
        return Csr(indptr, dst[np.lexsort((dst, src))], rows, indptr[rows])

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
        return bool((all_relay_distances(self) != UNREACHED).all())

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


def gen_linear(n: int, c=0.3) -> Network:
    """Path graph 0-1-...-(n-1); the sender signals user 0."""
    if n < 1:
        raise InvalidParamsError("linear network needs n >= 1")
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
    n = sum(r**k for k in range(depth + 1))
    if n > MAX_GENERATED_USERS:
        raise InvalidParamsError(f"refusing to build a tree with {n} users")
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
    """
    sizes = spec.sizes
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    theta = np.asarray(spec.theta, dtype=np.float64)
    pair_prob = theta[labels][:, labels]
    rng = np.random.default_rng(spec.seed)
    iu, ju = np.triu_indices(n, k=1)  # row-major over pairs
    draws = rng.random(iu.size)
    keep = draws < pair_prob[iu, ju]
    edges = tuple(zip(iu[keep].tolist(), ju[keep].tolist()))

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
    no path.
    """
    if not network.dense:
        return _packed_distances(network, on_side)
    n, b = on_side.shape
    dist = np.full((n, b), UNREACHED, dtype=np.int32)
    touched = np.broadcast_to(network.sender_mask[:, None], (n, b)).copy()
    dist[touched] = 0
    frontier = touched & on_side
    adj_f = network.adjacency_f
    d = 0
    while frontier.any():
        d += 1
        reach = (adj_f @ frontier) > 0.0
        new = reach & (dist == UNREACHED)
        if not new.any():
            break
        dist[new] = d
        frontier = new & on_side
    return dist


def all_relay_distances(network: Network) -> np.ndarray:
    """through_platform_distances with every user on the sender's platform:
    the plain sender-to-user hop counts, one per user."""
    return through_platform_distances(network, np.ones((network.n_users, 1), dtype=bool))[:, 0]


def _packed_distances(network: Network, on_side: np.ndarray) -> np.ndarray:
    """through_platform_distances on CSR arrays, with the batch columns
    packed 64 to a uint64 word so one OR per neighbour serves 64 columns."""
    n, b = on_side.shape
    csr = network.csr
    words = -(-b // _WORD_BITS)
    padded = np.zeros((n, words * _WORD_BITS), dtype=bool)
    padded[:, :b] = on_side
    on = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)

    dist = np.full((n, b), UNREACHED, dtype=np.int32)
    sender = network.sender_mask
    dist[sender] = 0
    seen = np.zeros((n, words), dtype=np.uint64)
    seen[sender] = ~np.uint64(0)
    frontier = seen & on
    reach = np.zeros_like(seen)
    d = 0
    while frontier.any():
        d += 1
        if csr.rows.size:
            reach[csr.rows] = np.bitwise_or.reduceat(frontier[csr.indices], csr.starts, axis=0)
        new = reach & ~seen
        hit = np.flatnonzero(new.any(axis=1))
        if not hit.size:
            break
        seen[hit] |= new[hit]
        bits = np.unpackbits(new[hit].view(np.uint8), axis=1, count=b, bitorder="little")
        block = dist[hit]
        block[bits.view(bool)] = d
        dist[hit] = block
        frontier = new & on
    return dist


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
    return np.where(dist >= 0, p ** np.maximum(dist, 0), 0.0)


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

