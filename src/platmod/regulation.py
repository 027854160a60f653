"""Sender's platform/deceit best response and the strictest effective regulation.

The sender utility on B is piecewise linear in beta: increasing while the
equilibrium adopter set stays constant, with downward jumps where the set
shrinks or a user stops trusting. A cell's pieces are a list
[(top, on_b, p_recv), ...] with tops descending; each piece holds its set on
(next top, top]. On A every user stays with the sender: one piece
(inf, all users, p_A). On either platform the optimum (_best) is a max over
candidate levels, each scored on its piece's set, a larger one winning only
by more than TIE_TOL: on B the tops, the trust thresholds and 0; on A under
a cap, the cap and the trust thresholds up to it.

On general networks _walk builds the B pieces from beta_max down. The
synchronous process from all-A reaches the least fixed point of a monotone
map, so a set stays the equilibrium until an outsider's advantage, linear in
beta while it trusts, reaches the join tie; that breakpoint is closed form
in the current set, and a run warm-started from the current set reaches the
set below it (parametric search, Megiddo 1983; Milgrom & Roberts 1990). A
walk of (network, cell) columns (graph.Columns) is one engine call from
all-A at beta_max: whenever a column settles, the walk's step callback
records its piece and names its next breakpoint, and the engine restarts
the column there from the state it settled in, in the next round, so each
column runs only its own rounds (iteration-level scheduling: Yu et al.,
Orca, OSDI 2022). On cascade trees cascade_thresholds gives the tops and
cascade_final_b_sets the sets.

_b_sides drives every B side: it computes each network's trust test once
and the pool's relay distances in one query (graph.pooled_relay_distances,
kept on the networks, where the A side reads them), walks the columns off
cascade trees in blocks of at most POOL_COLUMNS, makes a tree's pieces one
cell at a time and hands each network its pieces. solve_pool (the same
cells on several networks of one size), sender_equilibria (one cell on
each) and optimal_B read it; the other entry points are views of these.
Payoffs and the trust test come from the model's kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple

import numpy as np

from .adoption import (
    batch_final_b_sets,
    cascade_final_b_sets,
    cascade_thresholds,
    _beta_primes,
)
from .errors import InvalidParamsError, InvariantViolationError
from .graph import Columns, Network, pooled_relay_distances, receive_map
from .model import (ModelParams, Platform, TIE_TOL, news_gain, sender_payoff,
                    sender_side_advantage, sender_weight, trusts)

# the most columns one walk (one engine call) holds; more are walked in blocks
POOL_COLUMNS = 220

# _next_tops takes at most this many columns at once: its temporaries, about
# 3 KiB per column at n = 90, live beside the engine's round state. A
# 220-column walk of four 3x30 chain samples peaks at 5.7 KiB per column with
# it and at 7.7 KiB when every column that settles in a round goes at once
_TOPS_COLUMNS = 32

# a breakpoint is predicted where an outsider's advantage reaches -_JOIN_MARGIN:
# inside the tie band, so the engine's roundoff still lets the outsider join
_JOIN_MARGIN = TIE_TOL / 2


class RegulationKind(Enum):
    NO_EFFECTIVE_REGULATION = "NoEffectiveRegulation"
    ANY_REGULATION = "AnyRegulation"
    MODERATE = "Moderate"


@dataclass(frozen=True)
class SenderDecision:
    platform: Platform
    beta_star: float
    utility: float


@dataclass(frozen=True)
class RegulationResult:
    kind: RegulationKind
    rho_se: float | None
    u_star_b: float
    beta_star_b: float
    sum_p_a: float


class _Trust(NamedTuple):
    """A network's trust test, made once: limit is each user's trust
    threshold plus TIE_TOL, so a user trusts beta iff beta <= limit (as
    model.trusts), and floor its smallest, at or below which every user
    trusts."""

    limit: np.ndarray
    floor: float


def _best(mu: float, trust: _Trust, candidates: list[float],
          pieces: list) -> tuple[float, float]:
    """The sender's best (beta, utility) over candidates (ascending), each
    scored on the set of the piece that holds it; a larger candidate wins
    only by more than TIE_TOL. Where every user trusts, the persuaded users
    are the piece's whole set, summed once per piece."""
    best_beta, best_u = 0.0, -1.0
    k = len(pieces) - 1  # the piece with the lowest top
    summed = {}  # piece index -> summed p_recv of its whole set
    for b in candidates:
        while pieces[k][0] < b:
            k -= 1
        _, on_b, p_recv = pieces[k]
        if b > trust.floor:
            u = sender_payoff(mu, b, p_recv, on_b & (b <= trust.limit))
        else:
            if k not in summed:
                summed[k] = float(p_recv[on_b].sum())
            u = sender_weight(mu, b) * summed[k]
        if u > best_u + TIE_TOL:
            best_beta, best_u = b, u
    return best_beta, best_u


def utility_on_A(network: Network, params: ModelParams, beta: float) -> float:
    """Sender utility when it stays on A and all users stay with it.

    Sums receive probabilities over users whose individual trust threshold
    admits beta; homogeneous users reduce to (mu + (1-mu)beta) * sum_i p_iA.
    """
    bp = _beta_primes(network, params.mu)
    p_a = receive_map(params.p, network.relay_distances)
    return sender_payoff(params.mu, beta, p_a, trusts(beta, bp))


def _walk(cols: Columns, cells: list[ModelParams], beta_max: np.ndarray) -> list[list]:
    """Pieces of every column, cell cells[j] on network cols.owner[j], walked
    down from its network's beta_max (one per network, its largest trust
    threshold); all cells share mu.

    The walk is one engine call from all-A at beta_max, and step below is
    its callback. Whenever a column settles, step records its piece and
    returns its next breakpoint (_next_tops), and the engine restarts the
    column there from the state it settled in (set, distances, B-neighbour
    counts), so no step runs a full distance query. Within a piece no
    outsider's advantage reaches the join tie, so the next breakpoint is
    closed form in that state, and the engine started from it gives the set
    there. Each column runs only its own rounds: one that settles early
    restarts while the others still move.
    """
    mu = cells[0].mu
    p, b_a, b_b = (np.array([getattr(params, name) for params in cells])
                   for name in ("p", "b_a", "b_b"))
    # per-network rows (networks x users) of an outsider's advantage at
    # beta = 0, where everyone trusts: its news gain there, its slope in beta
    # per unit of receive probability, its degree and its sender link
    c = np.array([net.c_values for net in cols.networks])
    rows = (news_gain(mu, c, 0.0), (1.0 - mu) * c,
            np.array([net.degrees for net in cols.networks], dtype=np.int32),
            np.array([net.sender_mask for net in cols.networks]))
    del c
    pieces = [[] for _ in cells]

    def step(index, beta, on_b, dist, n_b, p_recv):
        for k, j in enumerate(index.tolist()):
            pieces[j].append((float(beta[k]), on_b[:, k], p_recv[:, k]))
        nxt = np.empty(index.size)
        for a in range(0, index.size, _TOPS_COLUMNS):
            s = slice(a, a + _TOPS_COLUMNS)
            nxt[s] = _next_tops(cols.take(index[s]), rows, beta[s], on_b[:, s], p_recv[:, s],
                                n_b[:, s], b_a[index[s]], b_b[index[s]])
        return nxt

    batch_final_b_sets(cols, mu, beta_max[cols.owner], p, b_a, b_b, step=step)
    return pieces


def _next_tops(cols: Columns, rows: tuple, beta: np.ndarray, on_b: np.ndarray,
               p_recv: np.ndarray, n_b: np.ndarray, b_a: np.ndarray,
               b_b: np.ndarray) -> np.ndarray:
    """Each column's next breakpoint below beta, -inf where none is left:
    the largest level where an outsider's advantage, linear in beta while it
    trusts, reaches -_JOIN_MARGIN, or its exact root (advantage 0) when that
    level is not below beta, so a predicted joiner the engine leaves out is
    tried once more there. An outsider whose advantage at beta is not
    negative was left out by the engine, which raises. rows are _walk's
    per-network rows."""
    gain0, weight, degree, linked = rows
    adv0, _ = sender_side_advantage(
        n_b, cols.spread(degree), b_b, b_a, True, p_recv, cols.spread(gain0),
        cols.spread(linked),
    )
    slope = cols.spread(weight)
    slope *= p_recv
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = adv0 / slope
        adv0 += _JOIN_MARGIN
        level = np.divide(adv0, slope, out=adv0)  # the level of the margin
    np.copyto(level, exact, where=~(level < beta))
    np.copyto(level, -np.inf, where=on_b | ~(p_recv > 0.0))
    missed = (level >= beta).any(axis=0)
    if missed.any():
        raise InvariantViolationError(
            f"the engine left out a user whose advantage at beta={float(beta[missed][0])!r} "
            "is not negative"
        )
    return level.max(axis=0)


def _cascade_pieces(network: Network, params: ModelParams, beta_max: float) -> list:
    """Pieces of one cell on a cascade tree: the wave thresholds in
    [0, beta_max] and beta_max are the tops, the closed form the sets."""
    _, m = cascade_thresholds(network, params)
    tops = sorted({beta_max} | {float(x) for x in np.unique(m) if 0.0 <= x <= beta_max},
                  reverse=True)
    on_b, dist = cascade_final_b_sets(network, params, np.array(tops))
    p_recv = receive_map(params.p, dist)
    return [(top, on_b[:, k], p_recv[:, k]) for k, top in enumerate(tops)]


def _b_sides(networks: list[Network], cells: list[ModelParams]):
    """For each network, in order: (trust, thresholds, pieces), its users'
    trust test (_Trust), their distinct trust thresholds ascending, and one
    piece list per cell (all cells share mu). The columns off cascade trees
    are walked in blocks of at most POOL_COLUMNS, each when the one before
    is used up, so a walk's working set stays within one block; a cascade
    tree's pieces come from the closed form one cell at a time, so a large
    grid on a tree never holds every cell's sets at once."""
    mu = cells[0].mu
    bps = [_beta_primes(network, mu) for network in networks]
    if len(networks) > 1:  # kept on the networks, for is_cascade_tree and the A side
        pooled_relay_distances(networks)
    thresholds = [np.unique(bp).tolist() for bp in bps]
    beta_max = np.array([t[-1] for t in thresholds])
    on_tree = np.array([network.is_cascade_tree for network in networks])
    cols = Columns.repeat(networks, len(cells))
    cols = cols.take(~on_tree[cols.owner])
    col_cells = [params for tree in on_tree if not tree for params in cells]
    walked = chain.from_iterable(
        _walk(cols.take(slice(a, a + POOL_COLUMNS)), col_cells[a:a + POOL_COLUMNS], beta_max)
        for a in range(0, len(col_cells), POOL_COLUMNS))
    for network, bp, t, tree in zip(networks, bps, thresholds, on_tree):
        yield _Trust(bp + TIE_TOL, t[0] + TIE_TOL), t, (
            (_cascade_pieces(network, params, t[-1]) for params in cells) if tree
            else [next(walked) for _ in cells])


def _decide(mu: float, trust: _Trust, thresholds: list[float], pieces: list) -> SenderDecision:
    """The sender's optimum on B over a cell's pieces. Within a piece the
    utility rises with beta except where a user stops trusting, so the
    candidates are every top, every trust threshold and 0."""
    candidates = sorted({0.0} | {top for top, _, _ in pieces} | set(thresholds))
    return SenderDecision(Platform.B, *_best(mu, trust, candidates, pieces))


def optimal_B(network: Network, params: ModelParams) -> SenderDecision:
    """Sender's best deceit level and utility on the unregulated platform B."""
    [(trust, thresholds, [pieces])] = _b_sides([network], [params])
    return _decide(params.mu, trust, thresholds, pieces)


def strictest_effective_regulation(network: Network, params: ModelParams) -> RegulationResult:
    """Classify regulation on platform A against the sender's outside option.

    NoEffectiveRegulation: even the unregulated optimum on A cannot beat the
    best the sender gets on B. AnyRegulation: the truthful cap beta=0 already
    retains the sender (boundary equality included, so a computed cap of
    exactly 0 lands here). Moderate: the smallest cap rho with
    U_A(rho) >= U*_B, which for homogeneous users is
    (U*_B / sum_i p_iA - mu) / (1 - mu).
    """
    return solve_cells(network, [params])[0]


def solve_cells(network: Network, cells) -> list[RegulationResult]:
    """strictest_effective_regulation for every cell (a ModelParams) of one
    network, in order: the one-network view of solve_pool."""
    [results] = solve_pool([network], cells)
    return results


def solve_pool(networks, cells) -> list[list[RegulationResult]]:
    """solve_cells of the same cells on each of several networks of one
    size: one result list per network, in order. All cells must share mu.
    Every (network, cell) column is walked together (see the module
    docstring); then each cell is decided and classified on its own, and
    the A side is priced once per network and distinct p. A network with a
    user whose c is at or below mu raises InvalidParamsError for the pool."""
    networks, cells = list(networks), list(cells)
    if not (networks and cells):
        return [[] for _ in networks]
    mu = cells[0].mu
    if any(params.mu != mu for params in cells):
        raise InvalidParamsError("cells solved together must share mu")
    out = []
    for network, (trust, thresholds, pieces) in zip(networks, _b_sides(networks, cells)):
        a_sides = {p: _price_a(network, mu, p, trust, thresholds)
                   for p in dict.fromkeys(params.p for params in cells)}
        out.append([_classify(params, a_sides[params.p], _decide(mu, trust, thresholds, cell_pieces))
                    for params, cell_pieces in zip(cells, pieces)])
    return out


@dataclass(frozen=True)
class _ASide:
    """The unregulated A side of one (network, mu, p): summed receive
    probabilities, their trust tiers up to the largest threshold, and the
    sender's best utility there."""

    sum_p_a: float
    tiers: dict[float, float]
    u_unregulated: float


def _price_a(network: Network, mu: float, p: float, trust: _Trust,
             thresholds: list[float]) -> _ASide:
    p_a = receive_map(p, network.relay_distances)
    tiers = {k: float(p_a[k <= trust.limit].sum()) for k in thresholds}
    return _ASide(float(p_a.sum()), tiers,
                  max(sender_weight(mu, k) * t for k, t in tiers.items()))


def _classify(params: ModelParams, a_side: _ASide, decision: SenderDecision) -> RegulationResult:
    mu, u_star_b = params.mu, decision.utility
    if a_side.u_unregulated <= u_star_b + TIE_TOL:
        kind, rho = RegulationKind.NO_EFFECTIVE_REGULATION, None
    elif mu * a_side.sum_p_a >= u_star_b - TIE_TOL:
        kind, rho = RegulationKind.ANY_REGULATION, 0.0
    else:
        # moderate: walk trust tiers upward; within a tier the utility is linear
        kind = RegulationKind.MODERATE
        for k, t in a_side.tiers.items():
            rho = (u_star_b / t - mu) / (1.0 - mu) if t > 0.0 else np.inf
            if rho <= k + TIE_TOL:
                rho = min(max(rho, 0.0), k)
                break
        else:
            raise InvariantViolationError(
                "moderate regulation requested but no trust tier reaches U*_B"
            )
    return RegulationResult(kind, rho, u_star_b, decision.beta_star, a_side.sum_p_a)


def sender_equilibrium(network: Network, params: ModelParams) -> SenderDecision:
    """Full game outcome under the cap params.rho_a: the sender stays on A
    whenever its best admissible utility there at least ties platform B."""
    [(decision, _)] = sender_equilibria([network], params)
    return decision


def sender_equilibria(
    networks, params: ModelParams
) -> list[tuple[SenderDecision, np.ndarray | None]]:
    """sender_equilibrium of one cell on each of several networks of one
    size, in order, with their B sides walked together. Each decision comes
    with the adopter set at its beta* when the sender picks B (the set of the
    piece that holds beta*, which the run from all-A reaches), else None."""
    networks = list(networks)
    if not networks:
        return []
    out = []
    cap = params.rho_a
    for network, (trust, thresholds, [pieces]) in zip(networks, _b_sides(networks, [params])):
        # A keeps every user: one piece, scored at the cap and the thresholds up to it
        on_a = [(np.inf, np.ones(network.n_users, dtype=bool),
                 receive_map(params.p, network.relay_distances))]
        candidates = sorted({cap} | {x for x in thresholds if x <= cap + TIE_TOL})
        best_beta_a, best_u_a = _best(params.mu, trust, candidates, on_a)
        decision_b = _decide(params.mu, trust, thresholds, pieces)
        if best_u_a >= decision_b.utility - TIE_TOL:
            out.append((SenderDecision(Platform.A, best_beta_a, best_u_a), None))
        else:
            # the piece that holds beta*: the lowest top at or above it
            _, on_b, _ = next(piece for piece in reversed(pieces)
                              if piece[0] >= decision_b.beta_star)
            out.append((decision_b, on_b))
    return out
