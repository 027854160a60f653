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
walk reads the networks' sides and the one cell list they share, one
(network, cell) column (graph.Columns) for each pair, and is one engine
call. A column's first piece and breakpoint are closed form in the all-A
state, where only the sender's linked users receive (_seeds): a column
starts in the engine at beta_max only where a linked user joins there, else
at its first breakpoint, or never where none is left. Whenever a column
settles, the walk's step callback records its piece and names its next
breakpoint, and the engine restarts the column there from the state it
settled in, in the next round, so each column runs only its own rounds; and
whenever the engine sets finished columns aside, the walk tops it up to
POOL_COLUMNS live columns from the queued ones (iteration-level scheduling
and its admission of queued work: Yu et al., Orca, OSDI 2022). On cascade
trees cascade_thresholds gives the tops and cascade_final_b_sets the sets.

_b_sides drives every B side: it reads the networks one at a time, as the
walk admits their columns, into one record each (_Side: the network, its
trust test and its A sides priced so far), makes a cascade tree's pieces
one cell at a time, and decides each cell (_decide) as soon as its column
finishes, handing on the decision with the pieces. The networks the walk
reads together share one pool of per-network rows (graph.Columns): degrees,
news rows, sender links, c, the sides' trust limits and the float32 layer,
each built once. Their relay distances come from one query over it
(graph.pooled_relay_distances, kept on the networks, where the A side reads
them), _seeds reads it, and the engine takes the rows of the columns it
admits over (Columns.merge) instead of building them again, its trust test
included. The walk drops a network after its last column. solve_each (the
same cells on several networks of one size, each result handed on as soon
as it is known), solve_pool (its lists), sender_equilibria (one cell on
each) and optimal_B read it; the other entry points are views of these.
Payoffs and the trust test come from the model's kernel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .adoption import (
    batch_final_b_sets,
    cascade_final_b_sets,
    cascade_thresholds,
    _beta_primes,
    _int32_degrees,
    _trust_limits,
)
from .errors import InvalidParamsError, InvariantViolationError
from .graph import Columns, Network, pooled_relay_distances, receive_map
from .model import (ModelParams, Platform, TIE_TOL, news_gain, sender_payoff,
                    sender_side_advantage, sender_weight, trust_limit, trusts)

# the most live columns one walk (one engine call) holds; it admits more as
# they finish
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


class _Side(NamedTuple):
    """One network's record from read to finish: its index among the
    networks solved together, the network, its users' trust test, made once
    (a user trusts beta iff beta <= limit, its threshold plus TIE_TOL, as
    model.trusts; every user trusts at or below floor, the smallest limit),
    their distinct thresholds ascending (its columns start at the largest)
    and its A sides priced so far, by p."""

    k: int
    network: Network
    limit: np.ndarray
    floor: float
    thresholds: list[float]
    priced: dict


def _side(k: int, network: Network, mu: float) -> _Side:
    """The _Side of the k-th network, with nothing priced yet."""
    bp = _beta_primes(network, mu)
    thresholds = np.unique(bp).tolist()
    return _Side(k, network, trust_limit(bp), trust_limit(thresholds[0]), thresholds, {})


def _best(mu: float, side: _Side, candidates: list[float],
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
        if b > side.floor:
            u = sender_payoff(mu, b, p_recv, on_b & (b <= side.limit))
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


def _walk_rows(cols: Columns, mu: float) -> tuple:
    """Per-network rows (networks x users) of an outsider's advantage at
    beta = 0, where everyone trusts: its degree, its news gain there, its
    slope in beta per unit of receive probability, and its sender link."""
    return (cols.rows("degrees", _int32_degrees),
            cols.rows(("news_gain_0", mu), lambda net: news_gain(mu, net.c_values, 0.0)),
            cols.rows(("news_slope", mu), lambda net: (1.0 - mu) * net.c_values),
            cols.rows("sender_mask"))


def _walk(mu: float, cells: list, sides, finish) -> None:
    """Walk cells (all sharing mu) on every side's network and hand each
    column's pieces to finish(side, i, pieces) as soon as they are known,
    in no fixed order: one column per side and cell, cells[i] on the side's
    network walked down from its largest trust threshold. Each cell's
    (p, b_a, b_b) is one row of an array made once, which every column
    reads by its cell number.

    The walk is one engine call holding at most POOL_COLUMNS live columns.
    Whenever the engine sets finished ones aside, admit tops them up, in
    order: it reads sides until as many columns as there is room for are
    queued or read, so a network is read when its columns are next to be
    admitted, into one pool of the networks read together (seed), whose
    rows its relay query, _seeds and the engine read; it is dropped after
    its last column finishes. A column's first piece and breakpoint are
    closed form in the all-A state (_seeds), worked out when its side is
    read: a column where a linked user joins at the top starts there; any
    other has the piece (top, nobody, all-A receive map), made once per
    side and read-only, and starts at its first breakpoint, or is done
    without entering the engine if none is left. The engine counts that
    seeded start as a restart, for IDLE_RESTART_CAP, and _next_tops's
    missed-joiner check holds for it as for any restart.

    Whenever a column settles, step records its piece and returns its next
    breakpoint (_next_tops), and the engine restarts the column there from
    the state it settled in (set, distances, B-neighbour counts), so no step
    runs a full distance query. Within a piece no outsider's advantage
    reaches the join tie, so the next breakpoint is closed form in that
    state, and the engine started from it gives the set there. Each column
    runs only its own rounds: one that settles early restarts while the
    others still move.
    """
    sides = iter(sides)
    params = np.array([(c.p, c.b_a, c.b_b) for c in cells])
    queued = deque()  # columns of the sides read that enter the engine, in order
    live = {}  # engine column number -> (its side, cell number, pieces)
    numbered = 0  # columns handed to the engine so far

    def seed(fresh: list) -> None:
        """Seed the columns of the sides just read, one pool of them whose
        rows the relay query, _seeds and the engine read: queue those that
        enter the engine, as (side, cell number, pieces, level, pool, column
        there), in order, and finish the others."""
        pool = Columns.repeat([side.network for side in fresh], len(cells))
        _trust_limits(pool, mu, np.stack([side.limit for side in fresh]))
        pool.layers()  # made here even where the relay query needs none
        if len(fresh) > 1:  # a lone network makes its own query when first asked
            pooled_relay_distances(pool)
        tops = [side.thresholds[-1] for side in fresh]
        joins, first = _seeds(pool, mu, np.repeat(tops, len(cells)),
                              *np.tile(params, (len(fresh), 1)).T)
        for k, (side, top, joined, nxt) in enumerate(zip(
                fresh, tops, joins.reshape(len(fresh), -1).tolist(),
                first.reshape(len(fresh), -1).tolist())):
            on_b = np.zeros(side.network.n_users, dtype=bool)
            p_recv = np.where(side.network.sender_mask, 1.0, 0.0)
            on_b.flags.writeable = p_recv.flags.writeable = False
            for i in range(len(cells)):
                at = pool, k * len(cells) + i  # the column's pool and its number there
                if joined[i]:
                    queued.append((side, i, [], top, *at))
                elif nxt[i] >= 0.0:
                    queued.append((side, i, [(top, on_b, p_recv)], nxt[i], *at))
                else:
                    finish(side, i, [(top, on_b, p_recv)])

    def admit(n_live: int):
        """Up to room = POOL_COLUMNS - n_live more columns for the engine, or
        None: queued ones, after reading sides until room columns are
        queued or read (and on, while none is queued). Their pool carries
        the rows of their seed pools over, for the engine to take over."""
        nonlocal numbered
        room = POOL_COLUMNS - n_live
        while True:
            fresh = []
            while len(queued) + len(fresh) * len(cells) < room and (
                    side := next(sides, None)) is not None:
                fresh.append(side)
            if not fresh:
                break
            seed(fresh)
            if queued:
                break
        entering = [queued.popleft() for _ in range(min(room, len(queued)))]
        if not entering:
            return None
        parts = {}  # each seed pool -> its entering columns, in order
        for side, i, pieces, _, pool, j in entering:
            parts.setdefault(pool, []).append(j)
            live[numbered] = side, i, pieces
            numbered += 1
        # every seed pool but the last has all its columns admitted and gives
        # its rows up; the last keeps its own while it has columns queued
        pools = list(parts)
        cols = pools[0].take(parts[pools[0]])
        if len(pools) == 1 and queued and queued[0][4] is pools[0]:
            cols = cols.copy()
        for pool in pools[1:]:
            cols = cols.merge(pool.take(parts[pool]))
        return cols, [x[3] for x in entering], *params[[x[1] for x in entering]].T

    def step(index, cols, beta, on_b, dist, n_b, p_recv):
        walked = [live[j] for j in index.tolist()]
        _, b_a, b_b = params[[i for _, i, _ in walked]].T
        rows = _walk_rows(cols, mu)
        nxt = np.empty(index.size)
        for a in range(0, index.size, _TOPS_COLUMNS):
            s = slice(a, a + _TOPS_COLUMNS)
            at = cols.take(s)
            nxt[s] = _next_tops(beta[s], on_b[:, s], p_recv[:, s], n_b[:, s], b_a[s], b_b[s],
                                *(at.spread(r) for r in rows))
        # each piece copies its column, so the step's arrays go when it returns
        for k, (j, (side, i, pieces), top, level) in enumerate(
                zip(index.tolist(), walked, beta.tolist(), nxt.tolist())):
            pieces.append((top, on_b[:, k].copy(), p_recv[:, k].copy()))
            if not level >= 0.0:
                del live[j]
                finish(side, i, pieces)
        return nxt

    first = admit(0)
    if first is not None:
        batch_final_b_sets(first[0], mu, *first[1:], step=step, admit=admit)


def _seeds(cols: Columns, mu: float, beta: np.ndarray, p: np.ndarray, b_a: np.ndarray,
           b_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For columns in the all-A state at beta: whether a linked user joins
    there (the engine's first round), and for the others their first
    breakpoint below beta (_next_tops), -inf for those that join. In that
    state only the sender's linked users receive (receive probability 1, no
    B-neighbours), so only their rows are worked out, with the engine's and
    _next_tops's expressions."""
    links = [list(net.sender_links) for net in cols.networks]
    most = max(map(len, links))
    # each column's linked users, its network's first repeated up to the most
    users = np.array([x + x[:1] * (most - len(x)) for x in links])[cols.owner].T
    at = (cols.owner, users)
    degree, gain0, slope, linked = (rows[at] for rows in _walk_rows(cols, mu))
    c = cols.rows("c_values")[at]
    trusting = beta[None, :] <= _trust_limits(cols, mu)[at]
    n_b = np.zeros(users.shape)
    p_recv = receive_map(p[None, :], np.zeros(users.shape, dtype=np.int32))
    _, joins = sender_side_advantage(n_b, degree, b_b[None, :], b_a[None, :], trusting, p_recv,
                                     news_gain(mu, c, beta[None, :]), linked)
    joins = joins.any(axis=0)
    first = np.full(beta.size, -np.inf)
    rest = ~joins
    first[rest] = _next_tops(beta[rest], np.zeros((most, np.count_nonzero(rest)), dtype=bool),
                             p_recv[:, rest], n_b[:, rest], b_a[rest], b_b[rest],
                             degree[:, rest], gain0[:, rest], slope[:, rest], linked[:, rest])
    return joins, first


def _next_tops(beta: np.ndarray, on_b: np.ndarray, p_recv: np.ndarray, n_b: np.ndarray,
               b_a: np.ndarray, b_b: np.ndarray, degree: np.ndarray, gain0: np.ndarray,
               slope: np.ndarray, linked: np.ndarray) -> np.ndarray:
    """Each column's next breakpoint below beta, -inf where none is left:
    the largest level where an outsider's advantage, linear in beta while it
    trusts, reaches -_JOIN_MARGIN, or its exact root (advantage 0) when that
    level is not below beta, so a predicted joiner the engine leaves out is
    tried once more there. An outsider whose advantage at beta is not
    negative was left out by the engine, which raises. degree, gain0, slope
    and linked are _walk_rows at the columns."""
    adv0, _ = sender_side_advantage(n_b, degree, b_b, b_a, True, p_recv, gain0, linked)
    slope = slope * p_recv
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


def _b_sides(networks, cells: list[ModelParams], finish) -> None:
    """Drive every B side: call finish(side, i, decision, pieces) once for
    each cell (all cells share mu) on each network, with the network's
    _Side, the sender's optimum on B (_decide) and the cell's pieces, as
    soon as they are known, in no fixed order. networks is any iterable of
    networks of one size, read one network at a time as the walk admits its
    columns (_walk); a cascade tree's pieces come from the closed form when
    it is read, one cell at a time, so a large grid on a tree never holds
    every cell's sets at once."""
    mu = cells[0].mu

    def decided(side: _Side, i: int, pieces: list) -> None:
        finish(side, i, _decide(mu, side, pieces), pieces)

    def sides():
        size = None
        for k, network in enumerate(networks):
            if size not in (None, network.n_users):
                raise InvalidParamsError("networks batched together must have the same size")
            size = network.n_users
            side = _side(k, network, mu)
            if network.is_cascade_tree:
                for i, params in enumerate(cells):
                    decided(side, i, _cascade_pieces(network, params, side.thresholds[-1]))
            else:
                yield side

    _walk(mu, cells, sides(), decided)


def _decide(mu: float, side: _Side, pieces: list) -> SenderDecision:
    """The sender's optimum on B over a cell's pieces. Within a piece the
    utility rises with beta except where a user stops trusting, so the
    candidates are every top, every trust threshold and 0. Where nobody
    joins B at any level every candidate scores 0, so the first, 0, is the
    optimum (_best's result, without scoring them)."""
    if not any(on_b.any() for _, on_b, _ in pieces):
        return SenderDecision(Platform.B, 0.0, 0.0)
    candidates = sorted({0.0} | {top for top, _, _ in pieces} | set(side.thresholds))
    return SenderDecision(Platform.B, *_best(mu, side, candidates, pieces))


def optimal_B(network: Network, params: ModelParams) -> SenderDecision:
    """Sender's best deceit level and utility on the unregulated platform B."""
    decisions = []
    _b_sides([network], [params], lambda side, i, decision, pieces: decisions.append(decision))
    return decisions[0]


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
    size: one result list per network, in order (solve_each)."""
    cells = list(cells)
    if not cells:
        return [[] for _ in networks]
    out = []

    def record(k: int, i: int, result: RegulationResult) -> None:
        out.extend([None] * len(cells) for _ in range(k + 1 - len(out)))
        out[k][i] = result

    solve_each(networks, cells, record)
    return out


def solve_each(networks, cells, record) -> None:
    """Solve every cell (a ModelParams) on each network, as solve_cells
    does, and hand each result to record(k, i, result), for cells[i] on the
    k-th network, as soon as it is known, in no fixed order. networks is any
    iterable of networks of one size, read as the walk admits them, and all
    cells must share mu. Every (network, cell) column is walked together
    (see the module docstring); each cell is decided (_b_sides) and
    classified when its column finishes, and the A side is priced once per
    network and distinct p. A network with a user whose c is at or below mu
    raises InvalidParamsError."""
    cells = list(cells)
    if not cells:
        return
    mu = cells[0].mu
    if any(params.mu != mu for params in cells):
        raise InvalidParamsError("cells solved together must share mu")
    def finish(side: _Side, i: int, decision: SenderDecision, _) -> None:
        params = cells[i]
        if params.p not in side.priced:
            side.priced[params.p] = _price_a(side, mu, params.p)
        record(side.k, i, _classify(params, side.priced[params.p], decision))

    _b_sides(networks, cells, finish)


@dataclass(frozen=True)
class _ASide:
    """The unregulated A side of one (network, mu, p): summed receive
    probabilities, their trust tiers up to the largest threshold, and the
    sender's best utility there."""

    sum_p_a: float
    tiers: dict[float, float]
    u_unregulated: float


def _price_a(side: _Side, mu: float, p: float) -> _ASide:
    p_a = receive_map(p, side.network.relay_distances)
    tiers = {k: float(p_a[k <= side.limit].sum()) for k in side.thresholds}
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
    out = []
    cap = params.rho_a

    def finish(side: _Side, _, decision_b: SenderDecision, pieces: list) -> None:
        # A keeps every user: one piece, scored at the cap and the thresholds up to it
        on_a = [(np.inf, np.ones(side.network.n_users, dtype=bool),
                 receive_map(params.p, side.network.relay_distances))]
        candidates = sorted({cap} | {x for x in side.thresholds if x <= cap + TIE_TOL})
        best_beta_a, best_u_a = _best(params.mu, side, candidates, on_a)
        out.extend([None] * (side.k + 1 - len(out)))
        if best_u_a >= decision_b.utility - TIE_TOL:
            out[side.k] = SenderDecision(Platform.A, best_beta_a, best_u_a), None
        else:
            # the piece that holds beta*: the lowest top at or above it
            _, on_b, _ = next(piece for piece in reversed(pieces)
                              if piece[0] >= decision_b.beta_star)
            out[side.k] = decision_b, on_b

    _b_sides(networks, [params], finish)
    return out
