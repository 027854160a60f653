"""Sender's platform/deceit best response and the strictest effective regulation.

The sender utility on B is piecewise linear in beta: increasing while the
equilibrium adopter set stays constant, with downward jumps where the set
shrinks or a user stops trusting. A cell's pieces are a list
[(top, on_b, [(beta, utility), ...]), ...] with tops descending; each piece
holds its set on (next top, top] and scores, when it is made (_pieces), its
top, the trust thresholds inside and 0 on the lowest. On A under a cap every
user stays: the cap and the thresholds up to it are scored. One expression
scores every candidate (_scored), and the optimum (_best) is the first best
of the pairs ascending, a larger beta winning only by more than TIE_TOL.

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
settles, the walk's step callback scores and records its piece and names
its next breakpoint, and the engine restarts the column there from the
state it settled in, in the next round, so each column runs only its own rounds; and
whenever the engine sets finished columns aside, the walk tops it up to
POOL_COLUMNS live columns from the queued ones (iteration-level scheduling
and its admission of queued work: Yu et al., Orca, OSDI 2022). On cascade
trees cascade_thresholds gives the tops and cascade_final_b_sets the sets.

_b_sides drives every B side: it reads the networks one at a time, as the
walk admits their columns, into one record each (_Side: the network, its
trust test and its A sides priced so far), makes a cascade tree's pieces
one cell at a time, and decides each cell (_decide) as soon as its column
finishes, handing on the decision with the pieces. The networks the walk
reads together make one pool (graph.Columns), which builds each per-network
row (degrees, sender links, c, trust limits, the float32 layer) from its
own networks when first asked. Their relay distances come from one query
over it (graph.pooled_relay_distances, kept on the networks, where the A
side reads them) and _seeds reads it. The engine works on the merge of the
pools of the columns it admits (Columns.merge) and makes their news rows
(model.news_row) from its rows of c and trust limits. The walk drops a
network after its last column. solve_each (the same cells
on several networks of one size, each result handed on as soon as it is
known), solve_pool (its lists), sender_equilibria (one cell on each) and
optimal_B read it; the other entry points are views of these.
Payoffs, the trust test and the news row it gates come from the model's
kernel.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import reduce
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
from .model import (ModelParams, Platform, TIE_TOL, news_gain, news_row, sender_payoff,
                    sender_side_advantage, sender_weight, trust_limit)

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
    model.trusts), their distinct thresholds ascending and its A sides."""

    k: int
    network: Network
    limit: np.ndarray
    thresholds: list[float]
    priced: dict


def _side(k: int, network: Network, mu: float) -> _Side:
    """The _Side of the k-th network, with nothing priced yet."""
    bp = _beta_primes(network, mu)
    return _Side(k, network, trust_limit(bp), np.unique(bp).tolist(), {})


def _scored(mu: float, side: _Side, candidates, p_recv: np.ndarray, on=True) -> list:
    """(beta, utility) of each candidate beta: sender_payoff over the users of on who trust it."""
    return [(b, sender_payoff(mu, b, p_recv, on & (b <= side.limit))) for b in candidates]


def _pieces(mu: float, sides: list, tops: list, belows: list, on_b: np.ndarray,
            p_recv: np.ndarray) -> list:
    """The B pieces (top, set, scored pairs) of the sets on_b[:, k] of
    sides[k]'s network on (belows[k], tops[k]], receiving with p_recv, scored
    at the top, the trust thresholds inside and 0 if belows[k] < 0. An empty
    set scores nothing: the sets are nested, so it lies above the others."""
    pieces = []
    for k, joined in enumerate(on_b.any(axis=0).tolist()):
        side, top, below, kept = sides[k], tops[k], belows[k], on_b[:, k].copy()
        scored = []
        if joined:
            th = side.thresholds
            candidates = sorted({top, *th[bisect_right(th, below):bisect_right(th, top)],
                                 *([0.0] if below < 0.0 else [])})
            scored = _scored(mu, side, candidates, p_recv[:, k], kept)
        pieces.append((top, kept, scored))
    return pieces


def _best(pairs: list) -> tuple[float, float]:
    """The best (beta, utility) of pairs ascending in beta: a larger beta
    wins only by more than TIE_TOL."""
    best_beta, best_u = 0.0, -1.0
    for b, u in pairs:
        if u > best_u + TIE_TOL:
            best_beta, best_u = b, u
    return best_beta, best_u


def _walk_rows(cols: Columns) -> tuple:
    """Per-network rows (networks x users) that an outsider's advantage
    reads: its degree, its c and its sender link."""
    return cols.rows("degrees", _int32_degrees), cols.rows("c_values"), cols.rows("sender_mask")


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
    rows its relay query and _seeds read; it is dropped after its last
    column finishes. A column's first piece and breakpoint
    (_seeds) are worked out when its side is read; a column that does not
    start at the top has the piece (top, nobody, nothing scored), its empty
    set made once per side and read-only. The engine counts a start at the
    first breakpoint as a restart, for IDLE_RESTART_CAP, and _next_tops's
    missed-joiner check holds for it as for any restart.

    Whenever a column settles, step scores and records its piece (_pieces)
    down to its next breakpoint (_next_tops), which it returns; the engine
    restarts the column there from the state it settled in (set, distances,
    B-neighbour counts), so no step runs a full distance query.
    """
    sides = iter(sides)
    params = np.array([(c.p, c.b_a, c.b_b) for c in cells])
    queued = deque()  # columns of the sides read that enter the engine, in order
    live = {}  # engine column number -> (its side, cell number, pieces)
    numbered = 0  # columns handed to the engine so far

    def seed(fresh: list) -> None:
        """Seed the columns of the sides just read, one pool of them whose
        rows the relay query and _seeds read: queue those that enter the
        engine, as (side, cell number, pieces, level, pool, column there),
        in order, and finish the others."""
        pool = Columns.repeat([side.network for side in fresh], len(cells))
        pooled_relay_distances(pool)
        tops = [side.thresholds[-1] for side in fresh]
        joins, first = _seeds(pool, mu, np.repeat(tops, len(cells)),
                              *np.tile(params, (len(fresh), 1)).T)
        for k, (side, top, joined, nxt) in enumerate(zip(
                fresh, tops, joins.reshape(len(fresh), -1).tolist(),
                first.reshape(len(fresh), -1).tolist())):
            nobody = np.zeros(side.network.n_users, dtype=bool)
            nobody.flags.writeable = False
            for i in range(len(cells)):
                at = pool, k * len(cells) + i  # the column's pool and its number there
                if joined[i]:
                    queued.append((side, i, [], top, *at))
                elif nxt[i] >= 0.0:
                    queued.append((side, i, [(top, nobody, [])], nxt[i], *at))
                else:
                    finish(side, i, [(top, nobody, [])])

    def admit(n_live: int):
        """Up to room = POOL_COLUMNS - n_live more columns for the engine, or
        None: queued ones, after reading sides until room columns are
        queued or read (and on, while none is queued), on the merge of
        their seed pools."""
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
        cols = reduce(Columns.merge, [pool.take(js) for pool, js in parts.items()])
        return cols, [x[3] for x in entering], *params[[x[1] for x in entering]].T

    def step(index, cols, beta, on_b, n_b, p_recv):
        walked = [live[j] for j in index.tolist()]
        _, b_a, b_b = params[[i for _, i, _ in walked]].T
        rows = _walk_rows(cols)
        nxt = np.empty(index.size)
        for a in range(0, index.size, _TOPS_COLUMNS):
            s = slice(a, a + _TOPS_COLUMNS)
            at = cols.take(s)
            nxt[s] = _next_tops(mu, beta[s], on_b[:, s], p_recv[:, s], n_b[:, s], b_a[s], b_b[s],
                                *(at.spread(r) for r in rows))
        # each piece copies its set, so the step's arrays go when it returns
        made = _pieces(mu, [s for s, _, _ in walked], beta.tolist(), nxt.tolist(), on_b, p_recv)
        for j, (side, i, pieces), piece, level in zip(index.tolist(), walked, made, nxt.tolist()):
            pieces.append(piece)
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
    degree, c, linked = (rows[at] for rows in _walk_rows(cols))
    news = news_row(mu, c, beta[None, :], _trust_limits(cols, mu)[at])
    n_b = np.zeros(users.shape)
    p_recv = receive_map(p[None, :], np.zeros(users.shape, dtype=np.int32))
    _, joins = sender_side_advantage(n_b, degree, b_b[None, :], b_a[None, :], p_recv, news,
                                     linked)
    joins = joins.any(axis=0)
    first = np.full(beta.size, -np.inf)
    rest = ~joins
    first[rest] = _next_tops(mu, beta[rest], np.zeros((most, np.count_nonzero(rest)), dtype=bool),
                             p_recv[:, rest], n_b[:, rest], b_a[rest], b_b[rest],
                             degree[:, rest], c[:, rest], linked[:, rest])
    return joins, first


def _next_tops(mu: float, beta: np.ndarray, on_b: np.ndarray, p_recv: np.ndarray,
               n_b: np.ndarray, b_a: np.ndarray, b_b: np.ndarray, degree: np.ndarray,
               c: np.ndarray, linked: np.ndarray) -> np.ndarray:
    """Each column's next breakpoint below beta, -inf where none is left:
    the largest level where an outsider's advantage, linear in beta while it
    trusts, reaches -_JOIN_MARGIN, or its exact root (advantage 0) when that
    level is not below beta, so a predicted joiner the engine leaves out is
    tried once more there. An outsider whose advantage at beta is not
    negative was left out by the engine, which raises. degree, c and linked
    are _walk_rows at the columns. At beta = 0 every user trusts, so the
    advantage there has the news gain news_gain(mu, c, 0.0), and it falls
    by (1 - mu) * c per unit of beta and of receive probability."""
    adv0, _ = sender_side_advantage(n_b, degree, b_b, b_a, p_recv, news_gain(mu, c, 0.0),
                                    linked)
    slope = (1.0 - mu) * c * p_recv
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


def _cascade_pieces(side: _Side, params: ModelParams, beta_max: float) -> list:
    """Pieces of one cell on a cascade tree: the wave thresholds in
    [0, beta_max] and beta_max are the tops, the closed form the sets."""
    _, m = cascade_thresholds(side.network, params)
    tops = sorted({beta_max} | {float(x) for x in np.unique(m) if 0.0 <= x <= beta_max},
                  reverse=True)
    on_b, dist = cascade_final_b_sets(side.network, params, np.array(tops))
    p_recv = receive_map(params.p, dist)
    return _pieces(params.mu, [side] * len(tops), tops, tops[1:] + [-np.inf], on_b, p_recv)


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
        finish(side, i, _decide(pieces), pieces)

    def sides():
        size = None
        for k, network in enumerate(networks):
            if size not in (None, network.n_users):
                raise InvalidParamsError("networks batched together must have the same size")
            size = network.n_users
            side = _side(k, network, mu)
            if network.is_cascade_tree:
                for i, params in enumerate(cells):
                    decided(side, i, _cascade_pieces(side, params, side.thresholds[-1]))
            else:
                yield side

    _walk(mu, cells, sides(), decided)


def _decide(pieces: list) -> SenderDecision:
    """The sender's optimum on B over a cell's scored pieces (_best); where
    nobody joins B nothing is scored, and the lowest level, 0, scores 0."""
    pairs = [pair for _, _, scored in reversed(pieces) for pair in scored]
    return SenderDecision(Platform.B, *(_best(pairs) if pairs else (0.0, 0.0)))


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
        # A keeps every user: scored at the cap and the thresholds up to it
        candidates = sorted({cap} | {x for x in side.thresholds if x <= cap + TIE_TOL})
        best_beta_a, best_u_a = _best(_scored(
            params.mu, side, candidates, receive_map(params.p, side.network.relay_distances)))
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
