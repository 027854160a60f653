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
set below it (parametric search, Megiddo 1983; Milgrom & Roberts 1990). The
walk runs its (network, cell) columns in lockstep (adoption.Columns): one
engine call from all-A at beta_max, then one per step from the state the
step before reached, for every column with a breakpoint left. On cascade
trees cascade_thresholds gives the tops and cascade_final_b_sets the sets.

_b_sides drives every B side: it computes each network's trust thresholds
once, walks all columns off cascade trees together, makes a tree's pieces
one cell at a time and hands each network its pieces. solve_pool (the same
cells on several networks of one size), sender_equilibria (one cell on
each) and optimal_B read it; the other entry points are views of these.
Payoffs and the trust test come from the model's kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .adoption import (
    Columns,
    batch_final_b_sets,
    cascade_final_b_sets,
    cascade_thresholds,
    _beta_primes,
)
from .errors import InvalidParamsError, InvariantViolationError
from .graph import Network, receive_map
from .model import (ModelParams, Platform, TIE_TOL, news_gain, sender_payoff,
                    sender_side_advantage, sender_weight, trusts)

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


def _best(mu: float, bp: np.ndarray, candidates: list[float],
          pieces: list) -> tuple[float, float]:
    """The sender's best (beta, utility) over candidates (ascending), each
    scored on the set of the piece that holds it, with bp each user's trust
    threshold; a larger candidate wins only by more than TIE_TOL."""
    best_beta, best_u = 0.0, -1.0
    k = len(pieces) - 1  # the piece with the lowest top
    for b in candidates:
        while pieces[k][0] < b:
            k -= 1
        _, on_b, p_recv = pieces[k]
        u = sender_payoff(mu, b, p_recv, on_b & trusts(b, bp))
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
    threshold) in lockstep; all cells share mu.

    Every step is one engine call: the first from all-A, each later one
    from the state (set, distances, B-neighbour counts) of the step before,
    the counts being those the step computes for the advantages. Within a
    piece no outsider's advantage reaches the join tie, so the next
    breakpoint (_next_tops) is closed form in the current state, and the
    engine started from that state gives the set there; no step runs a full
    distance query. A new set that does not contain its start raises. Only
    the start's columns of a step's state live through the next engine call.
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
    beta = beta_max[cols.owner]
    live = np.arange(len(cells))
    pieces = [[] for _ in cells]
    start = None
    while True:
        on_b, dist, _, _ = batch_final_b_sets(
            cols, mu, beta, p[live], b_a[live], b_b[live], start=start
        )
        shrunk = start is not None and (start[0] > on_b).any(axis=0)
        if np.any(shrunk):
            k = int(np.argmax(shrunk))
            raise InvariantViolationError(
                f"adopter set at beta={float(above[k])!r} is not a subset of the set at "
                f"beta={float(beta[k])!r}"
            )
        start = None
        p_recv = receive_map(p[live], dist)
        for k, j in enumerate(live):
            pieces[j].append((float(beta[k]), on_b[:, k], p_recv[:, k]))
        n_b = cols.neighbour_counts(on_b)
        nxt = _next_tops(cols, rows, beta, on_b, p_recv, n_b, b_a[live], b_b[live])
        going = nxt >= 0.0
        if not going.any():
            return pieces
        start = (on_b[:, going], dist[:, going], n_b[:, going])
        del dist, n_b
        above, live, beta, cols = beta[going], live[going], nxt[going], cols.take(going)


def _next_tops(cols: Columns, rows: tuple, beta: np.ndarray, on_b: np.ndarray,
               p_recv: np.ndarray, n_b: np.ndarray, b_a: np.ndarray,
               b_b: np.ndarray) -> np.ndarray:
    """Each column's next breakpoint below beta, -inf where none is left:
    the largest level where an outsider's advantage, linear in beta while it
    trusts, reaches -_JOIN_MARGIN, or its exact root (advantage 0) when that
    level is not below beta, so a predicted joiner the engine leaves out is
    tried once more there. An outsider whose advantage at beta is not
    negative was left out by the engine, which raises. The per-column
    temporaries die with the call, before the next engine call runs. rows
    are _walk's per-network rows."""
    gain0, weight, degree, linked = rows
    adv0, _ = sender_side_advantage(
        n_b, cols.spread(degree), b_b, b_a, True, p_recv, cols.spread(gain0),
        cols.spread(linked),
    )
    slope = cols.spread(weight) * p_recv
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
    """For each network, in order: (bp, thresholds, pieces), its users'
    trust thresholds, their distinct values ascending, and one piece list
    per cell (all cells share mu). The columns off cascade trees share one
    walk; a cascade tree's pieces come from the closed form one cell at a
    time, so a large grid never holds every cell's sets at once."""
    mu = cells[0].mu
    bps = [_beta_primes(network, mu) for network in networks]
    thresholds = [np.unique(bp).tolist() for bp in bps]
    cols = Columns.repeat(networks, len(cells))
    on_tree = np.array([network.is_cascade_tree for network in networks])
    walked = iter(()) if on_tree.all() else iter(_walk(
        cols.take(~on_tree[cols.owner]),
        [params for tree in on_tree if not tree for params in cells],
        np.array([t[-1] for t in thresholds]),
    ))
    for network, bp, t, tree in zip(networks, bps, thresholds, on_tree):
        yield bp, t, ((_cascade_pieces(network, params, t[-1]) for params in cells) if tree
                      else [next(walked) for _ in cells])


def _decide(mu: float, bp: np.ndarray, thresholds: list[float], pieces: list) -> SenderDecision:
    """The sender's optimum on B over a cell's pieces. Within a piece the
    utility rises with beta except where a user stops trusting, so the
    candidates are every top, every trust threshold and 0."""
    candidates = sorted({0.0} | {top for top, _, _ in pieces} | set(thresholds))
    return SenderDecision(Platform.B, *_best(mu, bp, candidates, pieces))


def optimal_B(network: Network, params: ModelParams) -> SenderDecision:
    """Sender's best deceit level and utility on the unregulated platform B."""
    [(bp, thresholds, [pieces])] = _b_sides([network], [params])
    return _decide(params.mu, bp, thresholds, pieces)


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
    Every (network, cell) column walks in one lockstep walk (see the module
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
    for network, (bp, thresholds, pieces) in zip(networks, _b_sides(networks, cells)):
        a_sides = {p: _price_a(network, mu, p, bp, thresholds)
                   for p in dict.fromkeys(params.p for params in cells)}
        out.append([_classify(params, a_sides[params.p], _decide(mu, bp, thresholds, cell_pieces))
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


def _price_a(network: Network, mu: float, p: float, bp: np.ndarray,
             thresholds: list[float]) -> _ASide:
    p_a = receive_map(p, network.relay_distances)
    tiers = {k: float(p_a[trusts(k, bp)].sum()) for k in thresholds}
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
    for network, (bp, thresholds, [pieces]) in zip(networks, _b_sides(networks, [params])):
        # A keeps every user: one piece, scored at the cap and the thresholds up to it
        on_a = [(np.inf, np.ones(network.n_users, dtype=bool),
                 receive_map(params.p, network.relay_distances))]
        candidates = sorted({cap} | {x for x in thresholds if x <= cap + TIE_TOL})
        best_beta_a, best_u_a = _best(params.mu, bp, candidates, on_a)
        decision_b = _decide(params.mu, bp, thresholds, pieces)
        if best_u_a >= decision_b.utility - TIE_TOL:
            out.append((SenderDecision(Platform.A, best_beta_a, best_u_a), None))
        else:
            # the piece that holds beta*: the lowest top at or above it
            _, on_b, _ = next(piece for piece in reversed(pieces)
                              if piece[0] >= decision_b.beta_star)
            out.append((decision_b, on_b))
    return out
