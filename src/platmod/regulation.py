"""Sender's platform/deceit best response and the strictest effective regulation.

The sender utility on B is piecewise linear in beta: increasing while the
equilibrium adopter set stays constant, with downward jumps where the set
shrinks or a user stops trusting. A cell's pieces are a list
[(top, on_b, p_recv), ...] with tops descending; each piece holds its set on
(next top, top]. The optimum (_decide) is a max over every top, every trust
threshold and 0, each scored on the set of the piece that holds it.

On general networks _walk builds the lists from beta_max down. The
synchronous process from all-A reaches the least fixed point of a monotone
map, so a set stays the equilibrium until an outsider's advantage, linear in
beta while it trusts, reaches the join tie; that breakpoint is closed form
in the current set, and a run warm-started from the current set reaches the
set below it (parametric search, Megiddo 1983; Milgrom & Roberts 1990). The
walk runs in lockstep across its columns, each a (network, cell) pair: one
engine call from all-A at beta_max, then one per step, started from the
state the step before reached, for every column with a breakpoint left.
solve_cells walks the cells of one network; sender_equilibria walks one
cell on each of several networks of one size, whose per-column work the
engine shares (adoption.Columns). On cascade trees
cascade_thresholds gives the tops and cascade_final_b_sets the sets, one
cell at a time. strictest_effective_regulation and optimal_B are one-cell
views of solve_cells, sender_equilibrium the one-network view of
sender_equilibria.

On A every user stays with the sender, so one search over the trust tiers
up to a cap (_search_on_A) serves the classification and the full-game
outcome. Payoffs and the trust test come from the model's kernel.
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


def _search_on_A(
    mu: float, p_a: np.ndarray, bp: np.ndarray, thresholds: list[float], cap: float
) -> tuple[dict[float, float], float, float]:
    """The sender's options on A under a deceit cap: its utility is linear in
    beta within a trust tier, so the candidates are the cap and every trust
    threshold at or below it (thresholds: the distinct values of bp,
    ascending). Returns ({candidate: summed p_a of the users trusting it},
    best beta, best utility); a larger candidate wins only by more than
    TIE_TOL."""
    tiers = {}
    best_beta, best_u = 0.0, -1.0
    for b in sorted({cap} | {x for x in thresholds if x <= cap + TIE_TOL}):
        tiers[b] = t = float(p_a[trusts(b, bp)].sum())
        u = sender_weight(mu, b) * t
        if u > best_u + TIE_TOL:
            best_beta, best_u = b, u
    return tiers, best_beta, best_u


def utility_on_A(network: Network, params: ModelParams, beta: float) -> float:
    """Sender utility when it stays on A and all users stay with it.

    Sums receive probabilities over users whose individual trust threshold
    admits beta; homogeneous users reduce to (mu + (1-mu)beta) * sum_i p_iA.
    """
    bp = _beta_primes(network, params.mu)
    p_a = receive_map(params.p, network.relay_distances)
    return sender_payoff(params.mu, beta, p_a, trusts(beta, bp))


def _walk(cols: Columns, cells: list[ModelParams]) -> list[list]:
    """Pieces of every column, cell cells[j] on network cols.owner[j], walked
    down from its network's beta_max in lockstep; all cells share mu.

    Every step is one engine call: the first from all-A, each later one
    from the state (set, distances, B-neighbour counts) of the step before,
    the counts being those the step computes for the advantages. Within a
    piece no outsider's advantage reaches the join tie, so the next
    breakpoint is the largest level below the current one where an
    outsider's advantage, linear in beta while it trusts, reaches
    -_JOIN_MARGIN, and the engine started from the current state gives the
    set there; no step runs a full distance query. A predicted joiner the
    engine leaves out is tried once more at its exact root (advantage 0);
    leaving it out there raises, and so does a new set that does not
    contain its start.
    """
    mu = cells[0].mu
    p, b_a, b_b = (np.array([getattr(params, name) for params in cells])
                   for name in ("p", "b_a", "b_b"))
    # per-user arrays, one column per cell: an outsider's advantage at beta = 0
    # (everyone trusts) takes the news gain there, and its slope in beta is
    # weight * p_recv
    c = cols.gather(lambda net: net.c_values)
    gain0, weight = news_gain(mu, c, 0.0), (1.0 - mu) * c
    deg = cols.gather(lambda net: net.degrees.astype(np.float64))
    linked = cols.gather(lambda net: net.sender_mask)
    beta = np.array([_beta_primes(net, mu).max() for net in cols.networks])[cols.owner]
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
        p_recv = receive_map(p[live], dist)
        for k, j in enumerate(live):
            pieces[j].append((float(beta[k]), on_b[:, k], p_recv[:, k]))
        # each outsider's advantage at beta = 0
        n_b = cols.neighbour_counts(on_b)
        adv0, _ = sender_side_advantage(
            n_b, deg[:, live], b_b[live], b_a[live], True, p_recv, gain0[:, live], linked[:, live]
        )
        slope = weight[:, live] * p_recv
        with np.errstate(divide="ignore", invalid="ignore"):
            first, exact = (adv0 + _JOIN_MARGIN) / slope, adv0 / slope
        level = np.where(~on_b & (p_recv > 0.0), np.where(first < beta, first, exact), -np.inf)
        missed = (level >= beta).any(axis=0)
        if missed.any():
            raise InvariantViolationError(
                f"the engine left out a user whose advantage at beta={float(beta[missed][0])!r} "
                "is not negative"
            )
        nxt = level.max(axis=0)
        going = nxt >= 0.0
        if not going.any():
            return pieces
        start = (on_b[:, going], dist[:, going], n_b[:, going])
        above, live, beta, cols = beta[going], live[going], nxt[going], cols.take(going)


def _cascade_pieces(network: Network, params: ModelParams, beta_max: float) -> list:
    """Pieces of one cell on a cascade tree: the wave thresholds in
    [0, beta_max] and beta_max are the tops, the closed form the sets."""
    _, m = cascade_thresholds(network, params)
    tops = sorted({beta_max} | {float(x) for x in np.unique(m) if 0.0 <= x <= beta_max},
                  reverse=True)
    on_b, dist = cascade_final_b_sets(network, params, np.array(tops))
    p_recv = receive_map(params.p, dist)
    return [(top, on_b[:, k], p_recv[:, k]) for k, top in enumerate(tops)]


def _pieces(cols: Columns, cells: list[ModelParams]):
    """One piece list per column, in order. Columns on cascade trees take
    theirs from the closed form one cell at a time, so a large grid never
    holds every cell's sets at once; the other columns share one walk."""
    mu = cells[0].mu
    beta_max = [float(_beta_primes(net, mu).max()) if net.is_cascade_tree else None
                for net in cols.networks]
    on_tree = np.array([x is not None for x in beta_max])[cols.owner]
    walked = iter(()) if on_tree.all() else iter(
        _walk(cols.take(~on_tree), [params for params, t in zip(cells, on_tree) if not t])
    )
    return (
        _cascade_pieces(cols.networks[k], params, beta_max[k]) if beta_max[k] is not None
        else next(walked)
        for k, params in zip(cols.owner.tolist(), cells)
    )


def _decide(mu: float, bp: np.ndarray, thresholds: list[float], pieces: list) -> SenderDecision:
    """The sender's optimum on B over a cell's pieces. Within a piece the
    utility rises with beta except where a user stops trusting, so the
    candidates are every top, every trust threshold (thresholds: the
    distinct values of bp, ascending) and 0, each scored on the set of the
    piece that holds it; a larger candidate wins only by more than
    TIE_TOL."""
    best_beta, best_u = 0.0, -1.0
    k = len(pieces) - 1  # the piece with the lowest top
    for b in sorted({0.0} | {top for top, _, _ in pieces} | set(thresholds)):
        while pieces[k][0] < b:
            k -= 1
        _, on_b, p_recv = pieces[k]
        u = sender_payoff(mu, b, p_recv, on_b & trusts(b, bp))
        if u > best_u + TIE_TOL:
            best_beta, best_u = b, u
    if best_u <= 0.0:
        best_beta, best_u = 0.0, max(best_u, 0.0)
    return SenderDecision(Platform.B, best_beta, best_u)


def optimal_B(network: Network, params: ModelParams) -> SenderDecision:
    """Sender's best deceit level and utility on the unregulated platform B."""
    bp = _beta_primes(network, params.mu)
    [pieces] = _pieces(Columns.single(network, 1), [params])
    return _decide(params.mu, bp, np.unique(bp).tolist(), pieces)


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
    network, in order. All cells must share mu; the search runs in lockstep
    across them (see the module docstring), and the A side is priced once
    per distinct p."""
    cells = list(cells)
    if not cells:
        return []
    mu = cells[0].mu
    if any(params.mu != mu for params in cells):
        raise InvalidParamsError("cells solved together must share mu")
    bp = _beta_primes(network, mu)
    thresholds = np.unique(bp).tolist()
    a_sides: dict[float, _ASide] = {}
    results = []
    for params, pieces in zip(cells, _pieces(Columns.single(network, len(cells)), cells)):
        a_side = a_sides.get(params.p)
        if a_side is None:
            a_side = a_sides[params.p] = _price_a(network, mu, params.p, bp, thresholds)
        results.append(_classify(params, a_side, _decide(mu, bp, thresholds, pieces)))
    return results


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
    tiers, _, _ = _search_on_A(mu, p_a, bp, thresholds, thresholds[-1])
    return _ASide(float(p_a.sum()), tiers,
                  max(sender_weight(mu, k) * t for k, t in tiers.items()))


def _classify(params: ModelParams, a_side: _ASide, decision: SenderDecision) -> RegulationResult:
    sum_p_a = a_side.sum_p_a
    u_star_b = decision.utility
    u_a0 = params.mu * sum_p_a

    if a_side.u_unregulated <= u_star_b + TIE_TOL:
        return RegulationResult(
            RegulationKind.NO_EFFECTIVE_REGULATION, None, u_star_b,
            decision.beta_star, sum_p_a,
        )
    if u_a0 >= u_star_b - TIE_TOL:
        return RegulationResult(
            RegulationKind.ANY_REGULATION, 0.0, u_star_b, decision.beta_star, sum_p_a
        )
    # moderate: walk trust tiers upward; within a tier the utility is linear
    for k, t in a_side.tiers.items():
        if t > 0.0:
            rho = (u_star_b / t - params.mu) / (1.0 - params.mu)
            if rho <= k + TIE_TOL:
                rho = min(max(rho, 0.0), k)
                return RegulationResult(
                    RegulationKind.MODERATE, rho, u_star_b, decision.beta_star, sum_p_a
                )
    raise InvariantViolationError(
        "moderate regulation requested but no trust tier reaches U*_B"
    )


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
    for network, pieces in zip(networks, _pieces(Columns.of(networks), [params] * len(networks))):
        bp = _beta_primes(network, params.mu)
        thresholds = np.unique(bp).tolist()
        p_a = receive_map(params.p, network.relay_distances)
        _, best_beta_a, best_u_a = _search_on_A(params.mu, p_a, bp, thresholds, params.rho_a)
        decision_b = _decide(params.mu, bp, thresholds, pieces)
        if best_u_a >= decision_b.utility - TIE_TOL:
            out.append((SenderDecision(Platform.A, best_beta_a, best_u_a), None))
        else:
            # the piece that holds beta*: the lowest top at or above it
            _, on_b, _ = next(piece for piece in reversed(pieces)
                              if piece[0] >= decision_b.beta_star)
            out.append((decision_b, on_b))
    return out
