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
walk runs in lockstep across the cells of one network: one engine call at
beta_max, then one per step for every cell with a breakpoint left. On
cascade trees cascade_thresholds gives the tops and cascade_final_b_sets the
sets, one cell at a time. solve_cells answers many (p, b_a, b_b) cells of one
network and one mu; strictest_effective_regulation and optimal_B are its
one-cell views.

On A every user stays with the sender, so one search over the trust tiers
up to a cap (_search_on_A) serves the classification, the full-game outcome
and utility_on_A. Payoffs and the trust test come from the model's kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .adoption import (
    batch_final_b_sets,
    cascade_final_b_sets,
    cascade_thresholds,
    _beta_primes,
)
from .errors import InvalidParamsError, InvariantViolationError
from .graph import Network, all_relay_distances, receive_map
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
    mu: float, p_a: np.ndarray, bp: np.ndarray, cap: float
) -> tuple[dict[float, float], float, float]:
    """The sender's options on A under a deceit cap: its utility is linear in
    beta within a trust tier, so the candidates are the cap and every trust
    threshold at or below it. Returns ({candidate: summed p_a of the users
    trusting it}, best beta, best utility); a larger candidate wins only by
    more than TIE_TOL."""
    tiers = {}
    best_beta, best_u = 0.0, -1.0
    for b in sorted({cap} | {float(x) for x in np.unique(bp) if x <= cap + TIE_TOL}):
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
    p_a = receive_map(params.p, all_relay_distances(network))
    tiers, _, _ = _search_on_A(params.mu, p_a, _beta_primes(network, params.mu), beta)
    return sender_weight(params.mu, beta) * tiers[beta]


def _walk(network: Network, cells: list[ModelParams], bp: np.ndarray) -> list[list]:
    """Pieces of every cell of one network and one mu, walked down from
    beta_max in lockstep.

    Within a piece no outsider's advantage reaches the join tie, so the
    next breakpoint is the largest level below the current one where an
    outsider's advantage, linear in beta while it trusts, reaches
    -_JOIN_MARGIN; the engine, warm-started from the current set, gives the
    set there. A predicted joiner the engine leaves out is tried once more at
    its exact root (advantage 0); leaving it out there raises, and so does a
    new set that does not contain its start.
    """
    mu = cells[0].mu
    p, b_a, b_b = (np.array([getattr(params, name) for params in cells])
                   for name in ("p", "b_a", "b_b"))
    c = network.c_values[:, None]
    deg = network.degrees.astype(np.float64)[:, None]
    linked = network.sender_mask[:, None]
    beta = np.full(len(cells), float(bp.max()))
    on_b, dist, _, _ = batch_final_b_sets(network, mu, beta, p, b_a, b_b)
    live = np.arange(len(cells))
    pieces = [[] for _ in cells]
    while True:
        p_recv = receive_map(p[live], dist)
        for k, j in enumerate(live):
            pieces[j].append((float(beta[k]), on_b[:, k], p_recv[:, k]))
        # each outsider's advantage at beta = 0, where everyone trusts
        adv0, _ = sender_side_advantage(
            network.neighbour_counts(on_b), deg, b_b[live], b_a[live], True, p_recv,
            news_gain(mu, c, 0.0), linked,
        )
        slope = (1.0 - mu) * c * p_recv
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
        start, above, live, beta = on_b[:, going], beta[going], live[going], nxt[going]
        on_b, dist, _, _ = batch_final_b_sets(
            network, mu, beta, p[live], b_a[live], b_b[live], start=start
        )
        shrunk = (start > on_b).any(axis=0)
        if shrunk.any():
            k = int(np.argmax(shrunk))
            raise InvariantViolationError(
                f"adopter set at beta={float(above[k])!r} is not a subset of the set at "
                f"beta={float(beta[k])!r}"
            )


def _cascade_pieces(network: Network, params: ModelParams, bp: np.ndarray) -> list:
    """Pieces of one cell on a cascade tree: the wave thresholds in
    [0, beta_max] and beta_max are the tops, the closed form the sets."""
    beta_max = float(bp.max())
    _, m = cascade_thresholds(network, params)
    tops = sorted({beta_max} | {float(x) for x in np.unique(m) if 0.0 <= x <= beta_max},
                  reverse=True)
    on_b, dist = cascade_final_b_sets(network, params, np.array(tops))
    p_recv = receive_map(params.p, dist)
    return [(top, on_b[:, k], p_recv[:, k]) for k, top in enumerate(tops)]


def _pieces(network: Network, cells: list[ModelParams], bp: np.ndarray):
    """One piece list per cell, in order. Cascade trees give them one cell at
    a time, so a large grid never holds every cell's sets at once."""
    if network.is_cascade_tree:
        return (_cascade_pieces(network, params, bp) for params in cells)
    return _walk(network, cells, bp)


def _decide(mu: float, bp: np.ndarray, pieces: list) -> SenderDecision:
    """The sender's optimum on B over a cell's pieces. Within a piece the
    utility rises with beta except where a user stops trusting, so the
    candidates are every top, every trust threshold and 0, each scored on the
    set of the piece that holds it; a larger candidate wins only by more
    than TIE_TOL."""
    best_beta, best_u = 0.0, -1.0
    k = len(pieces) - 1  # the piece with the lowest top
    for b in sorted({0.0} | {top for top, _, _ in pieces} | {float(x) for x in np.unique(bp)}):
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
    [pieces] = _pieces(network, [params], bp)
    return _decide(params.mu, bp, pieces)


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
    across them (see the module docstring)."""
    cells = list(cells)
    if not cells:
        return []
    mu = cells[0].mu
    if any(params.mu != mu for params in cells):
        raise InvalidParamsError("cells solved together must share mu")
    bp = _beta_primes(network, mu)
    dist_a = all_relay_distances(network)
    return [
        _classify(params, receive_map(params.p, dist_a), bp, _decide(mu, bp, pieces))
        for params, pieces in zip(cells, _pieces(network, cells, bp))
    ]


def _classify(
    params: ModelParams, p_a: np.ndarray, bp: np.ndarray, decision: SenderDecision
) -> RegulationResult:
    sum_p_a = float(p_a.sum())
    u_star_b = decision.utility
    tiers, _, _ = _search_on_A(params.mu, p_a, bp, float(bp.max()))
    u_a_unregulated = max(sender_weight(params.mu, k) * t for k, t in tiers.items())
    u_a0 = params.mu * sum_p_a

    if u_a_unregulated <= u_star_b + TIE_TOL:
        return RegulationResult(
            RegulationKind.NO_EFFECTIVE_REGULATION, None, u_star_b,
            decision.beta_star, sum_p_a,
        )
    if u_a0 >= u_star_b - TIE_TOL:
        return RegulationResult(
            RegulationKind.ANY_REGULATION, 0.0, u_star_b, decision.beta_star, sum_p_a
        )
    # moderate: walk trust tiers upward; within a tier the utility is linear
    for k, t in tiers.items():
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
    p_a = receive_map(params.p, all_relay_distances(network))
    _, best_beta_a, best_u_a = _search_on_A(
        params.mu, p_a, _beta_primes(network, params.mu), params.rho_a
    )
    decision_b = optimal_B(network, params)
    if best_u_a >= decision_b.utility - TIE_TOL:
        return SenderDecision(Platform.A, best_beta_a, best_u_a)
    return decision_b
