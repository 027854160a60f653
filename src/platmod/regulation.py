"""Sender's platform/deceit best response and the strictest effective regulation.

The sender utility on B is piecewise linear in beta: increasing while the
equilibrium adopter set stays constant, with downward jumps where the set
shrinks or a user stops trusting. Because adopter sets are nested and
monotone in beta, the breakpoints are found by set-identity bisection (or in
closed form on cascade trees); the optimum is then a finite-candidate max.

solve_cells answers many (p, b_a, b_b) cells of one network and one mu at
once. Their bisections run in lockstep: each level evaluates every cell's
pending deceit levels in one batched engine call, so a level costs one
engine call for the whole network instead of one per cell. Each cell still
evaluates the same betas with the same arithmetic as it would alone.
strictest_effective_regulation and optimal_B are its one-cell views. Cascade
trees (closed form, nothing to bisect) solve their cells one after another.

On A every user stays with the sender, so one search over the trust tiers
up to a cap (_search_on_A) serves the classification, the full-game outcome
and utility_on_A. Payoffs and the trust test come from the model's kernel.
"""

from __future__ import annotations

import bisect
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
from .model import ModelParams, Platform, TIE_TOL, sender_payoff, sender_weight, trusts

BISECT_WIDTH = 1e-9


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


class _SetCache:
    """Equilibrium adopter sets of one cell, keyed by beta, and the receive
    probabilities of each distinct set (a set fixes its distances).

    Storing a set checks it against its neighbours in beta order: a set at a
    higher beta must be a subset of the set at a lower beta. The bisection
    relies on this nesting, so a violation raises InvariantViolationError.
    """

    def __init__(self, network: Network, params: ModelParams):
        self.network = network
        self.params = params
        self.use_cascade = network.is_cascade_tree
        self._data: dict[float, tuple[np.ndarray, bytes]] = {}
        self._p_recv: dict[bytes, np.ndarray] = {}
        self._betas: list[float] = []  # ascending

    def missing(self, betas) -> list[float]:
        return sorted({float(b) for b in betas} - self._data.keys())

    def store(self, betas: list[float], on_b: np.ndarray, dist: np.ndarray) -> None:
        """Add the sets of new betas, given as columns of on_b and dist."""
        for k, b in enumerate(betas):
            key = on_b[:, k].tobytes()
            self._data[b] = (on_b[:, k], key)
            if key not in self._p_recv:
                self._p_recv[key] = receive_map(self.params.p, dist[:, k])
            bisect.insort(self._betas, b)
        fresh = set(betas)
        for b in betas:
            i = bisect.bisect_left(self._betas, b)
            if i > 0:
                self._check_nested(self._betas[i - 1], b)
            if i + 1 < len(self._betas) and self._betas[i + 1] not in fresh:
                self._check_nested(b, self._betas[i + 1])

    def _check_nested(self, lo: float, hi: float) -> None:
        (lo_set, lo_key), (hi_set, hi_key) = self._data[lo], self._data[hi]
        if lo_key != hi_key and np.count_nonzero(hi_set > lo_set):
            raise InvariantViolationError(
                f"adopter set at beta={hi!r} is not a subset of the set at beta={lo!r}"
            )

    def set_key(self, beta: float) -> bytes:
        return self._data[beta][1]

    def utility(self, beta: float, bp: np.ndarray) -> float:
        """Sender utility on B at a stored beta: its adopters who trust beta,
        weighted by their receive probabilities."""
        on_b, key = self._data[beta]
        return sender_payoff(self.params.mu, beta, self._p_recv[key], on_b & trusts(beta, bp))

    def betas(self) -> list[float]:
        return list(self._betas)


def _ensure_all(requests) -> None:
    """Evaluate the missing betas of (cache, betas) requests on one network.

    All columns go into one batched engine call; on cascade trees each cache
    gets its closed-form sets instead.
    """
    todo = [(cache, new) for cache, betas in requests if (new := cache.missing(betas))]
    if not todo:
        return
    network = todo[0][0].network
    if network.is_cascade_tree:
        for cache, new in todo:
            on_b, dist = cascade_final_b_sets(network, cache.params, np.array(new))
            cache.store(new, on_b, dist)
        return
    counts = [len(new) for _, new in todo]
    per_column = lambda name: np.repeat([getattr(c.params, name) for c, _ in todo], counts)
    on_b, dist, _, _ = batch_final_b_sets(
        network,
        todo[0][0].params.mu,
        np.array([b for _, new in todo for b in new]),
        per_column("p"),
        per_column("b_a"),
        per_column("b_b"),
    )
    start = 0
    for (cache, new), k in zip(todo, counts):
        cache.store(new, on_b[:, start:start + k], dist[:, start:start + k])
        start += k


def _candidate_betas(caches: list[_SetCache], bp: np.ndarray) -> list[list[float]]:
    """Candidate deceit levels for the sender's optimum on B, one list per cache.

    Exact candidates are 0, every distinct trust threshold, and (on cascade
    trees) every distinct wave threshold; on general networks the remaining
    adopter-set breakpoints are bracketed to width BISECT_WIDTH by bisection,
    refining only intervals whose endpoint sets differ. Within a constant-set
    piece the utility increases with beta, so the right end of each piece
    dominates it and ties adopt at equality.

    The caches share one network and one mu. Their bisections run in
    lockstep: the base points, and then each level's midpoints, of every
    cache are evaluated together.
    """
    beta_max = float(bp.max())
    base = {0.0, beta_max}
    base.update(float(x) for x in np.unique(bp))
    if caches[0].use_cascade:
        requests = []
        for cache in caches:
            _, m = cascade_thresholds(cache.network, cache.params)
            requests.append(
                (cache, base | {float(x) for x in np.unique(m) if 0.0 <= x <= beta_max})
            )
        _ensure_all(requests)
        return [cache.betas() for cache in caches]

    points = sorted(base)
    _ensure_all([(cache, points) for cache in caches])
    intervals = [
        [
            (lo, hi)
            for lo, hi in zip(points, points[1:])
            if cache.set_key(lo) != cache.set_key(hi) and hi - lo > BISECT_WIDTH
        ]
        for cache in caches
    ]
    while any(intervals):
        mids = [[(lo + hi) / 2.0 for lo, hi in pending] for pending in intervals]
        _ensure_all(list(zip(caches, mids)))
        refined = []
        for cache, pending, cache_mids in zip(caches, intervals, mids):
            kept = []
            for (lo, hi), mid in zip(pending, cache_mids):
                k_lo, k_mid, k_hi = cache.set_key(lo), cache.set_key(mid), cache.set_key(hi)
                if k_mid != k_lo and mid - lo > BISECT_WIDTH:
                    kept.append((lo, mid))
                if k_mid != k_hi and hi - mid > BISECT_WIDTH:
                    kept.append((mid, hi))
            refined.append(kept)
        intervals = refined
    return [cache.betas() for cache in caches]


def _decisions(network: Network, cells: list[ModelParams], bp: np.ndarray) -> list[SenderDecision]:
    """optimal_B for cells of one network and one mu, searched in lockstep."""
    caches = [_SetCache(network, params) for params in cells]
    decisions = []
    for cache, candidates in zip(caches, _candidate_betas(caches, bp)):
        best_beta, best_u = 0.0, -1.0
        for b in candidates:
            u = cache.utility(b, bp)
            if u > best_u + TIE_TOL:
                best_beta, best_u = b, u
        if best_u <= 0.0:
            best_beta, best_u = 0.0, max(best_u, 0.0)
        decisions.append(SenderDecision(Platform.B, best_beta, best_u))
    return decisions


def optimal_B(network: Network, params: ModelParams) -> SenderDecision:
    """Sender's best deceit level and utility on the unregulated platform B."""
    return _decisions(network, [params], _beta_primes(network, params.mu))[0]


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
    groups = [[params] for params in cells] if network.is_cascade_tree else [cells]
    results = []
    for group in groups:
        for params, decision in zip(group, _decisions(network, group, bp)):
            results.append(_classify(params, receive_map(params.p, dist_a), bp, decision))
    return results


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
