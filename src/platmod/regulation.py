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
trees (closed form, nothing to bisect) and the grid fallback (thousands of
columns per cell) solve their cells one after another.
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
from .graph import Network, through_platform_distances
from .model import ModelParams, Platform, TIE_TOL

BISECT_WIDTH = 1e-9
GRID_FALLBACK_STEP = 1e-4


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


def _all_a_distances(network: Network) -> np.ndarray:
    return through_platform_distances(
        network, np.ones((network.n_users, 1), dtype=bool)
    )[:, 0]


def _receive(p: float, dist: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.where(dist >= 0, p ** np.maximum(dist, 0), 0.0)


def utility_on_A(network: Network, params: ModelParams, beta: float) -> float:
    """Sender utility when it stays on A and all users stay with it.

    Sums receive probabilities over users whose individual trust threshold
    admits beta; homogeneous users reduce to (mu + (1-mu)beta) * sum_i p_iA.
    """
    p_a = _receive(params.p, _all_a_distances(network))
    bp = _beta_primes(network, params.mu)
    mask = beta <= bp + TIE_TOL
    return (params.mu + (1.0 - params.mu) * beta) * float(p_a[mask].sum())


def _utility_at(
    params: ModelParams, beta: float, on_b: np.ndarray, dist: np.ndarray, bp: np.ndarray
) -> float:
    p_recv = _receive(params.p, dist)
    mask = on_b & (beta <= bp + TIE_TOL)
    return (params.mu + (1.0 - params.mu) * beta) * float(p_recv[mask].sum())


class _SetCache:
    """Equilibrium adopter sets of one cell, keyed by beta.

    Storing a set checks it against its neighbours in beta order: a set at a
    higher beta must be a subset of the set at a lower beta. The bisection
    relies on this nesting, so a violation raises InvariantViolationError.
    """

    def __init__(self, network: Network, params: ModelParams):
        self.network = network
        self.params = params
        self.use_cascade = network.is_cascade_tree
        self._data: dict[float, tuple[np.ndarray, np.ndarray, bytes]] = {}
        self._betas: list[float] = []  # ascending

    def missing(self, betas) -> list[float]:
        return sorted({float(b) for b in betas} - self._data.keys())

    def store(self, betas: list[float], on_b: np.ndarray, dist: np.ndarray) -> None:
        """Add the sets of new betas, given as columns of on_b and dist."""
        for k, b in enumerate(betas):
            self._data[b] = (on_b[:, k], dist[:, k], on_b[:, k].tobytes())
            bisect.insort(self._betas, b)
        fresh = set(betas)
        for b in betas:
            i = bisect.bisect_left(self._betas, b)
            if i > 0:
                self._check_nested(self._betas[i - 1], b)
            if i + 1 < len(self._betas) and self._betas[i + 1] not in fresh:
                self._check_nested(b, self._betas[i + 1])

    def _check_nested(self, lo: float, hi: float) -> None:
        (lo_set, _, lo_key), (hi_set, _, hi_key) = self._data[lo], self._data[hi]
        if lo_key != hi_key and np.count_nonzero(hi_set > lo_set):
            raise InvariantViolationError(
                f"adopter set at beta={hi!r} is not a subset of the set at beta={lo!r}"
            )

    def set_key(self, beta: float) -> bytes:
        return self._data[beta][2]

    def at(self, beta: float) -> tuple[np.ndarray, np.ndarray]:
        on_b, dist, _ = self._data[beta]
        return on_b, dist

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


def _decisions(
    network: Network, cells: list[ModelParams], bp: np.ndarray, grid_fallback: bool
) -> list[SenderDecision]:
    """optimal_B for cells of one network and one mu, searched in lockstep."""
    caches = [_SetCache(network, params) for params in cells]
    if grid_fallback:
        beta_max = float(bp.max())
        grid = np.arange(0.0, beta_max + GRID_FALLBACK_STEP, GRID_FALLBACK_STEP)
        grid = np.clip(grid, 0.0, beta_max)
        points = list(grid) + [float(x) for x in np.unique(bp)]
        _ensure_all([(cache, points) for cache in caches])
        candidates = [cache.betas() for cache in caches]
    else:
        candidates = _candidate_betas(caches, bp)
    decisions = []
    for cache, cache_candidates in zip(caches, candidates):
        best_beta, best_u = 0.0, -1.0
        for b in cache_candidates:
            on_b, dist = cache.at(b)
            u = _utility_at(cache.params, b, on_b, dist, bp)
            if u > best_u + TIE_TOL:
                best_beta, best_u = b, u
        if best_u <= 0.0:
            best_beta, best_u = 0.0, max(best_u, 0.0)
        decisions.append(SenderDecision(Platform.B, best_beta, best_u))
    return decisions


def optimal_B(
    network: Network, params: ModelParams, grid_fallback: bool = False
) -> SenderDecision:
    """Sender's best deceit level and utility on the unregulated platform B.

    grid_fallback replaces the breakpoint search with a dense beta grid
    (step GRID_FALLBACK_STEP) for cross-checking.
    """
    bp = _beta_primes(network, params.mu)
    return _decisions(network, [params], bp, grid_fallback)[0]


def strictest_effective_regulation(
    network: Network, params: ModelParams, grid_fallback: bool = False
) -> RegulationResult:
    """Classify regulation on platform A against the sender's outside option.

    NoEffectiveRegulation: even the unregulated optimum on A cannot beat the
    best the sender gets on B. AnyRegulation: the truthful cap beta=0 already
    retains the sender (boundary equality included, so a computed cap of
    exactly 0 lands here). Moderate: the smallest cap rho with
    U_A(rho) >= U*_B, which for homogeneous users is
    (U*_B / sum_i p_iA - mu) / (1 - mu).
    """
    return solve_cells(network, [params], grid_fallback=grid_fallback)[0]


def solve_cells(
    network: Network, cells, grid_fallback: bool = False
) -> list[RegulationResult]:
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
    dist_a = _all_a_distances(network)
    lockstep = not (grid_fallback or network.is_cascade_tree)
    groups = [cells] if lockstep else [[params] for params in cells]
    results = []
    for group in groups:
        for params, decision in zip(group, _decisions(network, group, bp, grid_fallback)):
            results.append(_classify(params, _receive(params.p, dist_a), bp, decision))
    return results


def _classify(
    params: ModelParams, p_a: np.ndarray, bp: np.ndarray, decision: SenderDecision
) -> RegulationResult:
    sum_p_a = float(p_a.sum())
    u_star_b = decision.utility

    weight = lambda b: params.mu + (1.0 - params.mu) * b
    kinks = [float(x) for x in np.unique(bp)]
    tier_sum = {k: float(p_a[k <= bp + TIE_TOL].sum()) for k in kinks}
    u_a_unregulated = max(weight(k) * tier_sum[k] for k in kinks)
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
    for k in kinks:
        t = tier_sum[k]
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
    bp = _beta_primes(network, params.mu)
    p_a = _receive(params.p, _all_a_distances(network))
    cap = params.rho_a
    candidates = sorted({cap} | {float(x) for x in np.unique(bp) if x <= cap + TIE_TOL})
    best_beta_a, best_u_a = 0.0, -1.0
    for b in candidates:
        u = (params.mu + (1.0 - params.mu) * b) * float(p_a[b <= bp + TIE_TOL].sum())
        if u > best_u_a + TIE_TOL:
            best_beta_a, best_u_a = b, u
    decision_b = optimal_B(network, params)
    if best_u_a >= decision_b.utility - TIE_TOL:
        return SenderDecision(Platform.A, best_beta_a, best_u_a)
    return decision_b
