"""Shared oracles and instance factories for the suite.

The Monte-Carlo helpers simulate the underlying signaling game directly
(world state, signal, delivery, estimation) so closed-form expectations can
be checked against something that never touches the production formulas.
"""

import numpy as np
import pytest

import platmod.graph
from platmod import (
    ModelParams,
    Network,
    RegulationKind,
    SbmSpec,
    UserProfile,
    gen_sbm,
    trust_threshold,
)
from platmod.adoption import batch_final_b_sets
from platmod.graph import through_platform_distances


def default_params(**overrides) -> ModelParams:
    base = dict(mu=0.2, p=0.9, b_a=0.01, b_b=0.0)
    base.update(overrides)
    return ModelParams(**base)


def mc_estimates(mu, c, beta, p_recv, n_draws, seed):
    """Simulate the signaling game; returns (payoff per draw, estimate per draw)."""
    rng = np.random.default_rng(seed)
    w = rng.random(n_draws) < mu
    s = np.where(w, True, rng.random(n_draws) < beta)
    received = rng.random(n_draws) < p_recv
    if beta <= trust_threshold(mu, c):
        a = received & s
    else:
        a = np.zeros(n_draws, dtype=bool)
    # a=0 is also forced when s=0 arrives; the default guess is 0 anyway
    payoff = np.where(a == w, np.where(w, 1.0 - c, c), 0.0)
    return payoff, a


def mc_news_payoff(mu, c, beta, p_recv, n_draws=2_000_000, seed=7):
    payoff, _ = mc_estimates(mu, c, beta, p_recv, n_draws, seed)
    return float(payoff.mean())


def mc_persuasion_rate(mu, c, beta, p_recv, n_draws=2_000_000, seed=7):
    _, a = mc_estimates(mu, c, beta, p_recv, n_draws, seed)
    return float(a.mean())


def random_sbm_instance(rng: np.random.Generator):
    """A small random SBM plus admissible params and beta, for property tests."""
    m = int(rng.integers(1, 4))
    sizes = tuple(int(rng.integers(2, 16)) for _ in range(m))
    theta = np.zeros((m, m))
    for i in range(m):
        theta[i, i] = rng.uniform(0.2, 1.0)
        for j in range(i + 1, m):
            theta[i, j] = theta[j, i] = rng.uniform(0.0, 0.3)
    mu = float(rng.uniform(0.05, 0.4))
    c = float(rng.uniform(mu + 0.02, 0.49))
    params = ModelParams(
        mu=mu,
        p=float(rng.uniform(0.2, 0.95)),
        b_a=float(rng.uniform(0.0, 0.05)),
        b_b=float(rng.uniform(0.0, 0.02)),
    )
    network = gen_sbm(
        SbmSpec(
            sizes=sizes,
            theta=tuple(tuple(row) for row in theta),
            sender_community=int(rng.integers(0, m)),
            seed=int(rng.integers(0, 2**32)),
            c_by_community=c,
        )
    )
    beta = float(rng.uniform(0.0, 1.0))
    return network, params, beta


def widened_sbm_instance(rng: np.random.Generator):
    """random_sbm_instance plus up to two isolated users and a second sender
    link; returns the Network fields (not a Network, so a test can choose
    the graph representation before building one), params and beta."""
    network, params, beta = random_sbm_instance(rng)
    n = network.n_users + int(rng.integers(0, 3))
    first = network.sender_links[0]
    second = int(rng.choice([u for u in range(n) if u != first]))
    fields = dict(
        n_users=n,
        edges=network.edges,
        sender_links=(first, second),
        profiles=network.profiles + network.profiles[:1] * (n - network.n_users),
    )
    return fields, params, beta


def per_community_c_sbm() -> Network:
    """A 3x8 community chain whose communities have c = 0.25, 0.35, 0.45, so
    its users fall into three trust tiers."""
    return gen_sbm(SbmSpec(
        sizes=(8, 8, 8),
        theta=((0.8, 0.05, 0.0), (0.05, 0.8, 0.05), (0.0, 0.05, 0.8)),
        seed=5,
        c_by_community=(0.25, 0.35, 0.45),
    ))


def build_network(monkeypatch, dense_max_users: int, fields: dict) -> Network:
    """Build a Network with DENSE_MAX_USERS patched: the representation is
    fixed when the Network is built (0 forces CSR, a huge value dense)."""
    monkeypatch.setattr(platmod.graph, "DENSE_MAX_USERS", dense_max_users)
    return Network(**fields)


def diamond_network() -> Network:
    """Sender -> 0; two length-2 paths 0-1-3 and 0-2-3."""
    return Network(
        n_users=4,
        edges=((0, 1), (0, 2), (1, 3), (2, 3)),
        sender_links=(0,),
        profiles=tuple(UserProfile(c=0.3) for _ in range(4)),
    )


def _all_a_tiers(network: Network, params: ModelParams):
    """Trust thresholds and the all-A receive probabilities, from their
    definitions."""
    c = network.c_values
    bp = params.mu * (1.0 - c) / ((1.0 - params.mu) * c)
    on_a = np.ones((network.n_users, 1), dtype=bool)
    dist_a = through_platform_distances(network, on_a)[:, 0]
    return bp, np.where(dist_a >= 0, params.p ** np.maximum(dist_a, 0), 0.0)


def _utilities_on_b(network: Network, params: ModelParams, betas: np.ndarray):
    """(adopter sets, sender utility on B) of the batched engine at each beta."""
    mu, tol = params.mu, 1e-12
    bp, _ = _all_a_tiers(network, params)
    on_b, dist, _, _ = batch_final_b_sets(network, mu, betas, params.p, params.b_a, params.b_b)
    persuaded = on_b & (dist >= 0) & (betas[None, :] <= bp[:, None] + tol)
    reach = np.where(persuaded, params.p ** np.maximum(dist, 0), 0.0).sum(axis=0)
    return on_b, (mu + (1.0 - mu) * betas) * reach


def _classify_by_definition(network: Network, params: ModelParams, u_star_b: float):
    """The classification from its definition over the trust tiers of the
    all-A receive probabilities. Returns (kind, rho_se, u_star_b)."""
    mu, tol = params.mu, 1e-12
    bp, p_a = _all_a_tiers(network, params)
    tiers = [(k, p_a[bp >= k - tol].sum()) for k in np.unique(bp)]
    if max((mu + (1.0 - mu) * k) * t for k, t in tiers) <= u_star_b + tol:
        return RegulationKind.NO_EFFECTIVE_REGULATION, None, u_star_b
    if mu * p_a.sum() >= u_star_b - tol:
        return RegulationKind.ANY_REGULATION, 0.0, u_star_b
    # the smallest cap whose tier, at its linear utility, reaches U*_B
    for k, t in tiers:
        rho = (u_star_b / t - mu) / (1.0 - mu) if t > 0 else np.inf
        if rho <= k + tol:
            return RegulationKind.MODERATE, max(rho, 0.0), u_star_b
    raise AssertionError("no trust tier reaches U*_B")


def dense_beta_regulation(network: Network, params: ModelParams, u_tol: float = 2e-4):
    """Dense-beta oracle for strictest_effective_regulation.

    U*_B is the best sender utility on B over a uniform beta grid plus every
    trust threshold, with the adopter sets of the batched engine (no
    breakpoint search, no cascade closed form). Between grid points the
    utility rises by at most (1-mu) * step * sum_i p_iA, so the step (at
    most 1e-4) keeps the grid's shortfall under u_tol. The classification
    then follows its definition over the trust tiers of the all-A receive
    probabilities. Returns (kind, rho_se, u_star_b).
    """
    bp, p_a = _all_a_tiers(network, params)
    step = min(1e-4, u_tol / ((1.0 - params.mu) * p_a.sum()))
    betas = np.unique(np.concatenate([np.arange(0.0, bp.max(), step), bp]))
    _, utility = _utilities_on_b(network, params, betas)
    return _classify_by_definition(network, params, max(float(utility.max()), 0.0))


def bisection_regulation(network: Network, params: ModelParams, width: float = 1e-9):
    """Interval-bisection oracle for strictest_effective_regulation, one
    cell on its own.

    The batched engine gives the adopter sets at 0 and at every trust
    threshold; every interval whose end sets differ is then halved until it
    is no wider than width. Within an interval of equal end sets the set is
    constant (sets are nested in beta), so U*_B, the best utility over every
    evaluated beta, falls short of the exact optimum by at most
    (1-mu) * width * sum_i p_iA. Returns (kind, rho_se, u_star_b).
    """
    keys, best = {}, 0.0

    def evaluate(betas):
        nonlocal best
        on_b, utility = _utilities_on_b(network, params, np.array(betas))
        keys.update((b, on_b[:, j].tobytes()) for j, b in enumerate(betas))
        best = max(best, float(utility.max()))

    bp, _ = _all_a_tiers(network, params)
    points = sorted({0.0} | {float(x) for x in bp})
    evaluate(points)
    pending = [(lo, hi) for lo, hi in zip(points, points[1:]) if keys[lo] != keys[hi]]
    while pending:
        mids = [(lo + hi) / 2.0 for lo, hi in pending]
        evaluate(mids)
        pending = [
            (lo, hi)
            for (a, b), mid in zip(pending, mids)
            for lo, hi in ((a, mid), (mid, b))
            if keys[lo] != keys[hi] and hi - lo > width
        ]
    return _classify_by_definition(network, params, best)
