"""Shared oracles and instance factories for the suite.

The Monte-Carlo helpers simulate the underlying signaling game directly
(world state, signal, delivery, estimation) so closed-form expectations can
be checked against something that never touches the production formulas.
"""

import numpy as np
import pytest

import platmod.graph
from platmod import ModelParams, Network, SbmSpec, UserProfile, gen_sbm, trust_threshold


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
