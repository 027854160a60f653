"""Parameters and the payoff kernel.

All randomness of the signaling interaction (world state, signal, user
estimates) is marginalized analytically; the functions below return
expectations. A Monte-Carlo oracle for the underlying game lives in the
test suite only.

The kernel functions below take numpy arrays (per user, or per user and batch
column) and are the one place the trust test, payoffs and tie rule are
written. Trust gates news in news_row alone: an outsider's advantage is its
social terms plus its receive probability times that row, and the sender's
payoff is its persuasion rate over the receivers who trust it. There is no
per-user scalar copy of either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParamsError

# Absolute tolerance for tie detection in utility comparisons. Thresholds
# like F(K) are exact rationals in tests but floats in sweeps.
TIE_TOL = 1e-12


class Platform(Enum):
    A = "A"
    B = "B"


@dataclass(frozen=True)
class ModelParams:
    """World and platform parameters.

    mu     -- prior probability of the surprising world state (0 < mu < 1/2)
    p      -- information diffusiveness per edge (0 < p < 1)
    b_a    -- social-interaction quality per friend on platform A (>= 0)
    b_b    -- social-interaction quality per friend on platform B (>= 0)
    rho_a  -- deceit cap enforced by platform A, in [0, 1]
    rho_b  -- fixed at 1: the alternative platform never regulates
    """

    mu: float
    p: float
    b_a: float
    b_b: float
    rho_a: float = 1.0
    rho_b: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.mu < 0.5:
            raise InvalidParamsError(f"mu must lie in (0, 1/2), got {self.mu}")
        if not 0.0 < self.p < 1.0:
            raise InvalidParamsError(f"p must lie in (0, 1), got {self.p}")
        if not (0.0 <= self.b_a < math.inf and 0.0 <= self.b_b < math.inf):
            raise InvalidParamsError(
                f"platform qualities b_a, b_b must be finite and >= 0, got {self.b_a}, {self.b_b}")
        if not 0.0 <= self.rho_a <= 1.0:
            raise InvalidParamsError(f"rho_a must lie in [0, 1], got {self.rho_a}")
        if self.rho_b != 1.0:
            raise InvalidParamsError("rho_b is fixed at 1")


@dataclass(frozen=True)
class UserProfile:
    """Per-user payoff for guessing the unsurprising state, plus a community label.

    The domain constraint mu < c < 1/2 couples c to ModelParams.mu and is
    checked by graph.validate_mu() whenever a network meets concrete params.
    """

    c: float
    community: int = 0

    def __post_init__(self):
        if not 0.0 < self.c < 0.5:
            raise InvalidParamsError(f"c must lie in (0, 1/2), got {self.c}")
        if self.community < 0:
            raise InvalidParamsError("community label must be >= 0")


def trust_threshold(mu: float, c):
    """Largest deceit level at which a signal is still worth acting on.

    Equals mu*(1-c) / ((1-mu)*c) and lies in (0, 1) on the valid domain
    mu < c < 1/2. c is one payoff or an array of them, one per user.
    """
    cs = np.asarray(c)
    if not (0.0 < mu and (mu < cs).all() and (cs < 0.5).all()):
        raise InvalidParamsError(f"need 0 < mu < c < 1/2, got mu={mu}, c={c}")
    return mu * (1.0 - c) / ((1.0 - mu) * c)


def trust_limit(beta_prime):
    """The largest beta a user of threshold beta_prime trusts (trusts)."""
    return beta_prime + TIE_TOL


def trusts(beta, beta_prime):
    """Tie at beta == beta_prime counts as trusting (closed upper interval)."""
    return beta <= trust_limit(beta_prime)


def news_gain(mu: float, c, beta):
    """Gain over the no-signal payoff (1-mu)*c per unit of receive probability
    of a user who trusts the signal."""
    return mu * (1.0 - c) - (1.0 - mu) * beta * c


def sender_weight(mu: float, beta):
    """Persuasion rate of one user who receives and trusts the signal."""
    return mu + (1.0 - mu) * beta


def sender_payoff(mu: float, beta: float, p_recv: np.ndarray, persuaded: np.ndarray) -> float:
    """Expected number of persuaded users among the mask persuaded."""
    return sender_weight(mu, beta) * float(p_recv[persuaded].sum())


def news_row(mu: float, c, beta, limit):
    """news_gain of each user where it trusts beta (beta <= limit, its
    trust_limit), 0 elsewhere: the one place trust gates news."""
    return np.where(beta <= limit, news_gain(mu, c, beta), 0.0)


def sender_side_advantage(n_side, degree, b_side, b_other, p_recv, news, linked):
    """(V_sender - V_other, joins the sender's platform) for each user.

    n_side counts the user's friends on the sender's platform, p_recv is its
    receive probability there and news its news_row; the no-signal payoff of
    the other platform cancels. Tie rule: the sender's platform wins beyond
    TIE_TOL, and on an exact tie for users attached there (direct link or a
    friend on it); a user indifferent between two platforms it has no
    connection to stays put.

    The advantage is n_side * b_side - (degree - n_side) * b_other +
    p_recv * news, worked out in place in that order (so with the same
    bits); n_side * b_side must have the shape of the result.
    """
    advantage = n_side * b_side
    term = np.subtract(degree, n_side)
    term *= b_other
    advantage -= term
    advantage += np.multiply(p_recv, news, out=term)
    tied = np.abs(advantage, out=term) <= TIE_TOL
    tied &= linked | (n_side >= 0.5)  # attached
    return advantage, (advantage > TIE_TOL) | tied
