"""Synchronous best-response adoption from the all-in-A state.

The engine is vectorized over a batch of columns: platform search in the
regulation module evaluates many (beta, p, b_a, b_b) combinations against the
same network and mu, and every column of the batch is an independent run of
the exact same synchronous update. A scalar wrapper provides the public
trace-carrying operation. The engine, best_response and nash_check compare
the same sender-side advantage, with the tie rule, from the model's kernel.

On connected acyclic networks with a single sender link the process is a
root-to-leaf wave (each user decides exactly once, when its parent has just
switched), so adopter sets have a closed form; cascade_thresholds exposes it
as a fast path that the regulation module uses for those networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, InvariantViolationError
from .graph import (Network, UNREACHED, all_relay_distances, receive_map, receive_probs,
                    through_platform_distances, validate_mu)
from .model import (ModelParams, Platform, TIE_TOL, news_gain, sender_side_advantage,
                    trust_threshold, trusts)

ITERATION_CAP_SLACK = 1  # cap = n_users + 1, loud failure beyond it


@dataclass(eq=False)
class Assignment:
    """Per-user platform choices (boolean: True = platform B) plus the
    sender's platform."""

    on_b: np.ndarray
    sender_platform: Platform

    def __post_init__(self):
        self.on_b = np.asarray(self.on_b, dtype=bool)

    @classmethod
    def all_a(cls, n_users: int, sender_platform: Platform) -> "Assignment":
        return cls(np.zeros(n_users, dtype=bool), sender_platform)

    def platform_of(self, user: int) -> Platform:
        return Platform.B if self.on_b[user] else Platform.A

    def platforms(self) -> list[Platform]:
        return [Platform.B if x else Platform.A for x in self.on_b]

    @property
    def n_users(self) -> int:
        return self.on_b.size


@dataclass(eq=False)
class EquilibriumOutcome:
    assignment: Assignment
    p_recv: np.ndarray
    iterations: int
    trace: list[frozenset]


def _beta_primes(network: Network, mu: float) -> np.ndarray:
    validate_mu(network, mu)
    return trust_threshold(mu, network.c_values)


def batch_final_b_sets(
    network: Network,
    mu: float,
    betas: np.ndarray,
    p,
    b_a,
    b_b,
    collect_trace: bool = False,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[frozenset]]]:
    """Run the synchronous adoption (sender on B) for a batch of columns.

    Column j runs at deceit level betas[j] with diffusiveness p[j] and
    qualities b_a[j], b_b[j]; each of p, b_a, b_b is one value per column or
    a scalar shared by all. mu is shared: it fixes the trust thresholds.
    Callers validate p, b_a and b_b (ModelParams does).

    Every column starts from all-A, or from start (an (n_users, len(betas))
    boolean on-B matrix) when given. The process is monotone and reaches the
    least fixed point above its start, so a start inside that column's
    equilibrium set (such as the set of the same column at a higher beta)
    ends at the same set as a run from all-A.

    Returns (on_b, dist, productive_rounds, traces): membership and distance
    matrices of shape (n_users, len(betas)), per-column productive round
    counts, and per-column switch-set traces when requested.

    Raises InvariantViolationError if any column exceeds n_users + 1 rounds
    or a user ever prefers flipping B back to A beyond tolerance; either
    would falsify the one-way migration property this process relies on.
    """
    betas = np.asarray(betas, dtype=np.float64)
    p, b_a, b_b = (np.full(betas.shape, x, dtype=np.float64)[None, :] for x in (p, b_a, b_b))
    n = network.n_users
    n_cols = betas.size
    bp = _beta_primes(network, mu)
    c = network.c_values[:, None]
    trusting = trusts(betas[None, :], bp[:, None])
    gain = news_gain(mu, c, betas[None, :])
    deg = network.degrees.astype(np.float64)[:, None]
    linked = network.sender_mask[:, None]
    neighbour_counts = network.neighbour_counts

    # a column whose round switches nobody has reached its fixed point and
    # stays there; once half the live columns have, they are set aside and
    # later rounds work only on the rest
    on_b = np.zeros((n, n_cols), dtype=bool)
    final_dist = np.full((n, n_cols), UNREACHED, dtype=np.int32)
    live = np.arange(n_cols)
    # on_b of the live columns
    cur = on_b.copy() if start is None else np.array(start, dtype=bool)
    traces: list[list[frozenset]] = [[] for _ in range(n_cols)] if collect_trace else []
    rounds = np.zeros(n_cols, dtype=np.int64)

    total_rounds = 0
    while True:
        dist = through_platform_distances(network, cur)
        n_b = neighbour_counts(cur)
        diff, joins = sender_side_advantage(
            n_b, deg, b_b, b_a, trusting, receive_map(p, dist), gain, linked
        )
        if (cur & (diff < -TIE_TOL)).any():
            raise InvariantViolationError("a user on B strictly prefers A; one-way migration violated")
        switch = (~cur) & joins
        moving = switch.any(axis=0)
        if 2 * np.count_nonzero(moving) <= live.size:
            settled = ~moving
            on_b[:, live[settled]] = cur[:, settled]
            final_dist[:, live[settled]] = dist[:, settled]
            live = live[moving]
            cur, switch, trusting, gain, p, b_a, b_b = (
                x[:, moving] for x in (cur, switch, trusting, gain, p, b_a, b_b)
            )
            moving = moving[moving]
        if not live.size:
            break
        total_rounds += 1
        if total_rounds > n + ITERATION_CAP_SLACK:
            raise InvariantViolationError(
                f"adoption exceeded the {n + ITERATION_CAP_SLACK}-round cap"
            )
        rounds[live[moving]] += 1
        if collect_trace:
            for k in np.flatnonzero(moving):
                traces[live[k]].append(frozenset(np.nonzero(switch[:, k])[0].tolist()))
        cur |= switch
    return on_b, final_dist, rounds, traces


def run_adoption(
    network: Network, params: ModelParams, beta: float, sender_platform: Platform
) -> EquilibriumOutcome:
    """Public scalar adoption run from the all-in-A initial state.

    With the sender on A the initial state is already the equilibrium. The
    trace is 0-indexed: on acyclic networks the users switching at trace
    position t sit exactly t edges from the sender.
    """
    if not 0.0 <= beta <= 1.0:
        raise InvalidParamsError(f"beta must lie in [0, 1], got {beta}")
    if sender_platform is Platform.A:
        assignment, iterations, trace = Assignment.all_a(network.n_users, Platform.A), 0, []
    else:
        on_b, _, rounds, traces = batch_final_b_sets(
            network, params.mu, np.array([beta]), params.p, params.b_a, params.b_b,
            collect_trace=True,
        )
        assignment = Assignment(on_b[:, 0], Platform.B)
        iterations, trace = int(rounds[0]), traces[0]
    return EquilibriumOutcome(
        assignment=assignment,
        p_recv=receive_probs(network, params, assignment),
        iterations=iterations,
        trace=trace,
    )


def _sender_side_advantage(
    network: Network, params: ModelParams, beta: float, assignment: Assignment
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(users on the sender's platform, V_sender - V_other, picks the sender's
    platform) per user under an assignment. Users on the sender's platform
    get their actual receive probability, everyone else the hypothetical one
    of moving there alone."""
    if assignment.sender_platform is Platform.B:
        on_side, b_side, b_other = assignment.on_b, params.b_b, params.b_a
    else:
        on_side, b_side, b_other = ~assignment.on_b, params.b_a, params.b_b
    dist = through_platform_distances(network, on_side[:, None])[:, 0]
    n_side = network.neighbour_counts(on_side.astype(np.float64))
    trusting = trusts(beta, _beta_primes(network, params.mu))
    return (on_side,) + sender_side_advantage(
        n_side, network.degrees, b_side, b_other, trusting, receive_map(params.p, dist),
        news_gain(params.mu, network.c_values, beta), network.sender_mask,
    )


def best_response(
    network: Network, params: ModelParams, beta: float, assignment: Assignment, user: int
) -> Platform:
    """Single-user best response. Exact ties go to the sender's platform when
    the user has an attachment there (a direct sender link or at least one
    friend on it); a user with no connection to either option of a zero-value
    tie keeps its platform (the tie rule of model.sender_side_advantage)."""
    _, advantage, joins = _sender_side_advantage(network, params, beta, assignment)
    side = assignment.sender_platform
    if joins[user]:
        return side
    return side.other() if advantage[user] < -TIE_TOL else assignment.platform_of(user)


def nash_check(
    network: Network, params: ModelParams, beta: float, assignment: Assignment
) -> list[int]:
    """Users whose unilateral platform switch strictly improves their utility
    beyond tolerance. Empty list == the assignment is an equilibrium."""
    on_side, advantage, _ = _sender_side_advantage(network, params, beta, assignment)
    gain = np.where(on_side, -advantage, advantage)
    return np.nonzero(gain > TIE_TOL)[0].tolist()


def cascade_thresholds(
    network: Network, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-user adoption thresholds on a cascade tree.

    Returns (depth, m) where m[u] is the largest beta at which user u ends up
    on B when the sender sits on B: the wave reaches u iff beta <= m[u]. m is
    the running minimum, along the path from the root, of each user's own
    switch threshold evaluated at its decision round (parent just switched,
    children still on A).
    """
    if not network.is_cascade_tree:
        raise InvariantViolationError("cascade thresholds need a connected acyclic single-link network")
    validate_mu(network, params.mu)
    c = network.c_values
    root = network.sender_links[0]
    depth = all_relay_distances(network).astype(np.int64)

    deg = network.degrees
    gap = (deg - 1) * params.b_a - params.b_b
    gap[root] = deg[root] * params.b_a
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        thr = (
            params.mu * (1.0 - c) - gap / receive_map(params.p, depth)
        ) / ((1.0 - params.mu) * c)
    thr = np.where(gap <= TIE_TOL, np.inf, thr)

    # propagate the prefix minimum outward from the root
    order = np.argsort(depth, kind="stable")
    m = thr.copy()
    for u in order:
        if u == root:
            continue
        friends = network.neighbours(u)
        parents = friends[depth[friends] == depth[u] - 1]
        m[u] = min(m[u], m[parents[0]])
    return depth, m


def cascade_final_b_sets(
    network: Network, params: ModelParams, betas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form counterpart of batch_final_b_sets for cascade trees."""
    depth, m = cascade_thresholds(network, params)
    betas = np.asarray(betas, dtype=np.float64)
    on_b = m[:, None] >= betas[None, :]
    dist = np.where(on_b, depth[:, None], UNREACHED).astype(np.int32)
    return on_b, dist
