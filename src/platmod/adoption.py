"""Synchronous best-response adoption from the all-in-A state.

The engine is vectorized over a batch of columns: platform search in the
regulation module evaluates many (beta, p, b_a, b_b) combinations, and
every column of the batch is an independent run of the exact same
synchronous update. Each column carries its own network (graph.Columns),
and the columns of several networks of one size share every round. Columns
does every neighbour count and relaxation (the graph module's docstring
names the paths and why each pays): the counts of dense networks are one
float32 matmul over their stacked adjacency, a lone network's included (a
loop over the networks for CSR ones); the relaxation is one level loop over
all columns through those counts (a queue walk per network where each
network has one column and the pool is not several dense networks); and the
rest is elementwise over per-user arrays spread from the networks' rows to
the columns. A single network is the one-network case.
A column that reaches its fixed point can be restarted at another deceit
level from the state it reached, in the next round, while the others go on,
and queued columns can be admitted as others finish, so one call walks any
number of columns while holding few at once (the regulation module's walk
does both). A scalar wrapper provides the public trace-carrying operation.
The engine compares the sender-side advantage, with the tie rule, from the
model's kernel; it builds each column's news row there (model.news_row)
once at its start and at each restart, so no per-user trust mask is kept.

On connected acyclic networks with a single sender link the process is a
root-to-leaf wave (each user decides exactly once, when its parent has just
switched), so adopter sets have a closed form; cascade_thresholds exposes it
as a fast path that the regulation module uses for those networks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import InvalidParamsError, InvariantViolationError
from .graph import Columns, Network, UNREACHED, receive_map, validate_mu
from .model import (ModelParams, Platform, TIE_TOL, news_row, sender_side_advantage,
                    trust_limit, trust_threshold)

# bench/selfcheck.py checks that tracing leaves this module's binding of the
# distance query as it found it; the binding can go once that check reads
# platmod.graph's alone
through_platform_distances = graph.through_platform_distances

ITERATION_CAP_SLACK = 1  # cap = n_users + 1 rounds since a (re)start, loud failure beyond it
# restarts in a row after which a column moved nobody, loud failure beyond
# them: the walk's exact-root retry makes one
IDLE_RESTART_CAP = 2


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

    def platforms(self) -> list[Platform]:
        return [Platform.B if x else Platform.A for x in self.on_b]


@dataclass(eq=False)
class EquilibriumOutcome:
    assignment: Assignment
    p_recv: np.ndarray
    iterations: int
    trace: list[frozenset]


def _beta_primes(network: Network, mu: float) -> np.ndarray:
    validate_mu(network, mu)
    return trust_threshold(mu, network.c_values)


def _trust_limits(cols: Columns, mu: float) -> np.ndarray:
    """Each network's trust_limit of _beta_primes (a user trusts beta iff
    beta <= its limit), stacked and kept by the pool."""
    return cols.rows(("trust_limit", mu), lambda net: trust_limit(_beta_primes(net, mu)))


def _int32_degrees(network: Network) -> np.ndarray:
    """Degrees as int32: degree - n_b casts them to float64 exactly."""
    return network.degrees.astype(np.int32)


def batch_final_b_sets(
    network: Network | Columns,
    mu: float,
    betas: np.ndarray,
    p,
    b_a,
    b_b,
    collect_trace: bool = False,
    step=None,
    admit=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[frozenset]]]:
    """Run the synchronous adoption (sender on B) for a batch of columns.

    network is the Network every column runs on, or Columns naming each
    column's network, which the call merges (Columns.merge) into a pool of
    its own. Column j runs at deceit level betas[j] with diffusiveness p[j]
    and qualities b_a[j], b_b[j]; each of p, b_a, b_b is one value per
    column or a scalar shared by all. mu is shared: it fixes the trust
    thresholds. Callers validate p, b_a and b_b (ModelParams does).
    Every column starts from all-A: the sender's linked users at distance 0,
    everyone else UNREACHED, no B-neighbours.

    The distances and counts are carried across rounds: users only move from
    A to B, so after a round the switchers' counts are added to the counts
    (exact integers) and the distances are relaxed from the switchers
    (Columns.relax), with the same results as recomputing both from scratch.
    A column's result does not depend on the other columns of the batch.

    step, when given, is called in every round where columns reach their
    fixed point, as step(index, cols, beta, on_b, n_b, p_recv): their
    numbers (ascending), their Columns, their levels and their states,
    (n_users, k) arrays of the set, the B-neighbour counts and the receive
    probabilities receive_map(p, dist) of its through_platform_distances.
    It returns each column's next level. A column given a level >= 0
    restarts there from its state in the next round. The process is
    monotone and reaches the least fixed point above its start, so from a
    state inside the equilibrium set of the new level (such as the set of a
    higher level) it ends at the set a run from all-A reaches. A column
    given a negative level is done; without step every column is done at
    its first fixed point.

    Once half the live columns are done they are set aside. admit, when
    given with step, is then called with the number of columns still live,
    and returns more columns, (Columns, betas, p, b_a, b_b) on networks of
    the same size, or None. They are numbered on from the columns before
    them and start from all-A in the next round.

    Returns (on_b, dist, productive_rounds, traces): each column's final
    membership and distance matrices of shape (n_users, columns), its
    productive round count summed over its restarts, and its switch-set
    trace, every restart's rounds in turn, when requested. Every column is
    covered, admitted ones included, in their numbers' order.

    Raises InvariantViolationError if a column runs more than n_users + 1
    rounds since it last (re)started, or a user ever prefers flipping B
    back to A beyond tolerance; either would falsify the one-way migration
    property this process relies on. It also raises when a column is
    started or restarted more than IDLE_RESTART_CAP times in a row without
    moving anybody, so a step that keeps naming a level where the column
    stays put fails instead of looping.
    """
    level = np.array(betas, dtype=np.float64)  # a copy: restarts overwrite it
    p, b_a, b_b = (np.full(level.shape, x, dtype=np.float64)[None, :] for x in (p, b_a, b_b))
    cols = (network.merge() if isinstance(network, Columns)
            else Columns.repeat((network,), level.size))
    n = cols.n_users

    def news_at(new: Columns, at: np.ndarray) -> np.ndarray:
        """The news_row of columns at levels at, from the per-network rows of
        c and the trust limits (made with validate_mu) that the pool keeps."""
        return news_row(mu, new.spread(cols.rows("c_values")), at[None, :],
                        new.spread(_trust_limits(cols, mu)))

    def start(new: Columns, at: np.ndarray) -> list[np.ndarray]:
        """The per-user state of columns starting from all-A at levels at: on
        B, B-neighbour counts, distances, news row, degrees and sender
        links."""
        linked = new.spread(cols.rows("sender_mask"))
        return [np.zeros(linked.shape, dtype=bool), np.zeros(linked.shape),
                np.where(linked, np.int32(0), np.int32(UNREACHED)), news_at(new, at),
                new.spread(cols.rows("degrees", _int32_degrees)), linked]

    # a column whose round switches nobody has reached its fixed point; a
    # done one stays there, and once half the live columns are done, they
    # are set aside and later rounds work only on the rest
    # (numbers, on_b, dist) of the columns set aside, each distance in the
    # narrowest integer type that holds -n (int8 up to 128 users)
    finals, small = [], np.min_scalar_type(-n)
    # the live columns' numbers and states, updated in place by the rounds
    live = np.arange(level.size)
    cur, n_b, dist, news, deg, linked = start(cols, level)
    done = np.zeros(level.size, dtype=bool)
    traces: list[list[frozenset]] = [[] for _ in live] if collect_trace else []
    rounds = np.zeros(level.size, dtype=np.int64)
    # each live column's rounds at its last (re)start, and its starts and
    # restarts in a row that moved nobody
    began = np.zeros(level.size, dtype=np.int64)
    idle = np.zeros(level.size, dtype=np.int64)
    cap = n + ITERATION_CAP_SLACK

    while True:
        p_recv = receive_map(p, dist)
        diff, joins = sender_side_advantage(n_b, deg, b_b, b_a, p_recv, news, linked)
        if (cur & (diff < -TIE_TOL)).any():
            raise InvariantViolationError("a user on B strictly prefers A; one-way migration violated")
        switch = (~cur) & joins
        moving = switch.any(axis=0)
        settled = np.flatnonzero(~(moving | done))
        # the round's temporaries go before step makes its own
        settled_p_recv = p_recv[:, settled]
        del diff, joins, p_recv
        if settled.size:
            idle[settled] = np.where(rounds[live[settled]] == began[settled],
                                     idle[settled] + 1, 0)
            if idle[settled].max() > IDLE_RESTART_CAP:
                raise InvariantViolationError(
                    f"a column was started or restarted {IDLE_RESTART_CAP + 1} times in a row "
                    "without moving anybody")
            nxt = (np.full(settled.size, -np.inf) if step is None else np.asarray(step(
                live[settled], cols.take(settled), level[settled], cur[:, settled],
                n_b[:, settled], settled_p_recv)))
            going = nxt >= 0.0
            done[settled[~going]] = True
            again = settled[going]
            if again.size:
                level[again] = nxt[going]
                news[:, again] = news_at(cols.take(again), level[again])
                began[again] = rounds[live[again]]
        if 2 * np.count_nonzero(done) >= live.size:
            finals.append((live[done], cur[:, done], dist[:, done].astype(small)))
            keep = ~done
            more = admit(np.count_nonzero(keep)) if admit else None
            if not (more or keep.any()):
                break
            # the pool drops the networks it no longer needs
            cols = cols.take(keep).merge(more[0] if more else None)
            per_user = [x[:, keep] for x in (cur, n_b, dist, news, deg, linked, switch, p,
                                              b_a, b_b)]
            per_col = [x[keep] for x in (live, level, moving, began, idle, done)]
            if more:
                _, at, *params = more
                more = None  # the pool holds the networks it needs
                at = np.array(at, dtype=np.float64)
                fresh = start(cols.take(slice(-at.size, None)), at)
                fresh += [np.zeros((n, at.size), dtype=bool)]
                fresh += [np.array(x, dtype=np.float64)[None, :] for x in params]
                per_user = [np.concatenate(pair, axis=1) for pair in zip(per_user, fresh)]
                blank = np.zeros(at.size, dtype=np.int64)
                fresh = (np.arange(rounds.size, rounds.size + at.size), at, blank, blank, blank,
                         blank)
                per_col = [np.concatenate(pair).astype(pair[0].dtype, copy=False)
                           for pair in zip(per_col, fresh)]
                rounds = np.concatenate([rounds, blank])
                traces += [[] for _ in blank] if collect_trace else []
            cur, n_b, dist, news, deg, linked, switch, p, b_a, b_b = per_user
            live, level, moving, began, idle, done = per_col
        if not moving.any():
            continue
        stepping = live[moving]
        rounds[stepping] += 1
        if (rounds[stepping] - began[moving]).max() > cap:
            raise InvariantViolationError(f"adoption exceeded the {cap}-round cap")
        if collect_trace:
            for k in np.flatnonzero(moving):
                traces[live[k]].append(frozenset(np.nonzero(switch[:, k])[0].tolist()))
        cur |= switch
        n_b += cols.neighbour_counts(switch)
        cols.relax(dist, cur, switch)
    on_b = np.empty((n, rounds.size), dtype=bool)
    final_dist = np.empty(on_b.shape, dtype=np.int32)
    while finals:  # each set-aside block goes once it is copied
        numbers, *state = finals.pop()
        on_b[:, numbers], final_dist[:, numbers] = state
    return on_b, final_dist, rounds, traces


def run_adoption(
    network: Network, params: ModelParams, beta: float, sender_platform: Platform
) -> EquilibriumOutcome:
    """Public scalar adoption run from the all-in-A initial state.

    With the sender on A the initial state is already the equilibrium, and
    every user receives at its relay distance. The trace is 0-indexed: on
    acyclic networks the users switching at trace position t sit exactly t
    edges from the sender.
    """
    if not 0.0 <= beta <= 1.0:
        raise InvalidParamsError(f"beta must lie in [0, 1], got {beta}")
    if sender_platform is Platform.A:
        assignment, iterations, trace = Assignment.all_a(network.n_users, Platform.A), 0, []
        p_recv = receive_map(params.p, network.relay_distances)
    else:
        on_b, dist, rounds, traces = batch_final_b_sets(
            network, params.mu, np.array([beta]), params.p, params.b_a, params.b_b,
            collect_trace=True,
        )
        assignment = Assignment(on_b[:, 0], Platform.B)
        iterations, trace = int(rounds[0]), traces[0]
        p_recv = np.where(on_b[:, 0], receive_map(params.p, dist[:, 0]), 0.0)
    return EquilibriumOutcome(assignment, p_recv, iterations, trace)


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
    depth = network.relay_distances.astype(np.int64)

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
