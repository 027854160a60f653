"""Closed-form thresholds and optima for prototypical network families.

These are the oracles the simulator is validated against: piecewise-linear
sender optima on the infinite line, and for each family the minimum platform
quality gap that makes the tightest regulation (a zero deceit cap)
enforceable. Finite families carry end corrections because the farthest
users lose nothing socially by following their last neighbor off-platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .model import ModelParams, news_gain, sender_weight, trust_threshold
from .regulation import RegulationKind, RegulationResult

ENVELOPE_EPS = 1e-15  # mu * p**K below this can no longer win a maximum


def _check_mu_c(mu: float, c: float) -> None:
    if not 0.0 < mu < c < 0.5:
        raise InvalidParamsError(f"need 0 < mu < c < 1/2, got mu={mu}, c={c}")


def big_f(k: int, params: ModelParams, c: float) -> float:
    """Deceit level at which the user k edges out is exactly indifferent to
    following; decreasing in k, possibly negative (then k is unreachable)."""
    _check_mu_c(params.mu, c)
    gap = params.b_a - params.b_b
    return (params.mu * (1.0 - c) - gap / params.p**k) / ((1.0 - params.mu) * c)


def big_g(beta: float, params: ModelParams, c: float) -> float:
    """Inverse of big_f: the farthest user index still following at beta."""
    _check_mu_c(params.mu, c)
    gap = params.b_a - params.b_b
    if gap <= 0.0:
        raise InvalidParamsError("G needs b_a > b_b")
    denom = news_gain(params.mu, c, beta)
    if denom <= 0.0:
        raise InvalidParamsError(f"G undefined at beta={beta}: nonpositive log argument")
    return math.log(gap / denom) / math.log(params.p)


def f_k(k: int, p: float, mu: float = 0.2, c: float = 0.3) -> float:
    """Infinite-line gap threshold term for a wave stopping after user k."""
    _check_mu_c(mu, c)
    return mu * p**k - mu * c * p**k / (1.0 - p ** (k + 1))


def _finite_interior(n: int, k: int, p: float, mu: float, c: float) -> float:
    """The interior stop term k of a finite line or star chain of n."""
    return mu * p**k - (1.0 - p**n) * mu * c * p**k / (1.0 - p ** (k + 1))


def f_nk(n: int, k: int, p: float, mu: float = 0.2, c: float = 0.3) -> float:
    """Finite-line threshold terms, k = 0..n-2.

    k <= n-3 is the interior stop; the k = n-2 slot is the full-migration
    term mu*(1-c)*p**(n-2): the wave cannot stop at the second-to-last user
    because the last one always follows it.
    """
    _check_mu_c(mu, c)
    if not 0 <= k <= n - 2:
        raise InvalidParamsError(f"finite line of {n} users has terms k=0..{n - 2}")
    if k == n - 2:
        return mu * (1.0 - c) * p ** (n - 2)
    return _finite_interior(n, k, p, mu, c)


def g_nk(n: int, k: int, p: float, mu: float = 0.2, c: float = 0.3) -> float:
    """Finite star-chain threshold terms (on r*b_a - b_b), k = 0..n-1."""
    _check_mu_c(mu, c)
    if not 0 <= k <= n - 1:
        raise InvalidParamsError(f"star chain of {n} hubs has terms k=0..{n - 1}")
    return _finite_interior(n, k, p, mu, c)


def h_k(k: int, p: float, r: int, mu: float = 0.2, c: float = 0.3) -> float:
    """Infinite regular-tree threshold term (on r*b_a - b_b)."""
    _check_mu_c(mu, c)
    if p * r == 1.0:
        raise InvalidParamsError("h_k is undefined at p*r == 1; the receiver sum diverges")
    return mu * p**k - mu * c * p**k / (1.0 - (p * r) ** (k + 1))


def h_nk(n: int, k: int, p: float, r: int, mu: float = 0.2, c: float = 0.3) -> float:
    """Finite regular-tree threshold terms (levels 0..n-1), k = 0..n-2.

    The k = n-2 slot is the full-migration term, as on the line. At p*r == 1
    the ratio (1-(pr)**n)/(1-(pr)**(k+1)) is taken in the limit, n/(k+1).
    """
    _check_mu_c(mu, c)
    if not 0 <= k <= n - 2:
        raise InvalidParamsError(f"tree with {n} levels has terms k=0..{n - 2}")
    if k == n - 2:
        return mu * (1.0 - c) * p ** (n - 2)
    pr = p * r
    if pr == 1.0:
        ratio = n / (k + 1)
    else:
        ratio = (1.0 - pr**n) / (1.0 - pr ** (k + 1))
    return mu * p**k - ratio * mu * c * p**k


def k_cap(mu: float, p: float) -> int:
    """Terms beyond this index are bounded by mu*p**K < ENVELOPE_EPS and
    cannot win any of the maxima above."""
    return max(1, math.ceil(math.log(ENVELOPE_EPS / mu) / math.log(p)))


@dataclass(frozen=True)
class FamilySpec:
    """A prototypical network family for the closed-form operations.

    kind is one of linear-infinite, linear-finite, star-chain-infinite,
    star-chain-finite, tree-infinite, tree-finite. n is the user count for
    finite lines, the hub count for finite star chains, and the generation
    count (root = generation 0) for finite trees. c may be a per-distance
    schedule on the linear families.
    """

    kind: str
    params: ModelParams
    c: float | tuple[float, ...] = 0.3
    n: int | None = None
    r: int | None = None

    KINDS = (
        "linear-infinite",
        "linear-finite",
        "star-chain-infinite",
        "star-chain-finite",
        "tree-infinite",
        "tree-finite",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidParamsError(f"unknown family kind {self.kind!r}")
        if self.kind.endswith("-finite"):
            if self.n is None or self.n < 1:
                raise InvalidParamsError(f"{self.kind} needs n >= 1")
        if self.kind.startswith(("star-chain", "tree")):
            if self.r is None or self.r < 1:
                raise InvalidParamsError(f"{self.kind} needs r >= 1")
        if not np.isscalar(self.c):
            if not self.kind.startswith("linear"):
                raise InvalidParamsError("per-distance c schedules apply to linear families only")
            if len(self.c) == 0:
                raise InvalidParamsError("a per-distance c schedule needs at least one value")


def _c_at(c, k: int) -> float:
    if np.isscalar(c):
        return float(c)
    seq = list(c)
    return float(seq[min(k, len(seq) - 1)])


def threshold_rho0(family: FamilySpec) -> float:
    """Minimum quality gap above which a zero cap keeps every user on A.

    The gap quantity is b_a - b_b for linear families and r*b_a - b_b for
    star chains and trees. The result may be nonpositive, meaning any
    positive gap suffices. Infinite maxima stop at k_cap; an infinite tree
    with p*r >= 1 has a divergent receiver sum, so its threshold is 0.
    """
    p, mu = family.params.p, family.params.mu
    kind = family.kind
    if kind == "linear-infinite":
        ks = range(k_cap(mu, p) + 1)
        return max(f_k(k, p, mu, _c_at(family.c, k)) for k in ks)
    if kind == "linear-finite":
        n = family.n
        if n < 2:
            return 0.0
        return max(f_nk(n, k, p, mu, _c_at(family.c, k)) for k in range(n - 1))
    if kind == "star-chain-infinite":
        ks = range(k_cap(mu, p) + 1)
        return max(f_k(k, p, mu, float(family.c)) for k in ks)
    if kind == "star-chain-finite":
        return max(g_nk(family.n, k, p, mu, float(family.c)) for k in range(family.n))
    if kind == "tree-infinite":
        if p * family.r >= 1.0:
            return 0.0
        ks = range(k_cap(mu, p) + 1)
        return max(h_k(k, p, family.r, mu, float(family.c)) for k in ks)
    if kind == "tree-finite":
        n_levels = family.n + 1  # generations 0..n
        if n_levels < 2:
            return 0.0
        return max(
            h_nk(n_levels, k, p, family.r, mu, float(family.c))
            for k in range(n_levels - 1)
        )
    raise InvalidParamsError(f"unknown family kind {kind!r}")


def boundary_b_a(family: FamilySpec) -> float:
    """The threshold expressed as a b_a value given the family's b_b."""
    t = threshold_rho0(family)
    if family.kind.startswith("linear"):
        return t + family.params.b_b
    return (t + family.params.b_b) / family.r


def ustar_b_linear_infinite(params: ModelParams, c: float = 0.3) -> tuple[float, float, int]:
    """Sender's optimum on B against an infinite line: (U*_B, beta*, K*).

    Candidates are the indifference levels big_f(K); negative ones are
    dropped from the candidate set (the wave cannot reach user K at any
    admissible deceit level), so a gap of mu*(1-c) or more leaves nothing.
    """
    _check_mu_c(params.mu, c)
    if params.b_a <= params.b_b:
        raise InvalidParamsError("the infinite-line optimum needs b_a > b_b")
    best = (0.0, 0.0, -1)
    for k in range(k_cap(params.mu, params.p) + 1):
        beta = big_f(k, params, c)
        if beta < 0.0:
            break
        u = sender_weight(params.mu, beta) * (1.0 - params.p ** (k + 1)) / (1.0 - params.p)
        if u > best[0]:
            best = (u, beta, k)
    return best


def rho_se_linear_infinite(params: ModelParams, c: float = 0.3) -> RegulationResult:
    """Regulation trichotomy specialized to the infinite line."""
    beta_prime = trust_threshold(params.mu, c)
    sum_p_a = 1.0 / (1.0 - params.p)
    if params.b_a <= params.b_b:
        # the wave never stops, so the outside option matches the
        # unregulated optimum on A and no cap can bite
        u_full = sender_weight(params.mu, beta_prime) * sum_p_a
        return RegulationResult(
            RegulationKind.NO_EFFECTIVE_REGULATION, None, u_full, beta_prime, sum_p_a
        )
    u_star_b, beta_star_b, _ = ustar_b_linear_infinite(params, c)
    u_a = lambda b: sender_weight(params.mu, b) * sum_p_a
    if u_a(beta_prime) <= u_star_b:
        return RegulationResult(
            RegulationKind.NO_EFFECTIVE_REGULATION, None, u_star_b, beta_star_b, sum_p_a
        )
    if u_a(0.0) >= u_star_b:
        return RegulationResult(
            RegulationKind.ANY_REGULATION, 0.0, u_star_b, beta_star_b, sum_p_a
        )
    rho = ((1.0 - params.p) * u_star_b - params.mu) / (1.0 - params.mu)
    rho = min(max(rho, 0.0), beta_prime)
    return RegulationResult(RegulationKind.MODERATE, rho, u_star_b, beta_star_b, sum_p_a)


@dataclass(frozen=True)
class SbmAnalyticSpec:
    """Community-level view of an SBM for the closed-form threshold.

    Communities are indexed in relocation order. theta_diag holds the
    within-community link probabilities; c may be per-community.
    """

    sizes: tuple[int, ...]
    theta_diag: tuple[float, ...]
    b_a: float
    b_b: float
    p: float
    mu: float = 0.2
    c: float | tuple[float, ...] = 0.3
    scaling: str = "chain"

    def __post_init__(self):
        if len(self.sizes) != len(self.theta_diag):
            raise InvalidParamsError("sizes and theta_diag must align")
        if any(s < 1 for s in self.sizes) or any(t <= 0.0 for t in self.theta_diag):
            raise InvalidParamsError("sizes and theta_diag must be positive")
        if self.scaling not in ("chain", "star"):
            raise InvalidParamsError("scaling must be 'chain' or 'star'")
        if not np.isscalar(self.c) and len(self.c) != len(self.sizes):
            raise InvalidParamsError("need one c per community")

    def c_of(self, j: int) -> float:
        """Community payoff, 1-indexed like the community order."""
        return float(self.c) if np.isscalar(self.c) else float(self.c[j - 1])


def scaling_presets(kind: str, sizes, p: float) -> tuple[list[float], list[float]]:
    """First-relocator receive probabilities and expected per-community
    receiver counts for the chain and star/complete community layouts."""
    m = len(sizes)
    if kind == "chain":
        p_phi = [p if j == 1 else p ** (2 * j - 2) for j in range(1, m + 1)]
        big_r = [sizes[j - 1] * p ** (2 * j - 1) for j in range(1, m + 1)]
    elif kind == "star":
        p_phi = [p if j == 1 else p**2 for j in range(1, m + 1)]
        big_r = [
            sizes[0] * p if j == 1 else sizes[j - 1] * p**3 for j in range(1, m + 1)
        ]
    else:
        raise InvalidParamsError("scaling kind must be 'chain' or 'star'")
    return p_phi, big_r


def beta_j(spec: SbmAnalyticSpec, j: int) -> float:
    """Deceit level at which community j's first relocator is indifferent."""
    p_phi, _ = scaling_presets(spec.scaling, spec.sizes, spec.p)
    c = spec.c_of(j)
    _check_mu_c(spec.mu, c)
    social = spec.sizes[j - 1] * spec.theta_diag[j - 1] * spec.b_a - spec.b_b
    return (spec.mu * (1.0 - c) - social / p_phi[j - 1]) / ((1.0 - spec.mu) * c)


def sbm_threshold(spec: SbmAnalyticSpec) -> list[float]:
    """Per-community minimal n_J*theta_JJ*b_a - b_b making a zero cap hold.

    A zero cap is enforceable iff the community-J gap meets or exceeds the
    J-th entry for every J.
    """
    p_phi, big_r = scaling_presets(spec.scaling, spec.sizes, spec.p)
    m = len(spec.sizes)
    out = []
    for j in range(1, m + 1):
        c = spec.c_of(j)
        _check_mu_c(spec.mu, c)
        tail = sum(big_r[j:])
        head = sum(big_r[:j])
        out.append(
            spec.mu * (1.0 - c) * p_phi[j - 1]
            - (tail / head) * spec.mu * c * p_phi[j - 1]
        )
    return out


def sbm_boundary_b_a(spec: SbmAnalyticSpec) -> float:
    """Smallest b_a at which every community condition holds, given b_b."""
    thresholds = sbm_threshold(spec)
    return max(
        (t + spec.b_b) / (spec.sizes[j] * spec.theta_diag[j])
        for j, t in enumerate(thresholds)
    )


THETA_NEAR_ONE = 0.7  # operationalizes "nearly complete within community"
THETA_NEAR_ZERO = 0.05


@dataclass(frozen=True)
class StructureReport:
    """Advisory pass/fail record for the community-layout conditions behind
    the chain and star scalings; never blocking."""

    chain_conditions: tuple[tuple[str, bool], ...]
    star_conditions: tuple[tuple[str, bool], ...]

    @property
    def chain_ok(self) -> bool:
        return all(ok for _, ok in self.chain_conditions)

    @property
    def star_ok(self) -> bool:
        return all(ok for _, ok in self.star_conditions)


def appendix_structure_check(theta, sizes) -> StructureReport:
    """Evaluate the heuristic layout conditions on a concrete theta matrix."""
    th = np.asarray(theta, dtype=np.float64)
    n = np.asarray(sizes, dtype=np.float64)
    m = len(sizes)
    chain = [("theta_diag_near_one", bool((np.diag(th) >= THETA_NEAR_ONE).all()))]
    ok_adj, ok_two_sided = True, True
    for j in range(m):
        for jp in (j - 1, j + 1):
            if 0 <= jp < m:
                v = th[j, jp]
                if not (n[j] * v < 1.0 < n[j] * n[jp] * v):
                    ok_adj = False
        if 0 < j < m - 1:
            if n[j] * n[j - 1] * th[j, j - 1] * n[j + 1] * th[j, j + 1] >= 1.0:
                ok_two_sided = False
    chain.append(("adjacent_links_sparse_but_present", ok_adj))
    chain.append(("no_user_bridges_both_neighbors", ok_two_sided))

    star = [("theta_diag_near_one", bool((np.diag(th) >= THETA_NEAR_ONE).all()))]
    ok_hub = all(
        n[0] * th[0, j] < 1.0 and n[j] * th[0, j] < 1.0 and n[0] * n[j] * th[0, j] > 1.0
        for j in range(1, m)
    )
    ok_periph = all(
        th[j, jp] <= THETA_NEAR_ZERO
        for j in range(1, m)
        for jp in range(1, m)
        if j != jp
    )
    star.append(("hub_links_sparse_but_present", ok_hub))
    star.append(("peripheral_links_negligible", ok_periph))
    return StructureReport(tuple(chain), tuple(star))
