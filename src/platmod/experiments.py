"""Parameter sweeps, SBM Monte-Carlo averaging, bloc-migration validation,
and the CSV/PGM artifact surfaces.

All outputs are deterministic functions of their spec (including seeds):
samples use seed base_seed + sample_index regardless of execution order, and
results are collected in row-major (p index, b_a index) order, so repeated
runs produce byte-identical files even under parallel execution.

A sweep runs one task per worker. A task's cells on all its samples are one
walk (regulation.solve_each): it builds a sample when the walk reads it for
admission, works out each column's first piece in closed form, walks at
most POOL_COLUMNS live columns at a time, counting the neighbours of their
dense networks with one batched matmul, tallies each cell as its column
finishes and drops a sample after its last. validate_assumption1 draws its
(tightness, seed) samples lazily, in report order, and walks them in groups
of A1_GROUP, which may span tightnesses.
"""

from __future__ import annotations

import csv
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .adoption import Assignment
from .errors import InvalidParamsError
from .graph import (Network, SbmSpec, check_community_sizes, gen_linear, gen_regular_tree,
                    gen_sbm, gen_star_chain, validate_mu)
from .model import ModelParams, Platform, trust_threshold
from .regulation import RegulationKind, sender_equilibria, solve_each

SWEEP_CSV_HEADER = "p,b_A,samples,n_no_effective,n_any,n_moderate,mean_rho_se,seed_base"
A1_CSV_HEADER = "theta_JJ,seed,n_users_B,irregular_choices"
# validate_assumption1 samples and walks at most this many networks together;
# a pooled 3 x 30 chain sample holds about 50 KiB, its edges and its layer of
# the walk's stacked float32 adjacency. One walk of bloc_migration's 80
# samples ran no faster than two of 40 (987 against 1068 solves/s) and its
# peak_rss_mb read 47.9 against 46.1 MiB (medians of 4 seeds, 30 s runs,
# 2-vCPU machine); groups of 20, one tightness each (4 walks), took 1.17x
# the CPU time per pass
A1_GROUP = 40


def _bridged_theta(sizes, diag, bridge_expect, bridged) -> tuple[tuple[float, ...], ...]:
    """Link matrix of communities: diag within each, bridge_expect expected
    links between the communities i < j that bridged(i, j) names, none
    between the others."""
    check_community_sizes(sizes)
    m = len(sizes)
    diag = [diag] * m if np.isscalar(diag) else list(diag)
    th = [[0.0] * m for _ in range(m)]
    for i in range(m):
        th[i][i] = float(diag[i])
        for j in range(i + 1, m):
            if bridged(i, j):
                th[i][j] = th[j][i] = bridge_expect / (sizes[i] * sizes[j])
    return tuple(tuple(row) for row in th)


def chain_theta(sizes, diag, bridge_expect: float = 4.0) -> tuple[tuple[float, ...], ...]:
    """Community-chain link matrix: dense within, bridge_expect expected
    links between adjacent communities, none beyond."""
    return _bridged_theta(sizes, diag, bridge_expect, lambda i, j: j == i + 1)


def complete_theta(sizes, diag, bridge_expect: float = 4.0) -> tuple[tuple[float, ...], ...]:
    """Complete graph of communities: every pair bridged with bridge_expect
    expected links, so the physical structure is size-invariant."""
    return _bridged_theta(sizes, diag, bridge_expect, lambda i, j: True)


# the arguments each recipe kind cannot do without, in the order the
# deterministic kinds' generators take them
_RECIPE_NEEDS = {
    "linear": ("n",),
    "star_chain": ("n_hubs", "r"),
    "tree": ("r", "depth"),
    "sbm": ("sizes", "theta"),
}
_GENERATORS = {"linear": gen_linear, "star_chain": gen_star_chain, "tree": gen_regular_tree}


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_list(x) -> bool:
    return isinstance(x, (list, tuple))


# the type test, and its wording, of each recipe argument that has one
_RECIPE_TYPES = {
    **dict.fromkeys(("n", "n_hubs", "r", "depth", "sender_community", "sender_attach"),
                    (_is_int, "an int")),
    "sizes": (lambda x: _is_list(x) and all(_is_int(s) and s >= 1 for s in x),
              "a list of positive ints"),
    "theta": (lambda x: _is_list(x) and all(
        _is_list(row) and len(row) == len(x) and all(_is_real(v) for v in row) for row in x
    ), "a square list of number lists"),
    "c": (lambda x: _is_real(x) or (_is_list(x) and all(_is_real(v) for v in x)),
          "a number or a list of numbers"),
}


@dataclass(frozen=True)
class NetworkRecipe:
    """Generator kind plus arguments; builds a concrete network per seed.

    Deterministic kinds (linear, star_chain, tree) ignore the seed. The c
    payoffs live here because they are user attributes, not world params.
    An unknown kind, a missing required argument or one of the wrong type
    (sizes a list of positive ints, theta a square list of number lists, c a
    number or a list of numbers, n, n_hubs, r, depth, sender_community and
    sender_attach ints) raises InvalidParamsError at construction.
    """

    kind: str
    args: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _RECIPE_NEEDS:
            raise InvalidParamsError(f"unknown recipe kind {self.kind!r}")
        missing = [k for k in _RECIPE_NEEDS[self.kind] if self.args.get(k) is None]
        if missing:
            raise InvalidParamsError(f"{self.kind} recipe needs {', '.join(missing)}")
        for key, (fits, want) in _RECIPE_TYPES.items():
            value = self.args.get(key)
            if value is not None and not fits(value):
                raise InvalidParamsError(f"{self.kind} recipe wants {key} as {want}, got {value!r}")

    def build(self, seed: int = 0) -> Network:
        a = self.args
        c = a.get("c", 0.3)
        if self.kind in _GENERATORS:
            return _GENERATORS[self.kind](*(a[k] for k in _RECIPE_NEEDS[self.kind]), c=c)
        return gen_sbm(
            SbmSpec(
                sizes=tuple(a["sizes"]),
                theta=tuple(tuple(float(x) for x in row) for row in a["theta"]),
                sender_community=a.get("sender_community", 0),
                sender_attach=a.get("sender_attach"),
                seed=seed,
                c_by_community=tuple(c) if not np.isscalar(c) else c,
            )
        )

    @property
    def deterministic(self) -> bool:
        return self.kind != "sbm"


@dataclass(frozen=True)
class SweepSpec:
    """Grid over (p, b_a) with per-cell Monte-Carlo samples.

    samples should be 1 for deterministic recipes; SBM figures use 50.
    """

    p_range: tuple[float, float, int]
    ba_range: tuple[float, float, int]
    recipe: NetworkRecipe
    mu: float = 0.2
    b_b: float = 0.0
    samples: int = 1
    base_seed: int = 0

    def __post_init__(self):
        if self.p_range[2] < 2 or self.ba_range[2] < 2:
            raise InvalidParamsError("ranges need at least 2 steps")
        if self.samples < 1:
            raise InvalidParamsError("samples must be >= 1")

    def p_values(self) -> np.ndarray:
        lo, hi, steps = self.p_range
        return np.linspace(lo, hi, steps)

    def ba_values(self) -> np.ndarray:
        lo, hi, steps = self.ba_range
        return np.linspace(lo, hi, steps)

    def seeds(self) -> tuple[int, ...]:
        return tuple(self.base_seed + s for s in range(self.samples))


@dataclass
class CellStats:
    p: float
    b_a: float
    samples: int
    n_no_effective: int
    n_any: int
    n_moderate: int
    mean_rho_se: float | None
    seeds: tuple[int, ...]
    error: str | None = None


@dataclass
class HeatmapGrid:
    spec: SweepSpec
    cells: list[CellStats]  # row-major: p index outer, b_a index inner

    def cell(self, p_idx: int, ba_idx: int) -> CellStats:
        return self.cells[p_idx * self.spec.ba_range[2] + ba_idx]

    def any_boundary_b_a(self, p_idx: int, quota: float = 1.0) -> float | None:
        """Smallest b_a whose cell reports AnyRegulation in at least a quota
        fraction of samples; None if no column cell reaches it."""
        steps = self.spec.ba_range[2]
        for ba_idx in range(steps):
            cell = self.cell(p_idx, ba_idx)
            if cell.samples and cell.n_any >= quota * cell.samples:
                return cell.b_a
        return None


def _error(exc: Exception) -> tuple[str, str]:
    return "error", f"{type(exc).__name__}: {exc}"


def _pool_results(task) -> list[tuple[int, int, list[list]]]:
    """Every (p, b_a) cell of a block of p columns on each network of a task
    of sampled networks.

    Returns one (seed, index of the block's first p, one (kind, value) list
    per p column) per sample, in seed order. A cell with invalid ModelParams
    records its error. The networks are solved together by solve_each, each
    built and checked when the walk reads it: one with a user whose c is at
    or below mu gives that error to each of its cells. Any other exception
    is a program fault and propagates.
    """
    recipe, seeds, mu, b_b, p_start, p_block, ba_values = task
    cells, slots, invalid = [], [], {}
    for i, p in enumerate(p_block):
        for j, b_a in enumerate(ba_values):
            try:
                cells.append(ModelParams(mu=mu, p=float(p), b_a=float(b_a), b_b=b_b))
            except InvalidParamsError as exc:  # recorded per cell, the rest still run
                invalid[i, j] = _error(exc)
                continue
            slots.append((i, j))
    # each sample's p columns of (kind, value) cells, the invalid ones' errors in
    blank = lambda: [[invalid.get((i, j)) for j in range(len(ba_values))]
                     for i in range(len(p_block))]
    columns = {}
    solved = []  # the seeds whose networks are solved, in order

    def valid_networks():
        for seed in seeds:
            network = recipe.build(seed)
            columns[seed] = blank()
            try:
                validate_mu(network, mu)
            except InvalidParamsError as exc:  # the network fails mu < c: its cells record it
                for i, j in slots:
                    columns[seed][i][j] = _error(exc)
                continue
            solved.append(seed)
            yield network

    def record(k: int, cell: int, result) -> None:
        i, j = slots[cell]
        columns[solved[k]][i][j] = result.kind.value, result.rho_se

    solve_each(valid_networks(), cells, record)
    return [(seed, p_start, columns.get(seed) or blank()) for seed in seeds]


def sweep(spec: SweepSpec, workers: int = 1) -> HeatmapGrid:
    """Evaluate strictest_effective_regulation over the grid.

    There is one task per worker (one task with one worker): a run of
    consecutive samples, whose cells are all solved in one walk (solve_each,
    see the module docstring). With fewer samples than workers,
    each sample's p columns split into min(ceil(workers / samples), p steps)
    contiguous blocks, one task each, so a deterministic recipe still
    shares its grid out. Results depend only on the spec and sample index,
    never on the tasks or their scheduling.
    """
    p_values = spec.p_values()
    ba_values = tuple(spec.ba_values())
    seeds = spec.seeds()
    n_blocks = min(max(math.ceil(workers / spec.samples), 1), len(p_values))
    n_runs = min(workers, len(seeds))
    tasks = [
        (spec.recipe, seeds[k * len(seeds) // n_runs:(k + 1) * len(seeds) // n_runs], spec.mu,
         spec.b_b, int(block[0]), tuple(p_values[block]), ba_values)
        for k in range(n_runs)
        for block in np.array_split(np.arange(len(p_values)), n_blocks)
    ]
    if workers > 1:
        # imported here: a serial run never loads the process pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_pool_results, tasks, chunksize=1))
    else:
        results = [_pool_results(t) for t in tasks]
    by_key = {
        (seed, p_start + k): column
        for pooled in results
        for seed, p_start, columns in pooled
        for k, column in enumerate(columns)
    }

    cells: list[CellStats] = []
    for p_idx, p in enumerate(p_values):
        for ba_idx, b_a in enumerate(ba_values):
            # each sample's (kind, value), in seed order
            outcomes = [by_key[(seed, p_idx)][ba_idx] for seed in seeds]
            kinds = Counter(kind for kind, _ in outcomes)
            rhos = [value for kind, value in outcomes if kind == RegulationKind.MODERATE.value]
            # each distinct sample error once, counted when it repeats
            errors = Counter(value for kind, value in outcomes if kind == "error")
            cells.append(CellStats(
                p=float(p),
                b_a=float(b_a),
                samples=len(outcomes) - kinds["error"],
                n_no_effective=kinds[RegulationKind.NO_EFFECTIVE_REGULATION.value],
                n_any=kinds[RegulationKind.ANY_REGULATION.value],
                n_moderate=len(rhos),
                mean_rho_se=(sum(rhos) / len(rhos)) if rhos else None,
                seeds=seeds,
                error="; ".join(msg if n == 1 else f"{msg} ({n} samples)"
                                for msg, n in errors.items()) or None,
            ))
    return HeatmapGrid(spec=spec, cells=cells)


def irregular_choices(network: Network, assignment: Assignment) -> int:
    """Sum over communities of min(#users on A, #users on B): zero exactly
    when every community votes as a bloc."""
    labels = network.communities
    m = network.n_communities
    on_b = np.bincount(labels, weights=assignment.on_b.astype(float), minlength=m)
    totals = np.bincount(labels, minlength=m)
    return int(np.minimum(on_b, totals - on_b).sum())


@dataclass
class A1Row:
    theta_jj: float
    seed: int
    n_users_b: int
    irregular: int


@dataclass
class A1Report:
    rows: list[A1Row]
    skipped: list[tuple[float, int]]  # (theta_jj, seed) where rho_se was already 0


def validate_assumption1(
    theta_jj_values,
    seeds,
    sizes=(30, 30, 30),
    mu: float = 0.2,
    c: float = 0.3,
    p: float = 0.7,
    b_a: float = 0.002,
    b_b: float = 0.0,
) -> A1Report:
    """Bloc-migration check: force the sender off platform A with a zero cap
    and record how raggedly communities split. The communities form a chain
    (chain_theta with its default bridges) whose within-community link
    probability is each theta_jj.

    Cells where even the zero cap retains the sender (so nobody moves) are
    skipped rather than reported as trivially regular. The (theta_jj, seed)
    samples are drawn lazily, in report order, and solved in groups of at
    most A1_GROUP networks, one walk per group (regulation.sender_equilibria):
    every sample shares the cell, so a group may span tightnesses, and at
    most one group's networks are held at once.
    """
    rows: list[A1Row] = []
    skipped: list[tuple[float, int]] = []
    seeds = tuple(seeds)  # read once per tightness

    def samples():
        for theta_jj in theta_jj_values:
            spec = SbmSpec(sizes=tuple(sizes), theta=chain_theta(sizes, theta_jj),
                           c_by_community=c)
            for seed in seeds:
                yield float(theta_jj), replace(spec, seed=seed)

    pending = samples()
    while group := list(islice(pending, A1_GROUP)):
        _a1_group(group, ModelParams(mu=mu, p=p, b_a=b_a, b_b=b_b, rho_a=0.0), rows, skipped)
    return A1Report(rows=rows, skipped=skipped)


def _a1_group(samples: list[tuple[float, SbmSpec]], params: ModelParams, rows: list[A1Row],
              skipped: list[tuple[float, int]]) -> None:
    """validate_assumption1 for one group of (theta_jj, seeded spec)
    samples: appends their rows and skips in order. Its networks die with
    the call."""
    networks = [gen_sbm(spec) for _, spec in samples]
    for (theta_jj, spec), network, (decision, on_b) in zip(
            samples, networks, sender_equilibria(networks, params)):
        if decision.platform is Platform.A:
            skipped.append((theta_jj, spec.seed))
            continue
        rows.append(A1Row(
            theta_jj=theta_jj,
            seed=spec.seed,
            n_users_b=int(on_b.sum()),
            irregular=irregular_choices(network, Assignment(on_b, Platform.B)),
        ))


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def sweep_csv_text(grid: HeatmapGrid) -> str:
    lines = [SWEEP_CSV_HEADER]
    for cell in grid.cells:
        lines.append(
            ",".join(
                [
                    _fmt(cell.p),
                    _fmt(cell.b_a),
                    str(cell.samples),
                    str(cell.n_no_effective),
                    str(cell.n_any),
                    str(cell.n_moderate),
                    _fmt(cell.mean_rho_se),
                    str(grid.spec.base_seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def a1_csv_text(report: A1Report) -> str:
    lines = [A1_CSV_HEADER]
    for row in report.rows:
        lines.append(
            f"{_fmt(row.theta_jj)},{row.seed},{row.n_users_b},{row.irregular}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(grid: HeatmapGrid, path) -> None:
    """Write a sweep grid as CSV (sweep_csv_text)."""
    Path(path).write_text(sweep_csv_text(grid))


def read_sweep_csv(path) -> list[dict]:
    """Inverse of sweep_csv_text for round-trip checks."""
    with open(path, newline="") as fh:
        out = []
        for rec in csv.DictReader(fh):
            out.append(
                {
                    "p": float(rec["p"]),
                    "b_A": float(rec["b_A"]),
                    "samples": int(rec["samples"]),
                    "n_no_effective": int(rec["n_no_effective"]),
                    "n_any": int(rec["n_any"]),
                    "n_moderate": int(rec["n_moderate"]),
                    "mean_rho_se": float(rec["mean_rho_se"]) if rec["mean_rho_se"] else None,
                    "seed_base": int(rec["seed_base"]),
                }
            )
        return out


def _cell_gray(cell: CellStats, beta_prime: float) -> int:
    """Mean over samples of the per-sample gray level: AnyRegulation is 255,
    NoEffectiveRegulation 0, a moderate cap linearly in between."""
    if cell.samples == 0:
        return 0
    total = 255.0 * cell.n_any
    if cell.n_moderate and cell.mean_rho_se is not None:
        level = 255.0 * (1.0 - cell.mean_rho_se / beta_prime)
        total += cell.n_moderate * min(max(level, 0.0), 255.0)
    return int(round(total / cell.samples))


def pgm_text(grid: HeatmapGrid) -> str:
    """ASCII portable graymap: one row per b_a value, one column per p. A
    moderate cap's gray level scales it by beta', the trust threshold of the
    recipe's largest c (0.3 when the recipe gives none)."""
    spec = grid.spec
    c = spec.recipe.args.get("c", 0.3)
    c_ref = float(np.max(c)) if not np.isscalar(c) else float(c)
    beta_prime = trust_threshold(spec.mu, c_ref)
    p_steps, ba_steps = spec.p_range[2], spec.ba_range[2]
    rows = []
    for ba_idx in range(ba_steps):
        rows.append(
            " ".join(
                str(_cell_gray(grid.cell(p_idx, ba_idx), beta_prime))
                for p_idx in range(p_steps)
            )
        )
    return f"P2\n{p_steps} {ba_steps}\n255\n" + "\n".join(rows) + "\n"


def emit_pgm(grid: HeatmapGrid, path) -> None:
    Path(path).write_text(pgm_text(grid))
