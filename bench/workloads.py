"""The benchmark's workloads: inputs made from a seed, one measured pass, and
the checks on what the pass returned.

Every call into platmod goes through a module attribute looked up at call
time (``platmod.regulation.strictest_effective_regulation``), so the tracer's
wrappers see the benchmark's own calls as well as the package's internal ones.

A pass returns an ``Outcome``. Its ``summary`` is plain JSON data: equal
summaries mean equal program output, which is how repeated passes, traced and
untraced passes, and the committed reference outputs are compared.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import platmod.analytic
import platmod.experiments
import platmod.graph
import platmod.regulation
from platmod.model import ModelParams, trust_threshold

MU = 0.2
C = 0.3
BETA_PRIME = trust_threshold(MU, C)  # every user has c = C, so one threshold
RHO_TOL = 1e-6  # rho_se may move in its last digits (exact breakpoints)
CURVE_TOL = 1e-12
KINDS = ("NoEffectiveRegulation", "AnyRegulation", "Moderate")


@dataclass
class Outcome:
    summary: list[dict]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)


@dataclass
class Check:
    kind_mismatches: int = 0
    rho_se_max_abs_err: float = 0.0
    reference_solves: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _by_key(items: list[dict]) -> dict[str, dict]:
    return {repr(sorted(item["key"].items())): item for item in items}


# -- (p, b_a) sweeps ---------------------------------------------------------


@dataclass(frozen=True)
class SweepFamily:
    label: str
    recipe_kind: str
    recipe_args: dict
    curve: dict | None = None  # FamilySpec arguments for the boundary_b_a curve


@dataclass(frozen=True)
class SweepWorkload:
    """One sweep per family over the same grid, each emitted as CSV and PGM.

    SBM sample seeds are seed * samples + k, so two workload seeds never
    share a sampled network.
    """

    name: str
    families: tuple[SweepFamily, ...]
    p_range: tuple[float, float, int]
    ba_range: tuple[float, float, int]
    samples: int

    def setup(self, seed: int) -> list:
        return [
            (fam, platmod.experiments.SweepSpec(
                p_range=self.p_range,
                ba_range=self.ba_range,
                recipe=platmod.experiments.NetworkRecipe(fam.recipe_kind, fam.recipe_args),
                mu=MU,
                samples=self.samples,
                base_seed=seed * self.samples,
            ))
            for fam in self.families
        ]

    def sbm_edges(self, inputs) -> list:
        return [spec.recipe.build(s).edges for _, spec in inputs
                if not spec.recipe.deterministic for s in spec.seeds()]

    def run_pass(self, inputs, out_dir: Path) -> Outcome:
        experiments = platmod.experiments
        summary, attempted, failed, errors = [], 0, 0, []
        for fam, spec in inputs:
            grid = experiments.sweep(spec, workers=1)
            csv_path = out_dir / f"{fam.label}.csv"
            pgm_path = out_dir / f"{fam.label}.pgm"
            experiments.emit_csv(grid, csv_path)
            experiments.emit_pgm(grid, pgm_path)
            curve = None
            if fam.curve is not None:
                curve = [
                    float(platmod.analytic.boundary_b_a(platmod.analytic.FamilySpec(
                        params=ModelParams(mu=MU, p=float(p), b_a=0.01, b_b=0.0), **fam.curve)))
                    for p in spec.p_values()
                ]
            cells = []
            for cell in grid.cells:
                cells.append([cell.n_no_effective, cell.n_any, cell.n_moderate,
                              cell.mean_rho_se, cell.samples, cell.error])
                attempted += spec.samples
                failed += spec.samples - cell.samples
                if cell.error is not None:
                    errors.append(f"{fam.label} p={cell.p!r} b_A={cell.b_a!r}: {cell.error}")
            pgm = pgm_path.read_text().split("\n")
            summary.append({
                "key": {
                    "label": fam.label,
                    "recipe": [fam.recipe_kind, fam.recipe_args],
                    "grid": [list(spec.p_range), list(spec.ba_range), spec.samples],
                    "sbm_seeds": None if spec.recipe.deterministic else list(spec.seeds()),
                },
                "cells": cells,
                "base_seed": spec.base_seed,  # the CSV's seed_base column
                "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
                "csv_lines": len(csv_path.read_text().splitlines()),
                "pgm_header": pgm[:3],
                "pgm_rows": [len(row.split()) for row in pgm[3:] if row],
                "curve": curve,
            })
        return Outcome(summary, attempted, failed, errors)

    def check(self, summary: list[dict], reference: list[dict]) -> Check:
        out = Check()
        for item in summary:
            label = item["key"]["label"]
            p_steps, ba_steps = self.p_range[2], self.ba_range[2]
            if item["pgm_header"] != ["P2", f"{p_steps} {ba_steps}", "255"] or \
                    item["pgm_rows"] != [p_steps] * ba_steps:
                out.problems.append(f"{label}: PGM dimensions do not match the grid")
            if item["csv_lines"] != p_steps * ba_steps + 1:
                out.problems.append(f"{label}: CSV has {item['csv_lines']} lines")
            for n_no, n_any, n_mod, mean_rho, samples, error in item["cells"]:
                n_errors = len(error.split("; ")) if error else 0
                if n_no + n_any + n_mod != samples or samples + n_errors != self.samples:
                    out.problems.append(f"{label}: samples plus errors differ from attempts")
                if (mean_rho is None) != (n_mod == 0):
                    out.problems.append(f"{label}: mean_rho_se present without Moderate samples")
                elif mean_rho is not None and not -RHO_TOL <= mean_rho <= BETA_PRIME + RHO_TOL:
                    out.problems.append(f"{label}: Moderate mean_rho_se {mean_rho} outside [0, beta']")
        refs = _by_key(reference)
        for key, item in _by_key(summary).items():
            ref = refs.get(key)
            if ref is None:
                continue
            label = item["key"]["label"]
            for cell, ref_cell in zip(item["cells"], ref["cells"]):
                # a solve whose kind changed leaves its reference kind's count
                out.kind_mismatches += sum(max(0, r - c) for c, r in zip(cell[:3], ref_cell[:3]))
                if cell[3] is not None and ref_cell[3] is not None:
                    out.rho_se_max_abs_err = max(out.rho_se_max_abs_err, abs(cell[3] - ref_cell[3]))
                out.reference_solves += self.samples
            if item["curve"] is not None:
                err = max(abs(a - b) for a, b in zip(item["curve"], ref["curve"]))
                if err > CURVE_TOL:
                    out.problems.append(f"{label}: boundary_b_a curve differs from reference by {err}")
            if item["base_seed"] == ref["base_seed"] and item["csv_sha256"] != ref["csv_sha256"]:
                out.notes.append(f"{label}: CSV sha256 {item['csv_sha256'][:16]} differs from "
                                 f"reference {ref['csv_sha256'][:16]} (informational)")
        return out


# -- single solves on large networks -------------------------------------------


def _line_two_links(n: int):
    graph = platmod.graph
    line = graph.gen_linear(n, c=C)
    return graph.Network(n_users=n, edges=line.edges, sender_links=(0, n - 1),
                         profiles=line.profiles,
                         generator_meta={"kind": "linear", "n": n, "sender_links": "both ends"})


def _chain_sbm(sizes: tuple[int, ...], diag: float, seed: int):
    graph = platmod.graph
    theta = platmod.experiments.chain_theta(sizes, diag)
    return graph.gen_sbm(graph.SbmSpec(sizes=sizes, theta=theta, seed=seed, c_by_community=C))


@dataclass(frozen=True)
class GraphsWorkload:
    """One strictest_effective_regulation solve per network.

    Networks are generated once in set-up. Each pass solves on fresh Network
    objects built from the same edges, so every pass computes the adjacency
    matrices and cached properties again, as a new run of the program would.
    """

    name: str
    line_n: int
    two_link_n: int
    sbm_sizes: tuple[int, ...]
    sbm_diag: float
    tree_depth: int
    params: ModelParams = ModelParams(mu=MU, p=0.9, b_a=0.01, b_b=0.0)
    sbm_params: ModelParams = ModelParams(mu=MU, p=0.7, b_a=0.002, b_b=0.0)

    def setup(self, seed: int) -> list:
        graph = platmod.graph
        return [
            ("line", graph.gen_linear(self.line_n, c=C), self.params, None),
            ("line_two_links", _line_two_links(self.two_link_n), self.params, None),
            ("chain_sbm", _chain_sbm(self.sbm_sizes, self.sbm_diag, seed), self.sbm_params, seed),
            ("tree", graph.gen_regular_tree(2, self.tree_depth, c=C), self.params, None),
        ]

    def sbm_edges(self, inputs) -> list:
        return [net.edges for _, net, _, sbm_seed in inputs if sbm_seed is not None]

    def run_pass(self, inputs, out_dir: Path) -> Outcome:
        graph = platmod.graph
        summary, failed, errors = [], 0, []
        for label, net, params, sbm_seed in inputs:
            fresh = graph.Network(n_users=net.n_users, edges=net.edges,
                                  sender_links=net.sender_links, profiles=net.profiles,
                                  generator_meta=net.generator_meta)
            kind = rho = None
            try:
                res = platmod.regulation.strictest_effective_regulation(fresh, params)
                kind, rho = res.kind.value, res.rho_se
            except Exception as exc:  # counted as a failed solve, the pass goes on
                failed += 1
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
            summary.append({
                "key": {"label": label, "n": net.n_users, "sbm_seed": sbm_seed},
                "kind": kind,
                "rho_se": rho,
            })
        return Outcome(summary, len(inputs), failed, errors)

    def check(self, summary: list[dict], reference: list[dict]) -> Check:
        out = Check()
        for item in summary:
            kind, rho, label = item["kind"], item["rho_se"], item["key"]["label"]
            if kind is None:
                continue
            if kind not in KINDS:
                out.problems.append(f"{label}: unknown kind {kind}")
            elif (kind == "NoEffectiveRegulation") != (rho is None) or \
                    (kind == "AnyRegulation" and rho != 0.0):
                out.problems.append(f"{label}: rho_se {rho} does not fit kind {kind}")
            elif kind == "Moderate" and not 0.0 <= rho <= BETA_PRIME:
                out.problems.append(f"{label}: Moderate rho_se {rho} outside [0, beta']")
        refs = _by_key(reference)
        for key, item in _by_key(summary).items():
            ref = refs.get(key)
            if ref is None:
                continue
            out.reference_solves += 1
            out.kind_mismatches += item["kind"] != ref["kind"]
            if item["rho_se"] is not None and ref["rho_se"] is not None:
                out.rho_se_max_abs_err = max(out.rho_se_max_abs_err,
                                             abs(item["rho_se"] - ref["rho_se"]))
        return out


# -- bloc migration ------------------------------------------------------------


@dataclass(frozen=True)
class BlocWorkload:
    """validate_assumption1 over several community tightnesses.

    SBM seeds are seed * n_seeds + k, so two workload seeds never share a
    sampled network.
    """

    name: str
    theta_jj: tuple[float, ...]
    n_seeds: int
    sizes: tuple[int, ...]

    def setup(self, seed: int) -> range:
        return range(seed * self.n_seeds, (seed + 1) * self.n_seeds)

    def sbm_edges(self, inputs) -> list:
        return [_chain_sbm(self.sizes, theta, s).edges for theta in self.theta_jj for s in inputs]

    def run_pass(self, inputs, out_dir: Path) -> Outcome:
        attempted = len(self.theta_jj) * len(inputs)
        try:
            report = platmod.experiments.validate_assumption1(
                self.theta_jj, seeds=inputs, sizes=self.sizes, mu=MU, c=C)
        except Exception as exc:  # the whole report is lost, so every solve failed
            return Outcome([], attempted, attempted, [f"{type(exc).__name__}: {exc}"])
        summary = []
        for theta in self.theta_jj:
            summary.append({
                "key": {"theta_jj": float(theta), "seeds": list(inputs)},
                "rows": [[r.seed, r.n_users_b, r.irregular]
                         for r in report.rows if r.theta_jj == float(theta)],
                "skipped": [s for t, s in report.skipped if t == float(theta)],
            })
        return Outcome(summary, attempted, 0, [])

    def check(self, summary: list[dict], reference: list[dict]) -> Check:
        out = Check()
        n_users = sum(self.sizes)
        for item in summary:
            seeds = sorted([r[0] for r in item["rows"]] + item["skipped"])
            if seeds != item["key"]["seeds"]:
                out.problems.append(f"theta_JJ={item['key']['theta_jj']}: rows plus skipped "
                                    "do not cover every seed once")
            for _, n_b, irregular in item["rows"]:
                if not (0 <= n_b <= n_users and 0 <= irregular <= n_users // 2):
                    out.problems.append(f"theta_JJ={item['key']['theta_jj']}: row out of range")
        refs = _by_key(reference)
        for key, item in _by_key(summary).items():
            ref = refs.get(key)
            if ref is None:
                continue
            mine = {r[0]: r for r in item["rows"]} | {s: "skipped" for s in item["skipped"]}
            theirs = {r[0]: r for r in ref["rows"]} | {s: "skipped" for s in ref["skipped"]}
            out.reference_solves += len(theirs)
            out.kind_mismatches += sum(mine.get(s) != v for s, v in theirs.items())
        return out


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="chain_sweep",
            families=(SweepFamily("chain", "sbm", {
                "sizes": [30, 30, 30],
                "theta": [list(r) for r in platmod.experiments.chain_theta((30, 30, 30), 0.75)],
                "c": [C, C, C],
            }),),
            p_range=(0.5, 0.9, 5),
            ba_range=(0.0, 0.02, 11),
            samples=80,
        ),
        GraphsWorkload(
            name="large_graph",
            line_n=2000,
            two_link_n=400,
            sbm_sizes=(300, 300, 300),
            sbm_diag=0.075,
            tree_depth=11,
        ),
        SweepWorkload(
            name="family_sweep",
            families=(
                SweepFamily("line", "linear", {"n": 20},
                            dict(kind="linear-finite", n=20, r=None)),
                SweepFamily("star_chain", "star_chain", {"n_hubs": 5, "r": 2},
                            dict(kind="star-chain-finite", n=5, r=2)),
                SweepFamily("tree", "tree", {"r": 2, "depth": 5},
                            dict(kind="tree-finite", n=5, r=2)),
            ),
            p_range=(0.1, 0.9, 50),
            ba_range=(0.0, 0.2, 50),
            samples=1,
        ),
        BlocWorkload(
            name="bloc_migration",
            theta_jj=(0.75, 0.25, 0.125, 0.0625),
            n_seeds=20,
            sizes=(30, 30, 30),
        ),
    )
}
