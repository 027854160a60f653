"""Spans and counters recorded around platmod's public functions.

``from .graph import through_platform_distances`` gives a module its own name
for the function, so a tracer that patched only ``platmod.graph`` would miss
every call made from ``adoption`` or ``regulation``. ``Tracer.install``
therefore replaces the function object under every name that binds it in any
loaded ``platmod`` module, and ``uninstall`` puts the originals back.

A span covers one call of a wrapped function. A layer's self time is the sum
of its spans minus the time their child spans cover, so the self times of all
layers plus ``unattributed`` (benchmark code, unwrapped program code and the
counters' own cost) add up to the traced wall time.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (module, function, layer); several functions may share one layer
WRAPPED = (
    ("platmod.graph", "through_platform_distances", "graph.bfs"),
    ("platmod.graph", "gen_linear", "graph.gen"),
    ("platmod.graph", "gen_star_chain", "graph.gen"),
    ("platmod.graph", "gen_regular_tree", "graph.gen"),
    ("platmod.graph", "gen_sbm", "graph.gen"),
    ("platmod.adoption", "batch_final_b_sets", "adoption.engine"),
    ("platmod.adoption", "cascade_thresholds", "adoption.cascade"),
    ("platmod.adoption", "cascade_final_b_sets", "adoption.cascade"),
    ("platmod.adoption", "run_adoption", "adoption.run"),
    ("platmod.regulation", "strictest_effective_regulation", "regulation.solve"),
    ("platmod.regulation", "optimal_B", "regulation.solve"),
    ("platmod.regulation", "sender_equilibrium", "regulation.sender_eq"),
    ("platmod.experiments", "sweep", "experiments.sweep"),
    ("platmod.experiments", "validate_assumption1", "experiments.sweep"),
    ("platmod.experiments", "emit_csv", "experiments.emit"),
    ("platmod.experiments", "emit_pgm", "experiments.emit"),
    ("platmod.analytic", "boundary_b_a", "analytic.curve"),
)
LAYERS = tuple(sorted({layer for _, _, layer in WRAPPED}))

# a top-level call of one of these is one regulation solve
SOLVE_FUNCTIONS = ("strictest_effective_regulation", "sender_equilibrium")
# adopter sets are deduplicated within the outermost call of one of these
SET_SCOPE_FUNCTIONS = SOLVE_FUNCTIONS + ("run_adoption",)


class Tracer:
    """Self time per layer and work counts for one traced window."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.solve_ms: list[float] = []
        self.wall_s = 0.0
        self._stack: list[list[float]] = []  # [start, child time]
        self._solve_depth = 0
        self._set_scope: set | None = None
        self._networks = weakref.WeakSet()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "platmod" or name.startswith("platmod."))]
        for module_name, func_name, layer in WRAPPED:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(original, func_name, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s += time.perf_counter() - self._t0
        self.uninstall()

    # -- spans -------------------------------------------------------------

    def _wrap(self, original, func_name: str, layer: str):
        tracer = self
        is_solve = func_name in SOLVE_FUNCTIONS
        opens_scope = func_name in SET_SCOPE_FUNCTIONS
        on_exit = getattr(self, f"_on_{func_name}", None)

        def wrapper(*args, **kwargs):
            own_scope = opens_scope and tracer._set_scope is None
            if own_scope:
                tracer._set_scope = set()
            tracer._solve_depth += is_solve
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                tracer._stack.pop()
                tracer.self_s[layer] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer._solve_depth -= is_solve
                if own_scope:
                    tracer.counts["distinct_sets"] += len(tracer._set_scope)
                    tracer._set_scope = None
            if is_solve and tracer._solve_depth == 0:
                tracer.solve_ms.append(duration * 1e3)
            if on_exit is not None:
                # the counters' own cost stays out of every layer's self time
                hook_start = time.perf_counter()
                on_exit(args, kwargs, result)
                if tracer._stack:
                    tracer._stack[-1][1] += time.perf_counter() - hook_start
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- counters at the layer boundaries ----------------------------------

    def _on_through_platform_distances(self, args, kwargs, result):
        network = args[0]
        self.counts["graph.bfs_calls"] += 1
        self.counts["graph.bfs_cols"] += result.shape[1]
        if network not in self._networks:
            # bool adjacency plus its float64 copy, both n x n
            self._networks.add(network)
            self.counts["graph.adjacency_bytes_computed"] += 9 * network.n_users ** 2

    def _on_batch_final_b_sets(self, args, kwargs, result):
        on_b, _, rounds, _ = result
        n, cols = on_b.shape
        self.counts["adoption.engine_calls"] += 1
        self.counts["adoption.engine_cols"] += cols
        self.counts["adoption.engine_rounds"] += int(rounds.sum())
        matrix_bytes = 8 * n * cols  # one float64 n x columns matrix
        key = "adoption.engine_matrix_bytes_computed"
        self.counts[key] = max(self.counts[key], matrix_bytes)
        keys = {on_b[:, j].tobytes() for j in range(cols)}
        if self._set_scope is None:
            self.counts["distinct_sets"] += len(keys)
        else:
            self._set_scope |= keys

    def _on_cascade_thresholds(self, args, kwargs, result):
        self.counts["adoption.cascade_calls"] += 1

    def _on_optimal_B(self, args, kwargs, result):
        self.counts["regulation.optimal_b_calls"] += 1

    def _on_emit_csv(self, args, kwargs, result):
        self.counts["experiments.emit_bytes"] += Path(args[1]).stat().st_size

    _on_emit_pgm = _on_emit_csv

    # -- accounting ----------------------------------------------------------

    def merge(self, other: "Tracer") -> None:
        """Add another window's spans and counts to this one."""
        for layer, value in other.self_s.items():
            self.self_s[layer] += value
        for key, value in other.counts.items():
            if key == "adoption.engine_matrix_bytes_computed":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        self.solve_ms.extend(other.solve_ms)
        self.wall_s += other.wall_s

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this window, keyed by their benchmark names."""
        out = {f"{layer}_s": float(self.self_s.get(layer, 0.0)) for layer in LAYERS}
        out["trace.wall_s"] = self.wall_s
        out["trace.unattributed_s"] = self.wall_s - sum(self.self_s.values())
        for key in ("graph.bfs_calls", "graph.bfs_cols", "graph.adjacency_bytes_computed",
                    "adoption.engine_calls", "adoption.engine_cols", "adoption.engine_rounds",
                    "adoption.engine_matrix_bytes_computed", "adoption.cascade_calls",
                    "regulation.optimal_b_calls", "experiments.emit_bytes"):
            out[key] = int(self.counts[key])
        cols = self.counts["adoption.engine_cols"]
        # with no engine columns nothing was wasted
        out["adoption.distinct_set_ratio"] = self.counts["distinct_sets"] / cols if cols else 1.0
        solves = len(self.solve_ms)
        out["regulation.solves"] = solves
        out["regulation.cols_per_solve"] = cols / solves if solves else 0.0
        out["regulation.solve_p50_ms"] = percentile(self.solve_ms, 50)
        out["regulation.solve_p99_ms"] = percentile(self.solve_ms, 99)
        return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    rank = int(np.ceil(q / 100.0 * ordered.size)) - 1
    return float(ordered[max(rank, 0)])
