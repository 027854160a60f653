"""platmod imports only the standard library, numpy and itself, so numpy
stays its only runtime dependency."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "platmod"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "platmod"}


def _imported(path: Path):
    """The top-level package of every absolute import in a source file,
    imports inside functions included."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_platmod_imports_only_the_standard_library_and_numpy():
    found = {path.name: set(_imported(path)) for path in sorted(SRC.glob("*.py"))}
    assert "graph.py" in found
    # a module-level import and one inside a function are both seen
    assert {"numpy", "struct"} <= found["graph.py"]
    outside = {name: sorted(mods - ALLOWED) for name, mods in found.items() if mods - ALLOWED}
    assert not outside
