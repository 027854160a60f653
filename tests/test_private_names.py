"""Every module-level private name in platmod is used: a function, class or
assigned name whose name starts with a single underscore is read somewhere
in src/platmod besides its definition, so a leftover helper or record does
not outlive its last caller."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "platmod"


def _private_definitions(tree: ast.Module):
    """The single-underscore names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _read_names(tree: ast.Module):
    """Every name the module's code reads: loaded names, attributes and
    imported names (a definition's own name is none of these)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    defined = {(module, name) for module, tree in trees.items()
               for name in _private_definitions(tree)}
    read = {name for tree in trees.values() for name in _read_names(tree)}
    # functions, classes and constants are all seen
    assert {("regulation.py", "_walk"), ("regulation.py", "_Side"),
            ("regulation.py", "_JOIN_MARGIN")} <= defined
    unused = sorted(f"{module}: {name}" for module, name in defined if name not in read)
    assert not unused
