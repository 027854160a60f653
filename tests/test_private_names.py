"""Nothing in platmod outlives its last reader.

Every module-level private name is used: a function, class or assigned name
whose name starts with a single underscore is read somewhere in src/platmod
besides its definition, so a leftover helper or record does not outlive its
last caller. Every parameter of every def is read in its body (a name that
starts with an underscore is exempt, and a zero-argument super() reads the
first), so a caller never hands over what nobody reads; every name a
module other than __init__.py imports is read there; and every name
__init__.py exports and every public def, class and constant a module
defines at its top level is read by a module other than __init__.py or
named by README.md, a script or the benchmark."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "platmod"


def _definitions(tree: ast.Module):
    """The names a module defines at its top level, dunder names aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("__"))


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
               for name in _definitions(tree) if name.startswith("_")}
    read = {name for tree in trees.values() for name in _read_names(tree)}
    # functions, classes and constants are all seen
    assert {("regulation.py", "_walk"), ("regulation.py", "_Side"),
            ("regulation.py", "_JOIN_MARGIN")} <= defined
    unused = sorted(f"{module}: {name}" for module, name in defined if name not in read)
    assert not unused


def _loaded(node: ast.AST) -> set[str]:
    """The names read anywhere inside node."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unread_parameters(tree: ast.Module):
    """(def name, parameter) of each parameter its def never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        read = _loaded(node)
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "super"
               and not n.args for n in ast.walk(node)):
            read |= set(params[:1])
        yield from ((node.name, p) for p in params if not p.startswith("_") and p not in read)


def _unused_imports(tree: ast.Module):
    """The names a module imports (from __future__ aside) and never reads."""
    read = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
            yield from (name for name in bound if name not in read)


def test_every_parameter_and_import_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        unread += [f"{path.name}: {name}({param})" for name, param in _unread_parameters(tree)]
        if path.name != "__init__.py":
            unread += [f"{path.name}: import {name}" for name in _unused_imports(tree)]
    assert not unread


def test_every_public_name_is_reached():
    # each name __init__.py imports and each public def, class and constant
    # a module defines at its top level is read by a src/platmod module
    # besides __init__.py (a definition is no read), or named in README.md,
    # scripts/ or bench/
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    exported = {alias.asname or alias.name for node in ast.walk(trees.pop("__init__.py"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported |= {name for tree in trees.values() for name in _definitions(tree)
                 if not name.startswith("_")}
    # functions, classes and constants are all seen
    assert {"through_platform_distances", "Columns", "DENSE_MAX_USERS"} <= exported
    read = {name for tree in trees.values() for name in _read_names(tree)}
    root = SRC.parents[1]
    text = "\n".join(path.read_text() for path in (
        root / "README.md", *root.glob("scripts/*.py"), *root.glob("bench/*.py"),
        *root.glob("bench/*.md")))
    unreached = sorted(name for name in exported - read
                       if not re.search(rf"\b{re.escape(name)}\b", text))
    assert not unreached
