"""Every public entry point has a caller.  Each name that
``streamfid/__init__.py`` exports is read somewhere in the package outside
``__init__.py`` and its own definition, or is called by an acceptance
criterion.  A tool that nothing calls is wired into a command or deleted.
"""

import ast
from pathlib import Path

import streamfid

PACKAGE = Path(streamfid.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"


def exported() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def names_read(node, skip: str = "") -> set:
    """Names and attributes read under ``node``, except inside the function
    or class named ``skip``; imports and assignment targets read nothing."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == skip:
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            found.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            found.add(child.attr)
        found |= names_read(child, skip)
    return found


def used_in_package(name: str) -> bool:
    return any(name in names_read(ast.parse(path.read_text()), skip=name)
               for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def called_in_acceptance() -> set:
    calls = (n.func for n in ast.walk(ast.parse(ACCEPTANCE.read_text())) if isinstance(n, ast.Call))
    return {f.id if isinstance(f, ast.Name) else f.attr for f in calls if isinstance(f, (ast.Name, ast.Attribute))}


def test_every_export_has_a_caller():
    names = exported()
    assert {"StreamBundle", "rate_limited_bundle", "sampling_rate_breakdown"} <= names
    accepted = called_in_acceptance()
    uncalled = sorted(name for name in names if not used_in_package(name) and name not in accepted)
    assert uncalled == []
