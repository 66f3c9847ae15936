"""Every option has a caller.  Each defaulted parameter of a function or
method in the package, and each defaulted field of a package dataclass, is
passed, by keyword or by position, at one or more call sites: in the
package outside its own definition, in the benchmark's scripts, in the
acceptance suite or its workloads, or in the README's library example.
An option that only unit tests set is a second path that no user takes:
it is deleted, and its tests call the one path left.
"""

import ast
import re
from pathlib import Path

import streamfid

PACKAGE = Path(streamfid.__file__).parent
ROOT = PACKAGE.parent.parent
CALLERS = (*sorted(ROOT.glob("bench/*.py")), ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "workloads.py")


def readme_example() -> ast.Module:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return ast.parse("\n".join(re.findall(r"```python\n(.*?)```", text, re.S)))


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in node.decorator_list)


def options(tree: ast.Module):
    """(class name or None, defining node, position or None, name) of each
    defaulted parameter of each function in ``tree``, and of each defaulted
    field of each dataclass, whose node is its annotated assignment; the
    position is that of a positional parameter among the arguments a call
    writes, so a method's ``self`` or ``cls`` takes none, and a field's is
    its place in field order."""
    owner = {id(f): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for f in node.body if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and is_dataclass(node):
            fields = [a for a in node.body if isinstance(a, ast.AnnAssign) and isinstance(a.target, ast.Name)]
            for i, a in enumerate(fields):
                if a.value is not None:
                    yield node.name, a, i, a.target.id
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        cls = owner.get(id(f))
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
        shift = 1 if cls is not None and not static else 0
        params = f.args.posonlyargs + f.args.args
        for i in range(len(params) - len(f.args.defaults), len(params)):
            yield cls, f, i - shift, params[i].arg
        for p, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield cls, f, None, p.arg


def called_name(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def passes(call: ast.Call, position, name: str) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return position is not None and (starred or len(call.args) > position)


def unpassed() -> list:
    """The options that no call site passes: a call ``Class(...)`` passes
    those of the class's ``__init__`` or ``__new__`` and the fields of a
    dataclass, and so does ``cls(...)`` inside the class."""
    package = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    callers = [*package.values(), *(ast.parse(p.read_text(encoding="utf-8")) for p in CALLERS), readme_example()]
    sites = {}
    for node in (n for t in callers for n in ast.walk(t) if isinstance(n, ast.Call)):
        sites.setdefault(called_name(node), []).append(node)
    found = []
    for path, tree in package.items():
        classes = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        for cls, f, position, name in options(tree):
            own = {id(n) for n in ast.walk(f)}
            is_field = isinstance(f, ast.AnnAssign)
            if is_field or f.name in ("__init__", "__new__"):
                inside = {id(n) for n in ast.walk(classes[cls])}
                candidates = sites.get(cls, []) + [c for c in sites.get("cls", []) if id(c) in inside]
            else:
                candidates = sites.get(f.name, [])
            if not any(passes(c, position, name) for c in candidates if id(c) not in own):
                found.append(f"{path.stem}.{cls}.{name}" if is_field
                             else f"{path.stem}.{cls + '.' if cls else ''}{f.name}({name})")
    return found


def test_options_found():
    tree = ast.parse((PACKAGE / "simulate.py").read_text(encoding="utf-8"))
    found = {(getattr(f, "name", cls), position, name) for cls, f, position, name in options(tree)}
    assert found >= {("rate_limited_bundle", 1, "threshold"), ("bernoulli_bundle", 2, "seed"),
                     ("ZipfPopulation", 1, "exponent"), ("GeneratorConfig", 8, "seed")}


def test_every_option_is_passed_by_a_caller():
    assert unpassed() == []
