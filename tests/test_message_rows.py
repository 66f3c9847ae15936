"""A bundle holds its rate limit messages as the int64 columns ``msg_ts`` and
``msg_missed``.  Rows are built in two places only: the ``messages``
property, which builds them from the columns, and the reader's per-line
check.  No other function of the package calls ``RateLimitMessage`` or
passes it as an argument (as ``map(RateLimitMessage, ...)`` or
``repeat(RateLimitMessage)`` would); ``isinstance`` checks, imports and
annotations may name it.
"""

import ast
from pathlib import Path

import streamfid

ALLOWED_SITES = {
    "streamfid.model.StreamBundle.messages",
    "streamfid.io._record_from_obj",
}


class _Uses(ast.NodeVisitor):
    """(qualified name of the enclosing definition, line) of every call of
    ``RateLimitMessage`` and of every call it is an argument of."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: list[tuple[str, int]] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node: ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "issubclass"):
            return
        named = [node.func, *node.args, *(k.value for k in node.keywords)]
        if any(_names_message(n) for n in named):
            self.found.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def _names_message(node) -> bool:
    """Whether ``node`` is ``RateLimitMessage``, reached by any path, or an
    attribute of it such as ``RateLimitMessage._make``."""
    if isinstance(node, ast.Starred):
        node = node.value
    while isinstance(node, ast.Attribute):
        if node.attr == "RateLimitMessage":
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id == "RateLimitMessage"


def uses(source: str, module: str) -> list[tuple[str, int]]:
    visitor = _Uses(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_guard_sees_calls_and_arguments_but_not_checks_or_annotations():
    source = """
from streamfid.model import RateLimitMessage
import streamfid

def built(a, b) -> list[RateLimitMessage]:
    return [RateLimitMessage(1, 2), streamfid.RateLimitMessage(3, 4)]

class Holder:
    def rows(self, a, b):
        return list(map(RateLimitMessage, a, b))

    def more(self, a):
        return tuple(map(tuple.__new__, repeat(RateLimitMessage), a)) + tuple(map(RateLimitMessage._make, a))

def checked(x: RateLimitMessage) -> bool:
    return isinstance(x, (RateLimitMessage, tuple)) and issubclass(type(x), RateLimitMessage)
"""
    assert uses(source, "m") == [("m.built", 6), ("m.built", 6), ("m.Holder.rows", 10), ("m.Holder.more", 13),
                                 ("m.Holder.more", 13)]


def test_only_the_messages_property_and_the_reader_build_message_rows():
    sites = {}
    for path in sorted(Path(streamfid.__file__).parent.glob("*.py")):
        for name, line in uses(path.read_text(encoding="utf-8"), f"streamfid.{path.stem}"):
            sites.setdefault(name, line)
    assert set(sites) <= ALLOWED_SITES, {name: line for name, line in sites.items() if name not in ALLOWED_SITES}
    assert "streamfid.model.StreamBundle.messages" in sites
