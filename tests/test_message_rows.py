"""A bundle holds its rate limit messages as the int64 columns ``msg_ts`` and
``msg_missed``, and its events as an ``EventTable``.  Rows are built in one
place each: ``message_rows`` builds messages from the columns (for the
``messages`` property and the streaming reader), and ``_rows`` builds
events from a table (for every view of one).  The JSONL reader checks each
line by the records' rules but builds none.  No other function of the
package calls ``RateLimitMessage`` or ``Event`` or passes it as an argument
(as ``map(RateLimitMessage, ...)`` or ``repeat(Event)`` would);
``isinstance`` checks, imports and annotations may name them.
"""

import ast
from pathlib import Path

import streamfid

ALLOWED_SITES = {
    "streamfid.model.message_rows",
}
ALLOWED_EVENT_SITES = {
    "streamfid.model._rows",
}


class _Uses(ast.NodeVisitor):
    """(qualified name of the enclosing definition, line) of every call of
    the class ``name`` and of every call it is an argument of."""

    def __init__(self, module: str, name: str):
        self.scope = [module]
        self.name = name
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
        if any(_names(n, self.name) for n in named):
            self.found.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def _names(node, name: str) -> bool:
    """Whether ``node`` is the class ``name``, reached by any path, or an
    attribute of it such as ``RateLimitMessage._make``."""
    if isinstance(node, ast.Starred):
        node = node.value
    while isinstance(node, ast.Attribute):
        if node.attr == name:
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id == name


def uses(source: str, module: str, name: str = "RateLimitMessage") -> list[tuple[str, int]]:
    visitor = _Uses(module, name)
    visitor.visit(ast.parse(source))
    return visitor.found


def sites(name: str) -> dict[str, int]:
    """The first line of each function of the package that builds rows of the class ``name``."""
    found = {}
    for path in sorted(Path(streamfid.__file__).parent.glob("*.py")):
        for where, line in uses(path.read_text(encoding="utf-8"), f"streamfid.{path.stem}", name):
            found.setdefault(where, line)
    return found


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
    found = sites("RateLimitMessage")
    assert set(found) == ALLOWED_SITES, {name: line for name, line in found.items() if name not in ALLOWED_SITES}


def test_event_rows_are_built_in_one_place():
    assert uses("def f(a):\n    return [Event(*r) for r in a] + list(map(tuple.__new__, repeat(m.Event), a))",
                "m", "Event") == [("m.f", 2), ("m.f", 2)]
    found = sites("Event")
    assert set(found) == ALLOWED_EVENT_SITES, {name: line for name, line in found.items()
                                               if name not in ALLOWED_EVENT_SITES}
