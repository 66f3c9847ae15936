"""A stream enters every analysis layer as a ``StreamBundle`` or its
``events`` view.  Only the row constructors may take ``Event`` rows: no
other parameter of any function in the package names ``Event`` in its
annotation.
"""

import importlib
import inspect
import pkgutil
import re

import streamfid

ROW_INPUTS = {
    "streamfid.model.Event.__new__",
    "streamfid.model.StreamBundle.__init__",
    "streamfid.model.StreamBundle.build",
    "streamfid.model.columns_of_rows",
}


def functions():
    """(qualified name, function) of every function defined in the
    package's modules, the methods, class methods and properties of their
    classes included."""
    for info in pkgutil.iter_modules(streamfid.__path__):
        module = importlib.import_module(f"streamfid.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for f in vars(obj).values() if inspect.isclass(obj) else (obj,):
                f = getattr(f, "__func__", getattr(f, "fget", f))
                if inspect.isfunction(f):
                    yield f"{module.__name__}.{f.__qualname__}", f


def takes_rows(f) -> bool:
    return any(re.search(r"\bEvent\b", str(p.annotation)) for p in inspect.signature(f).parameters.values())


def test_only_row_constructors_take_event_rows():
    found = dict(functions())
    assert {"streamfid.cascades.compare_cascades", "streamfid.model.StreamBundle.__eq__",
            "streamfid.cascades.Cascade.root"} <= set(found)
    taking = {name for name, f in found.items() if takes_rows(f)}
    assert taking <= ROW_INPUTS, sorted(taking - ROW_INPUTS)
    assert {"streamfid.model.StreamBundle.__init__", "streamfid.model.StreamBundle.build"} <= taking
