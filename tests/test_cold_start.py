"""Cold start: no fresh interpreter loads scipy.

``import streamfid`` and ``import streamfid.cli`` load no scipy at all.
The package computes its statistics, its NNLS, its k-means, its bow-tie
search and the sparse products of its co-clustering SVD in numpy, and has
no scipy import.  So no command loads scipy, ``graph cocluster`` included.
Each command runs twice, so that the second run reads its JSONL through
the sidecars the first one wrote.  Each check runs in a subprocess,
because this test process has scipy loaded already.  They check imports,
not wall time.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import streamfid
from streamfid.cli import main

SRC = str(Path(streamfid.__file__).resolve().parents[1])

# runs argv (or nothing) through streamfid.cli.main with stdout silenced,
# then prints the sorted scipy modules the interpreter has loaded
PROBE = """
import contextlib, io, json, sys
import streamfid, streamfid.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = streamfid.cli.main(argv)
    if code:
        sys.exit(f"exit code {code}")
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(argv: list[str], cwd: Path) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cold_start")
    cwd = os.getcwd()
    os.chdir(d)
    try:
        for argv in (
            ["simulate", "--duration", "30", "--rate", "20", "--seed", "5", "-o", "complete.jsonl"],
            ["sample", "--mode", "ratelimit", "--threshold", "3", "-i", "complete.jsonl",
             "-o", "sample.jsonl"],
            ["graph", "bowtie", "-i", "complete.jsonl", "-o", "bowtie_complete.csv"],
            ["graph", "bowtie", "-i", "sample.jsonl", "-o", "bowtie_sample.csv"],
        ):
            assert main(argv) == 0
    finally:
        os.chdir(cwd)
    return d


def scipy_imports() -> list[tuple[str, str, tuple[str, ...]]]:
    """(module, imported module, names) of every scipy import statement in the package."""
    found = []
    for path in sorted(Path(streamfid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.stem, a.name, ()) for a in node.names if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                found.append((path.stem, node.module, tuple(a.name for a in node.names)))
    return found


def test_package_imports_no_scipy():
    # covers the library paths no CLI run below reaches
    assert scipy_imports() == []


def test_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after([], tmp_path) == []


COMMANDS = {
    "sample": ["sample", "--mode", "bernoulli", "--rate", "0.5", "-i", "complete.jsonl",
               "-o", "bernoulli.jsonl"],
    "validate-ratelimit": ["validate-ratelimit", "-i", "complete.jsonl", "-i", "sample.jsonl"],
    "breakdown": ["breakdown", "-i", "complete.jsonl", "-i", "sample.jsonl", "--key", "hour"],
    "entity-stats": ["entity-stats", "-i", "sample.jsonl", "--key", "hashtag"],
    "graph-bipartite": ["graph", "bipartite", "-i", "complete.jsonl", "-o", "edges.csv"],
    "graph-flow": ["graph", "flow", "--kind", "bowtie", "-i", "bowtie_complete.csv",
                   "-i", "bowtie_sample.csv", "-o", "flow.csv"],
    "cascade": ["cascade", "-i", "complete.jsonl", "-i", "sample.jsonl", "-o", "cascade.json"],
    "rank": ["rank", "-i", "complete.jsonl", "-i", "sample.jsonl", "--k", "10", "-o", "rank.csv"],
    "estimate-missing": ["estimate-missing", "-i", "sample.jsonl", "--key", "user", "--k-max", "20"],
    "graph-bowtie": ["graph", "bowtie", "-i", "complete.jsonl", "-o", "bowtie.csv"],
    "graph-cocluster": ["graph", "cocluster", "-i", "complete.jsonl", "--k", "4", "--seed", "1",
                        "-o", "clusters.csv"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_loads_no_scipy(workdir, tmp_path, name):
    # the first run parses and writes the sidecars, the second reads through them
    for src in workdir.iterdir():
        if src.suffix in (".jsonl", ".csv"):
            shutil.copyfile(src, tmp_path / src.name)
    argv = COMMANDS[name]
    assert scipy_modules_after(argv, tmp_path) == []
    read = {b for a, b in zip(argv, argv[1:]) if a == "-i" and b.endswith(".jsonl")}
    # every command reads its streams whole, so each keeps a sidecar
    assert {p.name for p in tmp_path.glob("*.streamfid.npz")} == {a + ".streamfid.npz" for a in read}
    assert scipy_modules_after(argv, tmp_path) == []
