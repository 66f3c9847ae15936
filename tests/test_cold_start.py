"""Cold start: which scipy modules a fresh interpreter loads.

``import streamfid`` and ``import streamfid.cli`` load no scipy at all;
scipy is imported inside the functions that call it.  So the CLI commands
that never call scipy must not load it, and the graph commands that need
``scipy.sparse`` or ``scipy.cluster`` must not drag in ``scipy.stats`` or
``scipy.optimize``.  Each check runs in a subprocess, because this test
process has scipy loaded already.  They check imports, not wall time.
"""

from __future__ import annotations

import json
import os
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


def test_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after([], tmp_path) == []


SCIPY_FREE = {
    "sample": ["sample", "--mode", "bernoulli", "--rate", "0.5", "-i", "complete.jsonl",
               "-o", "bernoulli.jsonl"],
    "validate-ratelimit": ["validate-ratelimit", "-i", "complete.jsonl", "-i", "sample.jsonl"],
    "breakdown": ["breakdown", "-i", "complete.jsonl", "-i", "sample.jsonl", "--key", "hour"],
    "entity-stats": ["entity-stats", "-i", "sample.jsonl", "--key", "hashtag"],
    "graph-bipartite": ["graph", "bipartite", "-i", "complete.jsonl", "-o", "edges.csv"],
    "graph-flow": ["graph", "flow", "--kind", "bowtie", "-i", "bowtie_complete.csv",
                   "-i", "bowtie_sample.csv", "-o", "flow.csv"],
    "cascade": ["cascade", "-i", "complete.jsonl", "-i", "sample.jsonl", "-o", "cascade.json"],
}


@pytest.mark.parametrize("name", sorted(SCIPY_FREE))
def test_command_loads_no_scipy(workdir, name):
    assert scipy_modules_after(SCIPY_FREE[name], workdir) == []


SCIPY_SPARSE = {
    "graph-bowtie": ["graph", "bowtie", "-i", "complete.jsonl", "-o", "bowtie.csv"],
    "graph-cocluster": ["graph", "cocluster", "-i", "complete.jsonl", "--k", "4", "--seed", "1",
                        "-o", "clusters.csv"],
}


@pytest.mark.parametrize("name", sorted(SCIPY_SPARSE))
def test_graph_command_loads_no_stats_or_optimize(workdir, name):
    loaded = scipy_modules_after(SCIPY_SPARSE[name], workdir)
    assert loaded, "the command should have run scipy code"
    assert not [m for m in loaded if m.startswith(("scipy.stats", "scipy.optimize"))]
