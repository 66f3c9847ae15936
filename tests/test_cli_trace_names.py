"""The names that ``bench/cli_trace.py`` wraps stay bound in ``streamfid.cli``.

The trace wrapper times each layer by replacing the library names the CLI
module imported, so a command has to call the library through those names.
A name that is no longer bound fails every traced command, and a call moved
into a library helper is silently never timed.  The wrapper is read here,
not edited: its ``WRAPPED`` keys come from its source.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import streamfid
import streamfid.cli
from streamfid.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACE = ROOT / "bench" / "cli_trace.py"
SRC = str(Path(streamfid.__file__).resolve().parents[1])


def wrapped_names() -> list[str]:
    for node in ast.parse(TRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return [ast.literal_eval(k) for k in node.value.keys]
    raise AssertionError("no WRAPPED in cli_trace.py")


def test_every_wrapped_name_is_bound_in_cli():
    names = wrapped_names()
    assert {"read_bundle", "inter_arrival_distribution"} <= set(names)
    for name in (*names, "iter_records"):
        assert callable(getattr(streamfid.cli, name, None)), name


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("trace")
    cwd = os.getcwd()
    os.chdir(d)
    try:
        for argv in (
            ["simulate", "--duration", "60", "--rate", "30", "--seed", "3", "-o", "complete.jsonl"],
            ["sample", "--mode", "ratelimit", "--threshold", "5", "-i", "complete.jsonl", "-o", "sample.jsonl"],
            ["graph", "cocluster", "-i", "complete.jsonl", "--k", "3", "-o", "clusters_complete.csv"],
            ["graph", "cocluster", "-i", "sample.jsonl", "--k", "3", "-o", "clusters_sample.csv"],
        ):
            assert main(argv) == 0
    finally:
        os.chdir(cwd)
    return d


# argv -> the names of the spans a traced run records
TRACED = {
    ("graph", "bipartite", "-i", "complete.jsonl"): {"io.read_bundle", "graphs.build_bipartite"},
    ("graph", "cocluster", "-i", "complete.jsonl", "--k", "3"):
        {"io.read_bundle", "graphs.build_bipartite", "graphs.spectral_cocluster"},
    ("graph", "retweet", "-i", "complete.jsonl"): {"io.read_bundle", "graphs.build_retweet_network"},
    ("graph", "bowtie", "-i", "complete.jsonl"):
        {"io.read_bundle", "graphs.build_retweet_network", "graphs.bowtie_decompose"},
    ("graph", "flow", "-i", "clusters_complete.csv", "-i", "clusters_sample.csv"): {"graphs.cluster_flow"},
    ("estimate-missing", "-i", "sample.jsonl", "--key", "user"):
        {"io.read_bundle", "entity.estimate_complete_frequency_vector", "entity.estimate_missing_entities"},
    ("cascade", "-i", "complete.jsonl", "-i", "sample.jsonl"):
        {"io.read_bundle", "cascades.reconstruct_cascades", "cascades.compare_cascades"},
}


@pytest.mark.parametrize("argv", sorted(TRACED), ids=lambda a: "-".join(a[:2]) if a[0] == "graph" else a[0])
def test_traced_command_records_its_layers(workdir, tmp_path, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    spans_file = tmp_path / "spans.json"
    done = subprocess.run([sys.executable, str(TRACE), str(spans_file), *argv, "-o", str(tmp_path / "out")],
                          cwd=workdir, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert {s["name"] for s in json.loads(spans_file.read_text())} == TRACED[argv]
