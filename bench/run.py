"""streamfid benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload analysis_read --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Workloads (see README.md):

* ``simulate_write``  the program's simulator, samplers and JSONL writer;
* ``analysis_read``   JSONL reads, the merge and every analysis layer;
* ``cli_walkthrough`` the README CLI walkthrough, one process per command.

With ``--trace 0`` the last line carries the end-to-end metrics
(``setup_s``, ``job_s``, ``peak_rss_mb``), with ``--trace 1`` the per-layer
metrics from spans around every call into the program.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
from checks import run_checks  # noqa: E402

WORKLOADS = ("simulate_write", "analysis_read", "cli_walkthrough")
# a set-up sample before the work, one after it, and one between rounds (or
# CLI commands) whenever this many seconds of work have passed since the last
SETUP_EVERY_S = {"simulate_write": 5.0, "analysis_read": 5.0, "cli_walkthrough": 8.0}
DEADLINE_S = 170       # whole run, including set-up and checks


def child_env() -> dict:
    # one BLAS thread: idle OpenBLAS threads cost CPU time on a 2-core machine
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run out of time")
        return left


def setup_sample(workload: str, dl: Deadline) -> float:
    """Seconds from starting a fresh interpreter until streamfid is imported
    (for the CLI: until ``--version`` returns)."""
    if workload == "cli_walkthrough":
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-m", "streamfid.cli", "--version"], env=child_env(),
                       check=True, stdout=subprocess.DEVNULL, timeout=dl.left())
        return time.monotonic() - t0
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", "import time, streamfid; print(time.monotonic())"],
                          env=child_env(), check=True, capture_output=True, text=True,
                          timeout=dl.left())
    return float(done.stdout.split()[-1]) - t0


class SetupSamples:
    """Set-up samples spread through the work, so that a slow spell of the
    machine moves few of them: ``maybe()`` between two pieces of work takes
    one when ``every_s`` seconds have passed since the last."""

    def __init__(self, workload: str, every_s: float, dl: Deadline):
        self.workload, self.every_s, self.dl = workload, every_s, dl
        self.samples: list[float] = []
        self.last = time.monotonic()

    def add(self, seconds: float) -> None:
        self.samples.append(seconds)
        self.last = time.monotonic()

    def take(self) -> None:
        self.add(setup_sample(self.workload, self.dl))

    def maybe(self) -> None:
        if time.monotonic() - self.last >= self.every_s:
            self.take()


# ---------------------------------------------------------------- cli_walkthrough

def walkthrough_commands(spec: gen.Spec) -> list:
    """(span name, argv, file that receives stdout) for the README walkthrough
    from ``sample`` on.  The sample is also co-clustered and bow-tied, so
    both kinds of ``graph flow`` have their two inputs."""
    c, s = "complete.jsonl", "sample.jsonl"
    both = ["-i", c, "-i", s]
    return [
        ("cli.sample", ["sample", "--mode", "ratelimit", "--threshold", str(spec.threshold),
                        "--anchor-ms", str(spec.anchor_ms), "-i", c, "-o", s], None),
        ("cli.validate-ratelimit", ["validate-ratelimit", *both], "validate.json"),
        ("cli.breakdown", ["breakdown", *both, "--key", "hour"], "breakdown_hour.csv"),
        ("cli.breakdown", ["breakdown", *both, "--key", "millisecond"], "breakdown_millisecond.csv"),
        ("cli.estimate-missing", ["estimate-missing", "-i", s, "--key", "user"], "estimate_missing.json"),
        ("cli.rank", ["rank", *both, "--k", "100", "--granularity", "hour", "-o", "rank.csv"],
         "rank.json"),
        ("cli.graph-bipartite", ["graph", "bipartite", "-i", c, "-o", "edges.csv"], None),
        ("cli.graph-cocluster", ["graph", "cocluster", "-i", c, "--k", "6", "--seed", "1",
                                 "-o", "clusters_complete.csv"], None),
        ("cli.graph-cocluster", ["graph", "cocluster", "-i", s, "--k", "6", "--seed", "1",
                                 "-o", "clusters_sample.csv"], None),
        ("cli.graph-bowtie", ["graph", "bowtie", "-i", c, "-o", "bowtie_complete.csv"], None),
        ("cli.graph-bowtie", ["graph", "bowtie", "-i", s, "-o", "bowtie_sample.csv"], None),
        ("cli.graph-flow", ["graph", "flow", "--kind", "bowtie", "-i", "bowtie_complete.csv",
                            "-i", "bowtie_sample.csv", "-o", "flow_bowtie.csv"], None),
        ("cli.graph-flow", ["graph", "flow", "--kind", "cluster", "-i", "clusters_complete.csv",
                            "-i", "clusters_sample.csv", "-o", "flow_cluster.csv"], None),
        ("cli.cascade", ["cascade", *both, "-o", "cascade.json"], None),
    ]


def run_command(t, name: str, argv: list, rundir: Path, stdout_name, stderr_name: str,
                dl: Deadline) -> int:
    """One CLI command in its own process, in ``rundir``.  Traced, it runs
    through ``cli_trace.py`` and its spans join ``t``."""
    spans_file = rundir / "spans_command.json"
    if t.records:
        cmd = [sys.executable, str(HERE / "cli_trace.py"), str(spans_file), *argv]
    else:
        cmd = [sys.executable, "-m", "streamfid.cli", *argv]
    with t.span(name), open(rundir / stderr_name, "w", encoding="utf-8") as fe, \
            open(rundir / (stdout_name or os.devnull), "w", encoding="utf-8") as fo:
        code = subprocess.run(cmd, cwd=rundir, env=child_env(), stdout=fo, stderr=fe,
                              timeout=dl.left()).returncode
        if t.records:
            t.adopt(json.loads(spans_file.read_text(encoding="utf-8")))
            spans_file.unlink()
    return code


def walkthrough_round(spec: gen.Spec, t, rundir: Path, dl: Deadline,
                      setup: SetupSamples | None = None) -> tuple[float, dict]:
    """One walkthrough: job seconds (the command processes' wall time) and
    exit codes.  ``setup`` takes set-up samples between commands."""
    codes, job_s = {}, 0.0
    with t.span("cli_walkthrough.job"):
        startup = t.call("cli.startup", setup_sample, "cli_walkthrough", dl)
        if setup:
            setup.add(startup)
        for i, (name, argv, stdout_name) in enumerate(walkthrough_commands(spec)):
            t0 = time.perf_counter()
            codes[f"{i}:{' '.join(argv[:2])}"] = run_command(t, name, argv, rundir, stdout_name,
                                                             f"stderr_{i}.txt", dl)
            job_s += time.perf_counter() - t0
            if setup:
                setup.maybe()
    return job_s, codes


WARNING_LINE = re.compile(r"\b[A-Z]\w*Warning: ")    # as Python prints a warning


def _csv_rows(path: Path) -> list:
    """Data rows of a CSV report, after its manifest and header lines."""
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh.read().splitlines()[2:]))


def _manifest_of(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text).get("manifest")
    first = text.split("\n", 1)[0]
    return json.loads(first[len("# manifest: "):]) if first.startswith("# manifest: ") else None


def _label(x: str):
    return int(x) if x.lstrip("-").isdigit() else x


def plain_walkthrough(rundir: Path, codes: dict) -> dict:
    """The walkthrough's report files as the plain data the checks take."""
    out = {"exit_codes": codes, "k": 100, "cocluster_k": 6, "rate_tol": 1e-6, "volume_tol": 1e-4,
           "warnings": [line.strip() for p in sorted(rundir.glob("stderr_*.txt"))
                        for line in p.read_text(encoding="utf-8").splitlines()
                        if WARNING_LINE.search(line)]}
    if any(codes.values()):
        return out
    reports = sorted(p for p in rundir.iterdir() if p.suffix in (".csv", ".json"))
    out["manifests"] = {p.name: _manifest_of(p) for p in reports}
    events, messages = [], []
    with open(rundir / "sample.jsonl", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "rl_ts_ms" in obj:
                messages.append((obj["rl_ts_ms"], obj["missed"]))
            else:
                events.append(obj)
    out["sample_records"] = (events, messages)
    v = json.loads((rundir / "validate.json").read_text())
    out["validate"] = {k: v[k] for k in ("segments", "median_ape", "mean_ape")}
    out["breakdown"] = {key: [(int(b), int(c), int(s), float(r)) for b, c, s, r in
                              _csv_rows(rundir / f"breakdown_{key}.csv")]
                        for key in ("hour", "millisecond")}
    em = json.loads((rundir / "estimate_missing.json").read_text())
    out["estimate_missing"] = {"rate": em["manifest"]["rate"], **{
        k: em[k] for k in ("observed_entities", "estimated_missing", "estimated_total_entities")}}
    out["topk"] = [tuple(int(x) for x in row[:6]) + (float(row[6]),)
                   for row in _csv_rows(rundir / "rank.csv")]
    out["bipartite"] = {"complete": {(int(u), h): int(w)
                                     for u, h, w in _csv_rows(rundir / "edges.csv")}}
    out["labels"] = {k: {n: int(c) for n, c in _csv_rows(rundir / f"clusters_{k}.csv")}
                     for k in ("complete", "sample")}
    out["bowtie"] = {k: {int(n): c for n, c in _csv_rows(rundir / f"bowtie_{k}.csv")}
                     for k in ("complete", "sample")}
    out["flow"] = {kind: {(_label(a), _label(b)): int(n)
                          for a, b, n, _ in _csv_rows(rundir / f"flow_{kind}.csv")}
                   for kind in ("cluster", "bowtie")}
    cj = json.loads((rundir / "cascade.json").read_text())
    out["summary"] = {"complete": cj["cascades"]["complete"], "sample": cj["cascades"]["sample"],
                      "fully_observed": cj["cascades"]["fully_observed"],
                      "median_interarrival_s": cj["median_interarrival_s"]}
    out["reach_ccdf"] = {p.stem: [(float(x), float(y)) for x, y in _csv_rows(p)]
                         for p in sorted(rundir.glob("cascade_reach_*.csv"))}
    return out


def cli_walkthrough(args, rundir: Path, dl: Deadline, setup: SetupSamples | None) -> dict:
    spec = gen.STREAM
    truth = gen.Truth(args.seed, spec)
    gen.write_complete(rundir / "complete.jsonl", truth.complete)
    null, tracer = spans.NullTracer(), spans.Tracer()
    codes, failed = {}, 0

    def one_round(traced: bool) -> float:
        nonlocal codes, failed
        job_s, codes = walkthrough_round(spec, tracer if traced else null, rundir, dl, setup)
        failed += sum(c != 0 for c in codes.values())
        return job_s

    times = spans.run_rounds(args.seconds, bool(args.trace), one_round)
    # the largest command process: the other children only import streamfid
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    rounds = len(times[False]) + len(times[True])
    report = {"job_s": times[False], "peak_rss_mb": peak_rss_mb,
              "attempted": rounds * len(codes), "failed": failed,
              "check_failures": run_checks("cli_walkthrough", plain_walkthrough(rundir, codes), truth)}
    if args.trace:
        tracer.dump(rundir / "spans_cli_walkthrough.json")
        report["layers"] = spans.trace_report(tracer, times, "cli_walkthrough.job")
    return report


# ---------------------------------------------------------------- in-process workloads

def in_process(args, rundir: Path, dl: Deadline) -> dict:
    if args.workload == "analysis_read":
        gen.write_parts_and_sample(rundir, gen.Truth(args.seed, gen.STREAM))
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--rundir", str(rundir)],
        env=child_env(), check=True, capture_output=True, text=True, timeout=dl.left())
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["failed"] = 0
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long one run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "streamfid" / "__init__.py").is_file():
        sys.exit(f"no streamfid package under {SRC}: run from a streamfid checkout")

    dl = Deadline(DEADLINE_S)
    rundir = RUNS / args.workload
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    setup_sample(args.workload, dl)                 # warm-up: bytecode and page cache
    # set-up samples spread over the work, which spans a minute of a machine
    # whose speed drifts; a traced run takes none
    setup = None if args.trace else SetupSamples(args.workload, SETUP_EVERY_S[args.workload], dl)
    if setup:
        setup.take()
    if args.workload == "cli_walkthrough":
        report = cli_walkthrough(args, rundir, dl, setup)
    else:
        report = in_process(args, rundir, dl)
        if setup:
            setup.samples += report["setup_s"]
    if setup:
        setup.take()

    for failure in report["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in report["layers"].items()}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup.samples), "unit": "s"},
                   "job_s": {"value": statistics.median(report["job_s"]), "unit": "s"},
                   "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"}}
    print(json.dumps({"correct": not report["check_failures"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
