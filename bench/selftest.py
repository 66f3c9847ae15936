"""Show that every output check fails on a deliberately corrupted output.

    python3 bench/selftest.py

For each workload it produces real outputs once (seed 7), requires every
check to pass on them, then applies to a copy of the outputs one small
corruption per check (a dropped event, an off-by-one count, a swapped
label, ...) and requires that check to fail.  Exits 1 if any check passes
a corrupted output or fails a real one.
"""

from __future__ import annotations

import copy
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import checks
import gen
import run
import spans
import worker

SEED = 7


def _bump(rows: list, col: int, delta) -> None:
    rows[0] = rows[0][:col] + (rows[0][col] + delta,) + rows[0][col + 1:]


def _bump_first(counts: dict) -> None:
    key = next(k for k, v in counts.items() if v)
    counts[key] += 1


def _drop_line(out):
    path, n_events, n_messages = out["written"][0]
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    short = Path(path).with_name("selftest_dropped.jsonl")
    short.write_text("".join(lines[1:]), encoding="utf-8")
    out["written"][0] = (short, n_events, n_messages)


def _flip_bowtie(out):
    comp = out["bowtie"]["complete"]
    node = next(iter(comp))
    comp[node] = "Disconnected" if comp[node] != "Disconnected" else "LSCC"


def _bump_cascade(out):
    cs = out["cascades"]["complete"]
    root = next(iter(cs))
    cs[root] = (cs[root][0], cs[root][1] + 1)


def _first(d: dict):
    return next(iter(d))


# check name -> corruption applied in place to a deep copy of the outputs
CORRUPT = {
    "sim_sorted_unique": lambda o: o["id"].__setitem__(1, o["id"][0]),
    "sim_roots_resolve": lambda o: o["root"].__setitem__(int(np.argmax(o["root"] >= 0)),
                                                         int(o["id"].max()) + 1),
    "sim_conservation": lambda o: o["ratelimit"].__setitem__("id", o["ratelimit"]["id"][1:]),
    "sim_ratelimit_equals_bench_sampler": lambda o: o["ratelimit"]["msg_missed"].__setitem__(
        0, o["ratelimit"]["msg_missed"][0] + 1),
    "sim_bernoulli_ordered_subset": lambda o: o["bernoulli_id"].__setitem__(
        slice(0, 2), o["bernoulli_id"][1::-1].copy()),
    "sim_written_lines": _drop_line,
    "merged_equals_full": lambda o: o["merged"].pop(len(o["merged"]) // 2),
    "segments_exact": lambda o: _bump(o["segments"], 2, 1),
    "validate_report": lambda o: o["validate"].__setitem__("median_ape", 0.01),
    "breakdown_counts": lambda o: _bump(o["breakdown"]["hour"], 1, 1),
    "frequency_vectors": lambda o: _bump_first(o["fv"][_first(o["fv"])]),
    "inversion_shape": lambda o: o["inversion"]["user"].__setitem__(1, o["inversion"]["user"][0] + 1),
    "estimate_missing_report": lambda o: o["estimate_missing"].__setitem__(
        "observed_entities", o["estimate_missing"]["observed_entities"] + 1),
    "topk": lambda o: _bump(o["topk"], 1, 1),
    "estimated_volume": lambda o: _bump(o["topk"], 6, 0.01 * o["topk"][0][6]),
    "bipartite_weights": lambda o: _bump_first(o["bipartite"]["complete"]),
    "cocluster_labels": lambda o: o["labels"]["sample"].__setitem__(_first(o["labels"]["sample"]),
                                                                    o["cocluster_k"]),
    "bowtie_networkx": _flip_bowtie,
    "flow_counts": lambda o: _bump_first(o["flow"]["cluster"]),
    "cascade_sets": _bump_cascade,
    "cascade_summary": lambda o: o["summary"].__setitem__("complete", o["summary"]["complete"] + 1),
    "reach_bounds": lambda o: o["reach"].append(1.5),
    "reach_ccdf": lambda o: o["reach_ccdf"][_first(o["reach_ccdf"])].__setitem__(-1, (1.0, 0.01)),
    "cli_exit_codes": lambda o: o["exit_codes"].__setitem__(_first(o["exit_codes"]), 1),
    "cli_manifests": lambda o: o["manifests"].__setitem__(_first(o["manifests"]), None),
    "cli_sample_equals_bench_sampler": lambda o: o["sample_records"][0].pop(0),
    "no_unexpected_warnings": lambda o: o["warnings"].append(
        "UserWarning: randomized SVD not converged after 8 iterations: residual 3.1e-05 > 1e-06"),
}


def _recording_warnings(job, *args) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        r = job(*args)
    r["warnings"] = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
    return r


def outputs(workload: str, rundir: Path):
    import streamfid as sf

    if workload == "simulate_write":
        r = _recording_warnings(worker.simulate_write, sf, spans.NullTracer(), SEED, rundir)
        return worker.plain_simulate(r, rundir), None
    truth = gen.Truth(SEED, gen.STREAM)
    if workload == "analysis_read":
        gen.write_parts_and_sample(rundir, truth)
        r = _recording_warnings(worker.analysis_read, sf, spans.NullTracer(), SEED, rundir)
        return worker.plain_analysis(sf, r), truth
    gen.write_complete(rundir / "complete.jsonl", truth.complete)
    _, codes = run.walkthrough_round(gen.STREAM, spans.NullTracer(), rundir, run.Deadline(600))
    return run.plain_walkthrough(rundir, codes), truth


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    bad = []
    for workload, names in checks.CHECKS.items():
        run.RUNS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
            out, truth = outputs(workload, Path(tmp))
            real = checks.run_checks(workload, out, truth)
            bad += [f"{workload}: fails on real output: {msg}" for msg in real]
            for check in names:
                broken = copy.deepcopy(out)
                CORRUPT[check.__name__](broken)
                try:
                    check(broken, truth)
                except checks.CheckError as exc:
                    print(f"{workload:16s} {check.__name__:36s} fails when corrupted: {exc}"[:160])
                else:
                    bad.append(f"{workload}: {check.__name__} passes a corrupted output")
    for line in bad:
        print("SELFTEST FAILURE:", line)
    print("selftest", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
