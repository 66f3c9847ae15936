"""Run one in-process workload in a fresh interpreter.

    python3 bench/worker.py --workload analysis_read --seed 1 --seconds 20 \
        --trace 0 --rundir .bench_runs/analysis_read

``run.py`` starts this with ``src`` on PYTHONPATH and one BLAS thread.
One untimed warm-up round runs first, then whole rounds until the next
one would end after ``--seconds``; between rounds it takes set-up samples
(untraced runs only).  Every warning raised is recorded and checked.  Peak
RSS is read when the last round ends, before the outputs of that round
are checked.  The last line of standard output is one JSON object for
``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

import gen
import spans
from checks import run_checks
from run import DEADLINE_S, SETUP_EVERY_S, Deadline, SetupSamples

# the README walkthrough's `streamfid simulate --duration 600 --rate 120`,
# with the CLI's defaults for everything else
SIM_DURATION_S = 600.0
SIM_RATE = 120.0
SIM_TYPE_MIX = {"root": 0.25, "retweet": 0.55, "quote": 0.08, "reply": 0.12}
THRESHOLD, ANCHOR_MS = 50, 657      # simulate_write's sampler (the CLI's defaults)
BERNOULLI_RATE = 0.5
TOP_K = 100
COCLUSTER_K, COCLUSTER_SEED = 6, 1
BREAKDOWN_KEYS = ("hour", "millisecond", "lang", "type")
ENTITY_KEYS = ("user", "hashtag")


def records(b) -> int:
    return len(b.events) + len(b.messages)


def simulate_write(sf, t, seed: int, rundir: Path) -> dict:
    from streamfid.io import write_bundle

    cfg = sf.GeneratorConfig(duration_s=SIM_DURATION_S, base_rate=SIM_RATE, cascade_fraction=0.5,
                             type_mix=dict(SIM_TYPE_MIX), seed=seed)
    complete = t.call("simulate.generate_stream", sf.generate_stream, cfg, n_out=len)
    rl = t.call("simulate.rate_limited_bundle", sf.rate_limited_bundle, complete, THRESHOLD,
                ANCHOR_MS, n_in=len(complete), n_out=len)
    bern = t.call("simulate.bernoulli_bundle", sf.bernoulli_bundle, complete, BERNOULLI_RATE, seed,
                  n_in=len(complete), n_out=len)
    bundles = {"complete": complete, "ratelimit": rl, "bernoulli": bern}
    for name, b in bundles.items():
        t.call("io.write_bundle", write_bundle, rundir / f"sim_{name}.jsonl", b, n_in=records(b))
    return bundles


def analysis_read(sf, t, seed: int, rundir: Path) -> dict:
    from streamfid.io import read_bundle

    spec = gen.STREAM
    parts = [t.call("io.read_bundle", read_bundle, rundir / f"part_{k}.jsonl", n_out=records)
             for k in range(spec.parts)]
    sample = t.call("io.read_bundle", read_bundle, rundir / "sample.jsonl", n_out=records)
    complete = t.call("model.merge_streams", sf.merge_streams, parts,
                      n_in=sum(map(len, parts)), n_out=len)
    del parts
    streams = {"complete": complete, "sample": sample}
    r = {"merged": complete}
    r["segments"] = t.call("ratelimit.segment_stream", sf.segment_stream, complete, sample, n_out=len)
    r["validate"] = t.call("ratelimit.validate", sf.validate, r["segments"])
    r["breakdown"] = {key: t.call("breakdown.sampling_rate_breakdown", sf.sampling_rate_breakdown,
                                  complete, sample, key) for key in BREAKDOWN_KEYS}
    rate = t.call("model.mean_rate_from_messages", sf.mean_rate_from_messages, sample)
    r["fv"], r["inversion"], r["missing_entities"] = {}, {}, {}
    for key in ENTITY_KEYS:
        for name, b in streams.items():
            r["fv"][key, name] = t.call("entity.frequency_vector_of", sf.frequency_vector_of,
                                        b.events, key)
        inv = t.call("entity.estimate_complete_frequency_vector",
                     sf.estimate_complete_frequency_vector, r["fv"][key, "sample"], rate)
        r["inversion"][key] = inv
        r["missing_entities"][key] = t.call("entity.estimate_missing_entities",
                                            sf.estimate_missing_entities, inv.f_hat, rate)
    profile = t.call("ranking.temporal_rates_from_messages", sf.temporal_rates_from_messages,
                     sample, "hour")
    r["topk"] = t.call("ranking.top_k_rank_table", sf.top_k_rank_table, complete, sample, profile, TOP_K)
    r["bipartite"], r["labels"], r["bowtie"], r["cascades"], r["interarrival"] = {}, {}, {}, {}, {}
    for name, b in streams.items():
        g = t.call("graphs.build_bipartite", sf.build_bipartite, b.events, n_out=lambda g: len(g.weights))
        r["bipartite"][name] = g
        r["labels"][name] = t.call("graphs.spectral_cocluster", sf.spectral_cocluster, g,
                                   COCLUSTER_K, COCLUSTER_SEED, n_in=g.node_count)
    flow = {"cluster": t.call("graphs.cluster_flow", sf.cluster_flow, r["labels"]["complete"],
                              r["labels"]["sample"])}
    for name, b in streams.items():
        net = t.call("graphs.build_retweet_network", sf.build_retweet_network, b.events,
                     n_out=lambda g: len(g.edges))
        r["bowtie"][name] = t.call("graphs.bowtie_decompose", sf.bowtie_decompose, net, n_out=len)
    flow["bowtie"] = t.call("graphs.bowtie_flow", sf.bowtie_flow, r["bowtie"]["complete"].components,
                            r["bowtie"]["sample"].components)
    r["flow"] = flow
    for name, b in streams.items():
        cs = t.call("cascades.reconstruct_cascades", sf.reconstruct_cascades, b.events,
                    n_in=len(b), n_out=len)
        r["cascades"][name] = cs
        rooted = [c for c in cs if not c.is_rootless]
        r["interarrival"][name] = t.call("cascades.inter_arrival_distribution",
                                         sf.inter_arrival_distribution, rooted)
    r["compare"] = t.call("cascades.compare_cascades", sf.compare_cascades,
                          r["cascades"]["complete"], r["cascades"]["sample"])
    return r


def plain_simulate(r: dict, rundir: Path) -> dict:
    import numpy as np

    def cols(b):
        return (np.array([e.id for e in b.events]), np.array([e.timestamp_ms for e in b.events]))

    complete, rl = r["complete"], r["ratelimit"]
    ids, ts = cols(complete)
    return {
        "warnings": r["warnings"],
        "id": ids, "ts": ts,
        "type": np.array([gen.TYPES.index(e.event_type) for e in complete.events]),
        "root": np.array([-1 if e.root_id is None else e.root_id for e in complete.events]),
        "ratelimit": {"id": cols(rl)[0], "threshold": THRESHOLD, "anchor_ms": ANCHOR_MS,
                      "msg_ts": np.array([m.timestamp_ms for m in rl.messages], dtype=np.int64),
                      "msg_missed": np.array([m.cumulative_missed for m in rl.messages], dtype=np.int64)},
        "bernoulli_id": cols(r["bernoulli"])[0],
        "written": [(rundir / f"sim_{name}.jsonl", len(r[name].events), len(r[name].messages))
                    for name in ("complete", "ratelimit", "bernoulli")],
    }


def plain_analysis(sf, r: dict) -> dict:
    summary = r["compare"][1]
    return {
        "warnings": r["warnings"],
        "merged": [(e.id, e.timestamp_ms, e.user_id, e.event_type,
                    -1 if e.root_id is None else e.root_id, e.hashtags, e.urls,
                    e.follower_count, e.lang) for e in r["merged"].events],
        "segments": [(s.start_ms, s.end_ms, sf.estimate_missing(s), s.true_missing)
                     for s in r["segments"]],
        "validate": {"segments": len(r["segments"]), "median_ape": r["validate"].median_ape,
                     "mean_ape": r["validate"].mean_ape},
        "breakdown": {key: [(x.bucket, x.complete_count, x.sample_count, x.rate) for x in rows]
                      for key, rows in r["breakdown"].items()},
        "rate_tol": 1e-12,
        "fv": {k: dict(fv.counts) for k, fv in r["fv"].items()},
        "inversion": {k: inv.as_array(sf.entity.DEFAULT_K_MAX).tolist()
                      for k, inv in r["inversion"].items()},
        "missing_entities": r["missing_entities"],
        "topk": [(x.entity, x.observed_rank, x.true_rank, x.estimated_rank, x.n_s, x.n_c,
                  x.estimated_volume) for x in r["topk"].rows],
        "k": TOP_K,
        "volume_tol": 1e-9,
        "bipartite": {k: dict(g.weights) for k, g in r["bipartite"].items()},
        "labels": r["labels"],
        "cocluster_k": COCLUSTER_K,
        "bowtie": {k: dict(b.components) for k, b in r["bowtie"].items()},
        "flow": {kind: {(row, col): int(f.counts[i, j])
                        for i, row in enumerate(f.row_labels) for j, col in enumerate(f.col_labels)}
                 for kind, f in r["flow"].items()},
        "cascades": {k: {c.root_id: (not c.is_rootless, c.size) for c in cs}
                     for k, cs in r["cascades"].items()},
        "interarrival": {k: (d.median_s, len(d.deltas_s)) for k, d in r["interarrival"].items()},
        "summary": {"complete": summary.complete_cascades, "sample": summary.sample_cascades,
                    "fully_observed": summary.fully_observed,
                    "median_interarrival_s": {"complete": summary.median_interarrival_complete_s,
                                              "sample": summary.median_interarrival_sample_s}},
        "reach": [v for row in r["compare"][0] for v in row.relative_potential_reach.values()
                  if v is not None],
    }


JOBS = {"simulate_write": simulate_write, "analysis_read": analysis_read}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(JOBS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rundir", type=Path, required=True)
    args = ap.parse_args()

    import streamfid as sf

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(sf.__file__).resolve().parents:
        sys.exit(f"streamfid imported from {sf.__file__}, not from {src}")
    job = JOBS[args.workload]
    null, tracer = spans.NullTracer(), spans.Tracer()
    setup = None if args.trace else SetupSamples(args.workload, SETUP_EVERY_S[args.workload],
                                                 Deadline(DEADLINE_S))
    result = None

    def one_round(traced: bool) -> float:
        nonlocal result
        result = None
        t = tracer if traced else null
        t0 = time.perf_counter()
        with t.span(f"{args.workload}.job"):
            result = job(sf, t, args.seed, args.rundir)
        return time.perf_counter() - t0

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        job(sf, null, args.seed, args.rundir)          # warm-up, discarded
        ops_per_round = null.calls
        times = spans.run_rounds(args.seconds, bool(args.trace), one_round,
                                 setup.maybe if setup else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["warnings"] = sorted({f"{w.category.__name__}: {w.message}" for w in caught})

    if args.workload == "simulate_write":
        out, truth = plain_simulate(result, args.rundir), None
    else:
        out, truth = plain_analysis(sf, result), gen.Truth(args.seed, gen.STREAM)
    report = {"job_s": times[False], "peak_rss_mb": peak_rss_mb,
              "setup_s": setup.samples if setup else [],
              "attempted": ops_per_round * (len(times[False]) + len(times[True])),
              "check_failures": run_checks(args.workload, out, truth)}
    if args.trace:
        tracer.dump(args.rundir / f"spans_{args.workload}.json")
        report["layers"] = spans.trace_report(tracer, times, f"{args.workload}.job")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
