"""Output checks, each against a computation made apart from streamfid.

Every check takes ``out`` (plain data taken from the program's outputs:
library return values, or the CLI's report files) and the generator's
``Truth``, and raises ``CheckError`` on the first mismatch.  Nothing here
imports streamfid, and nothing compares against a stored copy of an
earlier output: expected values come from the generator's arrays, from
numpy or networkx, or from a property the method must have.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

import gen

ZERO_RATE_FLOOR = 1e-3   # ranking's documented floor on a bucket rate


class CheckError(AssertionError):
    pass


def need(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _event_tuples(s: gen.Stream) -> list:
    return [(int(s.id[i]), int(s.ts[i]), int(s.user[i]), gen.TYPES[s.type[i]], int(s.root[i]),
             s.tags[i], s.urls[i], int(s.followers[i]), gen.LANGS[s.lang[i]])
            for i in range(len(s))]


# ---------------------------------------------------------------- simulate_write

def sim_sorted_unique(out, truth):
    ts, ids = out["ts"], out["id"]
    need(len(ids) > 0, "empty stream")
    need(len(np.unique(ids)) == len(ids), "duplicate event ids")
    step_ok = (np.diff(ts) > 0) | ((np.diff(ts) == 0) & (np.diff(ids) > 0))
    need(bool(step_ok.all()), "events not strictly sorted by (ts, id)")


def sim_roots_resolve(out, truth):
    pos = {int(e): i for i, e in enumerate(out["id"])}
    is_root = out["type"] == gen.ROOT
    for i in np.flatnonzero(~is_root):
        p = pos.get(int(out["root"][i]))
        need(p is not None and is_root[p] and p < i,
             f"event {out['id'][i]}: root_id {out['root'][i]} is not an earlier root")
    need(bool((out["root"][is_root] == -1).all()), "a root event carries a root_id")


def sim_conservation(out, truth):
    rl = out["ratelimit"]
    final = int(rl["msg_missed"][-1]) if len(rl["msg_missed"]) else 0
    need(len(rl["id"]) + final == len(out["id"]),
         f"delivered {len(rl['id'])} + missed {final} != input {len(out['id'])}")


def sim_ratelimit_equals_bench_sampler(out, truth):
    rl = out["ratelimit"]
    mine = gen.threshold_sample(out["ts"], rl["threshold"], rl["anchor_ms"])
    need(np.array_equal(rl["id"], out["id"][mine.keep]), "delivered events differ from the bench sampler")
    need(np.array_equal(rl["msg_ts"], mine.msg_ts), "message timestamps differ from the bench sampler")
    need(np.array_equal(rl["msg_missed"], mine.msg_missed), "message counters differ from the bench sampler")


def sim_bernoulli_ordered_subset(out, truth):
    pos = {int(e): i for i, e in enumerate(out["id"])}
    at = [pos.get(int(e), -1) for e in out["bernoulli_id"]]
    need(len(at) > 0 and min(at) >= 0, "bernoulli sample holds an id absent from the stream")
    need(bool((np.diff(at) > 0).all()), "bernoulli sample is not in stream order")


def sim_written_lines(out, truth):
    for path, n_events, n_messages in out["written"]:
        events = messages = 0
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    obj = json.loads(line)
                except ValueError:
                    raise CheckError(f"{path}:{lineno} is not JSON") from None
                if "rl_ts_ms" in obj:
                    messages += 1
                else:
                    events += 1
        need((events, messages) == (n_events, n_messages),
             f"{path}: {events} events + {messages} messages written, "
             f"expected {n_events} + {n_messages}")


# ---------------------------------------------------------------- analysis

def merged_equals_full(out, truth):
    got, want = out["merged"], _event_tuples(truth.complete)
    need(len(got) == len(want), f"merged stream has {len(got)} events, expected {len(want)}")
    for a, b in zip(got, want):
        need(a == b, f"merged record {a} != generated {b}")


def segments_exact(out, truth):
    segs = out["segments"]
    need(len(segs) == len(truth.smp.msg_ts) - 1,
         f"{len(segs)} segments, expected {len(truth.smp.msg_ts) - 1}")
    for lo, hi, estimate, true_missing in segs:
        real = truth.missing_between(lo, hi)
        need(estimate == real == true_missing,
             f"segment ({lo}, {hi}]: estimate {estimate}, reported {true_missing}, true {real}")


def validate_report(out, truth):
    v = out["validate"]
    need(v["segments"] == len(truth.smp.msg_ts) - 1, f"validate saw {v['segments']} segments")
    need(v["median_ape"] == 0 and v["mean_ape"] == 0,
         f"counter estimates are not exact: median APE {v['median_ape']}, mean {v['mean_ape']}")


def breakdown_counts(out, truth):
    need(out["breakdown"], "no breakdown")
    tol = out["rate_tol"]
    share = len(truth.sample) / len(truth.complete)
    for key, rows in out["breakdown"].items():
        c_want = gen.bucket_counts(truth.complete, key)
        s_want = gen.bucket_counts(truth.sample, key)
        need([r[0] for r in rows] == sorted(c_want), f"{key}: bucket set or order differs")
        for bucket, c, s, rate in rows:
            need((c, s) == (c_want[bucket], s_want.get(bucket, 0)),
                 f"{key}={bucket}: counts ({c}, {s}), expected ({c_want[bucket]}, {s_want.get(bucket, 0)})")
            need(_close(rate, s / c, tol), f"{key}={bucket}: rate {rate} != {s}/{c}")
        mean = sum(c * rate for _, c, _, rate in rows) / sum(c for _, c, _, _ in rows)
        need(_close(mean, share, tol), f"{key}: weighted mean rate {mean} != delivered/total {share}")


def frequency_vectors(out, truth):
    need(out["fv"], "no frequency vectors")
    for (key, stream), fv in out["fv"].items():
        want = Counter(gen.entity_counts(truth.streams[stream], key).values())
        need(fv == dict(want), f"{stream} {key} frequency vector differs from independent counts")


def inversion_shape(out, truth):
    need(out["inversion"], "no inversion")
    for key, f_hat in out["inversion"].items():
        f = np.asarray(f_hat, dtype=float)
        slack = 1e-9 * max(1.0, float(f.max()))
        need(bool((f >= 0).all()), f"{key}: negative F_hat")
        need(bool((np.diff(f) <= slack).all()), f"{key}: F_hat increases")
        missing = out["missing_entities"][key]
        need(math.isfinite(missing) and missing >= 0, f"{key}: missing entities {missing}")


def estimate_missing_report(out, truth):
    rep = out["estimate_missing"]
    d, m = len(truth.sample), truth.final_missed
    need(_close(rep["rate"], d / (d + m), 1e-12), f"rate {rep['rate']} != {d}/({d}+{m})")
    users = len(gen.entity_counts(truth.sample, "user"))
    need(rep["observed_entities"] == users, f"{rep['observed_entities']} observed users, expected {users}")
    need(rep["estimated_missing"] >= 0, "negative missing entities")
    need(_close(rep["estimated_total_entities"], users + rep["estimated_missing"], 1e-9),
         "total != observed + missing")


def topk(out, truth):
    rows, k_asked = out["topk"], out["k"]
    n_s = gen.entity_counts(truth.sample, "user")
    n_c = gen.entity_counts(truth.complete, "user")
    k = min(k_asked, len(n_s))
    want = set(sorted(n_s, key=lambda u: (-n_s[u], u))[:k])
    need(len(rows) == k and {r[0] for r in rows} == want, "top-k selection differs from sample counts")
    for col, name in ((1, "observed"), (2, "true"), (3, "estimated")):
        need(sorted(r[col] for r in rows) == list(range(1, k + 1)), f"{name} ranks are not 1..{k}")
    for r in rows:
        need((r[4], r[5]) == (n_s[r[0]], n_c[r[0]]), f"user {r[0]}: n_s/n_c ({r[4]}, {r[5]})")


def estimated_volume(out, truth):
    rates = truth.hour_rates()
    hours = (truth.sample.ts // gen.HOUR_MS) % 24
    inv = np.array([1.0 / max(rates.get(h, 1.0), ZERO_RATE_FLOOR) for h in range(24)])
    vol = Counter()
    for u, h in zip(truth.sample.user.tolist(), hours.tolist()):
        vol[u] += inv[h]
    for r in out["topk"]:
        need(_close(r[6], vol[r[0]], out["volume_tol"]),
             f"user {r[0]}: estimated_volume {r[6]} != sum 1/rate {vol[r[0]]}")


def bipartite_weights(out, truth):
    need(out["bipartite"], "no bipartite graph")
    for stream, w in out["bipartite"].items():
        need(w == gen.user_hashtag_weights(truth.streams[stream]),
             f"{stream}: bipartite weights differ from independent counts")


def cocluster_labels(out, truth):
    need(out["labels"], "no co-clustering")
    k = out["cocluster_k"]
    for stream, labels in out["labels"].items():
        w = gen.user_hashtag_weights(truth.streams[stream])
        nodes = {f"u:{u}" for u, _ in w} | {f"h:{h}" for _, h in w}
        need(set(labels) == nodes, f"{stream}: labels do not cover exactly the graph's nodes")
        need(all(0 <= v < k for v in labels.values()), f"{stream}: a label outside [0, {k})")


def nx_bowtie(edges) -> dict:
    """Bow-tie components computed with networkx."""
    import networkx as nx

    g = nx.DiGraph(list(edges))
    if not g:
        return {}
    sccs = list(nx.strongly_connected_components(g))
    big = max(len(c) for c in sccs)
    lscc = min((c for c in sccs if len(c) == big), key=min)
    v0 = next(iter(lscc))
    out_ = nx.descendants(g, v0) - lscc
    in_ = nx.ancestors(g, v0) - lscc
    g.add_edges_from(("in*", v) for v in in_)
    g.add_edges_from((v, "out*") for v in out_)
    from_in = nx.descendants(g, "in*")
    to_out = nx.ancestors(g, "out*")
    comp = {}
    for v in g:
        if v in ("in*", "out*"):
            continue
        if v in lscc:
            comp[v] = "LSCC"
        elif v in in_:
            comp[v] = "IN"
        elif v in out_:
            comp[v] = "OUT"
        else:
            a, b = v in from_in, v in to_out
            comp[v] = "Tubes" if a and b else ("Tendrils" if a or b else "Disconnected")
    return comp


def bowtie_networkx(out, truth):
    need(out["bowtie"], "no bow-tie")
    for stream, comp in out["bowtie"].items():
        edges = gen.retweet_edges(truth.streams[stream])
        nodes = {n for e in edges for n in e}
        need(set(comp) == nodes, f"{stream}: bow-tie is not a partition of the retweet graph's nodes")
        need(comp == nx_bowtie(edges), f"{stream}: bow-tie differs from networkx")


def flow_counts(out, truth):
    need(out["flow"], "no flow matrix")
    for kind, counts in out["flow"].items():
        src = out["labels"] if kind == "cluster" else out["bowtie"]
        comp, smp = src["complete"], src["sample"]
        want = Counter((comp[e], smp.get(e, "missing")) for e in comp)
        got = {cell: n for cell, n in counts.items() if n}
        need(got == dict(want), f"{kind} flow counts differ from the labelings' contingency table")


def _median_gap_matches(median_s, stream: str, truth) -> None:
    """The program rounds the pooled median gap to 0.1 s."""
    gaps = gen.pooled_gaps_ms(truth.streams[stream])
    need(median_s is not None and abs(median_s - np.median(gaps) / 1000) <= 0.05 + 1e-9,
         f"{stream}: median inter-arrival {median_s}, generator's {np.median(gaps) / 1000}")


def cascade_sets(out, truth):
    for stream, got in out["cascades"].items():
        want = {r: (rooted, len(ts)) for r, (rooted, ts) in gen.cascades(truth.streams[stream]).items()}
        need(got == want, f"{stream}: cascade roots or sizes differ from the generator")
    for stream, (median_s, n_gaps) in out["interarrival"].items():
        gaps = gen.pooled_gaps_ms(truth.streams[stream])
        need(n_gaps == len(gaps), f"{stream}: {n_gaps} pooled gaps, expected {len(gaps)}")
        _median_gap_matches(median_s, stream, truth)


def cascade_summary(out, truth):
    s = out["summary"]
    full = {r: len(ts) for r, (rooted, ts) in gen.cascades(truth.complete).items()}
    seen = {r: len(ts) for r, (rooted, ts) in gen.cascades(truth.sample).items() if rooted}
    need(s["complete"] == len(full) and s["sample"] == len(seen),
         f"cascade counts ({s['complete']}, {s['sample']}), expected ({len(full)}, {len(seen)})")
    fully = sum(n == full[r] for r, n in seen.items())
    need(s["fully_observed"] == fully, f"{s['fully_observed']} fully observed, expected {fully}")
    for stream, median_s in s["median_interarrival_s"].items():
        _median_gap_matches(median_s, stream, truth)


def reach_bounds(out, truth):
    need(out["reach"], "no reach ratios")
    bad = [v for v in out["reach"] if not 0.0 <= v <= 1.0]
    need(not bad, f"reach ratios outside [0, 1]: {bad[:3]}")


def reach_ccdf(out, truth):
    need(out["reach_ccdf"], "no reach CCDF")
    for tag, pts in out["reach_ccdf"].items():
        ys = [y for _, y in pts]
        need(all(0.0 <= y <= 1.0 for y in ys), f"reach {tag}: CCDF outside [0, 1]")
        need(all(b <= a for a, b in zip(ys, ys[1:])), f"reach {tag}: CCDF increases")
        need(pts[-1] == (1.0, 0.0), f"reach {tag}: ratios above 1 (CCDF at 1 is {pts[-1][1]})")


# ---------------------------------------------------------------- every workload

# Warnings the program raises on these inputs on every run: the inversion
# clamps the sample's frequency bins above k_max into the last bin, and
# scipy deprecates the nnls argument the program passes.  Any other warning
# (the co-clustering's "randomized SVD not converged", say) fails the check.
EXPECTED_WARNINGS = ("frequency bins above k_max", "Arguments {'atol'} are deprecated")


def no_unexpected_warnings(out, truth):
    bad = [w for w in out["warnings"] if not any(p in w for p in EXPECTED_WARNINGS)]
    need(not bad, f"unexpected warnings: {bad[:3]}")


# ---------------------------------------------------------------- CLI only

def cli_exit_codes(out, truth):
    bad = {cmd: code for cmd, code in out["exit_codes"].items() if code != 0}
    need(not bad, f"commands failed: {bad}")


def cli_manifests(out, truth):
    need(out["manifests"], "no reports")
    for report, manifest in out["manifests"].items():
        need(isinstance(manifest, dict) and manifest.get("command") and "version" in manifest,
             f"{report} carries no manifest")


def cli_sample_equals_bench_sampler(out, truth):
    events, messages = out["sample_records"]
    kept = truth.sample
    need(len(events) == len(kept), f"sample holds {len(events)} events, expected {len(kept)}")
    for i, obj in enumerate(events):
        need(obj == gen.event_obj(kept, i), f"sample event {obj.get('id')} differs from the bench sampler")
    want = list(zip(truth.smp.msg_ts.tolist(), truth.smp.msg_missed.tolist()))
    need(messages == want, "rate limit messages differ from the bench sampler")


SIMULATE_WRITE = [sim_sorted_unique, sim_roots_resolve, sim_conservation,
                  sim_ratelimit_equals_bench_sampler, sim_bernoulli_ordered_subset, sim_written_lines,
                  no_unexpected_warnings]
ANALYSIS_READ = [merged_equals_full, segments_exact, validate_report, breakdown_counts,
                 frequency_vectors, inversion_shape, topk, estimated_volume, bipartite_weights,
                 cocluster_labels, bowtie_networkx, flow_counts, cascade_sets, cascade_summary,
                 reach_bounds, no_unexpected_warnings]
CLI_WALKTHROUGH = [cli_exit_codes, cli_manifests, cli_sample_equals_bench_sampler, validate_report,
                   breakdown_counts, estimate_missing_report, topk, estimated_volume,
                   bipartite_weights, cocluster_labels, bowtie_networkx, flow_counts,
                   cascade_summary, reach_ccdf, no_unexpected_warnings]
CHECKS = {"simulate_write": SIMULATE_WRITE, "analysis_read": ANALYSIS_READ,
          "cli_walkthrough": CLI_WALKTHROUGH}


def run_checks(workload: str, out: dict, truth) -> list[str]:
    """Names and messages of the checks that failed."""
    failed = []
    for check in CHECKS[workload]:
        try:
            check(out, truth)
        except Exception as exc:  # an output too malformed to check fails its check
            failed.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
    return failed
