"""Batch CLI: simulate streams, sample them, and run every analysis.

Every command is a pure function of its input files, flags, and seed;
reruns produce byte-identical outputs.  Reports embed a run manifest
(inputs, flags, seed, version).  Exit codes: 1 for a malformed input line,
2 for flag validation errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .breakdown import BREAKDOWN_KEYS, sampling_rate_breakdown
from .cascades import (
    DEFAULT_REACH_WINDOWS_S,
    ccdf,
    compare_cascades,
    inter_arrival_distribution,
    reconstruct_cascades,
)
from .entity import (
    ENTITY_KEYS,
    estimate_complete_frequency_vector,
    estimate_missing_entities,
    frequency_vector_of,
)
from .graphs import (
    Digraph,
    bowtie_decompose,
    bowtie_flow,
    build_bipartite,
    build_retweet_network,
    cluster_flow,
    spectral_cocluster,
)
from .io import LineFormatError, iter_records, read_bundle, write_bundle
from .model import GRANULARITIES, Event, empirical_mean_rate, mean_rate_from_messages, merge_streams
from .ranking import temporal_rates_from_messages, top_k_rank_table
from .ratelimit import segment_stream, validate
from .simulate import (
    DEFAULT_ANCHOR_MS,
    DEFAULT_THRESHOLD,
    GeneratorConfig,
    ZipfPopulation,
    bernoulli_bundle,
    generate_stream,
    rate_limited_bundle,
)

SEED_ENV = "STREAMFID_SEED"


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 0


def _manifest(args) -> dict:
    flags = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None and not callable(v)
    }
    flags = {k: (str(v) if isinstance(v, Path) else v) for k, v in flags.items()}
    m = {
        "command": args.command,
        "inputs": [str(p) for p in (getattr(args, "input", None) or [])],
        "flags": {k: v for k, v in flags.items() if k not in ("command", "input")},
        "version": __version__,
    }
    if hasattr(args, "seed"):
        m["seed"] = _resolve_seed(args)
    return m


def _write_csv(path, header, rows, manifest):
    out = sys.stdout if path is None else open(path, "w", newline="", encoding="utf-8")
    try:
        out.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if path is not None:
            out.close()


def _write_table(path, header, rows, manifest, fmt="csv"):
    if fmt == "json":
        _write_json(path, {"rows": [dict(zip(header, r)) for r in rows]}, manifest)
    else:
        _write_csv(path, header, rows, manifest)


def _write_json(path, payload, manifest):
    payload = {"manifest": manifest, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read_two_bundles(args, parser):
    if len(args.input) != 2:
        parser.error(f"{args.command} needs exactly two -i inputs: complete then sample")
    return read_bundle(args.input[0]), read_bundle(args.input[1])


def _one_input(args, parser):
    if len(args.input) != 1:
        parser.error(f"{args.command} needs exactly one -i input")
    return args.input[0]


def _parse_mix(text: str, parser) -> dict:
    mix = {}
    try:
        for part in text.split(","):
            name, _, val = part.partition("=")
            mix[name.strip()] = float(val)
    except ValueError:
        parser.error(f"cannot parse mix {text!r}; expected name=prob,name=prob,...")
    return mix


# ---------------------------------------------------------------- commands


def cmd_simulate(args, parser):
    seed = _resolve_seed(args)
    config = GeneratorConfig(
        duration_s=args.duration,
        base_rate=args.rate,
        diurnal_amplitude=args.amplitude,
        user_population=ZipfPopulation(args.users, args.user_zipf),
        hashtag_population=ZipfPopulation(args.hashtags, args.hashtag_zipf),
        cascade_fraction=args.cascade_fraction,
        type_mix=_parse_mix(args.type_mix, parser),
        seed=seed,
    )
    bundle = generate_stream(config)
    write_bundle(args.output, bundle)
    return 0


def cmd_sample(args, parser):
    if args.mode == "ratelimit":
        if args.threshold < 1:
            parser.error("--threshold must be >= 1")
        if not 0 <= args.anchor_ms < 1000:
            parser.error("--anchor-ms must be in [0, 1000)")
    else:
        if args.rate is None:
            parser.error("--rate is required for bernoulli sampling")
        if not 0.0 <= args.rate <= 1.0:
            parser.error("--rate must be in [0, 1]")
    bundle = read_bundle(_one_input(args, parser))
    if args.mode == "ratelimit":
        out = rate_limited_bundle(bundle, args.threshold, args.anchor_ms)
    else:
        out = bernoulli_bundle(bundle, args.rate, _resolve_seed(args))
    write_bundle(args.output, out)
    return 0


def cmd_merge(args, parser):
    bundles = [read_bundle(p) for p in args.input]
    write_bundle(args.output, merge_streams(bundles))
    return 0


def cmd_validate_ratelimit(args, parser):
    complete, sample = _read_two_bundles(args, parser)
    segments = segment_stream(complete, sample)
    payload = {"segments": len(segments)}
    if segments:
        report = validate(segments)
        payload.update(
            {
                "median_ape": report.median_ape,
                "mean_ape": report.mean_ape,
                "mean_rate": empirical_mean_rate(complete, sample),
            }
        )
    _write_json(args.output, payload, _manifest(args))
    return 0


def _stream_events(path):
    """Events from a JSONL file, one at a time (messages skipped)."""
    for rec in iter_records(path):
        if isinstance(rec, Event):
            yield rec


def cmd_breakdown(args, parser):
    # single pass per file; memory bounded by bucket count, not event count
    if len(args.input) != 2:
        parser.error("breakdown needs exactly two -i inputs: complete then sample")
    breakdown = sampling_rate_breakdown(
        _stream_events(args.input[0]), _stream_events(args.input[1]), args.key, args.tz_offset
    )
    rows = [(r.bucket, r.complete_count, r.sample_count, round(r.rate, 6)) for r in breakdown]
    _write_table(
        args.output,
        ("bucket", "complete_count", "sample_count", "rate"),
        rows,
        _manifest(args),
        args.format,
    )
    return 0


def cmd_entity_stats(args, parser):
    fv = frequency_vector_of(_stream_events(_one_input(args, parser)), args.key)
    rows = [(k, fv.counts[k]) for k in sorted(fv.counts)]
    _write_table(args.output, ("k", "F_sample"), rows, _manifest(args), args.format)
    return 0


def cmd_estimate_missing(args, parser):
    sample = read_bundle(_one_input(args, parser))
    fv = frequency_vector_of(sample.events, args.key)
    if args.rate is not None:
        rate = args.rate
    elif not sample.messages:
        parser.error("the sample has no rate limit messages to derive the rate from; pass --rate")
    else:
        try:
            rate = mean_rate_from_messages(sample)
        except ValueError as exc:
            parser.error(str(exc))
    if not 0.0 < rate <= 1.0:
        parser.error(f"sampling rate {rate} outside (0,1]")
    result = estimate_complete_frequency_vector(fv, rate, k_max=args.k_max)
    missing = estimate_missing_entities(result.f_hat, rate)
    manifest = _manifest(args)
    manifest["rate"] = rate
    if args.output:
        rows = [
            (k, fv[k], f"{result.f_hat[k]:.4f}")
            for k in range(1, args.k_max + 1)
            if fv[k] or result.f_hat[k]
        ]
        _write_csv(args.output, ("k", "F_sample", "F_hat"), rows, manifest)
    _write_json(
        None,
        {
            "estimated_missing": missing,
            "observed_entities": fv.total_entities(),
            "estimated_total_entities": fv.total_entities() + missing,
            "residual": result.residual,
            "truncation_mass": result.truncation_mass,
        },
        manifest,
    )
    return 0


def cmd_rank(args, parser):
    complete, sample = _read_two_bundles(args, parser)
    profile = temporal_rates_from_messages(sample, args.granularity)
    report = top_k_rank_table(complete, sample, profile, args.k)
    manifest = _manifest(args)
    _write_csv(
        args.output,
        ("entity", "observed_rank", "true_rank", "estimated_rank", "n_s", "n_c", "estimated_volume"),
        [
            (r.entity, r.observed_rank, r.true_rank, r.estimated_rank, r.n_s, r.n_c, f"{r.estimated_volume:.4f}")
            for r in report.rows
        ],
        manifest,
    )
    _write_json(
        None,
        {"kendall_observed": report.kendall_observed, "kendall_estimated": report.kendall_estimated},
        manifest,
    )
    return 0


def _read_assignment(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for row in csv.reader(line for line in fh if not line.startswith("#")):
            if not row or row[0] == "node":
                continue
            out[row[0]] = row[1]
    return out


def _read_edge_csv(path) -> dict:
    """Weighted edge list from a (src, dst, weight) CSV."""
    edges = {}
    with open(path, "r", encoding="utf-8") as fh:
        for row in csv.reader(line for line in fh if not line.startswith("#")):
            if not row or row[0] == "src":
                continue
            edges[(row[0], row[1])] = int(row[2]) if len(row) > 2 else 1
    return edges


def _digraph_from_csv(path):
    edges = {(int(a), int(b)): w for (a, b), w in _read_edge_csv(path).items()}
    return Digraph.from_edges(edges)


def cmd_graph(args, parser):
    sub = args.graph_command
    manifest = _manifest(args)
    if sub == "flow":
        if len(args.input) != 2:
            parser.error("graph flow needs two -i inputs: complete then sample assignment")
        complete = _read_assignment(args.input[0])
        sample = _read_assignment(args.input[1])
        if args.kind == "bowtie":
            flow = bowtie_flow(complete, sample)
        else:
            flow = cluster_flow({k: int(v) for k, v in complete.items()},
                                {k: int(v) for k, v in sample.items()})
        rows = []
        for i, rl in enumerate(flow.row_labels):
            for j, cl in enumerate(flow.col_labels):
                rows.append((rl, cl, int(flow.counts[i, j]), f"{flow.ratios[i, j]:.6f}"))
        _write_csv(args.output, ("complete", "sample", "count", "ratio"), rows, manifest)
        return 0

    src = _one_input(args, parser)
    if sub == "bipartite":
        g = build_bipartite(read_bundle(src).events)
        rows = [(u, h, w) for (u, h), w in sorted(g.weights.items())]
        _write_csv(args.output, ("src", "dst", "weight"), rows, manifest)
    elif sub == "cocluster":
        if str(src).endswith(".csv"):
            from .graphs import BipartiteGraph

            weights = {(int(u), h): w for (u, h), w in _read_edge_csv(src).items()}
            g = BipartiteGraph(weights, tuple(sorted({u for u, _ in weights})),
                               tuple(sorted({h for _, h in weights})))
        else:
            g = build_bipartite(read_bundle(src).events)
        labels = spectral_cocluster(g, args.k, _resolve_seed(args))
        _write_csv(args.output, ("node", "cluster"), sorted(labels.items()), manifest)
    elif sub == "retweet":
        g = build_retweet_network(read_bundle(src).events, include_quotes=not args.no_quotes)
        rows = [(a, b, w) for (a, b), w in sorted(g.edges.items())]
        _write_csv(args.output, ("src", "dst", "weight"), rows, manifest)
    elif sub == "bowtie":
        if str(src).endswith(".csv"):
            g = _digraph_from_csv(src)
        else:
            g = build_retweet_network(read_bundle(src).events, include_quotes=not args.no_quotes)
        assignment = bowtie_decompose(g)
        _write_csv(
            args.output,
            ("node", "component"),
            sorted(assignment.components.items()),
            manifest,
        )
    return 0


def cmd_cascade(args, parser):
    complete_bundle, sample_bundle = _read_two_bundles(args, parser)
    complete = reconstruct_cascades(complete_bundle.events, include_quotes=args.include_quotes)
    sample = reconstruct_cascades(sample_bundle.events, include_quotes=args.include_quotes)
    windows = ([(float("inf") if w == "inf" else float(w)) for w in args.window_s]
               or DEFAULT_REACH_WINDOWS_S)
    rows, summary = compare_cascades(complete, sample, args.retweet_threshold, windows)
    manifest = _manifest(args)
    payload = {
        "cascades": {
            "complete": summary.complete_cascades,
            "sample": summary.sample_cascades,
            "fully_observed": summary.fully_observed,
            "fully_observed_fraction": summary.fully_observed_fraction,
            f"complete_ge_{args.retweet_threshold}_retweets": summary.complete_ge_threshold,
            f"sample_ge_{args.retweet_threshold}_retweets": summary.sample_ge_threshold,
        },
        "mean_retweets": {
            "complete": summary.mean_retweets_complete,
            "sample": summary.mean_retweets_sample,
        },
        "median_interarrival_s": {
            "complete": summary.median_interarrival_complete_s,
            "sample": summary.median_interarrival_sample_s,
        },
    }
    _write_json(args.output, payload, manifest)
    if args.output:
        stem = Path(args.output).with_suffix("")
        for name, cascades in (("complete", complete), ("sample", [c for c in sample if not c.is_rootless])):
            dist = inter_arrival_distribution(cascades) if cascades else None
            if dist is None or dist.median_s is None:
                continue
            _write_csv(
                f"{stem}_interarrival_{name}.csv",
                ("x_s", "ccdf"),
                [(f"{x:.3f}", f"{y:.6f}") for x, y in zip(dist.grid_s, dist.ccdf)],
                manifest,
            )
        for w in windows:
            tag = "inf" if math.isinf(w) else f"{int(w)}s"
            ratios = np.sort([r.relative_potential_reach[w] for r in rows
                              if r.relative_potential_reach[w] is not None])
            if not len(ratios):
                continue
            grid = np.arange(101) / 100.0
            _write_csv(
                f"{stem}_reach_{tag}.csv",
                ("x", "ccdf"),
                [(f"{x:.2f}", f"{y:.6f}") for x, y in zip(grid, ccdf(ratios, grid))],
                manifest,
            )
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamfid",
        description="Simulate rate-limited event stream sampling and correct its biases.",
    )
    parser.add_argument("--version", action="version", version=f"streamfid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, output_required=False):
        p.add_argument("-i", "--input", action="append", default=[], help="input JSONL (repeatable)")
        if output_required:
            p.add_argument("-o", "--output", required=True)
        else:
            p.add_argument("-o", "--output", default=None, help="output path (default: stdout)")

    p = sub.add_parser("simulate", help="generate a synthetic complete stream")
    p.add_argument("--duration", type=float, required=True, help="seconds")
    p.add_argument("--rate", type=float, required=True,
                   help="base arrivals/second before the --type-mix root share; cascades add "
                        "the rest (--rate 120 gives about 52 events/s with the defaults)")
    p.add_argument("--amplitude", type=float, default=0.0, help="diurnal amplitude [0,1)")
    p.add_argument("--cascade-fraction", type=float, default=0.5)
    p.add_argument("--users", type=int, default=10_000)
    p.add_argument("--user-zipf", type=float, default=1.5)
    p.add_argument("--hashtags", type=int, default=2_000)
    p.add_argument("--hashtag-zipf", type=float, default=1.2)
    p.add_argument("--type-mix", default="root=0.25,retweet=0.55,quote=0.08,reply=0.12")
    p.add_argument("--seed", type=int, default=None, help=f"falls back to ${SEED_ENV}, then 0")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sample", help="apply a sampling mechanism to a stream")
    p.add_argument("--mode", choices=("ratelimit", "bernoulli"), required=True)
    p.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD)
    p.add_argument("--anchor-ms", type=int, default=DEFAULT_ANCHOR_MS)
    p.add_argument("--rate", type=float, default=None, help="bernoulli keep probability")
    p.add_argument("--seed", type=int, default=None)
    add_io(p, output_required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("merge", help="deduplicate and merge bundles")
    add_io(p, output_required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("validate-ratelimit", help="score rate limit message accounting")
    add_io(p)
    p.set_defaults(func=cmd_validate_ratelimit)

    p = sub.add_parser("breakdown", help="sampling-rate breakdown by bucket")
    p.add_argument("--key", choices=BREAKDOWN_KEYS, required=True)
    p.add_argument("--tz-offset", type=int, default=0, help="hours added to UTC")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_io(p)
    p.set_defaults(func=cmd_breakdown)

    p = sub.add_parser("entity-stats", help="entity frequency vector of a stream")
    p.add_argument("--key", choices=ENTITY_KEYS, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_io(p)
    p.set_defaults(func=cmd_entity_stats)

    p = sub.add_parser("estimate-missing", help="estimate entirely-missed entities")
    p.add_argument("--key", choices=ENTITY_KEYS, required=True)
    p.add_argument("--rate", type=float, default=None,
                   help="mean sampling rate; derived from the sample's rate limit messages "
                        "when omitted, so required for a sample without them")
    p.add_argument("--k-max", type=int, default=100)
    add_io(p)
    p.set_defaults(func=cmd_estimate_missing)

    p = sub.add_parser("rank", help="top-k rank distortion and correction")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--granularity", choices=GRANULARITIES, default="hour")
    add_io(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("graph", help="graph construction and decomposition")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    for name in ("bipartite", "cocluster", "retweet", "bowtie", "flow"):
        gp = gsub.add_parser(name)
        add_io(gp)
        if name == "cocluster":
            gp.add_argument("--k", type=int, default=6)
            gp.add_argument("--seed", type=int, default=None)
        if name in ("retweet", "bowtie"):
            gp.add_argument("--no-quotes", action="store_true", help="exclude quotes from edges")
        if name == "flow":
            gp.add_argument("--kind", choices=("cluster", "bowtie"), default="cluster")
        gp.set_defaults(func=cmd_graph)

    p = sub.add_parser("cascade", help="cascade completeness and diffusion features")
    p.add_argument("--window-s", action="append", default=[],
                   help="reach window in seconds or 'inf' (repeatable)")
    p.add_argument("--retweet-threshold", type=int, default=50)
    p.add_argument("--include-quotes", action="store_true")
    add_io(p)
    p.set_defaults(func=cmd_cascade)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except LineFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
