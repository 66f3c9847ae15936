"""Batch CLI: simulate streams, sample them, and run every analysis.

Every command is a pure function of its input files, flags, and seed;
reruns produce byte-identical outputs.  Reports embed a run manifest
(inputs, flags, seed, version).  Each command checks its flags and reads
its inputs (every input format is read by ``streamfid.io``), calls the
library and writes its result.  Exit codes: 1 for a malformed input line;
2 for a flag error, whose message names the flag, or names STREAMFID_SEED
when the seed taken from it is not a non-negative integer.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

from . import __version__
from .breakdown import BREAKDOWN_KEYS, sampling_rate_breakdown
from .cascades import (DEFAULT_REACH_WINDOWS_S, DEFAULT_RETWEET_THRESHOLD, ccdf_tables, compare_cascades,
                       inter_arrival_distribution, reach_table_name, reconstruct_cascades)
from .entity import (DEFAULT_K_MAX, ENTITY_KEYS, K_MAX_CEILING, estimate_complete_frequency_vector,
                     estimate_missing_entities, frequency_vector_of)
from .graphs import (BipartiteGraph, Digraph, bowtie_component, bowtie_decompose, bowtie_flow, build_bipartite,
                     build_retweet_network, cluster_flow, spectral_cocluster)
# bench/cli_trace.py swaps each library name it times here for a wrapper,
# iter_records too, though no command calls it: a name that is not bound
# fails every traced command, and a call made from inside the library
# instead of a command body is never timed
from .io import iter_records, read_assignment, read_bundle, read_edge_csv, write_bundle  # noqa: F401
from .model import GRANULARITIES, empirical_mean_rate, mean_rate_from_messages, merge_streams
from .ranking import temporal_rates_from_messages, top_k_rank_table
from .ratelimit import segment_stream, validate
from .simulate import (DEFAULT_ANCHOR_MS, DEFAULT_THRESHOLD, GeneratorConfig, ZipfPopulation,
                       bernoulli_bundle, generate_stream, rate_limited_bundle)

SEED_ENV = "STREAMFID_SEED"

# the simulate flag of each GeneratorConfig field that a flag sets
_CONFIG_FLAGS = {"duration": "--duration", "base_rate": "--rate", "diurnal_amplitude": "--amplitude",
                 "cascade_fraction": "--cascade-fraction", "type_mix": "--type-mix"}
_NEEDS = {1: "{} needs exactly one -i input", 2: "{} needs exactly two -i inputs: complete then sample"}


def _resolve_seed(args, parser, limit=math.inf) -> int:
    """--seed, else $STREAMFID_SEED, else 0: a flag error naming the flag or
    the variable unless it is an integer in [0, limit)."""
    if args.seed is not None:
        source, text = "--seed", str(args.seed)
    else:
        source, text = SEED_ENV, os.environ.get(SEED_ENV) or "0"
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if not 0 <= seed < limit:
        parser.error(f"{source} must be an integer in [0, {limit}), not {text!r}")
    return seed


@contextmanager
def _flags_of(parser, names: dict):
    """Turn a ValueError of the block whose text names a library parameter
    (a key of ``names``) into a flag error that names its flag instead."""
    try:
        yield
    except ValueError as exc:
        text = re.sub(r"\b(%s)\b" % "|".join(names), lambda m: names[m[1]], str(exc))
        if text == str(exc):
            raise
        parser.error(text)


def _inputs(args, parser, n=2, needs=None) -> list:
    """The -i paths, which must number ``n``; a flag error otherwise."""
    if len(args.input) != n:
        parser.error((needs or _NEEDS[n]).format(args.command))
    return args.input


def _manifest(args, **extra) -> dict:
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command", "input") and v is not None}
    return {"command": args.command, "inputs": args.input, "flags": flags, "version": __version__, **extra}


def _write_table(path, header, rows, manifest, fmt="csv"):
    """Rows as JSON, or as CSV after a manifest comment line; to stdout when ``path`` is None."""
    if fmt == "json":
        return _write_json(path, {"rows": [dict(zip(header, r)) for r in rows]}, manifest)
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="", encoding="utf-8") as out:
        out.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path, payload, manifest):
    payload = {"manifest": manifest, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _parse_mix(text: str, parser) -> dict:
    mix = {}
    try:
        for part in text.split(","):
            name, _, val = part.partition("=")
            mix[name.strip()] = float(val)
    except ValueError:
        parser.error(f"cannot parse mix {text!r}; expected name=prob,name=prob,...")
    return mix


def _window_s(text: str, parser) -> float:
    try:
        window = float(text)
    except ValueError:
        window = math.nan
    # a finite window is counted in int64 milliseconds
    if not (window > 0 and (window == math.inf or window * 1000.0 < 2**63)):
        parser.error(f"--window-s must be a positive number of seconds under 2**63 ms, or inf, not {text!r}")
    return window


# ---------------------------------------------------------------- commands
#
# Each command checks its flags and reads its inputs, calls the library
# through this module's names, then writes its result.


def cmd_simulate(args, parser):
    seed, mix = _resolve_seed(args, parser), _parse_mix(args.type_mix, parser)
    # the library checks the values; its errors are reworded to name the flags
    with _flags_of(parser, {"population size": "--users", "Zipf exponent": "--user-zipf"}):
        users = ZipfPopulation(args.users, args.user_zipf)
    with _flags_of(parser, {"population size": "--hashtags", "Zipf exponent": "--hashtag-zipf"}):
        hashtags = ZipfPopulation(args.hashtags, args.hashtag_zipf)
    with _flags_of(parser, _CONFIG_FLAGS):
        config = GeneratorConfig(duration_s=args.duration, base_rate=args.rate,
                                 diurnal_amplitude=args.amplitude, user_population=users,
                                 hashtag_population=hashtags, cascade_fraction=args.cascade_fraction,
                                 type_mix=mix, seed=seed)
    write_bundle(args.output, generate_stream(config))
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
        seed = _resolve_seed(args, parser)
    bundle = read_bundle(_inputs(args, parser, 1)[0])
    out = (rate_limited_bundle(bundle, args.threshold, args.anchor_ms) if args.mode == "ratelimit"
           else bernoulli_bundle(bundle, args.rate, seed))
    write_bundle(args.output, out)
    return 0


def cmd_merge(args, parser):
    if not args.input:
        parser.error("merge needs at least one -i input")
    bundles = [read_bundle(p) for p in args.input]
    write_bundle(args.output, merge_streams(bundles))
    return 0


def cmd_validate_ratelimit(args, parser):
    complete, sample = map(read_bundle, _inputs(args, parser))
    segments = segment_stream(complete, sample)
    payload = {"segments": len(segments)}
    if segments:
        report = validate(segments)
        payload.update(median_ape=report.median_ape, mean_ape=report.mean_ape,
                       mean_rate=empirical_mean_rate(complete, sample))
    _write_json(args.output, payload, _manifest(args))
    return 0


def cmd_breakdown(args, parser):
    # both streams are held whole, as columns when their sidecars serve them
    complete, sample = map(read_bundle, _inputs(args, parser))
    breakdown = sampling_rate_breakdown(complete, sample, args.key, args.tz_offset)
    rows = [(r.bucket, r.complete_count, r.sample_count, round(r.rate, 6)) for r in breakdown]
    _write_table(args.output, ("bucket", "complete_count", "sample_count", "rate"), rows, _manifest(args),
                 args.format)
    return 0


def cmd_entity_stats(args, parser):
    fv = frequency_vector_of(read_bundle(_inputs(args, parser, 1)[0]), args.key)
    rows = [(k, fv.counts[k]) for k in sorted(fv.counts)]
    _write_table(args.output, ("k", "F_sample"), rows, _manifest(args), args.format)
    return 0


def cmd_estimate_missing(args, parser):
    if not 1 <= args.k_max <= K_MAX_CEILING:
        parser.error(f"--k-max must be in [1, {K_MAX_CEILING}]")
    if args.rate is not None and not 0.0 < args.rate <= 1.0:
        parser.error(f"--rate {args.rate} outside (0,1]")
    path = _inputs(args, parser, 1)[0]
    sample = read_bundle(path)
    fv = frequency_vector_of(sample, args.key)
    if args.rate is None and not len(sample.msg_ts):
        parser.error("the sample has no rate limit messages to derive the rate from; pass --rate")
    if args.rate is None and not len(sample) and not sample.msg_missed.any():
        raise ValueError(f"{path} holds rate limit messages but no event, and their counters stay 0: "
                         "it has no sampling rate")
    rate = mean_rate_from_messages(sample) if args.rate is None else args.rate
    if not rate:
        raise ValueError(f"{path} holds rate limit messages but no event: its sampling rate is 0")
    result = estimate_complete_frequency_vector(fv, rate, k_max=args.k_max)
    missing = estimate_missing_entities(result.f_hat, rate)
    manifest = _manifest(args, rate=rate)
    if args.output:
        rows = [(k, fv[k], f"{result.f_hat[k]:.4f}")
                for k in range(1, args.k_max + 1) if fv[k] or result.f_hat[k]]
        _write_table(args.output, ("k", "F_sample", "F_hat"), rows, manifest)
    _write_json(None, {
        "estimated_missing": missing,
        "observed_entities": fv.total_entities(),
        "estimated_total_entities": fv.total_entities() + missing,
        "residual": result.residual,
        "truncation_mass": result.truncation_mass,
    }, manifest)
    return 0


def cmd_rank(args, parser):
    if args.k < 2:
        parser.error("--k must be >= 2")
    complete, sample = map(read_bundle, _inputs(args, parser))
    profile = temporal_rates_from_messages(sample, args.granularity)
    report = top_k_rank_table(complete, sample, profile, args.k)
    manifest = _manifest(args)
    _write_table(
        args.output,
        ("entity", "observed_rank", "true_rank", "estimated_rank", "n_s", "n_c", "estimated_volume"),
        [(r.entity, r.observed_rank, r.true_rank, r.estimated_rank, r.n_s, r.n_c, f"{r.estimated_volume:.4f}")
         for r in report.rows],
        manifest,
    )
    _write_json(None, {"kendall_observed": report.kendall_observed,
                       "kendall_estimated": report.kendall_estimated}, manifest)
    return 0


def _write_edges(args, weights):
    _write_table(args.output, ("src", "dst", "weight"), [(a, b, w) for (a, b), w in sorted(weights.items())],
                 _manifest(args))


def cmd_graph_bipartite(args, parser):
    _write_edges(args, build_bipartite(read_bundle(_inputs(args, parser, 1)[0])).weights)
    return 0


def cmd_graph_cocluster(args, parser):
    # k-means seeds a legacy RandomState, which takes 32-bit seeds only
    seed, (src,) = _resolve_seed(args, parser, limit=2**32), _inputs(args, parser, 1)
    if args.k < 1:
        parser.error("--k must be >= 1")
    if src.endswith(".csv"):
        g = BipartiteGraph.from_weights(read_edge_csv(src))
    else:
        g = build_bipartite(read_bundle(src))
    with _flags_of(parser, {"k": "--k"}):
        labels = spectral_cocluster(g, args.k, seed)
    _write_table(args.output, ("node", "cluster"), sorted(labels.items()), _manifest(args, seed=seed))
    return 0


def cmd_graph_retweet(args, parser):
    g = build_retweet_network(read_bundle(_inputs(args, parser, 1)[0]), include_quotes=not args.no_quotes)
    _write_edges(args, g.edges)
    return 0


def cmd_graph_bowtie(args, parser):
    src, = _inputs(args, parser, 1)
    if src.endswith(".csv"):
        g = Digraph.from_edges(read_edge_csv(src, int))
    else:
        g = build_retweet_network(read_bundle(src), include_quotes=not args.no_quotes)
    components = bowtie_decompose(g).components
    _write_table(args.output, ("node", "component"), sorted(components.items()), _manifest(args))
    return 0


def cmd_graph_flow(args, parser):
    paths = _inputs(args, parser, needs="graph flow needs two -i inputs: complete then sample assignment")
    flow_of, cluster = (bowtie_flow, bowtie_component) if args.kind == "bowtie" else (cluster_flow, int)
    flow = flow_of(*(read_assignment(p, cluster) for p in paths))
    rows = [(rl, cl, int(flow.counts[i, j]), f"{flow.ratios[i, j]:.6f}")
            for i, rl in enumerate(flow.row_labels) for j, cl in enumerate(flow.col_labels)]
    _write_table(args.output, ("complete", "sample", "count", "ratio"), rows, _manifest(args))
    return 0


def cmd_cascade(args, parser):
    windows = [_window_s(w, parser) for w in args.window_s] or DEFAULT_REACH_WINDOWS_S
    named = {}
    for w in windows:
        name = reach_table_name(w)
        if named.setdefault(name, w) != w:
            parser.error(f"--window-s {named[name]:g} and {w:g} would both write table {name}")
    if args.retweet_threshold < 0:
        parser.error("--retweet-threshold must be >= 0")
    # each stream is read as columns, and its cascades are columns too
    complete, sample = (reconstruct_cascades(read_bundle(p), include_quotes=args.include_quotes)
                        for p in _inputs(args, parser))
    rows, summary = compare_cascades(complete, sample, args.retweet_threshold, windows)
    manifest, s, t = _manifest(args), summary, args.retweet_threshold
    _write_json(args.output, {
        "cascades": {"complete": s.complete_cascades, "sample": s.sample_cascades,
                     "fully_observed": s.fully_observed, "fully_observed_fraction": s.fully_observed_fraction,
                     f"complete_ge_{t}_retweets": s.complete_ge_threshold,
                     f"sample_ge_{t}_retweets": s.sample_ge_threshold},
        "mean_retweets": {"complete": s.mean_retweets_complete, "sample": s.mean_retweets_sample},
        "median_interarrival_s": {"complete": s.median_interarrival_complete_s,
                                  "sample": s.median_interarrival_sample_s},
    }, manifest)
    if args.output:
        stem = Path(args.output).with_suffix("")
        # the gaps of the rooted cascades, whose medians the summary reports
        rooted = {"complete": complete.rooted(), "sample": sample.rooted()}
        interarrival = {name: inter_arrival_distribution(c) for name, c in rooted.items() if len(c)}
        for name, (header, table) in ccdf_tables(interarrival, rows, windows).items():
            _write_table(f"{stem}_{name}.csv", header, table, manifest)
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
    config = GeneratorConfig()
    p.add_argument("--users", type=int, default=config.user_population.size)
    p.add_argument("--user-zipf", type=float, default=config.user_population.exponent)
    p.add_argument("--hashtags", type=int, default=config.hashtag_population.size)
    p.add_argument("--hashtag-zipf", type=float, default=config.hashtag_population.exponent)
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
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    add_io(p)
    p.set_defaults(func=cmd_estimate_missing)

    p = sub.add_parser("rank", help="top-k rank distortion and correction")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--granularity", choices=GRANULARITIES, default="hour")
    add_io(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("graph", help="graph construction and decomposition")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    commands = {"bipartite": cmd_graph_bipartite, "cocluster": cmd_graph_cocluster,
                "retweet": cmd_graph_retweet, "bowtie": cmd_graph_bowtie, "flow": cmd_graph_flow}
    graph = {name: gsub.add_parser(name) for name in commands}
    for name, gp in graph.items():
        add_io(gp)
        gp.set_defaults(func=commands[name])
    graph["cocluster"].add_argument("--k", type=int, default=6)
    graph["cocluster"].add_argument("--seed", type=int, default=None)
    for name in ("retweet", "bowtie"):
        graph[name].add_argument("--no-quotes", action="store_true", help="exclude quotes from edges")
    graph["flow"].add_argument("--kind", choices=("cluster", "bowtie"), default="cluster")

    p = sub.add_parser("cascade", help="cascade completeness and diffusion features")
    p.add_argument("--window-s", action="append", default=[],
                   help="reach window in seconds or 'inf' (repeatable)")
    p.add_argument("--retweet-threshold", type=int, default=DEFAULT_RETWEET_THRESHOLD)
    p.add_argument("--include-quotes", action="store_true")
    add_io(p)
    p.set_defaults(func=cmd_cascade)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
