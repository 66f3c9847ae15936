"""Run one streamfid CLI command with a span around each call into the library.

    python3 bench/cli_trace.py SPANS.json <streamfid arguments>

Traced rounds of ``cli_walkthrough`` start this in place of
``python -m streamfid.cli``.  It replaces the library functions that
``streamfid.cli`` imported with wrappers that record a span per call (for
the streaming reader ``iter_records``, the time spent inside it), runs
``streamfid.cli.main`` and writes the spans to SPANS.json, also when the
command fails.  Its exit code is the command's.
"""

from __future__ import annotations

import sys

import spans


def _records(bundle) -> int:
    return len(bundle.events) + len(bundle.messages)


def _first_len(args) -> int:
    return len(args[0])


# name in streamfid.cli -> (span name, n_in(args) or None, n_out(result) or None)
WRAPPED = {
    "read_bundle": ("io.read_bundle", None, _records),
    "write_bundle": ("io.write_bundle", lambda a: _records(a[1]), None),
    "rate_limited_bundle": ("simulate.rate_limited_bundle", _first_len, len),
    "merge_streams": ("model.merge_streams", None, len),
    "segment_stream": ("ratelimit.segment_stream", None, len),
    "validate": ("ratelimit.validate", None, None),
    "estimate_complete_frequency_vector": ("entity.estimate_complete_frequency_vector", None, None),
    "estimate_missing_entities": ("entity.estimate_missing_entities", None, None),
    "temporal_rates_from_messages": ("ranking.temporal_rates_from_messages", None, None),
    "top_k_rank_table": ("ranking.top_k_rank_table", None, None),
    "build_bipartite": ("graphs.build_bipartite", None, lambda g: len(g.weights)),
    "spectral_cocluster": ("graphs.spectral_cocluster", lambda a: a[0].node_count, None),
    "build_retweet_network": ("graphs.build_retweet_network", None, lambda g: len(g.edges)),
    "bowtie_decompose": ("graphs.bowtie_decompose", None, len),
    "cluster_flow": ("graphs.cluster_flow", None, None),
    "bowtie_flow": ("graphs.bowtie_flow", None, None),
    "reconstruct_cascades": ("cascades.reconstruct_cascades", _first_len, len),
    "compare_cascades": ("cascades.compare_cascades", None, None),
    "inter_arrival_distribution": ("cascades.inter_arrival_distribution", None, None),
}


def _wrap(tracer: spans.Tracer, name: str, fn, n_in, n_out):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, n_in=None if n_in is None else n_in(args),
                           n_out=n_out, **kwargs)
    return traced


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import streamfid.cli as cli

    tracer = spans.Tracer()
    for attr, (name, n_in, n_out) in WRAPPED.items():
        setattr(cli, attr, _wrap(tracer, name, getattr(cli, attr), n_in, n_out))
    iter_records = cli.iter_records
    cli.iter_records = lambda *a, **kw: tracer.busy("io.iter_records", iter_records(*a, **kw))
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
