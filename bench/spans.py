"""Spans recorded around the benchmark's calls into each streamfid layer.

A span is a dict: name, start, end (``time.perf_counter`` seconds),
parent (index of the enclosing span or None) and the counts in and out.
A span around a generator also carries ``busy``, the seconds spent inside
it, which the per-layer metrics use in place of end - start.  Spans stay in
memory; ``dump`` writes them to one JSON file at the end of a run.  Spans
recorded in a child process (``cli_trace.py``) are adopted under the span
that ran it; ``perf_counter`` reads one clock across processes on Linux.
``NullTracer`` makes the same calls cost next to nothing, so the untraced
runs that give the end-to-end numbers run the same code.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

# per-layer metric -> span names whose busy seconds it sums
TIME_METRICS = {
    "simulate.generate_stream_s": ["simulate.generate_stream"],
    "simulate.rate_limited_bundle_s": ["simulate.rate_limited_bundle"],
    "simulate.bernoulli_bundle_s": ["simulate.bernoulli_bundle"],
    "io.write_bundle_s": ["io.write_bundle"],
    "io.read_bundle_s": ["io.read_bundle", "io.iter_records"],
    "model.merge_streams_s": ["model.merge_streams"],
    "ratelimit.segment_stream_s": ["ratelimit.segment_stream"],
    "breakdown.sampling_rate_breakdown_s": ["breakdown.sampling_rate_breakdown"],
    "entity.frequency_vector_of_s": ["entity.frequency_vector_of"],
    "entity.estimate_complete_frequency_vector_s": ["entity.estimate_complete_frequency_vector"],
    "ranking.temporal_rates_from_messages_s": ["ranking.temporal_rates_from_messages"],
    "ranking.top_k_rank_table_s": ["ranking.top_k_rank_table"],
    "graphs.build_bipartite_s": ["graphs.build_bipartite"],
    "graphs.spectral_cocluster_s": ["graphs.spectral_cocluster"],
    "graphs.build_retweet_network_s": ["graphs.build_retweet_network"],
    "graphs.bowtie_decompose_s": ["graphs.bowtie_decompose"],
    "graphs.flow_s": ["graphs.cluster_flow", "graphs.bowtie_flow"],
    "cascades.reconstruct_cascades_s": ["cascades.reconstruct_cascades"],
    "cascades.compare_cascades_s": ["cascades.compare_cascades"],
    "cascades.inter_arrival_distribution_s": ["cascades.inter_arrival_distribution"],
    "cli.startup_s": ["cli.startup"],
    "cli.sample_s": ["cli.sample"],
    "cli.validate-ratelimit_s": ["cli.validate-ratelimit"],
    "cli.breakdown_s": ["cli.breakdown"],
    "cli.estimate-missing_s": ["cli.estimate-missing"],
    "cli.rank_s": ["cli.rank"],
    "cli.graph-bipartite_s": ["cli.graph-bipartite"],
    "cli.graph-cocluster_s": ["cli.graph-cocluster"],
    "cli.graph-bowtie_s": ["cli.graph-bowtie"],
    "cli.graph-flow_s": ["cli.graph-flow"],
    "cli.cascade_s": ["cli.cascade"],
}

# per-layer count metric -> (span names, "n_in" or "n_out") it sums
COUNT_METRICS = {
    "simulate.events": (["simulate.generate_stream"], "n_out"),
    "io.records_written": (["io.write_bundle"], "n_in"),
    "io.records_read": (["io.read_bundle", "io.iter_records"], "n_out"),
    "ratelimit.segments": (["ratelimit.segment_stream"], "n_out"),
    "cascades.cascades": (["cascades.reconstruct_cascades"], "n_out"),
}


_DONE = object()


class Tracer:
    records = True

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, n_in=None):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, "n_in": n_in, "n_out": None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, n_in=None, n_out=None, **kwargs):
        """``fn(*args, **kwargs)`` inside a span; ``n_out(result)`` counts its output."""
        with self.span(name, n_in) as rec:
            result = fn(*args, **kwargs)
        if n_out is not None:
            rec["n_out"] = n_out(result)
        return result

    def busy(self, name: str, items):
        """Yield from ``items`` with a span whose ``busy`` is the time spent
        in the iterator itself, not in the code that consumes it.  The span
        never encloses other spans: it is not pushed as a parent."""
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, "n_in": None, "n_out": 0,
               "busy": 0.0}
        self.spans.append(rec)
        it = iter(items)
        while True:
            t0 = time.perf_counter()
            item = next(it, _DONE)
            rec["end"] = time.perf_counter()
            rec["busy"] += rec["end"] - t0
            if item is _DONE:
                return
            rec["n_out"] += 1
            yield item

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded elsewhere under the innermost open span."""
        offset, parent = len(self.spans), self._open[-1] if self._open else None
        for s in spans:
            s = dict(s, parent=parent if s["parent"] is None else s["parent"] + offset)
            self.spans.append(s)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class NullTracer:
    """Records nothing but the number of calls made through it."""

    records = False

    def __init__(self):
        self.calls = 0

    @contextmanager
    def span(self, name: str, n_in=None):
        yield {}

    def call(self, name: str, fn, *args, n_in=None, n_out=None, **kwargs):
        self.calls += 1
        return fn(*args, **kwargs)

    def adopt(self, spans: list[dict]) -> None:
        pass


def layer_metrics(spans: list[dict], round_name: str) -> dict:
    """Per-layer metrics as medians over the rounds (spans named ``round_name``).

    A metric whose calls a workload does not make reads 0.
    """
    rounds = [i for i, s in enumerate(spans) if s["name"] == round_name]
    per_round = []
    for r in rounds:
        inside = [s for s in spans if _within(spans, s, r)]
        row = {m: sum(s.get("busy", s["end"] - s["start"]) for s in inside if s["name"] in names)
               for m, names in TIME_METRICS.items()}
        for m, (names, side) in COUNT_METRICS.items():
            row[m] = sum(s[side] or 0 for s in inside if s["name"] in names)
        per_round.append(row)
    return {m: statistics.median(row[m] for row in per_round) for m in per_round[0]}


def _within(spans: list[dict], s: dict, root: int) -> bool:
    p = s["parent"]
    while p is not None:
        if p == root:
            return True
        p = spans[p]["parent"]
    return False


def run_rounds(seconds: float, trace: bool, one_round, between=None) -> dict:
    """Whole rounds until the next one would end after ``seconds``.

    ``one_round(traced)`` runs one round and returns its job seconds;
    ``between()``, if given, runs after every round but the last.  With
    ``trace`` on, rounds alternate untraced and traced, at least one of each.
    Returns the job seconds of the rounds, keyed by traced.
    """
    times = {False: [], True: []}
    start = time.monotonic()
    while True:
        done = times[False] + times[True]
        if times[False] and len(times[True]) >= trace and \
                time.monotonic() - start + statistics.median(done) > seconds:
            return times
        if done and between:
            between()
        traced = trace and len(times[True]) < len(times[False])
        times[traced].append(one_round(traced))


def trace_report(tracer: Tracer, times: dict, round_name: str) -> dict:
    """Per-layer metrics, plus the median job seconds of traced and untraced rounds."""
    layers = layer_metrics(tracer.spans, round_name)
    layers["trace.job_traced_s"] = statistics.median(times[True])
    layers["trace.job_untraced_s"] = statistics.median(times[False])
    return layers
