"""Bundles held as columns: a sidecar hit builds no ``Event`` rows.

``read_bundle`` returns a bundle held as its sidecar's columns, and the
counting layers read those columns.  Here the one columns-to-rows function
raises, so any layer or command that still builds rows fails; each must
give what it gives on rows, a bundle's or a plain iterable's.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamfid as sf
from streamfid import model
from streamfid.cli import main
from streamfid.io import iter_records, read_bundle

from conftest import ev


def no_rows():
    return mock.patch.object(model, "_rows", side_effect=AssertionError("built Event rows"))


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    d = tmp_path_factory.mktemp("streams")
    complete, sample = d / "complete.jsonl", d / "sample.jsonl"
    assert main(["simulate", "--duration", "120", "--rate", "40", "--seed", "8", "-o", str(complete)]) == 0
    assert main(["sample", "--mode", "ratelimit", "--threshold", "4", "-i", str(complete),
                 "-o", str(sample)]) == 0
    for p in d.glob("*.streamfid.npz"):
        p.unlink()
    return d


COMMANDS = {
    "breakdown": ["breakdown", "-i", "complete.jsonl", "-i", "sample.jsonl", "--key", "millisecond"],
    "breakdown-lang-json": ["breakdown", "-i", "complete.jsonl", "-i", "sample.jsonl", "--key", "lang",
                            "--format", "json"],
    "entity-stats": ["entity-stats", "-i", "sample.jsonl", "--key", "hashtag"],
    "validate-ratelimit": ["validate-ratelimit", "-i", "complete.jsonl", "-i", "sample.jsonl"],
    "estimate-missing": ["estimate-missing", "-i", "sample.jsonl", "--key", "user", "--k-max", "400",
                         "-o", "missing.csv"],
    "rank": ["rank", "-i", "complete.jsonl", "-i", "sample.jsonl", "--k", "20", "--granularity",
             "millisecond", "-o", "rank.csv"],
    "graph-bipartite": ["graph", "bipartite", "-i", "complete.jsonl", "-o", "edges.csv"],
    "graph-cocluster": ["graph", "cocluster", "-i", "sample.jsonl", "--k", "4", "--seed", "1",
                        "-o", "clusters.csv"],
    "graph-bowtie": ["graph", "bowtie", "-i", "complete.jsonl", "-o", "bowtie.csv"],
}


def outputs(argv) -> dict:
    """Exit code, standard output and the files written by one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    written = {b: Path(b).read_bytes() for a, b in zip(argv, argv[1:]) if a == "-o"}
    return {"code": code, "stdout": out.getvalue(), "files": written}


@pytest.mark.parametrize("name", COMMANDS)
def test_command_on_columns_builds_no_rows_and_gives_the_rows_output(streams, tmp_path, monkeypatch, name):
    for p in streams.glob("*.jsonl"):
        shutil.copyfile(p, tmp_path / p.name)
    monkeypatch.chdir(tmp_path)
    argv = COMMANDS[name]
    parsed = outputs(argv)   # parses: the bundles hold rows, and the sidecars are written
    assert parsed["code"] == 0
    assert list(tmp_path.glob("*.streamfid.npz"))
    with no_rows():
        assert outputs(argv) == parsed


def held(streams):
    """(complete, sample) as read through their sidecars, so held as columns."""
    for name in ("complete", "sample"):
        read_bundle(streams / f"{name}.jsonl")   # writes the sidecar, if missing
    with no_rows():
        return read_bundle(streams / "complete.jsonl"), read_bundle(streams / "sample.jsonl")


PROFILE = sf.TemporalRateProfile("minute", {m: 0.1 + m / 100 for m in range(0, 60, 2)}, default_rate=0.9)

# layers that take bundles or any iterable of events
EVENT_LAYERS = {
    "breakdown-hour-tz": lambda c, s: sf.sampling_rate_breakdown(c, s, "hour", -3),
    "breakdown-millisecond": lambda c, s: sf.sampling_rate_breakdown(c, s, "millisecond"),
    "breakdown-lang": lambda c, s: sf.sampling_rate_breakdown(c, s, "lang"),
    "breakdown-type": lambda c, s: sf.sampling_rate_breakdown(c, s, "type"),
    "occurrences-user": lambda c, s: sf.entity.entity_occurrences(s, "user"),
    "occurrences-hashtag": lambda c, s: sf.entity.entity_occurrences(c, "hashtag"),
    "frequencies-url": lambda c, s: sf.frequency_vector_of(c, "url"),
    "bipartite": lambda c, s: sf.build_bipartite(s),
    "retweet": lambda c, s: sf.build_retweet_network(c),
    "retweet-no-quotes": lambda c, s: sf.build_retweet_network(s, include_quotes=False),
    "corrected-volume": lambda c, s: sf.corrected_volume(s, PROFILE),
}

# layers that take bundles only
BUNDLE_LAYERS = {
    "segment-stream": lambda c, s: sf.segment_stream(c, s),
    "temporal-rates": lambda c, s: sf.temporal_rates_from_messages(s, "second"),
    "top-k": lambda c, s: sf.top_k_rank_table(c, s, sf.temporal_rates_from_messages(s, "millisecond"), 30),
    "counts-and-mean-rates": lambda c, s: (len(c), len(s), sf.empirical_mean_rate(c, s),
                                           sf.mean_rate_from_messages(s)),
}


@pytest.mark.parametrize("layer", {**EVENT_LAYERS, **BUNDLE_LAYERS})
def test_layer_on_columns_builds_no_rows_and_equals_it_on_rows(streams, layer):
    run = {**EVENT_LAYERS, **BUNDLE_LAYERS}[layer]
    complete, sample = held(streams)
    with no_rows():
        on_columns = run(complete, sample)
    rows = [sf.StreamBundle(b.events, b.messages) for b in (complete, sample)]
    assert run(*rows) == on_columns
    if layer in EVENT_LAYERS:
        assert run(*(iter(b.events) for b in rows)) == on_columns
        assert run(*(list(b.events) for b in rows)) == on_columns


def test_reading_events_drops_the_columns(streams):
    complete, _ = held(streams)
    assert complete._table is not None
    events = complete.events
    assert complete._table is None and complete.events is events
    assert complete == read_bundle(streams / "complete.jsonl")


def parsed(path):
    """The events and the messages of a JSONL file, parsed line by line."""
    records = list(iter_records(path))
    return (tuple(r for r in records if isinstance(r, sf.Event)),
            tuple(r for r in records if isinstance(r, sf.RateLimitMessage)))


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_rows_built_in_blocks_equal_the_parsed_rows(streams, monkeypatch, block):
    monkeypatch.setattr(model, "_ROW_BLOCK", block)
    for name, bundle in zip(("complete", "sample"), held(streams)):
        assert (bundle.events, bundle.messages) == parsed(streams / f"{name}.jsonl")


# the row loops the column layers replaced, kept as references
def occurrences_by_loop(events, key):
    counts = Counter()
    for e in events:
        counts.update([e.user_id] if key == "user" else set(e.hashtags if key == "hashtag" else e.urls))
    return counts


def bipartite_by_loop(events):
    return Counter((e.user_id, h) for e in events for h in set(e.hashtags))


def retweets_by_loop(events, include_quotes):
    author_of = {e.id: e.user_id for e in events if e.event_type == "root"}
    kinds = ("retweet", "quote") if include_quotes else ("retweet",)
    shared = [(e.user_id, author_of.get(e.root_id)) for e in events if e.event_type in kinds]
    return Counter(p for p in shared if p[1] is not None), sum(p[1] is None for p in shared)


def volume_by_loop(events, profile):
    total = 0.0
    for e in events:
        total += 1.0 / max(profile.rate_at(e.timestamp_ms), sf.ranking.ZERO_RATE_FLOOR)
    return total


@st.composite
def streams_of_rows(draw):
    tags = st.lists(st.sampled_from(("a", "b", "c", "\ud800", "")), max_size=4)
    stamps = sorted(draw(st.lists(st.integers(0, 4 * 3_600_000), max_size=40)))
    events = []
    for i, t in enumerate(stamps):
        kind = draw(st.sampled_from(sf.model.EVENT_TYPES))
        events.append(ev(i * 3 + draw(st.integers(0, 2)), t, user=draw(st.integers(-2, 6)), kind=kind,
                         root_id=None if kind == "root" else draw(st.integers(0, 3 * len(stamps) + 3)),
                         hashtags=draw(tags), urls=draw(tags)[:2],
                         lang=draw(st.sampled_from(("en", "ja", "")))))
    return events


@settings(derandomize=True, deadline=None, max_examples=150)
@given(streams_of_rows(), st.sampled_from(sf.model.GRANULARITIES), st.floats(0, 1), st.booleans())
def test_column_layers_equal_the_row_loops(events, granularity, rate, include_quotes):
    held = sf.StreamBundle.from_columns({
        **dict(zip(model.EventTable._fields, model.event_columns(events, *model.EventTable._fields))),
        "msg_ts": np.zeros(0, np.int64), "msg_missed": np.zeros(0, np.int64)})
    profile = sf.TemporalRateProfile(granularity, {0: rate, 1: rate / 3, 7: 0.0}, default_rate=0.8)
    for source in (events, held):
        for key in ("user", "hashtag", "url"):
            assert sf.entity.entity_occurrences(source, key) == occurrences_by_loop(events, key)
        graph = sf.build_bipartite(source)
        assert graph.weights == bipartite_by_loop(events)
        assert graph.users == tuple(sorted({u for u, _ in graph.weights}))
        net = sf.build_retweet_network(source, include_quotes)
        assert (net.edges, net.skipped_unresolvable) == retweets_by_loop(events, include_quotes)
        assert sf.corrected_volume(source, profile) == volume_by_loop(events, profile)
        for key in ("hour", "second", "millisecond", "lang", "type"):
            rows = sf.sampling_rate_breakdown(source, events[::2], key, tz_offset_hours=-5)
            truth = Counter(sf.model.bucket_of(e.timestamp_ms, key, -5, band_ms=1) if key not in ("lang", "type")
                            else getattr(e, "lang" if key == "lang" else "event_type") for e in events)
            assert {r.bucket: r.complete_count for r in rows} == truth
