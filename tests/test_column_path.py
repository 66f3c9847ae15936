"""Bundles held as columns: a sidecar hit builds no ``Event`` rows.

``read_bundle`` returns a bundle held as columns, and the counting layers,
the samplers, the writer and the cascade measures read those columns.
Here the one columns-to-rows function raises, so any layer or command that
still builds rows fails; each must give what it gives on a bundle built
from rows.
"""

from __future__ import annotations

import contextlib
import io
import json
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
from streamfid.io import iter_records, read_bundle, write_bundle

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
    assert main(["sample", "--mode", "bernoulli", "--rate", "0.5", "--seed", "3", "-i", str(complete),
                 "-o", str(d / "bernoulli.jsonl")]) == 0
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
    "sample-ratelimit": ["sample", "--mode", "ratelimit", "--threshold", "3", "--anchor-ms", "250",
                         "-i", "complete.jsonl", "-o", "sampled.jsonl"],
    "sample-bernoulli": ["sample", "--mode", "bernoulli", "--rate", "0.4", "--seed", "7",
                         "-i", "complete.jsonl", "-o", "sampled.jsonl"],
    # the two cascade commands of tests/test_golden_cli.py
    "cascade": ["cascade", "-i", "complete.jsonl", "-i", "sample.jsonl", "-o", "cascade.json"],
    "cascade-quotes-windows": ["cascade", "-i", "complete.jsonl", "-i", "bernoulli.jsonl", "--include-quotes",
                               "--window-s", "60", "--window-s", "inf", "--retweet-threshold", "5",
                               "-o", "cascade_q.json"],
    # two overlapping parts of one stream, one with rate limit messages
    "merge": ["merge", "-i", "sample.jsonl", "-i", "bernoulli.jsonl", "-o", "merged.jsonl"],
}

INPUTS = ("complete.jsonl", "sample.jsonl", "bernoulli.jsonl")


def outputs(argv) -> dict:
    """Exit code, standard output and the files written by one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    written = {p.name: p.read_bytes() for p in sorted(Path().iterdir())
               if p.name not in INPUTS and not p.name.endswith(".streamfid.npz")}
    return {"code": code, "stdout": out.getvalue(), "files": written}


@pytest.mark.parametrize("name", COMMANDS)
def test_command_on_columns_builds_no_rows_and_gives_the_rows_output(streams, tmp_path, monkeypatch, name):
    for p in streams.glob("*.jsonl"):
        shutil.copyfile(p, tmp_path / p.name)
    monkeypatch.chdir(tmp_path)
    argv = COMMANDS[name]
    parsed = outputs(argv)   # parses, and writes the sidecars
    assert parsed["code"] == 0 and (parsed["files"] or parsed["stdout"])
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

# layers that take a bundle or its events view
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
    "corrected-volume": lambda c, s: sf.ranking._corrected_volumes(np.zeros(len(s), np.intp), s.table.ts,
                                                                    PROFILE).tolist(),
    "cascade-columns": lambda c, s: cascade_columns(sf.reconstruct_cascades(c, include_quotes=True)),
    "compare-cascades": lambda c, s: sf.compare_cascades(sf.reconstruct_cascades(c), sf.reconstruct_cascades(s)),
    "compare-cascades-quotes-windows": lambda c, s: sf.compare_cascades(
        sf.reconstruct_cascades(c, True), sf.reconstruct_cascades(s, True), 5, (60.0, 1e9, float("inf"))),
    "inter-arrival": lambda c, s: distribution(sf.inter_arrival_distribution(sf.reconstruct_cascades(c))),
    "inter-arrival-no-root": lambda c, s: distribution(
        sf.inter_arrival_distribution(sf.reconstruct_cascades(s), include_root=False)),
    "ccdf-tables": lambda c, s: ccdf_tables(sf.reconstruct_cascades(c), sf.reconstruct_cascades(s)),
    "cascade-items": lambda c, s: [(x.root_id, x.is_rootless, x.size) for x in sf.reconstruct_cascades(s, True)],
    "inter-arrival-of-items": lambda c, s: distribution(sf.inter_arrival_distribution(
        [x for x in sf.reconstruct_cascades(s) if not x.is_rootless])),
}


def cascade_columns(cascades):
    return [col.tolist() for col in (cascades.ids, cascades.root_ts, cascades.bounds, cascades.ts,
                                     cascades.followers)]


def distribution(d):
    return d.deltas_s.tolist(), d.grid_s.tolist(), d.ccdf.tolist(), d.median_s


def ccdf_tables(complete, sample):
    rows, _ = sf.compare_cascades(complete, sample)
    return sf.cascades.ccdf_tables(complete, sample, rows, sf.cascades.DEFAULT_REACH_WINDOWS_S)

# layers that take bundles only
BUNDLE_LAYERS = {
    "segment-stream": lambda c, s: sf.segment_stream(c, s),
    "temporal-rates": lambda c, s: sf.temporal_rates_from_messages(s, "second"),
    "top-k": lambda c, s: sf.top_k_rank_table(c, s, sf.temporal_rates_from_messages(s, "millisecond"), 30),
    "counts-and-mean-rates": lambda c, s: (len(c), len(s), sf.empirical_mean_rate(c, s),
                                           sf.mean_rate_from_messages(s)),
    "rate-limited": lambda c, s: sf.rate_limited_bundle(c, 3, 250),
    "rate-limited-threshold-1": lambda c, s: sf.rate_limited_bundle(c, 1, 0),
    "bernoulli": lambda c, s: sf.bernoulli_bundle(c, 0.4, 7),
    "samples-of-a-sample": lambda c, s: (sf.rate_limited_bundle(s, 2, 999), sf.bernoulli_bundle(s, 0.5)),
    "merge": lambda c, s: sf.merge_streams([s, c, sf.bernoulli_bundle(c, 0.5, 2)]),
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
        with no_rows():
            assert run(complete.events, sample.events) == on_columns


def test_reading_events_keeps_the_columns(streams):
    complete, _ = held(streams)
    table = complete.table
    assert len(complete.events) == len(table.id)
    assert tuple(complete.events) and complete.table is table
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
@given(streams_of_rows(), st.sampled_from([1, 3, 4096]), st.data())
def test_events_view_is_a_sequence_of_its_rows(events, block, data):
    rows = tuple(events)
    other = rows[:-1] + (rows[-1]._replace(user_id=rows[-1].user_id + 1),) if rows else (ev(0, 0),)
    with mock.patch.object(model, "_ROW_BLOCK", block):
        view = sf.StreamBundle(events).events
        assert view == rows and view == events and rows == view and events == view
        assert view != other and view != list(rows[1:] if rows else other) and view != set(rows)
        assert view != rows + other and view != view.__class__(sf.StreamBundle(other).table)
        assert len(view) == len(rows) and tuple(view) == rows and list(iter(view)) == events
        assert view == sf.StreamBundle(view).events and hash(view) == hash(rows)
        assert [view[i] for i in range(-len(rows), len(rows))] == [rows[i] for i in range(-len(rows), len(rows))]
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                view[i]
        for _ in range(5):
            where = data.draw(st.slices(len(rows) + 2))
            assert view[where] == rows[where] and isinstance(view[where], tuple)


def backwards(bundle):
    """``bundle`` held as int64 columns, its string tables listed backwards."""
    cols = {name: col.astype(np.int64) if isinstance(col, np.ndarray) else col
            for name, col in bundle.table._asdict().items()}
    for codes, table in (("lang", "lang_table"), ("hashtag_codes", "hashtag_table"), ("url_codes", "url_table")):
        cols[codes], cols[table] = len(cols[table]) - 1 - cols[codes], cols[table][::-1]
    return sf.StreamBundle.from_columns({**cols, **model.message_columns(bundle.messages)})


@settings(derandomize=True, deadline=None, max_examples=200)
@given(streams_of_rows(), st.lists(st.integers(0, 9), max_size=3), st.data())
def test_bundle_equality_on_columns_agrees_with_the_rows(events, counters, data):
    messages = [sf.RateLimitMessage(5 * i, n) for i, n in enumerate(sorted(counters))]
    other, other_messages = list(events), list(messages)
    change = data.draw(st.sampled_from(("none", "field", "id", "drop", "message")))
    if change == "message":
        other_messages.append(sf.RateLimitMessage(50, data.draw(st.integers(0, 9))))
    elif change != "none" and events:
        at = data.draw(st.integers(0, len(events) - 1))
        if change == "field":
            other[at] = changed(other[at], data.draw(st.sampled_from(FIELD_NAMES[1:])))
        elif change == "id":
            other[at] = other[at]._replace(id=3 * len(events) + 3)
        else:
            del other[at]
    a, b = sf.StreamBundle(events, messages), sf.StreamBundle.build(other, other_messages)
    want = (tuple(a.events), a.messages) == (tuple(b.events), b.messages)
    # int32 columns against int64, string tables in the order of first use or backwards
    sides = [(a, backwards(a)), (b, backwards(b), as_columns(b.events, b.messages))]
    with no_rows():
        for x in sides[0]:
            for y in sides[1]:
                assert (x == y) == want and (y == x) == want and x == x
                assert not want or hash(x) == hash(y)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(streams_of_rows(), st.sampled_from(sf.model.GRANULARITIES), st.floats(0, 1), st.booleans())
def test_column_layers_equal_the_row_loops(events, granularity, rate, include_quotes):
    profile = sf.TemporalRateProfile(granularity, {0: rate, 1: rate / 3, 7: 0.0}, default_rate=0.8)
    for source in (sf.StreamBundle(events), as_columns(events)):
        for key in ("user", "hashtag", "url"):
            assert sf.entity.entity_occurrences(source, key) == occurrences_by_loop(events, key)
        graph = sf.build_bipartite(source)
        assert graph.weights == bipartite_by_loop(events)
        assert graph.users == tuple(sorted({u for u, _ in graph.weights}))
        net = sf.build_retweet_network(source, include_quotes)
        assert (net.edges, net.skipped_unresolvable) == retweets_by_loop(events, include_quotes)
        volumes = sf.ranking._corrected_volumes(np.zeros(len(events), np.intp), source.table.ts, profile)
        assert volumes.tolist() == [volume_by_loop(events, profile)]
        for key in ("hour", "second", "millisecond", "lang", "type"):
            rows = sf.sampling_rate_breakdown(source, sf.StreamBundle(events[::2]).events, key, tz_offset_hours=-5)
            truth = Counter(sf.model.bucket_of(e.timestamp_ms, key, -5, band_ms=1) if key not in ("lang", "type")
                            else getattr(e, "lang" if key == "lang" else "event_type") for e in events)
            assert {r.bucket: r.complete_count for r in rows} == truth


# the sampler loop and the per-cascade reach sum the column code replaced,
# kept as references
def sampler_by_loop(events, threshold, anchor_ms):
    delivered, messages = [], []
    cum_dropped, window, in_window, window_dropped = 0, None, 0, 0
    for e in events:
        w = (e.timestamp_ms - anchor_ms) // 1000
        if w != window:
            if window_dropped:
                messages.append(sf.RateLimitMessage(anchor_ms + (window + 1) * 1000 - 1, cum_dropped))
            window, in_window, window_dropped = w, 0, 0
        if in_window < threshold:
            delivered.append(e)
            in_window += 1
        else:
            cum_dropped += 1
            window_dropped += 1
    if window_dropped:
        messages.append(sf.RateLimitMessage(anchor_ms + (window + 1) * 1000 - 1, cum_dropped))
    return delivered, messages


def reach_by_loop(cascade, horizon_ms):
    return sum(e.follower_count for e in cascade.retweets if e.timestamp_ms <= horizon_ms)


def as_columns(events, messages=()):
    """The bundle of sorted ``events`` and ``messages`` held as int64 columns."""
    return sf.StreamBundle.from_columns({**{name: model._row_column(events, name) for name in model.EventTable._fields},
                                         **model.message_columns(messages)})


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 3_000), max_size=60), st.integers(1, 4), st.integers(0, 999),
       st.floats(0, 1), st.integers(0, 3))
def test_samplers_equal_the_loop(stamps, threshold, anchor_ms, rate, seed):
    # events before the anchor, several events in one millisecond, threshold 1
    events = [ev(i * 2 + 1, t, user=i % 5, hashtags=("a", "b")[: i % 3], urls=("u",) * (i % 2))
              for i, t in enumerate(sorted(stamps))]
    delivered, messages = sampler_by_loop(events, threshold, anchor_ms)
    assert sf.rate_limited_sample(events, threshold, anchor_ms) == (delivered, messages)
    assert sf.rate_limited_sample(iter(events), threshold, anchor_ms) == (delivered, messages)
    kept = sf.bernoulli_sample(events, rate, seed)
    for source in (sf.StreamBundle(events), as_columns(events)):
        with no_rows():
            by_threshold, by_rate = sf.rate_limited_bundle(source, threshold, anchor_ms), sf.bernoulli_bundle(
                source, rate, seed)
        assert (by_threshold.events, by_threshold.messages) == (tuple(delivered), tuple(messages))
        assert by_rate.events == tuple(kept) and by_rate.messages == ()


def jsonl_by_json(bundle):
    """The JSONL of a bundle as json.dumps writes each record, sorted by
    (time, events before messages, id or counter)."""
    def event(e):
        return {"id": e.id, "ts_ms": e.timestamp_ms, "user": e.user_id, "type": e.event_type,
                **({} if e.root_id is None else {"root_id": e.root_id}), "hashtags": list(e.hashtags),
                "urls": list(e.urls), "followers": e.follower_count, "lang": e.lang}

    records = [((e.timestamp_ms, 0, e.id), event(e)) for e in bundle.events]
    records += [((m.timestamp_ms, 1, m.cumulative_missed), {"rl_ts_ms": m.timestamp_ms, "missed": m.cumulative_missed})
                for m in bundle.messages]
    return "".join(json.dumps(obj, separators=(",", ":")) + "\n" for _, obj in sorted(records, key=lambda r: r[0]))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(streams_of_rows(), st.lists(st.tuples(st.integers(0, 40), st.integers(0, 9)), max_size=8),
       st.sampled_from([1, 3, 7, 4096]))
def test_writer_on_columns_equals_json_dumps(tmp_path_factory, events, marks, block):
    # messages at the millisecond of an event, before all events and after them
    stamps = [e.timestamp_ms for e in events] or [0]
    messages = [sf.RateLimitMessage(stamps[i % len(stamps)] + (i == 40), n) for i, n in marks]
    rows = sf.StreamBundle.build(events, messages)
    held = as_columns(rows.events, rows.messages)
    path = tmp_path_factory.mktemp("writer") / "b.jsonl"
    for bundle in (rows, held):
        with no_rows(), mock.patch.object(model, "_ROW_BLOCK", block), \
                mock.patch("streamfid.io._WRITE_BLOCK", block):
            write_bundle(path, bundle)
        assert path.read_text(encoding="utf-8") == jsonl_by_json(rows)


def test_threshold_beyond_int64_delivers_everything():
    events = [ev(i, 5 * (i // 3)) for i in range(12)]
    assert sf.rate_limited_sample(events, 2 ** 70, 0) == (events, [])
    with no_rows():
        sampled = sf.rate_limited_bundle(as_columns(events), 2 ** 70, 0)
    assert sampled.events == tuple(events) and sampled.messages == ()


@st.composite
def cascade_streams(draw):
    """Roots, and retweets, quotes and replies of them at or after them (on
    a window's last millisecond too) or of a root not in the stream."""
    roots = [draw(st.integers(0, 100)) * 500 for _ in range(draw(st.integers(0, 8)))]
    drafts = [(t, "root", r) for r, t in enumerate(roots)]
    for _ in range(draw(st.integers(0, 30))):
        kind, r = draw(st.sampled_from(("retweet", "quote", "reply"))), draw(st.integers(-1, len(roots) - 1))
        t = draw(st.integers(0, 100)) * 500 if r < 0 else roots[r] + draw(st.sampled_from((0, 500, 1000, 600_000)))
        drafts.append((t, kind, r))
    drafts.sort(key=lambda d: d[0])
    final = {r: i for i, (_, kind, r) in enumerate(drafts) if kind == "root"}
    return [ev(i, t, user=i % 7, kind=kind, root_id=None if kind == "root" else final.get(r, 10_000 + i % 4),
               followers=draw(st.integers(0, 50))) for i, (t, kind, r) in enumerate(drafts)]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cascade_streams(), st.floats(0, 1), st.booleans(), st.sampled_from([0.5, 1.0, 600.0, float("inf")]))
def test_cascade_reach_equals_the_loop(events, rate, include_quotes, window_s):
    complete = sf.reconstruct_cascades(events, include_quotes)
    sample = sf.reconstruct_cascades(sf.bernoulli_sample(events, rate, 1), include_quotes)
    with no_rows():
        assert cascade_columns(sf.reconstruct_cascades(as_columns(events), include_quotes)) == cascade_columns(
            complete)
    rows, _ = sf.compare_cascades(complete, sample, reach_windows_s=(window_s,))
    by_id = {c.root_id: c for c in complete}
    observed = [c for c in sample if not c.is_rootless]
    assert [r.root_id for r in rows] == [c.root_id for c in observed]
    for row, c in zip(rows, observed):
        ref = by_id[c.root_id]
        horizon = float("inf") if window_s == float("inf") else ref.root.timestamp_ms + int(window_s * 1000)
        denominator = reach_by_loop(ref, horizon)
        want = None if denominator == 0 else reach_by_loop(c, horizon) / denominator
        assert row.relative_potential_reach == {window_s: want}
        assert sf.relative_potential_reach(c, ref, window_s) == want
    assert rows == sf.compare_cascades(list(complete), list(sample), reach_windows_s=(window_s,))[0]


# the row loop the table merge replaced, kept as a reference
def merge_by_rows(bundles):
    by_id = {}
    for b in bundles:
        for e in b.events:
            if by_id.setdefault(e.id, e) != e:
                raise ValueError(f"conflicting duplicate for event id {e.id}")
    messages = Counter()
    for b in bundles:
        for m, n in Counter(b.messages).items():
            messages[m] = max(messages[m], n)
    return sf.StreamBundle.build(by_id.values(), messages.elements())


# Event fields as merge_streams names them, in field order
FIELD_NAMES = ("id", "ts", "user", "type", "root", "hashtags", "urls", "followers", "lang")


def conflict_by_rows(bundles):
    """The error merge_streams gives: the smallest id whose events differ,
    and the first field in which they do."""
    by_id = {}
    for b in bundles:
        for e in b.events:
            by_id.setdefault(e.id, set()).add(e)
    worst = min(i for i, events in by_id.items() if len(events) > 1)
    field = next(k for k in range(1, 9) if len({e[k] for e in by_id[worst]}) > 1)
    return f"conflicting duplicate for event id {worst}: {FIELD_NAMES[field]} differs"


def changed(e, field):
    """``e`` with one field changed; a root given a type or a root id gets both."""
    if field in ("type", "root") and e.root_id is None:
        return e._replace(event_type="retweet", root_id=0)
    if field == "type":
        return e._replace(event_type="quote" if e.event_type != "quote" else "reply")
    if field == "root":
        return e._replace(root_id=e.root_id + 1)
    if field in ("hashtags", "urls"):
        return e._replace(**{field: getattr(e, field)[::-1] if len(getattr(e, field)) > 1 else ("z",)})
    name = {"ts": "timestamp_ms", "user": "user_id", "followers": "follower_count"}.get(field, field)
    return e._replace(**{name: getattr(e, name) + 1 if name != "lang" else getattr(e, name) + "x"})


@st.composite
def overlapping_parts(draw):
    """Parts of one stream as from overlapping crawlers: ids above 2**31 in
    some parts only, string tables shared, disjoint or empty, repeated
    messages, and now and then an event that differs from its duplicate."""
    big = draw(st.booleans()) * 2 ** 31
    vocab = st.lists(st.sampled_from(("a", "b", "c", "d", "\u00e9")), max_size=3)
    master = [ev(i * 2 + (big if i % 3 == 0 else 0), draw(st.integers(0, 3_000)), user=draw(st.integers(0, 5)),
                 kind=kind, root_id=None if kind == "root" else draw(st.integers(0, 9)), hashtags=draw(vocab),
                 urls=draw(vocab)[:2], followers=draw(st.integers(0, 9)), lang=draw(st.sampled_from(("en", "ja"))))
              for i, kind in enumerate(draw(st.lists(st.sampled_from(sf.model.EVENT_TYPES), max_size=30)))]
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        events = [e for e in master if draw(st.booleans())]
        if events and draw(st.integers(0, 3)) == 0:
            at = draw(st.integers(0, len(events) - 1))
            events[at] = changed(events[at], draw(st.sampled_from(FIELD_NAMES[1:])))
        stamps = sorted(draw(st.lists(st.integers(0, 40), max_size=4)))
        parts.append(sf.StreamBundle.build(events, [sf.RateLimitMessage(t, t // 10) for t in stamps]))
    return parts


@settings(derandomize=True, deadline=None, max_examples=300)
@given(overlapping_parts())
def test_table_merge_equals_the_row_loop(parts):
    try:
        want = merge_by_rows(parts)
    except ValueError:
        message = conflict_by_rows(parts)
        for order in (parts, parts[::-1]):
            with pytest.raises(ValueError) as raised, no_rows():
                sf.merge_streams(order)
            assert str(raised.value) == message
        return
    with no_rows():
        merged = sf.merge_streams(parts)
    assert merged == want and merged.messages == want.messages
    assert {n: c.dtype for n, c in merged.table._asdict().items() if n in model.INT32_COLUMNS} == {
        n: c.dtype for n, c in want.table._asdict().items() if n in model.INT32_COLUMNS}


# a root's root id changes only with its type, so a root event has no root conflict of its own
@pytest.mark.parametrize("field, kind", [(f, k) for k in ("root", "retweet") for f in FIELD_NAMES[1:]
                                         if (f, k) != ("root", "root")])
def test_conflict_names_the_smallest_id_and_first_field_in_any_order(field, kind):
    events = [ev(i, 10 * i, user=i, kind=kind, root_id=None if kind == "root" else 7, hashtags=("a", "b"),
                 urls=("u",), followers=3, lang="en") for i in (1, 2, 3)]
    a = sf.StreamBundle(events)
    b = sf.StreamBundle.build([changed(events[2], "user"), changed(events[0], field), events[1]])
    for parts in ([a, b], [b, a], [b, a, a]):
        with pytest.raises(ValueError, match=f"^conflicting duplicate for event id 1: {field} differs$"):
            sf.merge_streams(parts)


def test_merge_command_exits_1_on_a_conflict(tmp_path, capsys):
    for name, user in (("a", 0), ("b", 1)):
        write_bundle(tmp_path / f"{name}.jsonl", sf.StreamBundle([ev(5, 1, user=user)]))
    assert main(["merge", "-i", str(tmp_path / "a.jsonl"), "-i", str(tmp_path / "b.jsonl"),
                 "-o", str(tmp_path / "m.jsonl")]) == 1
    assert "conflicting duplicate for event id 5: user differs" in capsys.readouterr().err


@pytest.fixture(scope="module")
def large_stream():
    """A generated stream of about 54,000 events, and a threshold sample of it."""
    complete = sf.generate_stream(sf.GeneratorConfig(
        duration_s=1_050, base_rate=120, cascade_fraction=0.5, seed=7,
        type_mix={"root": 0.25, "retweet": 0.55, "quote": 0.08, "reply": 0.12}))
    assert len(complete) > 50_000
    return complete, sf.rate_limited_bundle(complete, 30, 657)


def test_indexing_a_cascade_builds_its_rows_only(large_stream):
    for bundle in large_stream:
        cs = sf.reconstruct_cascades(bundle)
        sizes = [c.size for c in cs]
        rootless = [i for i, c in enumerate(cs) if c.is_rootless]
        for i in {0, len(cs) - 1, sizes.index(max(sizes)), *rootless[:1]}:
            with mock.patch.object(model, "_rows", wraps=model._rows) as spy:
                retweets = cs[i].retweets
            assert sum(len(c.args[0].id) for c in spy.call_args_list) == cs[i].size
            assert retweets == tuple(e for e in bundle.events
                                     if e.event_type == "retweet" and e.root_id == cs[i].root_id)
            assert cs[i].root == next((e for e in bundle.events if e.id == cs[i].root_id), None)
    assert rootless
