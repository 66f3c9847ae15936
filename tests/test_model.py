from collections import Counter

import pytest

from streamfid.cascades import reconstruct_cascades
from streamfid.model import (
    Event,
    FrequencyVector,
    RateLimitMessage,
    StreamBundle,
    TemporalRateProfile,
    bucket_of,
    empirical_mean_rate,
    mean_rate_from_messages,
    merge_streams,
)
from streamfid.simulate import bernoulli_sample

from conftest import ev, random_bundle


class TestEvent:
    def test_root_must_not_carry_root_id(self):
        with pytest.raises(ValueError):
            ev(0, 0, kind="root", root_id=3)

    def test_interaction_requires_root_id(self):
        with pytest.raises(ValueError):
            ev(0, 0, kind="retweet")
        assert ev(0, 5, kind="retweet", root_id=1).root_id == 1

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            ev(0, 0, followers=-1)
        with pytest.raises(ValueError):
            Event(id=0, timestamp_ms=-5, user_id=0, event_type="root")


EVENT_FIELDS = ("id", "timestamp_ms", "user_id", "event_type", "root_id", "hashtags", "urls",
                "follower_count", "lang")


class TestRecordContract:
    @pytest.mark.parametrize("name", EVENT_FIELDS)
    def test_event_fields_cannot_be_assigned(self, name):
        e = ev(1, 2)
        with pytest.raises(AttributeError):
            setattr(e, name, 5)
        assert e == ev(1, 2)

    @pytest.mark.parametrize("name", ("timestamp_ms", "cumulative_missed"))
    def test_message_fields_cannot_be_assigned(self, name):
        m = RateLimitMessage(3, 4)
        with pytest.raises(AttributeError):
            setattr(m, name, 5)
        assert m == RateLimitMessage(3, 4)

    @pytest.mark.parametrize("make, message", [
        (lambda: Event(0, 0, 0, "tweet"), "unknown event type 'tweet'"),
        (lambda: Event(0, 0, 0, "root", root_id=3), "root_id present iff event_type != root"),
        (lambda: Event(0, 0, 0, "reply"), "root_id present iff event_type != root"),
        (lambda: Event(-1, 0, 0, "root"), "id, timestamp_ms and follower_count must be non-negative"),
        (lambda: Event(0, -1, 0, "root"), "id, timestamp_ms and follower_count must be non-negative"),
        (lambda: Event(0, 0, 0, "root", follower_count=-1),
         "id, timestamp_ms and follower_count must be non-negative"),
        (lambda: RateLimitMessage(-1, 0), "timestamp and counter must be non-negative"),
        (lambda: RateLimitMessage(0, -1), "timestamp and counter must be non-negative"),
    ])
    def test_validation_messages(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    def test_keyword_positional_and_default_construction(self):
        by_position = Event(7, 30, 2, "quote", 5, ("a",), ("u",), 9, "ja")
        by_keyword = Event(lang="ja", follower_count=9, urls=("u",), hashtags=("a",), root_id=5,
                           event_type="quote", user_id=2, timestamp_ms=30, id=7)
        assert by_position == by_keyword
        assert (by_keyword.id, by_keyword.timestamp_ms, by_keyword.user_id) == (7, 30, 2)
        assert by_keyword.sort_key == (30, 7)
        default = Event(id=1, timestamp_ms=2, user_id=3, event_type="root")
        assert (default.root_id, default.hashtags, default.urls, default.follower_count,
                default.lang) == (None, (), (), 0, "en")
        assert RateLimitMessage(4, 5) == RateLimitMessage(cumulative_missed=5, timestamp_ms=4)
        assert RateLimitMessage(4, 5).cumulative_missed == 5

    def test_equal_fields_give_equal_hashable_records(self):
        a = ev(1, 2, hashtags=("x",), lang="de")
        b = ev(1, 2, hashtags=("x",), lang="de")
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != ev(1, 2, hashtags=("y",), lang="de")
        assert Counter([a, b, ev(2, 3)]) == Counter({a: 2, ev(2, 3): 1})
        assert {a: "first", b: "second"} == {a: "second"}
        m = RateLimitMessage(3, 4)
        assert Counter([m, RateLimitMessage(3, 4)])[m] == 2

    def test_cascade_events_include_observed_root(self):
        root = ev(0, 10)
        rts = (ev(1, 20, kind="retweet", root_id=0), ev(2, 30, kind="retweet", root_id=0))
        assert reconstruct_cascades([root, *rts])[0].events() == (root,) + rts
        assert reconstruct_cascades(rts)[0].events() == rts


class TestStreamBundle:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            StreamBundle((ev(1, 0), ev(1, 10)))

    def test_rejects_unsorted_events(self):
        with pytest.raises(ValueError, match="sorted"):
            StreamBundle((ev(0, 100), ev(1, 50)))

    def test_build_sorts(self):
        b = StreamBundle.build([ev(1, 100), ev(0, 50)])
        assert [e.id for e in b.events] == [0, 1]


class TestEmpiricalMeanRate:
    def test_identity_is_one(self, simple_bundle):
        assert empirical_mean_rate(simple_bundle, simple_bundle) == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty reference stream"):
            empirical_mean_rate(StreamBundle(), StreamBundle())

    def test_bernoulli_sample_counts_exactly(self):
        events = [ev(i, i) for i in range(1000)]
        complete = StreamBundle.build(events)
        kept = bernoulli_sample(events, 0.5, seed=7)
        sample = StreamBundle.build(kept)
        assert empirical_mean_rate(complete, sample) == len(kept) / 1000

    def test_reference_corpus_scale_arithmetic(self):
        # event-count ratio of the reference corpus differs from the
        # message-implied rate: both conventions are exposed
        assert 60_400_257 / 114_488_537 == pytest.approx(0.5276, abs=1e-4)
        assert 60_400_257 / (60_400_257 + 54_175_503) == pytest.approx(0.5272, abs=1e-4)

    def test_rate_from_messages(self):
        events = [ev(i, i) for i in range(80)]
        msgs = [RateLimitMessage(50, 10), RateLimitMessage(90, 20)]
        sample = StreamBundle.build(events, msgs)
        assert mean_rate_from_messages(sample) == 80 / 100

    def test_rate_from_messages_rejects_non_monotone(self):
        msgs = [RateLimitMessage(50, 10), RateLimitMessage(90, 5)]
        sample = StreamBundle.build([ev(0, 0)], msgs)
        with pytest.raises(ValueError, match="non-monotone"):
            mean_rate_from_messages(sample)


class TestMergeStreams:
    def test_disjoint_bundles_concatenate(self):
        a = StreamBundle.build([ev(i, 10 * i) for i in range(3)])
        b = StreamBundle.build([ev(10 + i, 5 + 10 * i) for i in range(3)])
        merged = merge_streams([a, b])
        assert len(merged.events) == 6
        assert [e.id for e in merged.events] == [0, 10, 1, 11, 2, 12]

    def test_identical_bundles_idempotent(self, rng):
        x = random_bundle(rng)
        merged = merge_streams([x, x])
        assert merged.events == x.events
        assert merged.messages == x.messages
        again = merge_streams([merged])
        assert again.events == merged.events and again.messages == merged.messages

    def test_partial_overlap_set_union(self):
        # 100 events each, ids 0..99 and 80..179: 20% overlap -> 180 distinct
        a = StreamBundle.build([ev(i, i) for i in range(100)])
        b = StreamBundle.build([ev(i, i) for i in range(80, 180)])
        assert len(merge_streams([a, b]).events) == 180

    def test_conflicting_duplicate_rejected(self):
        a = StreamBundle.build([ev(0, 10)])
        b = StreamBundle.build([ev(0, 10, user=9)])
        with pytest.raises(ValueError, match="conflicting duplicate"):
            merge_streams([a, b])

    def test_merged_output_sorted_unique(self, rng):
        # bundles act like subcrawlers: overlapping subsets of one master stream
        for _ in range(20):
            master = random_bundle(rng, n=60).events
            bundles = []
            for _ in range(3):
                keep = rng.random(len(master)) < rng.uniform(0.3, 0.9)
                bundles.append(StreamBundle.build([e for e, k in zip(master, keep) if k]))
            merged = merge_streams(bundles)
            keys = [e.sort_key for e in merged.events]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))
            ids = [e.id for e in merged.events]
            assert len(ids) == len(set(ids))
            assert set(ids) == {e.id for b in bundles for e in b.events}


class TestFrequencyVector:
    def test_rejects_bad_keys_and_values(self):
        with pytest.raises(ValueError):
            FrequencyVector({0: 3})
        with pytest.raises(ValueError):
            FrequencyVector({1: -1})

    def test_totals(self):
        fv = FrequencyVector({1: 10, 3: 2})
        assert fv.total_entities() == 12
        assert fv.total_events() == 16
        assert fv[2] == 0

    def test_from_occurrences(self):
        fv = FrequencyVector.from_occurrences([3, 3, 1, 0])
        assert fv.counts == {1: 1, 3: 2}


class TestTemporalRateProfile:
    def test_bucket_arithmetic(self):
        ts = (13 * 3600 + 25 * 60 + 7) * 1000 + 342
        assert bucket_of(ts, "hour") == 13
        assert bucket_of(ts, "minute") == 25
        assert bucket_of(ts, "second") == 7
        assert bucket_of(ts, "millisecond") == 342 // 50

    def test_rate_lookup_with_default(self):
        p = TemporalRateProfile("hour", {3: 0.5}, default_rate=1.0)
        assert p.rate_at(3 * 3_600_000) == 0.5
        assert p.rate_at(0) == 1.0

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            TemporalRateProfile("hour", {0: 1.5})
