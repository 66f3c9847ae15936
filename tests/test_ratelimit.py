from collections import Counter

import pytest

from streamfid.model import RateLimitMessage, StreamBundle
from streamfid.ratelimit import (
    Segment,
    ThreadOverflowError,
    estimate_missing,
    map_threads,
    segment_stream,
    total_missing_from_threads,
    validate,
)
from streamfid.simulate import GeneratorConfig, generate_stream, rate_limited_bundle

from conftest import ev
from workloads import thread_counter_instance


def seg(lo, hi, sample=0, complete=0):
    return Segment(lo[0], hi[0], hi[1] - lo[1], sample, complete)


class TestSegmentStream:
    def test_single_clean_interval(self):
        events = [ev(i, 1000 + i * 500) for i in range(8)]
        complete = StreamBundle.build(events)
        sample = StreamBundle.build(events[:6],
                                    [RateLimitMessage(1000, 5), RateLimitMessage(5000, 9)])
        segments = segment_stream(complete, sample)
        assert len(segments) == 1
        s = segments[0]
        assert (s.start_ms, s.end_ms) == (1000, 5000)
        assert s.complete_event_count == sum(1000 < e.timestamp_ms <= 5000 for e in events)

    def test_reference_message_inside_discards(self):
        events = [ev(i, 1000 + i * 500) for i in range(8)]
        complete = StreamBundle.build(events, [RateLimitMessage(3000, 1)])
        sample = StreamBundle.build(events[:6],
                                    [RateLimitMessage(1000, 5), RateLimitMessage(5000, 9)])
        assert segment_stream(complete, sample) == []

    def test_interleaved_counters_raise_even_in_a_discarded_span(self):
        # two sampler threads; the counter drops only in (2000, 3000], which
        # the complete stream's message at 2500 discards
        events = [ev(i, 500 * i) for i in range(10)]
        complete = StreamBundle.build(events, [RateLimitMessage(2500, 1)])
        sample = StreamBundle.build(events[::2], [RateLimitMessage(1000, 5), RateLimitMessage(2000, 50),
                                                  RateLimitMessage(3000, 7), RateLimitMessage(4000, 60)])
        with pytest.raises(ValueError, match="map_threads"):
            segment_stream(complete, sample)

    def test_swapped_pair_raises_naming_the_counts(self):
        # the complete stream's messages would discard every span: 0 segments
        events = [ev(i, 1000 + i * 500) for i in range(8)]
        complete = StreamBundle.build(events)
        sample = StreamBundle.build(events[:6], [RateLimitMessage(1000, 5), RateLimitMessage(5000, 9)])
        with pytest.raises(ValueError, match="^the sample holds 8 events but the complete stream 6$"):
            segment_stream(sample, complete)

    def test_fewer_than_two_messages_is_empty(self):
        events = [ev(i, i * 100) for i in range(5)]
        complete = StreamBundle.build(events)
        sample = StreamBundle.build(events, [RateLimitMessage(100, 3)])
        assert segment_stream(complete, sample) == []

    def test_simulator_segments_enumerate(self):
        cfg = GeneratorConfig(duration_s=120.0, base_rate=80.0, type_mix={"root": 1.0}, seed=6)
        complete = generate_stream(cfg)
        sample = rate_limited_bundle(complete, threshold=50, anchor_ms=657)
        segments = segment_stream(complete, sample)
        # complete set has no messages, so every consecutive message pair
        # with positive duration yields a segment
        expected = sum(
            1 for a, b in zip(sample.messages, sample.messages[1:])
            if a.timestamp_ms < b.timestamp_ms
        )
        assert len(segments) == expected
        assert len(sample.messages) > 2


class TestEstimateMissing:
    def test_counter_difference(self):
        assert estimate_missing(seg((0, 100), (10, 130))) == 30

    def test_equal_counters_zero(self):
        assert estimate_missing(seg((0, 100), (10, 100))) == 0

    def test_negative_difference_rejected(self):
        with pytest.raises(ValueError, match="non-monotone"):
            estimate_missing(seg((0, 130), (10, 100)))

    def test_simulator_segments_exact(self):
        cfg = GeneratorConfig(duration_s=180.0, base_rate=90.0, type_mix={"root": 1.0}, seed=7)
        complete = generate_stream(cfg)
        sample = rate_limited_bundle(complete, threshold=50)
        segments = segment_stream(complete, sample)
        assert segments
        for s in segments:
            assert estimate_missing(s) == s.true_missing


class TestValidate:
    def test_exact_estimates_zero_ape(self):
        segments = [seg((0, 10), (5, 17), sample=10, complete=17)]
        report = validate(segments)
        assert report.median_ape == 0.0 and report.mean_ape == 0.0

    def test_single_off_by_one(self):
        segments = [seg((0, 0), (5, 99), sample=0, complete=100)]
        assert validate(segments).median_ape == pytest.approx(0.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate([])


class TestMapThreads:
    def test_monotone_input_single_list(self):
        assert map_threads([1, 2, 3]) == [[1, 2, 3]]

    def test_smaller_value_starts_new_list(self):
        assert map_threads([5, 3]) == [[5], [3]]

    def test_hand_traced_assignment(self):
        assert map_threads([5, 3, 7, 4]) == [[5, 7], [3, 4]]

    def test_extends_largest_tail_below(self):
        assert map_threads([5, 3, 4]) == [[5], [3, 4]]

    def test_overflow_rejected(self):
        with pytest.raises(ThreadOverflowError, match="thread overflow"):
            map_threads([5, 4, 3, 2, 1], max_threads=4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            map_threads([])

    def test_output_lists_strictly_increasing_permutation(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 60))
            values = [int(v) for v in rng.integers(0, 1000, size=n)]
            try:
                lists = map_threads(values, max_threads=n)
            except ThreadOverflowError:
                continue
            for lst in lists:
                assert all(a < b for a, b in zip(lst, lst[1:]))
            assert Counter(v for lst in lists for v in lst) == Counter(values)


class TestTotalMissing:
    def test_single_thread_last_element(self):
        assert total_missing_from_threads([[1, 2, 3]]) == 3

    def test_two_threads_sum_of_finals(self):
        assert total_missing_from_threads([[5, 7], [3, 4]]) == 11

    def test_empty_is_zero(self):
        assert total_missing_from_threads([]) == 0

    def test_recovers_interleaved_counters(self, rng):
        for _ in range(100):
            seq, truth = thread_counter_instance(rng)
            assert total_missing_from_threads(map_threads(seq, 4)) == truth
