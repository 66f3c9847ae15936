import numpy as np
import pytest

from streamfid.breakdown import sampling_rate_breakdown
from streamfid.model import StreamBundle, empirical_mean_rate
from streamfid.simulate import bernoulli_bundle, rate_limited_bundle

from conftest import ev
from workloads import hour_biased_workload


def split_bundle(events, keep_every=2):
    complete = StreamBundle.build(events)
    sample = StreamBundle.build(events[::keep_every])
    return complete, sample


class TestSamplingRateBreakdown:
    def test_identity_all_ones(self, simple_bundle):
        rows = sampling_rate_breakdown(simple_bundle, simple_bundle, "hour")
        assert all(r.rate == 1.0 for r in rows)

    def test_half_sampled_bucket(self):
        events = [ev(i, i) for i in range(100)]
        complete, sample = split_bundle(events)
        rows = sampling_rate_breakdown(complete, sample, "hour")
        assert len(rows) == 1
        assert rows[0].rate == pytest.approx(0.5)
        assert (rows[0].complete_count, rows[0].sample_count) == (100, 50)

    def test_unknown_key_rejected(self, simple_bundle):
        with pytest.raises(ValueError):
            sampling_rate_breakdown(simple_bundle, simple_bundle, "geo")

    def test_weighted_mean_equals_global_rate(self):
        complete = hour_biased_workload(seed=8, n_users=50, secs_per_hour=120)
        sample = rate_limited_bundle(complete, threshold=2)
        for key in ("hour", "minute", "second", "millisecond", "lang", "type"):
            rows = sampling_rate_breakdown(complete, sample, key)
            weighted = sum(r.rate * r.complete_count for r in rows)
            total = sum(r.complete_count for r in rows)
            assert weighted / total == pytest.approx(empirical_mean_rate(complete, sample), abs=1e-12)

    def test_zero_complete_buckets_omitted(self):
        events = [ev(0, 0, lang="en"), ev(1, 1, lang="ja")]
        complete = StreamBundle.build(events)
        sample = StreamBundle.build(events[:1])
        rows = sampling_rate_breakdown(complete, sample, "lang")
        assert {r.bucket for r in rows} == {"en", "ja"}

    @pytest.mark.parametrize("key, named", [("hour", "hour bucket 0 holds 100 sample events but 50 complete"),
                                            ("lang", "lang bucket 'en' holds 100 sample events but 50 complete")],
                             ids=["hour", "lang"])
    def test_swapped_pair_names_the_first_bucket_over(self, key, named):
        complete, sample = split_bundle([ev(i, i) for i in range(100)])
        with pytest.raises(ValueError, match=named):
            sampling_rate_breakdown(sample, complete, key)

    def test_bucket_only_the_sample_holds_is_refused(self):
        # hour 1 and lang ja hold no complete event; they were dropped silently
        complete = StreamBundle.build([ev(i, i) for i in range(10)])
        sample = StreamBundle.build([ev(0, 0), ev(99, 3_600_000, lang="ja")])
        for key, named in (("hour", "hour bucket 1 holds 1 sample events but 0 complete"),
                           ("lang", "lang bucket 'ja' holds 1 sample events but 0 complete")):
            with pytest.raises(ValueError, match=named):
                sampling_rate_breakdown(complete, sample, key)

    def test_tz_offset_shifts_hours(self):
        events = [ev(i, i) for i in range(10)]
        complete, sample = split_bundle(events)
        rows = sampling_rate_breakdown(complete, sample, "hour", tz_offset_hours=5)
        assert rows[0].bucket == 5

    def test_millisecond_profile_decreases_from_anchor(self, rng):
        # threshold sampling keeps early-window events: per-50ms-band rates
        # reproduce the monotone sawtooth within 0.02
        events = []
        eid = 0
        for sec in range(2000):
            offs = np.sort(rng.integers(0, 1000, size=10))
            for o in offs:
                events.append(ev(eid, sec * 1000 + int(o)))
                eid += 1
        complete = StreamBundle.build(events)
        anchor = 657
        sample = rate_limited_bundle(complete, threshold=7, anchor_ms=anchor)
        rows = sampling_rate_breakdown(complete, sample, "millisecond")
        band_c = np.zeros(20)
        band_s = np.zeros(20)
        for r in rows:
            band = ((r.bucket - anchor) % 1000) // 50
            band_c[band] += r.complete_count
            band_s[band] += r.sample_count
        rates = band_s / band_c
        assert np.all(np.diff(rates) <= 0.02)
        assert rates[0] == rates.max()

    def test_bernoulli_type_rates_within_five_sigma(self):
        rng = np.random.default_rng(4)
        kinds = ("root", "retweet", "quote", "reply")
        draws = rng.choice(4, size=100_000, p=(0.25, 0.55, 0.08, 0.12))
        events = [ev(i, i, kind=kinds[k], root_id=None if kinds[k] == "root" else 0)
                  for i, k in enumerate(draws)]
        complete = StreamBundle.build(events)
        sample = bernoulli_bundle(complete, 0.5272, seed=6)
        global_rate = empirical_mean_rate(complete, sample)
        rows = sampling_rate_breakdown(complete, sample, "type")
        n, m = len(complete.events), len(sample.events)
        for r in rows:
            p = r.complete_count / n
            sigma = np.sqrt(m * p * (1 - p) * (n - m) / (n - 1))
            assert abs(r.sample_count - m * p) <= 5 * sigma
            assert abs(r.rate - global_rate) <= 5 * sigma / r.complete_count
