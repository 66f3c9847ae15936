import numpy as np
import pytest

from streamfid.simulate import (
    GeneratorConfig,
    InterArrivalModel,
    ZipfPopulation,
    bernoulli_sample,
    generate_stream,
    rate_limited_sample,
)

from conftest import ev


class TestGeneratorConfig:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GeneratorConfig(type_mix={"root": 0.5, "retweet": 0.6})

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event types"):
            GeneratorConfig(type_mix={"root": 0.5, "boost": 0.5})

    def test_amplitude_range(self):
        with pytest.raises(ValueError):
            GeneratorConfig(diurnal_amplitude=1.0)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cascade_size_cap_below_one_rejected(self, cap):
        # a cap of 0 used to give every cascade exactly one child, and a NaN expected count
        with pytest.raises(ValueError, match="cascade_size_cap"):
            GeneratorConfig(cascade_size_cap=cap)
        assert GeneratorConfig(cascade_size_cap=1).mean_cascade_size() == 1.0

    def test_negative_start_rejected(self):
        # it used to fail only inside from_columns, naming no field
        with pytest.raises(ValueError, match="start_ms"):
            GeneratorConfig(start_ms=-1)


class TestGenerateStream:
    def test_deterministic_per_seed(self):
        cfg = GeneratorConfig(duration_s=1.0, base_rate=10.0, seed=1)
        a = generate_stream(cfg)
        b = generate_stream(cfg)
        assert a.events == b.events

    def test_all_root_mix_has_no_root_ids(self):
        cfg = GeneratorConfig(duration_s=5.0, base_rate=50.0, type_mix={"root": 1.0},
                              cascade_fraction=0.9, seed=2)
        bundle = generate_stream(cfg)
        assert all(e.root_id is None for e in bundle.events)

    def test_event_count_within_poisson_interval(self):
        cfg = GeneratorConfig(duration_s=3600.0, base_rate=100.0, type_mix={"root": 1.0},
                              cascade_fraction=0.0, diurnal_amplitude=0.0, seed=3)
        bundle = generate_stream(cfg)
        mean = cfg.expected_event_count()
        assert mean == 360_000
        sigma = mean ** 0.5
        assert abs(len(bundle.events) - mean) <= 5 * sigma

    def test_children_reference_earlier_roots(self):
        cfg = GeneratorConfig(duration_s=30.0, base_rate=20.0, cascade_fraction=0.8,
                              type_mix={"root": 0.4, "retweet": 0.5, "quote": 0.1},
                              inter_arrival_model=InterArrivalModel("exponential", mean_s=2.0),
                              seed=4)
        bundle = generate_stream(cfg)
        by_id = {e.id: e for e in bundle.events}
        children = [e for e in bundle.events if e.root_id is not None]
        assert children, "config should produce cascade children"
        for ch in children:
            root = by_id[ch.root_id]
            assert root.event_type == "root"
            assert root.timestamp_ms <= ch.timestamp_ms
            assert root.id < ch.id

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gaps_past_int64_milliseconds_stay_past_the_end(self):
        # alpha=0.2 draws gaps beyond 2**63 ms, which once cast to INT64_MIN
        # ("invalid value encountered in cast") and were lifted to 1 ms
        cfg = GeneratorConfig(duration_s=600.0, base_rate=50.0, cascade_fraction=1.0,
                              type_mix={"root": 0.5, "retweet": 0.5},
                              inter_arrival_model=InterArrivalModel("power-law", alpha=0.2), seed=0)
        t = generate_stream(cfg).table
        root_ts = dict(zip(t.id.tolist(), t.ts.tolist()))
        child = t.root >= 0
        assert child.any()
        starts = np.array([root_ts[r] for r in t.root[child].tolist()])
        assert (starts <= t.ts[child]).all() and (t.ts[child] < cfg.start_ms + 600_000).all()

    def test_followers_heavy_tailed_and_frozen_per_user(self):
        cfg = GeneratorConfig(duration_s=60.0, base_rate=100.0, seed=5,
                              user_population=ZipfPopulation(50, 1.2))
        bundle = generate_stream(cfg)
        per_user = {}
        for e in bundle.events:
            per_user.setdefault(e.user_id, set()).add(e.follower_count)
        assert all(len(s) == 1 for s in per_user.values())
        followers = [next(iter(s)) for s in per_user.values()]
        assert max(followers) > 10 * np.median(followers)


class TestRateLimitedSample:
    def test_overfull_window_drops_and_reports(self):
        events = [ev(i, 657 + i, user=i) for i in range(60)]
        delivered, msgs = rate_limited_sample(events, threshold=50, anchor_ms=657)
        assert len(delivered) == 50
        assert delivered == events[:50]
        assert len(msgs) == 1
        assert msgs[0].cumulative_missed == 10
        assert msgs[0].timestamp_ms == 657 + 999

    def test_underfull_windows_pass_through(self):
        events = [ev(i, i * 100, user=i) for i in range(30)]
        delivered, msgs = rate_limited_sample(events, threshold=50, anchor_ms=0)
        assert delivered == events
        assert msgs == []

    def test_cumulative_counter_across_windows(self):
        first = [ev(i, 657 + i, user=i) for i in range(60)]
        second = [ev(100 + i, 1657 + i, user=i) for i in range(70)]
        delivered, msgs = rate_limited_sample(first + second, threshold=50, anchor_ms=657)
        assert [m.cumulative_missed for m in msgs] == [10, 30]
        assert len(delivered) == 100

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError, match="unsorted"):
            rate_limited_sample([ev(0, 100), ev(1, 50)])

    def test_conservation_for_random_inputs(self, rng):
        for trial in range(25):
            n = int(rng.integers(1, 400))
            ts = np.sort(rng.integers(0, 5_000, size=n))
            events = [ev(i, int(t) + i, user=int(rng.integers(9))) for i, t in enumerate(ts)]
            threshold = int(rng.integers(1, 30))
            anchor = int(rng.integers(0, 1000))
            delivered, msgs = rate_limited_sample(events, threshold, anchor)
            dropped = msgs[-1].cumulative_missed if msgs else 0
            assert len(delivered) + dropped == len(events)

    def test_delivered_is_prefix_per_window_subsequence(self, rng):
        ts = np.sort(rng.integers(0, 10_000, size=500))
        events = [ev(i, int(t) + i) for i, t in enumerate(ts)]
        delivered, _ = rate_limited_sample(events, threshold=5, anchor_ms=123)
        ids = [e.id for e in delivered]
        assert ids == sorted(ids)  # subsequence, no reordering
        assert set(ids) <= {e.id for e in events}
        # prefix property: within a window, the delivered events are the earliest ones
        by_window = {}
        for e in events:
            by_window.setdefault((e.timestamp_ms - 123) // 1000, []).append(e)
        kept = set(ids)
        for window_events in by_window.values():
            flags = [e.id in kept for e in window_events]
            assert flags == sorted(flags, reverse=True)

    def test_millisecond_keep_rate_sawtooth(self, rng):
        # keep probability is non-increasing with offset from the anchor;
        # band noise at this volume is sigma ~ 0.013, so allow 0.05 up-jumps
        events = []
        eid = 0
        for sec in range(3000):
            n = int(rng.integers(5, 15))
            offs = np.sort(rng.integers(0, 1000, size=n))
            for o in offs:
                events.append(ev(eid, sec * 1000 + int(o)))
                eid += 1
        anchor = 657
        delivered, _ = rate_limited_sample(events, threshold=8, anchor_ms=anchor)
        kept = {e.id for e in delivered}
        band_total = np.zeros(20)
        band_kept = np.zeros(20)
        for e in events:
            band = ((e.timestamp_ms - anchor) % 1000) // 50
            band_total[band] += 1
            band_kept[band] += e.id in kept
        rates = band_kept / np.maximum(band_total, 1)
        assert np.all(np.diff(rates) <= 0.05), f"sawtooth violated: {rates}"
        assert rates[0] == rates.max()
        assert rates[0] - rates[-1] > 0.3


class TestBernoulliSample:
    def test_rate_one_identity(self):
        events = [ev(i, i) for i in range(100)]
        assert bernoulli_sample(events, 1.0, seed=1) == events

    def test_rate_zero_empty(self):
        events = [ev(i, i) for i in range(100)]
        assert bernoulli_sample(events, 0.0, seed=1) == []

    def test_kept_fraction_within_three_sigma(self):
        events = [ev(i, i) for i in range(100_000)]
        kept = bernoulli_sample(events, 0.5, seed=11)
        assert abs(len(kept) / 100_000 - 0.5) <= 0.005

    def test_preserves_order_and_determinism(self):
        events = [ev(i, i) for i in range(1000)]
        a = bernoulli_sample(events, 0.3, seed=5)
        b = bernoulli_sample(events, 0.3, seed=5)
        assert a == b
        ids = [e.id for e in a]
        assert ids == sorted(ids)

    def test_type_ratios_preserved_in_expectation(self):
        # 5-sigma hypergeometric bound per event type at N = 10^5
        rng = np.random.default_rng(17)
        kinds = ("root", "retweet", "quote", "reply")
        probs = (0.25, 0.55, 0.08, 0.12)
        n = 100_000
        draws = rng.choice(4, size=n, p=probs)
        events = [ev(i, i, kind=kinds[k], root_id=None if kinds[k] == "root" else 0)
                  for i, k in enumerate(draws)]
        sample = bernoulli_sample(events, 0.5272, seed=23)
        m = len(sample)
        for kind in kinds:
            total_k = sum(e.event_type == kind for e in events)
            samp_k = sum(e.event_type == kind for e in sample)
            p = total_k / n
            sigma = np.sqrt(m * p * (1 - p) * (n - m) / (n - 1))
            assert abs(samp_k - m * p) <= 5 * sigma
