import numpy as np
import pytest

from streamfid.simulate import (
    DURATION_CEILING,
    EVENT_CEILING,
    POPULATION_CEILING,
    GeneratorConfig,
    InterArrivalModel,
    ZipfPopulation,
    bernoulli_bundle,
    generate_stream,
    rate_limited_bundle,
)
from streamfid.model import StreamBundle

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

    def test_sizes_over_their_ceilings_are_refused_before_any_draw(self):
        # built, never generated: a run at a ceiling takes gigabytes
        ZipfPopulation(POPULATION_CEILING)
        with pytest.raises(ValueError, match="population size"):
            ZipfPopulation(POPULATION_CEILING + 1)
        roots_only = {"type_mix": {"root": 1.0}, "base_rate": 50.0}
        assert GeneratorConfig(duration_s=EVENT_CEILING / 50, **roots_only).expected_event_count() == EVENT_CEILING
        with pytest.raises(ValueError, match="expected events, over the ceiling"):
            GeneratorConfig(duration_s=EVENT_CEILING / 50 + 1, **roots_only)
        # the per-second arrays: 10 expected events over the duration ceiling
        GeneratorConfig(duration_s=DURATION_CEILING, base_rate=1e-6)
        with pytest.raises(ValueError, match="duration must be at most 2678400 seconds"):
            GeneratorConfig(duration_s=DURATION_CEILING + 1, base_rate=1e-6)


    @pytest.mark.parametrize("build", [
        lambda: ZipfPopulation(10, float("nan")),
        lambda: ZipfPopulation(10, float("inf")),
        lambda: InterArrivalModel("power-law", alpha=float("nan")),
        lambda: GeneratorConfig(type_mix={"root": 0.5, "retweet": float("nan"), "quote": 0.5}),
        lambda: GeneratorConfig(type_mix={"root": float("nan"), "retweet": 1.0}),
        lambda: InterArrivalModel("power-law", xmin_s=float("nan")),
        lambda: GeneratorConfig(duration_s=float("nan")),
        lambda: GeneratorConfig(base_rate=float("nan")),
        lambda: GeneratorConfig(diurnal_amplitude=float("nan")),
        lambda: GeneratorConfig(cascade_fraction=float("nan")),
    ])
    def test_non_finite_parameter_rejected(self, build):
        # each used to pass its range check, as NaN compares false
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: ZipfPopulation(10, float("inf")),
        lambda: InterArrivalModel("power-law", xmin_s=float("inf")),
    ], ids=["zipf", "inter-arrival"])
    def test_infinite_parameter_is_refused_as_not_finite(self, build):
        with pytest.raises(ValueError, match="and finite$"):
            build()


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
                              type_mix={"root": 0.4, "retweet": 0.5, "quote": 0.1}, seed=4)
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
        assert (starts <= t.ts[child]).all() and (t.ts[child] < 600_000).all()

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
        sample = rate_limited_bundle(StreamBundle(events), threshold=50, anchor_ms=657)
        assert sample.events == events[:50]
        assert len(sample.messages) == 1
        assert sample.messages[0].cumulative_missed == 10
        assert sample.messages[0].timestamp_ms == 657 + 999

    def test_underfull_windows_pass_through(self):
        events = [ev(i, i * 100, user=i) for i in range(30)]
        sample = rate_limited_bundle(StreamBundle(events), threshold=50, anchor_ms=0)
        assert sample.events == events
        assert sample.messages == ()

    def test_cumulative_counter_across_windows(self):
        first = [ev(i, 657 + i, user=i) for i in range(60)]
        second = [ev(100 + i, 1657 + i, user=i) for i in range(70)]
        sample = rate_limited_bundle(StreamBundle(first + second), threshold=50, anchor_ms=657)
        assert [m.cumulative_missed for m in sample.messages] == [10, 30]
        assert len(sample) == 100

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError, match="unsorted"):
            rate_limited_bundle(StreamBundle([ev(0, 100), ev(1, 50)]))

    def test_conservation_for_random_inputs(self, rng):
        for trial in range(25):
            n = int(rng.integers(1, 400))
            ts = np.sort(rng.integers(0, 5_000, size=n))
            events = [ev(i, int(t) + i, user=int(rng.integers(9))) for i, t in enumerate(ts)]
            threshold = int(rng.integers(1, 30))
            anchor = int(rng.integers(0, 1000))
            sample = rate_limited_bundle(StreamBundle(events), threshold, anchor)
            dropped = sample.messages[-1].cumulative_missed if sample.messages else 0
            assert len(sample) + dropped == len(events)

    def test_delivered_is_prefix_per_window_subsequence(self, rng):
        ts = np.sort(rng.integers(0, 10_000, size=500))
        events = [ev(i, int(t) + i) for i, t in enumerate(ts)]
        ids = rate_limited_bundle(StreamBundle(events), threshold=5, anchor_ms=123).table.id.tolist()
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
        kept = set(rate_limited_bundle(StreamBundle(events), threshold=8, anchor_ms=anchor).table.id.tolist())
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
        bundle = StreamBundle([ev(i, i) for i in range(100)])
        assert bernoulli_bundle(bundle, 1.0, seed=1) == bundle

    def test_rate_zero_empty(self):
        bundle = StreamBundle([ev(i, i) for i in range(100)])
        assert bernoulli_bundle(bundle, 0.0, seed=1) == StreamBundle()

    def test_kept_fraction_within_three_sigma(self):
        bundle = StreamBundle([ev(i, i) for i in range(100_000)])
        kept = bernoulli_bundle(bundle, 0.5, seed=11)
        assert abs(len(kept) / 100_000 - 0.5) <= 0.005

    def test_preserves_order_and_determinism(self):
        bundle = StreamBundle([ev(i, i) for i in range(1000)])
        a = bernoulli_bundle(bundle, 0.3, seed=5)
        b = bernoulli_bundle(bundle, 0.3, seed=5)
        assert a == b
        ids = a.table.id.tolist()
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
        sample = bernoulli_bundle(StreamBundle(events), 0.5272, seed=23)
        m = len(sample)
        for kind in kinds:
            total_k = sum(e.event_type == kind for e in events)
            samp_k = sum(e.event_type == kind for e in sample.events)
            p = total_k / n
            sigma = np.sqrt(m * p * (1 - p) * (n - m) / (n - 1))
            assert abs(samp_k - m * p) <= 5 * sigma
