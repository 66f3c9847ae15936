import numpy as np
import pytest
from scipy.stats import kendalltau

from streamfid.model import RateLimitMessage, StreamBundle, TemporalRateProfile
from streamfid.ranking import (
    _corrected_volumes,
    kendall_tau,
    temporal_rates_from_messages,
    top_k_rank_table,
)
from streamfid.breakdown import sampling_rate_breakdown
from streamfid.simulate import rate_limited_bundle

from conftest import ev
from workloads import hour_biased_workload


class TestTemporalRates:
    def test_bucket_arithmetic(self):
        events = [ev(i, i) for i in range(50)]  # 50 delivered in hour 0
        msgs = [RateLimitMessage(999, 10)]
        sample = StreamBundle.build(events, msgs)
        profile = temporal_rates_from_messages(sample, "hour")
        assert profile.rates[0] == pytest.approx(50 / 60)

    def test_bucket_with_only_a_message_left_out(self):
        # the window's message is stamped in hour 1, which holds no event
        events = [ev(i, 3_599_700 + i) for i in range(3)]
        sample = StreamBundle.build(events, [RateLimitMessage(3_600_656, 4)])
        profile = temporal_rates_from_messages(sample, "hour")
        assert profile.rates == {0: 1.0}

    def test_no_messages_all_ones(self, simple_bundle):
        profile = temporal_rates_from_messages(simple_bundle, "hour")
        assert all(r == 1.0 for r in profile.rates.values())

    def test_non_monotone_counter_rejected(self):
        msgs = [RateLimitMessage(10, 5), RateLimitMessage(20, 3)]
        sample = StreamBundle.build([ev(0, 0)], msgs)
        with pytest.raises(ValueError, match="non-monotone"):
            temporal_rates_from_messages(sample, "hour")

    def test_simulator_hourly_rates_match_truth(self):
        complete = hour_biased_workload(seed=42)
        sample = rate_limited_bundle(complete, threshold=2, anchor_ms=657)
        profile = temporal_rates_from_messages(sample, "hour")
        truth = {r.bucket: r.rate for r in sampling_rate_breakdown(complete, sample, "hour")}
        for hour, rate in truth.items():
            assert profile.rates[hour] == pytest.approx(rate, abs=0.02)


def constant(rate):
    """A profile of one rate in every hour of the day."""
    return TemporalRateProfile("hour", dict.fromkeys(range(24), rate))


def corrected_volume(stamps, profile, groups=None):
    """``_corrected_volumes`` of events at ``stamps``, all in group 0 by default."""
    groups = np.zeros(len(stamps), np.intp) if groups is None else np.array(groups)
    return _corrected_volumes(groups, np.array(stamps, np.int64), profile).tolist()


class TestSwappedPair:
    def test_user_with_more_sample_than_complete_events_is_named(self):
        complete = StreamBundle.build([ev(i, 10 * i, user=i % 3) for i in range(30)])
        sample = StreamBundle.build([e for e in complete.events if e.user_id or e.id % 2])
        profile = temporal_rates_from_messages(complete, "hour")
        with pytest.raises(ValueError, match="^user 0 has 10 sample events but 5 complete ones$"):
            top_k_rank_table(sample, complete, profile, 2)

    def test_user_only_the_sample_holds_is_named(self):
        complete = StreamBundle.build([ev(i, i, user=1) for i in range(4)])
        sample = StreamBundle.build([ev(0, 0, user=1), ev(9, 9, user=7)])
        with pytest.raises(ValueError, match="^user 7 has 1 sample events but 0 complete ones$"):
            top_k_rank_table(complete, sample, temporal_rates_from_messages(sample, "hour"), 2)


class TestCorrectedVolume:
    def test_single_event_half_rate(self):
        profile = constant(0.5)
        assert corrected_volume([0], profile) == pytest.approx([2.0])

    def test_all_ones_counts_events(self):
        profile = constant(1.0)
        assert corrected_volume(range(9), profile) == pytest.approx([9.0])
        assert corrected_volume(range(9), profile, [2, 0, 2] * 3) == pytest.approx([3.0, 0.0, 6.0])

    def test_two_rates(self):
        profile = TemporalRateProfile("hour", {0: 0.5, 1: 0.25})
        assert corrected_volume([0, 3_600_000], profile) == pytest.approx([6.0])
        assert corrected_volume([0, 3_600_000], profile, [1, 0]) == pytest.approx([4.0, 2.0])

    def test_bucket_without_a_rate_is_named(self):
        # events in hours 0 and 5; the profile has hours 0 and 1 only
        profile = TemporalRateProfile("hour", {0: 0.5, 1: 0.25})
        with pytest.raises(ValueError, match="no sampling rate for hour bucket 5, which holds sample events"):
            corrected_volume([0, 5 * 3_600_000 + 7, 6 * 3_600_000], profile)

    def test_rate_below_the_old_floor_is_used(self):
        profile = TemporalRateProfile("hour", {0: 1e-4})
        assert corrected_volume([0], profile) == pytest.approx([10_000.0])

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5, float("nan")])
    def test_rate_outside_zero_one_refused(self, rate):
        with pytest.raises(ValueError, match=r"for bucket 3 outside \(0,1\]"):
            TemporalRateProfile("hour", {0: 0.5, 3: rate})


class TestKendallTau:
    def test_identical_is_one(self):
        assert kendall_tau([3, 1, 2], [3, 1, 2]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_single_swap(self):
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 3])

    @pytest.mark.parametrize("ranking", [[], [7]])
    def test_fewer_than_two_elements_rejected(self, ranking):
        with pytest.raises(ValueError, match="at least 2"):
            kendall_tau(ranking, ranking)

    def test_matches_scipy_on_random_permutations(self, rng):
        for n in range(2, 501):
            a, b = rng.permutation(n), rng.permutation(n)
            pos_b = np.argsort(b)
            expected = kendalltau(np.arange(n), pos_b[a]).statistic
            assert kendall_tau(list(a), list(b)) == pytest.approx(expected, rel=0, abs=1e-15)

    def test_matches_scipy_at_large_n(self, rng):
        n = 100_000
        a, b = rng.permutation(n), rng.permutation(n)
        expected = kendalltau(np.arange(n), np.argsort(b)[a]).statistic
        assert kendall_tau(list(a), list(b)) == pytest.approx(expected, rel=0, abs=1e-15)


class TestTopKRankTable:
    def _uniform_pair(self):
        # every user's sample count is exactly half the complete count:
        # constant-rate sampling must preserve ranks
        complete_events, sample_events = [], []
        eid = 0
        for u in range(12):
            n_c = 2 * (u + 3)
            for j in range(n_c):
                e = ev(eid, eid, user=u)
                complete_events.append(e)
                if j % 2 == 0:
                    sample_events.append(e)
                eid += 1
        return (StreamBundle.build(complete_events), StreamBundle.build(sample_events))

    def test_uniform_rate_preserves_ranks(self):
        complete, sample = self._uniform_pair()
        profile = constant(0.5)
        report = top_k_rank_table(complete, sample, profile, k=10)
        assert report.kendall_observed == pytest.approx(1.0)
        assert report.kendall_estimated == pytest.approx(1.0)
        for row in report.rows:
            assert row.observed_rank == row.true_rank == row.estimated_rank

    def test_single_bucket_profile_estimated_equals_observed(self):
        complete = hour_biased_workload(seed=3, n_users=60, secs_per_hour=120)
        sample = rate_limited_bundle(complete, threshold=2)
        report = top_k_rank_table(complete, sample, constant(0.7), k=40)
        for row in report.rows:
            assert row.estimated_rank == row.observed_rank

    def test_hour_biased_correction_improves_tau(self):
        complete = hour_biased_workload(seed=1)
        sample = rate_limited_bundle(complete, threshold=2, anchor_ms=657)
        profile = temporal_rates_from_messages(sample, "hour")
        report = top_k_rank_table(complete, sample, profile, k=100)
        assert report.kendall_estimated >= report.kendall_observed

    def test_rank_columns_are_permutations(self):
        complete = hour_biased_workload(seed=9, n_users=40, secs_per_hour=60)
        sample = rate_limited_bundle(complete, threshold=2)
        profile = temporal_rates_from_messages(sample, "hour")
        report = top_k_rank_table(complete, sample, profile, k=25)
        k = len(report.rows)
        for col in ("observed_rank", "true_rank", "estimated_rank"):
            assert sorted(getattr(r, col) for r in report.rows) == list(range(1, k + 1))

    def test_k_below_two_rejected(self, simple_bundle):
        with pytest.raises(ValueError, match="k must be >= 2"):
            top_k_rank_table(simple_bundle, simple_bundle, constant(1.0), k=1)

    @pytest.mark.parametrize("users", [0, 1])
    def test_sample_of_fewer_than_two_users_rejected_before_shrinking(self, users, recwarn):
        complete = StreamBundle.build([ev(i, i, user=i % 2) for i in range(6)])
        sample = StreamBundle.build([ev(i, i, user=0) for i in range(0, 2 * users, 2)])
        with pytest.raises(ValueError, match=f"a ranking needs at least 2 users, and the sample holds {users}$"):
            top_k_rank_table(complete, sample, constant(1.0), k=10)
        assert not recwarn.list

    def test_shrinks_below_k_with_warning(self):
        events = [ev(i, i, user=i % 3) for i in range(9)]
        bundle = StreamBundle.build(events)
        with pytest.warns(UserWarning, match="shrinking"):
            report = top_k_rank_table(bundle, bundle, constant(1.0), k=10)
        assert len(report.rows) == 3

    def test_argmax_invariance_under_scaling(self):
        # scaling every corrected volume by a positive constant cannot
        # change the estimated ranking
        from streamfid.ranking import _ordered

        score = {1: 10.0, 2: 3.5, 3: 3.5, 4: 0.2}
        base = _ordered(score, score)
        scaled = _ordered(score, {u: 37.1 * v for u, v in score.items()})
        assert base == scaled
