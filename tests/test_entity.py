import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.stats import binom, nbinom

from streamfid.entity import (
    K_MAX_CEILING,
    DiscreteDistribution,
    binomial_kernel,
    binomial_mixture_model,
    binomial_sample_model,
    entity_occurrences,
    estimate_complete_frequency_vector,
    estimate_missing_entities,
    frequency_vector_of,
    ks_d_statistic,
    negbinom_complete_model,
)
from streamfid.model import FrequencyVector, StreamBundle
from streamfid.simulate import bernoulli_bundle

from conftest import ev


def point_mass(x):
    return DiscreteDistribution(np.array([x]), np.array([1.0]))


class TestDiscreteDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution(np.array([0, 1]), np.array([0.5, 0.6]))

    def test_no_negative_mass(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0, 1]), np.array([-0.1, 1.1]))

    def test_no_nan_mass(self):
        with pytest.raises(ValueError, match="NaN"):
            DiscreteDistribution(np.array([0, 1]), np.array([np.nan, np.nan]))

    def test_models_sum_to_one(self):
        for dist in (
            binomial_sample_model(17, 0.3),
            negbinom_complete_model(4, 0.61, k_max=80),
            binomial_mixture_model(FrequencyVector({1: 5, 4: 2}), 0.4),
        ):
            assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)


class TestKsDStatistic:
    def test_identical_distributions(self):
        d = binomial_sample_model(5, 0.4)
        assert ks_d_statistic(d, d) == 0.0

    def test_disjoint_point_masses(self):
        assert ks_d_statistic(point_mass(0), point_mass(1)) == 1.0

    def test_uniform_vs_point_mass(self):
        uniform = DiscreteDistribution(np.array([1, 2]), np.array([0.5, 0.5]))
        assert ks_d_statistic(uniform, point_mass(1)) == 0.5

    def test_symmetry_and_triangle_inequality(self, rng):
        def random_dist():
            support = np.sort(rng.choice(20, size=int(rng.integers(2, 8)), replace=False))
            return DiscreteDistribution.from_weights(support, rng.random(len(support)) + 0.01)

        for _ in range(50):
            a, b, c = random_dist(), random_dist(), random_dist()
            assert ks_d_statistic(a, b) == pytest.approx(ks_d_statistic(b, a))
            assert ks_d_statistic(a, c) <= ks_d_statistic(a, b) + ks_d_statistic(b, c) + 1e-12


class TestBinomialSampleModel:
    def test_single_trial_half(self):
        d = binomial_sample_model(1, 0.5)
        assert d.support.tolist() == [0, 1]
        assert d.probabilities.tolist() == pytest.approx([0.5, 0.5])

    def test_mean_matches_reported_value(self):
        assert binomial_sample_model(20, 0.5272).mean() == pytest.approx(10.544, abs=1e-9)

    def test_matches_exhaustive_enumeration(self):
        # all 8 keep/drop outcomes of 3 events at rate 0.5
        counts = Counter(sum(kept) for kept in itertools.product((0, 1), repeat=3))
        d = binomial_sample_model(3, 0.5)
        for n_s, ways in counts.items():
            assert d.probabilities[d.support.tolist().index(n_s)] == pytest.approx(ways / 8)
        assert d.probabilities[2] == pytest.approx(0.375)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            binomial_sample_model(5, 0.0)
        with pytest.raises(ValueError):
            binomial_sample_model(5, 1.2)


class TestNegbinomCompleteModel:
    def test_rate_one_point_mass(self):
        d = negbinom_complete_model(1, 1.0, k_max=10)
        assert d.support[np.argmax(d.probabilities)] == 1
        assert d.probabilities.max() == pytest.approx(1.0)

    def test_hand_computed_cell(self):
        # P(n_c = 2 | n_s = 1, rate = 0.5) = (1 - 0.5) * 0.5
        d = negbinom_complete_model(1, 0.5, k_max=60)
        assert d.probabilities[1] == pytest.approx(0.25, abs=1e-6)

    def test_untruncated_mean_closed_form(self):
        d = negbinom_complete_model(13, 0.5272, k_max=200)
        assert d.metadata["untruncated_mean"] == pytest.approx(13 / 0.5272)
        assert d.metadata["untruncated_mean"] == pytest.approx(24.66, abs=0.01)

    def test_truncation_mass_vanishes_with_k_max(self):
        masses = [negbinom_complete_model(5, 0.4, k_max=k).metadata["truncation_mass"]
                  for k in (10, 20, 40, 80, 160)]
        assert all(a > b for a, b in zip(masses, masses[1:]))
        assert masses[-1] < 1e-9

    def test_warning_recorded_for_heavy_truncation(self):
        d = negbinom_complete_model(10, 0.3, k_max=12)
        assert d.metadata["truncation_mass"] > 0.01
        assert "warning" in d.metadata

    def test_support_starts_at_n_s(self):
        d = negbinom_complete_model(7, 0.6, k_max=50)
        assert d.support[0] == 7


ORACLE_RATES = (1e-3, 0.05, 0.3, 0.5272, 0.9, 1.0)
ORACLE_K_MAX = (1, 10, 100, 250)


@pytest.mark.parametrize("k_max", ORACLE_K_MAX)
@pytest.mark.parametrize("rate", ORACLE_RATES)
class TestScipyOracle:
    """Every binomial model agrees with scipy.stats to 1e-12 absolute."""

    def test_sample_model(self, rate, k_max):
        d = binomial_sample_model(k_max, rate)
        np.testing.assert_allclose(d.probabilities, binom.pmf(np.arange(k_max + 1), k_max, rate),
                                   rtol=0, atol=1e-12)

    def test_kernel(self, rate, k_max):
        i = np.arange(1, k_max + 1)
        np.testing.assert_allclose(binomial_kernel(k_max, rate),
                                   binom.pmf(i[:, None], i[None, :], rate), rtol=0, atol=1e-12)

    def test_mixture_model(self, rate, k_max):
        fv = FrequencyVector({1: 7, max(k_max // 3, 1): 2.5, k_max: 1})
        ns = np.arange(k_max + 1)
        mix = sum(v * binom.pmf(ns, k, rate) for k, v in fv.counts.items())
        d = binomial_mixture_model(fv, rate)
        np.testing.assert_allclose(d.probabilities, mix / mix.sum(), rtol=0, atol=1e-12)

    def test_complete_model_and_truncation_mass(self, rate, k_max):
        for n_s in (n for n in (1, 3, 10) if n <= k_max):
            d = negbinom_complete_model(n_s, rate, k_max)
            pmf = nbinom.pmf(np.arange(k_max - n_s + 1), n_s, rate)
            np.testing.assert_allclose(d.probabilities, pmf / pmf.sum(), rtol=0, atol=1e-12)
            tail = nbinom.sf(k_max - n_s, n_s, rate)
            assert d.metadata["truncation_mass"] == pytest.approx(tail, rel=0, abs=1e-12)


@pytest.mark.parametrize("rate", (0.05, 0.5, 0.9))
def test_models_match_scipy_at_corpus_scale(rate):
    # the top user of a 54,000-event Zipf(1.5) stream is seen about 20,000 times
    n = 20_000
    np.testing.assert_allclose(binomial_sample_model(n, rate).probabilities,
                               binom.pmf(np.arange(n + 1), n, rate), rtol=0, atol=1e-11)
    pmf = nbinom.pmf(np.arange(n - 9), 10, rate)
    np.testing.assert_allclose(negbinom_complete_model(10, rate, n).probabilities, pmf / pmf.sum(),
                               rtol=0, atol=1e-11)


def test_complete_model_with_no_representable_mass_raises():
    # every in-range mass of a 150-times entity at rate 1e-3 underflows to 0
    with pytest.raises(ValueError, match="positive total mass"):
        negbinom_complete_model(150, 1e-3, k_max=200)


class TestFrequencyInversion:
    def test_identity_at_rate_one(self):
        fv = FrequencyVector({1: 10, 2: 4, 3: 1})
        result = estimate_complete_frequency_vector(fv, 1.0, k_max=20)
        for k in range(1, 21):
            assert result.f_hat[k] == pytest.approx(fv[k], abs=1e-6)

    def test_hand_forward_model_inverts(self):
        # forward model of {1:100, 2:50} at rate .5, by hand:
        #   F[1] = .5*100 + 2*.5*.5*50 = 75 ;  F[2] = .25*50 = 12.5
        A = binomial_kernel(2, 0.5)
        assert A[0, 0] == pytest.approx(0.5)
        assert A[0, 1] == pytest.approx(0.5)
        assert A[1, 1] == pytest.approx(0.25)
        f_sample = FrequencyVector({1: 75, 2: 12.5})
        result = estimate_complete_frequency_vector(f_sample, 0.5, k_max=30)
        assert result.f_hat[1] == pytest.approx(100, abs=0.5)
        assert result.f_hat[2] == pytest.approx(50, abs=0.5)

    def test_forward_backward_consistency(self, rng):
        # noiseless round trip at <= 1% per-bin relative error
        k_max = 40
        for rate in (0.3, 0.5272, 0.8):
            support = int(rng.integers(5, k_max // 2))
            raw = np.sort(rng.uniform(1, 1000, size=support))[::-1]
            x = np.zeros(k_max)
            x[:support] = raw
            b = binomial_kernel(k_max, rate) @ x
            f_sample = FrequencyVector({k: v for k, v in zip(range(1, k_max + 1), b) if v > 1e-12})
            result = estimate_complete_frequency_vector(f_sample, rate, k_max=k_max)
            got = result.as_array(k_max)
            rel = np.abs(got - x) / np.maximum(x, 1.0)
            assert rel.max() <= 0.01

    @pytest.mark.parametrize("k_max", [0, -3])
    def test_k_max_below_one_rejected(self, k_max):
        with pytest.raises(ValueError, match="k_max"):
            estimate_complete_frequency_vector(FrequencyVector({1: 3}), 0.5, k_max=k_max)

    @pytest.mark.parametrize("k_max", [K_MAX_CEILING + 1, 99999999999999])
    def test_k_max_above_ceiling_rejected(self, k_max):
        with pytest.raises(ValueError, match="k_max"):
            estimate_complete_frequency_vector(FrequencyVector({1: 3}), 0.5, k_max=k_max)

    def test_tail_at_tiny_rate_without_warning(self):
        # every in-range complete-frequency mass of the 150-times entity underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate_complete_frequency_vector(FrequencyVector({1: 50, 150: 1}), 1e-3, k_max=200)
        assert result.truncation_mass == 1.0

    def test_keys_above_k_max_clamped_with_warning(self):
        fv = FrequencyVector({1: 10, 55: 2})
        with pytest.warns(UserWarning, match="clamped"):
            result = estimate_complete_frequency_vector(fv, 0.9, k_max=50)
        assert result.clamped_entities == 2

    def test_monotone_and_non_negative(self, rng):
        counts = Counter(int(k) for k in rng.zipf(2.0, size=5000) if k <= 60)
        fv = FrequencyVector(counts)
        result = estimate_complete_frequency_vector(fv, 0.55, k_max=60)
        arr = result.as_array(60)
        assert np.all(arr >= 0)
        assert np.all(np.diff(arr) <= 1e-9)


class TestEstimateMissingEntities:
    def test_rate_one_nothing_missing(self):
        assert estimate_missing_entities(FrequencyVector({1: 10}), 1.0) == 0.0

    def test_single_bin_arithmetic(self):
        assert estimate_missing_entities(FrequencyVector({1: 100}), 0.5) == pytest.approx(50.0)

    def test_bernoulli_population_estimate(self, rng):
        # 10^4-entity desk version of the corpus-scale check
        n_entities = 10_000
        rate = 0.5272
        ks = np.minimum(rng.zipf(2.2, size=n_entities), 80)
        events = [ev(i, i, user=int(u))
                  for i, u in enumerate(np.repeat(np.arange(n_entities), ks))]
        sampled = bernoulli_bundle(StreamBundle(events), rate, seed=5)
        fv_sample = frequency_vector_of(sampled, "user")
        truly_missing = n_entities - fv_sample.total_entities()
        result = estimate_complete_frequency_vector(fv_sample, rate, k_max=100)
        est = estimate_missing_entities(result.f_hat, rate)
        assert est == pytest.approx(truly_missing, rel=0.05)


class TestBernoulliModelFidelity:
    def test_d_statistic_against_model_small_cohort(self, rng):
        # empirical sample-frequency distribution vs the binomial mixture
        n_entities = 10_000
        rate = 0.5272
        ks = np.minimum(rng.zipf(2.2, size=n_entities), 100)
        n_s = rng.binomial(ks, rate)
        vals, freqs = np.unique(n_s, return_counts=True)
        observed = DiscreteDistribution.from_weights(vals, freqs)
        model = binomial_mixture_model(FrequencyVector(Counter(map(int, ks))), rate)
        assert ks_d_statistic(observed, model) <= 0.01


class TestFrequencyVectorOf:
    def test_empty(self):
        assert frequency_vector_of(StreamBundle(), "user").counts == {}

    def test_three_events_one_user(self):
        events = [ev(i, i, user=7) for i in range(3)]
        assert frequency_vector_of(StreamBundle(events), "user").counts == {3: 1}

    def test_hashtags_counted_once_per_event(self):
        events = [
            ev(0, 0, hashtags=("a", "b")),
            ev(1, 1, hashtags=("a", "a")),  # duplicate within one event
            ev(2, 2, hashtags=("b",)),
            ev(3, 3, hashtags=()),
            ev(4, 4, hashtags=("c",)),
        ]
        occ = entity_occurrences(StreamBundle(events), "hashtag")
        assert occ == {"a": 2, "b": 2, "c": 1}
        assert frequency_vector_of(StreamBundle(events), "hashtag").counts == {1: 1, 2: 2}

    def test_urls_key(self):
        events = [ev(0, 0, urls=("x",)), ev(1, 1, urls=("x", "y"))]
        assert frequency_vector_of(StreamBundle(events), "url").counts == {1: 1, 2: 1}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            frequency_vector_of(StreamBundle(), "retweeter")
