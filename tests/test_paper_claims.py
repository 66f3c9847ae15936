"""Paper-claims ledger: one test per finding of the paper's abstract that holds.

Each test runs simulator streams at fixed seeds and bounds the measurement
that backs the claim; its docstring gives the measured numbers.  The
claims, numbered as in the abstract:

1. the rate limit message indicates the missing volume: criterion 1 of
   ``tests/test_acceptance.py`` (median APE 0 on clean segments);
2. hourly rates follow the diurnal rhythm: here;
3. millisecond rates follow the sampler's implementation: not tested, as
   the message-derived 50 ms-band profile is off by 0.140 today (ROADMAP
   item 3 adds the test when it fixes the profile);
4. a Bernoulli model fits the entity distributions of a rate-limited
   sample: here (criterion 3 checks the model on a Bernoulli sample);
5. the true ranking can be estimated: partly, by criterion 6 on
   hour-biased input;
6. sampling alters the network structure, and some components are more
   likely preserved: here for the bow-tie; not tested for clusters, as the
   simulator plants none to compare against (ROADMAP item 14);
7. cascade inter-arrival times and influence change: criterion 8 for the
   inter-arrival times, here for influence (relative potential reach).
"""

import numpy as np
import pytest

from streamfid.breakdown import sampling_rate_breakdown
from streamfid.cascades import compare_cascades, reconstruct_cascades
from streamfid.entity import (DiscreteDistribution, FrequencyVector, binomial_mixture_model, entity_occurrences,
                              ks_d_statistic)
from streamfid.graphs import IN, LSCC, OUT, bowtie_decompose, bowtie_flow, build_retweet_network
from streamfid.simulate import GeneratorConfig, generate_stream, rate_limited_bundle

# the simulate command's default --type-mix
CLI_TYPE_MIX = {"root": 0.25, "retweet": 0.55, "quote": 0.08, "reply": 0.12}


def test_claim_2_hourly_rate_falls_as_the_diurnal_load_rises():
    """Six hours on the rising half of the diurnal sinusoid (amplitude 0.9,
    base rate 60, cascade fraction 0.5, threshold 20, seed 1).  Measured:
    the hourly load rises 113,137, 139,229, 162,596, 179,154, 193,540,
    200,013 events while the rate falls 0.634, 0.517, 0.443, 0.402, 0.372,
    0.360, a drop of 0.274."""
    complete = generate_stream(GeneratorConfig(duration_s=6 * 3600, base_rate=60, diurnal_amplitude=0.9,
                                               cascade_fraction=0.5, type_mix=CLI_TYPE_MIX, seed=1))
    rows = sampling_rate_breakdown(complete, rate_limited_bundle(complete, threshold=20), "hour")
    assert [r.bucket for r in rows] == list(range(6))
    loads, rates = [r.complete_count for r in rows], [r.rate for r in rows]
    assert all(a < b for a, b in zip(loads, loads[1:]))
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert rates[0] - rates[-1] > 0.25


@pytest.fixture(scope="module")
def threshold_sample():
    complete = generate_stream(GeneratorConfig(duration_s=1200, base_rate=120, cascade_fraction=0.5,
                                               type_mix=CLI_TYPE_MIX, seed=1))
    return complete, rate_limited_bundle(complete, threshold=50)


@pytest.mark.parametrize("key", ["user", "hashtag"])
def test_claim_4_bernoulli_model_fits_the_rate_limited_entities(threshold_sample, key):
    """A 20 min stream (base rate 120, cascade fraction 0.5, seed 1) thinned
    at threshold 50 to a delivered rate of 0.886.  Each entity of the
    complete stream is seen 0 or more times in the sample; the KS D of
    those counts against ``binomial_mixture_model`` of the complete
    frequency vector at the delivered rate measured 0.0062 for users and
    0.0066 for hashtags."""
    complete, sample = threshold_sample
    rate = len(sample) / len(complete)
    assert 0.85 < rate < 0.9
    in_complete, in_sample = entity_occurrences(complete, key), entity_occurrences(sample, key)
    seen = [in_sample.get(entity, 0) for entity in in_complete]
    observed = DiscreteDistribution.from_weights(*np.unique(seen, return_counts=True))
    model = binomial_mixture_model(FrequencyVector.from_occurrences(in_complete.values()), rate)
    assert ks_d_statistic(observed, model) < 0.01


# threshold: (largest LSCC share missing, range of the IN and OUT shares)
BOWTIE_MISSING_BOUNDS = {50: (0.04, (0.12, 0.22)), 30: (0.22, (0.55, 0.70))}


@pytest.mark.parametrize("seed", [1, 2, 3, 42])
def test_claim_6_the_bowtie_core_is_preserved_better_than_its_wings(seed):
    """The README walkthrough's 600 s stream (base rate 120, cascade
    fraction 0.5) thinned by the threshold sampler at anchor 657.  The share
    of each complete bow-tie component's users that are absent from the
    sample's retweet network, over seeds 1, 2, 3 and 42, measured: at
    threshold 50 (rate 0.90-0.91) LSCC 0.008-0.020, IN 0.148-0.166, OUT
    0.140-0.188; at threshold 30 (rate 0.56-0.57) LSCC 0.128-0.173, IN
    0.584-0.651, OUT 0.609-0.629.  Tendrils and Disconnected hold 7-16
    users, too few to bound."""
    complete = generate_stream(GeneratorConfig(duration_s=600, base_rate=120, cascade_fraction=0.5,
                                               type_mix=CLI_TYPE_MIX, seed=seed))
    components = bowtie_decompose(build_retweet_network(complete)).components
    for threshold, (lscc_max, (low, high)) in BOWTIE_MISSING_BOUNDS.items():
        sample = rate_limited_bundle(complete, threshold, 657)
        flow = bowtie_flow(components, bowtie_decompose(build_retweet_network(sample)).components)
        missing = dict(zip(flow.row_labels, flow.counts[:, -1] / flow.counts.sum(axis=1).clip(1)))
        assert missing[LSCC] < lscc_max, threshold
        assert low < missing[IN] < high and low < missing[OUT] < high, threshold
        assert missing[LSCC] < min(missing[IN], missing[OUT]), threshold


# threshold: range of the share of observed cascades whose reach the sample underestimates
REACH_BELOW_ONE_BOUNDS = {50: (0.10, 0.17), 30: (0.45, 0.57)}


@pytest.mark.parametrize("seed", [1, 2, 3, 42])
def test_claim_7_sampling_underestimates_the_reach_of_cascades(seed):
    """The streams of claim 6, thinned as there.  Each observed cascade's
    relative potential reach (window inf: the followers of its sampled
    retweets over those of its complete ones), over seeds 1, 2, 3 and 42,
    measured: at threshold 50 (delivered share 0.899-0.910) a mean of
    0.897-0.906, with 0.128-0.140 of the cascades below 1; at threshold 30
    (0.562-0.574) a mean of 0.549-0.570, with 0.494-0.526 below 1.  The
    mean is within 0.018 of the delivered share."""
    complete = generate_stream(GeneratorConfig(duration_s=600, base_rate=120, cascade_fraction=0.5,
                                               type_mix=CLI_TYPE_MIX, seed=seed))
    cascades = reconstruct_cascades(complete)
    for threshold, (low, high) in REACH_BELOW_ONE_BOUNDS.items():
        sample = rate_limited_bundle(complete, threshold, 657)
        rows, _ = compare_cascades(cascades, reconstruct_cascades(sample), reach_windows_s=(float("inf"),))
        reach = rows.reach[float("inf")]
        reach = reach[~np.isnan(reach)]
        assert abs(reach.mean() - len(sample) / len(complete)) < 0.02, threshold
        assert low < (reach < 1).mean() < high, threshold
