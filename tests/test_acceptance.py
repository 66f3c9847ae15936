"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible under
``pytest -s``) and enforces both the stated tolerance and the runtime
budget.  Workload sizes are desk-scale stand-ins for the corpus-scale
numbers the methods were developed on.
"""

import time
from collections import Counter

import numpy as np
import pytest

from streamfid.entity import (
    DiscreteDistribution,
    binomial_mixture_model,
    binomial_kernel,
    binomial_sample_model,
    estimate_complete_frequency_vector,
    estimate_missing_entities,
    frequency_vector_of,
    ks_d_statistic,
    negbinom_complete_model,
)
from streamfid.cascades import inter_arrival_distribution, reconstruct_cascades
from streamfid.graphs import Digraph, bowtie_decompose
from streamfid.model import FrequencyVector, StreamBundle
from streamfid.ranking import kendall_tau, temporal_rates_from_messages, top_k_rank_table
from streamfid.ratelimit import estimate_missing, map_threads, segment_stream, total_missing_from_threads, validate
from streamfid.simulate import (
    GeneratorConfig,
    InterArrivalModel,
    bernoulli_bundle,
    generate_stream,
    rate_limited_bundle,
)

from conftest import ev
from test_graphs import brute_force_bowtie
from workloads import cascade_corpus, hour_biased_workload, thread_counter_instance


def report(criterion, ok, elapsed, limit, detail):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {criterion}] {status} ({elapsed:.1f}s / limit {limit:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds {limit}s"


def zipf_population(rng, n_entities=100_000, exponent=2.1, cap=400):
    ks = np.arange(1, cap + 1, dtype=float)
    w = ks ** -exponent
    cdf = np.cumsum(w / w.sum())
    return np.searchsorted(cdf, rng.random(n_entities), side="right") + 1


def test_criterion_1_rate_limit_accounting_exact():
    t0 = time.perf_counter()
    cfg = GeneratorConfig(
        duration_s=3600.0,
        base_rate=100.0,
        cascade_fraction=0.3,
        type_mix={"root": 0.4, "retweet": 0.45, "quote": 0.05, "reply": 0.1},
        inter_arrival_model=InterArrivalModel("power-law", alpha=1.5, xmin_s=0.5),
        seed=101,
    )
    complete = generate_stream(cfg)
    sample = rate_limited_bundle(complete, threshold=50, anchor_ms=657)
    segments = segment_stream(complete, sample)
    exact = all(estimate_missing(s) == s.true_missing for s in segments)
    median_ape = validate(segments).median_ape
    elapsed = time.perf_counter() - t0
    report(
        1,
        bool(segments) and exact and median_ape == 0.0,
        elapsed,
        10.0,
        f"{len(segments)} segments, all estimates exact, median APE {median_ape}",
    )


def test_criterion_2_thread_mapping_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    hits = 0
    trials = 1000
    for _ in range(trials):
        seq, truth = thread_counter_instance(rng, n_threads=4)
        hits += total_missing_from_threads(map_threads(seq, 4)) == truth
    elapsed = time.perf_counter() - t0
    report(2, hits == trials, elapsed, 5.0, f"{hits}/{trials} interleavings recovered exactly")


def test_criterion_3_bernoulli_model_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    rate = 0.5272
    n_c = zipf_population(rng)
    events = [
        ev(i, int(t), user=int(u))
        for i, (t, u) in enumerate(
            zip(np.sort(rng.integers(0, 14 * 86_400_000, size=n_c.sum())), np.repeat(np.arange(len(n_c)), n_c))
        )
    ]
    sampled = bernoulli_bundle(StreamBundle(events), rate, seed=31)
    per_user = np.bincount(sampled.table.user, minlength=len(n_c))
    vals, freqs = np.unique(per_user, return_counts=True)
    observed = DiscreteDistribution.from_weights(vals, freqs)
    model = binomial_mixture_model(FrequencyVector(Counter(map(int, n_c))), rate)
    d = ks_d_statistic(observed, model)
    elapsed = time.perf_counter() - t0
    report(3, d <= 0.01, elapsed, 30.0, f"D-statistic {d:.5f} <= 0.01 over {len(n_c)} users")


def test_criterion_4_missing_entity_estimation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    rate = 0.5272
    n_c = zipf_population(rng)
    events = [ev(i, i, user=int(u)) for i, u in enumerate(np.repeat(np.arange(len(n_c)), n_c))]
    sampled = bernoulli_bundle(StreamBundle(events), rate, seed=41)
    fv_sample = frequency_vector_of(sampled, "user")
    truly_missing = len(n_c) - fv_sample.total_entities()
    with pytest.warns(UserWarning, match="clamped"):
        result = estimate_complete_frequency_vector(fv_sample, rate, k_max=100)
    estimate = estimate_missing_entities(result.f_hat, rate)
    rel_err = abs(estimate - truly_missing) / truly_missing
    total_rel_err = abs(result.f_hat.total_entities() - len(n_c)) / len(n_c)
    elapsed = time.perf_counter() - t0
    report(
        4,
        rel_err <= 0.02 and total_rel_err <= 0.02,
        elapsed,
        60.0,
        f"missing users: true {truly_missing}, estimated {estimate:.0f}, rel err {rel_err:.4f} <= 0.02; "
        f"recovered entity total rel err {total_rel_err:.4f} <= 0.02",
    )


def test_criterion_5_forward_backward_inversion():
    t0 = time.perf_counter()
    truth = FrequencyVector({1: 100, 2: 50, 3: 20})
    k_max = 100
    rate = 0.5
    x = np.array([truth[k] for k in range(1, k_max + 1)], dtype=float)
    forward = binomial_kernel(k_max, rate) @ x
    f_sample = FrequencyVector({k: v for k, v in zip(range(1, k_max + 1), forward) if v > 1e-12})
    result = estimate_complete_frequency_vector(f_sample, rate, k_max=k_max)
    errors = np.abs(result.as_array(k_max) - x)
    elapsed = time.perf_counter() - t0
    report(5, errors.max() <= 0.5, elapsed, 1.0, f"max per-bin error {errors.max():.2e} <= 0.5")


def test_criterion_6_rank_correction_beats_observed():
    t0 = time.perf_counter()
    improvements = []
    for seed in range(10):
        complete = hour_biased_workload(seed, n_users=500, secs_per_hour=600, threshold=2,
                                        rate_lo=0.4, rate_hi=0.8)
        sample = rate_limited_bundle(complete, threshold=2, anchor_ms=657)
        profile = temporal_rates_from_messages(sample, "hour")
        rep = top_k_rank_table(complete, sample, profile, k=100)
        improvements.append((seed, rep.kendall_observed, rep.kendall_estimated))
    ok = all(est > obs for _, obs, est in improvements)
    elapsed = time.perf_counter() - t0
    taus = ", ".join(f"s{s}:{o:.3f}->{e:.3f}" for s, o, e in improvements)
    report(6, ok, elapsed, 30.0, f"corrected tau strictly above observed at 10 seeds ({taus})")


def test_criterion_7_bowtie_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(10, 201))
        m = int(n * rng.uniform(0.5, 3.0))
        edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))}
        g = Digraph.from_edges({e: 1 for e in edges}, extra_nodes=range(n))
        if bowtie_decompose(g).components != brute_force_bowtie(range(n), edges):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(7, mismatches == 0, elapsed, 20.0, f"{100 - mismatches}/100 digraphs match the oracle")


def test_criterion_8_cascade_interarrival_dominance():
    t0 = time.perf_counter()
    events = StreamBundle(cascade_corpus(20260810, n_cascades=800, min_retweets=30))
    sampled = bernoulli_bundle(events, 0.5, seed=88)
    complete = reconstruct_cascades(events)
    sample = [c for c in reconstruct_cascades(sampled) if not c.is_rootless]
    dist_c = inter_arrival_distribution(complete)
    dist_s = inter_arrival_distribution(sample)
    quantiles = np.arange(0.05, 1.0, 0.05)
    dominated = all(dist_s.quantile(q) >= dist_c.quantile(q) for q in quantiles)
    ratio = dist_s.median_s / dist_c.median_s
    elapsed = time.perf_counter() - t0
    report(
        8,
        dominated and ratio >= 1.8,
        elapsed,
        30.0,
        f"dominance at {len(quantiles)} quantiles, median ratio {ratio:.2f} >= 1.8",
    )


def test_criterion_9_distribution_and_units_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    checks = []

    # every pmf sums to 1 +- 1e-9
    for n_c in (1, 5, 40):
        for rate in (0.1, 0.5272, 1.0):
            checks.append(abs(binomial_sample_model(n_c, rate).probabilities.sum() - 1) <= 1e-9)
    for n_s in (1, 7):
        for rate in (0.3, 0.9):
            checks.append(abs(negbinom_complete_model(n_s, rate, 150).probabilities.sum() - 1) <= 1e-9)
    checks.append(abs(binomial_mixture_model(FrequencyVector({1: 3, 9: 1}), 0.4).probabilities.sum() - 1) <= 1e-9)

    # D-statistic symmetry
    for _ in range(20):
        support_a = np.sort(rng.choice(30, size=5, replace=False))
        support_b = np.sort(rng.choice(30, size=4, replace=False))
        a = DiscreteDistribution.from_weights(support_a, rng.random(5) + 0.01)
        b = DiscreteDistribution.from_weights(support_b, rng.random(4) + 0.01)
        checks.append(abs(ks_d_statistic(a, b) - ks_d_statistic(b, a)) < 1e-12)

    # Kendall tau of identical / reversed lists
    checks.append(kendall_tau([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == pytest.approx(1.0))
    checks.append(kendall_tau([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]) == pytest.approx(-1.0))

    # conservation: delivered + dropped = input, for every sampler run
    for _ in range(30):
        n = int(rng.integers(1, 300))
        ts = np.sort(rng.integers(0, 4000, size=n))
        events = [ev(i, int(t) + i) for i, t in enumerate(ts)]
        sample = rate_limited_bundle(StreamBundle(events), int(rng.integers(1, 40)), int(rng.integers(0, 1000)))
        dropped = sample.messages[-1].cumulative_missed if sample.messages else 0
        checks.append(len(sample) + dropped == n)

    elapsed = time.perf_counter() - t0
    report(9, all(checks), elapsed, 5.0, f"{len(checks)} sanity checks")
