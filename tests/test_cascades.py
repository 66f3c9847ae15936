import re

import numpy as np
import pytest

from streamfid.cascades import ccdf, ccdf_tables, compare_cascades, inter_arrival_distribution, reconstruct_cascades
from streamfid.model import StreamBundle
from streamfid.simulate import bernoulli_bundle

from conftest import ev
from workloads import cascade_corpus


def cascade_events(root_ts=0, gaps_s=(), followers=None, root_id=0, with_root=True):
    events = [ev(root_id, root_ts, user=1)] if with_root else []
    t = root_ts
    followers = followers or [0] * len(gaps_s)
    for i, (g, f) in enumerate(zip(gaps_s, followers)):
        t += int(g * 1000)
        events.append(ev(1000 + root_id * 100 + i, t, user=2 + i, kind="retweet",
                         root_id=root_id, followers=f))
    return events


def make_cascade(**spec):
    return cascade_of(*cascade_events(**spec))


def cascade_of(*events):
    """The one cascade of ``events``."""
    (cascade,) = reconstruct_cascades(StreamBundle.build(events))
    return cascade


class TestReconstructCascades:
    def test_root_plus_two_retweets(self):
        events = [
            ev(0, 0, user=1),
            ev(1, 10, user=2, kind="retweet", root_id=0),
            ev(2, 20, user=3, kind="retweet", root_id=0),
        ]
        cascades = reconstruct_cascades(StreamBundle(events))
        assert len(cascades) == 1
        assert cascades[0].size == 3
        assert not cascades[0].is_rootless

    def test_orphan_retweets_flagged_rootless(self):
        events = [ev(1, 10, user=2, kind="retweet", root_id=77)]
        cascades = reconstruct_cascades(StreamBundle(events))
        assert len(cascades) == 1
        assert cascades[0].is_rootless
        assert cascades[0].size == 1

    def test_twenty_event_fixture_hand_grouped(self):
        # roots 0,1,2 ; cascade0: 5 retweets ; cascade1: 3 ; orphans of 99: 2
        # plus quotes/replies that stay out by default, and a lone root
        events = [ev(0, 0, user=1), ev(1, 5, user=2), ev(2, 9, user=3)]
        eid = 3
        for i in range(5):
            events.append(ev(eid, 10 + i, user=4 + i, kind="retweet", root_id=0)); eid += 1
        for i in range(3):
            events.append(ev(eid, 20 + i, user=4 + i, kind="retweet", root_id=1)); eid += 1
        for i in range(2):
            events.append(ev(eid, 30 + i, user=4 + i, kind="retweet", root_id=99)); eid += 1
        events.append(ev(eid, 40, user=9, kind="quote", root_id=0)); eid += 1
        events.append(ev(eid, 41, user=9, kind="reply", root_id=1)); eid += 1
        events.append(ev(eid, 42, user=9, kind="quote", root_id=2)); eid += 1
        events = StreamBundle(events)
        cascades = {c.root_id: c for c in reconstruct_cascades(events)}
        assert set(cascades) == {0, 1, 2, 99}
        assert cascades[0].size == 6
        assert cascades[1].size == 4
        assert cascades[2].size == 1
        assert cascades[99].is_rootless and len(cascades[99].retweets) == 2
        with_quotes = {c.root_id: c for c in reconstruct_cascades(events, include_quotes=True)}
        assert with_quotes[0].size == 7
        assert with_quotes[2].size == 2

    def test_retweets_sorted_by_time(self):
        events = [
            ev(0, 0, user=1),
            ev(2, 30, user=3, kind="retweet", root_id=0),
            ev(1, 10, user=2, kind="retweet", root_id=0),
        ]
        c = reconstruct_cascades(StreamBundle.build(events))[0]
        assert [e.id for e in c.retweets] == [1, 2]


class TestCompareCascades:
    def test_identical_sets_fully_observed(self):
        cascades = reconstruct_cascades(
            StreamBundle.build([e for i in range(3) for e in cascade_events(gaps_s=(1, 2), root_id=i)]))
        rows, summary = compare_cascades(cascades, list(cascades))
        assert summary.fully_observed == 3
        assert summary.fully_observed_fraction == 1.0
        assert all(r.is_fully_observed for r in rows)

    def test_root_only_partial(self):
        complete = [make_cascade(gaps_s=(1, 2), root_id=0)]
        sample = [make_cascade(gaps_s=(), root_id=0)]
        rows, summary = compare_cascades(complete, sample)
        assert rows[0].sample_size == 1 and rows[0].complete_size == 3
        assert summary.fully_observed == 0

    def test_bernoulli_fraction_matches_enumeration(self):
        events = StreamBundle(cascade_corpus(5, n_cascades=150, min_retweets=2, pareto_scale=2))
        sampled = bernoulli_bundle(events, 0.5272, seed=8)
        complete = reconstruct_cascades(events)
        sample = [c for c in reconstruct_cascades(sampled) if not c.is_rootless]
        rows, summary = compare_cascades(complete, sample)
        by_id = {c.root_id: c for c in complete}
        expected = sum(
            1 for c in sample
            if {e.id for e in c.events()} == {e.id for e in by_id[c.root_id].events()}
        )
        assert summary.fully_observed == expected
        assert summary.sample_cascades <= summary.complete_cascades

    def test_unknown_sample_cascade_rejected(self):
        # ids below, between and above the complete ones, and a complete set of none
        complete = reconstruct_cascades(StreamBundle([ev(i, i) for i in (2, 4, 6)]))
        for known, sample, named in ((complete, [4, 0, 5, 7], "[0, 5, 7]"), ([], [1], "[1]")):
            with pytest.raises(ValueError, match=re.escape(f"not present in complete set: {named}")):
                compare_cascades(known, reconstruct_cascades(StreamBundle.build([ev(i, i) for i in sample])))

    def test_negative_retweet_threshold_rejected(self):
        # -1 would count every cascade as large
        cascades = [make_cascade(root_id=0)]
        with pytest.raises(ValueError, match="retweet_threshold"):
            compare_cascades(cascades, cascades, retweet_threshold=-1)

    def test_cascades_of_two_sets_rejected(self):
        complete = [make_cascade(root_id=0), make_cascade(root_id=1)]
        with pytest.raises(ValueError, match="several sets"):
            compare_cascades(complete, complete[:1])


class TestInterArrival:
    def test_hand_computed_gaps(self):
        c = make_cascade(root_ts=0, gaps_s=(10, 20))
        dist = inter_arrival_distribution([c])
        assert dist.deltas_s.tolist() == [10.0, 20.0]
        assert dist.median_s == 15.0

    def test_single_event_cascades_warn_empty(self):
        with pytest.warns(UserWarning, match="no inter-arrival"):
            dist = inter_arrival_distribution([make_cascade(gaps_s=())])
        assert dist.median_s is None

    def test_root_gap_pooled(self):
        c = make_cascade(root_ts=0, gaps_s=(7, 5))
        dist = inter_arrival_distribution([c])
        assert dist.deltas_s.tolist() == [5.0, 7.0]

    def test_ccdf_on_explicit_grid(self):
        c = make_cascade(root_ts=0, gaps_s=(10, 20, 30))
        dist = inter_arrival_distribution([c])
        header, table = ccdf_tables({"one": dist}, compare_cascades([c], [c])[0], ())["interarrival_one"]
        assert header == ("x_s", "ccdf") and len(table) == 200
        assert [float(x) for x, _ in table] == pytest.approx(np.geomspace(10.0, 30.1, 200).tolist(), abs=5e-4)
        assert table[0][1] == "0.666667" and table[-1][1] == "0.000000"
        assert ccdf(dist.deltas_s, [5, 15, 25, 35]).tolist() == pytest.approx([1.0, 2 / 3, 1 / 3, 0.0])

    def test_cascade_report_pools_rooted_cascades_on_both_sides(self):
        # cascade 0 is rooted, with gaps of 10 s and 20 s; the retweets of
        # root 1, which the stream lacks, are 100 s apart
        complete = reconstruct_cascades(StreamBundle.build(
            cascade_events(gaps_s=(10, 20)) + cascade_events(root_ts=500, gaps_s=(0, 100), root_id=1, with_root=False)))
        assert [c.is_rootless for c in complete] == [False, True]
        rows, summary = compare_cascades(complete, complete)
        rooted = inter_arrival_distribution(complete.rooted())
        tables = ccdf_tables({"complete": rooted, "sample": rooted}, rows, ())
        assert tables["interarrival_complete"] == tables["interarrival_sample"]
        assert rooted.deltas_s.tolist() == [10.0, 20.0]
        assert tables["interarrival_complete"][1][-1] == ("20.100", "0.000000")
        assert summary.median_interarrival_complete_s == rooted.median_s == 15.0

    def test_distribution_without_gaps_gets_no_table(self):
        c = make_cascade(gaps_s=())
        with pytest.warns(UserWarning, match="no inter-arrival"):
            dist = inter_arrival_distribution([c])
        assert dist.deltas_s.tolist() == [] and ccdf_tables({"one": dist}, compare_cascades([c], [c])[0], ()) == {}

    def test_sample_dominates_complete(self):
        events = StreamBundle(cascade_corpus(11, n_cascades=300))
        sampled = bernoulli_bundle(events, 0.5, seed=2)
        dc = inter_arrival_distribution(reconstruct_cascades(events))
        ds = inter_arrival_distribution(
            [c for c in reconstruct_cascades(sampled) if not c.is_rootless])
        for q in np.arange(0.05, 1.0, 0.05):
            assert ds.quantile(q) >= dc.quantile(q)


def reach_ratio(sample, complete, window_s=float("inf")):
    """The reach ratio of ``sample``'s row in ``compare_cascades``."""
    (row,), _ = compare_cascades([complete], [sample], reach_windows_s=(window_s,))
    return row.relative_potential_reach[window_s]


class TestRelativePotentialReach:
    def test_identical_is_one(self):
        c = make_cascade(gaps_s=(1, 2), followers=[10, 20])
        assert reach_ratio(c, c) == 1.0

    def test_half_when_one_of_two_equal_retweeters_kept(self):
        complete = make_cascade(gaps_s=(1, 2), followers=[15, 15])
        sample = cascade_of(complete.root, *complete.retweets[:1])
        assert reach_ratio(sample, complete) == 0.5

    def test_window_restricts_both_sides(self):
        complete = make_cascade(gaps_s=(100, 700), followers=[10, 90])
        sample = cascade_of(complete.root, *complete.retweets[1:])
        # within 600 s only the first retweet exists; the sample missed it
        assert reach_ratio(sample, complete, window_s=600) == 0.0
        assert reach_ratio(sample, complete) == pytest.approx(0.9)

    def test_window_holds_its_last_millisecond(self):
        complete = make_cascade(gaps_s=(600, 1), followers=[10, 30])
        sample = cascade_of(complete.root, *complete.retweets[:1])
        assert reach_ratio(sample, complete, window_s=600) == 1.0
        assert reach_ratio(sample, complete, window_s=599.999) is None

    def test_zero_over_zero_undefined(self):
        complete = make_cascade(gaps_s=(700,), followers=[10])
        sample = cascade_of(complete.root)
        assert reach_ratio(sample, complete, window_s=600) is None

    def test_monotone_as_retweets_removed(self):
        complete = make_cascade(gaps_s=(1, 2, 3, 4), followers=[5, 10, 20, 40])
        prev = 1.0
        for keep in range(4, -1, -1):
            sample = cascade_of(complete.root, *complete.retweets[:keep])
            ratio = reach_ratio(sample, complete)
            assert ratio <= prev
            prev = ratio
