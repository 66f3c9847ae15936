"""Property tests for the threshold sampler, segments, thread mapping and the merge.

The threshold sampler must account for every input event: what it delivers
plus the final cumulative missed counter is the input count, for every
threshold and window anchor.  Its messages bound segments whose counter
difference is exactly the volume dropped inside them.  ``map_threads``
must separate interleaved counters of parallel sampler threads.
``merge_streams`` must be idempotent and must not depend on the order of
its bundles.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from streamfid.model import RateLimitMessage, StreamBundle, merge_streams
from streamfid.ratelimit import estimate_missing, map_threads, segment_stream
from streamfid.simulate import rate_limited_bundle

from conftest import ev


@st.composite
def event_lists(draw, max_size=80):
    # timestamps may repeat (ids break the tie) and cluster within a few seconds
    ts = sorted(draw(st.lists(st.integers(0, 5_000), max_size=max_size)))
    return [ev(i, t, user=draw(st.integers(0, 4))) for i, t in enumerate(ts)]


@settings(derandomize=True, deadline=None)
@given(event_lists(), st.integers(1, 12), st.integers(0, 999))
def test_delivered_plus_final_missed_equals_input(events, threshold, anchor_ms):
    sample = rate_limited_bundle(StreamBundle(events), threshold, anchor_ms)
    missed = sample.messages[-1].cumulative_missed if sample.messages else 0
    assert len(sample) + missed == len(events)


@st.composite
def threshold_samples(draw):
    threshold, anchor_ms = draw(st.integers(1, 6)), draw(st.integers(0, 999))
    # the first and last millisecond of a window are where an event is most
    # easily counted in the wrong segment, so they are drawn often
    edge = st.builds(lambda w, d: max(anchor_ms + 1000 * w + d, 0),
                     st.integers(-1, 5), st.sampled_from((-1, 0)))
    ts = sorted(draw(st.lists(st.one_of(st.integers(0, 6_000), edge), max_size=200)))
    complete = StreamBundle([ev(i, t) for i, t in enumerate(ts)])
    return complete, rate_limited_bundle(complete, threshold, anchor_ms)


@settings(derandomize=True, deadline=None)
@given(threshold_samples())
def test_segment_counters_are_exact(case):
    complete, sample = case
    segments = segment_stream(complete, sample)
    # the complete stream has no messages, so every consecutive pair bounds a segment
    assert len(segments) == max(len(sample.msg_ts) - 1, 0)
    for s in segments:
        assert estimate_missing(s) == s.true_missing


@st.composite
def thread_interleavings(draw):
    """Interleaved cumulative counters of k threads, and the per-thread lists.

    Each thread counts in its own value band.  Threads start in descending
    band order, as when parallel counters are observed mid-stream; after
    that the interleaving is arbitrary.
    """
    k = draw(st.integers(1, 4))
    steps = [draw(st.lists(st.integers(1, 50), min_size=1, max_size=25)) for _ in range(k)]
    order = draw(st.permutations([t for t in range(k) for _ in steps[t]]))
    starts = list(dict.fromkeys(order))
    counters = {}
    for rank, t in enumerate(starts):
        total = (k - rank) * 10_000
        counters[t] = [total := total + inc for inc in steps[t]]
    pending = {t: iter(c) for t, c in counters.items()}
    return [next(pending[t]) for t in order], [counters[t] for t in starts]


@settings(derandomize=True, deadline=None)
@given(thread_interleavings())
def test_map_threads_recovers_interleaved_counters(case):
    values, threads = case
    assert map_threads(values, max_threads=len(threads)) == threads


@st.composite
def overlapping_bundles(draw):
    # subsets of one master stream, as from overlapping crawlers, so shared
    # ids never conflict
    master = draw(event_lists(max_size=40))
    n = draw(st.integers(1, 4))
    bundles = []
    for _ in range(n):
        keep = draw(st.lists(st.booleans(), min_size=len(master), max_size=len(master)))
        stamps = sorted(draw(st.lists(st.integers(0, 5_000), max_size=4)))
        counters = sorted(draw(st.lists(st.integers(0, 50), min_size=len(stamps),
                                        max_size=len(stamps))))
        messages = [RateLimitMessage(t, c) for t, c in zip(stamps, counters)]
        bundles.append(StreamBundle.build([e for e, k in zip(master, keep) if k], messages))
    return bundles


@settings(derandomize=True, deadline=None)
@given(overlapping_bundles())
def test_merge_is_idempotent(bundles):
    for b in bundles:
        assert merge_streams([b, b]) == merge_streams([b])
    merged = merge_streams(bundles)
    assert merge_streams([merged, merged]) == merged


@settings(derandomize=True, deadline=None)
@given(overlapping_bundles(), st.randoms(use_true_random=False))
def test_merge_is_commutative(bundles, random):
    shuffled = list(bundles)
    random.shuffle(shuffled)
    a, b = merge_streams(bundles), merge_streams(shuffled)
    assert a.events == b.events
    assert a.messages == b.messages
