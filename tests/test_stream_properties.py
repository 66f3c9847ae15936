"""Property tests for the threshold sampler and the stream merge.

The threshold sampler must account for every input event: what it delivers
plus the final cumulative missed counter is the input count, for every
threshold and window anchor.  ``merge_streams`` must be idempotent and must
not depend on the order of its bundles (apart from ``meta``, where the
first bundle's keys win by design).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from streamfid.model import RateLimitMessage, StreamBundle, merge_streams
from streamfid.simulate import rate_limited_sample

from conftest import ev


@st.composite
def event_lists(draw, max_size=80):
    # timestamps may repeat (ids break the tie) and cluster within a few seconds
    ts = sorted(draw(st.lists(st.integers(0, 5_000), max_size=max_size)))
    return [ev(i, t, user=draw(st.integers(0, 4))) for i, t in enumerate(ts)]


@settings(derandomize=True, deadline=None)
@given(event_lists(), st.integers(1, 12), st.integers(0, 999))
def test_delivered_plus_final_missed_equals_input(events, threshold, anchor_ms):
    delivered, messages = rate_limited_sample(events, threshold, anchor_ms)
    missed = messages[-1].cumulative_missed if messages else 0
    assert len(delivered) + missed == len(events)


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
