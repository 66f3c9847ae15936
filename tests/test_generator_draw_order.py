"""``generate_stream`` against the per-root loop it replaced.

``generate_by_loop`` is that loop, kept here as a test-only reference: it
makes every random draw one at a time, in the order that fixes every
output of the simulator.  The whole-array generator must give the same
bundle, column by column, string tables and widths included.
"""

import math
from operator import itemgetter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfid import model
from streamfid.model import StreamBundle, columns_of_rows
from streamfid.simulate import (CASCADE_SIZE_CAP, CASCADE_SIZE_TAIL, HASHTAGS_PER_ROOT, LANG_MIX, URL_POPULATION,
                                URLS_PER_ROOT, GeneratorConfig, InterArrivalModel, ZipfPopulation, _diurnal_factor,
                                generate_stream)


def _sample_ranks(cdf, rng, n):
    return np.searchsorted(cdf, rng.random(n), side="right")


class _UserDirectory:
    """Lazily assigns each user a frozen heavy-tailed follower count."""

    def __init__(self, rng):
        self._rng = rng
        self._followers = {}

    def followers(self, user_id):
        got = self._followers.get(user_id)
        if got is None:
            got = int(self._rng.pareto(1.2) * 50.0)
            self._followers[user_id] = got
        return got


def generate_by_loop(config):
    rng = np.random.default_rng(config.seed)
    users = _UserDirectory(rng)
    user_cdf = config.user_population.cdf()
    tag_cdf = config.hashtag_population.cdf()
    url_cdf = URL_POPULATION.cdf()
    langs = sorted(LANG_MIX)
    lang_p = np.array([LANG_MIX[l] for l in langs])
    lang_p = lang_p / lang_p.sum()

    n_seconds = int(math.ceil(config.duration_s))
    seconds = np.arange(n_seconds, dtype=float)
    p_root = config.type_mix.get("root", 0.0)
    rates = config.base_rate * p_root * _diurnal_factor(seconds % 86_400.0, config.diurnal_amplitude)
    if config.duration_s < n_seconds:
        rates[-1] *= config.duration_s - (n_seconds - 1)
    counts = rng.poisson(rates)
    total_roots = int(counts.sum())
    sec_idx = np.repeat(np.arange(n_seconds), counts)
    root_ts = sec_idx * 1000 + rng.integers(0, 1000, size=total_roots)
    root_ts = root_ts[root_ts < config.duration_s * 1000]
    total_roots = len(root_ts)
    root_ts.sort()

    child_mix = {t: p for t, p in config.type_mix.items() if t != "root" and p > 0}
    child_types = sorted(child_mix)
    child_p = np.array([child_mix[t] for t in child_types])
    child_p = child_p / child_p.sum() if child_types else child_p

    size_k = np.arange(1, CASCADE_SIZE_CAP + 1, dtype=float)
    size_w = size_k ** -CASCADE_SIZE_TAIL
    size_cdf = np.cumsum(size_w / size_w.sum())

    end_ms = int(config.duration_s * 1000)
    drafts = []
    root_users = _sample_ranks(user_cdf, rng, total_roots)
    root_langs = rng.choice(len(langs), size=total_roots, p=lang_p)
    spawn = rng.random(total_roots) < config.cascade_fraction if child_types else np.zeros(total_roots, bool)
    tag_counts = rng.poisson(HASHTAGS_PER_ROOT, size=total_roots)
    url_counts = rng.poisson(URLS_PER_ROOT, size=total_roots)

    seq = 0
    for i in range(total_roots):
        ts = int(root_ts[i])
        tags = () if not tag_counts[i] else tuple(
            f"h{r}" for r in sorted(set(_sample_ranks(tag_cdf, rng, int(tag_counts[i])))))
        us = () if not url_counts[i] else tuple(
            f"u{r}" for r in sorted(set(_sample_ranks(url_cdf, rng, int(url_counts[i])))))
        root_seq = seq
        drafts.append((seq, ts, int(root_users[i]), "root", None, tags, us, 0, langs[root_langs[i]]))
        seq += 1
        if not spawn[i]:
            continue
        n_children = int(np.searchsorted(size_cdf, rng.random(), side="right")) + 1
        gaps_ms = np.maximum(1, (config.inter_arrival_model.draw(rng, n_children) * 1000.0).astype(np.int64))
        child_ts = ts + np.cumsum(gaps_ms)
        child_ts = child_ts[child_ts < end_ms]
        if child_ts.size == 0:
            continue
        kinds = rng.choice(len(child_types), size=child_ts.size, p=child_p)
        child_users = _sample_ranks(user_cdf, rng, child_ts.size)
        for j in range(child_ts.size):
            kind = child_types[kinds[j]]
            inherit = kind in ("retweet", "quote")
            drafts.append((seq, int(child_ts[j]), int(child_users[j]), kind, root_seq,
                           tags if inherit else (), us if inherit else (), 0, langs[root_langs[i]]))
            seq += 1

    drafts.sort(key=itemgetter(1, 0))
    cols = columns_of_rows(drafts)
    seqs, root_seqs = cols["id"], cols["root"]
    id_of_seq = np.argsort(seqs)
    followers = np.fromiter(map(users.followers, map(itemgetter(2), drafts)), np.int64, len(drafts))
    return StreamBundle.from_columns({**cols, "id": np.arange(len(drafts)), "followers": followers,
                                      "root": np.where(root_seqs < 0, -1, id_of_seq[root_seqs])})


MIXES = (
    {"root": 1.0},
    {"root": 0.25, "retweet": 0.55, "quote": 0.08, "reply": 0.12},
    {"root": 0.5, "reply": 0.5},
    {"root": 0.3, "quote": 0.7},
    {"root": 0.6, "retweet": 0.4, "reply": 0.0},
)


@st.composite
def configs(draw):
    if draw(st.booleans()):
        gaps = InterArrivalModel("exponential")
    else:   # alpha from 0.5: a heavier tail can draw a gap past 2**63 ms, whose cast warns
        gaps = InterArrivalModel("power-law", alpha=draw(st.floats(0.5, 3.0)), xmin_s=draw(st.floats(0.01, 2.0)))
    return GeneratorConfig(
        duration_s=draw(st.one_of(st.integers(1, 20).map(float), st.floats(0.2, 20.0))),
        base_rate=draw(st.floats(0.5, 40.0)),
        diurnal_amplitude=draw(st.sampled_from((0.0, 0.3, 0.95))),
        user_population=ZipfPopulation(draw(st.integers(1, 300)), draw(st.floats(0.5, 2.5))),
        hashtag_population=ZipfPopulation(draw(st.integers(1, 40)), 1.2),
        cascade_fraction=draw(st.sampled_from((0.0, 0.3, 1.0))),
        inter_arrival_model=gaps,
        type_mix=draw(st.sampled_from(MIXES)),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
    )


def assert_same_columns(got, want):
    assert got.messages == want.messages == ()
    for name in model.EventTable._fields:
        a, b = getattr(got.table, name), getattr(want.table, name)
        if isinstance(b, tuple):
            assert a == b, name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@settings(derandomize=True, deadline=None, max_examples=300)
@given(configs())
def test_generate_stream_equals_the_per_root_loop(config):
    assert_same_columns(generate_stream(config), generate_by_loop(config))


GAPS_DRAWN = []


class _CountedGaps(InterArrivalModel):
    """An inter-arrival model that notes how many gaps each cascade draws."""

    def draw(self, rng, n):
        GAPS_DRAWN.append(n)
        return super().draw(rng, n)


FIXED = {
    # the simulator's benchmark shape, cut short: over 512 cascades, so the loop folds its blocks
    "cli-mix": GeneratorConfig(duration_s=60.0, base_rate=120.0, cascade_fraction=0.5,
                               type_mix=dict(MIXES[1]), seed=1),
    # every root spawns, and 29 of the 89 children drawn fall past the stream's end
    "cut-cascades": GeneratorConfig(duration_s=7.5, base_rate=30.0, cascade_fraction=1.0, type_mix=dict(MIXES[1]),
                                    inter_arrival_model=InterArrivalModel("power-law", alpha=0.8, xmin_s=0.5),
                                    diurnal_amplitude=0.5, seed=9),
    # 9 roots, none of which draws a hashtag or a URL, and one quote of them
    "no-entities": GeneratorConfig(duration_s=5.0, base_rate=5.0, cascade_fraction=0.7, type_mix=dict(MIXES[3]),
                                   seed=131),
    "no-roots": GeneratorConfig(duration_s=0.001, base_rate=1.0, seed=4),
    # a cascade of over 500 gaps near 20 ms, cut at the stream's end after
    # a few seconds: hundreds of its gaps are drawn but never walked
    "long-cuts": GeneratorConfig(duration_s=4.0, base_rate=500.0, cascade_fraction=1.0, type_mix=dict(MIXES[1]),
                                 inter_arrival_model=_CountedGaps("power-law", alpha=3.0, xmin_s=0.02), seed=25),
}


def test_fixed_configs_equal_the_per_root_loop():
    for name, config in FIXED.items():
        got, want = generate_stream(config), generate_by_loop(config)
        assert_same_columns(got, want)
        assert len(got) or name == "no-roots", name
    cut = generate_stream(FIXED["cut-cascades"])
    assert (cut.table.type != 0).sum() and cut.table.ts.max() < 7_500
    bare = generate_stream(FIXED["no-entities"]).table
    assert (bare.type != 0).any() and not len(bare.hashtag_codes) and not len(bare.url_codes)
    GAPS_DRAWN.clear()
    long_cuts = generate_stream(FIXED["long-cuts"])
    children = int((long_cuts.table.type != 0).sum())
    assert max(GAPS_DRAWN) >= 500 and sum(GAPS_DRAWN) - children >= 400 and children > 0
    assert long_cuts.table.ts.max() < 4_000
