"""Synthetic ground-truth streams and the two sampling mechanisms.

The generator produces a complete stream with diurnal volume, Zipf user and
hashtag populations, and bursty retweet cascades.  Two samplers thin it:

* ``rate_limited_sample`` delivers the first N events of each anchored
  1-second window and reports every drop through rate limit messages, and
* ``bernoulli_sample`` keeps each event independently with a fixed rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence

import numpy as np

from .model import (_TYPE_CODE, Event, RateLimitMessage, StreamBundle, _row_column, bounds_of, columns_of_rows,
                    csr_gather, take)

DEFAULT_THRESHOLD = 50      # events per second before the sampler drops
DEFAULT_ANCHOR_MS = 657     # window anchor within the wall-clock second


@dataclass(frozen=True)
class ZipfPopulation:
    """A finite entity population sampled by rank: P(rank r) ~ r^-exponent."""

    size: int
    exponent: float = 1.5

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("population size must be >= 1")
        if self.exponent <= 0:
            raise ValueError("Zipf exponent must be positive")

    def cdf(self) -> np.ndarray:
        w = np.arange(1, self.size + 1, dtype=float) ** -self.exponent
        return np.cumsum(w / w.sum())


@dataclass(frozen=True)
class InterArrivalModel:
    """Within-cascade gap model: exponential or Pareto (power-law) seconds."""

    kind: str = "exponential"
    mean_s: float = 30.0       # exponential mean
    alpha: float = 1.5         # power-law tail exponent
    xmin_s: float = 1.0        # power-law minimum gap

    def __post_init__(self):
        if self.kind not in ("exponential", "power-law"):
            raise ValueError("inter-arrival kind must be exponential or power-law")
        if self.mean_s <= 0 or self.alpha <= 0 or self.xmin_s <= 0:
            raise ValueError("inter-arrival parameters must be positive")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "exponential":
            return rng.exponential(self.mean_s, size=n)
        return self.xmin_s * (1.0 + rng.pareto(self.alpha, size=n))


@dataclass(frozen=True)
class GeneratorConfig:
    duration_s: float = 60.0
    base_rate: float = 50.0                      # root arrivals/second before type share
    diurnal_amplitude: float = 0.0               # [0,1) hour-of-day sinusoid
    user_population: ZipfPopulation = field(default_factory=lambda: ZipfPopulation(10_000, 1.5))
    hashtag_population: ZipfPopulation = field(default_factory=lambda: ZipfPopulation(2_000, 1.2))
    url_population: ZipfPopulation = field(default_factory=lambda: ZipfPopulation(1_000, 1.2))
    cascade_fraction: float = 0.0                # share of roots that spawn cascades
    cascade_size_tail: float = 2.5               # power-law exponent on cascade sizes
    cascade_size_cap: int = 1_000
    inter_arrival_model: InterArrivalModel = field(default_factory=InterArrivalModel)
    type_mix: dict = field(default_factory=lambda: {"root": 1.0})
    lang_mix: dict = field(default_factory=lambda: {"en": 0.7, "ja": 0.2, "es": 0.1})
    hashtags_per_event: float = 0.5              # Poisson mean
    urls_per_event: float = 0.2                  # Poisson mean
    start_ms: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.duration_s < math.inf and 0 < self.base_rate < math.inf):
            raise ValueError("duration and base_rate must be positive and finite")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0,1)")
        if not 0.0 <= self.cascade_fraction <= 1.0:
            raise ValueError("cascade_fraction must be in [0,1]")
        for name, mix in (("type_mix", self.type_mix), ("lang_mix", self.lang_mix)):
            if not mix:
                raise ValueError(f"{name} must not be empty")
            if any(p < 0 for p in mix.values()):
                raise ValueError(f"{name} probabilities must be non-negative")
            if abs(sum(mix.values()) - 1.0) > 1e-9:
                raise ValueError(f"{name} must sum to 1")
        unknown = set(self.type_mix) - {"root", "retweet", "quote", "reply"}
        if unknown:
            raise ValueError(f"unknown event types in type_mix: {sorted(unknown)}")
        if self.hashtags_per_event < 0 or self.urls_per_event < 0:
            raise ValueError("per-event entity means must be non-negative")
        if self.cascade_size_cap < 1:
            raise ValueError("cascade_size_cap must be >= 1")
        if self.start_ms < 0:
            raise ValueError("start_ms must be non-negative")

    def mean_cascade_size(self) -> float:
        """Expected retweets per spawned cascade (bounded power-law)."""
        k = np.arange(1, self.cascade_size_cap + 1, dtype=float)
        w = k ** -self.cascade_size_tail
        return float((k * w).sum() / w.sum())

    def expected_event_count(self) -> float:
        """Analytic mean event count (ignores end-of-window cascade truncation)."""
        roots = self.duration_s * self.base_rate * self.type_mix.get("root", 0.0)
        child_mass = 1.0 - self.type_mix.get("root", 0.0)
        children = roots * self.cascade_fraction * self.mean_cascade_size() if child_mass > 0 else 0.0
        return roots + children


def _diurnal_factor(second_of_day: np.ndarray, amplitude: float) -> np.ndarray:
    return 1.0 + amplitude * np.sin(2.0 * np.pi * second_of_day / 86_400.0)


def _ranks(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Ranks of a population with ``cdf`` at ``uniforms``, as ``Generator.choice`` finds them."""
    return np.searchsorted(cdf, uniforms, side="right")


def _first_use(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes of ``values`` into their distinct values in the order of first use, and that list."""
    distinct, first, codes = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[codes], distinct[order]


def _distinct_ranks(cdf: np.ndarray, uniforms: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR bounds and ranks of each root's distinct entities in rank order,
    the roots' ``counts`` uniforms given one root after another."""
    span = len(cdf) + 1     # a uniform past cdf[-1] ranks at len(cdf)
    key = np.unique(np.repeat(np.arange(len(counts)), counts) * span + _ranks(cdf, uniforms))
    return bounds_of(np.bincount(key // span, minlength=len(counts))), key % span


# the loop's per-cascade arrays are joined this many at a time: fewer,
# larger blocks lower the generator's peak memory
_FOLD_EVERY = 512


def generate_stream(config: GeneratorConfig) -> StreamBundle:
    """Generate a complete synthetic stream, deterministic per seed.

    Root events arrive as an inhomogeneous Poisson process at
    ``base_rate * type_mix["root"] * diurnal(t)``; a ``cascade_fraction``
    share of roots spawns a cascade of non-root events with power-law size
    and configurable inter-arrival gaps.  Children inherit root hashtags
    and URLs for retweets/quotes, which couples rate limiting to content.

    Every output depends on the order of the draws from the seeded
    generator, which is:

    1. the Poisson root count of each second, then each root's millisecond
       in its second (the roots are then sorted by time);
    2. per root, in time order: its user, its lang, whether it spawns (only
       when ``type_mix`` has children), its hashtag count, its URL count;
    3. per root, in time order: its hashtag ranks, its URL ranks and, if it
       spawns, its cascade size, the cascade's gaps, then the kinds of the
       children left before the stream's end, then their users;
    4. per user, in the order of first appearance by event id: its
       follower count.

    A rank, a lang, a size or a kind takes one uniform each.  Only the
    gaps, whose exponential draws take a variable number of raw draws, and
    the kept children's count, which depends on them, need a loop over the
    spawning roots; the loop draws the uniforms owed since the last
    cascade in one call, and all else is done on whole arrays after it.
    """
    rng = np.random.default_rng(config.seed)
    user_cdf = config.user_population.cdf()
    tag_cdf = config.hashtag_population.cdf()
    url_cdf = config.url_population.cdf()
    langs = sorted(config.lang_mix)
    lang_p = np.array([config.lang_mix[l] for l in langs])
    lang_p = lang_p / lang_p.sum()

    # root arrivals: per-second Poisson counts modulated by the diurnal factor
    n_seconds = int(math.ceil(config.duration_s))
    seconds = np.arange(n_seconds, dtype=float) + config.start_ms / 1000.0
    p_root = config.type_mix.get("root", 0.0)
    rates = config.base_rate * p_root * _diurnal_factor(seconds % 86_400.0, config.diurnal_amplitude)
    if config.duration_s < n_seconds:
        rates[-1] *= config.duration_s - (n_seconds - 1)
    counts = rng.poisson(rates)
    total_roots = int(counts.sum())
    sec_idx = np.repeat(np.arange(n_seconds), counts)
    root_ts = config.start_ms + sec_idx * 1000 + rng.integers(0, 1000, size=total_roots)
    root_ts = root_ts[root_ts < config.start_ms + config.duration_s * 1000]
    total_roots = len(root_ts)
    root_ts.sort()

    child_mix = {t: p for t, p in config.type_mix.items() if t != "root" and p > 0}
    child_types = sorted(child_mix)
    child_p = np.array([child_mix[t] for t in child_types])
    child_cdf = np.cumsum(child_p / child_p.sum()) if child_types else child_p
    if child_types:
        child_cdf /= child_cdf[-1]      # as Generator.choice(..., p=child_p) does

    size_k = np.arange(1, config.cascade_size_cap + 1, dtype=float)
    size_w = size_k ** -config.cascade_size_tail
    size_cdf = np.cumsum(size_w / size_w.sum())

    end_ms = config.start_ms + int(config.duration_s * 1000)
    root_users = _ranks(user_cdf, rng.random(total_roots))
    root_langs = rng.choice(len(langs), size=total_roots, p=lang_p)
    spawn = rng.random(total_roots) < config.cascade_fraction if child_types else np.zeros(total_roots, bool)
    tag_counts = rng.poisson(config.hashtags_per_event, size=total_roots)
    url_counts = rng.poisson(config.urls_per_event, size=total_roots)

    # the loop: per spawning root, the uniforms owed since the last cascade
    # (that cascade's kinds and users, the entity ranks of the roots after it
    # up to this one, and this cascade's size) in one call, then the gaps
    spawning = np.flatnonzero(spawn)
    entities = bounds_of(tag_counts + url_counts)   # entity uniforms before each root
    owed = np.diff(entities[spawning + 1], prepend=0) + 1
    uniforms, child_ts, sizes = [], [np.empty(0, np.int64)], []
    u_block, ts_block = [], []
    kept, draw = 0, config.inter_arrival_model.draw
    for start, k in zip(root_ts[spawning].tolist(), owed.tolist()):
        u = rng.random(2 * kept + k)
        # a gap capped at the span left lands at end_ms and is dropped, as a
        # longer one would be; the cap keeps a gap past 2**63 ms from wrapping
        gaps = draw(rng, int(size_cdf.searchsorted(u[-1], "right")) + 1) * 1000.0
        gaps_ms = np.minimum(gaps, end_ms - start).astype(np.int64)
        ts = start + np.maximum(1, gaps_ms).cumsum()
        ts = ts[ts < end_ms]
        kept = len(ts)
        sizes.append(kept)
        u_block.append(u)
        ts_block.append(ts)
        if len(u_block) == _FOLD_EVERY:
            uniforms.append(np.concatenate(u_block))
            child_ts.append(np.concatenate(ts_block))
            u_block, ts_block = [], []
    tail = entities[-1] - entities[spawning[-1] + 1 if len(spawning) else 0]
    u = np.concatenate(uniforms + u_block + [rng.random(2 * kept + int(tail))])
    child_ts = np.concatenate(child_ts + ts_block)

    # u holds five runs per root: its hashtag ranks, its URL ranks, its
    # size, its children's kinds, their users
    children = np.zeros(total_roots, np.int64)
    children[spawning] = sizes
    runs = bounds_of(np.column_stack((tag_counts, url_counts, spawn, children, children)).ravel())
    tag_u, url_u, _, kind_u, user_u = (u[csr_gather(runs, np.arange(k, 5 * total_roots, 5))[1]] for k in range(5))
    tags = _distinct_ranks(tag_cdf, tag_u, tag_counts)
    urls = _distinct_ranks(url_cdf, url_u, url_counts)
    kinds = np.array([_TYPE_CODE[t] for t in child_types], np.int64)[_ranks(child_cdf, kind_u)]
    child_users = _ranks(user_cdf, user_u)

    # the events in creation order (each root, then its children), then
    # ordered by (ts, creation order): ids are given in that order
    owner = np.repeat(np.arange(total_roots), children + 1)
    first = bounds_of(children + 1)[:-1]
    is_child = np.ones(len(owner), bool)
    is_child[first] = False
    columns = {"ts": root_ts[owner], "user": root_users[owner], "type": np.full(len(owner), _TYPE_CODE["root"])}
    for name, values in (("ts", child_ts), ("user", child_users), ("type", kinds)):
        columns[name][is_child] = values
    order = np.argsort(columns["ts"], kind="stable")
    id_of = np.empty(len(order), np.int64)
    id_of[order] = np.arange(len(order))
    columns = {name: col[order] for name, col in columns.items()}
    root = np.where(is_child, id_of[first[owner]], -1)[order]

    # hashtags and URLs: a root's own, which its retweets and quotes carry;
    # a reply points at the empty row past the roots'
    owner = owner[order]
    rows = np.where(columns["type"] == _TYPE_CODE["reply"], total_roots, owner)
    for base, prefix, (bounds, ranks) in (("hashtag", "h", tags), ("url", "u", urls)):
        columns[f"{base}_bounds"], entries = csr_gather(np.append(bounds, bounds[-1]), rows)
        columns[f"{base}_codes"], distinct = _first_use(ranks[entries])
        columns[f"{base}_table"] = tuple(f"{prefix}{r}" for r in distinct.tolist())
    columns["lang"], distinct = _first_use(root_langs[owner])
    columns["lang_table"] = tuple(langs[i] for i in distinct.tolist())
    # follower counts are drawn per user, in the order of first appearance by id
    codes, distinct = _first_use(columns["user"])
    columns["followers"] = (rng.pareto(1.2, size=len(distinct)) * 50.0).astype(np.int64)[codes]
    return StreamBundle.from_columns(columns_of_rows((), id=np.arange(len(order)), root=root, **columns))


def _threshold_sampler(ts: np.ndarray, threshold: int, anchor_ms: int) -> tuple[np.ndarray, list]:
    """Keep mask and messages of the threshold sampler over sorted times
    ``ts``: an event's rank in its window is its position less that of the
    window's first event, and messages carry the running sum of drops."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if not 0 <= anchor_ms < 1000:
        raise ValueError("anchor_ms must be in [0, 1000)")
    window = (ts - anchor_ms) // 1000
    first = np.flatnonzero(np.diff(window, prepend=window[:1] - 1))
    sizes = np.diff(first, append=len(ts))
    keep = np.arange(len(ts)) - np.repeat(first, sizes) < threshold
    dropped = np.maximum(sizes - min(threshold, len(ts)), 0)
    hit = dropped > 0
    stamps = anchor_ms + (window[first[hit]] + 1) * 1000 - 1
    return keep, list(map(RateLimitMessage, stamps.tolist(), np.cumsum(dropped)[hit].tolist()))


def rate_limited_sample(
    events: Sequence[Event],
    threshold: int = DEFAULT_THRESHOLD,
    anchor_ms: int = DEFAULT_ANCHOR_MS,
) -> tuple[list[Event], list[RateLimitMessage]]:
    """Threshold sampler: first ``threshold`` events of each 1-second window.

    Windows start at ``anchor_ms`` within each wall-clock second.  Whenever a
    window drops at least one event, a single message is emitted at the last
    millisecond of that window carrying the cumulative dropped count since
    the start of the stream.
    """
    events = events if isinstance(events, (tuple, list)) else tuple(events)
    ids, ts = _row_column(events, "id"), _row_column(events, "ts")
    keep, messages = _threshold_sampler(ts, threshold, anchor_ms)
    step = np.diff(ts)
    if np.any((step < 0) | ((step == 0) & (np.diff(ids) <= 0))):
        raise ValueError("unsorted input")
    return list(compress(events, keep.tolist())), messages


def rate_limited_bundle(
    complete: StreamBundle,
    threshold: int = DEFAULT_THRESHOLD,
    anchor_ms: int = DEFAULT_ANCHOR_MS,
) -> StreamBundle:
    """``rate_limited_sample`` of a bundle, held as the bundle is (see ``take``)."""
    return take(complete, *_threshold_sampler(complete.table.ts, threshold, anchor_ms))


def _bernoulli_keep(n: int, rate: float, seed: int) -> np.ndarray:
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0,1]")
    return np.random.default_rng(seed).random(n) < rate


def bernoulli_sample(events: Sequence[Event], rate: float, seed: int = 0) -> list[Event]:
    """Keep each event independently with probability ``rate`` (order kept)."""
    events = events if isinstance(events, (tuple, list)) else tuple(events)
    return list(compress(events, _bernoulli_keep(len(events), rate, seed).tolist()))


def bernoulli_bundle(complete: StreamBundle, rate: float, seed: int = 0) -> StreamBundle:
    """``bernoulli_sample`` of a bundle's events, held as the bundle is (see ``take``)."""
    return take(complete, _bernoulli_keep(len(complete), rate, seed))
