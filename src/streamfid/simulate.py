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
from operator import itemgetter
from typing import Sequence

import numpy as np

from .model import Event, RateLimitMessage, StreamBundle, _row_column, columns_of_rows, take

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
        if self.duration_s <= 0 or self.base_rate <= 0:
            raise ValueError("duration and base_rate must be positive")
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


def _sample_ranks(cdf: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    return np.searchsorted(cdf, rng.random(n), side="right")


class _UserDirectory:
    """Lazily assigns each user a frozen heavy-tailed follower count."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._followers: dict[int, int] = {}

    def followers(self, user_id: int) -> int:
        got = self._followers.get(user_id)
        if got is None:
            got = int(self._rng.pareto(1.2) * 50.0)
            self._followers[user_id] = got
        return got


def generate_stream(config: GeneratorConfig) -> StreamBundle:
    """Generate a complete synthetic stream, deterministic per seed.

    Root events arrive as an inhomogeneous Poisson process at
    ``base_rate * type_mix["root"] * diurnal(t)``; a ``cascade_fraction``
    share of roots spawns a cascade of non-root events with power-law size
    and configurable inter-arrival gaps.  Children inherit root hashtags
    and URLs for retweets/quotes, which couples rate limiting to content.
    """
    rng = np.random.default_rng(config.seed)
    users = _UserDirectory(rng)
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
    child_p = child_p / child_p.sum() if child_types else child_p

    size_k = np.arange(1, config.cascade_size_cap + 1, dtype=float)
    size_w = size_k ** -config.cascade_size_tail
    size_cdf = np.cumsum(size_w / size_w.sum())

    end_ms = config.start_ms + int(config.duration_s * 1000)
    # draft rows in Event's field order, the creation order seq in place of
    # the id, the root's seq in place of its id and followers still 0
    drafts: list[tuple] = []
    root_users = _sample_ranks(user_cdf, rng, total_roots)
    root_langs = rng.choice(len(langs), size=total_roots, p=lang_p)
    spawn = rng.random(total_roots) < config.cascade_fraction if child_types else np.zeros(total_roots, bool)
    tag_counts = rng.poisson(config.hashtags_per_event, size=total_roots)
    url_counts = rng.poisson(config.urls_per_event, size=total_roots)

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

    drafts.sort(key=itemgetter(1, 0))   # by (ts, seq): ids are given in this order
    seqs, root_seqs = _row_column(drafts, "id"), _row_column(drafts, "root")
    id_of_seq = np.argsort(seqs)
    # follower counts are drawn in id order
    followers = np.fromiter(map(users.followers, map(itemgetter(2), drafts)), np.int64, len(drafts))
    return StreamBundle.from_columns(columns_of_rows(
        drafts, id=np.arange(len(drafts)), root=np.where(root_seqs < 0, -1, id_of_seq[root_seqs]),
        followers=followers))


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
