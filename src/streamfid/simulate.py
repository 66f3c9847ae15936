"""Synthetic ground-truth streams and the two sampling mechanisms.

The generator produces a complete stream with diurnal volume, Zipf user and
hashtag populations, and bursty retweet cascades.  Two samplers thin it,
each into a bundle held as the complete one is:

* ``rate_limited_bundle`` delivers the first N events of each anchored
  1-second window and reports every drop through rate limit messages, and
* ``bernoulli_bundle`` keeps each event independently with a fixed rate.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .model import _TYPE_CODE, StreamBundle, bounds_of, csr_gather, take

DEFAULT_THRESHOLD = 50      # events per second before the sampler drops
DEFAULT_ANCHOR_MS = 657     # window anchor within the wall-clock second
# a generated stream peaks near 300 bytes of memory per event, a
# population near 24 bytes per member, and the root arrivals near 35 bytes
# per simulated second: a run at all ceilings fits in 2 GB
EVENT_CEILING = 4_000_000
POPULATION_CEILING = 10_000_000
DURATION_CEILING = 31 * 86_400


@dataclass(frozen=True)
class ZipfPopulation:
    """A finite entity population sampled by rank: P(rank r) ~ r^-exponent."""

    size: int
    exponent: float = 1.5

    def __post_init__(self):
        if not 1 <= self.size <= POPULATION_CEILING:
            raise ValueError(f"population size must be in [1, {POPULATION_CEILING}]")
        if not 0 < self.exponent < math.inf:
            raise ValueError("Zipf exponent must be positive and finite")

    def cdf(self) -> np.ndarray:
        w = np.arange(1, self.size + 1, dtype=float) ** -self.exponent
        return np.cumsum(w / w.sum())


# the generator's fixed shape: streams start at 0 ms, and a spawned
# cascade's size k is drawn with weight k^-CASCADE_SIZE_TAIL up to the cap
URL_POPULATION = ZipfPopulation(1_000, 1.2)
GAP_MEAN_S = 30.0               # exponential inter-arrival mean
CASCADE_SIZE_TAIL = 2.5
CASCADE_SIZE_CAP = 1_000
LANG_MIX = {"en": 0.7, "ja": 0.2, "es": 0.1}
HASHTAGS_PER_ROOT = 0.5         # Poisson means per root
URLS_PER_ROOT = 0.2
_SIZES = np.arange(1, CASCADE_SIZE_CAP + 1, dtype=float)
_SIZE_WEIGHTS = _SIZES ** -CASCADE_SIZE_TAIL


@dataclass(frozen=True)
class InterArrivalModel:
    """Within-cascade gap model: exponential or Pareto (power-law) seconds."""

    kind: str = "exponential"  # of mean GAP_MEAN_S
    alpha: float = 1.5         # power-law tail exponent
    xmin_s: float = 1.0        # power-law minimum gap

    def __post_init__(self):
        if self.kind not in ("exponential", "power-law"):
            raise ValueError("inter-arrival kind must be exponential or power-law")
        if not all(0 < x < math.inf for x in (self.alpha, self.xmin_s)):
            raise ValueError("inter-arrival parameters must be positive and finite")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "exponential":
            return rng.exponential(GAP_MEAN_S, size=n)
        return self.xmin_s * (1.0 + rng.pareto(self.alpha, size=n))


@dataclass(frozen=True)
class GeneratorConfig:
    duration_s: float = 60.0
    base_rate: float = 50.0                      # root arrivals/second before type share
    diurnal_amplitude: float = 0.0               # [0,1) hour-of-day sinusoid
    user_population: ZipfPopulation = field(default_factory=lambda: ZipfPopulation(10_000, 1.5))
    hashtag_population: ZipfPopulation = field(default_factory=lambda: ZipfPopulation(2_000, 1.2))
    cascade_fraction: float = 0.0                # share of roots that spawn cascades
    inter_arrival_model: InterArrivalModel = field(default_factory=InterArrivalModel)
    type_mix: dict = field(default_factory=lambda: {"root": 1.0})
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.duration_s < math.inf and 0 < self.base_rate < math.inf):
            raise ValueError("duration and base_rate must be positive and finite")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0,1)")
        if not 0.0 <= self.cascade_fraction <= 1.0:
            raise ValueError("cascade_fraction must be in [0,1]")
        if not self.type_mix:
            raise ValueError("type_mix must not be empty")
        if not all(p >= 0 for p in self.type_mix.values()):
            raise ValueError("type_mix probabilities must be non-negative")
        if not abs(sum(self.type_mix.values()) - 1.0) <= 1e-9:
            raise ValueError("type_mix must sum to 1")
        unknown = set(self.type_mix) - {"root", "retweet", "quote", "reply"}
        if unknown:
            raise ValueError(f"unknown event types in type_mix: {sorted(unknown)}")
        if not self.expected_event_count() <= EVENT_CEILING:
            raise ValueError(f"duration and base_rate give {self.expected_event_count():.3g} expected events, "
                             f"over the ceiling of {EVENT_CEILING}")
        if not self.duration_s <= DURATION_CEILING:
            raise ValueError(f"duration must be at most {DURATION_CEILING} seconds (31 days), not {self.duration_s:g}")

    def mean_cascade_size(self) -> float:
        """Expected retweets per spawned cascade (bounded power-law)."""
        return float((_SIZES * _SIZE_WEIGHTS).sum() / _SIZE_WEIGHTS.sum())

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


# the loop's per-cascade uniforms and its children's times are joined into
# arrays this many cascades at a time: fewer, larger blocks lower the
# generator's peak memory
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
    spawning roots.  Each cascade costs it two numpy calls: the uniforms
    owed since the last cascade, then all of the cascade's gaps.  The size
    and the children's times are found on Python scalars, and the walk
    over the gaps stops at the first child past the stream's end; all else
    is done on whole arrays after the loop.
    """
    rng = np.random.default_rng(config.seed)
    user_cdf = config.user_population.cdf()
    tag_cdf = config.hashtag_population.cdf()
    url_cdf = URL_POPULATION.cdf()
    langs = sorted(LANG_MIX)
    lang_p = np.array([LANG_MIX[l] for l in langs])
    lang_p = lang_p / lang_p.sum()

    # root arrivals: per-second Poisson counts modulated by the diurnal factor
    n_seconds = int(math.ceil(config.duration_s))
    p_root = config.type_mix.get("root", 0.0)
    rates = config.base_rate * p_root * _diurnal_factor(np.arange(n_seconds) % 86_400.0, config.diurnal_amplitude)
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
    child_cdf = np.cumsum(child_p / child_p.sum()) if child_types else child_p
    if child_types:
        child_cdf /= child_cdf[-1]      # as Generator.choice(..., p=child_p) does

    size_cdf = np.cumsum(_SIZE_WEIGHTS / _SIZE_WEIGHTS.sum())

    end_ms = int(config.duration_s * 1000)
    root_users = _ranks(user_cdf, rng.random(total_roots))
    root_langs = rng.choice(len(langs), size=total_roots, p=lang_p)
    spawn = rng.random(total_roots) < config.cascade_fraction if child_types else np.zeros(total_roots, bool)
    tag_counts = rng.poisson(HASHTAGS_PER_ROOT, size=total_roots)
    url_counts = rng.poisson(URLS_PER_ROOT, size=total_roots)

    # the loop: per spawning root, the uniforms owed since the last cascade
    # (that cascade's kinds and users, the entity ranks of the roots after it
    # up to this one, and this cascade's size) in one call, then the gaps in
    # one call; the gaps are walked as Python floats, with numpy's float64
    # product, cap and truncation toward zero
    spawning = np.flatnonzero(spawn)
    entities = bounds_of(tag_counts + url_counts)   # entity uniforms before each root
    owed = np.diff(entities[spawning + 1], prepend=0) + 1
    size_cdf, draw = size_cdf.tolist(), config.inter_arrival_model.draw
    uniforms, child_ts, sizes = [], [], []
    u_block, ts_block, kept = [], [], 0
    for start, k in zip(root_ts[spawning].tolist(), owed.tolist()):
        u = rng.random(2 * kept + k)
        # a gap capped at the span left lands at end_ms and is dropped, as a
        # longer one would be; the cap keeps an infinite gap from int()
        t, span, before = start, float(end_ms - start), len(ts_block)
        for gap in draw(rng, bisect_right(size_cdf, u.item(-1)) + 1).tolist():
            t += max(1, int(min(gap * 1000.0, span)))
            if t >= end_ms:
                break
            ts_block.append(t)
        kept = len(ts_block) - before
        sizes.append(kept)
        u_block.append(u)
        if len(u_block) == _FOLD_EVERY:
            uniforms.append(np.concatenate(u_block))
            child_ts.append(np.array(ts_block, np.int64))
            u_block, ts_block = [], []
    tail = entities[-1] - entities[spawning[-1] + 1 if len(spawning) else 0]
    u = np.concatenate(uniforms + u_block + [rng.random(2 * kept + int(tail))])
    child_ts = np.concatenate(child_ts + [np.array(ts_block, np.int64)])

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
    return StreamBundle.from_columns({**columns, "id": np.arange(len(order)), "root": root,
                                      "msg_ts": np.zeros(0, np.int64), "msg_missed": np.zeros(0, np.int64)})


def _threshold_sampler(ts: np.ndarray, threshold: int, anchor_ms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep mask, message times and counters of the threshold sampler over
    sorted times ``ts``: an event's rank in its window is its position less
    that of the window's first event, and counters are running sums of drops."""
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
    return keep, stamps, np.cumsum(dropped)[hit]


def rate_limited_bundle(
    complete: StreamBundle,
    threshold: int = DEFAULT_THRESHOLD,
    anchor_ms: int = DEFAULT_ANCHOR_MS,
) -> StreamBundle:
    """Threshold sampler: first ``threshold`` events of each 1-second window,
    held as the bundle is (see ``take``).

    Windows start at ``anchor_ms`` within each wall-clock second.  Whenever a
    window drops at least one event, a single message is emitted at the last
    millisecond of that window carrying the cumulative dropped count since
    the start of the stream.
    """
    return take(complete, *_threshold_sampler(complete.table.ts, threshold, anchor_ms))


def bernoulli_bundle(complete: StreamBundle, rate: float, seed: int = 0) -> StreamBundle:
    """Keep each event independently with probability ``rate``, held as the
    bundle is (see ``take``)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0,1]")
    return take(complete, np.random.default_rng(seed).random(len(complete)) < rate)
