"""The benchmark's own input generator and threshold sampler.

numpy only.  Nothing here imports ``streamfid`` or the tests, so a change
to the program's simulator (its draw order, say) cannot change what the
analysis layers receive.  The same ``(seed, spec)`` gives the same arrays,
and the arrays are the ground truth every check compares against.

The generator follows the mechanism and the defaults of the program's
simulator as its CLI runs it (``streamfid simulate``): Zipf users and
hashtags, one frozen Pareto follower count per user, half of the roots
spawning a cascade of power-law size whose gaps are exponential, children
typed by the CLI's type mix, retweets and quotes inheriting the root's
hashtags and URLs.  It departs from the simulator only where the
benchmark needs it (see ``Spec`` and README.md):

* a fixed number of events, so every seed costs the same work;
* a diurnal load over several hours, dense enough for a threshold of 2
  per second to drop events in most windows;
* event ids that increase with gaps, so an id is never a position.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TYPES = ("root", "retweet", "quote", "reply")
ROOT, RETWEET, QUOTE, REPLY = range(4)
LANGS = ("en", "es", "ja")
HOUR_MS = 3_600_000


@dataclass(frozen=True)
class Spec:
    """Size and shape of one generated stream.

    The defaults below the line are those of ``streamfid simulate``; the
    fields above it are the benchmark's own.
    """

    events: int
    hours: int
    start_hour: int = 0
    diurnal_amplitude: float = 0.9   # the CLI's default is 0: no diurnal load
    threshold: int = 2               # threshold sampler: events per 1 s window
    anchor_ms: int = 657
    parts: int = 3                   # overlapping part files of the complete stream
    part_overlap_ms: int = 600_000
    # ---- the simulator's defaults
    spawn_share: float = 0.5         # --cascade-fraction: share of roots that spawn a cascade
    size_tail: float = 2.5           # cascade size ~ k^-2.5 on 1..1000
    size_cap: int = 1_000
    mean_gap_s: float = 30.0         # exponential gap between consecutive children
    child_mix: tuple = (0.55, 0.08, 0.12)   # retweet, quote, reply (--type-mix)
    lang_mix: tuple = (0.7, 0.1, 0.2)       # en, es, ja
    users: int = 10_000
    user_zipf: float = 1.5
    hashtags: int = 2_000
    hashtag_zipf: float = 1.2
    hashtags_per_event: float = 0.5  # Poisson mean per root
    urls: int = 1_000
    url_zipf: float = 1.2
    urls_per_event: float = 0.2
    follower_tail: float = 1.2       # followers = Pareto(1.2) * 50, once per user

    @property
    def start_ms(self) -> int:
        return self.start_hour * HOUR_MS

    @property
    def end_ms(self) -> int:
        return (self.start_hour + self.hours) * HOUR_MS


@dataclass
class Stream:
    """Column arrays of a stream, sorted by (ts, id)."""

    id: np.ndarray
    ts: np.ndarray
    user: np.ndarray
    type: np.ndarray           # index into TYPES
    root: np.ndarray           # root event id, -1 for roots
    followers: np.ndarray
    lang: np.ndarray           # index into LANGS
    tags: list                 # per event: sorted tuple of hashtag strings
    urls: list

    def __len__(self) -> int:
        return len(self.id)

    def take(self, mask: np.ndarray) -> "Stream":
        idx = np.flatnonzero(mask)
        return Stream(self.id[idx], self.ts[idx], self.user[idx], self.type[idx],
                      self.root[idx], self.followers[idx], self.lang[idx],
                      [self.tags[i] for i in idx], [self.urls[i] for i in idx])


@dataclass
class Sample:
    """Output of the threshold sampler plus its per-window truth."""

    keep: np.ndarray           # mask over the complete stream
    msg_ts: np.ndarray
    msg_missed: np.ndarray     # cumulative dropped count
    window_ids: np.ndarray     # every window that holds an event
    window_dropped: np.ndarray  # true missing volume per window


def _zipf_cdf(size: int, exponent: float) -> np.ndarray:
    w = np.arange(1, size + 1, dtype=float) ** -exponent
    return np.cumsum(w / w.sum())


def _draw(cdf: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), len(cdf) - 1)


def _entity_sets(rng, n, mean, cdf, prefix) -> list:
    counts = rng.poisson(mean, size=n)
    ranks = _draw(cdf, rng, int(counts.sum()))
    out, at = [], 0
    for c in counts:
        out.append(tuple(f"{prefix}{r}" for r in sorted(set(ranks[at:at + c].tolist()))))
        at += c
    return out


def generate(seed: int, spec: Spec) -> Stream:
    """Complete stream of exactly ``spec.events`` events.

    Roots are drawn one by one from the diurnal load, each with its
    cascade; children past the end of the stream are cut, as the simulator
    cuts them.  Roots are taken until the events reach ``spec.events``, and
    the last cascade is cut short to land on it exactly.
    """
    rng = np.random.default_rng(seed)
    n = spec.events
    pool = n                                    # every root brings at least itself

    # candidate roots in draw order: diurnal second, uniform millisecond
    secs = np.arange(spec.start_ms // 1000, spec.end_ms // 1000)
    load = 1.0 + spec.diurnal_amplitude * np.sin(2 * np.pi * (secs % 86_400) / 86_400)
    pool_ts = rng.choice(secs, size=pool, p=load / load.sum()) * 1000 \
        + rng.integers(0, 1000, size=pool)

    # cascades: power-law sizes, cumulative exponential gaps, cut at the end
    size_cdf = _zipf_cdf(spec.size_cap, spec.size_tail)
    sizes = np.where(rng.random(pool) < spec.spawn_share, _draw(size_cdf, rng, pool) + 1, 0)
    child_root = np.repeat(np.arange(pool), sizes)
    gaps = np.maximum(1, (rng.exponential(spec.mean_gap_s, size=len(child_root)) * 1000)
                      .astype(np.int64))
    run = np.cumsum(gaps)
    first = np.cumsum(sizes) - sizes            # each cascade's first child
    spawned = sizes > 0
    base = np.repeat(run[first[spawned]] - gaps[first[spawned]], sizes[spawned])
    child_ts = pool_ts[child_root] + run - base
    alive = child_ts < spec.end_ms

    # take roots in draw order until the events reach n exactly
    per_root = 1 + np.bincount(child_root[alive], minlength=pool)
    total = np.cumsum(per_root)
    last = int(np.searchsorted(total, n))
    excess = int(total[last]) - n
    rank_in = np.arange(len(child_root)) - first[child_root]
    keep = alive & (child_root <= last)
    keep &= ~((child_root == last) & (rank_in >= per_root[last] - 1 - excess))
    n_roots = last + 1
    root_ts = pool_ts[:n_roots]
    child_root, child_ts = child_root[keep], child_ts[keep]
    n_children = len(child_root)
    assert n_roots + n_children == n

    mix = np.array(spec.child_mix) / sum(spec.child_mix)
    child_type = rng.choice([RETWEET, QUOTE, REPLY], size=n_children, p=mix)
    user_cdf = _zipf_cdf(spec.users, spec.user_zipf)
    followers_of = (rng.pareto(spec.follower_tail, size=spec.users) * 50).astype(np.int64)
    root_lang = rng.choice(len(LANGS), size=n_roots, p=spec.lang_mix)
    root_tags = _entity_sets(rng, n_roots, spec.hashtags_per_event,
                             _zipf_cdf(spec.hashtags, spec.hashtag_zipf), "h")
    root_urls = _entity_sets(rng, n_roots, spec.urls_per_event,
                             _zipf_cdf(spec.urls, spec.url_zipf), "u")

    # draft order: roots in draw order, then children; sort by (ts, draft)
    ts = np.concatenate([root_ts, child_ts])
    order = np.lexsort((np.arange(n), ts))
    ids = np.cumsum(1 + rng.integers(0, 3, size=n))  # increasing, with gaps
    draft_id = np.empty(n, dtype=np.int64)
    draft_id[order] = ids
    user = _draw(user_cdf, rng, n)
    types = np.concatenate([np.full(n_roots, ROOT), child_type])
    root = np.concatenate([np.full(n_roots, -1), draft_id[child_root]])
    lang = np.concatenate([root_lang, root_lang[child_root]])
    # retweets and quotes carry the root's hashtags and URLs, replies none
    inherit = (child_type != REPLY).tolist()
    tags = root_tags + [root_tags[r] if i else () for r, i in zip(child_root.tolist(), inherit)]
    urls = root_urls + [root_urls[r] if i else () for r, i in zip(child_root.tolist(), inherit)]
    return Stream(ids, ts[order], user[order], types[order], root[order],
                  followers_of[user[order]], lang[order],
                  [tags[i] for i in order], [urls[i] for i in order])


def threshold_sample(ts: np.ndarray, threshold: int, anchor_ms: int) -> Sample:
    """First ``threshold`` events of every anchored 1 s window.

    ``ts`` holds the stream's timestamps in (ts, id) order.  A window that
    drops events reports one message at its last millisecond carrying the
    cumulative dropped count since the stream started.
    """
    window = (ts - anchor_ms) // 1000
    window_ids, first, inverse = np.unique(window, return_index=True, return_inverse=True)
    keep = np.arange(len(ts)) - first[inverse] < threshold
    dropped = np.bincount(inverse, weights=~keep, minlength=len(window_ids)).astype(np.int64)
    has = dropped > 0
    return Sample(keep, anchor_ms + (window_ids[has] + 1) * 1000 - 1,
                  np.cumsum(dropped)[has], window_ids, dropped)


def event_obj(s: Stream, i: int) -> dict:
    obj = {"id": int(s.id[i]), "ts_ms": int(s.ts[i]), "user": int(s.user[i]),
           "type": TYPES[s.type[i]]}
    if s.root[i] >= 0:
        obj["root_id"] = int(s.root[i])
    obj["hashtags"] = list(s.tags[i])
    obj["urls"] = list(s.urls[i])
    obj["followers"] = int(s.followers[i])
    obj["lang"] = LANGS[s.lang[i]]
    return obj


def _write_lines(path: Path, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def write_complete(path: Path, s: Stream) -> None:
    _write_lines(path, (event_obj(s, i) for i in range(len(s))))


def write_parts_and_sample(rundir: Path, truth: "Truth") -> None:
    """part_<k>.jsonl: overlapping time slices of the complete stream, whose
    merge is the paper's construction of a complete stream; sample.jsonl:
    the threshold sample with its messages, interleaved chronologically."""
    s, smp, spec = truth.complete, truth.smp, truth.spec
    span = (spec.end_ms - spec.start_ms) / spec.parts
    for k in range(spec.parts):
        lo = spec.start_ms + k * span - spec.part_overlap_ms
        hi = spec.start_ms + (k + 1) * span + spec.part_overlap_ms
        idx = np.flatnonzero((s.ts >= lo) & (s.ts < hi))
        _write_lines(rundir / f"part_{k}.jsonl", (event_obj(s, i) for i in idx))
    kept = np.flatnonzero(smp.keep)
    # events before messages at the same millisecond
    keys = np.concatenate([s.ts[kept], smp.msg_ts])
    kind = np.concatenate([np.zeros(len(kept), int), np.ones(len(smp.msg_ts), int)])
    tie = np.concatenate([s.id[kept], smp.msg_missed])
    objs = []
    for j in np.lexsort((tie, kind, keys)):
        if j < len(kept):
            objs.append(event_obj(s, kept[j]))
        else:
            m = j - len(kept)
            objs.append({"rl_ts_ms": int(smp.msg_ts[m]), "missed": int(smp.msg_missed[m])})
    _write_lines(rundir / "sample.jsonl", objs)


class Truth:
    """Ground-truth tables of one generated input, for the output checks."""

    def __init__(self, seed: int, spec: Spec):
        self.spec = spec
        self.complete = generate(seed, spec)
        self.smp = threshold_sample(self.complete.ts, spec.threshold, spec.anchor_ms)
        self.sample = self.complete.take(self.smp.keep)
        self.streams = {"complete": self.complete, "sample": self.sample}

    @property
    def final_missed(self) -> int:
        return int(self.smp.msg_missed[-1]) if len(self.smp.msg_missed) else 0

    def missing_between(self, lo_ms: int, hi_ms: int) -> int:
        """True missing volume of the windows whose last millisecond is in (lo_ms, hi_ms]."""
        last = self.spec.anchor_ms + (self.smp.window_ids + 1) * 1000 - 1
        return int(self.smp.window_dropped[(last > lo_ms) & (last <= hi_ms)].sum())

    def hour_rates(self) -> dict:
        """Delivered / (delivered + missed) per hour of day, from the messages."""
        delivered = np.bincount((self.sample.ts // HOUR_MS) % 24, minlength=24)
        inc = np.diff(self.smp.msg_missed, prepend=0)
        missed = np.bincount((self.smp.msg_ts // HOUR_MS) % 24, weights=inc, minlength=24)
        total = delivered + missed
        return {h: delivered[h] / total[h] for h in range(24) if total[h]}


def bucket_counts(s: Stream, key: str) -> dict:
    if key == "hour":
        b = (s.ts // HOUR_MS) % 24
    elif key == "millisecond":
        b = s.ts % 1000
    elif key == "lang":
        return _named_counts(s.lang, LANGS)
    elif key == "type":
        return _named_counts(s.type, TYPES)
    else:
        raise ValueError(key)
    c = np.bincount(b)
    return {int(k): int(c[k]) for k in np.flatnonzero(c)}


def _named_counts(codes: np.ndarray, names: tuple) -> dict:
    c = np.bincount(codes, minlength=len(names))
    return {names[k]: int(c[k]) for k in np.flatnonzero(c)}


def entity_counts(s: Stream, key: str) -> dict:
    """Occurrences per user, or per hashtag (each hashtag once per event)."""
    if key == "user":
        ids, counts = np.unique(s.user, return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))
    return dict(Counter(t for tags in s.tags for t in tags))


def user_hashtag_weights(s: Stream) -> dict:
    return dict(Counter((int(u), t) for u, tags in zip(s.user, s.tags) for t in tags))


def retweet_edges(s: Stream) -> dict:
    """(retweeter, root author) -> count over retweets and quotes whose root is in s."""
    author = dict(zip(s.id[s.type == ROOT].tolist(), s.user[s.type == ROOT].tolist()))
    return dict(Counter((u, author[r]) for u, t, r in zip(s.user.tolist(), s.type.tolist(), s.root.tolist())
                        if t in (RETWEET, QUOTE) and r in author))


def cascades(s: Stream) -> dict:
    """root id -> (root observed, timestamps of root and retweets in (ts, id) order)."""
    out: dict = {}
    for i in np.flatnonzero(s.type == ROOT):
        out[int(s.id[i])] = (True, [int(s.ts[i])])
    for i in np.flatnonzero(s.type == RETWEET):
        r = int(s.root[i])
        out.setdefault(r, (False, []))[1].append(int(s.ts[i]))
    return out


def pooled_gaps_ms(s: Stream) -> np.ndarray:
    """Gaps between consecutive events of every cascade whose root is observed."""
    gaps = [np.diff(ts) for rooted, ts in cascades(s).values() if rooted and len(ts) > 1]
    return np.concatenate(gaps) if gaps else np.zeros(0, dtype=np.int64)


# Input of both workloads that read the benchmark's own streams.  3 events/s
# on average against a threshold of 2/s, so the sampler drops in most
# windows and the hourly rates differ.  54,000 events make each side of the
# complete and the sampled user-hashtag graph hold more than 512 nodes (the
# smallest side, the sample's users, holds 585 to 655 over seeds 1-20), so
# co-clustering takes the randomized-SVD path.
STREAM = Spec(events=54_000, hours=5)
