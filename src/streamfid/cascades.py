"""Retweet cascade reconstruction and diffusion-feature measurement.

A cascade is a root event plus its retweets.  Under sampling the root or
any retweet can be missing: a missing root loses the whole cascade, missing
retweets stretch the observed inter-arrival gaps and shrink the observable
audience (potential reach).  The measures compute on cascades held as
columns (``CascadeSet``); a list of ``Cascade`` rows is converted per call.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional, Union

import numpy as np

from .model import EVENT_TYPES, Event, StreamBundle, event_columns

MS_PER_S = 1000.0

# reach windows compare_cascades and the cascade command report by default
DEFAULT_REACH_WINDOWS_S = (600.0, 3600.0, float("inf"))


@dataclass(frozen=True)
class Cascade:
    """Root event (when observed) plus time-ordered retweets."""

    root_id: int
    root: Optional[Event]
    retweets: tuple[Event, ...]

    def __post_init__(self):
        for ev in self.retweets:
            if ev.root_id != self.root_id:
                raise ValueError("retweet attached to wrong cascade")
            if self.root is not None and ev.timestamp_ms < self.root.timestamp_ms:
                raise ValueError("retweet precedes its root")

    @property
    def is_rootless(self) -> bool:
        return self.root is None

    @property
    def size(self) -> int:
        return (0 if self.root is None else 1) + len(self.retweets)

    def events(self) -> tuple[Event, ...]:
        return ((self.root,) if self.root is not None else ()) + self.retweets


class CascadeSet(Sequence):
    """Cascades as columns: root ids, root timestamps (-1 when the root was
    not observed), and CSR ``bounds`` into the ``ts`` and ``followers`` of
    each cascade's retweets in (timestamp, id) order.  A ``Sequence[Cascade]``
    whose rows ``rows(positions)`` builds only when it is indexed or iterated.
    """

    def __init__(self, ids, root_ts, bounds, ts, followers, rows):
        self.ids, self.root_ts, self.bounds, self.ts, self.followers, self._rows = (
            ids, root_ts, bounds, ts, followers, rows)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        at = range(len(self))[i]
        return list(self._rows(at)) if isinstance(at, range) else next(iter(self._rows((at,))))

    def __iter__(self):
        return iter(self._rows(range(len(self))))

    def rooted(self) -> "CascadeSet":
        """The cascades whose root was observed."""
        keep, lengths = self.root_ts >= 0, np.diff(self.bounds)
        members, at = np.repeat(keep, lengths), np.flatnonzero(keep)
        return CascadeSet(self.ids[keep], self.root_ts[keep], _bounds(lengths[keep]), self.ts[members],
                          self.followers[members], lambda which: self._rows(at[list(which)].tolist()))


def _bounds(lengths: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def _columns(cascades: Sequence[Cascade]) -> CascadeSet:
    """Cascades as columns: a ``CascadeSet`` itself, rows converted."""
    if isinstance(cascades, CascadeSet):
        return cascades
    cascades = list(cascades)
    retweets = [c.retweets for c in cascades]
    flat = tuple(chain.from_iterable(retweets))
    return CascadeSet(np.array([c.root_id for c in cascades], np.int64),
                      np.array([-1 if c.root is None else c.root.timestamp_ms for c in cascades], np.int64),
                      _bounds(np.array(list(map(len, retweets)), np.int64)),
                      np.array(list(map(itemgetter(1), flat)), np.int64),
                      np.array(list(map(itemgetter(7), flat)), np.int64),
                      lambda which: map(cascades.__getitem__, which))


def reconstruct_cascades(events: Union[StreamBundle, Iterable[Event]],
                         include_quotes: bool = False) -> CascadeSet:
    """Group retweet events by root id; roots without retweets count too.

    Cascades whose root was not observed are returned flagged rootless;
    downstream sample-set reports drop them, since missing the root means
    missing the cascade.  Computed on the id, ts, type, root and followers
    columns, so a bundle or its ``events`` builds rows only when the
    cascades are indexed or iterated.
    """
    if not isinstance(events, Sequence):   # a bundle, or an iterable read once
        events = events.events if isinstance(events, StreamBundle) else tuple(events)
    ids, ts, kind, root, followers = event_columns(events, "id", "ts", "type", "root", "followers")
    root_code, retweet_code, quote_code = map(EVENT_TYPES.index, ("root", "retweet", "quote"))
    is_root, is_child = kind == root_code, (kind == retweet_code) | (include_quotes & (kind == quote_code))
    key = np.where(is_root, ids, root).astype(np.int64)
    picked = np.flatnonzero(is_root | is_child)
    # grouped by root id, each root ahead of its retweets in (timestamp, id) order
    picked = picked[np.lexsort((ids[picked], ts[picked], is_child[picked], key[picked]))]
    key, child = key[picked], is_child[picked]
    first = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
    has_root = ~child[first]
    counts = np.diff(first, append=len(key)) - has_root
    root_at, root_ts = np.where(has_root, picked[first], -1), np.where(has_root, ts[picked[first]], -1)
    members, bounds = picked[child], _bounds(counts)
    if np.any(ts[members] < np.repeat(root_ts, counts)):
        raise ValueError("retweet precedes its root")

    def rows(which):
        evs = tuple(events)   # once per call: indexing a view builds a row per index
        rid, r, at, b = key[first].tolist(), root_at.tolist(), members.tolist(), bounds.tolist()
        return (Cascade(rid[i], None if r[i] < 0 else evs[r[i]],
                        tuple(map(evs.__getitem__, at[b[i]:b[i + 1]]))) for i in which)

    return CascadeSet(key[first], root_ts, bounds, ts[members], followers[members].astype(np.int64), rows)


@dataclass(frozen=True)
class CascadeRow:
    root_id: int
    complete_size: int
    sample_size: int
    is_fully_observed: bool
    relative_potential_reach: dict  # window seconds (or inf) -> ratio or None


@dataclass(frozen=True)
class CascadeSummary:
    complete_cascades: int
    sample_cascades: int
    fully_observed: int
    fully_observed_fraction: float
    complete_ge_threshold: int
    sample_ge_threshold: int
    mean_retweets_complete: float
    mean_retweets_sample: float
    median_interarrival_complete_s: Optional[float]
    median_interarrival_sample_s: Optional[float]


def compare_cascades(
    complete: Sequence[Cascade],
    sample: Sequence[Cascade],
    retweet_threshold: int = 50,
    reach_windows_s: Sequence[float] = DEFAULT_REACH_WINDOWS_S,
) -> tuple[list[CascadeRow], CascadeSummary]:
    """Per-cascade observation status plus corpus-level summary statistics.

    Rootless sample cascades are dropped (their cascade is considered
    missed).  ``retweet_threshold`` mirrors the common "large cascade"
    filter of diffusion studies.
    """
    complete, sample = _columns(complete), _columns(sample)
    index = dict(zip(complete.ids.tolist(), range(len(complete))))
    ref = np.array([index.get(i, -1) for i in sample.ids.tolist()], np.intp)
    if np.any(ref < 0):
        raise ValueError(f"sample cascades not present in complete set: {sample.ids[ref < 0][:3].tolist()}")
    observed, ref, complete_real = sample.rooted(), ref[sample.root_ts >= 0], complete.rooted()
    sizes = 1 + np.diff(observed.bounds)
    ref_sizes = (complete.root_ts[ref] >= 0) + np.diff(complete.bounds)[ref]
    full = sizes == ref_sizes
    reach = [_relative_reach(observed, complete, ref, w) for w in reach_windows_s]
    rows = [CascadeRow(*row[:4], dict(zip(reach_windows_s, row[4:]))) for row in zip(
        observed.ids.tolist(), ref_sizes.tolist(), sizes.tolist(), full.tolist(), *reach)]
    fully, retweets = int(full.sum()), [np.diff(cs.bounds) for cs in (complete_real, observed)]
    large = [int((n >= retweet_threshold).sum()) for n in retweets]
    mean = [int(n.sum()) / len(n) if len(n) else 0.0 for n in retweets]
    return rows, CascadeSummary(len(complete_real), len(observed), fully,
                                fully / len(observed) if len(observed) else 0.0, *large, *mean,
                                _median_gap_s(complete_real), _median_gap_s(observed))


def _gaps(cascades: CascadeSet, include_root: bool = True) -> np.ndarray:
    """Milliseconds between consecutive events of each cascade, in no set order."""
    lengths = np.diff(cascades.bounds)
    group = np.repeat(np.arange(len(cascades)), lengths)
    gaps = np.diff(cascades.ts)[group[1:] == group[:-1]]
    led = (cascades.root_ts >= 0) & (lengths > 0) if include_root else np.zeros(len(cascades), bool)
    return np.concatenate((cascades.ts[cascades.bounds[:-1][led]] - cascades.root_ts[led], gaps))


def _median_gap_s(cascades: CascadeSet) -> Optional[float]:
    gaps = _gaps(cascades)
    return round(float(np.median(gaps)) / MS_PER_S, 1) if len(gaps) else None


@dataclass(frozen=True)
class InterArrivalDistribution:
    deltas_s: np.ndarray          # pooled gaps, sorted ascending
    grid_s: np.ndarray
    ccdf: np.ndarray              # P(gap > x) on the grid
    median_s: Optional[float]

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.deltas_s, q))


def inter_arrival_distribution(
    cascades: Sequence[Cascade],
    grid_s: Optional[Sequence[float]] = None,
    include_root: bool = True,
) -> InterArrivalDistribution:
    """Pooled CCDF of gaps between consecutive events within each cascade.

    The root -> first-retweet gap is included by default; pass
    ``include_root=False`` to pool retweet-to-retweet gaps only.
    """
    gaps_ms = np.sort(_gaps(_columns(cascades), include_root))
    if not len(gaps_ms):
        warnings.warn("no inter-arrival gaps: all cascades have size <= 1", stacklevel=2)
        empty = np.array([])
        return InterArrivalDistribution(empty, empty, empty, None)
    deltas = gaps_ms / MS_PER_S
    if grid_s is None:
        lo = max(deltas.min(), 0.1)
        grid = np.geomspace(lo, deltas.max() + 0.1, 200)
    else:
        grid = np.asarray(grid_s, dtype=float)
    return InterArrivalDistribution(deltas, grid, ccdf(deltas, grid), round(float(np.median(deltas)), 1))


def ccdf(sorted_values: np.ndarray, grid) -> np.ndarray:
    """Share of ``sorted_values`` (ascending, non-empty) above each grid point."""
    n = len(sorted_values)
    return (n - np.searchsorted(sorted_values, grid, side="right")) / n


def ccdf_tables(complete: Sequence[Cascade], sample: Sequence[Cascade], rows: Sequence[CascadeRow],
                reach_windows_s: Sequence[float]) -> dict:
    """The cascade report's CCDF tables, name -> (header, rows of text).

    ``interarrival_complete`` and ``interarrival_sample`` hold the gaps of
    the complete and the rooted sample cascades, and ``reach_<window>`` the
    defined reach ratios of ``rows`` (from ``compare_cascades``) in each
    window; a table with no values is left out.
    """
    tables = {}
    for name, cascades in (("complete", _columns(complete)), ("sample", _columns(sample).rooted())):
        dist = inter_arrival_distribution(cascades) if len(cascades) else None
        if dist is not None and dist.median_s is not None:
            tables[f"interarrival_{name}"] = (("x_s", "ccdf"), [
                (f"{x:.3f}", f"{y:.6f}") for x, y in zip(dist.grid_s, dist.ccdf)])
    grid = np.arange(101) / 100.0
    for w in reach_windows_s:
        ratios = np.sort([x for r in rows if (x := r.relative_potential_reach[w]) is not None])
        if len(ratios):
            tables["reach_inf" if math.isinf(w) else f"reach_{int(w)}s"] = (("x", "ccdf"), [
                (f"{x:.2f}", f"{y:.6f}") for x, y in zip(grid, ccdf(ratios, grid))])
    return tables


def relative_potential_reach(
    sample_c: Cascade, complete_c: Cascade, window_s: float = float("inf")
) -> Optional[float]:
    """Sample-to-complete reach ratio within a window after the root.

    Returns None (undefined) when the complete cascade has no reach in the
    window; such cascades are excluded from CCDFs.
    """
    if sample_c.root_id != complete_c.root_id:
        raise ValueError("mismatched root_id")
    return _relative_reach(_columns([sample_c]), _columns([complete_c]), np.zeros(1, np.intp), window_s)[0]


def _relative_reach(sample: CascadeSet, complete: CascadeSet, ref: np.ndarray, window_s: float) -> list:
    """Each sample cascade's reach over that of complete cascade ``ref``, both
    within ``window_s`` after the complete root (None when the latter is 0).
    Reach is the followers summed over a cascade's retweets."""
    anchor = complete.root_ts[ref]
    if np.any(anchor < 0):
        raise ValueError("complete cascade must carry its root")
    window_ms = window_s if window_s == math.inf else int(window_s * MS_PER_S)
    num = _reach(sample, anchor, window_ms).tolist()
    den = _reach(complete, complete.root_ts, window_ms)[ref].tolist()
    return [None if d == 0 else n / d for n, d in zip(num, den)]


def _reach(cascades: CascadeSet, anchor: np.ndarray, window_ms: float) -> np.ndarray:
    """Followers summed over each cascade's retweets at most ``window_ms``
    after its ``anchor``, as differences of one cumulative sum."""
    late = cascades.ts - np.repeat(anchor, np.diff(cascades.bounds)) > window_ms
    total = _bounds(np.where(late, 0, cascades.followers))
    return total[cascades.bounds[1:]] - total[cascades.bounds[:-1]]
