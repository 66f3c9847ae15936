"""Retweet cascade reconstruction and diffusion-feature measurement.

A cascade is a root event plus its retweets.  Under sampling the root or
any retweet can be missing: a missing root loses the whole cascade, missing
retweets stretch the observed inter-arrival gaps and shrink the observable
audience (potential reach).  The measures compute on cascades held as
columns over their stream's table (``CascadeSet``); a ``Cascade`` is a
position in a set, and builds rows only when its root or retweets are read.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .model import EVENT_TYPES, Event, EventTable, EventView, RowView, StreamBundle, bounds_of, csr_gather, rows_at

MS_PER_S = 1000.0

# reach windows compare_cascades and the cascade command report by default
DEFAULT_REACH_WINDOWS_S = (600.0, 3600.0, float("inf"))
# retweets from which a cascade counts as large, by default
DEFAULT_RETWEET_THRESHOLD = 50


class Cascade:
    """Root event (when observed) plus time-ordered retweets, as position
    ``at`` of the ``CascadeSet`` ``of``: ``root_id``, ``is_rootless`` and
    ``size`` read the set's columns, while ``root``, ``retweets`` and
    ``events()`` build this cascade's rows on each read.  Equality is on
    (root_id, root, retweets).
    """

    __slots__ = ("of", "at")

    def __init__(self, of: "CascadeSet", at: int):
        self.of, self.at = of, at

    @property
    def root_id(self) -> int:
        return int(self.of.ids[self.at])

    @property
    def is_rootless(self) -> bool:
        return bool(self.of.root_at[self.at] < 0)

    @property
    def size(self) -> int:
        return int(self.of.root_at[self.at] >= 0) + int(self.of.bounds[self.at + 1] - self.of.bounds[self.at])

    @property
    def root(self) -> Optional[Event]:
        return self._fields()[1]

    @property
    def retweets(self) -> tuple[Event, ...]:
        return self._fields()[2]

    def events(self) -> tuple[Event, ...]:
        of, i = self.of, self.at
        root = of.root_at[i:i + 1]
        return rows_at(of.table, np.concatenate((root[root >= 0], of.members[of.bounds[i]:of.bounds[i + 1]])))

    def _fields(self) -> tuple:
        events = self.events()   # built once for both root and retweets
        return (self.root_id, None, events) if self.is_rootless else (self.root_id, events[0], events[1:])

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented


class CascadeSet(RowView):
    """Cascades as columns over their stream's ``EventTable``: root ids, the
    table position of each root (-1 when it was not observed), and CSR
    ``bounds`` into ``members``, the positions of each cascade's retweets in
    (timestamp, id) order.  The measures read ``root_ts`` (-1 for no root),
    ``ts`` and ``followers``, gathered once.  Its items are ``Cascade``
    positions in the set.
    """

    def __init__(self, ids, root_at, bounds, members, table: EventTable):
        self.ids, self.root_at, self.bounds, self.members, self.table = ids, root_at, bounds, members, table
        self.root_ts = np.append(table.ts, -1)[root_at]   # a missing root's -1 reads the -1 appended
        self.ts, self.followers = table.ts[members], table.followers[members]

    def __len__(self) -> int:
        return len(self.ids)

    def _rows(self, positions: np.ndarray) -> list[Cascade]:
        return [Cascade(self, at) for at in positions.tolist()]

    def take(self, at: np.ndarray) -> "CascadeSet":
        """The cascades at positions ``at``, in that order."""
        bounds, members = csr_gather(self.bounds, at)
        return CascadeSet(self.ids[at], self.root_at[at], bounds, self.members[members], self.table)

    def rooted(self) -> "CascadeSet":
        """The cascades whose root was observed."""
        return self.take(np.flatnonzero(self.root_at >= 0))


def _columns(cascades: Sequence[Cascade]) -> CascadeSet:
    """Cascades as one ``CascadeSet``: a set itself, or a list's positions
    gathered from the one set they all belong to."""
    if isinstance(cascades, CascadeSet):
        return cascades
    cascades = list(cascades)
    if len({id(c.of) for c in cascades}) > 1:
        raise ValueError("cascades of several sets: reconstruct them from one stream")
    whole = cascades[0].of if cascades else reconstruct_cascades(StreamBundle())
    return whole.take(np.array([c.at for c in cascades], np.intp))


def reconstruct_cascades(events: Union[StreamBundle, EventView], include_quotes: bool = False) -> CascadeSet:
    """Group retweet events by root id; roots without retweets count too.

    Cascades whose root was not observed are returned flagged rootless;
    downstream sample-set reports drop them, since missing the root means
    missing the cascade.  Computed on the table of a bundle or its
    ``events``, which the cascades share.
    """
    table = events.table
    ids, ts, kind, root = table.id, table.ts, table.type, table.root
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
    root_at, members, bounds = np.where(has_root, picked[first], -1), picked[child], bounds_of(counts)
    cascades = CascadeSet(key[first], root_at, bounds, members, table)
    if np.any(cascades.ts < np.repeat(cascades.root_ts, counts)):
        raise ValueError("retweet precedes its root")
    return cascades


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


class CascadeRows(RowView):
    """The rows of ``compare_cascades`` as columns (root ids, complete and
    sample sizes, the fully-observed mask) and ``reach``, a column of ratios
    per window, NaN where undefined: a ``Sequence[CascadeRow]`` that builds
    a row only when read (see ``RowView``).
    """

    def __init__(self, root_id, complete_size, sample_size, is_fully_observed, reach: dict):
        self.columns, self.reach = (root_id, complete_size, sample_size, is_fully_observed), reach

    def __len__(self) -> int:
        return len(self.columns[0])

    def _rows(self, positions: np.ndarray) -> list[CascadeRow]:
        return [CascadeRow(*(col[i].item() for col in self.columns),
                           {w: None if math.isnan(r[i]) else r[i].item() for w, r in self.reach.items()})
                for i in positions.tolist()]


def compare_cascades(
    complete: Sequence[Cascade],
    sample: Sequence[Cascade],
    retweet_threshold: int = DEFAULT_RETWEET_THRESHOLD,
    reach_windows_s: Sequence[float] = DEFAULT_REACH_WINDOWS_S,
) -> tuple[CascadeRows, CascadeSummary]:
    """Per-cascade observation status plus corpus-level summary statistics.

    Rootless sample cascades are dropped (their cascade is considered
    missed).  ``retweet_threshold`` mirrors the common "large cascade"
    filter of diffusion studies; a negative one raises ValueError.
    """
    if retweet_threshold < 0:
        raise ValueError(f"retweet_threshold must be >= 0, not {retweet_threshold}")
    complete, sample = _columns(complete), _columns(sample)
    order = np.argsort(complete.ids)
    # each sample root id's complete cascade; an id past the last complete id reads cascade 0
    ref = np.append(order, 0)[np.searchsorted(complete.ids, sample.ids, sorter=order)]
    unknown = np.append(complete.ids, -1)[ref] != sample.ids   # root ids are never -1
    if np.any(unknown):
        raise ValueError(f"sample cascades not present in complete set: {sample.ids[unknown][:3].tolist()}")
    observed, ref, complete_real = sample.rooted(), ref[sample.root_ts >= 0], complete.rooted()
    sizes = 1 + np.diff(observed.bounds)
    ref_sizes = (complete.root_ts[ref] >= 0) + np.diff(complete.bounds)[ref]
    full = sizes == ref_sizes
    rows = CascadeRows(observed.ids, ref_sizes, sizes, full,
                       {w: _relative_reach(observed, complete, ref, w) for w in reach_windows_s})
    fully, retweets = int(full.sum()), [np.diff(cs.bounds) for cs in (complete_real, observed)]
    large = [int((n >= retweet_threshold).sum()) for n in retweets]
    mean = [int(n.sum()) / len(n) if len(n) else 0.0 for n in retweets]
    return rows, CascadeSummary(len(complete_real), len(observed), fully,
                                fully / len(observed) if len(observed) else 0.0, *large, *mean,
                                _median_gap_s(_gaps(complete_real)), _median_gap_s(_gaps(observed)))


def _gaps(cascades: CascadeSet) -> np.ndarray:
    """Milliseconds between consecutive events of each cascade, the root's
    gap to its first retweet included, in no set order."""
    lengths = np.diff(cascades.bounds)
    group = np.repeat(np.arange(len(cascades)), lengths)
    gaps = np.diff(cascades.ts)[group[1:] == group[:-1]]
    led = (cascades.root_ts >= 0) & (lengths > 0)
    return np.concatenate((cascades.ts[cascades.bounds[:-1][led]] - cascades.root_ts[led], gaps))


def _median_gap_s(gaps_ms: np.ndarray) -> Optional[float]:
    """The median of gaps in milliseconds, in seconds to one decimal; None for no gap."""
    return round(float(np.median(gaps_ms)) / MS_PER_S, 1) if len(gaps_ms) else None


@dataclass(frozen=True)
class InterArrivalDistribution:
    """Pooled gaps in seconds, sorted ascending, and their median to one
    decimal (None for no gap); ``ccdf(deltas_s, grid)`` gives their CCDF."""

    deltas_s: np.ndarray
    median_s: Optional[float]

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.deltas_s, q))


def inter_arrival_distribution(cascades: Sequence[Cascade]) -> InterArrivalDistribution:
    """Pooled gaps between consecutive events within each cascade, the
    root -> first-retweet gap included."""
    gaps_ms = np.sort(_gaps(_columns(cascades)))
    if not len(gaps_ms):
        warnings.warn("no inter-arrival gaps: all cascades have size <= 1", stacklevel=2)
    return InterArrivalDistribution(gaps_ms / MS_PER_S, _median_gap_s(gaps_ms))


def ccdf(sorted_values: np.ndarray, grid) -> np.ndarray:
    """Share of ``sorted_values`` (ascending, non-empty) above each grid point."""
    n = len(sorted_values)
    return (n - np.searchsorted(sorted_values, grid, side="right")) / n


def ccdf_tables(interarrival: Mapping[str, InterArrivalDistribution], rows: CascadeRows,
                reach_windows_s: Sequence[float]) -> dict:
    """The cascade report's CCDF tables, name -> (header, rows of text).

    ``interarrival_<name>`` holds the gaps of each distribution of
    ``interarrival`` on a 200-point geometric grid, from the shortest gap
    (0.1 s at least) to 0.1 s past the longest, and ``reach_<window>`` the
    defined reach ratios of ``rows`` (from ``compare_cascades``) in each
    window; a table with no values is left out.
    """
    tables = {}
    for name, dist in interarrival.items():
        deltas = dist.deltas_s
        if len(deltas):
            grid = np.geomspace(max(deltas[0], 0.1), deltas[-1] + 0.1, 200)
            tables[f"interarrival_{name}"] = (("x_s", "ccdf"), [
                (f"{x:.3f}", f"{y:.6f}") for x, y in zip(grid, ccdf(deltas, grid))])
    grid = np.arange(101) / 100.0
    for w in reach_windows_s:
        ratios = np.sort(rows.reach[w][~np.isnan(rows.reach[w])])
        if len(ratios):
            tables[reach_table_name(w)] = (("x", "ccdf"), [
                (f"{x:.2f}", f"{y:.6f}") for x, y in zip(grid, ccdf(ratios, grid))])
    return tables


def reach_table_name(window_s: float) -> str:
    """The name of the reach CCDF table of a window: its whole seconds, or inf."""
    return "reach_inf" if math.isinf(window_s) else f"reach_{int(window_s)}s"


def _relative_reach(sample: CascadeSet, complete: CascadeSet, ref: np.ndarray, window_s: float) -> np.ndarray:
    """Each sample cascade's reach over that of complete cascade ``ref``, both
    within ``window_s`` after the complete root (NaN when the latter is 0).
    Reach is the followers summed over a cascade's retweets."""
    anchor = complete.root_ts[ref]
    if np.any(anchor < 0):
        raise ValueError("complete cascade must carry its root")
    window_ms = window_s if window_s == math.inf else int(window_s * MS_PER_S)
    num = _reach(sample, anchor, window_ms)
    den = _reach(complete, complete.root_ts, window_ms)[ref]
    return np.divide(num, den, out=np.full(len(num), np.nan), where=den != 0)


def _reach(cascades: CascadeSet, anchor: np.ndarray, window_ms: float) -> np.ndarray:
    """Followers summed over each cascade's retweets at most ``window_ms``
    after its ``anchor``, as differences of one cumulative sum."""
    late = cascades.ts - np.repeat(anchor, np.diff(cascades.bounds)) > window_ms
    total = bounds_of(np.where(late, 0, cascades.followers))
    return total[cascades.bounds[1:]] - total[cascades.bounds[:-1]]
