"""Retweet cascade reconstruction and diffusion-feature measurement.

A cascade is a root event plus its retweets.  Under sampling the root or
any retweet can be missing: a missing root loses the whole cascade, missing
retweets stretch the observed inter-arrival gaps and shrink the observable
audience (potential reach).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from statistics import median
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import Event

MS_PER_S = 1000.0


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
        return ((self.root,) if self.root else ()) + self.retweets


def reconstruct_cascades(events: Iterable[Event], include_quotes: bool = False) -> list[Cascade]:
    """Group retweet events by root id; roots without retweets count too.

    Cascades whose root was not observed are returned flagged rootless;
    downstream sample-set reports drop them, since missing the root means
    missing the cascade.
    """
    kinds = {"retweet", "quote"} if include_quotes else {"retweet"}
    roots: dict[int, Event] = {}
    children: dict[int, list[Event]] = {}
    for ev in events:
        if ev.event_type == "root":
            roots[ev.id] = ev
        elif ev.event_type in kinds:
            children.setdefault(ev.root_id, []).append(ev)
    cascades = []
    for rid in sorted(set(roots) | set(children)):
        rts = tuple(sorted(children.get(rid, ()), key=lambda e: e.sort_key))
        cascades.append(Cascade(rid, roots.get(rid), rts))
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


def compare_cascades(
    complete: Sequence[Cascade],
    sample: Sequence[Cascade],
    retweet_threshold: int = 50,
    reach_windows_s: Sequence[float] = (600.0, 3600.0, float("inf")),
) -> tuple[list[CascadeRow], CascadeSummary]:
    """Per-cascade observation status plus corpus-level summary statistics.

    Rootless sample cascades are dropped (their cascade is considered
    missed).  ``retweet_threshold`` mirrors the common "large cascade"
    filter of diffusion studies.
    """
    by_id = {c.root_id: c for c in complete}
    unknown = [c.root_id for c in sample if c.root_id not in by_id]
    if unknown:
        raise ValueError(f"sample cascades not present in complete set: {unknown[:3]}")
    rows = []
    fully = 0
    observed = [c for c in sample if not c.is_rootless]
    for c in observed:
        ref = by_id[c.root_id]
        full = c.size == ref.size
        fully += full
        reach = {
            w: relative_potential_reach(c, ref, w) for w in reach_windows_s
        }
        rows.append(CascadeRow(c.root_id, ref.size, c.size, full, reach))
    complete_real = [c for c in complete if not c.is_rootless]
    summary = CascadeSummary(
        complete_cascades=len(complete_real),
        sample_cascades=len(observed),
        fully_observed=fully,
        fully_observed_fraction=fully / len(observed) if observed else 0.0,
        complete_ge_threshold=sum(len(c.retweets) >= retweet_threshold for c in complete_real),
        sample_ge_threshold=sum(len(c.retweets) >= retweet_threshold for c in observed),
        mean_retweets_complete=(
            sum(len(c.retweets) for c in complete_real) / len(complete_real) if complete_real else 0.0
        ),
        mean_retweets_sample=(
            sum(len(c.retweets) for c in observed) / len(observed) if observed else 0.0
        ),
        median_interarrival_complete_s=_median_gap_s(complete_real),
        median_interarrival_sample_s=_median_gap_s(observed),
    )
    return rows, summary


def _gaps_ms(cascades: Iterable[Cascade], include_root: bool = True) -> list[int]:
    gaps = []
    for c in cascades:
        evs = c.events() if include_root else c.retweets
        for a, b in zip(evs, evs[1:]):
            gaps.append(b.timestamp_ms - a.timestamp_ms)
    return gaps


def _median_gap_s(cascades) -> Optional[float]:
    gaps = _gaps_ms(cascades)
    return round(median(gaps) / MS_PER_S, 1) if gaps else None


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
    gaps_ms = sorted(_gaps_ms(cascades, include_root))
    if not gaps_ms:
        warnings.warn("no inter-arrival gaps: all cascades have size <= 1", stacklevel=2)
        empty = np.array([])
        return InterArrivalDistribution(empty, empty, empty, None)
    deltas = np.array(gaps_ms, dtype=float) / MS_PER_S
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


def potential_reach(cascade: Cascade) -> int:
    """Total followers over observed retweeters (root excluded)."""
    return _reach_until(cascade, float("inf"))


def relative_potential_reach(
    sample_c: Cascade, complete_c: Cascade, window_s: float = float("inf")
) -> Optional[float]:
    """Sample-to-complete reach ratio within a window after the root.

    Returns None (undefined) when the complete cascade has no reach in the
    window; such cascades are excluded from CCDFs.
    """
    if sample_c.root_id != complete_c.root_id:
        raise ValueError("mismatched root_id")
    if complete_c.root is None:
        raise ValueError("complete cascade must carry its root")
    anchor = complete_c.root.timestamp_ms
    horizon = window_s if window_s == float("inf") else anchor + int(window_s * MS_PER_S)
    denom = _reach_until(complete_c, horizon)
    if denom == 0:
        return None
    return _reach_until(sample_c, horizon) / denom


def _reach_until(cascade: Cascade, horizon_ms: float) -> int:
    return sum(ev.follower_count for ev in cascade.retweets if ev.timestamp_ms <= horizon_ms)
