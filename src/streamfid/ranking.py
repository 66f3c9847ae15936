"""Rank distortion measurement and temporal-rate correction.

Sampling with a time-varying rate reshuffles the ranking of the most
active entities.  The rate limit messages in a sample are enough to
recover per-bucket sampling rates; dividing each observed event by the
rate of its bucket yields an expected complete volume.  Ranking by that
estimate undoes most of the distortion when the loss varies between the
buckets themselves, as in hour-biased inputs.  It does not when the loss
comes from bursts shorter than a bucket: on streams whose threshold-sampler
loss follows within-second cascade bursts, hour-granularity correction
lowered Kendall tau against the true ranks instead of raising it.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import StreamBundle, TemporalRateProfile, bucket_of, missed_increments

ZERO_RATE_FLOOR = 1e-3


@dataclass(frozen=True)
class RankRow:
    entity: int
    observed_rank: int
    true_rank: int
    estimated_rank: int
    n_s: int
    n_c: int
    estimated_volume: float


@dataclass(frozen=True)
class RankReport:
    rows: tuple[RankRow, ...]
    kendall_observed: float
    kendall_estimated: float


def temporal_rates_from_messages(sample: StreamBundle, granularity: str) -> TemporalRateProfile:
    """Per-bucket sampling rates from a sample's own rate limit messages.

    rate(bucket) = delivered / (delivered + missed), where each message's
    counter increment is attributed to the bucket containing the message
    timestamp.  Buckets without a delivered event are left out of the
    profile, so they read its default rate 1 rather than rate 0.
    """
    buckets, delivered = np.unique(bucket_of(sample.table.ts, granularity), return_counts=True)
    missed: Counter = Counter()
    for msg, inc in zip(sample.messages, missed_increments(sample.messages)):
        missed[bucket_of(msg.timestamp_ms, granularity)] += inc
    rates = {b: d / (d + missed[b]) for b, d in zip(buckets.tolist(), delivered.tolist())}
    return TemporalRateProfile(granularity, rates, default_rate=1.0)


def _corrected_volumes(groups: np.ndarray, ts: np.ndarray, profile: TemporalRateProfile) -> np.ndarray:
    """Sum of 1/rate over the events of each group (the rate floored at
    ZERO_RATE_FLOOR), added in event order."""
    buckets, inverse = np.unique(bucket_of(ts, profile.granularity), return_inverse=True)
    rates = np.array([profile.rates.get(b, profile.default_rate) for b in buckets.tolist()], float)
    # bincount adds each group's weights one by one in array order
    return np.bincount(groups, (1.0 / np.maximum(rates, ZERO_RATE_FLOOR))[inverse],
                       minlength=int(groups.max(initial=0)) + 1)


def kendall_tau(rank_a: Sequence, rank_b: Sequence) -> float:
    """Kendall tau-b between two orderings of one element set.

    Two orderings of one set have no ties, so tau-b is
    1 - 4 * discordant / (n * (n - 1)).
    """
    n = len(rank_a)
    if set(rank_a) != set(rank_b) or n != len(rank_b):
        raise ValueError("rankings must order the same element set")
    if n < 2:
        raise ValueError(f"Kendall tau needs at least 2 elements, got {n}")
    pos_b = {e: i for i, e in enumerate(rank_b)}
    return 1.0 - 4.0 * _inversions(np.array([pos_b[e] for e in rank_a])) / (n * (n - 1))


def _inversions(x: np.ndarray) -> int:
    """Pairs i < j with x[i] > x[j] in a permutation x of 0..n-1, in O(n log^2 n).

    Bottom-up merge sort: each element of a right run is counted against
    the larger elements of the sorted left run beside it.  Adding block * n
    keeps the blocks apart, so one searchsorted per width serves them all.
    """
    n, idx = len(x), np.arange(len(x))
    count, width = 0, 1
    while width < n:
        offset = idx // (2 * width) * n
        right = idx // width % 2 == 1
        keys = x + offset
        left = keys[~right]
        count += int((np.searchsorted(left, offset[right] + n) - np.searchsorted(left, keys[right])).sum())
        x = np.sort(keys) - offset
        width *= 2
    return count


def _rank_by(users: Sequence[int], score: Mapping[int, float]) -> dict[int, int]:
    # descending score, ties broken by entity id ascending
    ordered = sorted(users, key=lambda u: (-score[u], u))
    return {u: i + 1 for i, u in enumerate(ordered)}


def top_k_rank_table(
    complete: StreamBundle,
    sample: StreamBundle,
    profile: TemporalRateProfile,
    k: int,
) -> RankReport:
    """Observed / true / corrected ranks for the top-k most sampled users.

    Users are selected by sample count; all three rank columns are
    permutations of 1..k over that selection.  Both Kendall tau values are
    measured against the true (complete-count) ranks.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    users, groups, counts = np.unique(sample.table.user, return_inverse=True, return_counts=True)
    users = users.tolist()
    n_s = dict(zip(users, counts.tolist()))
    c_users, c_counts = np.unique(complete.table.user, return_counts=True)
    n_c = dict(zip(c_users.tolist(), c_counts.tolist()))
    volumes = dict(zip(users, _corrected_volumes(groups, sample.table.ts, profile).tolist()))

    if len(n_s) < k:
        warnings.warn(f"only {len(n_s)} users observed, shrinking top-k from {k}", stacklevel=2)
        k = len(n_s)
    selected = sorted(n_s, key=lambda u: (-n_s[u], u))[:k]

    est_vol = {u: volumes[u] for u in selected}
    observed = _rank_by(selected, {u: n_s[u] for u in selected})
    true = _rank_by(selected, {u: n_c.get(u, 0) for u in selected})
    estimated = _rank_by(selected, est_vol)

    rows = tuple(
        RankRow(u, observed[u], true[u], estimated[u], n_s[u], n_c.get(u, 0), est_vol[u])
        for u in sorted(selected, key=lambda u: observed[u])
    )
    by_true = sorted(selected, key=lambda u: true[u])
    tau_obs = kendall_tau(sorted(selected, key=lambda u: observed[u]), by_true)
    tau_est = kendall_tau(sorted(selected, key=lambda u: estimated[u]), by_true)
    return RankReport(rows, tau_obs, tau_est)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n in ascending order, tied values sharing their mean rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2)[inverse]


@dataclass(frozen=True)
class PercentileRow:
    n_c: int
    true_percentile: float
    observed_mean: float
    observed_sd: float
    entities: int


def rank_percentiles(
    complete_counts: Mapping[int, int],
    sample_counts: Mapping[int, int],
) -> list[PercentileRow]:
    """True vs observed rank percentiles grouped by complete frequency.

    Percentile = rank / population with average ranks over ties; smaller
    means higher ranked.  Entities absent from the sample count as 0.
    """
    if not complete_counts:
        raise ValueError("no entities")
    entities = sorted(complete_counts)
    nc = np.array([complete_counts[e] for e in entities], dtype=float)
    ns = np.array([sample_counts.get(e, 0) for e in entities], dtype=float)
    n = len(entities)
    true_pct = _average_ranks(-nc) / n
    obs_pct = _average_ranks(-ns) / n
    rows = []
    for value in sorted(set(nc.astype(int))):
        mask = nc == value
        rows.append(
            PercentileRow(
                n_c=int(value),
                true_percentile=float(true_pct[mask].mean()),
                observed_mean=float(obs_pct[mask].mean()),
                observed_sd=float(obs_pct[mask].std()),
                entities=int(mask.sum()),
            )
        )
    return rows
