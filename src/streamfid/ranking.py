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

Every bucket that holds a sample event needs a rate in (0, 1]; the profile
derived from the sample's own messages gives one to each.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import StreamBundle, TemporalRateProfile, bucket_of, missed_increments


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
    timestamp.  Every bucket with a delivered event has a rate above 0;
    buckets without one are left out of the profile.
    """
    buckets, delivered = np.unique(bucket_of(sample.table.ts, granularity), return_counts=True)
    at = bucket_of(sample.msg_ts, granularity)
    missed = np.zeros(int(max(buckets.max(initial=-1), at.max(initial=-1))) + 1, np.int64)
    np.add.at(missed, at, missed_increments(sample.msg_missed))
    # Python ints, so that each rate is the quotient of the exact counts
    rates = {b: d / (d + m) for b, d, m in zip(buckets.tolist(), delivered.tolist(), missed[buckets].tolist())}
    return TemporalRateProfile(granularity, rates)


def _corrected_volumes(groups: np.ndarray, ts: np.ndarray, profile: TemporalRateProfile) -> np.ndarray:
    """Sum of 1/rate over the events of each group, added in event order;
    a ValueError names the first event bucket that has no rate."""
    buckets, inverse = np.unique(bucket_of(ts, profile.granularity), return_inverse=True)
    buckets = buckets.tolist()
    lacking = next((b for b in buckets if b not in profile.rates), None)
    if lacking is not None:
        raise ValueError(f"no sampling rate for {profile.granularity} bucket {lacking}, which holds sample events")
    rates = np.array([profile.rates[b] for b in buckets], float)
    # bincount adds each group's weights one by one in array order
    return np.bincount(groups, (1.0 / rates)[inverse], minlength=int(groups.max(initial=0)) + 1)


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


def _ordered(users: Iterable[int], score: Mapping[int, float]) -> list[int]:
    """``users`` by descending score, ties broken by entity id ascending."""
    return sorted(users, key=lambda u: (-score[u], u))


def top_k_rank_table(
    complete: StreamBundle,
    sample: StreamBundle,
    profile: TemporalRateProfile,
    k: int,
) -> RankReport:
    """Observed / true / corrected ranks for the top-k most sampled users.

    Users are selected by sample count; all three rank columns are
    permutations of 1..k over that selection.  Both Kendall tau values are
    measured against the true (complete-count) ranks.  A sample of fewer
    than 2 users, and a user with more sample than complete events (a
    swapped pair), raise.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    users, groups, counts = np.unique(sample.table.user, return_inverse=True, return_counts=True)
    users = users.tolist()
    n_s = dict(zip(users, counts.tolist()))
    if len(n_s) < 2:
        raise ValueError(f"a ranking needs at least 2 users, and the sample holds {len(n_s)}")
    c_users, c_counts = np.unique(complete.table.user, return_counts=True)
    n_c = dict(zip(c_users.tolist(), c_counts.tolist()))
    over = next((u for u in users if n_s[u] > n_c.get(u, 0)), None)
    if over is not None:
        raise ValueError(f"user {over} has {n_s[over]} sample events but {n_c.get(over, 0)} complete ones")
    volumes = dict(zip(users, _corrected_volumes(groups, sample.table.ts, profile).tolist()))

    if len(n_s) < k:
        warnings.warn(f"only {len(n_s)} users observed, shrinking top-k from {k}", stacklevel=2)
        k = len(n_s)
    # each order of the selection gives one rank column: the selection is
    # already in observed order
    selected = _ordered(n_s, n_s)[:k]
    by_true = _ordered(selected, n_c)
    by_estimate = _ordered(selected, volumes)
    true = {u: i for i, u in enumerate(by_true, 1)}
    estimated = {u: i for i, u in enumerate(by_estimate, 1)}
    rows = tuple(RankRow(u, i, true[u], estimated[u], n_s[u], n_c[u], volumes[u])
                 for i, u in enumerate(selected, 1))
    return RankReport(rows, kendall_tau(selected, by_true), kendall_tau(by_estimate, by_true))
