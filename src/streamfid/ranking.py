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
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
# scipy is imported inside the functions that call it: importing streamfid,
# and every CLI command that never calls scipy, then skips its ~1 s load

from .model import Event, StreamBundle, TemporalRateProfile, bucket_of, missed_increments

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
    timestamp.  Buckets that saw neither events nor messages default to 1.
    """
    delivered: Counter = Counter()
    for ev in sample.events:
        delivered[bucket_of(ev.timestamp_ms, granularity)] += 1
    missed: Counter = Counter()
    for msg, inc in zip(sample.messages, missed_increments(sample.messages)):
        missed[bucket_of(msg.timestamp_ms, granularity)] += inc
    rates = {}
    for b in set(delivered) | set(missed):
        d, m = delivered[b], missed[b]
        rates[b] = d / (d + m) if d + m else 1.0
    return TemporalRateProfile(granularity, rates, default_rate=1.0)


def corrected_volume(user_events: Sequence[Event], profile: TemporalRateProfile) -> float:
    """Expected complete volume: sum of 1/rate over observed events."""
    total = 0.0
    for ev in user_events:
        total += 1.0 / max(profile.rate_at(ev.timestamp_ms), ZERO_RATE_FLOOR)
    return total


def kendall_tau(rank_a: Sequence, rank_b: Sequence) -> float:
    """Tie-corrected Kendall tau-b between two orderings of one element set."""
    from scipy.stats import kendalltau

    if set(rank_a) != set(rank_b) or len(rank_a) != len(rank_b):
        raise ValueError("rankings must order the same element set")
    pos_b = {e: i for i, e in enumerate(rank_b)}
    return float(kendalltau(np.arange(len(rank_a)), [pos_b[e] for e in rank_a]).statistic)


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
    if k < 1:
        raise ValueError("k must be >= 1")
    n_s = Counter(ev.user_id for ev in sample.events)
    n_c = Counter(ev.user_id for ev in complete.events)
    by_user: dict[int, list[Event]] = defaultdict(list)
    for ev in sample.events:
        by_user[ev.user_id].append(ev)

    if len(n_s) < k:
        warnings.warn(f"only {len(n_s)} users observed, shrinking top-k from {k}", stacklevel=2)
        k = len(n_s)
    selected = sorted(n_s, key=lambda u: (-n_s[u], u))[:k]

    est_vol = {u: corrected_volume(by_user[u], profile) for u in selected}
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
    from scipy.stats import rankdata

    if not complete_counts:
        raise ValueError("no entities")
    entities = sorted(complete_counts)
    nc = np.array([complete_counts[e] for e in entities], dtype=float)
    ns = np.array([sample_counts.get(e, 0) for e in entities], dtype=float)
    n = len(entities)
    true_pct = rankdata(-nc, method="average") / n
    obs_pct = rankdata(-ns, method="average") / n
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
