"""Sampling-rate breakdowns over time buckets, language, and event type.

These are the randomness diagnostics: if sampling were uniform, every
bucket would show the same rate.  Time keys are cyclic (hour of day, minute
of hour, second of minute, millisecond of second).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Union

from .model import Event, StreamBundle, bucket_of

BREAKDOWN_KEYS = ("hour", "minute", "second", "millisecond", "lang", "type")


@dataclass(frozen=True)
class BreakdownRow:
    bucket: object
    complete_count: int
    sample_count: int
    rate: float


def _bucket_counts(events: Iterable[Event], key: str, tz_offset_hours: int) -> Counter:
    if key == "lang":
        return Counter(ev.lang for ev in events)
    if key == "type":
        return Counter(ev.event_type for ev in events)
    return Counter(bucket_of(ev.timestamp_ms, key, tz_offset_hours, band_ms=1) for ev in events)


def sampling_rate_breakdown(
    complete: Union[StreamBundle, Iterable[Event]],
    sample: Union[StreamBundle, Iterable[Event]],
    key: str,
    tz_offset_hours: int = 0,
) -> list[BreakdownRow]:
    """Per-bucket (complete count, sample count, rate) table.

    Either side may be a bundle or any iterable of events; each is counted
    in one pass, so memory is bounded by the bucket count.  Buckets with
    zero complete count are omitted; the complete-count weighted mean of
    the rates equals the stream-wide mean rate exactly.
    """
    if key not in BREAKDOWN_KEYS:
        raise ValueError(f"key must be one of {BREAKDOWN_KEYS}")
    c_counts, s_counts = (
        _bucket_counts(side.events if isinstance(side, StreamBundle) else side, key, tz_offset_hours)
        for side in (complete, sample)
    )
    rows = []
    for bucket in sorted(c_counts, key=lambda b: (str(type(b)), b)):
        c = c_counts[bucket]
        s = s_counts.get(bucket, 0)
        rows.append(BreakdownRow(bucket, c, s, s / c))
    return rows
