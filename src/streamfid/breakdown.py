"""Sampling-rate breakdowns over time buckets, language, and event type.

These are the randomness diagnostics: if sampling were uniform, every
bucket would show the same rate.  Time keys are cyclic (hour of day, minute
of hour, second of minute, millisecond of second).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .model import EVENT_TYPES, Event, StreamBundle, bucket_of, event_columns

BREAKDOWN_KEYS = ("hour", "minute", "second", "millisecond", "lang", "type")


@dataclass(frozen=True)
class BreakdownRow:
    bucket: object
    complete_count: int
    sample_count: int
    rate: float


def _bucket_counts(side: Union[StreamBundle, Iterable[Event]], key: str, tz_offset_hours: int) -> dict:
    if key == "lang":
        codes, labels = event_columns(side, "lang", "lang_table")
    elif key == "type":
        (codes,), labels = event_columns(side, "type"), EVENT_TYPES
    else:
        (ts,), labels = event_columns(side, "ts"), None
        codes = bucket_of(ts, key, tz_offset_hours, band_ms=1)
    counts = np.bincount(codes).tolist()   # time buckets and codes are small non-negative ints
    return {b if labels is None else labels[b]: n for b, n in enumerate(counts) if n}


def sampling_rate_breakdown(
    complete: Union[StreamBundle, Iterable[Event]],
    sample: Union[StreamBundle, Iterable[Event]],
    key: str,
    tz_offset_hours: int = 0,
) -> list[BreakdownRow]:
    """Per-bucket (complete count, sample count, rate) table.

    Either side may be a bundle or any iterable of events.  Each is counted
    over its columns (an iterable's are built for the call), so memory
    grows with the event count.  Buckets with zero complete count are
    omitted; the complete-count weighted mean of the rates equals the
    stream-wide mean rate exactly.
    """
    if key not in BREAKDOWN_KEYS:
        raise ValueError(f"key must be one of {BREAKDOWN_KEYS}")
    c_counts, s_counts = (_bucket_counts(side, key, tz_offset_hours) for side in (complete, sample))
    rows = []
    for bucket in sorted(c_counts, key=lambda b: (str(type(b)), b)):
        c = c_counts[bucket]
        s = s_counts.get(bucket, 0)
        rows.append(BreakdownRow(bucket, c, s, s / c))
    return rows
