"""Sampling-rate breakdowns over time buckets, language, and event type.

These are the randomness diagnostics: if sampling were uniform, every
bucket would show the same rate.  Time keys are cyclic (hour of day, minute
of hour, second of minute, millisecond of second).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import EVENT_TYPES, EventTable, EventView, StreamBundle, bucket_of

BREAKDOWN_KEYS = ("hour", "minute", "second", "millisecond", "lang", "type")


@dataclass(frozen=True)
class BreakdownRow:
    bucket: object
    complete_count: int
    sample_count: int
    rate: float


def _bucket_counts(t: EventTable, key: str, tz_offset_hours: int) -> dict:
    if key == "lang":
        codes, labels = t.lang, t.lang_table
    elif key == "type":
        codes, labels = t.type, EVENT_TYPES
    else:
        codes, labels = bucket_of(t.ts, key, tz_offset_hours, band_ms=1), None
    counts = np.bincount(codes).tolist()   # time buckets and codes are small non-negative ints
    return {b if labels is None else labels[b]: n for b, n in enumerate(counts) if n}


def sampling_rate_breakdown(
    complete: Union[StreamBundle, EventView],
    sample: Union[StreamBundle, EventView],
    key: str,
    tz_offset_hours: int = 0,
) -> list[BreakdownRow]:
    """Per-bucket (complete count, sample count, rate) table.

    Either side is a bundle or its ``events``, counted over the bundle's
    columns.  Buckets with zero complete count are omitted; the
    complete-count weighted mean of the rates equals the stream-wide mean
    rate exactly.
    """
    if key not in BREAKDOWN_KEYS:
        raise ValueError(f"key must be one of {BREAKDOWN_KEYS}")
    c_counts, s_counts = (_bucket_counts(side.table, key, tz_offset_hours) for side in (complete, sample))
    rows = []
    for bucket in sorted(c_counts, key=lambda b: (str(type(b)), b)):
        c = c_counts[bucket]
        s = s_counts.get(bucket, 0)
        rows.append(BreakdownRow(bucket, c, s, s / c))
    return rows
