"""Domain types shared by every analysis module.

An event stream is a chronologically ordered bundle of events plus the
rate limit messages the sampler emitted while delivering them.  All types
are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

EVENT_TYPES = ("root", "retweet", "quote", "reply")

GRANULARITIES = ("hour", "minute", "second", "millisecond")

# millisecond-of-second rate profiles are banded to bound sparsity
MILLISECOND_BAND_MS = 50

# granularity -> (bucket width in ms, buckets per cycle)
_CYCLES = {"hour": (3_600_000, 24), "minute": (60_000, 60), "second": (1_000, 60)}


def bucket_of(timestamp_ms: int, granularity: str, tz_offset_hours: int = 0,
              band_ms: int = MILLISECOND_BAND_MS) -> int:
    """Cyclic time bucket of a timestamp shifted by ``tz_offset_hours``.

    Hour of day, minute of hour, second of minute, or the millisecond of
    the second divided into bands of ``band_ms`` (1 gives one bucket per
    millisecond).
    """
    ts = timestamp_ms + tz_offset_hours * 3_600_000
    if granularity == "millisecond":
        return (ts % 1_000) // band_ms
    try:
        width, cycle = _CYCLES[granularity]
    except KeyError:
        raise ValueError(f"unknown granularity {granularity!r}") from None
    return (ts // width) % cycle


@dataclass(frozen=True, slots=True)
class Event:
    """One timestamped stream record.

    ``root_id`` is present exactly when the event interacts with an earlier
    root event (retweet/quote/reply).  ``follower_count`` is frozen at
    creation time; there is no user-profile table.
    """

    id: int
    timestamp_ms: int
    user_id: int
    event_type: str
    root_id: Optional[int] = None
    hashtags: tuple[str, ...] = ()
    urls: tuple[str, ...] = ()
    follower_count: int = 0
    lang: str = "en"

    def __post_init__(self):
        if self.event_type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {self.event_type!r}")
        if (self.root_id is None) != (self.event_type == "root"):
            raise ValueError("root_id present iff event_type != root")
        if self.id < 0 or self.timestamp_ms < 0 or self.follower_count < 0:
            raise ValueError("id, timestamp_ms and follower_count must be non-negative")

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.timestamp_ms, self.id)


@dataclass(frozen=True, slots=True)
class RateLimitMessage:
    """Sampler-emitted (timestamp, cumulative missed count) record.

    The counter is cumulative since the stream/connection started, so it is
    non-decreasing within one sampler thread.
    """

    timestamp_ms: int
    cumulative_missed: int

    def __post_init__(self):
        if self.cumulative_missed < 0 or self.timestamp_ms < 0:
            raise ValueError("timestamp and counter must be non-negative")


@dataclass(frozen=True)
class StreamBundle:
    """An ordered interleaving of events and rate limit messages."""

    events: tuple[Event, ...] = ()
    messages: tuple[RateLimitMessage, ...] = ()
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "messages", tuple(self.messages))
        seen: set[int] = set()
        prev = None
        for ev in self.events:
            if prev is not None and ev.sort_key <= prev:
                raise ValueError("events must be strictly sorted by (timestamp_ms, id)")
            prev = ev.sort_key
            if ev.id in seen:
                raise ValueError(f"duplicate event id {ev.id}")
            seen.add(ev.id)
        for a, b in zip(self.messages, self.messages[1:]):
            if b.timestamp_ms < a.timestamp_ms:
                raise ValueError("messages must be sorted by timestamp_ms")

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def build(cls, events: Iterable[Event], messages: Iterable[RateLimitMessage] = (),
              meta: Optional[Mapping] = None) -> "StreamBundle":
        """Sort inputs and construct a bundle (ids must already be unique)."""
        evs = sorted(events, key=lambda e: e.sort_key)
        msgs = sorted(messages, key=lambda m: m.timestamp_ms)
        return cls(tuple(evs), tuple(msgs), dict(meta or {}))


@dataclass(frozen=True)
class FrequencyVector:
    """Entity-count histogram: counts[k] = number of entities occurring k times.

    Frequency-0 entities are unobservable and never stored.  Values are
    integers when counted from data and may be reals when estimated.
    """

    counts: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for k in sorted(self.counts):
            v = self.counts[k]
            if k < 1:
                raise ValueError("frequency keys must be >= 1")
            if v < 0:
                raise ValueError("entity counts must be non-negative")
            clean[int(k)] = v
        object.__setattr__(self, "counts", clean)

    def __getitem__(self, k: int) -> float:
        return self.counts.get(k, 0)

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def max_frequency(self) -> int:
        return max(self.counts) if self.counts else 0

    def total_entities(self) -> float:
        return sum(self.counts.values())

    def total_events(self) -> float:
        return sum(k * v for k, v in self.counts.items())

    @classmethod
    def from_occurrences(cls, per_entity_counts: Iterable[int]) -> "FrequencyVector":
        return cls(Counter(c for c in per_entity_counts if c > 0))


@dataclass(frozen=True)
class TemporalRateProfile:
    """Sampling rate keyed by cyclic time bucket.

    ``rates`` maps bucket index -> rate in [0, 1]; buckets never observed
    fall back to ``default_rate``.
    """

    granularity: str
    rates: Mapping[int, float] = field(default_factory=dict)
    default_rate: float = 1.0

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        for b, r in self.rates.items():
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"rate {r} for bucket {b} outside [0,1]")
        if not 0.0 <= self.default_rate <= 1.0:
            raise ValueError("default_rate outside [0,1]")
        object.__setattr__(self, "rates", dict(self.rates))

    @classmethod
    def constant(cls, rate: float, granularity: str = "hour") -> "TemporalRateProfile":
        """Degenerate single-rate profile (uniform sampling)."""
        return cls(granularity, {}, rate)

    def rate_at(self, timestamp_ms: int) -> float:
        return self.rates.get(bucket_of(timestamp_ms, self.granularity), self.default_rate)


def empirical_mean_rate(complete: StreamBundle, sample: StreamBundle) -> float:
    """Mean sampling rate measured against a reference stream.

    Returns ``len(sample.events) / len(complete.events)``; the sample is
    expected to be an id-subset of the complete bundle.
    """
    if not complete.events:
        raise ValueError("empty reference stream")
    return len(sample.events) / len(complete.events)


def mean_rate_from_messages(sample: StreamBundle) -> float:
    """Mean sampling rate estimated from the sample alone.

    delivered / (delivered + missed), where the missed volume is the final
    cumulative counter of the sample's rate limit messages.  This is the
    estimate available when no complete stream was collected.
    """
    if not sample.events and not sample.messages:
        raise ValueError("empty sample stream")
    missed = 0
    prev = 0
    for m in sample.messages:
        if m.cumulative_missed < prev:
            raise ValueError("non-monotone counter: multi-thread messages, map threads first")
        prev = m.cumulative_missed
    if sample.messages:
        missed = sample.messages[-1].cumulative_missed
    delivered = len(sample.events)
    return delivered / (delivered + missed) if delivered + missed else 1.0


def merge_streams(bundles: list[StreamBundle]) -> StreamBundle:
    """Deduplicate and chronologically merge several bundles into one.

    Events are deduplicated by id; two events sharing an id must be
    identical, otherwise the merge is ambiguous.  Messages are merged as a
    multiset (per-message multiplicity is the max across bundles) so the
    merge is idempotent.
    """
    if not bundles:
        raise ValueError("need at least one bundle")
    by_id: dict[int, Event] = {}
    for b in bundles:
        for ev in b.events:
            kept = by_id.get(ev.id)
            if kept is None:
                by_id[ev.id] = ev
            elif kept != ev:
                raise ValueError(f"conflicting duplicate for event id {ev.id}")
    msg_counts: Counter = Counter()
    for b in bundles:
        here = Counter(b.messages)
        for msg, n in here.items():
            if n > msg_counts[msg]:
                msg_counts[msg] = n
    messages = sorted(msg_counts.elements(), key=lambda m: (m.timestamp_ms, m.cumulative_missed))
    meta = dict(bundles[0].meta)
    for b in bundles[1:]:
        for k, v in b.meta.items():
            meta.setdefault(k, v)
    return StreamBundle(
        tuple(sorted(by_id.values(), key=lambda e: e.sort_key)),
        tuple(messages),
        meta,
    )
