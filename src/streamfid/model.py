"""Domain types shared by every analysis module.

An event stream is a chronologically ordered bundle of events plus the
rate limit messages the sampler emitted while delivering them.  All types
are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import gc
from collections import Counter
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass, field
from itertools import accumulate, chain, repeat
from operator import eq, itemgetter
from sys import intern
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

import numpy as np

EVENT_TYPES = ("root", "retweet", "quote", "reply")

GRANULARITIES = ("hour", "minute", "second", "millisecond")

# the numbers a table's int64 columns hold
INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1

# millisecond-of-second rate profiles are banded to bound sparsity
MILLISECOND_BAND_MS = 50

# granularity -> (bucket width in ms, buckets per cycle)
_CYCLES = {"hour": (3_600_000, 24), "minute": (60_000, 60), "second": (1_000, 60)}


def bucket_of(timestamp_ms, granularity: str, tz_offset_hours: int = 0,
              band_ms: int = MILLISECOND_BAND_MS):
    """Cyclic time bucket of a timestamp shifted by ``tz_offset_hours``.

    Hour of day, minute of hour, second of minute, or the millisecond of
    the second divided into bands of ``band_ms`` (1 gives one bucket per
    millisecond).  A numpy array of timestamps gives the array of their
    buckets.
    """
    ts = timestamp_ms + tz_offset_hours * 3_600_000
    if granularity == "millisecond":
        return (ts % 1_000) // band_ms
    try:
        width, cycle = _CYCLES[granularity]
    except KeyError:
        raise ValueError(f"unknown granularity {granularity!r}") from None
    return (ts // width) % cycle


# NamedTuple refuses a __new__ of its own, so the checked constructors of
# Event and RateLimitMessage live on subclasses of these field tuples
class _EventFields(NamedTuple):
    id: int
    timestamp_ms: int
    user_id: int
    event_type: str
    root_id: Optional[int]
    hashtags: tuple[str, ...]
    urls: tuple[str, ...]
    follower_count: int
    lang: str


class Event(_EventFields):
    """One timestamped stream record.

    ``root_id`` is present exactly when the event interacts with an earlier
    root event (retweet/quote/reply).  ``follower_count`` is frozen at
    creation time; there is no user-profile table.  Every number fits in
    int64 and a root id is non-negative, as a bundle's columns require.  A
    validated named tuple: streams hold hundreds of thousands of events,
    and a tuple is the cheapest immutable record to build and to hold.
    """

    __slots__ = ()

    def __new__(cls, id: int, timestamp_ms: int, user_id: int, event_type: str,
                root_id: Optional[int] = None, hashtags: tuple[str, ...] = (),
                urls: tuple[str, ...] = (), follower_count: int = 0, lang: str = "en"):
        if event_type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event_type!r}")
        if (root_id is None) != (event_type == "root"):
            raise ValueError("root_id present iff event_type != root")
        if id < 0 or timestamp_ms < 0 or follower_count < 0:
            raise ValueError("id, timestamp_ms and follower_count must be non-negative")
        if root_id is not None and not 0 <= root_id <= INT64_MAX:
            raise ValueError("root_id must be non-negative and fit in int64")
        if (id > INT64_MAX or timestamp_ms > INT64_MAX or follower_count > INT64_MAX
                or not INT64_MIN <= user_id <= INT64_MAX):
            raise ValueError("id, timestamp_ms, user_id and follower_count must fit in int64")
        return tuple.__new__(cls, (id, timestamp_ms, user_id, event_type, root_id, hashtags,
                                   urls, follower_count, lang))

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.timestamp_ms, self.id)


class _MessageFields(NamedTuple):
    timestamp_ms: int
    cumulative_missed: int


class RateLimitMessage(_MessageFields):
    """Sampler-emitted (timestamp, cumulative missed count) record.

    The counter is cumulative since the stream/connection started, so it is
    non-decreasing within one sampler thread.
    """

    __slots__ = ()

    def __new__(cls, timestamp_ms: int, cumulative_missed: int):
        if cumulative_missed < 0 or timestamp_ms < 0:
            raise ValueError("timestamp and counter must be non-negative")
        if cumulative_missed > INT64_MAX or timestamp_ms > INT64_MAX:
            raise ValueError("timestamp and counter must fit in int64")
        return tuple.__new__(cls, (timestamp_ms, cumulative_missed))


@contextmanager
def collector_paused():
    """Pause Python's cycle collector while rows are built: they hold no
    reference cycles, and the collector's passes over a heap that grows by
    a row at a time took a third of a parse and half of a columns-to-rows
    build."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class StreamBundle:
    """An ordered interleaving of events and rate limit messages.

    A bundle holds its events as one ``EventTable``, checked whole by
    ``from_columns``; rows given to the constructor or to ``build`` are
    converted to columns once.  ``events`` is an ``EventView`` of the table,
    which builds rows only while it is iterated or indexed.
    """

    __slots__ = ("table", "messages")

    def __init__(self, events: Sequence[Event] = (), messages: Iterable[RateLimitMessage] = ()):
        events = events if isinstance(events, (tuple, list)) else tuple(events)
        self._set_columns(columns_of_rows(events, tuple(messages)))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def events(self) -> "EventView":
        return EventView(self.table)

    def __len__(self) -> int:
        return len(self.table.id)

    def __eq__(self, other):
        """Equal messages and equal events, compared field by field on the
        two tables stacked, so that no row is built."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.messages != other.messages or len(self) != len(other):
            return False
        n = len(self)
        return not np.any(_differs(EventTable(**stacked([self.table, other.table])), np.arange(n), np.arange(n, 2 * n)))

    def __hash__(self) -> int:
        # values that equality compares, in one width
        return hash((self.messages, *(getattr(self.table, name).astype(np.int64).tobytes() for name in ("id", "ts"))))

    def __repr__(self) -> str:
        return f"StreamBundle(events={tuple(self.events)!r}, messages={self.messages!r})"

    def __reduce__(self):
        return self.__class__.from_columns, ({**self.table._asdict(), **message_columns(self.messages)},)

    @classmethod
    def build(cls, events: Sequence[Event], messages: Iterable[RateLimitMessage] = ()) -> "StreamBundle":
        """Sort inputs by (timestamp_ms, id) and construct a bundle (ids must already be unique)."""
        return cls(sorted(events, key=itemgetter(1, 0)), sorted(messages, key=itemgetter(0)))

    @classmethod
    def from_columns(cls, columns: Mapping) -> "StreamBundle":
        """The bundle held as ``columns``: every ``EventTable`` field plus the
        message columns ``msg_ts`` and ``msg_missed``.

        The columns are checked whole, in numpy, for their shapes and for
        every rule that ``Event``, ``RateLimitMessage`` and the bundle's order
        enforce; a ValueError, TypeError or KeyError names the first broken
        one.
        """
        bundle = cls.__new__(cls)
        bundle._set_columns(columns)
        return bundle

    def _set_columns(self, columns: Mapping) -> None:
        c = {name: _int_column(columns[name], name) for name in _INT_COLUMNS}
        n = len(c["id"])
        short = next((name for name in _EVENT_COLUMNS if len(c[name]) != n), None)
        if short is not None:
            raise ValueError(f"column {short} is not as long as column id")
        tables = {name: _string_table(columns[name], name) for name in _TABLES}
        for base in ("hashtag", "url"):
            check_bounds(c[f"{base}_bounds"], n, len(c[f"{base}_codes"]), f"{base}_bounds")
        for name, size in (("type", len(EVENT_TYPES)), ("lang", len(tables["lang_table"])),
                           ("hashtag_codes", len(tables["hashtag_table"])),
                           ("url_codes", len(tables["url_table"]))):
            if len(c[name]) and (c[name].min() < 0 or c[name].max() >= size):
                raise ValueError(f"column {name} holds a code outside its table")
        ids, ts = c["id"], c["ts"]
        if np.any((c["root"] < 0) != (c["type"] == _TYPE_CODE["root"])):
            raise ValueError("root_id present iff event_type != root")
        if np.any(ids < 0) or np.any(ts < 0) or np.any(c["followers"] < 0):
            raise ValueError("id, timestamp_ms and follower_count must be non-negative")
        step = np.diff(ts)
        if np.any((step < 0) | ((step == 0) & (np.diff(ids) <= 0))):
            raise ValueError("events must be strictly sorted by (timestamp_ms, id)")
        ordered = np.sort(ids)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if len(repeated):
            raise ValueError(f"duplicate event id {repeated[0]}")
        msg_ts, missed = c["msg_ts"], c["msg_missed"]
        if len(missed) != len(msg_ts):
            raise ValueError("column msg_missed is not as long as column msg_ts")
        if np.any(msg_ts < 0) or np.any(missed < 0):
            raise ValueError("timestamp and counter must be non-negative")
        if np.any(np.diff(msg_ts) < 0):
            raise ValueError("messages must be sorted by timestamp_ms")
        object.__setattr__(self, "table", EventTable(**{name: tables[name] if name in tables else c[name]
                                                        for name in EventTable._fields}))
        object.__setattr__(self, "messages", tuple(map(tuple.__new__, repeat(RateLimitMessage),
                                                       zip(msg_ts.tolist(), missed.tolist()))))


class EventView(Sequence):
    """The events of an ``EventTable`` as a read-only ``Sequence[Event]``.

    Its length is the table's.  Iterating, indexing or slicing it builds
    the rows wanted, a block at a time; a slice is a tuple.  A view equals
    any view, tuple or list of the same events.
    """

    __slots__ = ("table",)

    def __init__(self, table: "EventTable"):
        self.table = table

    def __len__(self) -> int:
        return len(self.table.id)

    def __getitem__(self, i):
        at = range(len(self))[i]
        rows = rows_at(self.table, np.array(at if isinstance(at, range) else [at], np.intp))
        return rows if isinstance(at, range) else rows[0]

    def __iter__(self) -> Iterator[Event]:
        return _rows(self.table)

    def __eq__(self, other):
        if not isinstance(other, (EventView, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"EventView({list(self)!r})"


# EventTable's columns: one integer entry per event for id, ts, user, type
# (an index into EVENT_TYPES), root (the root id, -1 for none), followers
# and lang (a code into lang_table).  Hashtags and urls are CSR:
# <name>_bounds holds each event's start into <name>_codes plus the end,
# and the codes index <name>_table, a tuple of distinct interned strings.
# Columns are int64, but those in INT32_COLUMNS may be int32: no layer adds
# to or multiplies their values in their own width.
class EventTable(NamedTuple):
    """The events of a bundle as numpy columns (see above); read-only."""

    id: np.ndarray
    ts: np.ndarray
    user: np.ndarray
    type: np.ndarray
    root: np.ndarray
    followers: np.ndarray
    lang: np.ndarray
    lang_table: tuple[str, ...]
    hashtag_bounds: np.ndarray
    hashtag_codes: np.ndarray
    hashtag_table: tuple[str, ...]
    url_bounds: np.ndarray
    url_codes: np.ndarray
    url_table: tuple[str, ...]


INT32_COLUMNS = ("id", "user", "type", "root", "followers", "lang", "hashtag_bounds", "hashtag_codes",
                 "url_bounds", "url_codes")
_TABLES = ("lang_table", "hashtag_table", "url_table")
_EVENT_COLUMNS = ("id", "ts", "user", "type", "root", "followers", "lang")
_INT_COLUMNS = (*_EVENT_COLUMNS, "hashtag_bounds", "hashtag_codes", "url_bounds", "url_codes",
                "msg_ts", "msg_missed")
_TYPE_CODE = {t: code for code, t in enumerate(EVENT_TYPES)}
# the start of the column names of each Event field, in field order
_FIELD = ("id", "ts", "user", "type", "root", "hashtag", "url", "followers", "lang")


def _int_column(col, name: str) -> np.ndarray:
    if (col.__class__ is not np.ndarray or col.ndim != 1
            or col.dtype not in ((np.int64, np.int32) if name in INT32_COLUMNS else (np.int64,))):
        raise ValueError(f"column {name} is not a 1-d integer array of a width it may have")
    col = col.view()
    col.setflags(write=False)
    return col


def check_bounds(bounds: np.ndarray, rows: Optional[int], total: int, name: str) -> None:
    """Raise unless ``bounds`` is a 1-d int64 or int32 array of CSR row
    bounds: ``rows + 1`` (any number when None) non-decreasing offsets from
    0 to ``total``."""
    if (bounds.__class__ is not np.ndarray or bounds.dtype not in (np.int64, np.int32) or bounds.ndim != 1
            or (rows is not None and len(bounds) != rows + 1) or len(bounds) == 0 or bounds[0] != 0
            or bounds[-1] != total or np.any(np.diff(bounds) < 0)):
        raise ValueError(f"column {name} holds no CSR bounds")


def _string_table(table, name: str) -> tuple[str, ...]:
    table = tuple(map(intern, table))   # a TypeError for anything but a str
    if len(set(table)) != len(table):
        raise ValueError(f"column {name} repeats a string")
    return table


def _decoded(codes: np.ndarray, table: Sequence[str]) -> list[str]:
    return np.array(table, dtype=object)[codes].tolist()


def _tuples(bounds: np.ndarray, codes: np.ndarray, table: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """The string tuples of the rows whose CSR bounds are ``bounds``."""
    flat = tuple(_decoded(codes[bounds[0]:bounds[-1]], table))
    b = (bounds - bounds[0]).tolist()
    return map(flat.__getitem__, map(slice, b, b[1:]))


# rows are built a block at a time, so that the lists feeding them stay
# small: whole-column lists raised the peak memory of a process that
# builds rows while it holds other data
_ROW_BLOCK = 4096


def _rows(t: EventTable) -> Iterator[Event]:
    """The events of a table, built at C level a block at a time with the
    collector paused: ``from_columns`` checked the columns whole, so no row
    goes through ``Event``'s checks again."""
    for fields in field_blocks(t):
        with collector_paused():
            block = list(map(tuple.__new__, repeat(Event), zip(*fields)))
        yield from block


def field_blocks(t: EventTable) -> Iterator[tuple]:
    """The nine ``Event`` fields of the rows of a table as sequences, a block
    of rows at a time."""
    for a in range(0, len(t.id), _ROW_BLOCK):
        b = a + _ROW_BLOCK
        root = t.root[a:b].astype(object)
        root[t.root[a:b] < 0] = None
        yield (t.id[a:b].tolist(), t.ts[a:b].tolist(), t.user[a:b].tolist(),
               _decoded(t.type[a:b], EVENT_TYPES), root.tolist(),
               _tuples(t.hashtag_bounds[a:b + 1], t.hashtag_codes, t.hashtag_table),
               _tuples(t.url_bounds[a:b + 1], t.url_codes, t.url_table), t.followers[a:b].tolist(),
               _decoded(t.lang[a:b], t.lang_table))


def _row_column(rows: Sequence[tuple], name: str):
    """The ``EventTable`` field ``name`` of event rows, or of tuples in
    ``Event``'s field order.  A table lists each string where it is first
    used."""
    base, _, part = name.partition("_")
    values = map(itemgetter(_FIELD.index(base)), rows)
    if part == "bounds":
        return np.fromiter(accumulate(map(len, values), initial=0), np.int64, len(rows) + 1)
    if base in ("lang", "hashtag", "url"):
        values = tuple(values if base == "lang" else chain.from_iterable(values))
        table = tuple(dict.fromkeys(values))
        if part == "table":
            return table
        values = map(dict(zip(table, range(len(table)))).__getitem__, values)
    elif base == "type":
        values = map(_TYPE_CODE.__getitem__, values)
    elif base == "root":
        values = (-1 if r is None else r for r in values)
    return np.fromiter(values, np.int64)


def columns_of_rows(rows: Sequence[tuple], messages: Sequence[RateLimitMessage] = (), **given) -> dict:
    """The ``from_columns`` columns of sorted event rows (or of tuples in
    ``Event``'s field order) and ``messages``, the ``EventTable`` fields in
    ``given`` taken from it, and ``INT32_COLUMNS`` int32 where their values
    fit: a smaller table for every bundle, and a smaller sidecar."""
    cols = {name: given[name] if name in given else _row_column(rows, name) for name in EventTable._fields}
    for name in INT32_COLUMNS:
        if not len(cols[name]) or -2 ** 31 <= cols[name].min() <= cols[name].max() < 2 ** 31:
            cols[name] = cols[name].astype(np.int32)
    return {**cols, **message_columns(messages)}


def distinct_per_event(bounds: np.ndarray, codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Event positions and codes of a CSR code column (codes below
    ``size``), each code kept once per event, in the order of first use."""
    events = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    _, first = np.unique(events * max(size, 1) + codes, return_index=True)
    first.sort()
    return events[first], codes[first]


def take(bundle: StreamBundle, keep: np.ndarray, messages: Sequence[RateLimitMessage] = ()) -> StreamBundle:
    """The events of ``bundle`` where the boolean mask ``keep`` is set, with
    ``messages``."""
    return StreamBundle.from_columns({**subtable(bundle.table, np.flatnonzero(keep))._asdict(),
                                      **message_columns(messages)})


def subtable(t: EventTable, rows: np.ndarray) -> EventTable:
    """Rows ``rows`` of a table, in that order; the string tables are shared."""
    cols = t._asdict()
    for name in _EVENT_COLUMNS:
        cols[name] = cols[name][rows]
    for base in ("hashtag", "url"):
        bounds, at = csr_gather(cols[f"{base}_bounds"], rows)
        cols[f"{base}_bounds"] = bounds.astype(cols[f"{base}_bounds"].dtype)
        cols[f"{base}_codes"] = cols[f"{base}_codes"][at]
    return EventTable(**cols)


def bounds_of(lengths: np.ndarray) -> np.ndarray:
    """The CSR bounds of rows of ``lengths`` entries."""
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def csr_gather(bounds: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR bounds of ``rows`` of a CSR column with ``bounds``, in that
    order, and the positions of their entries in the column."""
    starts = bounds[rows]
    lengths = bounds[rows + 1] - starts
    gathered = bounds_of(lengths)
    return gathered, np.arange(gathered[-1]) + np.repeat(starts - gathered[:-1], lengths)


def rows_at(t: EventTable, positions: np.ndarray) -> tuple[Event, ...]:
    """The events at ``positions`` of a table, in that order."""
    return tuple(_rows(subtable(t, positions)))


def stacked(tables: Sequence[EventTable]) -> dict:
    """The ``EventTable`` fields of ``tables`` one after another: the string
    tables joined, and every code re-coded into the join."""
    cols = {name: np.concatenate([getattr(t, name) for t in tables]) for name in _EVENT_COLUMNS}
    for base, codes in (("lang", "lang"), ("hashtag", "hashtag_codes"), ("url", "url_codes")):
        joined: dict[str, int] = {}
        luts = [np.array([joined.setdefault(s, len(joined)) for s in getattr(t, f"{base}_table")], np.int64)
                for t in tables]
        cols[codes] = np.concatenate([lut[getattr(t, codes)] for lut, t in zip(luts, tables)])
        cols[f"{base}_table"] = tuple(joined)
        if base != "lang":
            cols[f"{base}_bounds"] = bounds_of(np.concatenate([np.diff(getattr(t, f"{base}_bounds")) for t in tables]))
    return cols


def message_columns(messages: Sequence[RateLimitMessage]) -> dict:
    """The ``from_columns`` columns msg_ts and msg_missed of ``messages``."""
    return {name: np.fromiter(map(itemgetter(i), messages), np.int64, len(messages))
            for i, name in enumerate(("msg_ts", "msg_missed"))}


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

    Returns ``len(sample) / len(complete)``; the sample is expected to be an
    id-subset of the complete bundle.
    """
    if not len(complete):
        raise ValueError("empty reference stream")
    return len(sample) / len(complete)


def missed_increments(messages: Iterable[RateLimitMessage]) -> list[int]:
    """Each message's increase of the cumulative missed counter, counting from 0.

    The increments sum to the final counter.  A decreasing counter means the
    messages interleave several sampler threads, which ``map_threads`` must
    separate first.
    """
    increments = []
    prev = 0
    for m in messages:
        if m.cumulative_missed < prev:
            raise ValueError("non-monotone counter: messages of several sampler threads, "
                             "separate them with map_threads first")
        increments.append(m.cumulative_missed - prev)
        prev = m.cumulative_missed
    return increments


def mean_rate_from_messages(sample: StreamBundle) -> float:
    """Mean sampling rate estimated from the sample alone.

    delivered / (delivered + missed), where the missed volume is the final
    cumulative counter of the sample's rate limit messages.  This is the
    estimate available when no complete stream was collected.
    """
    if not len(sample) and not sample.messages:
        raise ValueError("empty sample stream")
    missed = sum(missed_increments(sample.messages))
    delivered = len(sample)
    return delivered / (delivered + missed) if delivered + missed else 1.0


def merge_streams(bundles: list[StreamBundle]) -> StreamBundle:
    """Deduplicate and chronologically merge several bundles into one.

    Events are deduplicated by id; two events sharing an id must be
    identical, otherwise the merge is ambiguous: the error names the
    smallest such id and the first field in which its events differ, in any
    order of the bundles.  Messages are merged as a multiset (per-message
    multiplicity is the max across bundles) so the merge is idempotent.
    The bundles' tables are stacked, and matched and gathered on columns.
    """
    if not bundles:
        raise ValueError("need at least one bundle")
    t = EventTable(**stacked([b.table for b in bundles]))
    order = np.argsort(t.id, kind="stable")
    first = np.diff(t.id[order], prepend=-1) != 0
    # each repeat (b) of an id, and the first event (a) of that id
    a, b = order[np.maximum.accumulate(np.where(first, np.arange(len(order)), 0))][~first], order[~first]
    differs = _differs(t, a, b)
    conflict = np.any(differs, axis=0)
    if conflict.any():
        worst = t.id[b][conflict].min()
        name = next(name for name, d in zip(_FIELD, differs) if d[t.id[b] == worst].any())
        raise ValueError(f"conflicting duplicate for event id {worst}: "
                         f"{name}{'s' if name in ('hashtag', 'url') else ''} differs")
    messages: Counter = Counter()
    for bundle in bundles:
        messages |= Counter(bundle.messages)
    keep = order[first]
    keep = keep[np.lexsort((t.id[keep], t.ts[keep]))]
    # columns_of_rows narrows the gathered columns; a message is its own sort key
    return StreamBundle.from_columns(columns_of_rows((), sorted(messages.elements()), **subtable(t, keep)._asdict()))


def _differs(t: EventTable, a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """For each ``Event`` field, whether rows ``a[i]`` and ``b[i]`` of a
    table differ in it, for each i; strings compare by their codes."""
    return [_lists_differ(getattr(t, f"{name}_bounds"), getattr(t, f"{name}_codes"), a, b)
            if name in ("hashtag", "url") else getattr(t, name)[a] != getattr(t, name)[b] for name in _FIELD]


def _lists_differ(bounds: np.ndarray, codes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether rows ``a[i]`` and ``b[i]`` of a CSR code column hold different lists, for each i."""
    length = bounds[a + 1] - bounds[a]
    differs = length != bounds[b + 1] - bounds[b]
    same = np.flatnonzero(~differs)
    (_, at_a), (_, at_b) = csr_gather(bounds, a[same]), csr_gather(bounds, b[same])
    differs[np.repeat(same, length[same])[codes[at_a] != codes[at_b]]] = True
    return differs
