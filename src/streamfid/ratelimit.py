"""Missing-volume accounting from rate limit messages.

A segment is a span bounded by two consecutive sample-set messages during
which the reference (complete) stream reported no message of its own, so
its true missing volume is known exactly.  Counter differences across a
segment estimate that volume; ``validate`` scores the estimates.

``map_threads`` untangles interleaved counters from samplers that spread
rate limit messages over several parallel threads, each with its own
cumulative counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from statistics import mean, median
from typing import Sequence

import numpy as np

from .model import RateLimitMessage, StreamBundle, missed_increments

DEFAULT_MAX_THREADS = 4


class ThreadOverflowError(ValueError):
    pass


@dataclass(frozen=True)
class Segment:
    """A message-bounded span with event counts from both streams."""

    start_ms: int
    end_ms: int
    bounding_messages: tuple[RateLimitMessage, RateLimitMessage]
    sample_event_count: int
    complete_event_count: int

    def __post_init__(self):
        if self.start_ms >= self.end_ms:
            raise ValueError("segment must have positive duration")
        if self.complete_event_count < self.sample_event_count:
            raise ValueError("sample count exceeds complete count")

    @property
    def true_missing(self) -> int:
        return self.complete_event_count - self.sample_event_count


@dataclass(frozen=True)
class ValidationReport:
    apes: tuple[float, ...]
    median_ape: float
    mean_ape: float


def segment_stream(complete: StreamBundle, sample: StreamBundle) -> list[Segment]:
    """Maximal spans between consecutive sample messages with a clean reference.

    A candidate span (m_i, m_i+1] is kept only when the complete stream
    emitted no rate limit message inside it, i.e. the complete stream is
    known to be intact there.  Returns an empty list when the sample carries
    fewer than two messages.
    """
    msgs = sample.messages
    if len(msgs) < 2:
        return []
    stamps = np.fromiter(map(itemgetter(0), msgs), np.int64, len(msgs))
    lo, hi = stamps[:-1], stamps[1:]

    def count_in(timestamps: np.ndarray) -> np.ndarray:
        # events with lo < ts <= hi
        return np.searchsorted(timestamps, hi, "right") - np.searchsorted(timestamps, lo, "right")

    complete_msg_ts = np.fromiter(map(itemgetter(0), complete.messages), np.int64, len(complete.messages))
    kept = np.flatnonzero((lo < hi) & (count_in(complete_msg_ts) == 0))
    sample_counts = count_in(sample.table.ts)[kept].tolist()
    complete_counts = count_in(complete.table.ts)[kept].tolist()
    return [
        Segment(
            start_ms=msgs[i].timestamp_ms,
            end_ms=msgs[i + 1].timestamp_ms,
            bounding_messages=(msgs[i], msgs[i + 1]),
            sample_event_count=n_s,
            complete_event_count=n_c,
        )
        for i, n_s, n_c in zip(kept.tolist(), sample_counts, complete_counts)
    ]


def estimate_missing(segment: Segment) -> int:
    """Missing volume as the difference of the two bounding counters."""
    # the second increment is the counter difference across the segment
    return missed_increments(segment.bounding_messages)[1]


def validate(segments: Sequence[Segment]) -> ValidationReport:
    """Absolute percentage error of the counter estimate per segment."""
    if not segments:
        raise ValueError("no segments to validate")
    apes = tuple(
        abs(estimate_missing(s) - s.true_missing) / max(s.true_missing, 1) for s in segments
    )
    return ValidationReport(apes, median(apes), mean(apes))


def map_threads(values: Sequence[int], max_threads: int = DEFAULT_MAX_THREADS) -> list[list[int]]:
    """Split one interleaved counter sequence into monotone per-thread lists.

    Greedy rule: a value starts a new list when it is <= every list tail,
    otherwise it extends the list whose tail is the largest value still
    strictly below it.  Needing more than ``max_threads`` lists is an error.
    """
    if not values:
        raise ValueError("empty input")
    lists: list[list[int]] = [[values[0]]]
    for v in values[1:]:
        tails = [lst[-1] for lst in lists]
        if v <= min(tails):
            if len(lists) >= max_threads:
                raise ThreadOverflowError("thread overflow")
            lists.append([v])
            continue
        best = -1
        for i, t in enumerate(tails):
            if t < v and (best < 0 or t > tails[best]):
                best = i
        lists[best].append(v)
    return lists


def total_missing_from_threads(lists: Sequence[Sequence[int]]) -> int:
    """Total missing volume over per-thread cumulative-from-zero counters."""
    return sum(lst[-1] for lst in lists if lst)
