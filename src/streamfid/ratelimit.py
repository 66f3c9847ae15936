"""Missing-volume accounting from rate limit messages.

A segment is a span bounded by two consecutive sample-set messages during
which the reference (complete) stream reported no message of its own, so
its true missing volume is known exactly.  The sample's counter increase
across a segment estimates that volume; ``validate`` scores the estimates.

``map_threads`` untangles interleaved counters from samplers that spread
rate limit messages over several parallel threads, each with its own
cumulative counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, median
from typing import Sequence

import numpy as np

from .model import NON_MONOTONE, StreamBundle, missed_increments

DEFAULT_MAX_THREADS = 4


class ThreadOverflowError(ValueError):
    pass


@dataclass(frozen=True)
class Segment:
    """A message-bounded span: the increase of the sample's missed counter
    across it, and the event counts of both streams."""

    start_ms: int
    end_ms: int
    reported_missing: int
    sample_event_count: int
    complete_event_count: int

    def __post_init__(self):
        if self.start_ms >= self.end_ms:
            raise ValueError("segment must have positive duration")
        if self.reported_missing < 0:
            raise ValueError(NON_MONOTONE)
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
    fewer than two messages.  A span reports the increase of the sample's
    missed counter, so counters of several sampler threads raise the
    ``missed_increments`` error, even where no span is kept.  A sample with
    more events than the complete stream (a swapped pair) raises.
    """
    if len(sample) > len(complete):
        raise ValueError(f"the sample holds {len(sample)} events but the complete stream {len(complete)}")
    lo, hi = sample.msg_ts[:-1], sample.msg_ts[1:]

    def count_in(timestamps: np.ndarray) -> np.ndarray:
        # events with lo < ts <= hi
        return np.searchsorted(timestamps, hi, "right") - np.searchsorted(timestamps, lo, "right")

    kept = np.flatnonzero((lo < hi) & (count_in(complete.msg_ts) == 0))
    reported = missed_increments(sample.msg_missed)[1:]   # the counter's increase over each span
    # in the order of Segment's fields
    columns = (lo, hi, reported, count_in(sample.table.ts), count_in(complete.table.ts))
    return [Segment(*row) for row in zip(*(c[kept].tolist() for c in columns))]


def estimate_missing(segment: Segment) -> int:
    """Missing volume as the increase of the missed counter across the segment."""
    return segment.reported_missing


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
