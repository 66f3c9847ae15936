"""JSONL serialization for event streams.

One JSON object per line.  Event lines carry {"id", "ts_ms", "user",
"type", "root_id"?, "hashtags", "urls", "followers", "lang"}; rate limit
message lines carry {"rl_ts_ms", "missed"}.  Mixed files interleave both; a
line is a message iff it has the key "rl_ts_ms".
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path
from sys import intern
from typing import Iterator, Union

from .model import Event, RateLimitMessage, StreamBundle

Record = Union[Event, RateLimitMessage]

# one C scanner call per line, and one encoder: json.loads wraps the scanner
# in Python-level checks, and json.dumps with separators builds an encoder
# per call
_scan = json.JSONDecoder().scan_once
_encode = json.JSONEncoder(separators=(",", ":")).encode


class LineFormatError(ValueError):
    """A JSONL line could not be parsed; carries the 1-based line number."""

    def __init__(self, path, lineno: int, reason: str):
        super().__init__(f"{path}:{lineno}: {reason}")
        self.path = str(path)
        self.lineno = lineno
        self.reason = reason


def event_to_obj(ev: Event) -> dict:
    obj = {
        "id": ev.id,
        "ts_ms": ev.timestamp_ms,
        "user": ev.user_id,
        "type": ev.event_type,
    }
    if ev.root_id is not None:
        obj["root_id"] = ev.root_id
    obj["hashtags"] = list(ev.hashtags)
    obj["urls"] = list(ev.urls)
    obj["followers"] = ev.follower_count
    obj["lang"] = ev.lang
    return obj


def message_to_obj(msg: RateLimitMessage) -> dict:
    return {"rl_ts_ms": msg.timestamp_ms, "missed": msg.cumulative_missed}


def _record_from_obj(obj: dict) -> Record:
    if "rl_ts_ms" in obj:
        return RateLimitMessage(int(obj["rl_ts_ms"]), int(obj["missed"]))
    # interned: a stream repeats a handful of types and languages and a
    # skewed set of entities, which would otherwise be one string per use
    return Event(
        int(obj["id"]),
        int(obj["ts_ms"]),
        int(obj["user"]),
        intern(str(obj["type"])),
        None if (root_id := obj.get("root_id")) is None else int(root_id),
        tuple(map(intern, hashtags)) if (hashtags := obj.get("hashtags")) else (),
        tuple(map(intern, urls)) if (urls := obj.get("urls")) else (),
        int(obj.get("followers", 0)),
        intern(str(obj.get("lang", "en"))),
    )


def iter_records(path) -> Iterator[Record]:
    """Stream records from a JSONL file without loading the whole bundle."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    obj, end = _scan(line, 0)
                except (StopIteration, ValueError):
                    end = None
                if end != len(line):
                    # not one JSON value: json.loads raises the error it names
                    obj = json.loads(line)
                yield _record_from_obj(obj)
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise LineFormatError(path, lineno, str(exc)) from None


def read_bundle(path) -> StreamBundle:
    """Load a JSONL file into a StreamBundle (re-sorting if needed)."""
    events, messages = [], []
    for rec in iter_records(path):
        (messages if isinstance(rec, RateLimitMessage) else events).append(rec)
    return StreamBundle.build(events, messages)


def write_bundle(path, bundle: StreamBundle) -> None:
    """Write events and messages interleaved chronologically."""
    records = [((ev.timestamp_ms, 0, ev.id), _encode(event_to_obj(ev))) for ev in bundle.events]
    records += [((msg.timestamp_ms, 1, msg.cumulative_missed), _encode(message_to_obj(msg)))
                for msg in bundle.messages]
    records.sort(key=itemgetter(0))
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for _, line in records)

