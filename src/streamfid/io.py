"""JSONL serialization for event streams.

One JSON object per line.  Event lines carry {"id", "ts_ms", "user",
"type", "root_id"?, "hashtags", "urls", "followers", "lang"}; rate limit
message lines carry {"rl_ts_ms", "missed"}.  Mixed files interleave both; a
line is a message iff it has the key "rl_ts_ms".
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Union

from .model import Event, RateLimitMessage, StreamBundle

Record = Union[Event, RateLimitMessage]


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
    return Event(
        id=int(obj["id"]),
        timestamp_ms=int(obj["ts_ms"]),
        user_id=int(obj["user"]),
        event_type=str(obj["type"]),
        root_id=int(obj["root_id"]) if obj.get("root_id") is not None else None,
        hashtags=tuple(obj.get("hashtags") or ()),
        urls=tuple(obj.get("urls") or ()),
        follower_count=int(obj.get("followers", 0)),
        lang=str(obj.get("lang", "en")),
    )


def iter_records(path) -> Iterator[Record]:
    """Stream records from a JSONL file without loading the whole bundle."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                yield _record_from_obj(obj)
            except (ValueError, KeyError, TypeError) as exc:
                reason = exc.reason if isinstance(exc, LineFormatError) else str(exc)
                raise LineFormatError(path, lineno, reason) from None


def read_bundle(path, meta: dict | None = None) -> StreamBundle:
    """Load a JSONL file into a StreamBundle (re-sorting if needed)."""
    events, messages = [], []
    for rec in iter_records(path):
        (messages if isinstance(rec, RateLimitMessage) else events).append(rec)
    return StreamBundle.build(events, messages, meta or {"source": str(path)})


def write_bundle(path, bundle: StreamBundle) -> None:
    """Write events and messages interleaved chronologically."""
    records: list[tuple[tuple, dict]] = []
    for ev in bundle.events:
        records.append(((ev.timestamp_ms, 0, ev.id), event_to_obj(ev)))
    for msg in bundle.messages:
        records.append(((msg.timestamp_ms, 1, msg.cumulative_missed), message_to_obj(msg)))
    records.sort(key=lambda r: r[0])
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for _, obj in records:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")

