"""JSONL serialization for event streams.

One JSON object per line.  Event lines carry {"id", "ts_ms", "user",
"type", "root_id"?, "hashtags", "urls", "followers", "lang"}; rate limit
message lines carry {"rl_ts_ms", "missed"}.  Mixed files interleave both; a
line is a message iff it has the key "rl_ts_ms".

``read_bundle`` keeps what it parsed in a sidecar ``<input>.streamfid.npz``
beside the input: the bundle as numpy columns, keyed by the blake2b digest
of the file's bytes.  A later read of the same bytes loads the columns
instead of parsing the lines again; any other read parses.  The JSONL stays
the one source of truth, and a sidecar is safe to delete.
"""

from __future__ import annotations

import gc
import io
import json
import os
import stat
import tempfile
import zipfile
from contextlib import suppress
from functools import partial
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path
from sys import intern
from typing import Iterable, Iterator, Optional, TextIO, Union

import numpy as np

from .model import EVENT_TYPES, Event, RateLimitMessage, StreamBundle

Record = Union[Event, RateLimitMessage]

# one C scanner call per line, and one encoder: json.loads wraps the scanner
# in Python-level checks, and json.dumps with separators builds an encoder
# per call
_scan = json.JSONDecoder().scan_once
_encode = json.JSONEncoder(separators=(",", ":")).encode

# the default of a missing hashtags or urls field; never mutated
_NO_STRINGS: list = []


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


def _not_a_list(name: str, value):
    iter(value)  # a number or null raises the TypeError that names its type
    # a string or an object is iterable too, and would be read as its items
    raise TypeError(f"{name} must be a list, not {type(value).__name__}")


def _wrong_type(obj: dict):
    """Raise the TypeError that names the first field of ``obj`` whose JSON
    type a record cannot hold: a number that is not an integer (a float or a
    boolean), a numeric string, or a lang that is not a string."""
    names = ("rl_ts_ms", "missed") if "rl_ts_ms" in obj else ("id", "ts_ms", "user", "root_id", "followers")
    for name in names:
        value = obj.get(name, 0) if name in ("root_id", "followers") else obj[name]
        if value.__class__ is not int and (value is not None or name != "root_id"):
            raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    raise TypeError(f"lang must be a string, not {type(obj['lang']).__name__}")


def _record_from_obj(obj: dict) -> Record:
    # JSON integers only: int() would truncate 4.9 and read "12" or true.
    # The checks are inline, as a call per field would slow every line.
    if "rl_ts_ms" in obj:
        if (ts := obj["rl_ts_ms"]).__class__ is not int or (missed := obj["missed"]).__class__ is not int:
            _wrong_type(obj)
        return RateLimitMessage(ts, missed)
    if ((id_ := obj["id"]).__class__ is not int or (ts := obj["ts_ms"]).__class__ is not int
            or (user := obj["user"]).__class__ is not int
            or ((root_id := obj.get("root_id")) is not None and root_id.__class__ is not int)
            or (followers := obj.get("followers", 0)).__class__ is not int
            or (lang := obj.get("lang", "en")).__class__ is not str):
        _wrong_type(obj)
    # interned: a stream repeats a handful of types and languages and a
    # skewed set of entities, which would otherwise be one string per use
    return Event(
        id_,
        ts,
        user,
        intern(str(obj["type"])),
        root_id,
        (tuple(map(intern, tags)) if tags else ())
        if (tags := obj.get("hashtags", _NO_STRINGS)).__class__ is list
        else _not_a_list("hashtags", tags),
        (tuple(map(intern, urls)) if urls else ())
        if (urls := obj.get("urls", _NO_STRINGS)).__class__ is list
        else _not_a_list("urls", urls),
        followers,
        intern(lang),
    )


def _records(fh: TextIO, path) -> Iterator[Record]:
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
        # RecursionError: a line nested deeper than the scanner's recursion limit
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise LineFormatError(path, lineno, str(exc)) from None


def iter_records(path) -> Iterator[Record]:
    """Stream records from a JSONL file without loading the whole bundle."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from _records(fh, path)


class _HashingReader(io.RawIOBase):
    """A binary file that feeds every byte read from it to a hash."""

    def __init__(self, raw, digest):
        self.raw, self.digest = raw, digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.raw.readinto(buffer)
        self.digest.update(memoryview(buffer)[:n])
        return n


def read_bundle(path) -> StreamBundle:
    """Load a JSONL file into a StreamBundle (re-sorting if needed).

    Loads the sidecar instead when it holds the columns of these exact
    bytes; after a parse, writes it (a failed write is ignored).
    """
    # records hold no reference cycles, and the cycle collector's passes
    # over a heap that grows by a record per line took a third of a parse
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_bundle(path)
    finally:
        if enabled:
            gc.enable()


def _read_bundle(path) -> StreamBundle:
    # hashlib loads OpenSSL (5 ms, 3 MB), which a process that reads no
    # file should not pay
    from hashlib import blake2b

    sidecar = Path(f"{path}{SIDECAR_SUFFIX}")
    with open(path, "rb", buffering=0) as raw:
        # a pipe can be read only once, and a sidecar could never match it
        regular = stat.S_ISREG(os.fstat(raw.fileno()).st_mode)
        if regular:
            digest = blake2b()
            for chunk in iter(partial(raw.read, 1 << 20), b""):
                digest.update(chunk)
            bundle = _load_sidecar(sidecar, digest.hexdigest())
            if bundle is not None:
                return bundle
            raw.seek(0)
        # parse the bytes that the digest covers, so a file rewritten since it
        # was hashed never gets a sidecar that does not match it
        digest = blake2b()
        events, messages = [], []
        with io.TextIOWrapper(io.BufferedReader(_HashingReader(raw, digest)), encoding="utf-8") as fh:
            for rec in _records(fh, path):
                (messages if isinstance(rec, RateLimitMessage) else events).append(rec)
    bundle = StreamBundle.build(events, messages)
    if regular:
        _save_sidecar(sidecar, digest.hexdigest(), bundle)
    return bundle


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


# ---------------------------------------------------------------- sidecar
#
# One int64 column per event field: id, ts, user, type (index into
# EVENT_TYPES), root (-1 for none), followers and lang (a code into the
# lang table).  Hashtags and urls are CSR: <name>_bounds holds each event's
# start into <name>_codes plus the end, and the codes index the name's
# table.  A table of strings is CSR too: <name>_table_text holds the UTF-8
# of the strings joined, <name>_table_bounds where each starts, in
# characters.  Messages are the columns msg_ts and msg_missed.

SIDECAR_SUFFIX = ".streamfid.npz"
SIDECAR_FORMAT = "streamfid-event-columns/2"

_TYPE_CODE = {t: code for code, t in enumerate(EVENT_TYPES)}

# what np.load and the column checks raise on a truncated, foreign or
# tampered file (a lone .npy loads as an array, which is no context manager)
_UNREADABLE = (OSError, EOFError, zipfile.BadZipFile, KeyError, TypeError, ValueError)


def _codes(strings: Iterable[str], table: dict) -> Iterator[int]:
    """Each string's code: its index in ``table``, which a new string joins."""
    return (table.setdefault(s, len(table)) for s in strings)


def _pack(strings: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    strings = list(strings)
    # surrogatepass: a JSON string may hold a lone surrogate, which plain
    # UTF-8 cannot encode; each stays one character on the way back
    text = "".join(strings).encode("utf-8", "surrogatepass")
    bounds = np.fromiter(accumulate(map(len, strings), initial=0), np.int64, len(strings) + 1)
    return np.frombuffer(text, np.uint8), bounds


def _save_sidecar(sidecar: Path, digest: str, bundle: StreamBundle) -> None:
    events, n = bundle.events, len(bundle.events)

    def field(i: int) -> Iterator:
        return map(itemgetter(i), events)

    tables = {"lang": {}, "hashtag": {}, "url": {}}
    try:
        cols = {
            "id": np.fromiter(field(0), np.int64, n),
            "ts": np.fromiter(field(1), np.int64, n),
            "user": np.fromiter(field(2), np.int64, n),
            "type": np.fromiter(map(_TYPE_CODE.__getitem__, field(3)), np.int64, n),
            "root": np.fromiter((-1 if r is None else r for r in field(4)), np.int64, n),
            "followers": np.fromiter(field(7), np.int64, n),
            "lang": np.fromiter(_codes(field(8), tables["lang"]), np.int64, n),
            "msg_ts": np.fromiter(map(itemgetter(0), bundle.messages), np.int64),
            "msg_missed": np.fromiter(map(itemgetter(1), bundle.messages), np.int64),
        }
        for name, i in (("hashtag", 5), ("url", 6)):
            bounds = np.fromiter(accumulate(map(len, field(i)), initial=0), np.int64, n + 1)
            cols[f"{name}_bounds"] = bounds
            cols[f"{name}_codes"] = np.fromiter(_codes(chain.from_iterable(field(i)), tables[name]),
                                                np.int64, bounds[-1])
    except OverflowError:
        return  # a number beyond int64: such a file is parsed on every read
    if np.count_nonzero(cols["root"] < 0) != np.count_nonzero(cols["type"] == _TYPE_CODE["root"]):
        return  # a negative root id would come back as none
    for name, table in tables.items():
        cols[f"{name}_table_text"], cols[f"{name}_table_bounds"] = _pack(table)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f"{sidecar.name}.", suffix=".tmp", dir=sidecar.parent)
    except OSError:
        return  # an unwritable directory: the next read parses again
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, format=np.array(SIDECAR_FORMAT), digest=np.array(digest), **cols)
        # readers see the old sidecar or the whole new one, never a part
        os.replace(tmp, sidecar)
    except OSError:
        pass
    finally:
        with suppress(OSError):
            os.unlink(tmp)  # left only when the write failed


def _int_column(z, name: str, length: Optional[int] = None) -> np.ndarray:
    col = z[name]
    if col.dtype != np.int64 or col.ndim != 1 or (length is not None and len(col) != length):
        raise ValueError(f"sidecar column {name} is not a 1-d int64 column of the rows' length")
    return col


def _bounds(z, name: str, rows: Optional[int], total: int) -> list[int]:
    """CSR row bounds: ``rows + 1`` non-decreasing offsets from 0 to ``total``."""
    bounds = _int_column(z, name, None if rows is None else rows + 1)
    if len(bounds) == 0 or bounds[0] != 0 or bounds[-1] != total or np.any(np.diff(bounds) < 0):
        raise ValueError(f"sidecar column {name} holds no CSR bounds")
    return bounds.tolist()


def _table(z, name: str) -> list[str]:
    raw = z[f"{name}_table_text"]
    if raw.dtype != np.uint8 or raw.ndim != 1:
        raise ValueError(f"sidecar column {name}_table_text is not UTF-8 bytes")
    text = raw.tobytes().decode("utf-8", "surrogatepass")
    bounds = _bounds(z, f"{name}_table_bounds", None, len(text))
    return [intern(text[a:b]) for a, b in zip(bounds, bounds[1:])]


def _decoded(codes: np.ndarray, table) -> list[str]:
    if len(codes) and (codes.min() < 0 or codes.max() >= len(table)):
        raise ValueError("a sidecar code lies outside its table")
    return np.array(table, dtype=object)[codes].tolist()


def _entity_tuples(z, name: str, n: int) -> list[tuple[str, ...]]:
    codes = _int_column(z, f"{name}_codes")
    bounds = _bounds(z, f"{name}_bounds", n, len(codes))
    flat = tuple(_decoded(codes, _table(z, name)))
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _load_sidecar(sidecar: Path, digest: str) -> Optional[StreamBundle]:
    """The bundle a sidecar keeps for ``digest``; None when it is missing,
    stale or invalid.  Every row goes through the record constructors and
    the bundle's order and uniqueness checks, as a parsed row does."""
    try:
        # opened here: np.load leaks the file it opens when the zip is damaged
        with open(sidecar, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            if z["format"].tolist() != SIDECAR_FORMAT or z["digest"].tolist() != digest:
                return None
            ids = _int_column(z, "id")
            n = len(ids)

            def column(name: str) -> np.ndarray:
                return _int_column(z, name, n)

            events = list(map(
                Event, ids.tolist(), column("ts").tolist(), column("user").tolist(),
                _decoded(column("type"), EVENT_TYPES),
                [None if r < 0 else r for r in column("root").tolist()],
                _entity_tuples(z, "hashtag", n), _entity_tuples(z, "url", n),
                column("followers").tolist(), _decoded(column("lang"), _table(z, "lang"))))
            msg_ts = _int_column(z, "msg_ts")
            messages = list(map(RateLimitMessage, msg_ts.tolist(),
                                _int_column(z, "msg_missed", len(msg_ts)).tolist()))
        return StreamBundle(events, messages)
    except _UNREADABLE:
        return None
