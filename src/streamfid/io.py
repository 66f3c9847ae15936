"""JSONL serialization for event streams.

One JSON object per line.  Event lines carry {"id", "ts_ms", "user",
"type", "root_id"?, "hashtags", "urls", "followers", "lang"}; rate limit
message lines carry {"rl_ts_ms", "missed"}.  Mixed files interleave both; a
line is a message iff it has the key "rl_ts_ms".

``read_bundle`` returns the bundle, whose events are numpy columns, and
keeps those columns in a sidecar ``<input>.streamfid.npz`` beside the
input, keyed by the blake2b digest of the file's bytes.  A later read of
the same bytes loads them instead of parsing the lines again; any other
read parses, in one binary pass that hashes each block of lines and
decodes each line as UTF-8.  Invalid UTF-8, or a number beyond int64 or a
negative root id, which no column holds, is a malformed line.  The JSONL
stays the one source of truth, and a sidecar is safe to delete.

The graph commands also read two CSV inputs: an edge list of
(src, dst, weight) rows (``read_edge_csv``) and an assignment of
(node, cluster) rows (``read_assignment``), as the commands write them.
Blank rows, '#' comment lines and the header row are skipped.  A row
that is too short, holds text where a number belongs, gives a weight
below 1, repeats an earlier edge or node or is a JSON object fails like a
malformed JSONL line: a LineFormatError whose message starts with
PATH:LINE.
"""

from __future__ import annotations

import csv
import json
import os
import stat
import tempfile
import zipfile
from contextlib import suppress
from functools import partial
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from sys import intern
from typing import BinaryIO, Iterator, Optional, Union

import numpy as np

from .model import EVENT_TYPES, Event, EventTable, RateLimitMessage, StreamBundle, collector_paused, field_blocks

Record = Union[Event, RateLimitMessage]

# one C scanner call per line: json.loads wraps the scanner in Python-level
# checks
_scan = json.JSONDecoder().scan_once

_BLOCK = 1 << 16   # bytes read at a time

# the default of a missing hashtags or urls field; never mutated
_NO_STRINGS: list = []


class LineFormatError(ValueError):
    """An input line could not be parsed; carries the 1-based line number."""

    def __init__(self, path, lineno: int, reason: str):
        super().__init__(f"{path}:{lineno}: {reason}")
        self.path = str(path)
        self.lineno = lineno
        self.reason = reason


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


def _records(fh: BinaryIO, path, update=None) -> Iterator[tuple[int, Record]]:
    """(line number, record) of each non-blank line of a binary file, read a
    block of whole lines at a time; each block goes to ``update`` first.
    ``splitlines`` ends a line where text mode's universal newlines would:
    at LF, CR or CRLF."""
    lineno = 0
    for chunk in iter(partial(fh.read, _BLOCK), b""):
        chunk += fh.readline()   # a block ends at the end of a line
        if update is not None:
            update(chunk)
        for line in chunk.splitlines():
            lineno += 1
            try:
                if not (line := line.decode("utf-8").strip()):
                    continue
                try:
                    obj, end = _scan(line, 0)
                except (StopIteration, ValueError):
                    end = None
                if end != len(line):
                    # not one JSON value: json.loads raises the error it names
                    obj = json.loads(line)
                yield lineno, _record_from_obj(obj)
            # RecursionError: a line nested deeper than the scanner's recursion limit
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                raise LineFormatError(path, lineno, str(exc)) from None


def iter_records(path) -> Iterator[Record]:
    """Stream records from a JSONL file without loading the whole bundle."""
    with open(path, "rb") as fh:
        for _, rec in _records(fh, path):
            yield rec


@collector_paused()
def read_bundle(path) -> StreamBundle:
    """Load a JSONL file into a StreamBundle (re-sorting if needed).

    Loads the sidecar's columns when it holds those of these exact bytes;
    after a parse, writes it (a failed write is ignored).
    """
    # hashlib loads OpenSSL (5 ms, 3 MB), which a process that reads no
    # file should not pay
    from array import array
    from hashlib import blake2b

    sidecar = Path(f"{path}{SIDECAR_SUFFIX}")
    with open(path, "rb") as fh:
        # a pipe can be read only once, and a sidecar could never match it
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        if regular:
            digest = blake2b()
            for chunk in iter(partial(fh.read, _BLOCK), b""):
                digest.update(chunk)
            bundle = _load_sidecar(sidecar, digest.hexdigest())
            if bundle is not None:
                return bundle
            fh.seek(0)
        # parse the bytes that the digest covers, so a file rewritten since it
        # was hashed never gets a sidecar that does not match it
        digest = blake2b()
        events, messages, event_lines = [], [], array("q")
        for lineno, rec in _records(fh, path, digest.update if regular else None):
            if isinstance(rec, RateLimitMessage):
                messages.append(rec)
            else:
                events.append(rec)
                event_lines.append(lineno)
    try:
        bundle = StreamBundle.build(events, messages)
    except ValueError:
        # every line passed its own checks, so an id repeats: name the first
        # event, in file order, whose id an earlier one holds
        ids = np.fromiter((e.id for e in events), np.int64, len(events))
        at = np.setdiff1d(np.arange(len(ids)), np.unique(ids, return_index=True)[1])[0]
        raise LineFormatError(path, event_lines[at], f"duplicate event id {ids[at]}") from None
    del events, event_lines   # before the sidecar is packed
    if regular:
        _save_sidecar(sidecar, digest.hexdigest(), bundle)
    return bundle


def _csv_mapping(path, header: str, key_name: str, convert) -> dict:
    """{key: value} of the (key, value) ``convert`` gives each row of a CSV
    file, but for blank rows, lines starting with '#' and the row whose
    first field is ``header``.  A row it cannot convert, or whose key an
    earlier row holds, raises LineFormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        numbered = [(n, line) for n, line in enumerate(fh, start=1) if not line.startswith("#")]
    reader = csv.reader(line for _, line in numbered)
    out = {}
    for row in reader:
        if row and row[0] != header:
            try:
                if row[0].startswith("{"):
                    raise ValueError("a JSON object, not a CSV row")
                key, value = convert(row)
                if key in out:
                    raise ValueError(f"repeated {key_name} {key!r}")
                out[key] = value
            except (IndexError, ValueError) as exc:
                reason = str(exc) if isinstance(exc, ValueError) else f"expected at least 2 fields, got {len(row)}"
                raise LineFormatError(path, numbered[reader.line_num - 1][0], reason) from None
    return out


def read_assignment(path, cluster=str) -> dict:
    """Node -> cluster (``cluster`` of its text) from a (node, cluster) CSV."""
    return _csv_mapping(path, "node", "node", lambda row: (row[0], cluster(row[1])))


def read_edge_csv(path, dst=str) -> dict:
    """Weighted edge list from a (src, dst, weight) CSV of integer sources
    and weights of at least 1; the weight is 1 when left out."""
    def edge(row):
        weight = int(row[2]) if len(row) > 2 else 1
        if weight < 1:
            raise ValueError(f"edge weight {weight} is below 1")
        return (int(row[0]), dst(row[1])), weight

    return _csv_mapping(path, "src", "edge", edge)


# one template per record kind, in the key order of the format above; a
# string field is filled with its JSON text (json.dumps's, ASCII-escaped),
# and root_id with its whole member or nothing
_EVENT_LINE = ('{"id":%d,"ts_ms":%d,"user":%d,"type":%s,%s"hashtags":[%s],"urls":[%s],'
               '"followers":%d,"lang":%s}\n')
_MESSAGE_LINE = '{"rl_ts_ms":%d,"missed":%d}\n'
_WRITE_BLOCK = 4096   # lines joined per write
_QUOTED_TYPE = {name: encode_basestring_ascii(name) for name in EVENT_TYPES}


def _event_lines(fields) -> Iterator[str]:
    """The lines of events from their nine fields, strings but the type quoted."""
    ids, ts, users, types, roots, tags, urls, followers, langs = fields
    return map(_EVENT_LINE.__mod__, zip(
        ids, ts, users, map(_QUOTED_TYPE.__getitem__, types),
        ("" if r is None else '"root_id":%d,' % r for r in roots),
        map(",".join, tags), map(",".join, urls), followers, langs))


def write_bundle(path, bundle: StreamBundle) -> None:
    """Write events and messages interleaved chronologically: each message
    after the events of its millisecond, and messages of one millisecond in
    counter order.  Lines are formatted and written a block at a time, from
    string tables JSON-encoded once per write."""
    t = bundle.table
    quoted = t._replace(**{name: tuple(map(encode_basestring_ascii, getattr(t, name)))
                           for name in ("lang_table", "hashtag_table", "url_table")})
    lines = chain.from_iterable(map(_event_lines, field_blocks(quoted)))
    order = np.lexsort((bundle.msg_missed, bundle.msg_ts))
    at = np.searchsorted(t.ts, bundle.msg_ts[order], side="right").tolist()
    parts, done = [], 0
    for i, msg in zip(at, zip(bundle.msg_ts[order].tolist(), bundle.msg_missed[order].tolist())):
        parts += (islice(lines, i - done), (_MESSAGE_LINE % msg,))
        done = i
    ordered = chain.from_iterable((*parts, lines))
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for block in iter(lambda: "".join(islice(ordered, _WRITE_BLOCK)), ""):
            fh.write(block)


# ---------------------------------------------------------------- sidecar
#
# The sidecar holds the columns that ``StreamBundle.from_columns`` takes:
# the ``EventTable`` fields (int32 where allowed and the values fit), then
# msg_ts and msg_missed.  A string table is stored as its JSON text, in
# which a lone surrogate or a NUL is an ASCII escape.

SIDECAR_SUFFIX = ".streamfid.npz"
SIDECAR_FORMAT = "streamfid-event-columns/4"

_COLUMNS = (*EventTable._fields, "msg_ts", "msg_missed")

# what np.load and the column checks raise on a truncated, foreign or
# tampered file (a lone .npy loads as an array, which is no context manager)
_UNREADABLE = (OSError, EOFError, zipfile.BadZipFile, KeyError, TypeError, ValueError)


def _save_sidecar(sidecar: Path, digest: str, bundle: StreamBundle) -> None:
    cols = {name: np.array(json.dumps(col)) if name.endswith("_table") else col
            for name, col in bundle.columns().items()}
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


def _load_sidecar(sidecar: Path, digest: str) -> Optional[StreamBundle]:
    """The bundle a sidecar keeps for ``digest``, held as columns; None when
    the sidecar is missing, stale or fails the checks of ``from_columns``."""
    try:
        # opened here: np.load leaks the file it opens when the zip is damaged
        with open(sidecar, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            if z["format"].tolist() != SIDECAR_FORMAT or z["digest"].tolist() != digest:
                return None
            columns = {name: json.loads(z[name].tolist()) if name.endswith("_table") else z[name]
                       for name in _COLUMNS}
        return StreamBundle.from_columns(columns)
    except _UNREADABLE:
        return None
