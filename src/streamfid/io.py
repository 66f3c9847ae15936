"""JSONL serialization for event streams.

One JSON object per line.  Event lines carry {"id", "ts_ms", "user",
"type", "root_id"?, "hashtags", "urls", "followers", "lang"}; rate limit
message lines carry {"rl_ts_ms", "missed"}.  Mixed files interleave both; a
line is a message iff it has the key "rl_ts_ms".

Both directions go straight between lines and a bundle's columns, and
neither builds a record.  ``write_bundle`` formats a block of events at a
time: each field's column is turned into a list of strings once (types
and langs by table lookup, the root member and the joined hashtags and
urls only for the rows that have them), one f-string per line joins them,
and the messages go in at their positions.  ``read_bundle`` makes one
call into the json module's C scanner per line, checks the line by the
rules of ``Event`` or ``RateLimitMessage`` and appends its numbers to
int64 columns and its strings to tables in the order of first use; an
unsorted file is sorted on columns.  ``iter_records`` parses a block of
lines the same way and builds its records from those columns.

``read_bundle`` keeps the columns in a sidecar ``<input>.streamfid.npz``
beside the input, keyed by the blake2b digest of the file's bytes.  A
later read of the same bytes loads them instead of parsing the lines
again; any other read parses, in one binary pass that hashes each block
of lines and decodes each line as UTF-8.  Invalid UTF-8, or a number
beyond int64 or a negative root id, which no column holds, is a malformed
line.  The JSONL stays the one source of truth, and a sidecar is safe to
delete.

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
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from sys import intern
from typing import BinaryIO, Iterable, Iterator, Optional, Union

import numpy as np

from .model import (_ROW_BLOCK, _TYPE_CODE, EVENT_TYPES, Event, EventTable, EventView, RateLimitMessage, StreamBundle,
                    _coded, bounds_of, check_event, check_message, message_rows, subtable)

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


def _lines(fh: BinaryIO, path, update=None) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line of a binary file,
    read a block of whole lines at a time; each block goes to ``update``
    first.  ``splitlines`` ends a line where text mode's universal newlines
    would: at LF, CR or CRLF."""
    lineno = 0
    for chunk in iter(partial(fh.read, _BLOCK), b""):
        chunk += fh.readline()   # a block ends at the end of a line
        if update is not None:
            update(chunk)
        for line in chunk.splitlines():
            lineno += 1
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise LineFormatError(path, lineno, str(exc)) from None
            if line := line.strip():
                yield lineno, line


# the int64 record the reader appends per line: for an event, its columns
# (type, root and lang coded as in an EventTable), its counts of hashtags
# and urls, and its line number; for a message, its two columns and line
_EVENT_RECORD = ("id", "ts", "user", "type", "root", "followers", "lang", "hashtag", "url", "line")
_MESSAGE_RECORD = ("msg_ts", "msg_missed", "msg_line")
_PENDING = 10 * 4096   # numbers of event records held in a list at most


def _parse(lines: Iterable[tuple[int, str]], path) -> dict:
    """The columns of numbered lines (as ``_lines`` gives them), events and
    messages in file order: those ``StreamBundle.from_columns`` takes, with
    each string table in the order of first use, and ``line`` and
    ``msg_line``, the line number of each event and of each message.

    Each line is one call of the JSON scanner, and is checked by the rules
    of ``Event`` or ``RateLimitMessage``: a line that breaks one raises the
    LineFormatError that names the rule, as constructing the record would.
    """
    from array import array

    events, messages, hashtags, urls = array("q"), array("q"), array("q"), array("q")
    langs, hashtag_table, url_table = {}, {}, {}   # string -> code, in the order of first use
    pending = []   # event records not yet in their array: a list takes them faster
    for lineno, line in lines:
        try:
            try:
                obj, end = _scan(line, 0)
            except (StopIteration, ValueError):
                end = None
            if end != len(line):
                # not one JSON value: json.loads raises the error it names
                obj = json.loads(line)
            # JSON integers only: int() would truncate 4.9 and read "12" or
            # true.  The checks are inline, as a call per field would slow
            # every line; a value shifted right by 63 is 0 exactly when it is
            # a non-negative int64, and the rule's own check names any other.
            if "rl_ts_ms" in obj:
                if (ts := obj["rl_ts_ms"]).__class__ is not int or (missed := obj["missed"]).__class__ is not int:
                    _wrong_type(obj)
                if (ts | missed) >> 63:
                    check_message(ts, missed)
                messages.extend((ts, missed, lineno))
                continue
            if ((id_ := obj["id"]).__class__ is not int or (ts := obj["ts_ms"]).__class__ is not int
                    or (user := obj["user"]).__class__ is not int
                    or ((root := obj.get("root_id")) is not None and root.__class__ is not int)
                    or (followers := obj.get("followers", 0)).__class__ is not int
                    or (lang := obj.get("lang", "en")).__class__ is not str):
                _wrong_type(obj)
            kind = obj["type"]
            # interned, as the table interns them: intern names a value that is no string
            if (tags := obj.get("hashtags", _NO_STRINGS)).__class__ is not list:
                _not_a_list("hashtags", tags)
            for tag in tags:
                hashtags.append(hashtag_table.setdefault(intern(tag), len(hashtag_table)))
            if (links := obj.get("urls", _NO_STRINGS)).__class__ is not list:
                _not_a_list("urls", links)
            for link in links:
                urls.append(url_table.setdefault(intern(link), len(url_table)))
            code = _TYPE_CODE.get(kind) if kind.__class__ is str else None
            if (code is None or (root is None) != (code == 0) or (id_ | ts | followers | (root or 0)) >> 63
                    or not -1 <= user >> 63 <= 0):
                check_event(id_, ts, user, str(kind), root, followers)
            pending += (id_, ts, user, code, -1 if root is None else root, followers,
                        langs.setdefault(lang, len(langs)), len(tags), len(links), lineno)
            if len(pending) >= _PENDING:
                events.fromlist(pending)
                pending.clear()
        # RecursionError: a line nested deeper than the scanner's recursion limit
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise LineFormatError(path, lineno, str(exc)) from None
    events.fromlist(pending)
    cols = {name: col.copy() for fields, records in ((_EVENT_RECORD, events), (_MESSAGE_RECORD, messages))
            for name, col in zip(fields, np.frombuffer(records, np.int64).reshape(-1, len(fields)).T)}
    cols["lang_table"] = tuple(langs)
    for base, codes, table in (("hashtag", hashtags, hashtag_table), ("url", urls, url_table)):
        cols[f"{base}_bounds"], cols[f"{base}_codes"] = bounds_of(cols.pop(base)), np.frombuffer(codes, np.int64)
        cols[f"{base}_table"] = tuple(table)
    return cols


def _sorted(cols: dict) -> dict:
    """Columns in file order, ordered as ``StreamBundle.build`` orders rows:
    events by (timestamp, id), each string table re-coded by first use in
    that order, and messages by timestamp, stably.  Each is sorted only when
    it is not in order, which a file ``write_bundle`` writes always is."""
    ids, ts, step, msg_ts = cols["id"], cols["ts"], np.diff(cols["ts"]), cols["msg_ts"]
    if np.any((step < 0) | ((step == 0) & (np.diff(ids) < 0))):
        cols = {**cols, **subtable(_table(cols), np.lexsort((ids, ts)))._asdict()}
        for codes, table in (("lang", "lang_table"), ("hashtag_codes", "hashtag_table"), ("url_codes", "url_table")):
            cols[codes], cols[table] = _coded(map(cols[table].__getitem__, cols[codes].tolist()))
    if np.any(np.diff(msg_ts) < 0):
        at = np.argsort(msg_ts, kind="stable")
        cols = {**cols, "msg_ts": msg_ts[at], "msg_missed": cols["msg_missed"][at]}
    return cols


def _table(cols: dict) -> EventTable:
    return EventTable(**{name: cols[name] for name in EventTable._fields})


def iter_records(path) -> Iterator[Record]:
    """Stream records from a JSONL file without loading the whole bundle: a
    block of lines at a time is parsed into columns, as ``read_bundle``
    parses a file, and its records are built from them in file order."""
    with open(path, "rb") as fh:
        lines = _lines(fh, path)
        for block in iter(lambda: list(islice(lines, _ROW_BLOCK)), []):
            cols = _parse(block, path)
            rows = (*EventView(_table(cols)), *message_rows(cols["msg_ts"], cols["msg_missed"]))
            yield from map(rows.__getitem__, np.argsort(np.concatenate((cols["line"], cols["msg_line"]))).tolist())


def read_bundle(path) -> StreamBundle:
    """Load a JSONL file into a StreamBundle (re-sorting if needed).

    Loads the sidecar's columns when it holds those of these exact bytes;
    after a parse, writes it (a failed write is ignored).
    """
    # hashlib loads OpenSSL (5 ms, 3 MB), which a process that reads no
    # file should not pay
    from hashlib import blake2b

    sidecar = Path(f"{path}{SIDECAR_SUFFIX}")
    with open(path, "rb") as fh:
        # a pipe can be read only once and never matches a sidecar; a file without one is hashed once
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        if regular and sidecar.exists():
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
        cols = _parse(_lines(fh, path, digest.update if regular else None), path)
    try:
        bundle = StreamBundle.from_columns(_sorted(cols))
    except ValueError:
        # every line passed its own checks, so an id repeats: name the first
        # event, in file order, whose id an earlier one holds
        ids = cols["id"]
        at = np.setdiff1d(np.arange(len(ids)), np.unique(ids, return_index=True)[1])[0]
        raise LineFormatError(path, cols["line"][at], f"duplicate event id {ids[at]}") from None
    del cols   # before the sidecar is packed
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


_MESSAGE_LINE = '{"rl_ts_ms":%d,"missed":%d}\n'
# events formatted and written at a time: the strings of a block of 4096
# took the writer 1 MB over the simulator's peak RSS, those of 2048 none
_WRITE_BLOCK = 2048
_QUOTED_TYPE = np.array([encode_basestring_ascii(name) for name in EVENT_TYPES], object)


def _joined(bounds: np.ndarray, codes: np.ndarray, quoted: np.ndarray) -> list:
    """Each row's quoted strings of a CSR code column joined by commas; only
    the rows that hold any are joined."""
    flat = quoted[codes[bounds[0]:bounds[-1]]].tolist()
    b = (bounds - bounds[0]).tolist()
    return [",".join(flat[i:j]) if i != j else "" for i, j in zip(b, b[1:])]


def write_bundle(path, bundle: StreamBundle) -> None:
    """Write events and messages interleaved chronologically: each message
    after the events of its millisecond, and messages of one millisecond in
    counter order.  A block of events at a time, each field's column becomes
    a list of strings once, and the lines are joined from those in one pass
    (in the key order of the format above, string tables JSON-encoded as
    json.dumps would, ASCII-escaped); the block's messages go in at their
    positions."""
    t = bundle.table
    quoted = {base: np.array([encode_basestring_ascii(s) for s in getattr(t, f"{base}_table")], object)
              for base in ("lang", "hashtag", "url")}
    order = np.lexsort((bundle.msg_missed, bundle.msg_ts))
    # a message goes before the event at its position
    at = np.searchsorted(t.ts, bundle.msg_ts[order], side="right")
    messages = [_MESSAGE_LINE % m for m in zip(bundle.msg_ts[order].tolist(), bundle.msg_missed[order].tolist())]
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        done = 0
        for a in range(0, len(t.id), _WRITE_BLOCK):
            b = a + _WRITE_BLOCK
            tags, urls = (_joined(getattr(t, f"{base}_bounds")[a:b + 1], getattr(t, f"{base}_codes"), quoted[base])
                          for base in ("hashtag", "url"))
            lines = [f'{{"id":{i},"ts_ms":{s},"user":{u},"type":{k},{r}"hashtags":[{h}],"urls":[{w}],'
                     f'"followers":{f},"lang":{g}}}\n'
                     for i, s, u, k, r, h, w, f, g in zip(
                         t.id[a:b].tolist(), t.ts[a:b].tolist(), t.user[a:b].tolist(),
                         _QUOTED_TYPE[t.type[a:b]].tolist(),
                         [f'"root_id":{r},' if r >= 0 else "" for r in t.root[a:b].tolist()],
                         tags, urls, t.followers[a:b].tolist(), quoted["lang"][t.lang[a:b]].tolist())]
            end = int(np.searchsorted(at, b))
            for i in reversed(range(done, end)):   # the later first, so that positions hold
                lines.insert(at[i] - a, messages[i])
            done = end
            fh.write("".join(lines))
        fh.write("".join(messages[done:]))


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
