"""The columnar sidecar behind ``read_bundle``.

``read_bundle`` keeps a parsed file's columns in ``<input>.streamfid.npz``,
keyed by the SHA-256 digest of the file's bytes.  What a read returns must
never depend on the sidecar: a read through one equals a parse, and a
sidecar that is stale, damaged or holds rows the records reject is not
served.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import tempfile
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfid import io as sio
from streamfid.io import LineFormatError, read_bundle, write_bundle
from streamfid.model import EVENT_TYPES, Event, RateLimitMessage, StreamBundle, columns_of_rows

from conftest import ev

def sidecar_of(path):
    return path.with_name(path.name + sio.SIDECAR_SUFFIX)


def no_parse():
    """Within it, a read that parses fails: only the sidecar may serve it."""
    return mock.patch.object(sio, "_lines", side_effect=AssertionError("parsed the JSONL"))


def parsed_read(path):
    """A read that must parse the JSONL: its sidecar may not serve it."""
    with mock.patch.object(sio, "_lines", wraps=sio._lines) as parse:
        bundle = read_bundle(path)
    assert parse.called, "served from the sidecar"
    return bundle


@st.composite
def bundles(draw):
    # any text: lone surrogates, NUL, line separators and astral characters
    text = st.text(st.characters(blacklist_categories=()), max_size=5)
    # numbers up to int64's limits, which int32 columns cannot hold, and
    # negative user ids
    big = st.integers(0, 2 ** 63 - 1) if draw(st.booleans()) else st.integers(0, 10 ** 12)
    stamps = sorted(draw(st.lists(st.integers(0, 10_000), max_size=10)))
    events = []
    for i, t in enumerate(stamps):
        kind = "root" if i == 0 else draw(st.sampled_from(("root", "retweet", "quote", "reply")))
        events.append(ev(draw(st.integers(0, 3)) * 20 + i, t,
                         user=draw(st.sampled_from((-(2 ** 63), 2 ** 63 - 1)) | st.integers(-3, 5)),
                         kind=kind,
                         root_id=None if kind == "root" else draw(st.integers(0, 20) | big),
                         hashtags=draw(st.lists(text, max_size=3)),
                         urls=draw(st.lists(text, max_size=2)),
                         followers=draw(big), lang=draw(text)))
    msg_stamps = sorted(draw(st.lists(st.integers(0, 10_000), max_size=4)))
    counters = sorted(draw(st.lists(big, min_size=len(msg_stamps), max_size=len(msg_stamps))))
    return StreamBundle.build(events, [RateLimitMessage(t, c) for t, c in zip(msg_stamps, counters)])


def typed(bundle):
    return [tuple(map(type, e)) for e in bundle.events], [tuple(map(type, m)) for m in bundle.messages]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(bundles())
def test_read_through_sidecar_equals_parse(tmp_path_factory, bundle):
    path = tmp_path_factory.mktemp("sidecar") / "b.jsonl"
    write_bundle(path, bundle)
    parsed = read_bundle(path)
    assert parsed == bundle
    assert sidecar_of(path).exists()
    with no_parse():
        cached = read_bundle(path)
    assert cached == parsed
    assert typed(cached) == typed(parsed)
    # interned like a parsed string
    assert all(t is sio.intern(t) for e in cached.events for t in (*e.hashtags, e.lang))


def record(obj: dict):
    """The record of a JSON line's object, built by the checked constructors."""
    if "rl_ts_ms" in obj:
        return RateLimitMessage(obj["rl_ts_ms"], obj["missed"])
    return Event(obj["id"], obj["ts_ms"], obj["user"], obj["type"], obj.get("root_id"), tuple(obj["hashtags"]),
                 tuple(obj["urls"]), obj["followers"], obj["lang"])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(bundles(), st.randoms(use_true_random=False))
def test_cold_read_of_an_unsorted_file_equals_build_of_its_rows(tmp_path_factory, bundle, rng):
    path = tmp_path_factory.mktemp("unsorted") / "b.jsonl"
    write_bundle(path, bundle)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rng.shuffle(lines)
    path.write_text("".join(lines), encoding="utf-8")
    rows = [record(json.loads(line)) for line in lines]
    want = StreamBundle.build([r for r in rows if isinstance(r, Event)],
                              [r for r in rows if isinstance(r, RateLimitMessage)])
    got = parsed_read(path)
    for name, col in want.columns().items():
        # string tables in the order of first use, and columns as narrow
        if isinstance(col, tuple):
            assert got.columns()[name] == col, name
        else:
            assert got.columns()[name].dtype == col.dtype and np.array_equal(got.columns()[name], col), name
    with no_parse():
        assert read_bundle(path) == want


@pytest.mark.parametrize("bundle", [
    StreamBundle(),
    StreamBundle.build([], [RateLimitMessage(5, 1), RateLimitMessage(9, 4)]),
    StreamBundle.build([ev(0, 1), ev(1, 2, kind="reply", root_id=0)]),
], ids=["empty", "messages-only", "empty-tuples"])
def test_edge_bundles_are_served(tmp_path, bundle):
    path = tmp_path / "b.jsonl"
    write_bundle(path, bundle)
    assert read_bundle(path) == bundle
    with no_parse():
        assert read_bundle(path) == bundle


@pytest.fixture
def cached(tmp_path):
    """A written bundle whose sidecar a first read made."""
    bundle = StreamBundle.build(
        [ev(0, 10, user=1, hashtags=("a", "b"), lang="ja"), ev(3, 20, user=2, urls=("u",)),
         ev(5, 30, user=1, kind="retweet", root_id=0, hashtags=("a", "b"), followers=7)],
        [RateLimitMessage(25, 2)])
    path = tmp_path / "b.jsonl"
    write_bundle(path, bundle)
    read_bundle(path)
    assert sidecar_of(path).exists()
    return path, bundle


def test_first_read_hashes_once_and_looks_up_no_sidecar(tmp_path):
    path = tmp_path / "b.jsonl"
    write_bundle(path, StreamBundle.build([ev(0, 1, hashtags=("x",)), ev(2, 3)]))
    with mock.patch.object(sio, "_load_sidecar", wraps=sio._load_sidecar) as lookup:
        bundle = parsed_read(path)
        lookup.assert_not_called()
        assert sidecar_of(path).exists()
        with no_parse():
            assert read_bundle(path) == bundle
        lookup.assert_called_once()


def test_rewrite_of_same_size_is_read_anew(cached):
    path, bundle = cached
    old = path.read_bytes()
    stat = path.stat()
    new = old.replace(b'"user":2', b'"user":9')
    assert new != old and len(new) == len(old)
    path.write_bytes(new)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))   # same size, same mtime
    assert parsed_read(path).events[1].user_id == 9
    with no_parse():
        assert read_bundle(path).events[1].user_id == 9


def rewrite(sidecar, **changes):
    """Save the sidecar again with some columns changed; the digest stays."""
    with np.load(sidecar, allow_pickle=False) as z:
        cols = {k: z[k] for k in z.files}
    cols.update(changes)
    with open(sidecar, "wb") as fh:
        np.savez(fh, **cols)


def damage_truncate(sidecar):
    data = sidecar.read_bytes()
    sidecar.write_bytes(data[: len(data) // 2])


def damage_garbage(sidecar):
    sidecar.write_bytes(b"not a zip file\n" * 10)


def damage_empty(sidecar):
    sidecar.write_bytes(b"")


def damage_format(sidecar):
    rewrite(sidecar, format=np.array("streamfid-event-columns/0"))


def damage_lone_array(sidecar):
    with open(sidecar, "wb") as fh:
        np.save(fh, np.arange(3))


def damage_pickle(sidecar):
    with open(sidecar, "wb") as fh:
        np.savez(fh, format=np.array([sio.SIDECAR_FORMAT], dtype=object))


def damage_missing_column(sidecar):
    with np.load(sidecar, allow_pickle=False) as z:
        cols = {k: z[k] for k in z.files if k != "followers"}
    with open(sidecar, "wb") as fh:
        np.savez(fh, **cols)


def damage_directory(sidecar):
    sidecar.unlink()
    sidecar.mkdir()


@pytest.mark.parametrize("damage", [
    damage_truncate, damage_garbage, damage_empty, damage_format, damage_lone_array,
    damage_pickle, damage_missing_column, damage_directory])
def test_damaged_sidecar_falls_back_to_parsing(cached, damage):
    path, bundle = cached
    damage(sidecar_of(path))
    assert parsed_read(path) == bundle
    if damage is not damage_directory:
        with no_parse():   # the parse wrote a good one in its place
            assert read_bundle(path) == bundle


def swap(a, i, j):
    a = a.copy()
    a[[i, j]] = a[[j, i]]
    return a


# columns that keep the file's digest but not its rows
INVALID = {
    "unsorted": lambda z: {"ts": swap(z["ts"], 0, 2)},
    "duplicate-id": lambda z: {"id": np.array([0, 0, 5])},
    "negative-ts": lambda z: {"ts": np.array([-10, 20, 30])},
    "root-with-root-id": lambda z: {"root": np.array([1, -1, 0])},
    "retweet-without-root": lambda z: {"root": np.array([-1, -1, -1])},
    "unknown-type-code": lambda z: {"type": np.array([0, 0, 4])},
    "negative-lang-code": lambda z: {"lang": np.array([-1, 0, 1])},
    "hashtag-code-out-of-table": lambda z: {"hashtag_codes": np.array([0, 1, 0, 2])},
    "decreasing-bounds": lambda z: {"hashtag_bounds": np.array([0, 2, 1, 4])},
    "bounds-past-codes": lambda z: {"url_bounds": np.array([0, 0, 1, 2])},
    "float-column": lambda z: {"followers": z["followers"].astype(float)},
    "short-column": lambda z: {"user": z["user"][:2]},
    "two-d-column": lambda z: {"ts": z["ts"].reshape(1, 3)},
    "table-not-json": lambda z: {"lang_table": np.array('["ja", "en"')},
    "table-holds-a-non-string": lambda z: {"lang_table": np.array('["ja", 1]')},
    "negative-missed": lambda z: {"msg_missed": np.array([-2])},
    # rows built from columns skip the record constructors, so these rules
    # hold only through the columns' own checks
    "negative-id": lambda z: {"id": np.array([-1, 3, 5])},
    "negative-followers": lambda z: {"followers": np.array([0, -1, 7])},
    "equal-ts-decreasing-id": lambda z: {"ts": np.array([10, 20, 20]), "id": np.array([0, 5, 3])},
    "messages-out-of-order": lambda z: {"msg_ts": np.array([25, 5]), "msg_missed": np.array([2, 2])},
    "negative-message-ts": lambda z: {"msg_ts": np.array([-25])},
    # times stay int64, since bucketing adds offsets to them
    "int32-ts": lambda z: {"ts": z["ts"].astype(np.int32)},
    "int16-user": lambda z: {"user": z["user"].astype(np.int16)},
}


def test_sidecar_narrows_the_columns_whose_values_fit(tmp_path):
    path = tmp_path / "b.jsonl"
    bundle = StreamBundle.build([ev(0, 10, user=3), ev(1, 20, user=-4, followers=2 ** 40)])
    write_bundle(path, bundle)
    read_bundle(path)
    with np.load(sidecar_of(path), allow_pickle=False) as z:
        assert {name: z[name].dtype for name in ("ts", "user", "followers", "type")} == {
            "ts": np.int64, "user": np.int32, "followers": np.int64, "type": np.int32}
    with no_parse():
        assert read_bundle(path) == bundle


@pytest.mark.parametrize("change", INVALID.values(), ids=INVALID.keys())
def test_invalid_rows_are_never_served(cached, change):
    path, bundle = cached
    sidecar = sidecar_of(path)
    with np.load(sidecar, allow_pickle=False) as z:
        rewrite(sidecar, **change(z))
    assert parsed_read(path) == bundle


@st.composite
def columns(draw):
    """Columns of well-formed shape (codes inside their tables, CSR bounds)
    whose values may break any rule of the records and the bundle."""
    n = draw(st.integers(0, 6))
    small = st.integers(-2, 8)

    def ints(size, values=small, sort=False):
        col = draw(st.lists(values, min_size=size, max_size=size))
        return np.array(sorted(col) if sort and draw(st.booleans()) else col, np.int64)

    def table():
        return tuple(draw(st.lists(st.text(max_size=3), unique=True, max_size=4)))

    cols = {"id": ints(n, sort=True), "ts": ints(n, sort=True), "user": ints(n, st.integers(-3, 3)),
            "type": ints(n, st.integers(0, len(EVENT_TYPES) - 1)), "root": ints(n),
            "followers": ints(n, st.integers(-1, 3))}
    cols["lang_table"] = table() or ("en",)
    cols["lang"] = ints(n, st.integers(0, len(cols["lang_table"]) - 1))
    for name in ("hashtag", "url"):
        strings = cols[f"{name}_table"] = table()
        lengths = ints(n, st.integers(0, 3 if strings else 0))
        cols[f"{name}_bounds"] = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        cols[f"{name}_codes"] = ints(int(lengths.sum()), st.integers(0, max(len(strings) - 1, 0)))
    m = draw(st.integers(0, 3))
    cols["msg_ts"], cols["msg_missed"] = ints(m, st.integers(-1, 5), sort=True), ints(m, st.integers(-1, 5))
    return cols


def rows_of(cols):
    """The bundle of ``cols`` built row by row through the record constructors."""
    def lists(name):
        b, codes = cols[f"{name}_bounds"], cols[f"{name}_codes"]
        return [tuple(cols[f"{name}_table"][c] for c in codes[b[i]:b[i + 1]]) for i in range(len(b) - 1)]

    events = [Event(int(i), int(t), int(u), EVENT_TYPES[k], None if r < 0 else int(r), h, url, int(f),
                    cols["lang_table"][lang])
              for i, t, u, k, r, h, url, f, lang in zip(
                  cols["id"], cols["ts"], cols["user"], cols["type"], cols["root"], lists("hashtag"),
                  lists("url"), cols["followers"], cols["lang"])]
    return StreamBundle(events, map(RateLimitMessage, cols["msg_ts"].tolist(), cols["msg_missed"].tolist()))


def built(make, cols):
    try:
        return make(cols)
    except ValueError:
        return None


@settings(derandomize=True, deadline=None, max_examples=400)
@given(columns())
def test_columns_are_accepted_exactly_when_their_rows_are(cols):
    by_rows, by_columns = built(rows_of, cols), built(StreamBundle.from_columns, cols)
    assert (by_columns is None) == (by_rows is None)
    if by_columns is not None:
        assert len(by_columns) == len(cols["id"])
        assert by_columns.events == by_rows.events and by_columns.messages == by_rows.messages
        assert typed(by_columns) == typed(by_rows)


@pytest.mark.parametrize("table, error", [(("a", "a"), ValueError), (("a", 1), TypeError)],
                         ids=["repeated-string", "not-a-string"])
def test_a_string_table_holds_distinct_strings(table, error):
    cols = {**columns_of_rows([ev(0, 1, hashtags=("a",))]), "hashtag_table": table}
    with pytest.raises(error):
        StreamBundle.from_columns(cols)


def test_unwritable_directory_reads_and_writes_no_sidecar(tmp_path, monkeypatch):
    bundle = StreamBundle.build([ev(0, 1, hashtags=("x",))], [RateLimitMessage(3, 0)])
    path = tmp_path / "b.jsonl"
    write_bundle(path, bundle)
    tmp_path.chmod(0o555)
    try:
        if os.access(tmp_path, os.W_OK):   # a superuser writes anyway: fail as the OS would
            monkeypatch.setattr(tempfile, "mkstemp", mock.Mock(side_effect=PermissionError(13, "denied")))
        assert read_bundle(path) == bundle
        assert read_bundle(path) == bundle
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.jsonl"]
    finally:
        tmp_path.chmod(0o755)


def test_failed_replace_leaves_no_temporary_file(tmp_path, monkeypatch):
    bundle = StreamBundle.build([ev(0, 1)])
    path = tmp_path / "b.jsonl"
    write_bundle(path, bundle)
    monkeypatch.setattr(os, "replace", mock.Mock(side_effect=OSError(28, "no space left")))
    assert read_bundle(path) == bundle
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.jsonl"]


def test_malformed_file_raises_and_leaves_no_sidecar(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id":0,"ts_ms":1,"user":2,"type":"root"}\n{"id":1,"ts_ms":\n')
    with pytest.raises(LineFormatError) as err:
        read_bundle(path)
    assert err.value.lineno == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


def test_stale_sidecar_of_a_now_malformed_file_is_not_served(cached):
    path, _ = cached
    path.write_text(path.read_text() + '{"id":9,"ts_ms":"x","user":2,"type":"root"}\n')
    with pytest.raises(LineFormatError) as err:
        read_bundle(path)
    assert err.value.lineno == 5


def test_sidecar_of_an_older_reader_is_not_served(tmp_path):
    # the reader before format 2 loaded "ts_ms":1.5 as 1; its sidecar, keyed
    # by the digest of these very bytes, must not bring that row back
    path = tmp_path / "b.jsonl"
    path.write_text('{"id":0,"ts_ms":1.5,"user":2,"type":"root"}\n')
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    sio._save_sidecar(sidecar_of(path), digest, StreamBundle.build([ev(0, 1, user=2)]))
    rewrite(sidecar_of(path), format=np.array("streamfid-event-columns/1"))
    with pytest.raises(LineFormatError, match="ts_ms must be an integer, not float"):
        read_bundle(path)


def keep_as_older_reader(path, version):
    """Save the sidecar of ``path`` as the reader of format 3 or 4 kept it:
    keyed by the blake2b digest, and in format 3 with each string table as
    UTF-8 bytes plus character bounds."""
    with np.load(sidecar_of(path), allow_pickle=False) as z:
        cols = {k: z[k] for k in z.files}
    if version == 3:
        for name in ("lang_table", "hashtag_table", "url_table"):
            strings = json.loads(cols.pop(name).tolist())
            cols[f"{name}_text"] = np.frombuffer("".join(strings).encode(), np.uint8)
            cols[f"{name}_bounds"] = np.cumsum([0, *map(len, strings)])
    cols["format"] = np.array(f"streamfid-event-columns/{version}")
    cols["digest"] = np.array(hashlib.blake2b(path.read_bytes()).hexdigest())
    with open(sidecar_of(path), "wb") as fh:
        np.savez(fh, **cols)


@pytest.mark.parametrize("version", [3, 4])
def test_older_sidecar_is_replaced_by_format_5(cached, version):
    path, bundle = cached
    keep_as_older_reader(path, version)
    assert parsed_read(path) == bundle
    with np.load(sidecar_of(path), allow_pickle=False) as z:
        assert z["format"].tolist() == sio.SIDECAR_FORMAT == "streamfid-event-columns/5"
        assert z["digest"].tolist() == hashlib.sha256(path.read_bytes()).hexdigest()
        assert "lang_table_text" not in z.files
    with no_parse():
        assert read_bundle(path) == bundle


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_read_restores_the_cycle_collector(tmp_path, enabled):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_bundle(good, StreamBundle.build([ev(0, 1)]))
    bad.write_text("not json\n")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        read_bundle(good)   # parses
        read_bundle(good)   # through the sidecar
        assert gc.isenabled() == enabled
        with pytest.raises(LineFormatError):
            read_bundle(bad)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_is_read_once_and_gets_no_sidecar(tmp_path):
    bundle = StreamBundle.build([ev(0, 1, hashtags=("x",)), ev(2, 3)], [RateLimitMessage(2, 1)])
    write_bundle(tmp_path / "b.jsonl", bundle)
    r, w = os.pipe()
    try:
        os.write(w, (tmp_path / "b.jsonl").read_bytes())   # far below the pipe's buffer
        os.close(w)
        with mock.patch.object(sio, "_save_sidecar") as save:
            assert read_bundle(f"/dev/fd/{r}") == bundle
        save.assert_not_called()
    finally:
        os.close(r)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifo_reads_as_its_file_does_unhashed_and_without_a_sidecar(tmp_path):
    bundle = StreamBundle.build([ev(0, 1, hashtags=("x",)), ev(2, 3)], [RateLimitMessage(2, 1)])
    path, fifo = tmp_path / "b.jsonl", tmp_path / "b.fifo"
    write_bundle(path, bundle)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    try:
        with mock.patch.object(sio, "_lines", wraps=sio._lines) as records:
            from_fifo = read_bundle(fifo)
    finally:
        writer.join(10)
    (_, _, update), = (c.args for c in records.call_args_list)
    assert update is None   # a pipe never gets a sidecar, so its bytes are not hashed
    assert from_fifo == read_bundle(path) == bundle
    assert not sidecar_of(fifo).exists() and sidecar_of(path).exists()
