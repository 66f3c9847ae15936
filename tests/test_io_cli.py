import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfid.cli import main
from streamfid.io import LineFormatError, iter_records, read_bundle, write_bundle
from streamfid.model import RateLimitMessage, StreamBundle

from conftest import ev


class TestJsonlRoundTrip:
    def test_bundle_round_trip(self, tmp_path):
        events = [ev(i, 10 * i, user=i % 2, hashtags=("x",) if i % 3 == 0 else (),
                     urls=("u",) if i == 2 else (), followers=i, lang="ja")
                  for i in range(6)]
        events[3:] = [ev(i, 10 * i, user=0, kind="retweet", root_id=0) for i in range(3, 6)]
        msgs = [RateLimitMessage(25, 3), RateLimitMessage(45, 9)]
        bundle = StreamBundle.build(events, msgs)
        path = tmp_path / "b.jsonl"
        write_bundle(path, bundle)
        loaded = read_bundle(path)
        assert loaded.events == bundle.events
        assert loaded.messages == bundle.messages

    def test_interleaved_chronologically(self, tmp_path):
        bundle = StreamBundle.build([ev(0, 10), ev(1, 50)], [RateLimitMessage(30, 2)])
        path = tmp_path / "b.jsonl"
        write_bundle(path, bundle)
        lines = path.read_text().strip().splitlines()
        assert json.loads(lines[1]).get("rl_ts_ms") == 30

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":0,"ts_ms":1,"user":2,"type":"root"}\nnot json\n')
        with pytest.raises(LineFormatError) as err:
            list(iter_records(path))
        assert err.value.lineno == 2

    def test_schema_violation_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":0,"ts_ms":1,"user":2,"type":"nonsense"}\n')
        with pytest.raises(LineFormatError) as err:
            list(iter_records(path))
        assert err.value.lineno == 1


GOOD_LINE = '{"id":0,"ts_ms":1,"user":2,"type":"root"}'
BEYOND_INT64 = "id, timestamp_ms, user_id and follower_count must fit in int64"
ROOT_ID = "root_id must be non-negative and fit in int64"

# (malformed line, LineFormatError.reason): the reasons are the json module's
# and the record constructors' own messages, so they stay as users see them,
# or the reader's, which names the field whose JSON type a record cannot hold
MALFORMED = [
    pytest.param('{"id":1} x', "Extra data: line 1 column 10 (char 9)", id="trailing-data"),
    pytest.param("]", "Expecting value: line 1 column 1 (char 0)", id="bare-bracket"),
    pytest.param("[1,2]", "list indices must be integers or slices, not str", id="non-object"),
    pytest.param('{"id":3,"ts_ms":4,"user":', "Expecting value: line 1 column 26 (char 25)",
                 id="truncated-object"),
    pytest.param('{"id":3,"ts_ms":4,"user":"x', "Unterminated string starting at: line 1 "
                 "column 26 (char 25)", id="unterminated-string"),
    pytest.param('{"id":3,"user":2,"type":"root"}', "'ts_ms'", id="missing-ts_ms"),
    pytest.param('{"rl_ts_ms":5}', "'missed'", id="missing-missed"),
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"root","followers":"x"}',
                 "followers must be an integer, not str", id="followers-string"),
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"tweet"}', "unknown event type 'tweet'",
                 id="unknown-type"),
    pytest.param('{"id":3,"ts_ms":NaN,"user":2,"type":"root"}',
                 "ts_ms must be an integer, not float", id="nan-field"),
    pytest.param('{"id":3,"ts_ms":-4,"user":2,"type":"root"}',
                 "id, timestamp_ms and follower_count must be non-negative", id="negative-ts"),
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"retweet"}',
                 "root_id present iff event_type != root", id="retweet-without-root"),
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"root","hashtags":5}',
                 "'int' object is not iterable", id="hashtags-not-a-list"),
    # a string or an object iterates too: it must not be read as its items
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"root","hashtags":"ab"}',
                 "hashtags must be a list, not str", id="hashtags-string"),
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"root","urls":{"u":1}}',
                 "urls must be a list, not dict", id="urls-object"),
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"root","hashtags":null}',
                 "'NoneType' object is not iterable", id="hashtags-null"),
    pytest.param("7", "argument of type 'int' is not iterable", id="bare-number"),
    pytest.param("null", "argument of type 'NoneType' is not iterable", id="null"),
    pytest.param('"abc"', "string indices must be integers, not 'str'", id="bare-string"),
    pytest.param('\ufeff{"id":3}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 "
                 "column 1 (char 0)", id="byte-order-mark"),
    # int() would truncate a fraction and read a numeric string or a boolean
    pytest.param('{"id":3.0,"ts_ms":4,"user":2,"type":"root"}',
                 "id must be an integer, not float", id="integral-float-id"),
    pytest.param('{"id":3,"ts_ms":4.9,"user":2,"type":"root"}',
                 "ts_ms must be an integer, not float", id="fractional-ts"),
    pytest.param('{"id":3,"ts_ms":4,"user":2.5,"type":"root"}',
                 "user must be an integer, not float", id="fractional-user"),
    pytest.param('{"id":3,"ts_ms":4,"user":true,"type":"root"}',
                 "user must be an integer, not bool", id="boolean-user"),
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"retweet","root_id":"1"}',
                 "root_id must be an integer, not str", id="numeric-string-root"),
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"retweet","root_id":1.5}',
                 "root_id must be an integer, not float", id="fractional-root"),
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"root","followers":"12"}',
                 "followers must be an integer, not str", id="numeric-string-followers"),
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"root","followers":false}',
                 "followers must be an integer, not bool", id="boolean-followers"),
    pytest.param('{"rl_ts_ms":5.5,"missed":1}', "rl_ts_ms must be an integer, not float",
                 id="fractional-message-ts"),
    pytest.param('{"rl_ts_ms":5,"missed":"1"}', "missed must be an integer, not str",
                 id="numeric-string-missed"),
    pytest.param('{"rl_ts_ms":5,"missed":true}', "missed must be an integer, not bool",
                 id="boolean-missed"),
    # str() would turn any value into a language name
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"root","lang":null}',
                 "lang must be a string, not NoneType", id="null-lang"),
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"root","lang":["en"]}',
                 "lang must be a string, not list", id="list-lang"),
    pytest.param('{"id":3,"ts_ms":4,"user":2,"type":"root","lang":7}',
                 "lang must be a string, not int", id="number-lang"),
]


class TestReaderErrors:
    @staticmethod
    def write(path, *lines):
        # CRLF endings, with a blank and a whitespace-only line after the first record
        body = lines[0] + "\r\n\r\n \t \r\n" + "\r\n".join(lines[1:]) + "\r\n"
        path.write_bytes(body.encode("utf-8"))
        return path

    @pytest.mark.parametrize("bad, reason", MALFORMED)
    def test_malformed_line_number_and_reason(self, tmp_path, bad, reason):
        path = self.write(tmp_path / "bad.jsonl", GOOD_LINE, bad, GOOD_LINE)
        with pytest.raises(LineFormatError) as err:
            list(iter_records(path))
        assert (err.value.lineno, err.value.reason) == (4, reason)
        assert str(err.value) == f"{path}:4: {reason}"

    # values JSON can carry but a record cannot hold
    @pytest.mark.parametrize("bad, reason", [
        ('{"id":3,"ts_ms":Infinity,"user":2,"type":"root"}',
         "ts_ms must be an integer, not float"),
        ('{"id":3,"ts_ms":4,"user":2,"type":"root","hashtags":["a",1]}',
         "intern() argument must be str, not int"),
        ('{"id":3,"ts_ms":4,"user":2,"type":"root","urls":[null]}',
         "intern() argument must be str, not None"),
    ], ids=["infinite-ts", "numeric-hashtag", "null-url"])
    def test_unrepresentable_values_report_line_number(self, tmp_path, bad, reason):
        path = self.write(tmp_path / "bad.jsonl", GOOD_LINE, bad)
        with pytest.raises(LineFormatError) as err:
            list(iter_records(path))
        assert (err.value.lineno, err.value.reason) == (4, reason)

    # numbers JSON can carry but no int64 column holds
    @pytest.mark.parametrize("bad, reason", [
        ('{"id":9223372036854775808,"ts_ms":4,"user":2,"type":"root"}', BEYOND_INT64),
        ('{"id":3,"ts_ms":9223372036854775808,"user":2,"type":"root"}', BEYOND_INT64),
        ('{"id":3,"ts_ms":4,"user":-9223372036854775809,"type":"root"}', BEYOND_INT64),
        ('{"id":3,"ts_ms":4,"user":2,"type":"root","followers":18446744073709551616}', BEYOND_INT64),
        ('{"id":3,"ts_ms":4,"user":2,"type":"retweet","root_id":9223372036854775808}', ROOT_ID),
        ('{"id":3,"ts_ms":4,"user":2,"type":"retweet","root_id":-1}', ROOT_ID),
        ('{"rl_ts_ms":5,"missed":9223372036854775808}', "timestamp and counter must fit in int64"),
    ], ids=["id", "ts", "negative-user", "followers", "root-id", "negative-root-id", "counter"])
    def test_numbers_no_column_holds_report_line_number(self, tmp_path, capsys, bad, reason):
        path = self.write(tmp_path / "bad.jsonl", GOOD_LINE, bad, GOOD_LINE)
        with pytest.raises(LineFormatError) as err:
            read_bundle(path)
        assert (err.value.lineno, err.value.reason) == (4, reason)
        assert run_cli("graph", "bipartite", "-i", path) == 1
        assert capsys.readouterr().err == f"error: {path}:4: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]

    def test_largest_int64_numbers_are_read(self, tmp_path):
        line = (f'{{"id":{2 ** 63 - 1},"ts_ms":{2 ** 63 - 1},"user":{-2 ** 63},"type":"retweet",'
                f'"root_id":{2 ** 63 - 1},"followers":{2 ** 63 - 1}}}')
        path = self.write(tmp_path / "big.jsonl", line, f'{{"rl_ts_ms":{2 ** 63 - 1},"missed":{2 ** 63 - 1}}}')
        bundle = read_bundle(path)
        assert bundle == read_bundle(path) and bundle.messages == (RateLimitMessage(2 ** 63 - 1, 2 ** 63 - 1),)
        assert tuple(bundle.events) == (ev(2 ** 63 - 1, 2 ** 63 - 1, -2 ** 63, "retweet", 2 ** 63 - 1,
                                           followers=2 ** 63 - 1),)

    def test_infinite_number_exits_one(self, tmp_path, capsys):
        path = self.write(tmp_path / "bad.jsonl", GOOD_LINE,
                          '{"rl_ts_ms":5,"missed":-Infinity}')
        assert run_cli("sample", "--mode", "ratelimit", "-i", path, "-o", tmp_path / "s.jsonl") == 1
        assert "bad.jsonl:4: missed must be an integer, not float" in capsys.readouterr().err

    def test_string_hashtags_exit_one(self, tmp_path, capsys):
        path = self.write(tmp_path / "bad.jsonl", GOOD_LINE,
                          '{"id":3,"ts_ms":4,"user":2,"type":"root","hashtags":"ab"}')
        assert run_cli("sample", "--mode", "ratelimit", "-i", path, "-o", tmp_path / "s.jsonl") == 1
        assert "bad.jsonl:4: hashtags must be a list, not str" in capsys.readouterr().err

    def test_deeply_nested_line_exits_one(self, tmp_path, capsys):
        # deeper than the JSON scanner's recursion limit, which raises RecursionError
        path = self.write(tmp_path / "deep.jsonl", GOOD_LINE, "[" * 100_000)
        with pytest.raises(LineFormatError) as err:
            list(iter_records(path))
        assert err.value.lineno == 4
        assert run_cli("sample", "--mode", "ratelimit", "-i", path, "-o", tmp_path / "s.jsonl") == 1
        assert "deep.jsonl:4: maximum recursion depth exceeded" in capsys.readouterr().err
        assert not (tmp_path / "s.jsonl").exists()

    def test_blank_lines_and_crlf_are_skipped(self, tmp_path):
        path = self.write(tmp_path / "ok.jsonl", GOOD_LINE, '{"rl_ts_ms":5,"missed":2}',
                          '  {"id":1,"ts_ms":6,"user":2,"type":"retweet","root_id":0}\t')
        assert list(iter_records(path)) == [
            ev(0, 1, user=2), RateLimitMessage(5, 2), ev(1, 6, user=2, kind="retweet", root_id=0)]


@st.composite
def bundles(draw):
    # non-ASCII text, control characters and line separators all survive the encoder
    text = st.text(min_size=1, max_size=6)
    stamps = sorted(draw(st.lists(st.integers(0, 10_000), max_size=12)))
    events = []
    for i, t in enumerate(stamps):
        kind = "root" if i == 0 else draw(st.sampled_from(("root", "retweet", "quote", "reply")))
        events.append(ev(i, t, user=draw(st.integers(0, 5)), kind=kind,
                         root_id=None if kind == "root" else draw(st.integers(0, i - 1)),
                         hashtags=draw(st.lists(text, max_size=3)),
                         urls=draw(st.lists(text, max_size=2)),
                         followers=draw(st.integers(0, 10**12)), lang=draw(text)))
    msg_stamps = sorted(draw(st.lists(st.integers(0, 10_000), max_size=4)))
    counters = sorted(draw(st.lists(st.integers(0, 99), min_size=len(msg_stamps),
                                    max_size=len(msg_stamps))))
    return StreamBundle.build(events, [RateLimitMessage(t, c) for t, c in zip(msg_stamps, counters)])


@settings(derandomize=True, deadline=None)
@given(bundles())
def test_read_inverts_write(tmp_path_factory, bundle):
    path = tmp_path_factory.mktemp("round_trip") / "b.jsonl"
    write_bundle(path, bundle)
    assert read_bundle(path) == bundle


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestCliSimulateSample:
    def test_simulate_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run_cli("simulate", "--duration", 60, "--rate", 100, "--seed", 1, "-o", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("simulate", "--duration", 30, "--rate", 50, "--seed", 1, "-o", a)
        run_cli("simulate", "--duration", 30, "--rate", 50, "--seed", 2, "-o", b)
        assert a.read_bytes() != b.read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("STREAMFID_SEED", "7")
        run_cli("simulate", "--duration", 20, "--rate", 40, "-o", a)
        monkeypatch.delenv("STREAMFID_SEED")
        run_cli("simulate", "--duration", 20, "--rate", 40, "--seed", 7, "-o", b)
        assert a.read_bytes() == b.read_bytes()

    def test_ratelimit_sample_conserves_volume(self, tmp_path):
        c, s = tmp_path / "c.jsonl", tmp_path / "s.jsonl"
        run_cli("simulate", "--duration", 120, "--rate", 80, "--seed", 3, "-o", c)
        assert run_cli("sample", "--mode", "ratelimit", "--threshold", 50,
                       "--anchor-ms", 657, "-i", c, "-o", s) == 0
        complete = read_bundle(c)
        sample = read_bundle(s)
        dropped = sample.messages[-1].cumulative_missed if sample.messages else 0
        assert len(sample.events) + dropped == len(complete.events)

    def test_bernoulli_sample_requires_rate(self, tmp_path, capsys):
        c = tmp_path / "c.jsonl"
        run_cli("simulate", "--duration", 10, "--rate", 20, "--seed", 1, "-o", c)
        with pytest.raises(SystemExit) as exc:
            run_cli("sample", "--mode", "bernoulli", "-i", c, "-o", tmp_path / "s.jsonl")
        assert exc.value.code == 2

    def test_malformed_input_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("} broken {\n")
        code = run_cli("sample", "--mode", "ratelimit", "-i", bad, "-o", tmp_path / "s.jsonl")
        assert code == 1
        assert "bad.jsonl:1" in capsys.readouterr().err


class TestCliMergeValidate:
    def test_merge_deduplicates(self, tmp_path):
        c1, c2, out = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl", tmp_path / "m.jsonl"
        run_cli("simulate", "--duration", 30, "--rate", 30, "--seed", 4, "-o", c1)
        events = read_bundle(c1).events
        write_bundle(c2, StreamBundle(events[: len(events) // 2]))
        run_cli("merge", "-i", c1, "-i", c2, "-o", out)
        assert read_bundle(out).events == events

    def test_validate_ratelimit_reports_zero_ape(self, tmp_path, capsys):
        c, s = tmp_path / "c.jsonl", tmp_path / "s.jsonl"
        run_cli("simulate", "--duration", 180, "--rate", 90, "--seed", 5, "-o", c)
        run_cli("sample", "--mode", "ratelimit", "--threshold", 40, "-i", c, "-o", s)
        assert run_cli("validate-ratelimit", "-i", c, "-i", s) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["segments"] > 0
        assert payload["median_ape"] == 0.0
        assert payload["manifest"]["version"]

    def test_breakdown_csv_with_manifest(self, tmp_path):
        c, s = tmp_path / "c.jsonl", tmp_path / "s.jsonl"
        run_cli("simulate", "--duration", 60, "--rate", 60, "--seed", 6, "-o", c)
        run_cli("sample", "--mode", "bernoulli", "--rate", "0.5", "--seed", 1, "-i", c, "-o", s)
        out = tmp_path / "t.csv"
        run_cli("breakdown", "-i", c, "-i", s, "--key", "type", "-o", out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1] == "bucket,complete_count,sample_count,rate"


class TestCliEntity:
    def test_estimate_missing_on_acceptance_fixture(self, tmp_path, capsys):
        # the acceptance population: 10^5 Zipf users thinned at 0.5272
        import numpy as np
        from streamfid.simulate import bernoulli_sample

        rng = np.random.default_rng(404)
        n_users = 100_000
        ks = np.minimum(rng.zipf(2.1, size=n_users), 400)
        events = [ev(i, i, user=int(u)) for i, u in enumerate(np.repeat(np.arange(n_users), ks))]
        sampled = bernoulli_sample(events, 0.5272, seed=41)
        truth = n_users - len({e.user_id for e in sampled})
        s = tmp_path / "s.jsonl"
        write_bundle(s, StreamBundle.build(sampled))
        with pytest.warns(UserWarning, match="clamped"):
            assert run_cli("estimate-missing", "-i", s, "--rate", 0.5272, "--key", "user") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimated_missing"] == pytest.approx(truth, rel=0.02)

    def test_estimate_missing_without_messages_requires_rate(self, tmp_path, capsys):
        c, s = tmp_path / "c.jsonl", tmp_path / "s.jsonl"
        run_cli("simulate", "--duration", 30, "--rate", 40, "--seed", 2, "-o", c)
        run_cli("sample", "--mode", "bernoulli", "--rate", 0.3, "--seed", 1, "-i", c, "-o", s)
        assert not read_bundle(s).messages
        with pytest.raises(SystemExit) as exc:
            run_cli("estimate-missing", "-i", s, "--key", "user")
        assert exc.value.code == 2
        assert "--rate" in capsys.readouterr().err

    def test_estimate_missing_rejects_non_monotone_counters(self, tmp_path, capsys):
        s = tmp_path / "s.jsonl"
        events = [ev(i, 100 * i, user=i % 3) for i in range(6)]
        write_bundle(s, StreamBundle.build(events, [RateLimitMessage(150, 5), RateLimitMessage(350, 2)]))
        with pytest.raises(SystemExit) as exc:
            run_cli("estimate-missing", "-i", s, "--key", "user")
        assert exc.value.code == 2
        assert "non-monotone" in capsys.readouterr().err

    @pytest.mark.parametrize("k_max", [0, -3])
    def test_estimate_missing_rejects_k_max_below_one(self, tmp_path, capsys, k_max):
        s = tmp_path / "s.jsonl"
        write_bundle(s, StreamBundle.build([ev(0, 0, user=1), ev(1, 1, user=2)]))
        with pytest.raises(SystemExit) as exc:
            run_cli("estimate-missing", "-i", s, "--key", "user", "--rate", 0.5, "--k-max", k_max)
        assert exc.value.code == 2
        assert "--k-max" in capsys.readouterr().err

    def test_entity_stats_csv(self, tmp_path, capsys):
        s = tmp_path / "s.jsonl"
        write_bundle(s, StreamBundle.build([ev(0, 0, user=1), ev(1, 1, user=1), ev(2, 2, user=2)]))
        out = tmp_path / "f.csv"
        run_cli("entity-stats", "-i", s, "--key", "user", "-o", out)
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows == ["k,F_sample", "1,1", "2,1"]


class TestCliRankGraphCascade:
    def _stream_pair(self, tmp_path):
        from workloads import hour_biased_workload
        from streamfid.simulate import rate_limited_bundle

        c, s = tmp_path / "c.jsonl", tmp_path / "s.jsonl"
        complete = hour_biased_workload(seed=2, n_users=50, secs_per_hour=120)
        write_bundle(c, complete)
        write_bundle(s, rate_limited_bundle(complete, threshold=2))
        return c, s

    def test_rank_report(self, tmp_path, capsys):
        c, s = self._stream_pair(tmp_path)
        out = tmp_path / "rank.csv"
        assert run_cli("rank", "-i", c, "-i", s, "--k", 20, "--granularity", "hour", "-o", out) == 0
        payload = json.loads(capsys.readouterr().out)
        assert -1.0 <= payload["kendall_observed"] <= 1.0
        data_rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data_rows) == 21  # header + k rows

    @pytest.mark.parametrize("k", [1, 0])
    def test_rank_rejects_k_below_two(self, tmp_path, capsys, k):
        c, s = self._stream_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli("rank", "-i", c, "-i", s, "--k", k)
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err

    def test_rank_with_one_observed_user_fails_without_nan(self, tmp_path, capsys):
        c, s = tmp_path / "c.jsonl", tmp_path / "s.jsonl"
        write_bundle(c, StreamBundle.build([ev(i, i, user=i % 2) for i in range(6)]))
        write_bundle(s, StreamBundle.build([ev(0, 0, user=0), ev(2, 2, user=0)]))
        with pytest.warns(UserWarning, match="shrinking"):
            assert run_cli("rank", "-i", c, "-i", s, "--k", 5) == 1
        out, err = capsys.readouterr()
        assert "NaN" not in out
        assert "at least 2" in err

    def test_json_reports_refuse_non_finite_numbers(self, capsys):
        from streamfid.cli import _write_json

        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                _write_json(None, {"x": value}, {})
        assert capsys.readouterr().out == ""

    def test_graph_pipeline(self, tmp_path):
        events = [ev(0, 0, user=1, hashtags=("a",)), ev(1, 1, user=2, hashtags=("a", "b"))]
        events += [ev(2, 2, user=3, kind="retweet", root_id=0)]
        src = tmp_path / "e.jsonl"
        write_bundle(src, StreamBundle.build(events))
        run_cli("graph", "bipartite", "-i", src, "-o", tmp_path / "bip.csv")
        run_cli("graph", "cocluster", "-i", src, "--k", 2, "--seed", 1, "-o", tmp_path / "cc.csv")
        run_cli("graph", "retweet", "-i", src, "-o", tmp_path / "rt.csv")
        run_cli("graph", "bowtie", "-i", src, "-o", tmp_path / "bt.csv")
        bt = dict(l.split(",") for l in (tmp_path / "bt.csv").read_text().splitlines()[2:])
        assert set(bt.values()) <= {"LSCC", "IN", "OUT", "Tubes", "Tendrils", "Disconnected"}
        cc = (tmp_path / "cc.csv").read_text().splitlines()
        assert cc[1] == "node,cluster"

    def test_graph_flow_from_assignments(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("node,component\n1,LSCC\n2,IN\n")
        b.write_text("node,component\n1,LSCC\n")
        out = tmp_path / "flow.csv"
        assert run_cli("graph", "flow", "--kind", "bowtie", "-i", a, "-i", b, "-o", out) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "complete,sample,count,ratio"
        cells = {(r.split(",")[0], r.split(",")[1]): r.split(",")[2] for r in body[1:]}
        assert cells[("LSCC", "LSCC")] == "1"
        assert cells[("IN", "missing")] == "1"

    def test_cascade_report_and_ccdfs(self, tmp_path, capsys):
        from workloads import cascade_corpus
        from streamfid.simulate import bernoulli_sample

        events = cascade_corpus(3, n_cascades=60, min_retweets=5, pareto_scale=2)
        c, s = tmp_path / "c.jsonl", tmp_path / "s.jsonl"
        write_bundle(c, StreamBundle.build(events))
        write_bundle(s, StreamBundle.build(bernoulli_sample(events, 0.5, seed=1)))
        out = tmp_path / "cascade.json"
        assert run_cli("cascade", "-i", c, "-i", s, "--window-s", 600, "--window-s", "inf",
                       "-o", out) == 0
        payload = json.loads(out.read_text())
        assert payload["cascades"]["sample"] <= payload["cascades"]["complete"]
        assert (tmp_path / "cascade_interarrival_complete.csv").exists()
        assert (tmp_path / "cascade_reach_inf.csv").exists()

    @pytest.fixture
    def cascade_inputs(self, tmp_path):
        c, s = tmp_path / "c.jsonl", tmp_path / "s.jsonl"
        run_cli("simulate", "--duration", 30, "--rate", 10, "--seed", 4, "-o", c)
        run_cli("sample", "--mode", "bernoulli", "--rate", 0.5, "-i", c, "-o", s)
        return c, s

    @pytest.mark.parametrize("flags, named", [
        (("--window-s", "abc"), "--window-s"), (("--window-s", "nan"), "--window-s"),
        (("--window-s", "-5"), "--window-s"), (("--window-s", "0"), "--window-s"),
        (("--window-s=-inf",), "--window-s"), (("--window-s", "600", "--window-s", ""), "--window-s"),
        (("--retweet-threshold", "-1"), "--retweet-threshold"),
    ], ids=["text", "nan", "negative", "zero", "minus-inf", "empty", "negative-threshold"])
    def test_cascade_rejects_bad_flags_naming_them(self, cascade_inputs, tmp_path, capsys, flags, named):
        c, s = cascade_inputs
        with pytest.raises(SystemExit) as exc:
            run_cli("cascade", "-i", c, "-i", s, *flags, "-o", tmp_path / "cascade.json")
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "cascade.json").exists()

    def test_cascade_accepts_positive_and_infinite_windows(self, cascade_inputs, tmp_path):
        c, s = cascade_inputs
        assert run_cli("cascade", "-i", c, "-i", s, "--window-s", "0.5", "--window-s", "1e3",
                       "--window-s", "inf", "--retweet-threshold", 0, "-o", tmp_path / "cascade.json") == 0
        assert json.loads((tmp_path / "cascade.json").read_text())["cascades"]["complete_ge_0_retweets"] > 0
        # within 0.5 s no complete cascade has reach, so that table is left out
        assert sorted(p.name for p in tmp_path.glob("cascade_reach_*.csv")) == [
            "cascade_reach_1000s.csv", "cascade_reach_inf.csv"]

    def test_bowtie_accepts_edge_list_csv(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight\n1,2,3\n2,1,1\n3,1,2\n")
        out = tmp_path / "bt.csv"
        assert run_cli("graph", "bowtie", "-i", edges, "-o", out) == 0
        body = dict(l.split(",") for l in out.read_text().splitlines()[2:])
        assert body == {"1": "LSCC", "2": "LSCC", "3": "IN"}

    def test_flag_validation_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("breakdown", "--key", "geography", "-i", "x", "-i", "y")
        assert exc.value.code == 2

    def test_out_of_range_sampler_flags_exit_two(self, tmp_path):
        c = tmp_path / "c.jsonl"
        run_cli("simulate", "--duration", 5, "--rate", 10, "--seed", 1, "-o", c)
        for argv in (
            ("sample", "--mode", "ratelimit", "--threshold", 0, "-i", c, "-o", tmp_path / "s"),
            ("sample", "--mode", "ratelimit", "--anchor-ms", 1200, "-i", c, "-o", tmp_path / "s"),
            ("sample", "--mode", "bernoulli", "--rate", 1.5, "-i", c, "-o", tmp_path / "s"),
        ):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2


# (command, CSV input, bad line, reason): a (node, cluster) or (src, dst,
# weight) row too short, holding text where a number belongs, giving a weight
# below 1 or repeating the node or edge of an earlier row
CSV_ERRORS = [
    pytest.param(("graph", "flow", "--kind", "bowtie"), "node,component\n1,LSCC\n", "u1",
                 "expected at least 2 fields, got 1", id="flow-short-row"),
    pytest.param(("graph", "flow", "--kind", "cluster"), "node,cluster\n1,0\n", "u1,x",
                 "invalid literal for int() with base 10: 'x'", id="flow-text-cluster"),
    pytest.param(("graph", "bowtie"), "src,dst,weight\n1,2,3\n", "1",
                 "expected at least 2 fields, got 1", id="bowtie-short-row"),
    pytest.param(("graph", "bowtie"), "src,dst,weight\n1,2,3\n", "1,b,2",
                 "invalid literal for int() with base 10: 'b'", id="bowtie-text-node"),
    pytest.param(("graph", "bowtie"), "src,dst,weight\n1,2,3\n", "1,2,2.5",
                 "invalid literal for int() with base 10: '2.5'", id="bowtie-text-weight"),
    pytest.param(("graph", "cocluster", "--k", "2"), "src,dst,weight\n1,a,3\n", "u1,a,1",
                 "invalid literal for int() with base 10: 'u1'", id="cocluster-text-user"),
    pytest.param(("graph", "cocluster", "--k", "2"), "src,dst,weight\n1,a,3\n", "2,b,0",
                 "edge weight 0 is below 1", id="cocluster-zero-weight"),
    pytest.param(("graph", "bowtie"), "src,dst,weight\n1,2,3\n", "2,3,-2",
                 "edge weight -2 is below 1", id="bowtie-negative-weight"),
    pytest.param(("graph", "cocluster", "--k", "2"), "src,dst,weight\n1,a,3\n", "1,a,2",
                 "repeated edge (1, 'a')", id="cocluster-repeated-edge"),
    pytest.param(("graph", "bowtie"), "src,dst\n1,2\n", "1,2",
                 "repeated edge (1, 2)", id="bowtie-repeated-edge"),
    pytest.param(("graph", "flow", "--kind", "cluster"), "node,cluster\n1,0\n", "1,0",
                 "repeated node '1'", id="flow-repeated-node"),
]


@pytest.mark.parametrize("command, good, bad, reason", CSV_ERRORS)
def test_bad_csv_row_exits_one_naming_its_line(tmp_path, capsys, command, good, bad, reason):
    # a manifest line, the header and one good row come before the bad row
    path = tmp_path / "a.csv"
    path.write_text(f"# manifest: {{}}\n{good}{bad}\n")
    inputs = ("-i", path, "-i", path) if command[1] == "flow" else ("-i", path)
    assert run_cli(*command, *inputs) == 1
    assert capsys.readouterr().err == f"error: {path}:4: {reason}\n"


SIMULATE = ("simulate", "--duration", "5", "--rate", "10")

# (argv, STREAMFID_SEED, what the error names): every flag error exits 2
# and names its flag, or the variable; "IN" stands for a JSONL input
FLAG_ERRORS = [
    pytest.param((*SIMULATE, "--users", "0"), None, "--users", id="users"),
    pytest.param((*SIMULATE, "--hashtags", "0"), None, "--hashtags", id="hashtags"),
    pytest.param((*SIMULATE, "--user-zipf", "0"), None, "--user-zipf", id="user-zipf"),
    pytest.param((*SIMULATE, "--duration", "0"), None, "--duration", id="duration"),
    pytest.param((*SIMULATE, "--duration", "nan"), None, "--duration", id="duration-nan"),
    pytest.param((*SIMULATE, "--rate", "inf"), None, "--rate", id="rate-inf"),
    pytest.param((*SIMULATE, "--amplitude", "1.5"), None, "--amplitude", id="amplitude"),
    pytest.param((*SIMULATE, "--cascade-fraction", "2"), None, "--cascade-fraction", id="cascade-fraction"),
    pytest.param((*SIMULATE, "--type-mix", "root=0.5"), None, "--type-mix", id="type-mix"),
    pytest.param((*SIMULATE, "--seed", "-1"), None, "--seed", id="simulate-seed"),
    pytest.param(SIMULATE, "abc", "STREAMFID_SEED", id="env-seed"),
    pytest.param(SIMULATE, "-2", "STREAMFID_SEED", id="env-seed-negative"),
    pytest.param(("sample", "--mode", "bernoulli", "--rate", "0.5", "-i", "IN", "--seed", "-1"), None,
                 "--seed", id="sample-seed"),
    pytest.param(("graph", "cocluster", "-i", "IN", "--seed", "-1"), None, "--seed", id="cocluster-seed"),
    pytest.param(("graph", "cocluster", "-i", "IN", "--k", "2", "--seed", str(2**32)), None, "--seed",
                 id="cocluster-seed-past-32-bits"),
    pytest.param(("graph", "cocluster", "-i", "IN", "--k", "0"), None, "--k", id="cocluster-k"),
]


@pytest.mark.parametrize("argv, env_seed, named", FLAG_ERRORS)
def test_flag_error_exits_two_naming_the_flag(tmp_path, capsys, monkeypatch, argv, env_seed, named):
    src, out = tmp_path / "in.jsonl", tmp_path / "out"
    write_bundle(src, StreamBundle.build([ev(i, i, user=i % 3, hashtags=("a", "b")[i % 2:]) for i in range(6)]))
    monkeypatch.delenv("STREAMFID_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("STREAMFID_SEED", env_seed)
    with pytest.raises(SystemExit) as exc:
        run_cli(*(src if a == "IN" else a for a in argv), "-o", out)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("streamfid: error: ") and named in err
    assert not out.exists()
