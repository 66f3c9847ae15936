import json

import pytest

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
