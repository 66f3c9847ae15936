"""Golden CLI outputs: sha256 of every report a fixed-seed walkthrough writes.

The walkthrough runs every command and every ``graph`` subcommand through
``streamfid.cli.main`` in a temporary directory (so manifest paths are
relative) on a small simulated stream whose rate-limited sample carries
rate limit messages.  Each file written and each stdout payload is hashed
and compared with the pinned digest below, so a refactor of the CLI or of
the library behind it must leave every output byte-identical.  The
warnings each step raises are pinned too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import warnings

import pytest

from streamfid.cli import main

C, S, B = "complete.jsonl", "sample.jsonl", "bernoulli.jsonl"

# (step name, argv, files the step writes); a step's stdout is hashed under
# its own name when it prints anything
STEPS = [
    ("simulate", ["simulate", "--duration", "240", "--rate", "40", "--amplitude", "0.5",
                  "--seed", "42", "-o", C], [C]),
    ("sample-ratelimit", ["sample", "--mode", "ratelimit", "--threshold", "8", "--anchor-ms", "657",
                          "-i", C, "-o", S], [S]),
    ("sample-bernoulli", ["sample", "--mode", "bernoulli", "--rate", "0.5", "--seed", "3",
                          "-i", C, "-o", B], [B]),
    ("merge", ["merge", "-i", S, "-i", B, "-o", "merged.jsonl"], ["merged.jsonl"]),
    ("validate-ratelimit", ["validate-ratelimit", "-i", C, "-i", S], []),
    *[(f"breakdown-{key}", ["breakdown", "-i", C, "-i", S, "--key", key], [])
      for key in ("hour", "minute", "second", "millisecond", "lang", "type")],
    ("breakdown-millisecond-tz-json", ["breakdown", "-i", C, "-i", S, "--key", "millisecond",
                                       "--tz-offset", "5", "--format", "json"], []),
    ("breakdown-hour-tz-file", ["breakdown", "-i", C, "-i", B, "--key", "hour", "--tz-offset", "-3",
                                "-o", "breakdown_hour.csv"], ["breakdown_hour.csv"]),
    *[(f"entity-stats-{key}", ["entity-stats", "-i", S, "--key", key], [])
      for key in ("user", "hashtag", "url")],
    ("entity-stats-hashtag-json", ["entity-stats", "-i", C, "--key", "hashtag", "--format", "json"], []),
    ("estimate-missing-user", ["estimate-missing", "-i", S, "--key", "user", "-o", "missing_user.csv"],
     ["missing_user.csv"]),
    ("estimate-missing-hashtag", ["estimate-missing", "-i", S, "--key", "hashtag", "--k-max", "60",
                                  "-o", "missing_hashtag.csv"], ["missing_hashtag.csv"]),
    ("estimate-missing-url-rate", ["estimate-missing", "-i", B, "--key", "url", "--rate", "0.5"], []),
    ("rank", ["rank", "-i", C, "-i", S, "--k", "25", "--granularity", "hour", "-o", "rank.csv"],
     ["rank.csv"]),
    ("rank-millisecond", ["rank", "-i", C, "-i", S, "--k", "25", "--granularity", "millisecond"], []),
    ("graph-bipartite", ["graph", "bipartite", "-i", C, "-o", "edges.csv"], ["edges.csv"]),
    ("graph-retweet", ["graph", "retweet", "-i", C, "-o", "retweets.csv"], ["retweets.csv"]),
    ("graph-retweet-no-quotes", ["graph", "retweet", "-i", S, "--no-quotes"], []),
    ("cocluster-complete", ["graph", "cocluster", "-i", C, "--k", "6", "--seed", "1",
                            "-o", "clusters_complete.csv"], ["clusters_complete.csv"]),
    ("cocluster-sample", ["graph", "cocluster", "-i", S, "--k", "6", "--seed", "1",
                          "-o", "clusters_sample.csv"], ["clusters_sample.csv"]),
    ("cocluster-edges", ["graph", "cocluster", "-i", "edges.csv", "--k", "4", "--seed", "2",
                         "-o", "clusters_edges.csv"], ["clusters_edges.csv"]),
    ("bowtie-complete", ["graph", "bowtie", "-i", C, "-o", "bowtie_complete.csv"], ["bowtie_complete.csv"]),
    ("bowtie-sample", ["graph", "bowtie", "-i", S, "-o", "bowtie_sample.csv"], ["bowtie_sample.csv"]),
    ("bowtie-edges", ["graph", "bowtie", "-i", "retweets.csv", "-o", "bowtie_edges.csv"],
     ["bowtie_edges.csv"]),
    ("flow-cluster", ["graph", "flow", "--kind", "cluster", "-i", "clusters_complete.csv",
                      "-i", "clusters_sample.csv", "-o", "flow_cluster.csv"], ["flow_cluster.csv"]),
    ("flow-bowtie", ["graph", "flow", "--kind", "bowtie", "-i", "bowtie_complete.csv",
                     "-i", "bowtie_sample.csv"], []),
    ("cascade", ["cascade", "-i", C, "-i", S, "-o", "cascade.json"],
     ["cascade.json", "cascade_interarrival_complete.csv", "cascade_interarrival_sample.csv",
      "cascade_reach_600s.csv", "cascade_reach_3600s.csv", "cascade_reach_inf.csv"]),
    ("cascade-quotes-windows", ["cascade", "-i", C, "-i", B, "--include-quotes", "--window-s", "60",
                                "--window-s", "inf", "--retweet-threshold", "5", "-o", "cascade_q.json"],
     ["cascade_q.json", "cascade_q_interarrival_complete.csv", "cascade_q_interarrival_sample.csv",
      "cascade_q_reach_60s.csv", "cascade_q_reach_inf.csv"]),
]

GOLDEN = {
    "bernoulli.jsonl":
        "2979d16ef3d97399f32d5564a3d593a7785e83c7e2fa51138b9caee193444d04",
    "bowtie_complete.csv":
        "17929f69dc896e1484e4f43c7d161b94452bbc735a4469a54ba5c85aae7c35e6",
    "bowtie_edges.csv":
        "f1c48b246e4ed1d5fd5fd5dc3028b9a8efd3b4f2ad2d94b77bf3fa30541a9d4e",
    "bowtie_sample.csv":
        "61c0655aa309438135e1446a73e709a2c190a97bd3650a5860fbef8f5b4f3832",
    "breakdown-hour:stdout":
        "b18110207553866d1cf8edddd54de6ed0f2a54d907e1c76641189cf89cf27a57",
    "breakdown-lang:stdout":
        "c2f1543b12caeb5d67a041daf70dece97bbad4623ec264f7d0a63b3601bc0a75",
    "breakdown-millisecond-tz-json:stdout":
        "eeb200f67b713c4211ded7a6e60c9e3d30d55b08a7cc893073066f428b936e94",
    "breakdown-millisecond:stdout":
        "0f538f204c17fcd81268ae2c1ad9977f3818d764e8211ff13660d4b78b151bd6",
    "breakdown-minute:stdout":
        "b9e8bc61e4fa30b56f14df55f911edcbbc21aff0f9f2d319a984efe364a0a388",
    "breakdown-second:stdout":
        "c3f8f0af58498e6afa2b2615f738e2056a6af814adf21d982026ad4184db42d7",
    "breakdown-type:stdout":
        "2c4fe2efe5b30f0ece0956e2bd2e9afc9dd4cee174b5dbc9a4aee81dca4fac0a",
    "breakdown_hour.csv":
        "bd907a3ab26108d3a83ef8a0508a410e7dbe5b218e74c3f1acc040a7ea8eea9d",
    "cascade.json":
        "a1273400486f7e7d02b04e8f9de6c841a7c25b86d8c718200c3feb5e669b82cf",
    "cascade_interarrival_complete.csv":
        "a81ea37eb7d0a5d16a69a16d1ea648bc816f7c1828b32e60ca1bda790bc675b1",
    "cascade_interarrival_sample.csv":
        "6148d798ef342c28dad63bb4e0befed1ae90459fa59f7bfc61e609d7e215723f",
    "cascade_q.json":
        "696febda88a3eee34fda11ca3501fcce152d667e9fd9f36c2d44c41f04836391",
    "cascade_q_interarrival_complete.csv":
        "ddc23d4a318e660519f0e9a8dd8c1fae04c507ca7a79fae051b8aca3e877c854",
    "cascade_q_interarrival_sample.csv":
        "d0a393b497bf8014262904993d57efefe36fce6c61caeff533559c35b253d288",
    "cascade_q_reach_60s.csv":
        "94d8ca56f8a7fab339b93bf141b64fe3372c91557b0d1c773f595cab92740c9b",
    "cascade_q_reach_inf.csv":
        "a254aebf5d5e1798b6b29960b7386eececcee8202942dc344f574bec4dbdc294",
    "cascade_reach_3600s.csv":
        "46a31924bf68f287bebf7ffde2a59a0ba183fba96f011730f648bcb85e13cc12",
    "cascade_reach_600s.csv":
        "46a31924bf68f287bebf7ffde2a59a0ba183fba96f011730f648bcb85e13cc12",
    "cascade_reach_inf.csv":
        "46a31924bf68f287bebf7ffde2a59a0ba183fba96f011730f648bcb85e13cc12",
    "clusters_complete.csv":
        "7ed48f65f88ac24b10cf9e85d55f7341fe98df9877f062c713590479bc30498e",
    "clusters_edges.csv":
        "ecd84397ebb87b2cfa7ca10d8cdc493aed791b5d2694be96903853828059c311",
    "clusters_sample.csv":
        "bd0ec8ddc570565e624b225d0e7d0960a93e557ac971d5d743b85e7123b1578d",
    "complete.jsonl":
        "1fbfc4c5c9253f7496d9e46d285951ad3f5dd3d9443d7c904de6d6e13dd155d7",
    "edges.csv":
        "0fd02cf86f423f3a929499d54e0630be5ddd30104f815a3ff8b45678111cabdf",
    "entity-stats-hashtag-json:stdout":
        "d366810057439597346018df2b477ce1d5076f244d99909121a6a6170e8f8153",
    "entity-stats-hashtag:stdout":
        "11cea50b48e8eb6c21791c9740940891a81e8b163e9664de1424166dc61dcab3",
    "entity-stats-url:stdout":
        "dceaf4874a43cb5185086a8af8d424e4dfd3f6a335103c682826bc5d646be4f2",
    "entity-stats-user:stdout":
        "10773ea3df4093513ff133428bb14b9bbe9857c56401b7e4564b2da49144ffde",
    "estimate-missing-hashtag:stdout":
        "f90ab34f8867e8ec17e8528ea94cfa1a19ace27a5b7546887940ddb63c145490",
    "estimate-missing-url-rate:stdout":
        "eeebf840f0f94c48b6c3496185a8c25298534a72464a9414fd52b3ecb574a2d7",
    "estimate-missing-user:stdout":
        "05ff58f7f98df2e079c17e298f9ab6ae872a70070e0b2b6d82ab4168a4d45c5d",
    "flow-bowtie:stdout":
        "41d4ed0518518a6adaff9904773c04f2b420c9eb6852818f8e408d7cbc1b1a16",
    "flow_cluster.csv":
        "d9335be36bd4aa1a78f37bc53a4639e07db4c6c9004cf1466c715063620bec86",
    "graph-retweet-no-quotes:stdout":
        "203825f67bac99ad4a188b665ad7db2036e15a81a4dc796b1665cd63738ce34e",
    "merged.jsonl":
        "3c70f139f890afbfdcf5070655ee04c4d4b7b98e8e9eb078fc1afe54dcbaa2af",
    "missing_hashtag.csv":
        "373fd3e9284464cdce9a3b201310e71f71df1cbe7b9586c2bd3b1e8ee84339a8",
    "missing_user.csv":
        "b860dafdcc26aebf3e2d7a663dae358e27c246d0ab44ab297d5862305b13b99c",
    "rank-millisecond:stdout":
        "9b66656fb76fe6514eeb04cfab9d19e84b85516e110b6ac22fd0a423b62b421e",
    "rank.csv":
        "98e169e7a0dc7901a3ed5c228751973c729d6c6c936570b31beda8370386da23",
    "rank:stdout":
        "abd7333c3330b80a57aca7a087905bf49e04942c4580a432d4ebe1e9a0c0f7cf",
    "retweets.csv":
        "73197c11cb75f90946ca4a1dd689bb8dcae8e3ed0857fac54672bea06b047d62",
    "sample.jsonl":
        "65a0f4bf99cb77a0d17cef3fb652c22d46d18f3ad250f5d373c43b3f0d27e701",
    "validate-ratelimit:stdout":
        "c083dd2f5d30ee4769e9d3a3b24afbaf68596676a6da091acc913a7bf0d6ba2c",
}

# UserWarnings each step raises (other categories are not pinned)
GOLDEN_WARNINGS = {
    "estimate-missing-hashtag": ["2 frequency bins above k_max=60 clamped into the last bin"],
    "estimate-missing-user": ["4 frequency bins above k_max=100 clamped into the last bin"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_walkthrough(directory):
    """Run every step in ``directory``; map output -> digest, step -> warnings."""
    digests, warned = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        for name, argv, files in STEPS:
            out = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
                warnings.simplefilter("always")
                code = main(argv)
            assert code == 0, f"{name} exited {code}"
            if out.getvalue():
                digests[f"{name}:stdout"] = _sha256(out.getvalue().encode("utf-8"))
            for path in files:
                with open(path, "rb") as fh:
                    digests[path] = _sha256(fh.read())
            messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
            if messages:
                warned[name] = messages
    return digests, warned


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    return run_walkthrough(tmp_path_factory.mktemp("golden"))


def test_every_output_is_pinned(walkthrough):
    digests, _ = walkthrough
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("output", sorted(GOLDEN))
def test_output_matches_golden(walkthrough, output):
    digests, _ = walkthrough
    assert digests.get(output) == GOLDEN[output]


def test_warnings_match_golden(walkthrough):
    _, warned = walkthrough
    assert warned == GOLDEN_WARNINGS
