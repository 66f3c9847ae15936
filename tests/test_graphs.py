from collections import Counter

import numpy as np
import pytest

from streamfid import graphs
from streamfid.graphs import (
    BOWTIE_COMPONENTS,
    DISCONNECTED,
    IN,
    LSCC,
    OUT,
    TENDRILS,
    TUBES,
    Digraph,
    bowtie_decompose,
    bowtie_flow,
    build_bipartite,
    build_retweet_network,
    cluster_flow,
    hashtag_node,
    spectral_cocluster,
    user_node,
)
from streamfid.model import StreamBundle
from streamfid.simulate import bernoulli_sample

from conftest import ev


def digraph(edges):
    return Digraph.from_edges({e: 1 for e in edges})


def brute_force_bowtie(nodes, edges):
    """O(n^2) reachability classifier used as an independent oracle."""
    nodes = sorted(nodes)
    adj = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)

    def reach_from(s):
        seen, todo = {s}, [s]
        while todo:
            v = todo.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    reach = {n: reach_from(n) for n in nodes}
    sccs = {}
    for n in nodes:
        key = frozenset(m for m in reach[n] if n in reach[m])
        sccs[n] = key
    distinct = set(sccs.values())
    max_size = max(len(c) for c in distinct)
    lscc = min((c for c in distinct if len(c) == max_size), key=min)
    any_l = min(lscc)
    comp = {}
    for n in nodes:
        if n in lscc:
            comp[n] = LSCC
        elif any_l in reach[n]:
            comp[n] = IN
        elif n in reach[any_l]:
            comp[n] = OUT
    in_nodes = {n for n, c in comp.items() if c == IN}
    out_nodes = {n for n, c in comp.items() if c == OUT}
    for n in nodes:
        if n in comp:
            continue
        from_in = any(n in reach[i] for i in in_nodes)
        to_out = any(o in reach[n] for o in out_nodes)
        comp[n] = TUBES if from_in and to_out else (TENDRILS if from_in or to_out else DISCONNECTED)
    return comp


class TestBuildBipartite:
    def test_no_hashtags_empty(self):
        g = build_bipartite(StreamBundle([ev(0, 0), ev(1, 1)]))
        assert g.weights == {} and g.node_count == 0

    def test_repeated_pair_accumulates(self):
        events = [ev(i, i, user=1, hashtags=("x",)) for i in range(3)]
        g = build_bipartite(StreamBundle(events))
        assert g.weights == {(1, "x"): 3}

    def test_hand_counted_fixture(self):
        events = [
            ev(0, 0, user=1, hashtags=("a", "b")),
            ev(1, 1, user=1, hashtags=("a",)),
            ev(2, 2, user=2, hashtags=("b", "b")),
            ev(3, 3, user=2, hashtags=()),
            ev(4, 4, user=3, hashtags=("a", "c")),
        ]
        g = build_bipartite(StreamBundle(events))
        assert g.weights == {
            (1, "a"): 2, (1, "b"): 1, (2, "b"): 1, (3, "a"): 1, (3, "c"): 1,
        }
        assert g.users == (1, 2, 3)
        assert g.hashtags == ("a", "b", "c")


class TestSpectralCocluster:
    @staticmethod
    def biclique(users, tags, weight=2):
        return [(u, t, weight) for u in users for t in tags]

    def _graph(self, triples):
        events, eid = [], 0
        for u, t, w in triples:
            for _ in range(w):
                events.append(ev(eid, eid, user=u, hashtags=(t,)))
                eid += 1
        return build_bipartite(StreamBundle(events))

    def test_single_biclique_one_cluster(self):
        g = self._graph(self.biclique([1, 2], ["a", "b"]))
        labels = spectral_cocluster(g, k=1, seed=0)
        assert set(labels.values()) == {0}
        assert len(labels) == 4

    def test_two_components_recovered(self):
        g = self._graph(self.biclique([1, 2, 3], ["a", "b"]) + self.biclique([7, 8], ["x", "y", "z"]))
        labels = spectral_cocluster(g, k=2, seed=1)
        left = {labels[user_node(u)] for u in (1, 2, 3)} | {labels[hashtag_node(t)] for t in "ab"}
        right = {labels[user_node(u)] for u in (7, 8)} | {labels[hashtag_node(t)] for t in "xyz"}
        assert len(left) == 1 and len(right) == 1
        assert left != right

    def test_deterministic_per_seed(self):
        g = self._graph(self.biclique([1, 2, 3], ["a", "b"]) + self.biclique([5, 6], ["c", "d"]))
        a = spectral_cocluster(g, k=3, seed=9)
        b = spectral_cocluster(g, k=3, seed=9)
        assert a == b

    def test_k_above_node_count_rejected(self):
        g = self._graph(self.biclique([1], ["a"]))
        with pytest.raises(ValueError):
            spectral_cocluster(g, k=5, seed=0)

    def test_large_graph_randomized_path_separates_components(self, rng):
        # both hashtag sides above the dense-SVD cutoff forces the seeded
        # subspace-iteration path; two components must still split exactly
        triples = []
        for block, (users, tags) in enumerate(((range(400), range(300)),
                                               (range(400, 800), range(300, 600)))):
            tags = list(tags)
            for u in users:
                for t in rng.choice(tags, size=3, replace=False):
                    triples.append((u, f"t{t}", 1))
        g = self._graph(triples)
        assert min(len(g.users), len(g.hashtags)) > 512
        labels = spectral_cocluster(g, k=2, seed=5)
        first = {labels[user_node(u)] for u in range(400)}
        second = {labels[user_node(u)] for u in range(400, 800)}
        assert len(first) == 1 and len(second) == 1 and first != second
        assert spectral_cocluster(g, k=2, seed=5) == labels

    def _two_blocks(self, rng):
        # the same 800-user x ~591-hashtag two-component graph as above
        triples = []
        for users, tags in ((range(400), range(300)), (range(400, 800), range(300, 600))):
            tags = list(tags)
            for u in users:
                for t in rng.choice(tags, size=3, replace=False):
                    triples.append((u, f"t{t}", 1))
        return self._graph(triples)

    def test_randomized_path_converges_at_every_seed(self, rng):
        g = self._two_blocks(rng)
        for seed in range(8):
            labels = spectral_cocluster(g, k=2, seed=seed)
            first = {labels[user_node(u)] for u in range(400)}
            second = {labels[user_node(u)] for u in range(400, 800)}
            assert len(first) == 1 and len(second) == 1 and first != second, seed

        m, _, _ = graphs._normalized_weights(g)
        u_dense, _, vt_dense = np.linalg.svd(m.toarray(), full_matrices=False)
        u, v = graphs._truncated_svd(m, 2, seed=0)
        # distance between the projectors onto the two top-2 subspaces
        for approx, exact in ((u, u_dense[:, :2]), (v, vt_dense[:2].T)):
            assert np.linalg.norm(approx @ approx.T - exact @ exact.T, 2) < 1e-5

    def test_randomized_path_warns_when_cap_reached(self, rng, monkeypatch):
        g = self._two_blocks(rng)
        monkeypatch.setattr(graphs, "_MAX_POWER_ITERS", 1)
        with pytest.warns(UserWarning, match="not converged after 1 iterations"):
            spectral_cocluster(g, k=2, seed=0)


class TestClusterFlow:
    def test_identical_labelings_diagonal(self):
        labels = {f"e{i}": i % 3 for i in range(9)}
        flow = cluster_flow(labels, labels)
        body = flow.counts[:, :-1]
        assert np.trace(body) == 9
        assert body.sum() == 9
        assert flow.counts[:, -1].sum() == 0
        assert np.allclose(np.diag(flow.ratios[:, :-1]), 1.0)

    def test_all_missing_column(self):
        labels = {f"e{i}": i % 2 for i in range(6)}
        flow = cluster_flow(labels, {})
        assert flow.counts[:, :-1].sum() == 0
        assert flow.counts[:, -1].tolist() == [3, 3]

    def test_hand_counted_ten_entities(self):
        complete = {i: (0 if i < 6 else 1) for i in range(10)}
        sample = {0: 1, 1: 1, 2: 1, 3: 0, 6: 0, 7: 0, 8: 1}
        flow = cluster_flow(complete, sample)
        # greedy diagonal: complete 0 -> sample 1 (3 entities), complete 1 -> sample 0 (2)
        assert flow.col_labels == (1, 0, "missing")
        assert flow.counts.tolist() == [[3, 1, 2], [1, 2, 1]]
        assert flow.counts.sum(axis=1).tolist() == [6, 4]

    def test_row_sums_equal_complete_sizes(self, rng):
        for _ in range(10):
            complete = {i: int(rng.integers(4)) for i in range(50)}
            sample = {i: int(rng.integers(4)) for i in range(50) if rng.random() < 0.6}
            flow = cluster_flow(complete, sample)
            sizes = Counter(complete.values())
            assert flow.counts.sum(axis=1).tolist() == [sizes[c] for c in flow.row_labels]

    def test_sample_superset_rejected(self):
        with pytest.raises(ValueError):
            cluster_flow({1: 0}, {1: 0, 2: 0})


class TestBuildRetweetNetwork:
    def test_no_retweets_empty(self):
        g = build_retweet_network(StreamBundle([ev(0, 0, user=1)]))
        assert g.edges == {} and g.nodes == frozenset()

    def test_single_root_two_retweets(self):
        events = [
            ev(0, 0, user=10),
            ev(1, 5, user=20, kind="retweet", root_id=0),
            ev(2, 9, user=20, kind="retweet", root_id=0),
        ]
        g = build_retweet_network(StreamBundle(events))
        assert g.edges == {(20, 10): 2}

    def test_hand_built_three_authors(self):
        events = [
            ev(0, 0, user=1),
            ev(1, 1, user=2),
            ev(2, 2, user=3, kind="retweet", root_id=0),
            ev(3, 3, user=3, kind="retweet", root_id=1),
            ev(4, 4, user=2, kind="quote", root_id=0),
            ev(5, 5, user=1, kind="reply", root_id=1),   # replies excluded
            ev(6, 6, user=2, kind="retweet", root_id=99),  # unresolvable
        ]
        g = build_retweet_network(StreamBundle(events))
        assert g.edges == {(3, 1): 1, (3, 2): 1, (2, 1): 1}
        assert g.skipped_unresolvable == 1
        g_no_quotes = build_retweet_network(StreamBundle(events), include_quotes=False)
        assert g_no_quotes.edges == {(3, 1): 1, (3, 2): 1}

    def test_sampled_edges_are_subset_with_dominated_weights(self, rng):
        events = [ev(0, 0, user=0)]
        for i in range(1, 400):
            events.append(ev(i, i, user=int(rng.integers(1, 30)), kind="retweet", root_id=0))
        complete = build_retweet_network(StreamBundle(events))
        sampled_events = [events[0]] + bernoulli_sample(events[1:], 0.5, seed=3)
        sample = build_retweet_network(StreamBundle(sampled_events))
        for edge, w in sample.edges.items():
            assert edge in complete.edges
            assert w <= complete.edges[edge]


class TestDigraphEndpoints:
    def test_edge_endpoint_missing_from_nodes_rejected(self):
        with pytest.raises(ValueError, match="edge endpoint 3 is not in nodes"):
            Digraph({(1, 2): 1, (2, 1): 1, (2, 3): 1}, frozenset({1, 2}))

    def test_first_missing_endpoint_named(self):
        with pytest.raises(ValueError, match="edge endpoint 7 is not in nodes"):
            Digraph({(1, 2): 1, (7, 1): 1, (2, 9): 1}, frozenset({1, 2}))

    def test_consistent_graphs_accepted(self):
        g = Digraph.from_edges({(1, 2): 1, (2, 3): 2}, extra_nodes=[9])
        assert g.nodes == frozenset({1, 2, 3, 9})
        assert Digraph({}, frozenset({4})).nodes == frozenset({4})


class TestBowtieDecompose:
    def test_cycle_with_inbound_node(self):
        g = digraph([(1, 2), (2, 3), (3, 1), (9, 1)])
        comp = bowtie_decompose(g)
        assert comp[1] == comp[2] == comp[3] == LSCC
        assert comp[9] == IN

    def test_cycle_with_outbound_node(self):
        g = digraph([(1, 2), (2, 3), (3, 1), (1, 9)])
        assert bowtie_decompose(g)[9] == OUT

    def test_tube_and_tendril(self):
        # lscc: 1-2 ; in: 0 ; out: 3 ; tube: 0->4->3 ; tendril: 0->5
        g = digraph([(1, 2), (2, 1), (0, 1), (2, 3), (0, 4), (4, 3), (0, 5)])
        comp = bowtie_decompose(g)
        assert comp[4] == TUBES
        assert comp[5] == TENDRILS
        assert comp[0] == IN and comp[3] == OUT

    def test_empty_graph(self):
        assert len(bowtie_decompose(Digraph.from_edges({}))) == 0

    def test_partition_property(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(1, 3 * n))
            edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))}
            g = Digraph.from_edges({e: 1 for e in edges}, extra_nodes=range(n))
            comp = bowtie_decompose(g)
            assert len(comp) == n
            assert sum(comp.sizes().values()) == n

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 120))
            m = int(n * rng.uniform(0.5, 3.0))
            edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))}
            g = Digraph.from_edges({e: 1 for e in edges}, extra_nodes=range(n))
            ours = bowtie_decompose(g).components
            oracle = brute_force_bowtie(range(n), edges)
            assert ours == oracle


def cycle(ids):
    return [(ids[i], ids[(i + 1) % len(ids)]) for i in range(len(ids))]


class TestLsccTieRule:
    """Among equal-size SCCs the LSCC is the one holding the smallest node id."""

    @pytest.mark.parametrize(
        "small, large",
        [((1, 2, 3), (7, 8, 9)), ((1, 8, 9), (2, 3, 7))],
        ids=["blocks", "interleaved"],
    )
    @pytest.mark.parametrize("bridge_from_small", [True, False], ids=["to_large", "from_large"])
    def test_cycle_with_smallest_id_wins(self, small, large, bridge_from_small):
        bridge = (small[-1], large[0]) if bridge_from_small else (large[0], small[-1])
        comp = bowtie_decompose(digraph(cycle(small) + cycle(large) + [bridge]))
        assert {v for v in small if comp[v] == LSCC} == set(small)
        other = OUT if bridge_from_small else IN
        assert all(comp[v] == other for v in large)


class TestBowtieFlow:
    def test_identity_diagonal(self):
        assign = {1: LSCC, 2: IN, 3: OUT, 4: TUBES, 5: TENDRILS, 6: DISCONNECTED}
        flow = bowtie_flow(assign, assign)
        assert flow.row_labels == BOWTIE_COMPONENTS
        assert np.trace(flow.counts[:, :-1]) == 6

    def test_missing_everything_but_lscc(self):
        assign = {1: LSCC, 2: LSCC, 3: IN, 4: OUT}
        flow = bowtie_flow(assign, {1: LSCC, 2: LSCC})
        assert flow.counts[0, 0] == 2
        assert flow.counts[1, -1] == 1 and flow.counts[2, -1] == 1

    def test_fixed_component_order(self):
        flow = bowtie_flow({1: TENDRILS}, {})
        assert flow.col_labels[:-1] == BOWTIE_COMPONENTS
