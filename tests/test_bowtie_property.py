"""Property test: bow-tie decomposition against two independent references.

Random digraphs mix random edges (self-loops included) with disjoint
equal-size cycles, so several SCCs often tie for largest, and add isolated
nodes through ``extra_nodes``.  Each must match the brute-force reachability
oracle and networkx's strongly connected components under the same tie rule.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from streamfid.graphs import LSCC, Digraph, bowtie_decompose

from test_graphs import brute_force_bowtie, cycle


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 16))
    nodes = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(nodes, nodes), max_size=n))
    edges |= {(v, v) for v in draw(st.sets(nodes, max_size=3))}
    # equal-size cycles over shuffled ids: candidates for a tied LSCC
    size = draw(st.integers(2, 4))
    order = draw(st.permutations(range(n)))
    for k in range(draw(st.integers(0, n // size))):
        edges |= set(cycle(order[k * size:(k + 1) * size]))
    extra = draw(st.sets(st.integers(0, n + 4), max_size=4))
    return Digraph.from_edges({e: 1 for e in edges}, extra_nodes=extra)


def networkx_lscc(g: Digraph) -> set:
    nx = pytest.importorskip("networkx")
    d = nx.DiGraph()
    d.add_nodes_from(g.nodes)
    d.add_edges_from(g.edges)
    sccs = list(nx.strongly_connected_components(d))
    largest = max(len(c) for c in sccs)
    return min((c for c in sccs if len(c) == largest), key=min)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(digraphs())
def test_bowtie_matches_oracle_and_networkx(g):
    assume(g.nodes)  # the empty graph has its own test
    comp = bowtie_decompose(g).components
    assert comp == brute_force_bowtie(g.nodes, g.edges)
    assert {v for v, c in comp.items() if c == LSCC} == networkx_lscc(g)
