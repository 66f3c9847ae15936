"""The numpy ports of NNLS, k-means++, the bow-tie searches and the sparse
products of co-clustering against scipy.

The package solves its NNLS (Lawson & Hanson), seeds and runs its k-means
(scipy's ``kmeans2`` rules), finds strong components and reachability and
multiplies its co-clustering matrix with dense blocks in numpy, so that no
command loads scipy.  scipy stays a test dependency and is the oracle here.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.cluster.vq import kmeans2
from scipy.optimize import nnls
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from streamfid import entity
from streamfid.entity import SolverError, _nnls, binomial_kernel, estimate_complete_frequency_vector
from streamfid.graphs import (
    BipartiteGraph,
    _csr,
    _normalized_weights,
    _reach,
    _seeded_kmeans,
    _sparse,
    _strong_components,
    _truncated_svd,
)
from streamfid.model import FrequencyVector

KERNEL_GRID = [(k_max, float(rate)) for k_max in (20, 40, 100)
               for rate in np.round(np.arange(0.1, 1.0001, 0.05), 2)]


def kernel_problem(k_max, rate, draw):
    """Round-trip problem: a non-increasing complete vector and its exact sample vector.

    Returns the decrement form (A @ T, b) that the inversion solves, with T
    and the truth x."""
    rng = np.random.default_rng([k_max, int(rate * 100), draw])
    support = int(rng.integers(5, k_max // 2))
    x = np.zeros(k_max)
    x[:support] = np.sort(rng.uniform(1, 1000, support))[::-1]
    kernel = binomial_kernel(k_max, rate)
    T = np.triu(np.ones((k_max, k_max)))
    return kernel @ T, kernel @ x, T, x


def per_bin(err, x):
    return float(np.max(np.abs(err) / np.maximum(x, 1.0)))


def test_nnls_round_trip_agrees_with_scipy():
    # Both solvers run the same algorithm in a different floating-point order,
    # and the kernel's conditioning grows like rate**-k_max: where scipy's own
    # round trip is off by e, the two may differ by a few hundred e (a literal
    # loop-for-loop translation of the Fortran NNLS spreads from scipy as far,
    # 2.3e-9 and 1.8e-5 on the two sets below).  So the port must agree to 1e-8
    # where scipy's round trip is within 1e-10, and recover the truth to 1e-4
    # wherever scipy recovers it to 1e-6.
    agreed = recovered = 0
    for k_max, rate in KERNEL_GRID:
        for draw in range(3):
            a, b, T, x = kernel_problem(k_max, rate, draw)
            ref = T @ nnls(a, b, maxiter=entity.NNLS_MAX_ITER)[0]
            got = T @ _nnls(a, b, entity.NNLS_MAX_ITER)[0]
            scipy_error = per_bin(ref - x, x)
            if scipy_error <= 1e-10:
                assert per_bin(got - ref, x) <= 1e-8, (k_max, rate, draw)
                agreed += 1
            if scipy_error <= 1e-6:
                assert per_bin(got - x, x) <= 1e-4, (k_max, rate, draw)
                recovered += 1
    assert agreed >= 100 and recovered >= 120   # of 171 problems


def test_nnls_residual_agrees_with_scipy_on_noisy_counts():
    # with Poisson noise the minimizer may be ill-determined, but the minimum
    # is not: both solvers must reach the same residual norm
    for k_max, rate in KERNEL_GRID:
        a, b, _, _ = kernel_problem(k_max, rate, 0)
        counts = np.random.default_rng([k_max, int(rate * 100)]).poisson(b).astype(float)
        ref = nnls(a, counts, maxiter=entity.NNLS_MAX_ITER)[1]
        u, rnorm = _nnls(a, counts, entity.NNLS_MAX_ITER)
        assert np.all(u >= 0)
        assert rnorm == pytest.approx(np.linalg.norm(a @ u - counts), abs=1e-9)
        assert abs(rnorm - ref) <= 1e-12 * np.linalg.norm(counts), (k_max, rate)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 8).flatmap(lambda m: st.integers(1, 8).flatmap(lambda n: st.tuples(
    hnp.arrays(float, (m, n), elements=st.floats(-4, 4, width=16)),
    hnp.arrays(float, m, elements=st.floats(-4, 4, width=16))))))
def test_nnls_residual_agrees_with_scipy_on_any_matrix(problem):
    # tall, wide, rank-deficient and zero matrices
    a, b = problem
    ref = nnls(a, b)[1]
    u, rnorm = _nnls(a, b, entity.NNLS_MAX_ITER)
    assert np.all(u >= 0)
    assert rnorm == pytest.approx(ref, abs=1e-9 * (1 + np.linalg.norm(b)))
    assert rnorm == pytest.approx(np.linalg.norm(a @ u - b), abs=1e-9 * (1 + np.linalg.norm(b)))


def test_nnls_iteration_cap_raises_solver_error(monkeypatch):
    monkeypatch.setattr(entity, "NNLS_MAX_ITER", 1)
    fv = FrequencyVector({1: 75, 2: 12, 3: 4, 5: 1})
    with pytest.raises(SolverError, match="after 1 iterations"):
        estimate_complete_frequency_vector(fv, 0.5, k_max=20)


def recorded(call):
    """The result (or exception type) of ``call`` and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except IndexError as exc:
            out = type(exc)
    return out, [(w.category, str(w.message)) for w in caught]


@st.composite
def point_sets(draw):
    dims = draw(st.integers(1, 6))
    # grid values make exact ties, which only the very same distance
    # arithmetic as scipy's (per dimension below 5 dimensions, one matrix
    # product from 5 on) breaks the same way
    step = draw(st.sampled_from([0.1, 1 / 3, 0.7, 1.0]))
    grid = st.integers(-3, 3).map(lambda i: i * step)
    base = draw(hnp.arrays(float, (draw(st.integers(1, 30)), dims),
                           elements=grid | st.floats(-10, 10, width=32)))
    # repeated rows: tied distances and zero D^2 in the k-means++ draws
    points = base[draw(st.lists(st.integers(0, len(base) - 1), min_size=2, max_size=60))]
    return points, draw(st.integers(2, min(len(points), 8))), draw(st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(point_sets())
def test_kmeans_labels_equal_kmeans2(case):
    points, k, seed = case
    got, got_warnings = recorded(lambda: _seeded_kmeans(points, k, seed))
    ref, ref_warnings = recorded(lambda: kmeans2(points, k, minit="++", seed=seed, missing="warn")[1])
    if isinstance(ref, type):
        assert got is ref
    else:
        np.testing.assert_array_equal(got, ref)
    assert got_warnings == ref_warnings


def test_kmeans_breaks_ties_as_kmeans2():
    # small grids put points at exactly equal distances from two centres
    rng = np.random.default_rng(5)
    for _ in range(600):
        dims = int(rng.integers(1, 7))
        points = rng.integers(-3, 4, size=(int(rng.integers(4, 12)), dims)) * rng.choice([0.3, 1 / 3, 0.7])
        k, seed = int(rng.integers(2, 4)), int(rng.integers(0, 1000))
        got, got_warnings = recorded(lambda: _seeded_kmeans(points, k, seed))
        ref, ref_warnings = recorded(lambda: kmeans2(points, k, minit="++", seed=seed, missing="warn")[1])
        np.testing.assert_array_equal(got, ref)
        assert got_warnings == ref_warnings


def test_empty_cluster_warns_with_kmeans2_text():
    # three of four points coincide: k-means++ draws one centre twice, and
    # the copy the nearest-centre rule never picks stays empty
    points = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    got, got_warnings = recorded(lambda: _seeded_kmeans(points, 3, 1))
    ref, ref_warnings = recorded(lambda: kmeans2(points, 3, minit="++", seed=1, missing="warn")[1])
    np.testing.assert_array_equal(got, ref)
    assert got_warnings == ref_warnings
    empty = "One of the clusters is empty. Re-run kmeans with a different initialization."
    assert (UserWarning, empty) in got_warnings


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 40))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    starts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    return n, sorted(edges), starts


def same_partition(a, b) -> bool:
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(digraphs())
def test_bowtie_searches_equal_csgraph(case):
    n, edges, starts = case
    rows, cols, vals = _sparse({e: 1 for e in edges}, range(n), range(n))
    adj = csr_matrix((vals, (rows, cols)), shape=(n, n))
    _, ref = connected_components(adj, directed=True, connection="strong")
    assert same_partition(_strong_components(*_csr(rows, cols, n)), ref)
    for (r, c), m in (((rows, cols), adj), ((cols, rows), adj.T)):
        expected = np.isfinite(dijkstra(m, indices=starts, unweighted=True, min_only=True))
        np.testing.assert_array_equal(_reach(*_csr(r, c, n), starts), expected)


def random_bipartite(rng, n_users: int, n_tags: int, n_edges: int) -> BipartiteGraph:
    """Up to n_edges user-hashtag edges drawn uniformly, weights 1 to 29."""
    weights = {(int(u), f"t{t}"): int(w) for u, t, w in zip(
        rng.integers(0, n_users, n_edges), rng.integers(0, n_tags, n_edges), rng.integers(1, 30, n_edges))}
    return BipartiteGraph.from_weights(weights)


# the last graph's smaller side is above 512 nodes, so its SVD is randomized
@pytest.mark.parametrize("n_users, n_tags, n_edges", [(1, 1, 1), (40, 25, 200), (300, 120, 900),
                                                      (1000, 800, 12000)])
def test_cocluster_matrix_products_equal_csr_matrix(n_users, n_tags, n_edges):
    g = random_bipartite(np.random.default_rng([n_users, n_tags, n_edges]), n_users, n_tags, n_edges)
    m, su, sh = _normalized_weights(g)
    # the matrix as scipy built it: CSR weights, scaled by the degree vectors
    rows, cols, vals = _sparse(g.weights, g.users, g.hashtags)
    w = csr_matrix((vals, (rows, cols)), shape=m.shape)
    su_ref = 1.0 / np.sqrt(np.maximum(np.asarray(w.sum(axis=1)).ravel(), 1e-12))
    sh_ref = 1.0 / np.sqrt(np.maximum(np.asarray(w.sum(axis=0)).ravel(), 1e-12))
    ref = w.multiply(su_ref[:, None]).multiply(sh_ref[None, :]).tocsc()
    np.testing.assert_array_equal(su, su_ref)
    np.testing.assert_array_equal(sh, sh_ref)
    np.testing.assert_array_equal(m.toarray(), ref.toarray())
    rng = np.random.default_rng(0)
    for width in (1, 4, 20):
        x = rng.standard_normal((m.shape[1], width))
        y = rng.standard_normal((m.shape[0], width))
        np.testing.assert_array_equal(m @ x, ref @ x)
        np.testing.assert_array_equal(m.T @ y, ref.T @ y)
    if n_edges > 10_000:
        assert min(m.shape) > 512
        # the randomized path: its Ritz values are the dense singular values
        u, v = _truncated_svd(m, 4, seed=0)
        s = np.einsum("ij,ij->j", u, m @ v)
        np.testing.assert_allclose(s, np.linalg.svd(m.toarray(), compute_uv=False)[:4], rtol=0, atol=1e-8)
