"""Network construction and structural drift measurement.

Two graphs are built from a stream's events: the user-hashtag bipartite graph
(weighted by tweet count) and the user-user retweet digraph.  The bipartite
graph is spectrally co-clustered; the digraph is decomposed into the
classic six-component bow-tie.  Flow matrices count how entities move
between the complete-set and sample-set structures.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .model import EVENT_TYPES, EventView, StreamBundle, csr_gather, distinct_per_event

LSCC = "LSCC"
IN = "IN"
OUT = "OUT"
TUBES = "Tubes"
TENDRILS = "Tendrils"
DISCONNECTED = "Disconnected"
BOWTIE_COMPONENTS = (LSCC, IN, OUT, TUBES, TENDRILS, DISCONNECTED)

MISSING = "missing"

# randomized SVD stop rule: relative residual target and iteration cap
_SVD_TOL = 1e-6
_MAX_POWER_ITERS = 200

# k-means: Lloyd steps after the k-means++ seeding, the warning an empty
# cluster raises, and the dimension from which the nearest-centre step
# takes its distances from one matrix product (the rules of scipy's kmeans2
# and vq; the seeding sums one dimension at a time, as cdist does)
_KMEANS_STEPS = 10
_EMPTY_CLUSTER = "One of the clusters is empty. Re-run kmeans with a different initialization."
_PRODUCT_DISTANCE_DIMS = 5


@dataclass(frozen=True)
class BipartiteGraph:
    """User-hashtag graph; edge weight = number of tweets linking the pair."""

    weights: Mapping[tuple[int, str], int]
    users: tuple[int, ...]
    hashtags: tuple[str, ...]

    def __post_init__(self):
        if any(w < 1 for w in self.weights.values()):
            raise ValueError("edge weights must be positive")

    @classmethod
    def from_weights(cls, weights: Mapping) -> "BipartiteGraph":
        """The graph of {(user, hashtag): weight}, over the sorted users and hashtags of its edges."""
        return cls(dict(weights), tuple(sorted({u for u, _ in weights})),
                   tuple(sorted({h for _, h in weights})))

    @property
    def node_count(self) -> int:
        return len(self.users) + len(self.hashtags)


def build_bipartite(events: Union[StreamBundle, EventView]) -> BipartiteGraph:
    t = events.table
    rows, codes = distinct_per_event(t.hashtag_bounds, t.hashtag_codes, len(t.hashtag_table))
    users, user_codes = np.unique(t.user, return_inverse=True)
    # one int object per user, shared by its edges
    weights = Counter(zip(map(users.tolist().__getitem__, user_codes[rows].tolist()),
                          map(t.hashtag_table.__getitem__, codes.tolist())))
    return BipartiteGraph.from_weights(weights)


def user_node(user_id) -> str:
    return f"u:{user_id}"


def hashtag_node(tag: str) -> str:
    return f"h:{tag}"


def spectral_cocluster(g: BipartiteGraph, k: int, seed: int = 0) -> dict[str, int]:
    """Co-cluster users and hashtags into k groups (Dhillon-style).

    The degree-normalized weight matrix D_u^-1/2 W D_h^-1/2 is factored for
    its top ceil(log2 k)+1 singular vectors; user and hashtag embeddings are
    stacked and clustered with seeded k-means++.  Keys are namespaced
    ("u:..." / "h:...") so both sides share one labeling.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n_u, n_h = len(g.users), len(g.hashtags)
    if k > n_u + n_h:
        raise ValueError(f"k={k} exceeds node count {n_u + n_h}")
    normalized, su, sh = _normalized_weights(g)
    n_vec = int(np.ceil(np.log2(k))) + 1 if k > 1 else 1
    n_vec = min(n_vec, min(n_u, n_h))
    u_vec, v_vec = _truncated_svd(normalized, n_vec, seed)
    emb = np.vstack([su[:, None] * u_vec, sh[:, None] * v_vec])
    # degree scaling stretches each cluster along a ray from the origin;
    # unit rows make k-means cut by direction instead of radius
    emb /= np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)

    rng_labels = _seeded_kmeans(emb, k, seed)
    out: dict[str, int] = {}
    for i, u in enumerate(g.users):
        out[user_node(u)] = int(rng_labels[i])
    for j, h in enumerate(g.hashtags):
        out[hashtag_node(h)] = int(rng_labels[n_u + j])
    return out


def _sparse(weights: Mapping, row_order: Sequence, col_order: Sequence):
    """Row positions, column positions and values of a {(row, col): weight} mapping,
    indexed by position in the orders."""
    rpos = {r: i for i, r in enumerate(row_order)}
    cpos = {c: j for j, c in enumerate(col_order)}
    n = len(weights)
    rows = np.fromiter((rpos[r] for r, _ in weights), dtype=np.int64, count=n)
    cols = np.fromiter((cpos[c] for _, c in weights), dtype=np.int64, count=n)
    vals = np.fromiter(weights.values(), dtype=float, count=n)
    return rows, cols, vals


class _Sparse:
    """A sparse matrix held as coordinate arrays sorted by (row, col).

    It has what the SVD needs: ``shape``, ``toarray()``, ``.T`` (a copy
    sorted by (col, row)) and ``@`` with a dense block.  A product gathers
    the block's rows of every entry, scales them by its value and sums them
    into the output rows with one ``np.bincount``, which adds in entry
    order: each output row is summed in column order, as scipy's CSR and
    CSC products sum it, so the results are theirs bit for bit.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]):
        order = np.lexsort((cols, rows))
        self.rows, self.cols, self.vals = rows[order], cols[order], vals[order]
        self.shape = shape
        self._transposed: Optional[_Sparse] = None
        # block width -> flat output index of each entry's products, kept on
        # the matrix (not in a module-level cache) so that it is freed with it
        self._flat: dict[int, np.ndarray] = {}

    @property
    def T(self) -> "_Sparse":
        if self._transposed is None:
            self._transposed = _Sparse(self.cols, self.rows, self.vals, self.shape[::-1])
        return self._transposed

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n_rows, width = self.shape[0], x.shape[1]
        flat = self._flat.get(width)
        if flat is None:
            flat = self._flat[width] = (self.rows[:, None] * width + np.arange(width)).ravel()
        products = np.take(x, self.cols, axis=0) * self.vals[:, None]
        return np.bincount(flat, products.ravel(), minlength=n_rows * width).reshape(n_rows, width)

    def toarray(self) -> np.ndarray:
        a = np.zeros(self.shape)
        a[self.rows, self.cols] = self.vals
        return a


def _normalized_weights(g: BipartiteGraph) -> tuple[_Sparse, np.ndarray, np.ndarray]:
    """D_u^-1/2 W D_h^-1/2 as a ``_Sparse`` matrix, with the two scaling vectors."""
    rows, cols, vals = _sparse(g.weights, g.users, g.hashtags)
    # the weights are integers, so the degrees are exact in any order
    su = 1.0 / np.sqrt(np.maximum(np.bincount(rows, vals, minlength=len(g.users)), 1e-12))
    sh = 1.0 / np.sqrt(np.maximum(np.bincount(cols, vals, minlength=len(g.hashtags)), 1e-12))
    return _Sparse(rows, cols, vals * su[rows] * sh[cols], (len(g.users), len(g.hashtags))), su, sh


def _truncated_svd(m: _Sparse, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading singular vectors, deterministically.

    ARPACK's svds is not reproducible on degenerate spectra, so matrices
    whose smaller side has at most 512 nodes go through dense LAPACK.
    Larger ones go through a seeded randomized range finder with subspace
    iteration (Halko, Martinsson & Tropp 2011): each step re-orthonormalizes
    both half products, and a Rayleigh-Ritz step extracts the top-k pairs.
    Iteration stops once the relative residual ||M V_k - U_k S_k||_F / s_1
    falls below _SVD_TOL; if _MAX_POWER_ITERS steps do not get there, a
    warning reports the residual reached and the last basis is returned.
    """
    if min(m.shape) <= 512:
        u, _, vt = np.linalg.svd(m.toarray(), full_matrices=False)
        return u[:, :k], vt[:k].T
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((m.shape[1], k + 16))
    q, _ = np.linalg.qr(m @ omega)
    for step in range(_MAX_POWER_ITERS + 1):
        # Q^T M = R^T P^T, so the small SVD of R^T gives the Ritz pairs
        p, r = np.linalg.qr(m.T @ q)
        ub, s, wt = np.linalg.svd(r.T)
        u, v = q @ ub[:, :k], p @ wt[:k].T
        # Rayleigh-Ritz makes M^T U - V S vanish by construction, so only
        # this side measures how far the subspace is from converged
        residual = np.linalg.norm(m @ v - u * s[:k]) / s[0]
        if residual <= _SVD_TOL:
            return u, v
        if step < _MAX_POWER_ITERS:
            q, _ = np.linalg.qr(m @ p)
    warnings.warn(
        f"randomized SVD not converged after {_MAX_POWER_ITERS} iterations: "
        f"residual {residual:.2e} > {_SVD_TOL:.0e}",
        stacklevel=3,
    )
    return u, v


def _sq_distances(centres: np.ndarray, points: np.ndarray, product: bool = False) -> np.ndarray:
    """Squared distance of every centre (rows) to every point (columns).

    Summed one dimension at a time, or with ``product`` as
    |x|^2 - 2 x.c + |c|^2 from one matrix product.
    """
    if not product:
        d2 = np.zeros((len(centres), len(points)))
        for j in range(points.shape[1]):
            diff = centres[:, j, None] - points[None, :, j]
            d2 += diff * diff
        return d2
    p2 = np.zeros(len(points))
    c2 = np.zeros(len(centres))
    for j in range(points.shape[1]):
        p2 += points[:, j] * points[:, j]
        c2 += centres[:, j] * centres[:, j]
    return ((-2 * (points @ centres.T) + p2[:, None]) + c2[None, :]).T


def _seeded_kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Labels of k-means++ seeding (Arthur & Vassilvitskii 2007) and 10 Lloyd steps.

    The draws, distances and updates are those of scipy's
    ``kmeans2(points, k, minit="++", seed=seed, missing="warn")``, so the
    labels are too: a legacy RandomState(seed) picks the first centre with
    randint and each later one with uniform() on the cumulated D^2.  A
    cluster left empty keeps its centre, with a warning.
    """
    if k == 1:
        return np.zeros(len(points), dtype=int)
    rng = np.random.RandomState(seed)
    centres = np.empty((k, points.shape[1]))
    centres[0] = points[rng.randint(0, len(points))]
    for i in range(1, k):
        d2 = _sq_distances(centres[:i], points).min(axis=0)
        cum = (d2 / d2.sum()).cumsum()
        centres[i] = points[int(np.searchsorted(cum, rng.uniform()))]
    product = points.shape[1] >= _PRODUCT_DISTANCE_DIMS
    for _ in range(_KMEANS_STEPS):
        labels = _sq_distances(centres, points, product).argmin(axis=0)
        counts = np.bincount(labels, minlength=k)
        if not counts.all():
            warnings.warn(_EMPTY_CLUSTER, stacklevel=3)
        for j in range(points.shape[1]):
            sums = np.bincount(labels, weights=points[:, j], minlength=k)
            centres[:, j] = np.where(counts > 0, sums / np.maximum(counts, 1), centres[:, j])
    return labels


@dataclass(frozen=True)
class FlowMatrix:
    """Entity-movement contingency table with a trailing "missing" column."""

    row_labels: tuple
    col_labels: tuple  # ends with "missing"
    counts: np.ndarray  # len(rows) x len(cols)
    ratios: np.ndarray


def _flow(
    labels_complete: Mapping,
    labels_sample: Mapping,
    row_order: Sequence,
    col_order: Sequence,
    greedy_diagonal: bool,
) -> FlowMatrix:
    extra = set(labels_sample) - set(labels_complete)
    if extra:
        raise ValueError(f"{len(extra)} sample entities missing from the complete labeling")
    counts = np.zeros((len(row_order), len(col_order) + 1), dtype=np.int64)
    rpos = {r: i for i, r in enumerate(row_order)}
    cpos = {c: j for j, c in enumerate(col_order)}
    for entity, ci in labels_complete.items():
        i = rpos[ci]
        sj = labels_sample.get(entity)
        counts[i, cpos[sj] if sj is not None else -1] += 1

    cols = list(col_order)
    if greedy_diagonal and cols:
        body = counts[:, :-1]
        assigned: list[Optional[int]] = [None] * len(row_order)
        free_rows = set(range(len(row_order)))
        free_cols = set(range(len(cols)))
        while free_rows and free_cols:
            best = max(
                ((body[i, j], -i, -j, i, j) for i in free_rows for j in free_cols)
            )
            _, _, _, i, j = best
            assigned[i] = j
            free_rows.discard(i)
            free_cols.discard(j)
        order = [j for j in assigned if j is not None]
        order += [j for j in range(len(cols)) if j not in order]
        counts = np.concatenate([body[:, order], counts[:, -1:]], axis=1)
        cols = [cols[j] for j in order]

    sums = np.maximum(counts.sum(axis=1, keepdims=True), 1)
    return FlowMatrix(tuple(row_order), tuple(cols) + (MISSING,), counts, counts / sums)


def cluster_flow(labels_complete: Mapping, labels_sample: Mapping) -> FlowMatrix:
    """k x (k+1) movement matrix between two cluster labelings.

    Rows are complete clusters; columns are sample clusters reordered
    greedily to maximize the diagonal, plus a final column counting
    entities absent from the sample labeling.
    """
    rows = sorted(set(labels_complete.values()))
    cols = sorted(set(labels_sample.values()) | set(rows))
    return _flow(labels_complete, labels_sample, rows, cols, greedy_diagonal=True)


def bowtie_flow(complete_assignment: Mapping, sample_assignment: Mapping) -> FlowMatrix:
    """6 x 7 movement matrix over bow-tie components in fixed order."""
    return _flow(
        complete_assignment,
        sample_assignment,
        BOWTIE_COMPONENTS,
        BOWTIE_COMPONENTS,
        greedy_diagonal=False,
    )


@dataclass(frozen=True)
class Digraph:
    """Weighted digraph over user ids."""

    edges: Mapping[tuple[int, int], int]
    nodes: frozenset
    skipped_unresolvable: int = 0

    def __post_init__(self):
        if any(w < 1 for w in self.edges.values()):
            raise ValueError("edge weights must be positive")
        missing = next((n for e in self.edges for n in e if n not in self.nodes), None)
        if missing is not None:
            raise ValueError(f"edge endpoint {missing!r} is not in nodes")

    @classmethod
    def from_edges(cls, weighted_edges: Mapping, extra_nodes: Iterable = ()) -> "Digraph":
        nodes = {n for e in weighted_edges for n in e} | set(extra_nodes)
        return cls(dict(weighted_edges), frozenset(nodes))


def build_retweet_network(events: Union[StreamBundle, EventView], include_quotes: bool = True) -> Digraph:
    """Digraph of retweeter -> retweeted author, weighted by retweet count.

    Events whose root cannot be resolved to an author within the stream are
    skipped and counted in ``skipped_unresolvable``.
    """
    ids, user, kind, root = events.table.id, events.table.user, events.table.type, events.table.root
    roots = kind == EVENT_TYPES.index("root")
    author_of = dict(zip(ids[roots].tolist(), user[roots].tolist()))
    sharing = kind == EVENT_TYPES.index("retweet")
    if include_quotes:
        sharing |= kind == EVENT_TYPES.index("quote")
    authors = list(map(author_of.get, root[sharing].tolist()))
    weights = Counter((u, a) for u, a in zip(user[sharing].tolist(), authors) if a is not None)
    nodes = {n for e in weights for n in e}
    return Digraph(dict(weights), frozenset(nodes), authors.count(None))


@dataclass(frozen=True)
class BowtieAssignment:
    """Total map node -> bow-tie component."""

    components: Mapping

    def __post_init__(self):
        bad = set(self.components.values()) - set(BOWTIE_COMPONENTS)
        if bad:
            raise ValueError(f"unknown components {bad}")

    def __getitem__(self, node):
        return self.components[node]

    def __len__(self):
        return len(self.components)

    def sizes(self) -> dict[str, int]:
        c = Counter(self.components.values())
        return {name: c.get(name, 0) for name in BOWTIE_COMPONENTS}


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR row pointer and column indices of the n x n pattern of (rows, cols)."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[np.argsort(rows, kind="stable")]


def _strong_components(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Strongly connected component label of each node (Tarjan 1972, without recursion)."""
    ptr, nbr = indptr.tolist(), indices.tolist()
    n = len(ptr) - 1
    order, low, label = [-1] * n, [0] * n, [-1] * n
    stack: list[int] = []
    visited = components = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [(root, ptr[root])]
        while work:
            v, i = work[-1]
            end = ptr[v + 1]
            while i < end:
                w = nbr[i]
                i += 1
                if order[w] < 0:
                    work[-1] = (v, i)
                    order[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    work.append((w, ptr[w]))
                    break
                if label[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]  # w is still on the stack
            else:
                work.pop()
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        label[w] = components
                        if w == v:
                            break
                    components += 1
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return np.array(label, dtype=np.int64)


def _reach(indptr: np.ndarray, indices: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mask of the nodes reachable along the CSR edges from any start (starts included)."""
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    seen[starts] = True
    frontier = np.asarray(starts, dtype=np.int64)
    while len(frontier):
        nxt = indices[csr_gather(indptr, frontier)[1]]
        frontier = np.unique(nxt[~seen[nxt]])
        seen[frontier] = True
    return seen


def bowtie_decompose(g: Digraph) -> BowtieAssignment:
    """Six-way bow-tie partition of a digraph.

    LSCC is the largest strongly connected component (ties resolved to the
    one containing the smallest node id).  IN reaches the LSCC, OUT is
    reached from it; of the remainder, nodes both reachable from IN and
    reaching OUT are Tubes, nodes with exactly one of those properties are
    Tendrils, and the rest are Disconnected.
    """
    if not g.nodes:
        return BowtieAssignment({})
    nodes = sorted(g.nodes)
    rows, cols, _ = _sparse(g.edges, nodes, nodes)
    fwd = _csr(rows, cols, len(nodes))
    rev = _csr(cols, rows, len(nodes))
    scc = _strong_components(*fwd)
    # nodes are sorted, so the first node in a largest SCC has the smallest id
    core = int(np.argmax(np.bincount(scc)[scc]))
    lscc = scc == scc[core]
    out = _reach(*fwd, [core]) & ~lscc
    in_ = _reach(*rev, [core]) & ~lscc
    from_in = _reach(*fwd, np.flatnonzero(in_))
    to_out = _reach(*rev, np.flatnonzero(out))
    code = np.select([lscc, in_, out, from_in & to_out, from_in | to_out], range(5), default=5)
    # BOWTIE_COMPONENTS lists LSCC, IN, OUT, Tubes, Tendrils, Disconnected in that order
    return BowtieAssignment({v: BOWTIE_COMPONENTS[c] for v, c in zip(nodes, code)})
