"""Entity inference under Bernoulli thinning.

When every event survives sampling independently with rate p, an entity
seen k times in the complete stream is seen Binomial(k, p) times in the
sample, and an entity seen k times in the sample was present
NegativeBinomial(k, p) times in the complete stream.  Inverting the
binomial kernel on the observed frequency vector recovers the complete
frequency vector, from which the number of entirely missed entities
follows.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

from .model import EventView, FrequencyVector, StreamBundle, distinct_per_event

DEFAULT_K_MAX = 100
K_MAX_CEILING = 1000   # the kernel and the solver hold k_max**2 floats

ENTITY_KEYS = ("user", "hashtag", "url")

# iteration cap of the NNLS solver in estimate_complete_frequency_vector
NNLS_MAX_ITER = 10_000

# a column joins the passive set only if its new diagonal element adds this
# fraction of its above-diagonal norm in floating point (Lawson & Hanson's FACTOR)
_NNLS_INDEPENDENCE = 0.01


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class DiscreteDistribution:
    """A probability mass function on sorted integer support."""

    support: np.ndarray
    probabilities: np.ndarray
    metadata: Mapping = field(default_factory=dict)

    def __post_init__(self):
        s = np.asarray(self.support, dtype=np.int64)
        p = np.asarray(self.probabilities, dtype=float)
        if s.shape != p.shape or s.ndim != 1:
            raise ValueError("support and probabilities must be 1-d and same length")
        if np.any(np.diff(s) <= 0):
            raise ValueError("support must be strictly increasing")
        if not np.all(p >= 0):
            raise ValueError("negative or NaN probability mass")
        if not abs(p.sum() - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()}, expected 1")
        s.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "probabilities", p)

    def mean(self) -> float:
        return float(self.support @ self.probabilities)

    def cdf_at(self, xs: np.ndarray) -> np.ndarray:
        cum = np.cumsum(self.probabilities)
        idx = np.searchsorted(self.support, xs, side="right")
        return np.where(idx > 0, cum[np.minimum(idx, len(cum)) - 1], 0.0)

    @classmethod
    def from_weights(cls, support, weights, metadata=None) -> "DiscreteDistribution":
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must have positive total mass")
        return cls(np.asarray(support), w / total, metadata or {})


def ks_d_statistic(g: DiscreteDistribution, h: DiscreteDistribution) -> float:
    """Maximum absolute CDF difference over the union support."""
    xs = np.union1d(g.support, h.support)
    return float(np.max(np.abs(g.cdf_at(xs) - h.cdf_at(xs))))


def _binomial_pmf(n, i, rate: float) -> np.ndarray:
    """P(Binomial(n, rate) = i), elementwise over broadcast integer arrays; 0 where i > n.

    Computed in log space from one log-factorial table, so a row of n + 1
    values costs O(n) time and memory.
    """
    n, i = np.broadcast_arrays(n, i)
    if rate == 1.0:
        return (i == n).astype(float)
    inside = i <= n
    i = np.minimum(i, n)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, np.max(n, initial=0) + 1)))))
    log_pmf = log_fact[n] - log_fact[i] - log_fact[n - i] + i * np.log(rate) + (n - i) * np.log1p(-rate)
    return np.where(inside, np.exp(log_pmf), 0.0)


def _truncation_mass(n_s: int, rate: float, k_max: int) -> float:
    """P(complete > k_max | sample = n_s): fewer than n_s of the first k_max events were sampled."""
    return min(float(_binomial_pmf(k_max, np.arange(n_s), rate).sum()), 1.0)


def binomial_sample_model(n_c: int, rate: float) -> DiscreteDistribution:
    """Distribution of the sample frequency of an entity seen n_c times."""
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    return binomial_mixture_model(FrequencyVector({n_c: 1}), rate)


def negbinom_complete_model(n_s: int, rate: float, k_max: int = DEFAULT_K_MAX) -> DiscreteDistribution:
    """Distribution of the complete frequency of an entity seen n_s times.

    P(complete = k | sample = n_s) = (n_s / k) * P(Binomial(k, rate) = n_s).
    The support is truncated at ``k_max`` and renormalized; the discarded
    tail mass is reported in ``metadata["truncation_mass"]`` along with the
    closed-form untruncated mean n_s / rate.
    """
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0,1]")
    if k_max < n_s:
        raise ValueError("k_max must be >= n_s")
    nc = np.arange(n_s, k_max + 1)
    tail = _truncation_mass(n_s, rate, k_max)
    meta = {"truncation_mass": tail, "untruncated_mean": n_s / rate}
    if tail > 0.01:
        meta["warning"] = f"truncation mass {tail:.4f} exceeds 0.01; increase k_max"
    return DiscreteDistribution.from_weights(nc, n_s / nc * _binomial_pmf(nc, n_s, rate), meta)


def binomial_mixture_model(f_complete: FrequencyVector, rate: float) -> DiscreteDistribution:
    """Sample-frequency distribution implied by a complete frequency vector.

    Mixture over entities: sum_k F[k]/N * Binomial(k, rate), supported on
    0..max(k).  This is the model curve an observed sample-frequency
    distribution is compared against.
    """
    if not f_complete.counts:
        raise ValueError("empty frequency vector")
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0,1]")
    kmax = f_complete.max_frequency
    ns = np.arange(0, kmax + 1)
    mix = np.zeros(kmax + 1)
    for k, count in f_complete.counts.items():
        mix[: k + 1] += count * _binomial_pmf(k, ns[: k + 1], rate)
    return DiscreteDistribution.from_weights(ns, mix)


def binomial_kernel(k_max: int, rate: float) -> np.ndarray:
    """Matrix A with A[i-1, j-1] = P(sample freq = i | complete freq = j)."""
    i = np.arange(1, k_max + 1)
    return _binomial_pmf(i[None, :], i[:, None], rate)


@dataclass(frozen=True)
class InversionResult:
    f_hat: FrequencyVector
    residual: float
    truncation_mass: float
    clamped_entities: float

    def as_array(self, k_max: int) -> np.ndarray:
        return np.array([self.f_hat[k] for k in range(1, k_max + 1)])


def _householder(u: np.ndarray, p: int) -> Optional[float]:
    """Build the Householder reflection that zeros u[p+1:] into u[p] (H12, mode 1).

    Overwrites u[p] with the new diagonal element and returns the pivot
    component of the reflection vector; None, leaving u as it is, when p is
    the last row or u[p:] is zero.
    """
    if p + 1 >= len(u):
        return None
    cl = float(np.max(np.abs(u[p:])))
    if cl <= 0:
        return None
    v = u[p:] * (1.0 / cl)
    cl *= math.sqrt(v @ v)
    if u[p] > 0:
        cl = -cl
    up = float(u[p]) - cl
    u[p] = cl
    return up


def _reflect(u: np.ndarray, up: Optional[float], p: int, c: np.ndarray) -> None:
    """Apply the reflection of _householder(u, p) to c's rows, in place (H12, mode 2)."""
    if up is None:
        return
    b = up * float(u[p])
    if b >= 0:
        return
    sm = (c[p] * up + u[p + 1:] @ c[p + 1:]) * (1.0 / b)
    c[p] += sm * up
    c[p + 1:] += np.multiply.outer(u[p + 1:], sm)


def _givens(a: float, b: float) -> tuple[float, float, float]:
    """Rotation (c, s) with [c s; -s c] @ [a, b] = [sig, 0] (G1)."""
    if abs(a) > abs(b):
        xr = b / a
        yr = math.sqrt(1.0 + xr * xr)
        c = math.copysign(1.0 / yr, a)
        return c, c * xr, abs(a) * yr
    if b != 0:
        xr = a / b
        yr = math.sqrt(1.0 + xr * xr)
        s = math.copysign(1.0 / yr, b)
        return s * xr, s, abs(b) * yr
    return 0.0, 1.0, 0.0


def _nnls(a: np.ndarray, b: np.ndarray, max_iter: int) -> tuple[np.ndarray, float]:
    """min ||a x - b|| subject to x >= 0, by Lawson & Hanson's NNLS.

    Lawson & Hanson, "Solving Least Squares Problems" (1974), ch. 23.  The
    passive set P grows by the column with the largest dual value while that
    value is positive.  A column joins only if it is numerically independent
    of P and its trial value is positive; its Householder reflection keeps
    Q^T a upper triangular on P.  When a P value would turn non-positive,
    the step is cut at the boundary, the columns that reach it leave P, and
    Givens rotations restore the triangle.  Returns x and ||a x - b||;
    raises SolverError after ``max_iter`` inner iterations.
    """
    m, n = a.shape
    # Q^T [a | b], updated in place.  Columns are kept in working order: P is
    # ab[:, :nsetp] in triangle order, Z is ab[:, nsetp:n], and perm maps a
    # working column to its column of a.
    ab = np.column_stack((a, b)).astype(float)
    rhs = ab[:, n]
    x = np.zeros(n)
    perm = np.arange(n)
    nsetp = 0
    iterations = 0
    while nsetp < n and nsetp < m:
        w = rhs[nsetp:] @ ab[nsetp:, nsetp:n]  # dual values of Z
        while True:
            iz = int(np.argmax(w))
            if w[iz] <= 0:
                break
            col = ab[:, nsetp + iz]
            saved = col[nsetp]
            up = _householder(col, nsetp)
            unorm = math.sqrt(col[:nsetp] @ col[:nsetp])
            if (unorm + abs(col[nsetp]) * _NNLS_INDEPENDENCE) - unorm > 0:
                zz = rhs.copy()
                _reflect(col, up, nsetp, zz)
                if zz[nsetp] / col[nsetp] > 0:
                    break
            col[nsetp] = saved
            w[iz] = 0.0
        if w[iz] <= 0:
            break
        # the column joins P: swap it to the front of Z, reflect the rest of Z
        j = nsetp + iz
        ab[:, [nsetp, j]] = ab[:, [j, nsetp]]
        perm[[nsetp, j]] = perm[[j, nsetp]]
        nsetp += 1
        _reflect(ab[:, nsetp - 1], up, nsetp - 1, ab[:, nsetp:n])
        ab[nsetp:, nsetp - 1] = 0.0
        rhs[:] = zz
        zz = np.linalg.solve(ab[:nsetp, :nsetp], rhs[:nsetp])
        while True:
            iterations += 1
            if iterations > max_iter:
                raise SolverError(f"inversion failed after {max_iter} iterations")
            xp = x[perm[:nsetp]]
            t = np.full(nsetp, 2.0)
            bad = zz <= 0
            with np.errstate(invalid="ignore"):
                t[bad] = -xp[bad] / (zz[bad] - xp[bad])
            t[np.isnan(t)] = 2.0
            jj = int(np.argmin(t))
            if t[jj] >= 2.0:
                break
            # step to the boundary, then move every P value it zeros to Z
            x[perm[:nsetp]] = xp + t[jj] * (zz - xp)
            while True:
                x[perm[jj]] = 0.0
                # column jj goes to the front of Z, the later P columns move up
                order = np.r_[jj + 1:nsetp, jj]
                ab[:, jj:nsetp] = ab[:, order]
                perm[jj:nsetp] = perm[order]
                for k in range(jj + 1, nsetp):
                    c, s, sig = _givens(ab[k - 1, k - 1], ab[k, k - 1])
                    rows = ab[k - 1:k + 1, k:]
                    rows[...] = np.array(((c, s), (-s, c))) @ rows
                    ab[k - 1, k - 1], ab[k, k - 1] = sig, 0.0
                nsetp -= 1
                # round-off can leave other P values non-positive: they leave too
                nonpos = np.flatnonzero(x[perm[:nsetp]] <= 0)
                if not len(nonpos):
                    break
                jj = int(nonpos[0])
            zz = np.linalg.solve(ab[:nsetp, :nsetp], rhs[:nsetp])
        x[perm[:nsetp]] = zz
    return x, math.sqrt(rhs[nsetp:] @ rhs[nsetp:])


def estimate_complete_frequency_vector(
    f_sample: FrequencyVector,
    rate: float,
    k_max: int = DEFAULT_K_MAX,
) -> InversionResult:
    """Invert the binomial kernel on an observed frequency vector.

    Solves ``min ||A f_hat - f_sample||`` subject to f_hat >= 0 and f_hat
    non-increasing.  The constraint set is exactly {T u : u >= 0} for the
    upper-triangular ones matrix T (u holds the non-negative bin-to-bin
    decrements), so the problem is a plain non-negative least squares in u,
    solved by the active-set NNLS of Lawson & Hanson ("Solving Least Squares
    Problems", 1974, ch. 23); first-order projected gradient stalls here
    because the kernel's conditioning degrades like rate**-k_max.  Raises
    SolverError when NNLS needs more than NNLS_MAX_ITER inner iterations.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0,1]")
    if not 1 <= k_max <= K_MAX_CEILING:
        raise ValueError(f"k_max must be in [1, {K_MAX_CEILING}]")
    over = {k: v for k, v in f_sample.counts.items() if k > k_max}
    clamped = sum(over.values())
    if over:
        warnings.warn(
            f"{len(over)} frequency bins above k_max={k_max} clamped into the last bin",
            stacklevel=2,
        )
    b = np.zeros(k_max)
    for k, v in f_sample.counts.items():
        b[min(k, k_max) - 1] += v

    A = binomial_kernel(k_max, rate)
    T = np.triu(np.ones((k_max, k_max)))
    u, residual = _nnls(A @ T, b, NNLS_MAX_ITER)
    x = T @ u

    f_hat = FrequencyVector({k: float(v) for k, v in zip(range(1, k_max + 1), x) if v > 0})
    # chance the most frequent observed entity truly sits beyond k_max
    tail = _truncation_mass(min(f_sample.max_frequency, k_max), rate, k_max)
    return InversionResult(f_hat, float(residual), tail, float(clamped))


def estimate_missing_entities(f_hat: FrequencyVector, rate: float) -> float:
    """Expected number of entities missed entirely: sum_k (1-rate)^k F_hat[k]."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0,1]")
    return sum((1.0 - rate) ** k * v for k, v in f_hat.counts.items())


def entity_occurrences(events: Union[StreamBundle, EventView], key: str) -> Counter:
    """Occurrence count per entity of a bundle or its ``events``; hashtags/urls
    are deduped within an event."""
    if key not in ENTITY_KEYS:
        raise ValueError(f"key must be one of {ENTITY_KEYS}")
    t = events.table
    if key == "user":
        entities, counts = np.unique(t.user, return_counts=True)
        entities = entities.tolist()
    else:
        bounds, codes, entities = (getattr(t, f"{key}_{part}") for part in ("bounds", "codes", "table"))
        counts = np.bincount(distinct_per_event(bounds, codes, len(entities))[1], minlength=len(entities))
    return Counter({e: n for e, n in zip(entities, counts.tolist()) if n})


def frequency_vector_of(events: Union[StreamBundle, EventView], key: str) -> FrequencyVector:
    """Histogram of per-entity occurrence counts for one entity kind."""
    return FrequencyVector.from_occurrences(entity_occurrences(events, key).values())
