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

import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np
# scipy is imported inside the functions that call it: importing streamfid,
# and every CLI command that never calls scipy, then skips its ~1 s load

from .model import Event, FrequencyVector

DEFAULT_K_MAX = 100

ENTITY_KEYS = ("user", "hashtag", "url")

# iteration cap of the NNLS solver in estimate_complete_frequency_vector
NNLS_MAX_ITER = 10_000


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
        if np.any(p < 0):
            raise ValueError("negative probability mass")
        if abs(p.sum() - 1.0) > 1e-9:
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


def binomial_sample_model(n_c: int, rate: float) -> DiscreteDistribution:
    """Distribution of the sample frequency of an entity seen n_c times."""
    from scipy.stats import binom

    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0,1]")
    ns = np.arange(0, n_c + 1)
    return DiscreteDistribution(ns, _normalize(binom.pmf(ns, n_c, rate)))


def negbinom_complete_model(n_s: int, rate: float, k_max: int = DEFAULT_K_MAX) -> DiscreteDistribution:
    """Distribution of the complete frequency of an entity seen n_s times.

    The support is truncated at ``k_max`` and renormalized; the discarded
    tail mass is reported in ``metadata["truncation_mass"]`` along with the
    closed-form untruncated mean n_s / rate.
    """
    from scipy.stats import nbinom

    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0,1]")
    if k_max < n_s:
        raise ValueError("k_max must be >= n_s")
    nc = np.arange(n_s, k_max + 1)
    pmf = nbinom.pmf(nc - n_s, n_s, rate)
    tail = float(nbinom.sf(k_max - n_s, n_s, rate))
    meta = {"truncation_mass": tail, "untruncated_mean": n_s / rate}
    if tail > 0.01:
        meta["warning"] = f"truncation mass {tail:.4f} exceeds 0.01; increase k_max"
    return DiscreteDistribution(nc, _normalize(pmf), meta)


def binomial_mixture_model(f_complete: FrequencyVector, rate: float) -> DiscreteDistribution:
    """Sample-frequency distribution implied by a complete frequency vector.

    Mixture over entities: sum_k F[k]/N * Binomial(k, rate), supported on
    0..max(k).  This is the model curve an observed sample-frequency
    distribution is compared against.
    """
    from scipy.stats import binom

    if not f_complete.counts:
        raise ValueError("empty frequency vector")
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0,1]")
    kmax = f_complete.max_frequency
    ns = np.arange(0, kmax + 1)
    mix = np.zeros(kmax + 1)
    for k, count in f_complete.counts.items():
        mix[: k + 1] += count * binom.pmf(ns[: k + 1], k, rate)
    return DiscreteDistribution(ns, _normalize(mix))


def _normalize(p: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    return p / p.sum()


def binomial_kernel(k_max: int, rate: float) -> np.ndarray:
    """Matrix A with A[i-1, j-1] = P(sample freq = i | complete freq = j)."""
    from scipy.stats import binom

    i = np.arange(1, k_max + 1)
    return binom.pmf(i[:, None], i[None, :], rate)


@dataclass(frozen=True)
class InversionResult:
    f_hat: FrequencyVector
    residual: float
    truncation_mass: float
    clamped_entities: float

    def as_array(self, k_max: int) -> np.ndarray:
        return np.array([self.f_hat[k] for k in range(1, k_max + 1)])


def estimate_complete_frequency_vector(
    f_sample: FrequencyVector,
    rate: float,
    k_max: int = DEFAULT_K_MAX,
) -> InversionResult:
    """Invert the binomial kernel on an observed frequency vector.

    Solves ``min ||A f_hat - f_sample||`` subject to f_hat >= 0 and f_hat
    non-increasing.  The constraint set is exactly {T u : u >= 0} for the
    upper-triangular ones matrix T (u holds the non-negative bin-to-bin
    decrements), so the problem is a plain non-negative least squares in u
    and is solved by an active-set NNLS method; first-order projected
    gradient stalls here because the kernel's conditioning degrades like
    rate**-k_max.
    """
    from scipy.optimize import nnls as scipy_nnls
    from scipy.stats import nbinom

    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0,1]")
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
    try:
        u, residual = scipy_nnls(A @ T, b, maxiter=NNLS_MAX_ITER)
    except RuntimeError as exc:
        raise SolverError(f"inversion failed after {NNLS_MAX_ITER} iterations: {exc}") from exc
    x = T @ u

    f_hat = FrequencyVector({k: float(v) for k, v in zip(range(1, k_max + 1), x) if v > 0})
    # chance the most frequent observed entity truly sits beyond k_max
    ns_max = min(f_sample.max_frequency, k_max) if f_sample.counts else 0
    tail = float(nbinom.sf(k_max - ns_max, ns_max, rate)) if ns_max else 0.0
    return InversionResult(f_hat, float(residual), tail, float(clamped))


def estimate_missing_entities(f_hat: FrequencyVector, rate: float) -> float:
    """Expected number of entities missed entirely: sum_k (1-rate)^k F_hat[k]."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0,1]")
    return sum((1.0 - rate) ** k * v for k, v in f_hat.counts.items())


def entity_occurrences(events: Iterable[Event], key: str) -> Counter:
    """Occurrence count per entity; hashtags/urls are deduped within an event."""
    if key not in ENTITY_KEYS:
        raise ValueError(f"key must be one of {ENTITY_KEYS}")
    counts: Counter = Counter()
    if key == "user":
        for ev in events:
            counts[ev.user_id] += 1
    elif key == "hashtag":
        for ev in events:
            for h in set(ev.hashtags):
                counts[h] += 1
    else:
        for ev in events:
            for u in set(ev.urls):
                counts[u] += 1
    return counts


def frequency_vector_of(events: Iterable[Event], key: str) -> FrequencyVector:
    """Histogram of per-entity occurrence counts for one entity kind."""
    return FrequencyVector.from_occurrences(entity_occurrences(events, key).values())
