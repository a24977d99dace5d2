"""Exact distribution of an L-ensemble at enumeration scale.

The probability of observing subset J is det(L_J) / det(I+L).  With n
small enough to enumerate, the full table over all 2^n subsets supports
exact sampling (inverse CDF), inclusion probabilities by summation, and
the population quantities the likelihood geometry is built on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import minors, rngs
from .errors import EmptyBatch, NormalizationMismatch
from .kernels import Kernel, l_to_k

#: Relative keyEq residual beyond which table construction aborts.
BREAKDOWN_TOL = 1e-6


def _mask_csv(values: np.ndarray) -> str:
    """`mask,probability` CSV of a per-mask vector, in csv.writer's
    default dialect (CRLF line ends, floats as repr)."""
    values = np.asarray(values, dtype=float).tolist()
    return "mask,probability\r\n" + "".join(f"{m},{p!r}\r\n" for m, p in enumerate(values))


@dataclass
class DppTable:
    """Probability of every subset, indexed by bitmask.

    normalization_residual records how far the enumerated minors are
    from reproducing det(I+L); it is ~1e-12 for healthy input and the
    constructor refuses values above BREAKDOWN_TOL.
    """

    kernel: Kernel
    probs: np.ndarray
    normalizer: float
    log_normalizer: float
    log_dets: np.ndarray
    normalization_residual: float

    @property
    def n(self) -> int:
        return self.kernel.n

    def inclusion_from_sum(self, mask: int) -> float:
        """P[S subset of Z] as the sum of probabilities over supersets;
        ValueError unless the mask lies in [0, 2^n)."""
        return float(minors.superset_sums(self.probs)[minors.check_mask(mask, self.n)])

    def to_csv(self) -> str:
        return _mask_csv(self.probs)


def build_table(kernel: Kernel, cap: int = minors.MAX_ENUM_N) -> DppTable:
    """Enumerate all 2^n subset probabilities of the kernel.

    Log-determinants of the principal minors are normalized through a
    log-sum-exp, which both avoids underflow and checks the determinant
    identity sum_J det(L_J) = det(I+L) before any probability is formed.
    """
    minors.check_enum_budget(kernel.n, cap)
    log_dets = minors.principal_logdets(kernel.matrix)
    # logaddexp.reduce over ascending values keeps the reduction stable
    order = np.argsort(log_dets)
    lse = np.logaddexp.reduce(log_dets[order])
    log_z = float(np.linalg.slogdet(np.eye(kernel.n) + kernel.matrix)[1])
    residual = abs(np.expm1(lse - log_z))
    if residual > BREAKDOWN_TOL:
        raise NormalizationMismatch(
            f"sum of principal minors misses det(I+L) by relative {residual:.3e}")
    probs = np.exp(log_dets - lse)
    return DppTable(kernel=kernel, probs=probs, normalizer=float(np.exp(log_z)),
                    log_normalizer=log_z, log_dets=log_dets,
                    normalization_residual=float(residual))


def subset_probability(kernel: Kernel, mask: int) -> float:
    """det(L_J) / det(I+L) for a single subset."""
    idx = minors.subset_indices(minors.check_mask(mask, kernel.n))
    a = kernel.matrix
    if idx.size:
        sign, logdet = np.linalg.slogdet(a[np.ix_(idx, idx)])
    else:
        sign, logdet = 1.0, 0.0
    log_z = np.linalg.slogdet(np.eye(kernel.n) + a)[1]
    return float(sign * np.exp(logdet - log_z))


def inclusion_probability(kernel_or_table, mask: int) -> float:
    """P[S subset of Z] = det(K_S) with K the correlation kernel.

    The equivalent summation over supersets of S is available as
    DppTable.inclusion_from_sum for cross-checking.
    """
    kernel = kernel_or_table.kernel if isinstance(kernel_or_table, DppTable) else kernel_or_table
    idx = minors.subset_indices(minors.check_mask(mask, kernel.n))
    if idx.size == 0:
        return 1.0
    k = l_to_k(kernel).matrix
    return float(np.linalg.det(k[np.ix_(idx, idx)]))


def empty_probability(kernel: Kernel) -> float:
    """P[Z = empty] = 1/det(I+L), equivalently det(I-K)."""
    log_z = np.linalg.slogdet(np.eye(kernel.n) + kernel.matrix)[1]
    return float(np.exp(-log_z))


@dataclass
class SampleBatch:
    """Draws from the table; counts[J] is the number of draws equal to J."""

    n: int
    seed: object
    draws: np.ndarray
    counts: np.ndarray

    @property
    def size(self) -> int:
        return int(self.draws.size)

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "seed": self.seed if isinstance(self.seed, int) else list(self.seed),
            "count": self.size,
            "draws": self.draws.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "SampleBatch":
        """ValueError unless n is an integer >= 1 and every draw an
        integer mask in [0, 2^n); GroundSetTooLarge past the cap."""
        obj = json.loads(text)
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        minors.check_enum_budget(n)
        draws = np.asarray(obj["draws"])
        if draws.ndim != 1 or draws.size and (draws.dtype.kind not in "iu" or draws.min() < 0
                                              or draws.max() >= 2 ** n):
            raise ValueError(f"draws must be a list of integer masks in [0, 2^{n})")
        draws = draws.astype(np.int64)
        if draws.size != int(obj["count"]):
            raise ValueError("draw count does not match the count field")
        seed = obj["seed"]
        seed = int(seed) if isinstance(seed, int) else tuple(int(s) for s in seed)
        counts = np.bincount(draws, minlength=2 ** n)
        return cls(n=n, seed=seed, draws=draws, counts=counts)


def sample(table: DppTable, count: int, seed: int, stream_path: tuple = ()) -> SampleBatch:
    """Draw i.i.d. subsets by inverse CDF against the cumulative table.

    Uses the counter-based Philox stream (seed, stream_path), so the
    same arguments always reproduce the batch bit-exactly and parallel
    callers with distinct paths cannot interfere.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    cdf = np.cumsum(table.probs)
    cdf[-1] = 1.0
    gen = rngs.stream(seed, rngs.SAMPLE_STREAM, *stream_path)
    u = gen.random(count)
    draws = np.searchsorted(cdf, u, side="right").astype(np.int64)
    counts = np.bincount(draws, minlength=table.probs.size)
    stored_seed = seed if not stream_path else (seed, *stream_path)
    return SampleBatch(n=table.n, seed=stored_seed, draws=draws, counts=counts)


@dataclass
class EmpiricalTable:
    """Observed subset frequencies; every entry is a multiple of 1/total."""

    n: int
    freqs: np.ndarray
    total: int

    def to_csv(self) -> str:
        return _mask_csv(self.freqs)

    @classmethod
    def from_probabilities(cls, n: int, probs: np.ndarray, total: int = 0) -> "EmpiricalTable":
        """Wrap an exact probability vector as frequencies (population input)."""
        p = np.asarray(probs, dtype=float)
        if p.shape != (2 ** n,):
            raise ValueError(f"expected {2 ** n} probabilities for n={n}")
        return cls(n=n, freqs=p, total=total)


def empirical_table(batch: SampleBatch) -> EmpiricalTable:
    if batch.size == 0:
        raise EmptyBatch("cannot build frequencies from an empty batch")
    return EmpiricalTable(n=batch.n, freqs=batch.counts / batch.size, total=batch.size)


def total_variation(freqs: np.ndarray, probs: np.ndarray) -> float:
    """TV distance 0.5 * sum |p - q| between two distributions on masks."""
    return 0.5 * float(np.abs(np.asarray(freqs) - np.asarray(probs)).sum())
