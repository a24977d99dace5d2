"""Exact distribution of an L-ensemble at enumeration scale.

The probability of observing subset J is det(L_J) / det(I+L).  With n
small enough to enumerate, the full table over all 2^n subsets supports
exact sampling (inverse CDF), inclusion probabilities by summation, and
the population quantities the likelihood geometry is built on.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import minors, rngs
from .errors import EmptyBatch, NormalizationMismatch
from .kernels import Kernel, l_to_k

#: Relative keyEq residual beyond which table construction aborts.
BREAKDOWN_TOL = 1e-6

#: Table size from which `sample` searches the uniforms in sorted order.
#: Against 1e3-1e6 uniforms (one core, numpy 2.4) the plain search is
#: faster up to 2^4-2^7 masks and the sorted one from 2^8-2^9 on (0.5-0.8x
#: the time at 2^9, 0.2-0.6x at 2^18-2^20); 8-mask tables stay plain.
_SORTED_SEARCH_MIN_TABLE = 2 ** 9

#: Draws or masks that `sample` and the samples and table files take at
#: once, so all they hold beyond the draws is O(block).
_BLOCK = 2 ** 16


def _emit(blocks, file=None):
    """The text blocks joined, or written one at a time to the text file."""
    return "".join(blocks) if file is None else file.writelines(blocks)


def _mask_csv(values: np.ndarray, file=None):
    """`mask,probability` CSV of a per-mask vector, in csv.writer's
    default dialect (CRLF line ends, floats as repr: the shortest round
    trip), built _BLOCK rows at a time and returned or written to `file`."""
    values = np.asarray(values, dtype=float)
    return _emit(chain(["mask,probability\r\n"], (
        "".join(f"{m},{p!r}\r\n" for m, p in enumerate(values[s:s + _BLOCK].tolist(), s))
        for s in range(0, values.size, _BLOCK))), file)


def csv_text(header, rows) -> str:
    """The header and rows as CSV text in csv.writer's default dialect,
    each value as given (floats written by the caller, as repr)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _decimal_list(values: np.ndarray) -> str:
    """`", ".join(map(str, values))` for integers in [0, 2^32): the digits
    by repeated // 10, the leading zeros masked out."""
    rest = values.astype(np.uint32)
    width = len(str(int(rest.max())))
    cols = np.empty((rest.size, width + 2), dtype=np.uint8)
    cols[:, width], cols[:, width + 1] = ord(","), ord(" ")
    keep = np.ones(cols.shape, dtype=bool)
    for j in range(width - 1, -1, -1):
        high = rest // 10
        cols[:, j] = rest - high * 10 + ord("0")
        if j:
            keep[:, j - 1] = high > 0
        rest = high
    return cols[keep].tobytes()[:-2].decode("ascii")


def _is_decimal_list(text: str) -> bool:
    """True when the text is what `_decimal_list` writes, with no number
    past 7 digits (10^7 > 2^20)."""
    b = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    digit = b - ord("0") < 10
    comma = b == ord(",")
    lead = (b[:-1] == ord("0")) & digit[1:]       # a zero that starts a longer number
    lead[1:] &= b[:-2] == ord(" ")
    long = np.ones(max(b.size - 7, 0), dtype=bool)   # eight digits in a row
    for shift in range(8):
        long &= digit[shift:shift + long.size]
    return bool(b.size and digit[0] and digit[-1] and np.array_equal(comma[:-1], b[1:] == ord(" "))
                and np.count_nonzero(digit) + 2 * np.count_nonzero(comma) == b.size
                and not (comma[:-2] & ~digit[2:]).any() and not lead.any() and not long.any())


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

    def to_csv(self, file=None):
        return _mask_csv(self.probs, file)


def normalized(log_dets: np.ndarray, matrix: np.ndarray):
    """(probabilities det(L_J) / det(I+L), log det(I+L), residual) from
    all 2^n principal log-minors of L, through a log-sum-exp that avoids
    underflow and checks sum_J det(L_J) = det(I+L) before any probability
    is formed: NormalizationMismatch past BREAKDOWN_TOL."""
    # logaddexp.reduce over ascending values keeps the reduction stable
    order = np.argsort(log_dets)
    lse = np.logaddexp.reduce(log_dets[order])
    log_z = float(np.linalg.slogdet(np.eye(len(matrix)) + matrix)[1])
    residual = abs(np.expm1(lse - log_z))
    if not residual <= BREAKDOWN_TOL:       # NaN too
        raise NormalizationMismatch(
            f"sum of principal minors misses det(I+L) by relative {residual:.3e}")
    return np.exp(log_dets - lse), log_z, float(residual)


def build_table(kernel: Kernel) -> DppTable:
    """Enumerate all 2^n subset probabilities of the kernel;
    GroundSetTooLarge past minors.MAX_ENUM_N."""
    log_dets = minors.principal_logdets(kernel.matrix)
    probs, log_z, residual = normalized(log_dets, kernel.matrix)
    return DppTable(kernel=kernel, probs=probs, normalizer=float(np.exp(log_z)),
                    log_normalizer=log_z, log_dets=log_dets,
                    normalization_residual=residual)


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

    def to_json(self, file=None):
        """json.dumps of {n, seed, count, draws}, returned or written to the
        text file `file`, the draws formatted by numpy _BLOCK at a time;
        ValueError unless every draw is a mask in [0, 2^n)."""
        if self.size and not (self.draws.min() >= 0 and self.draws.max() < 2 ** self.n):
            raise ValueError(f"draws must be masks in [0, 2^{self.n})")
        seed = self.seed if isinstance(self.seed, int) else list(self.seed)
        head = json.dumps({"n": self.n, "seed": seed, "count": self.size, "draws": []})
        blocks = ((", " if s else "") + _decimal_list(self.draws[s:s + _BLOCK])
                  for s in range(0, self.size, _BLOCK))
        return _emit(chain([head[:-2]], blocks, ["]}"]), file)      # head through "draws": [

    @classmethod
    def from_json(cls, text: str) -> "SampleBatch":
        """ValueError unless n is an integer >= 1, seed an integer >= 0 or a
        nonempty list of them, count the number of draws and every draw an
        integer mask in [0, 2^n); GroundSetTooLarge past the cap.  Text laid
        out as `to_json` writes it is parsed by numpy; any other JSON goes
        through json.loads, to the same batch or the same error."""
        parsed = _canonical_fields(text)
        if parsed is None:
            obj = json.loads(text)
            if type(obj["draws"]) is not list or any(type(d) is not int for d in obj["draws"]):
                raise ValueError("draws must be a list of integer masks")
            parsed = obj, np.array(obj["draws"], dtype=np.int64)
        fields, draws = parsed
        n = fields["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        minors.check_enum_budget(n)
        if draws.size and (draws.min() < 0 or draws.max() >= 2 ** n):
            raise ValueError(f"draws must be a list of integer masks in [0, 2^{n})")
        if type(fields["count"]) is not int or fields["count"] != draws.size:
            raise ValueError(f"count must be the number of draws, {draws.size}")
        seed = fields["seed"]
        parts = seed if type(seed) is list and seed else [seed]
        if not all(type(s) is int and s >= 0 for s in parts):
            raise ValueError(f"seed must be an integer >= 0 or a nonempty list, got {seed!r}")
        seed = tuple(seed) if type(seed) is list else seed
        return cls(n=n, seed=seed, draws=draws, counts=np.bincount(draws, minlength=2 ** n))


def _canonical_fields(text: str):
    """(fields, draws) of text laid out as `SampleBatch.to_json` writes it,
    the head through json.loads and the draws checked and parsed by numpy
    ~_BLOCK at a time; None for any other text."""
    start, stop = text.find(', "draws": ['), len(text) - 2
    try:
        fields = json.loads(text[:start] + "}") if start > 0 and text.endswith("]}") else None
    except ValueError:
        return None
    pos = start + len(', "draws": [')
    count = fields.get("count") if type(fields) is dict else None
    if type(count) is not int or not 0 <= count <= (stop - pos + 2) // 3:
        return None
    draws, done = np.empty(count, dtype=np.int64), 0
    while pos < stop:
        end = text.find(", ", pos + 8 * _BLOCK, stop)
        block = text[pos:stop if end < 0 else end]
        size = block.count(",") + 1
        if done + size > count or not _is_decimal_list(block):
            return None
        draws[done:done + size] = np.fromstring(block, dtype=np.int64, sep=",")
        done, pos = done + size, pos + len(block) + 2
    return (fields, draws) if done == count else None


def sample(table: DppTable, count: int, seed: int, stream_path: tuple = ()) -> SampleBatch:
    """Draw i.i.d. subsets by inverse CDF against the cumulative table.

    Uses the counter-based Philox stream (seed, stream_path), so the
    same arguments always reproduce the batch bit-exactly and parallel
    callers with distinct paths cannot interfere.  Each draw is
    searchsorted(cdf, u, side="right") of its own uniform u, _BLOCK at a
    time, so only the draws grow with `count`.  From
    _SORTED_SEARCH_MIN_TABLE masks on, a block's uniforms are searched in
    ascending order, each search starting from the previous one's bound
    among table entries still in cache, and the results are scattered
    back to their draws: the same draws, without a cache miss per step.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    cdf = np.cumsum(table.probs)
    cdf[-1] = 1.0
    gen = rngs.stream(seed, rngs.SAMPLE_STREAM, *stream_path)
    draws = np.empty(count, dtype=np.int64)
    for start in range(0, count, _BLOCK):
        u = gen.random(min(_BLOCK, count - start))
        block = draws[start:start + u.size]
        if cdf.size < _SORTED_SEARCH_MIN_TABLE:
            block[:] = np.searchsorted(cdf, u, side="right")
        else:
            order = np.argsort(u)
            block[order] = np.searchsorted(cdf, u[order], side="right")
    counts = np.bincount(draws, minlength=table.probs.size)
    stored_seed = seed if not stream_path else (seed, *stream_path)
    return SampleBatch(n=table.n, seed=stored_seed, draws=draws, counts=counts)


@dataclass
class EmpiricalTable:
    """Observed subset frequencies; every entry is a multiple of 1/total."""

    n: int
    freqs: np.ndarray
    total: int

    def __post_init__(self):
        f = self.freqs = np.asarray(self.freqs, dtype=float)
        if (f.shape != (2 ** self.n,) or not np.all((f >= 0) & (f < np.inf))
                or not abs(f.sum() - 1.0) <= 1e-9):
            raise ValueError(f"frequencies for n={self.n} must be 2^n finite nonnegative "
                             f"values summing to 1 within 1e-9, got shape {f.shape}, "
                             f"sum {f.sum()!r}")

    def to_csv(self) -> str:
        return _mask_csv(self.freqs)

    @classmethod
    def from_probabilities(cls, n: int, probs: np.ndarray, total: int = 0) -> "EmpiricalTable":
        """Wrap an exact probability vector as frequencies (population input)."""
        return cls(n=n, freqs=probs, total=total)


def empirical_table(batch: SampleBatch) -> EmpiricalTable:
    if batch.size == 0:
        raise EmptyBatch("cannot build frequencies from an empty batch")
    return EmpiricalTable(n=batch.n, freqs=batch.counts / batch.size, total=batch.size)


def total_variation(freqs: np.ndarray, probs: np.ndarray) -> float:
    """TV distance 0.5 * sum |p - q| between two distributions on masks."""
    return 0.5 * float(np.abs(np.asarray(freqs) - np.asarray(probs)).sum())
