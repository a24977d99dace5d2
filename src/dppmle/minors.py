"""Bitmask subset enumeration and batched principal-minor linear algebra.

Subsets of [n] are encoded as integer bitmasks (bit i set means index i
is in the subset).  Enumeration order is increasing mask value; within a
subset, indices are increasing.  The empty subset has det = 1, tr = 0.

All principal minors come from one recursion over the indices (Griffin
& Tsatsomeros, "Principal minors, Part I", LAA 419, 2006).  Step k
splits every mask J over the indices 0..k-1 into J and J u {k}; placing
the first children before the second keeps the masks in increasing
order, so after n steps entry m belongs to mask m.  Each step is a few
stacked numpy operations over all masks at once:

- `principal_logdets` carries, per mask, the Schur complement of A_J in
  the block of the remaining indices.  Its leading entry is the pivot
  det(A_{J u {k}}) / det(A_J); its complement after eliminating k is the
  state of J u {k}.
- `weighted_logdet_grad` runs that forward pass keeping its stacks, then
  the reverse-mode adjoint of each step from k = n-1 down to 0
  (Griewank & Walther, "Evaluating Derivatives"), so sum_J w_J log det
  A_J and its gradient sum_J w_J pad(A_J^{-1}) cost one sweep each way.
- `padded_inverses` borders (A_J)^{-1} by index k with the same pivot.

The work is O(2^n) for the log-determinants and O(2^n n^2) for the
padded inverses and the gradient, with no Python loop per subset.  All
three refuse a pivot that is not positive, which marks a nonpositive
minor.  The forward pass and its adjoint take a leading batch axis over
matrices, (B, n, n) -> (B, 2^n), with an ok flag per member in place of
the error, for the batched fitter in `estimation`; the two public
functions above are the batch of one.

`superset_sums`, the zeta transform in n in-place passes (Yates;
Bjorklund et al., "Fourier meets Mobius", STOC 2007), gives every
inclusion moment of a probability table at once.
"""

from __future__ import annotations

import numpy as np

from .errors import GroundSetTooLarge

#: Hard cap on ground-set size for full 2^n enumeration (8 MiB per table).
MAX_ENUM_N = 20


def check_enum_budget(n: int, cap: int = MAX_ENUM_N) -> None:
    if n > cap:
        raise GroundSetTooLarge(
            f"ground set of size {n} exceeds the enumeration cap of {cap}")


def check_mask(mask: int, n: int) -> int:
    """The mask as an int; ValueError unless it lies in [0, 2^n)."""
    m = int(mask)
    if not 0 <= m < 2 ** n:
        raise ValueError(f"mask {m} outside [0, 2^{n}) for a ground set of size {n}")
    return m


def subset_indices(mask: int) -> np.ndarray:
    """Indices contained in a bitmask, in increasing order."""
    out = []
    i = 0
    m = int(mask)
    if m < 0:
        raise ValueError(f"mask must be nonnegative, got {m}")
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return np.asarray(out, dtype=np.intp)


def mask_of(indices) -> int:
    """Bitmask for an iterable of indices."""
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def _select(full: np.ndarray, masks) -> np.ndarray:
    """Rows of a full per-mask result for the requested masks (any order,
    repeats allowed)."""
    if masks is None:
        return full
    masks = np.asarray(masks, dtype=np.int64)
    if masks.size and (masks.min() < 0 or masks.max() >= full.shape[0]):
        raise ValueError(f"masks must lie in [0, {full.shape[0]})")
    return full[masks]


def _check_pivots(pivots: np.ndarray, offset: int) -> None:
    """Raise unless every pivot is > 0; pivot j belongs to mask offset + j."""
    positive = pivots > 0               # False at NaN too
    if np.count_nonzero(positive) < positive.size:
        bad = np.flatnonzero(~positive)
        raise np.linalg.LinAlgError(
            f"nonpositive principal minor at masks {(bad[:4] + offset).tolist()}")


def _schur_pass(matrices: np.ndarray, keep: bool = False):
    """Forward pass of the recursion over a batch of B matrices (B, n, n):
    (log det of all 2^n principal submatrices of each, (B, 2^n) indexed
    by mask; per-member ok flags, False where some pivot is not > 0; the
    (B, 2^k, n-k, n-k) Schur stacks entering each step k when `keep` is
    set, else an empty list).

    Members never mix, so each row is the same whatever else is in the
    batch; a member that is not ok carries garbage past its first bad
    pivot, and the caller must not use it."""
    a = np.asarray(matrices, dtype=float)
    b, n = a.shape[0], a.shape[1]
    check_enum_budget(n)
    out = np.zeros((b, 2 ** n))
    ok = np.ones(b, dtype=bool)
    stacks = []
    # schur[:, j] is the Schur complement of A_J in A_{J u R}, for J over
    # the indices processed so far and R the remaining ones
    schur = a[:, None]
    with np.errstate(all="ignore"):
        for k in range(n):
            half = 2 ** k
            if keep:
                stacks.append(schur)
            pivot = schur[:, :, 0, 0]
            ok &= (pivot > 0).all(axis=1)       # False at NaN too
            np.add(out[:, :half], np.log(pivot), out=out[:, half:2 * half])
            if k + 1 < n:
                rest = schur[:, :, 1:, 1:]
                taken = rest - schur[:, :, 1:, :1] * (schur[:, :, :1, 1:]
                                                      / pivot[:, :, None, None])
                schur = np.concatenate([rest, taken], axis=1)
    return out, ok, stacks


def _logdet_adjoint(stacks: list, weights: np.ndarray) -> np.ndarray:
    """sum_J w_J pad(A_J^{-T}) for each member, the reverse-mode adjoint
    of `_schur_pass` from its kept stacks and (B, 2^n) weights."""
    w = weights
    # g is the adjoint of the stack leaving step k: g[:, :half] for the
    # children without k (`rest` = B), g[:, half:] for those with k
    # (`taken` = B - c r^T / p, c the column and r the row under and
    # beside the pivot p).  So B gets g0 + g1, c gets -g1 r / p, r gets
    # -c^T g1 / p, and p gets w_k / p + c^T g1 r / p^2
    # = (w_k - r . (-c^T g1 / p)) / p.  The last step leaves 0 x 0
    # blocks, so its adjoint is the pivot's.
    half = w.shape[1] // 2
    g = (w[:, half:] / stacks[-1][:, :, 0, 0])[:, :, None, None]
    w = w[:, :half] + w[:, half:]
    for k in range(len(stacks) - 2, -1, -1):
        half = 2 ** k
        schur = stacks[k]
        pivot = schur[:, :, 0, 0]
        row = schur[:, :, 0, 1:]
        g1 = g[:, half:]
        neg_inv = (-1.0 / pivot)[:, :, None]
        up = np.empty_like(schur)
        up[:, :, 1:, 0] = (g1 @ row[:, :, :, None])[:, :, :, 0] * neg_inv
        up[:, :, 0, 1:] = (schur[:, :, None, 1:, 0] @ g1)[:, :, 0, :] * neg_inv
        up[:, :, 0, 0] = (w[:, half:] - (up[:, :, 0, 1:] * row).sum(axis=2)) / pivot
        np.add(g[:, :half], g1, out=up[:, :, 1:, 1:])
        w = w[:, :half] + w[:, half:]
        g = up
    return g[:, 0]


def _one_member(matrix: np.ndarray, keep: bool = False):
    """`_schur_pass` of a single matrix as the batch of one; LinAlgError
    naming the masks of the first nonpositive pivot."""
    logdets, ok, stacks = _schur_pass(np.asarray(matrix, dtype=float)[None], keep)
    if not ok[0]:
        # the first bad step k leaves its bad masks, and only those, in
        # [2^k, 2^(k+1)) non-finite
        bad = np.flatnonzero(~np.isfinite(logdets[0]))
        bad = bad[bad < 2 * 2 ** (int(bad[0]).bit_length() - 1)]
        raise np.linalg.LinAlgError(f"nonpositive principal minor at masks {bad[:4].tolist()}")
    return logdets[0], stacks


def principal_logdets(matrix: np.ndarray, masks: np.ndarray | None = None) -> np.ndarray:
    """log det of every principal submatrix A_J.

    Result is aligned with `masks` (all 2^n masks when omitted, indexed
    by mask value).  Raises LinAlgError, naming the masks, when a
    principal minor is not positive.
    """
    return _select(_one_member(matrix)[0], masks)


def weighted_logdet_grad(matrix: np.ndarray, weights: np.ndarray):
    """(sum_J w_J log det A_J, sum_J w_J pad(A_J^{-1})) over all 2^n masks.

    The gradient is the reverse-mode adjoint of `principal_logdets`
    (d/dA_ij, no symmetry assumed, so it is sum_J w_J pad(A_J^{-T})).
    Raises LinAlgError, naming the masks, when a principal minor is not
    positive, whatever its weight.
    """
    logdets, stacks = _one_member(matrix, keep=True)
    w = np.asarray(weights, dtype=float)
    if w.shape != logdets.shape:
        raise ValueError(f"weights must have shape {logdets.shape}, got {w.shape}")
    return float(logdets @ w), _logdet_adjoint(stacks, w[None])[0]


def padded_inverses(matrix: np.ndarray, masks: np.ndarray | None = None) -> np.ndarray:
    """Inverses of all principal submatrices, zero-padded to n x n.

    Entry k is the n x n matrix whose J x J block is (A_J)^{-1} for the
    k-th mask and which vanishes elsewhere.  Raises LinAlgError, naming
    the masks, when a principal minor is not positive.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    check_enum_budget(n)
    out = np.zeros((2 ** n, n, n))
    for i in range(n):
        half = 2 ** i
        inv = out[:half]
        # bordering A_J by index i: with u = A_J^{-1} A_{J,i} and
        # v = A_{i,J} A_J^{-1} (both padded, so zero at i) and the Schur
        # pivot s, the padded inverse of A_{J u {i}} is
        # inv_J + (u - e_i)(v - e_i)^T / s
        u = inv @ a[:, i]
        v = a[i] @ inv
        s = a[i, i] - u @ a[i]
        _check_pivots(s, half)
        u[:, i] = v[:, i] = -1.0
        out[half:2 * half] = inv + u[:, :, None] * (v[:, None, :] / s[:, None, None])
    return _select(out, masks)


def superset_sums(values: np.ndarray) -> np.ndarray:
    """f[S] = sum of values[J] over the masks J containing S, for a
    (2^n,) vector indexed by mask: P[S in Z] over a probability table.
    One in-place pass per index, O(n 2^n) work on one copy."""
    f = np.array(values, dtype=float)
    n = f.size.bit_length() - 1
    if f.ndim != 1 or f.size != 2 ** n:
        raise ValueError(f"expected a vector of 2^n values, got shape {f.shape}")
    for k in range(n):
        # axis 1 is bit k; axis 2 runs over the lower bits
        pairs = f.reshape(-1, 2, 2 ** k)
        pairs[:, 0] += pairs[:, 1]
    return f
