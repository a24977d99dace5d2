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
- `padded_inverses` borders (A_J)^{-1} by index k with the same pivot.

The work is O(2^n) for the log-determinants and O(2^n n^2) for the
padded inverses, with no Python loop per subset.  Both refuse a pivot
that is not positive, which marks a nonpositive minor.  Both take a
leading batch axis over matrices, (B, n, n) -> (B, 2^n, ...), for the
batched fitter in `estimation`, with an ok flag per member or no check
in place of the error; the public functions above are the batch of one.

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


def _schur_pass(matrices: np.ndarray):
    """Forward pass of the recursion over a batch of B matrices (B, n, n):
    (log det of all 2^n principal submatrices of each, (B, 2^n) indexed
    by mask; per-member ok flags, False where some pivot is not > 0).

    Members never mix, so each row is the same whatever else is in the
    batch; a member that is not ok carries garbage past its first bad
    pivot, and the caller must not use it."""
    a = np.asarray(matrices, dtype=float)
    b, n = a.shape[0], a.shape[1]
    check_enum_budget(n)
    out = np.zeros((b, 2 ** n))
    ok = np.ones(b, dtype=bool)
    # schur[:, j] is the Schur complement of A_J in A_{J u R}, for J over
    # the indices processed so far and R the remaining ones
    schur = a[:, None]
    with np.errstate(all="ignore"):
        for k in range(n):
            half = 2 ** k
            pivot = schur[:, :, 0, 0]
            ok &= (pivot > 0).all(axis=1)       # False at NaN too
            np.add(out[:, :half], np.log(pivot), out=out[:, half:2 * half])
            if k + 1 < n:
                rest = schur[:, :, 1:, 1:]
                taken = rest - schur[:, :, 1:, :1] * (schur[:, :, :1, 1:]
                                                      / pivot[:, :, None, None])
                schur = np.concatenate([rest, taken], axis=1)
    return out, ok


def principal_logdets(matrix: np.ndarray, masks: np.ndarray | None = None) -> np.ndarray:
    """log det of every principal submatrix A_J.

    Result is aligned with `masks` (all 2^n masks when omitted, indexed
    by mask value).  Raises LinAlgError, naming the masks, when a
    principal minor is not positive.
    """
    logdets, ok = _schur_pass(np.asarray(matrix, dtype=float)[None])
    if not ok[0]:
        # the first bad step k leaves its bad masks, and only those, in
        # [2^k, 2^(k+1)) non-finite
        bad = np.flatnonzero(~np.isfinite(logdets[0]))
        bad = bad[bad < 2 * 2 ** (int(bad[0]).bit_length() - 1)]
        raise np.linalg.LinAlgError(f"nonpositive principal minor at masks {bad[:4].tolist()}")
    return _select(logdets[0], masks)


def _bordered_inverses(matrices: np.ndarray, check: bool = False) -> np.ndarray:
    """`padded_inverses` of a batch of B matrices, (B, 2^n, n, n); the
    pivots are checked, for a batch of one, only with `check`."""
    a = np.asarray(matrices, dtype=float)
    b, n = a.shape[0], a.shape[1]
    check_enum_budget(n)
    out = np.empty((b, 2 ** n, n, n))
    out[:, 0] = 0.0
    for i in range(n):
        half = 2 ** i
        inv = out[:, :half]
        # bordering A_J by index i: with u = A_J^{-1} A_{J,i} and
        # v = A_{i,J} A_J^{-1} (both padded, so zero at i) and the Schur
        # pivot s, the padded inverse of A_{J u {i}} is
        # inv_J + (u - e_i)(v - e_i)^T / s
        u = (inv @ a[:, None, :, i, None])[..., 0]
        v = (a[:, None, None, i] @ inv)[:, :, 0]
        s = a[:, i, i, None] - (u @ a[:, i, :, None])[..., 0]
        if check and not (s > 0).all():          # False at NaN too
            bad = np.flatnonzero(~(s > 0))[:4] + half
            raise np.linalg.LinAlgError(f"nonpositive principal minor at masks {bad.tolist()}")
        u[:, :, i] = v[:, :, i] = -1.0
        new = out[:, half:2 * half]
        np.multiply(u[..., :, None], v[..., None, :] / s[..., None, None], out=new)
        new += inv
    return out


def padded_inverses(matrix: np.ndarray, masks: np.ndarray | None = None) -> np.ndarray:
    """Inverses of all principal submatrices, zero-padded to n x n.

    Entry k is the n x n matrix whose J x J block is (A_J)^{-1} for the
    k-th mask and which vanishes elsewhere.  Raises LinAlgError, naming
    the masks, when a principal minor is not positive.
    """
    return _select(_bordered_inverses(np.asarray(matrix, dtype=float)[None], check=True)[0],
                   masks)


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
