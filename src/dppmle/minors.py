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
- `_inverse_blocks` borders (A_J)^{-1} of a symmetric A by index k with
  the same pivot, only its m = n(n+1)/2 distinct entries, masks last, in
  blocks of the masks that share their top bits; `padded_inverses`
  writes them out in full.
- `_schur_adjoint` runs the pass backwards (Griewank & Walther,
  "Evaluating Derivatives", 2nd ed., ch. 3): sum_J w_J pad(A_J^{-1}),
  the gradient of sum_J w_J log det A_J, with no inverse formed; the
  identity suite's matrix form reads it.

The Schur pass can carry Taylor jets of A + tH (ibid., ch. 13): the t^k
coefficient of log det(A_J + tH_J) is (-1)^(k-1) Tr((A_J^{-1} H_J)^k) / k,
so one pass gives every trace statistic of `geometry` in O(k^2 2^n) work.

The bordering takes O(2^n n^3) flops, as products over long rows, and
holds m 2^_BLOCK_BITS floats a member whatever n; the rest take O(2^n).
The Schur pass and the bordering refuse a pivot that is not positive (a
nonpositive minor) and take a leading batch axis over matrices,
(B, n, n) -> (B, ..., 2^n), for the batched fitter and identity suite,
in chunks of _CHUNK_FLOATS, with an ok flag per member or no check in
place of the error; the public functions above are the batch of one.

`superset_sums`, the zeta transform in n in-place passes (Yates;
Bjorklund et al., "Fourier meets Mobius", STOC 2007), gives every
inclusion moment of a probability table at once.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import GroundSetTooLarge

#: Hard cap on ground-set size for full 2^n enumeration (8 MiB per table).
MAX_ENUM_N = 20

#: Hard cap on the draws of one `simulate` run.  Only the int64 draws grow with
#: it: at the cap and n = 18 (fresh process) simulate peaks at 133 MiB and
#: reading its samples at 186 MiB, 653 and 639 MiB with a Python int per draw.
MAX_DRAWS = 10 ** 7

#: Floats a chunk of a batched consumer holds (2 MiB), `_chunks`.
_CHUNK_FLOATS = 2 ** 18

#: Low indices that `_inverse_blocks` borders within a block: the pass
#: over n <= 12 indices is one block, and a block holds m 2^12 floats a
#: member, m = n(n+1)/2.  Fixed, so no result depends on _CHUNK_FLOATS.
_BLOCK_BITS = 12


def check_enum_budget(n: int) -> None:
    if n > MAX_ENUM_N:
        raise GroundSetTooLarge(
            f"ground set of size {n} exceeds the enumeration cap of {MAX_ENUM_N}")


def check_mask(mask: int, n: int) -> int:
    """The mask as an int; ValueError unless it lies in [0, 2^n)."""
    m = int(mask)
    if not 0 <= m < 2 ** n:
        raise ValueError(f"mask {m} outside [0, 2^{n}) for a ground set of size {n}")
    return m


def subset_indices(mask: int) -> np.ndarray:
    """Indices contained in a bitmask, in increasing order."""
    m = int(mask)
    if m < 0:
        raise ValueError(f"mask must be nonnegative, got {m}")
    return np.array([i for i in range(m.bit_length()) if m >> i & 1], dtype=np.intp)


def mask_of(indices) -> int:
    """Bitmask for an iterable of indices."""
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def _schur_pass(matrices: np.ndarray, directions: np.ndarray | None = None,
                order: int = 0, tape: list | None = None):
    """Forward pass of the recursion over B matrices A (B, n, n) in jets
    of A + tH for directions H (B, n, n): (c[d, b, J], the t^d coefficient
    of log det(A_J + tH_J) for d = 0..order, (order+1, B, 2^n) indexed by
    mask; per-member ok flags, False where some pivot is not > 0).  Row 0,
    the log-determinants, is bitwise the same whatever the order.  A
    `tape` list receives, per step, the order-0 pivot, column and row
    that `_schur_adjoint` reads, 3 x 2^n floats a member in all.

    Members never mix, so each row is the same whatever else is in the
    batch; a member that is not ok carries garbage past its first bad
    pivot, and the caller must not use it."""
    a = np.asarray(matrices, dtype=float)
    b, n = a.shape[0], a.shape[1]
    check_enum_budget(n)
    out = np.zeros((order + 1, b, 2 ** n))
    ok = np.ones(b, dtype=bool)
    # schur[d, :, :, :, j] is the t^d coefficient of the Schur complement
    # of (A + tH)_J in (A + tH)_{J u R}, for J over the indices processed
    # so far and R the remaining ones; masks last, the long axis
    schur = a[None]
    if order:
        schur = np.concatenate([schur, np.asarray(directions, dtype=float)[None],
                                np.zeros((order - 1, b, n, n))])
    schur = schur.transpose(0, 2, 3, 1)[..., None]
    with np.errstate(all="ignore"):
        for k in range(n):
            half = 2 ** k
            pivot = schur[:, 0, 0]
            p0 = pivot[0]
            ok &= (p0 > 0).all(axis=1)       # False at NaN too
            log_pivot = np.log(p0)
            if order:       # log p has the derivative p'/p, a jet quotient
                d = np.arange(1, order + 1)[:, None, None]
                log_pivot = np.concatenate([log_pivot[None],
                                            _jet_divide(d * pivot[1:], pivot[:order]) / d])
            np.add(out[:, :, :half], log_pivot, out=out[:, :, half:2 * half])
            if tape is not None:
                tape.append((p0.copy(), schur[0, 1:, 0].copy(), schur[0, 0, 1:].copy()))
            if k + 1 < n:
                rest = schur[:, 1:, 1:]
                col, row = schur[:, 1:, :1], schur[:, :1, 1:]
                # J u {k} gets rest - col quot, quot = row / pivot in jets
                quot = _jet_divide(row, pivot) if order else row / p0
                prod = col[0] * quot
                for j in range(1, order + 1):
                    prod[j:] += col[j] * quot[:order + 1 - j]
                schur = np.concatenate([rest, np.subtract(rest, prod, out=prod)], axis=-1)
    return out, ok


def _schur_adjoint(tape: list, weights: np.ndarray) -> np.ndarray:
    """sum_J weights[b, J] pad(A_J^{-1}), (B, n, n), of the B matrices
    whose `_schur_pass` wrote `tape`: the transposed gradient of sum_J w_J
    log det A_J.  Back through step k, rest gets the adjoint G0 + G1 of
    both children; as the second is rest - c q^T, q = row / p, the column
    gets -G1 q, the row -G1^T c / p, the pivot (w_{J u {k}} + c^T G1 q) / p.
    Sums run one index at a time, elementwise, so members never mix."""
    lbar = np.asarray(weights, dtype=float)     # weights of the masks so far
    gbar = np.zeros((0, 0) + lbar.shape)        # adjoint of the Schur state
    for k in reversed(range(len(tape))):
        half = 2 ** k
        p, c, row = tape[k]
        q = row / p
        a0, a1 = gbar[..., :half], gbar[..., half:]
        gbar = np.zeros((len(c) + 1,) * 2 + p.shape)
        gbar[0, 0] = lbar[:, half:]
        for j in range(len(c)):                 # -G q and -G^T c
            gbar[1:, 0] -= a1[:, j] * q[j]
            gbar[0, 1:] -= a1[j] * c[j]
        for j in range(len(c)):                 # + c^T G q
            gbar[0, 0] -= gbar[0, 1 + j] * q[j]
        gbar[0] /= p
        np.add(a0, a1, out=gbar[1:, 1:])
        lbar = lbar[:, :half] + lbar[:, half:]
    return gbar[..., 0].transpose(2, 1, 0)


def _jet_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Taylor jet (axis 0) of num / den, den on the trailing axes of num:
    q_0 = num_0 / den_0 and q_d = (num_d - sum_j den_j q_(d-j)) / den_0,
    0 < j <= d."""
    q = num / den[0]
    den = den.reshape(den.shape[:1] + (1,) * (num.ndim - den.ndim) + den.shape[1:])
    for d in range(1, len(q)):
        q[d] = (num[d] - (den[1:d + 1] * q[:d][::-1]).sum(axis=0)) / den[0]
    return q


def principal_logdets(matrix: np.ndarray) -> np.ndarray:
    """log det of every principal submatrix A_J, indexed by mask value.
    Raises LinAlgError, naming the masks, when a principal minor is not
    positive."""
    jets, ok = _schur_pass(np.asarray(matrix, dtype=float)[None])
    if not ok[0]:
        # the first bad step k leaves its bad masks, and only those, in
        # [2^k, 2^(k+1)) non-finite
        bad = np.flatnonzero(~np.isfinite(jets[0, 0]))
        bad = bad[bad < 2 * 2 ** (int(bad[0]).bit_length() - 1)]
        raise np.linalg.LinAlgError(f"nonpositive principal minor at masks {bad[:4].tolist()}")
    return jets[0, 0]


def _chunks(b: int, floats: int) -> list:
    """Slices of b members, of `floats` floats each, that hold at most
    _CHUNK_FLOATS in all, one member at least."""
    size = max(1, _CHUNK_FLOATS // floats)
    return [slice(lo, lo + size) for lo in range(0, b, size)]


def _block_width(n: int) -> int:
    """Masks in a block of `_inverse_blocks` at ground-set size n."""
    return 2 ** min(n, _BLOCK_BITS)


def _pass_floats(n: int) -> int:
    """Floats of a member's `_inverse_blocks` work: its block, m w, and a
    step's scratch, u and the two gathers, (n + 1 + 2m) h for the most
    masks h a step adds, w / 2 (or half the seeds, when more)."""
    m, width = n * (n + 1) // 2, _block_width(n)
    return m * width + (n + 1 + 2 * m) * max(width, 2 ** n // width) // 2


def _inverse_blocks(matrices: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    check: bool = False, work=None):
    """The distinct entries x_J = P_J[rows, cols] of P_J = pad(A_J^{-1}) of
    B symmetric matrices (B, n, n), streamed as (B, m, w) blocks, masks
    last, of the w = `_block_width(n)` masks [t w, (t+1) w) in order, in
    one buffer refilled per block, which the reader may overwrite.  Block
    t starts from the seed pad(A_S^{-1}) of its top-bit set S and borders
    the low indices; the seeds come from bordering the top indices first.
    The block and the steps' scratch live in `work`, B `_pass_floats(n)`
    floats, if given, so that no step maps fresh pages.  Pivots are
    checked, for a batch of one, only with `check`."""
    a = np.asarray(matrices, dtype=float)
    b, n, m = a.shape[0], a.shape[1], rows.size
    check_enum_budget(n)
    low = min(n, _BLOCK_BITS)
    width = 2 ** low
    most = max(width, 2 ** (n - low)) // 2          # the most masks a step adds
    work = np.empty(b * _pass_floats(n)) if work is None else work
    block = work[:b * m * width].reshape(b, m, width)
    ends = list(accumulate([b * m * width, b * most * (n + 1), b * most * m, b * most * m]))
    scratch = [work[lo:hi] for lo, hi in zip(ends, ends[1:])]
    # bordering A_J by index i: with u = P_J A[:, i] (zero at i) and the
    # Schur pivot s = A_ii - A[i] u, P_{J u {i}} = P_J + (u - e_i)(u - e_i)^T
    # / s.  lift[:, i] @ x is u, then A[i] u: lift[i, r, e] = A[c, i] where
    # entry e is (r, c) or (c, r), 0 (the padding row n) where row r holds
    # no entry e, and lift[i, n] = A[i] lift[i, :n]
    partner = np.full((n, m), n)
    partner[rows, np.arange(m)], partner[cols, np.arange(m)] = cols, rows
    lift = np.concatenate([a, np.zeros((b, 1, n))], axis=1)[:, partner].transpose(0, 3, 1, 2)
    lift = np.concatenate([lift, a[:, :, None] @ lift], axis=2)
    diagonal = np.diagonal(a, axis1=1, axis2=2)[..., None]

    def border(x, indices, first, stride):
        # x[..., 0] holds a seed; each step doubles the masks held, the new
        # ones, J u {i}, after the old; column j is mask first + stride j
        half = 1
        for i in indices:
            old, new = x[..., :half], x[..., half:2 * half]
            u, step, other = [buf[:buf.size // most * half].reshape(b, -1, half)
                              for buf in scratch]
            np.matmul(lift[:, i], old, out=u)
            s = diagonal[:, i] - u[:, n]
            if check and not (s > 0).all():          # False at NaN too
                bad = first + stride * (half + np.flatnonzero(~(s > 0))[:4])
                raise np.linalg.LinAlgError(
                    f"nonpositive principal minor at masks {bad.tolist()}")
            u = u[:, :n]
            u[:, i] = -1.0
            np.take(u, rows, axis=1, out=step, mode="clip")    # "raise" would buffer `out`
            u /= s[:, None]
            np.take(u, cols, axis=1, out=other, mode="clip")
            step *= other
            np.add(step, old, out=new)      # `new += old` would copy `old` first
            half *= 2

    seeds = np.zeros((b, m, 2 ** (n - low)))
    border(seeds, range(low, n), 0, width)
    for t in range(seeds.shape[2]):
        block[..., 0] = seeds[..., t]
        border(block, range(low), t * width, 1)
        yield block


def padded_inverses(matrix: np.ndarray) -> np.ndarray:
    """Inverses of all principal submatrices, zero-padded to n x n.

    Entry J is the n x n matrix whose J x J block is (A_J)^{-1} and
    which vanishes elsewhere: `_inverse_blocks` of a symmetric A, each
    entry written to both of its places, masks last in memory.  Raises
    LinAlgError, naming the masks, when a principal minor is not positive.
    """
    from .kernels import _coordinate_layout     # kernels imports this module
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    check_enum_budget(n)
    rows, cols, _ = _coordinate_layout(n)
    place = np.empty((n, n), dtype=np.intp)
    place[rows, cols] = place[cols, rows] = np.arange(rows.size)
    # the result and the work share one allocation, which the result keeps:
    # with two, malloc hands the pages back and faults them in on each call
    work = np.empty(n * n * 2 ** n + _pass_floats(n))
    out = work[:n * n * 2 ** n].reshape(n, n, 2 ** n)
    for t, x in enumerate(_inverse_blocks(a[None], rows, cols, True, work[out.size:])):
        out[..., t * x.shape[2]:(t + 1) * x.shape[2]] = x[0][place]
    return out.transpose(2, 0, 1)


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
