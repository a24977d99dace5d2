"""Kernel-level vocabulary: positive definite kernels, correlation kernels,
sign conjugation, the determinantal graph, and an orthonormal basis of
symmetric matrices.

A kernel L parameterizes the distribution over subsets; the correlation
kernel K = L(I+L)^{-1} carries the inclusion probabilities.  Conjugating
L by a diagonal sign matrix leaves the whole distribution unchanged, so
kernels are identified only up to their sign orbit.
"""

from __future__ import annotations

import functools
import json
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import minors

#: Relative tolerance for eigenvalue positivity checks at construction.
SPD_TOL = 1e-12


def _as_matrix(obj) -> np.ndarray:
    if isinstance(obj, (Kernel, CorrelationKernel)):
        return obj.matrix
    return np.asarray(obj, dtype=float)


def _symmetric_spectrum(matrix, noun: str, repair: str = ""):
    """(the matrix as floats, its ascending eigenvalues): the validation
    both kernel types construct through; ValueError naming `noun` unless
    the matrix is square, nonempty, finite (an inf entry gives NaN
    eigenvalues, which pass every bound), exactly symmetric and of finite
    spectrum (an inf eigenvalue would be misreported as indefinite)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{noun} must be square and nonempty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{noun} entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError(f"{noun} must be exactly symmetric{repair}")
    w = np.linalg.eigvalsh(a)
    if not np.isfinite(w).all():
        raise ValueError(f"{noun} spectrum overflows float64")
    return a, w


class Kernel:
    """Symmetric positive definite matrix over the ground set.

    Construction validates symmetry (exact) and positive definiteness
    via a symmetric eigendecomposition, so the definiteness margin is
    available in `spd_margin` for diagnostics.
    """

    __slots__ = ("matrix", "n", "eigenvalues")

    def __init__(self, matrix):
        a, w = _symmetric_spectrum(matrix, "kernel", "; use symmetrize() or "
                                   "kernel_from_json() to repair input")
        if w[0] <= SPD_TOL * max(abs(w[0]), abs(w[-1]), 1.0):
            raise ValueError(
                f"kernel is not positive definite: min eigenvalue {w[0]:.3e} "
                f"(largest {w[-1]:.3e})")
        self.matrix, self.n, self.eigenvalues = a, a.shape[0], w

    @property
    def spd_margin(self) -> float:
        """Smallest eigenvalue, the distance to losing definiteness."""
        return float(self.eigenvalues[0])

    def __repr__(self):
        return f"Kernel(n={self.n})"


class CorrelationKernel:
    """Symmetric matrix with spectrum strictly inside (0, 1)."""

    __slots__ = ("matrix", "n", "eigenvalues")

    def __init__(self, matrix):
        a, w = _symmetric_spectrum(matrix, "correlation kernel")
        if w[0] <= SPD_TOL or w[-1] >= 1.0 - SPD_TOL:
            raise ValueError(
                f"correlation kernel needs eigenvalues strictly inside (0,1), "
                f"got range [{w[0]:.3e}, {w[-1]:.6f}]")
        self.matrix, self.n, self.eigenvalues = a, a.shape[0], w

    def __repr__(self):
        return f"CorrelationKernel(n={self.n})"


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    return (a + a.T) / 2.0


def principal_submatrix(matrix, mask: int) -> np.ndarray:
    """Rows and columns selected by a subset bitmask, increasing order.

    The empty mask yields the 0 x 0 matrix, whose determinant is 1 and
    trace 0 under numpy's conventions.
    """
    a = _as_matrix(matrix)
    idx = minors.subset_indices(minors.check_mask(mask, a.shape[0]))
    return a[np.ix_(idx, idx)]


def l_to_k(kernel) -> CorrelationKernel:
    """Correlation kernel K = L(I+L)^{-1}.

    Eigenvalues map as lambda -> lambda/(1+lambda), so the output
    spectrum lies strictly inside (0, 1).
    """
    a = _as_matrix(kernel)
    n = a.shape[0]
    k = np.linalg.solve(np.eye(n) + a, a)
    return CorrelationKernel(symmetrize(k))


def k_to_l(correlation) -> Kernel:
    """Kernel L = K(I-K)^{-1}; rejects K with an eigenvalue at 1."""
    a = _as_matrix(correlation)
    n = a.shape[0]
    w = np.linalg.eigvalsh(a)
    if w[-1] >= 1.0 - SPD_TOL:
        raise ValueError(
            f"correlation kernel has eigenvalue {w[-1]:.12f} too close to 1; I-K is near-singular")
    l = np.linalg.solve(np.eye(n) - a, a)
    return Kernel(symmetrize(l))


def conjugate_by_signs(matrix, signs) -> np.ndarray:
    """D A D for D = Diag(signs), signs in {+1, -1}.

    Entry (i, j) becomes signs[i] * signs[j] * A[i, j]; the diagonal is
    unchanged.  Applying the same signs twice restores A exactly.
    """
    a = _as_matrix(matrix)
    s = np.asarray(signs, dtype=float)
    if s.shape != (a.shape[0],):
        raise ValueError(f"signs must have length {a.shape[0]}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("signs must be exactly +1 or -1")
    return np.outer(s, s) * a


def sign_vectors(n: int, fix_first: bool = False):
    """All sign vectors in {+1,-1}^n, all-plus first.

    With fix_first, only the 2^(n-1) vectors with signs[0] = +1 are
    produced (one per conjugation class, since D and -D act alike).
    Order is lexicographic with +1 before -1.
    """
    free = n - 1 if fix_first else n
    for code in range(2 ** free):
        s = np.ones(n)
        for b in range(free):
            if code >> (free - 1 - b) & 1:
                s[b + (1 if fix_first else 0)] = -1.0
        yield s


@dataclass(frozen=True)
class DeterminantalGraph:
    """Graph on the ground set with edges at nonzero off-diagonal entries.

    Connected components are the blocks of the kernel; the kernel is
    irreducible exactly when there is a single component.
    """

    n: int
    edges: frozenset
    components: tuple

    @property
    def irreducible(self) -> bool:
        return len(self.components) == 1

    def same_component(self) -> np.ndarray:
        """Boolean n x n matrix, True where i and j share a component."""
        label = np.empty(self.n, dtype=int)
        for a, comp in enumerate(self.components):
            label[list(comp)] = a
        return label[:, None] == label[None, :]

    def cross_pairs(self):
        """Unordered index pairs (i, j), i < j, lying in distinct components."""
        same = self.same_component()
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if not same[i, j]]


def determinantal_graph(kernel, zero_tol: float = 0.0) -> DeterminantalGraph:
    """Adjacency {i,j} iff |L[i,j]| > zero_tol, plus connected components.

    The default zero_tol = 0 is an exact-zero test, appropriate for
    synthetically constructed kernels; pass a positive tolerance for
    estimated kernels.
    """
    a = _as_matrix(kernel)
    n = a.shape[0]
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                      if abs(a[i, j]) > zero_tol)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    components = tuple(tuple(comps[r]) for r in sorted(comps))
    return DeterminantalGraph(n=n, edges=edges, components=components)


# ---------------------------------------------------------------------------
# Orthonormal basis of symmetric matrices under <A, B> = Tr(AB).

def symmetric_dim(n: int) -> int:
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=minors.MAX_ENUM_N + 1)
def _coordinate_layout(n: int):
    """Read-only (rows, cols, scales) of the symmetric coordinates:
    coordinate k of H is scales[k] H[rows[k], cols[k]], the diagonal
    first (scale 1), then the entries i < j in row-major order (scale
    sqrt(2))."""
    upper = np.triu_indices(n, k=1)
    diag = np.arange(n)
    layout = (np.concatenate([diag, upper[0]]), np.concatenate([diag, upper[1]]),
              np.concatenate([np.ones(n), np.full(upper[0].size, np.sqrt(2.0))]))
    for x in layout:
        x.flags.writeable = False
    return layout


def symmetric_basis(n: int) -> list[np.ndarray]:
    """E_ii for i = 0..n-1 first, then (E_ij + E_ji)/sqrt(2) for i < j
    in row-major order.  Orthonormal under the trace inner product, so a
    unit-Frobenius-norm direction has a unit coordinate vector.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rows, cols, scales = _coordinate_layout(n)
    basis = np.zeros((rows.size, n, n))
    k = np.arange(rows.size)
    basis[k, rows, cols] = basis[k, cols, rows] = 1.0 / scales
    return list(basis)


def sym_to_coords(h: np.ndarray) -> np.ndarray:
    """Coordinates in symmetric_basis order of a symmetric matrix, or of
    each matrix of a (..., n, n) stack, as a C-ordered (..., m) array."""
    s = np.asarray(h, dtype=float)
    rows, cols, scales = _coordinate_layout(s.shape[-1])
    # a stack's gather is F-ordered, and products with it would sum otherwise
    return np.ascontiguousarray(scales * s[..., rows, cols])


def coords_to_sym(coords: np.ndarray, n: int) -> np.ndarray:
    """Inverse of sym_to_coords, for one coordinate vector or a stack."""
    v = np.asarray(coords, dtype=float)
    if v.shape[-1:] != (symmetric_dim(n),):
        raise ValueError(f"expected {symmetric_dim(n)} coordinates for n={n}")
    rows, cols, scales = _coordinate_layout(n)
    h = np.zeros(v.shape[:-1] + (n, n))
    h[..., rows, cols] = h[..., cols, rows] = v / scales
    return h


# ---------------------------------------------------------------------------
# Construction helpers and JSON I/O.

def tridiagonal_kernel(n: int, a: float, b: float) -> Kernel:
    """Path-graph kernel with diagonal a and off-diagonal b.

    Requires a > 0 and a^2 > 4 b^2, which guarantees positive
    definiteness for every n.
    """
    if not (a > 0 and a * a > 4 * b * b):
        raise ValueError(
            f"tridiagonal kernel requires a > 0 and a^2 > 4*b^2, got a={a}, b={b}")
    m = np.eye(n) * a
    ii = np.arange(n - 1)
    m[ii, ii + 1] = b
    m[ii + 1, ii] = b
    return Kernel(m)


def block_diagonal_kernel(blocks) -> Kernel:
    """Assemble a kernel from square symmetric diagonal blocks."""
    mats = [_as_matrix(b) for b in blocks]
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n))
    at = 0
    for m in mats:
        k = m.shape[0]
        out[at:at + k, at:at + k] = m
        at += k
    return Kernel(out)


def kernel_from_json(obj) -> Kernel:
    """Load {"n": int, "entries": row-major n*n reals}.

    Symmetry is enforced by averaging with the transpose; asymmetry
    beyond 1e-9 triggers a warning; an n that is not a positive integer,
    or entries not a flat list of n*n numbers (booleans and strings are
    not), raise ValueError.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    n = obj["n"]
    if (isinstance(n, bool) or not isinstance(n, numbers.Real) or not float(n).is_integer()
            or n < 1):
        raise ValueError(f"kernel n must be an integer >= 1, got {n!r}")
    n, raw = int(n), obj["entries"]
    if (not isinstance(raw, (list, tuple)) or len(raw) != n * n
            or not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in raw)):
        raise ValueError(f"kernel entries must be a flat list of n*n = {n * n} numbers")
    entries = np.array(raw, dtype=float).reshape(n, n)
    if not np.isfinite(entries).all():
        raise ValueError("kernel entries must be finite")
    skew = np.abs(entries - entries.T).max()
    if skew > 1e-9:
        warnings.warn(f"kernel entries asymmetric by {skew:.3e}; symmetrizing")
    with np.errstate(over="ignore"):        # Kernel refuses an entry that overflows
        return Kernel(symmetrize(entries))


def kernel_to_json(kernel) -> dict:
    a = _as_matrix(kernel)
    return {"n": int(a.shape[0]), "entries": [float(x) for x in a.ravel()]}
