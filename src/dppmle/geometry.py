"""The likelihood of a kernel and its local geometry.

For frequencies q over the 2^n masks, the scaled log-likelihood of a
kernel L is Lhat(L) = sum_J q_J log det(L_J) - log det(I+L).  Its value
(`_Objective`), gradient, Gram and Hessian (`likelihood_derivatives`)
are computed here and nowhere else, and `estimation` searches it.  At
q = p*, the subset probabilities of a reference kernel L*, it is the
expected log-likelihood

    Phi(L) = sum_J p*_J log det(L_J) - log det(I+L).

Every directional derivative of Phi has a closed form built from the
trace statistics a_{J,k} = Tr((L_J^{-1} H_J)^k) and their global
counterpart a_k = Tr(((I+L)^{-1} H)^k):

    d^k Phi(H,..,H) = (-1)^(k-1) (k-1)! (sum_J p*_J a_{J,k} - a_k).

The gradient is sum_J q_J P_J - G, P_J = pad(L_J^{-1}), G = (I+L)^{-1},
and the Hessian comes from the Gram of the P_J centred at G, as a
variance is summed about its mean (Chan, Golub & LeVeque, 1983).  At
L = L* the gradient vanishes and the Hessian, the likelihood Hessian at
q = p* (`hessian_matrix`), is by the identity differentiated twice
minus the variance of Tr((L*_Z)^{-1} H_Z), hence negative semidefinite;
its null space consists of the symmetric directions on cross-block
index pairs of L*.  Along those directions the third derivative
vanishes and the fourth is minus three times the variance of the
quadratic trace statistic, strictly negative for any nonzero null
direction.

Every a_{J,k} comes from one pass of the all-minors recursion in
`minors`, carried in Taylor jets of L + tH: a_{J,k} = (-1)^(k-1) k c_{J,k}
for c_{J,k} the t^k coefficient of log det(L_J + tH_J).  The matrix form
sum_J p_J pad(L_J^{-1}) = (I+L)^{-1}, the identity differentiated once,
is the reverse sweep of that pass's order-0 row, with no padded inverse
formed.  The identity suite takes kernels of one size at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import minors
from .errors import NotNullDirection
from .kernels import DeterminantalGraph, Kernel, _coordinate_layout, coords_to_sym
from .model import DppTable, EmpiricalTable, build_table, normalized

#: Relative eigenvalue threshold used to identify the numerical null space.
NULL_EIG_TOL = 1e-9


class TraceCache:
    """Per-subset inverse minors of a kernel, zero-padded, for the Hessian
    at q = p; `hessian_matrix` builds one and drops it on return."""

    __slots__ = ("padded_inv",)

    def __init__(self, kernel: Kernel):
        self.padded_inv = minors.padded_inverses(kernel.matrix)


def trace_cache(obj) -> TraceCache:
    return TraceCache(obj.kernel if isinstance(obj, DppTable) else obj)


def _traces(matrices: np.ndarray, directions: np.ndarray, order: int,
            tape: list | None = None):
    """For B kernels and directions (B, n, n) and k = 1..order: (log det
    L_J, (B, 2^n); a_{J,k} = (-1)^(k-1) k c_{J,k}, (order, B, 2^n), with
    c_{J,k} the t^k coefficient of log det(L_J + tH_J) from one jet pass,
    which writes `tape`; a_k by n x n powers, (order, B); (I+L)^{-1}).
    LinAlgError on a nonpositive minor."""
    jets, ok = minors._schur_pass(matrices, directions, order, tape)
    if not ok.all():            # the bad member's own pass names its masks
        minors.principal_logdets(matrices[np.argmin(ok)])
    k = np.arange(1, order + 1)[:, None, None]
    global_inv = np.linalg.inv(np.eye(matrices.shape[-1]) + matrices)
    powers = [global_inv @ directions]
    for _ in range(order - 1):
        powers.append(powers[-1] @ powers[0])
    return (jets[0], jets[1:] * (-1.0) ** (k - 1) * k,
            np.trace(powers, axis1=2, axis2=3), global_inv)


def _stats(kernel: Kernel, direction, order: int):
    """(a_{J,k}, (order, 2^n); a_k, (order,)) of one kernel and direction."""
    if order < 1:
        raise ValueError("order k must be >= 1")
    h = np.asarray(direction, dtype=float)
    if h.shape != kernel.matrix.shape:
        raise ValueError(f"direction of shape {h.shape} for a kernel of size {kernel.n}")
    _, per, glob, _ = _traces(kernel.matrix[None], h[None], order)
    return per[:, 0], glob[:, 0]


def expected_log_likelihood(table_star: DppTable, kernel: Kernel) -> float:
    """Phi(L), the `_Objective` value at q = the reference table's
    probabilities; maximal exactly on the sign orbit of the reference
    kernel, -inf where some principal minor of L is not positive."""
    if kernel.n != table_star.n:
        raise ValueError("ground-set sizes differ")
    return float(_Objective(table_star.probs[None]).evaluate(kernel.matrix[None], [0])[0])


def likelihood_gradient(freqs: EmpiricalTable, kernel: Kernel) -> np.ndarray:
    """Gradient matrix G with directional derivative Tr(G H) along H:
    the frequency-weighted padded inverse minors minus (I+L)^{-1}, the
    fitter's gradient (`_Objective.derivatives`, no Gram summed)."""
    if kernel.n != freqs.n:
        raise ValueError("ground-set sizes differ")
    return _Objective(freqs.freqs[None]).derivatives(kernel.matrix[None], [0],
                                                     np.zeros(1, dtype=bool))[0][0]


def directional_derivative(table_star: DppTable, kernel: Kernel,
                           direction: np.ndarray, k: int) -> float:
    """k-th derivative of t -> Phi(L + tH) at t = 0, in closed form."""
    per, glob = _stats(kernel, direction, k)
    diff = float(table_star.probs @ per[k - 1] - glob[k - 1])
    return (-1.0) ** (k - 1) * math.factorial(k - 1) * diff


def _variance(probs: np.ndarray, values: np.ndarray) -> float:
    mean = probs @ values
    return float(probs @ values ** 2 - mean ** 2)


def hessian_quadratic_form(table_star: DppTable, direction: np.ndarray) -> float:
    """-Var[Tr((L*_Z)^{-1} H_Z)] over the table; always <= 0."""
    return -_variance(table_star.probs, _stats(table_star.kernel, direction, 1)[0][0])


@functools.lru_cache(maxsize=minors.MAX_ENUM_N + 1)
def _gram_pairs(n: int):
    """Read-only (flat indices of the distinct entries x, in the `kernels`
    coordinate order; the n x n index of each entry among them; (2, m, m)
    flat indices into the m x m Gram of x; the (m, m) weights).  Summed
    and weighted, the two gathers are the Hessian: at coordinates a =
    (i, j) and b = (k, l) they read the Gram at [(j, k), (i, l)] and
    [(j, l), (i, k)], and the weight is -2 c_a c_b for the basis matrix
    c_a (E_ij + E_ji)."""
    rows, cols, _ = _coordinate_layout(n)
    m, u = rows.size, np.empty((n, n), dtype=np.intp)
    u[rows, cols] = u[cols, rows] = np.arange(m)
    i, j, k, l = rows[:, None], cols[:, None], rows[None, :], cols[None, :]
    layout = (rows * n + cols, u, np.array([u[j, k] * m + u[i, l], u[j, l] * m + u[i, k]]),
              np.array([-1.0, -np.sqrt(0.5), -0.5])[(i == j).astype(int) + (k == l)])
    for x in layout:
        x.flags.writeable = False
    return layout


def _gram_hessians(grams: np.ndarray, n: int) -> np.ndarray:
    """The Hessians in `symmetric_basis` coordinates that the two gathers
    of `_gram_pairs` read from (k, m, m) Grams of the distinct entries."""
    _, _, pairs, weights = _gram_pairs(n)
    grams = grams.reshape(-1, weights.size)
    return (np.take(grams, pairs[0], axis=1) + np.take(grams, pairs[1], axis=1)) * weights


def likelihood_derivatives(blocks, q: np.ndarray, inv: np.ndarray, gram: np.ndarray):
    """(gradients sum_J q_J P_J - G, Hessians) of sum_J q_J log det L_J
    - log det(I+L) for k kernels from the distinct entries x_J of P_J =
    pad(L_J^{-1}), a stream of (k, m, w) blocks over the masks in order
    (`minors._inverse_blocks`), each read once and then overwritten, q
    and G = (I+L)^{-1}, (k, n, n).  The Hessians of the members `gram`
    selects, in order, are `_gram_hessians` of the centred Gram sum_J q_J
    (x_J - g)(x_J - g)^T, g the distinct entries of G, which only they
    sum, block by block: all of it where the gradient is 0 and sum q = 1."""
    k, n = q.shape[0], inv.shape[1]
    distinct, spread = _gram_pairs(n)[:2]
    some = slice(None) if gram.all() else gram
    g = inv.reshape(k, -1)[:, distinct]
    sums = np.zeros((k, distinct.size, 1))        # sum_J q_J x_J
    grams = np.zeros((int(gram.sum()), distinct.size, distinct.size))
    centre, root, lo = g[some, :, None], np.sqrt(q[some]), 0
    for x in blocks:
        at = slice(lo, lo + x.shape[2])
        lo = at.stop
        sums += x @ q[:, at, None]
        y = x[some]                               # x itself if every member sums one
        y -= centre
        y *= root[:, None, at]
        grams += y @ y.transpose(0, 2, 1)         # a syrk
    return (sums[..., 0] - g)[:, spread], _gram_hessians(grams, n)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each the BLAS dot of a 1-D `a @ b`, on
    C-ordered copies: the summation order follows the layout."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


class _Objective:
    """Lhat of a batch of kernels, member i scored against frequency row
    `tables[i]` (row i when omitted) of (T, 2^n), kept without a copy.
    The value is one forward pass of the all-minors recursion, log
    det(I+L) the logsumexp of the same log-determinants since det(I+L) =
    sum_J det L_J.  The derivatives read only the kernels."""

    def __init__(self, freqs: np.ndarray, tables: np.ndarray | None = None):
        self.freqs = np.asarray(freqs, dtype=float)
        self.tables = np.arange(len(self.freqs)) if tables is None else np.asarray(tables)
        self.work = np.empty(0)     # `derivatives`' stream work, kept so no pass faults in pages

    def evaluate(self, matrices: np.ndarray, members) -> np.ndarray:
        """The values of the kernels of `members`; -inf where some
        principal minor is not positive."""
        values = np.empty(len(matrices))
        # in member chunks; a member's pass peaks near 4 x 2^n floats
        for at in minors._chunks(len(matrices), 4 * self.freqs.shape[1]):
            jets, ok = minors._schur_pass(matrices[at])
            with np.errstate(all="ignore"):
                top = jets[0].max(axis=1)
                log_z = top + np.log(np.exp(jets[0] - top[:, None]).sum(axis=1))
                q = self.freqs[self.tables[members[at]]]
                values[at] = np.where(ok, _rowdot(jets[0], q) - log_z, -np.inf)
        values[~np.isfinite(values)] = -np.inf
        return values

    def derivatives(self, matrices: np.ndarray, members, gram: np.ndarray):
        """(gradients, Hessians of the members the flags `gram` select) of
        kernels whose values are finite, from one streamed bordering pass
        of `minors._pass_floats(n)` floats a member, unchunked (see
        `estimation._newton`).  Their Gram sum_J q_J x_J x_J^T - g g^T is
        `likelihood_derivatives`' centred one plus d g^T + g d^T +
        (1 - sum q) g g^T, d the gradient's distinct entries."""
        k, n = matrices.shape[:2]
        if self.work.size < k * minors._pass_floats(n):
            self.work = np.empty(k * minors._pass_floats(n))
        q, inv = self.freqs[self.tables[members]], np.linalg.inv(np.eye(n) + matrices)
        blocks = minors._inverse_blocks(matrices, *_coordinate_layout(n)[:2], work=self.work)
        grads, hess = likelihood_derivatives(blocks, q, inv, gram)
        g, e = (x.reshape(k, -1)[gram][:, _gram_pairs(n)[0]] for x in (inv, grads))
        e += (1.0 - q[gram].sum(axis=1))[:, None] * g / 2.0
        rest = g[:, :, None] * e[:, None, :]
        return grads, hess + _gram_hessians(rest + rest.transpose(0, 2, 1), n)


@dataclass
class HessianForm:
    """Hessian of Phi at the reference kernel in symmetric coordinates: the
    likelihood Hessian at q = p, symmetrized, with entries -Cov(T_p, T_q)
    of the subset trace statistics T of the basis directions."""

    kernel: Kernel
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def null_tolerance(self) -> float:
        return NULL_EIG_TOL * max(1.0, float(np.abs(self.eigenvalues).max()))

    def null_vectors(self) -> np.ndarray:
        """Eigenvector columns whose eigenvalue is numerically zero."""
        keep = np.abs(self.eigenvalues) <= self.null_tolerance
        return self.eigenvectors[:, keep]

    def eigenvalues_csv(self) -> str:
        lines = ["index,eigenvalue"]
        lines += [f"{i},{repr(float(v))}" for i, v in enumerate(self.eigenvalues)]
        return "\n".join(lines) + "\n"

    def matrix_csv(self) -> str:
        lines = [",".join(repr(float(x)) for x in row) for row in self.matrix]
        return "\n".join(lines) + "\n"


def hessian_matrix(table_star: DppTable) -> HessianForm:
    """`likelihood_derivatives`' Hessian at q = p*, the table's
    probabilities, centred at G = (I+L*)^{-1}, symmetrized, from the
    padded inverses gathered into the blocks of the fitter's pass."""
    p, n = table_star.probs[None], table_star.n
    x = trace_cache(table_star).padded_inv.transpose(1, 2, 0).reshape(n * n, -1)[_gram_pairs(n)[0]]
    blocks = (np.ascontiguousarray(x[None, :, lo:lo + minors._block_width(n)])
              for lo in range(0, 2 ** n, minors._block_width(n)))
    inv = np.linalg.inv(np.eye(n) + table_star.kernel.matrix)[None]
    hess = likelihood_derivatives(blocks, p, inv, np.ones(1, dtype=bool))[1][0]
    mat = (hess + hess.T) / 2.0
    w, v = np.linalg.eigh(mat)
    return HessianForm(kernel=table_star.kernel, matrix=mat, eigenvalues=w, eigenvectors=v)


@dataclass
class NullSpaceBasis:
    """Orthonormal basis of the Hessian null space: one direction per
    unordered cross-component pair."""

    n: int
    pairs: list
    basis: list
    kernel: Kernel | None = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def coordinate_matrix(self) -> np.ndarray:
        """Basis directions as columns in symmetric coordinates: the unit
        vectors of their pairs."""
        rows, cols, _ = _coordinate_layout(self.n)
        flat = [i * self.n + j for i, j in self.pairs]
        return np.eye(rows.size)[:, np.isin(rows * self.n + cols, flat)]


def null_space_basis(graph: DeterminantalGraph, kernel: Kernel | None = None) -> NullSpaceBasis:
    """One `symmetric_basis` direction (E_ij + E_ji)/sqrt(2) per cross pair."""
    nsb = NullSpaceBasis(n=graph.n, pairs=graph.cross_pairs(), basis=[], kernel=kernel)
    nsb.basis = [coords_to_sym(c, graph.n) for c in nsb.coordinate_matrix().T]
    return nsb


def fourth_order_form(table_star: DppTable, direction: np.ndarray,
                      null_tol: float = 1e-8) -> float:
    """Fourth derivative of Phi at the reference kernel along a null
    direction: -3 Var[Tr(((L*_Z)^{-1} H_Z)^2)].

    Zero exactly when the direction is zero, strictly negative
    otherwise.  Rejects directions outside the Hessian null space.
    """
    h = np.asarray(direction, dtype=float)
    per = _stats(table_star.kernel, h, 2)[0]
    q = -_variance(table_star.probs, per[0])
    scale = max(1.0, float((h * h).sum()))
    if not abs(q) <= null_tol * scale:          # NaN too
        raise NotNullDirection(
            f"direction has Hessian value {q:.3e}, not a null direction")
    return -3.0 * _variance(table_star.probs, per[1])


def decompose_null_direction(direction: np.ndarray, graph: DeterminantalGraph):
    """Split a null direction into per-component-pair pieces.

    Each piece H^(a,b) keeps the entries between components a and b and
    comes with the sign vector that fixes the kernel while flipping the
    piece: +1 on component a, -1 elsewhere.  Pieces sum to the input
    exactly.  Directions with support inside a component are rejected.
    """
    h = np.asarray(direction, dtype=float)
    n = graph.n
    if h.shape != (n, n):
        raise ValueError(f"direction must be {n}x{n}")
    if np.any(h[graph.same_component()] != 0.0):
        raise NotNullDirection("direction has support inside a component")
    chi = np.zeros((len(graph.components), n))       # component indicators
    for a, comp in enumerate(graph.components):
        chi[a, list(comp)] = 1.0
    pieces = [(np.outer(chi[a], chi[b]) * h + np.outer(chi[b], chi[a]) * h, 2.0 * chi[a] - 1.0)
              for a in range(len(chi)) for b in range(a + 1, len(chi))]
    return [(piece, signs) for piece, signs in pieces if piece.any()]


@dataclass
class IdentityResiduals:
    """Residuals of the differentiation cascade of the normalization
    identity det(I+L) = sum_J det(L_J).

    r1..r4 are left-minus-right of the order 1..4 identities in the
    trace statistics, weighted by the subset probabilities of L; the
    matrix-form residual is the Frobenius gap between the probability-
    weighted padded inverse minors and (I+L)^{-1}.  Scales record the
    largest term magnitude of each identity for relative comparison.
    """

    r1: float
    r2: float
    r3: float
    r4: float
    matrix_form_residual: float
    scales: tuple

    def max_relative(self) -> float:
        rel = [abs(r) / max(s, 1e-300) for r, s in
               zip((self.r1, self.r2, self.r3, self.r4), self.scales)]
        return max(rel)

    def to_dict(self) -> dict:
        return {"r1": self.r1, "r2": self.r2, "r3": self.r3, "r4": self.r4,
                "matrix_form_residual": self.matrix_form_residual}


def identity_residuals(kernels, directions):
    """IdentityResiduals of a kernel and direction, or their list for
    kernels of one size and a (B, n, n) stack of directions.  Per member
    chunk, one jet pass gives the a_{J,k} and, in its order-0 row, the
    log-determinants behind the probabilities (`normalized`); the matrix
    form is the reverse sweep of its order-0 row with those weights.
    Members never mix, so each result is bitwise the same alone, in any
    batch and chunk size."""
    if isinstance(kernels, Kernel):
        return identity_residuals([kernels], np.asarray(directions, dtype=float)[None])[0]
    mats = np.array([kernel.matrix for kernel in kernels])
    dirs = np.asarray(directions, dtype=float)
    if dirs.shape != mats.shape:
        raise ValueError(f"directions of shape {dirs.shape} for kernels {mats.shape}")
    out = []
    # a member's order-4 jet pass peaks near 4 x 5 x 2^n floats, its tape 3 x 2^n
    for at in minors._chunks(len(mats), 23 * 2 ** mats.shape[-1]):
        tape = []
        logdets, per, glob, global_inv = _traces(mats[at], dirs[at], 4, tape)
        probs = np.array([normalized(row, a)[0] for row, a in zip(logdets, mats[at])])
        weighted = minors._schur_adjoint(tape, probs)
        out += [_residuals(p, per[:, i], glob[:, i], float(np.linalg.norm(w - g)))
                for i, (p, w, g) in enumerate(zip(probs, weighted, global_inv))]
    return out


def _residuals(p: np.ndarray, per: np.ndarray, glob: np.ndarray, mf: float) -> IdentityResiduals:
    """One member's cascade from p, the a_{J,1..4} rows, the global a_k."""
    a1, a2, a3, a4 = per
    g1, g2, g3, g4 = glob

    def delta(per_vals, glob_val):
        return float(p @ per_vals - glob_val)

    # order 1: expectation of the linear statistic equals its global value
    lhs1 = float(p @ a1)
    r1 = lhs1 - float(g1)
    s1 = max(abs(lhs1), abs(g1))

    # order 2: centered second statistic equals centered square
    left2 = delta(a2, g2)
    right2 = delta(a1 ** 2, g1 ** 2)
    r2 = left2 - right2
    s2 = max(abs(left2), abs(right2))

    # order 3: third statistic from cubes and mixed first/second products
    left3 = delta(a3, g3)
    t3a = delta(a1 ** 3, g1 ** 3)
    t3b = delta(a1 * a2, g1 * g2)
    r3 = left3 - (-0.5 * t3a + 1.5 * t3b)
    s3 = max(abs(left3), abs(0.5 * t3a), abs(1.5 * t3b))

    # order 4: fourth statistic from quartic and mixed lower-order products
    left4 = delta(a4, g4)
    t4a = delta(a1 ** 4, g1 ** 4)
    t4b = delta(a1 ** 2 * a2, g1 ** 2 * g2)
    t4c = delta(a1 * a3, g1 * g3)
    t4d = delta(a2 ** 2, g2 ** 2)
    r4 = left4 - (t4a / 6.0 - t4b + 4.0 * t4c / 3.0 + t4d / 2.0)
    s4 = max(abs(left4), abs(t4a / 6.0), abs(t4b), abs(4.0 * t4c / 3.0), abs(t4d / 2.0))

    return IdentityResiduals(r1=r1, r2=r2, r3=r3, r4=r4, matrix_form_residual=mf,
                             scales=(max(s1, 1.0e-300), max(s2, 1e-300),
                                     max(s3, 1e-300), max(s4, 1e-300)))


def min_curvature(kernel_or_table) -> float:
    """Smallest eigenvalue of minus the Hessian coordinate matrix.

    Strictly positive exactly when the kernel is irreducible; reducible
    kernels return a value at numerical zero rather than erroring so
    parameter sweeps stay total.
    """
    table = kernel_or_table if isinstance(kernel_or_table, DppTable) else build_table(kernel_or_table)
    form = hessian_matrix(table)
    return float(-form.eigenvalues[-1])
