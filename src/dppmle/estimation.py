"""Maximum-likelihood estimation of a kernel from observed subsets.

The scaled log-likelihood of a candidate kernel L against observed
frequencies q is

    Lhat(L) = sum_J q_J log det(L_J) - log det(I+L),

and its gradient is sum_J q_J pad(L_J^{-1}) - (I+L)^{-1}.  Both are
taken over the full table of 2^n masks by one forward pass of the
all-minors recursion in `minors` and its adjoint.  Since det(I+L) =
sum_J det L_J, the normalizer is a logsumexp of the same
log-determinants, and the gradient is one adjoint sweep with weights
q_J - p_J, p_J = det L_J / det(I+L); I+L is never factored.  q_J = 0
terms add exactly zero, but any nonpositive minor, observed or not,
makes the value -inf.  The objective is invariant under sign
conjugation, so estimates are only meaningful up to the sign orbit and
performance is measured by the orbit loss min_D ||Lhat - D Lstar D||_F.

Optimization runs over a Cholesky factor with log-parametrized diagonal
(positivity for free), ascending by BFGS with a backtracking line
search.  Near the optimum, where f = -Lhat no longer resolves the
Armijo decrease, a step is accepted on the approximate Wolfe test of
Hager & Zhang (SIAM J. Optim. 16, 2005), and a step too small to move
the parameters ends the search.  After each accepted step the spectrum
of the correlation kernel is clipped into a compact box [alpha, beta]
so degenerate frequency tables cannot push the iterates to the
boundary of the cone.

Fits start from the moment-matched kernel and its sign-corrected
variant (cycle signs from triple moments; Urschel et al., ICML 2017),
both read from one `minors.superset_sums` of the frequencies at any n.

Every fit is one lockstep batch: all restarts of `fit_mle`, and all
replicates x restarts of one sample size in `estimate_risk`, iterate
together (Nocedal & Wright, "Numerical Optimization", ch. 6 and 3.1),
each member with its own parameters, inverse Hessian, step and stop
state, and each objective call is one stacked recursion over the
members still searching.  No operation mixes members, so a member's
fit is bitwise the same alone, in any batch, or in any chunk.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import minors, rngs
from .errors import GroundSetTooLarge, LikelihoodDecrease, SingularInformation
from .geometry import hessian_matrix
from .kernels import (DeterminantalGraph, Kernel, conjugate_by_signs,
                      determinantal_graph, k_to_l, symmetrize)
from .model import DppTable, EmpiricalTable, build_table, empirical_table, sample

#: Exhaustive sign-orbit enumeration cap.
MAX_SIGN_ENUM_N = 20

#: Roundoff allowance, in units of max(1, |f|), under which a line-search
#: candidate that fails Armijo may pass the approximate Wolfe test.
_WOLFE_SLACK = 8 * np.finfo(float).eps

#: Members fitted in lockstep at once are capped at this many masks in
#: all (members x 2^n), which bounds the kept Schur stacks: 8 members at
#: n = 14, one from n = 17 on.
_FIT_CHUNK_MASKS = 2 ** 17

#: Sign vectors scored per batch in sign_orbit_loss (n=18: ~2.6 MB each
#: for the stacked differences).
_SIGN_CHUNK = 1024


@dataclass(frozen=True)
class MleConfig:
    """Optimizer settings; spectral_box bounds the correlation-kernel
    eigenvalues, keeping iterates in a compact set."""

    spectral_box: tuple = (1e-4, 1.0 - 1e-4)
    restarts: int = 6
    max_iters: int = 2000
    grad_tol: float = 1e-8
    init_jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        a, b = self.spectral_box
        if not (0.0 < a < b < 1.0):
            raise ValueError(f"spectral_box must satisfy 0 < alpha < beta < 1, got {self.spectral_box}")
        for name in ("restarts", "max_iters"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not 0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol!r}")
        if not math.isfinite(self.init_jitter):
            raise ValueError(f"init_jitter must be finite, got {self.init_jitter!r}")

    @classmethod
    def from_json(cls, obj) -> "MleConfig":
        if isinstance(obj, str):
            obj = json.loads(obj)
        kwargs = dict(obj)
        if "spectral_box" in kwargs:
            kwargs["spectral_box"] = tuple(kwargs["spectral_box"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "spectral_box": list(self.spectral_box),
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "grad_tol": self.grad_tol,
            "init_jitter": self.init_jitter,
            "seed": self.seed,
        }


def empirical_log_likelihood(freqs: EmpiricalTable, kernel: Kernel) -> float:
    if kernel.n != freqs.n:
        raise ValueError("ground-set sizes differ")
    values, _ = _Objective(freqs.freqs[None]).evaluate(kernel.matrix[None], [0])
    return float(values[0])


def likelihood_gradient(freqs: EmpiricalTable, kernel: Kernel) -> np.ndarray:
    """Gradient matrix G with directional derivative Tr(G H) along H:
    the frequency-weighted padded inverse minors minus (I+L)^{-1}."""
    if kernel.n != freqs.n:
        raise ValueError("ground-set sizes differ")
    obj = _Objective(freqs.freqs[None])
    _, point = obj.evaluate(kernel.matrix[None], [0])
    return obj.gradient(point, np.arange(1))[0]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each the BLAS dot of a 1-D `a @ b`, on
    C-ordered copies: the summation order follows the layout."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


class _Objective:
    """The scaled log-likelihood of a batch of kernels, member i scored
    against row i of the (B, 2^n) frequencies.

    The value is one forward pass of the all-minors recursion: sum_J q_J
    log det L_J minus log det(I+L), taken as the logsumexp of the same
    log-determinants since det(I+L) = sum_J det L_J.  So the gradient is
    one adjoint sweep with weights q_J - p_J, p_J = det L_J / det(I+L),
    and needs no factorization of I+L."""

    def __init__(self, freqs: np.ndarray):
        self.freqs = np.asarray(freqs, dtype=float)

    def evaluate(self, matrices: np.ndarray, members):
        """(values of the kernels of `members`, the point `gradient`
        reads); -inf where some principal minor is not positive."""
        logdets, ok, stacks = minors._schur_pass(matrices, keep=True)
        q = self.freqs[members]
        with np.errstate(all="ignore"):
            top = logdets.max(axis=1)
            log_z = top + np.log(np.exp(logdets - top[:, None]).sum(axis=1))
            values = _rowdot(logdets, q) - log_z
        values[~(ok & np.isfinite(values))] = -np.inf
        return values, (stacks, logdets, log_z, q)

    def gradient(self, point, which: np.ndarray) -> np.ndarray:
        """Gradients at the members `which` (indices into the evaluated
        batch) of a point whose values are finite."""
        stacks, logdets, log_z, q = point
        if len(which) < len(q):
            stacks = [s[which] for s in stacks]
            logdets, log_z, q = logdets[which], log_z[which], q[which]
        return minors._logdet_adjoint(stacks, q - np.exp(logdets - log_z[:, None]))


# --- Cholesky-factor parametrization -------------------------------------

@functools.lru_cache(maxsize=minors.MAX_ENUM_N + 1)
def _strict_lower(n: int):
    """np.tril_indices(n, -1), built once per n and read-only, since
    every caller gets the same arrays."""
    rows, cols = np.tril_indices(n, k=-1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _theta_from_matrix(matrices: np.ndarray) -> np.ndarray:
    c = np.linalg.cholesky(matrices)
    n = matrices.shape[1]
    diag = np.arange(n)
    return np.concatenate([np.log(c[:, diag, diag]), c[(slice(None), *_strict_lower(n))]],
                          axis=1)


def _matrix_from_theta(theta: np.ndarray, n: int):
    c = np.zeros((theta.shape[0], n, n))
    diag = np.arange(n)
    with np.errstate(over="ignore"):
        c[:, diag, diag] = np.exp(np.clip(theta[:, :n], -200, 200))
    c[(slice(None), *_strict_lower(n))] = theta[:, n:]
    return c @ c.transpose(0, 2, 1), c


def _theta_grad(grad_l: np.ndarray, c: np.ndarray) -> np.ndarray:
    gc = 2.0 * grad_l @ c
    n = c.shape[1]
    diag = np.arange(n)
    return np.concatenate([gc[:, diag, diag] * c[:, diag, diag],
                           gc[(slice(None), *_strict_lower(n))]], axis=1)


def _project_box(matrices: np.ndarray, box: tuple):
    """Clip each kernel's spectrum so the correlation-kernel eigenvalues
    stay inside [alpha, beta]: (kernels, projected flags), a member
    already inside left as it is."""
    alpha, beta = box
    lo, hi = alpha / (1.0 - alpha), beta / (1.0 - beta)
    w, v = np.linalg.eigh(matrices)
    projected = ~((w[:, 0] >= lo) & (w[:, -1] <= hi))
    out = matrices.copy()
    if projected.any():
        vp = v[projected]
        clipped = (vp * np.clip(w[projected], lo, hi)[:, None, :]) @ vp.transpose(0, 2, 1)
        out[projected] = (clipped + clipped.transpose(0, 2, 1)) / 2.0
    return out, projected


@dataclass
class MleResult:
    estimate: Kernel
    log_likelihood: float
    iterations: int
    converged: bool
    restart_index: int
    gradient_norm: float

    def to_json(self) -> str:
        return json.dumps({
            "n": self.estimate.n,
            "estimate": [float(x) for x in self.estimate.matrix.ravel()],
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "restart_index": self.restart_index,
            "gradient_norm": self.gradient_norm,
        })


def _line_search(obj, members, theta, fval, d, dg, n: int, config: MleConfig):
    """Backtracking from step 1 along d, every member at once with its
    own step.  Returns the accepted flags and, for the accepted members
    in order, their new theta, kernel, log-likelihood, gradient of the
    negated objective, and whether the box moved them."""
    size = len(members)
    step = np.ones(size)
    searching = np.ones(size, dtype=bool)
    accepted = np.zeros(size, dtype=bool)
    projected = np.zeros(size, dtype=bool)
    theta_new = np.empty_like(theta)
    matrix_new = np.empty((size, n, n))
    f_acc = np.empty(size)
    g_new = np.empty_like(theta)
    slack = _WOLFE_SLACK * np.maximum(1.0, np.abs(fval))
    while searching.any():
        idx = np.flatnonzero(searching & (step >= 1e-14))
        cand = theta[idx] + step[idx, None] * d[idx]
        moves = ~np.all(cand == theta[idx], axis=1)   # else the step no longer moves theta
        idx, cand = idx[moves], cand[moves]
        searching[:] = False
        searching[idx] = True
        cand_matrix, cand_c = _matrix_from_theta(cand, n)
        finite = np.isfinite(cand_matrix).all(axis=(1, 2))
        idx, cand = idx[finite], cand[finite]
        cand_matrix, cand_c = cand_matrix[finite], cand_c[finite]
        proj_matrix, proj = _project_box(cand_matrix, config.spectral_box)
        values, point = obj.evaluate(proj_matrix, members[idx])
        f_new, f_old = -values, -fval[idx]
        valid = np.isfinite(f_new)
        take_proj = valid & proj & (f_new < f_old)
        armijo = valid & ~proj & (f_new <= f_old + 1e-4 * step[idx] * dg[idx])
        # f no longer resolves the Armijo decrease: accept on the slope
        # instead (approximate Wolfe, Hager & Zhang)
        near = valid & ~proj & ~armijo & (f_new <= f_old + slack[idx])
        ask = np.flatnonzero(armijo | near)
        g_cand = -_theta_grad(obj.gradient(point, ask), cand_c[ask])
        slope = _rowdot(d[idx[ask]], g_cand)
        take = armijo[ask] | ((0.9 * dg[idx[ask]] <= slope) & (slope <= -0.8 * dg[idx[ask]]))
        ask, g_cand = ask[take], g_cand[take]
        done = idx[ask]
        theta_new[done], matrix_new[done] = cand[ask], cand_matrix[ask]
        f_acc[done], g_new[done] = -f_new[ask], g_cand
        accepted[done] = True
        done = idx[take_proj]
        matrix_new[done] = proj_matrix[take_proj]
        accepted[done] = projected[done] = True
        searching &= ~accepted
        step[searching] *= 0.5
    # a projected point is refactored, which may perturb its value by
    # roundoff, so it gets a fresh evaluation
    done = np.flatnonzero(projected)
    if done.size:
        theta_new[done] = _theta_from_matrix(matrix_new[done])
        matrix_new[done], c = _matrix_from_theta(theta_new[done], n)
        f_acc[done], point = obj.evaluate(matrix_new[done], members[done])
        g_new[done] = -_theta_grad(obj.gradient(point, np.arange(done.size)), c)
    return (accepted, theta_new[accepted], matrix_new[accepted], f_acc[accepted],
            g_new[accepted], projected[accepted])


def _lockstep(obj, starts: np.ndarray, members: np.ndarray, config: MleConfig):
    """BFGS ascent from each start, one iteration of every live member
    per pass; (kernels, log-likelihoods, iterations, converged, gradient
    norms).  Each member keeps its own theta, value, gradient, inverse
    Hessian and stop state, so its result does not depend on the rest
    of the batch."""
    n = starts.shape[1]
    theta = _theta_from_matrix(starts)
    matrix, c = _matrix_from_theta(theta, n)
    fval, point = obj.evaluate(matrix, members)
    g = -_theta_grad(obj.gradient(point, np.arange(len(members))), c)  # of the negated objective
    eye = np.eye(theta.shape[1])
    h_inv = np.repeat(eye[None], len(members), axis=0)
    iterations = np.zeros(len(members), dtype=int)
    converged = np.zeros(len(members), dtype=bool)
    live = np.arange(len(members))
    for _ in range(config.max_iters):
        gl = g[live]
        done = np.sqrt(_rowdot(gl, gl)) <= config.grad_tol
        converged[live[done]] = True
        live, gl = live[~done], gl[~done]
        if not live.size:
            break
        d = -(h_inv[live] @ gl[:, :, None])[:, :, 0]
        dg = _rowdot(d, gl)
        stale = dg >= 0.0                 # stale curvature; restart from steepest
        h_inv[live[stale]] = eye
        d[stale] = -gl[stale]
        dg[stale] = _rowdot(d[stale], gl[stale])
        accepted, theta_new, matrix_new, f_acc, g_new, projected = _line_search(
            obj, members[live], theta[live], fval[live], d, dg, n, config)
        live = live[accepted]             # a failed line search stops its member
        drop = ~(f_acc >= fval[live] - 1e-9 * np.maximum(1.0, np.abs(fval[live])))
        if drop.any():
            k = int(np.argmax(drop))
            raise LikelihoodDecrease(f"line search accepted a decrease in likelihood: "
                                     f"{float(fval[live[k]])!r} -> {float(f_acc[k])!r}")
        s = theta_new - theta[live]
        y = g_new - g[live]
        sy = _rowdot(s, y)
        reset = projected | (sy <= 1e-12 * np.sqrt(_rowdot(s, s)) * np.sqrt(_rowdot(y, y)))
        h_inv[live[reset]] = eye
        upd, s, y, rho = live[~reset], s[~reset], y[~reset], (1.0 / sy[~reset])[:, None, None]
        v = eye - rho * (s[:, :, None] * y[:, None, :])
        h_inv[upd] = v @ h_inv[upd] @ v.transpose(0, 2, 1) + rho * (s[:, :, None] * s[:, None, :])
        theta[live], matrix[live] = theta_new, matrix_new
        fval[live], g[live] = f_acc, g_new
        iterations[live] += 1
    gnorm = np.sqrt(_rowdot(g, g))
    return matrix, fval, iterations, converged | (gnorm <= config.grad_tol), gnorm


def _fit_batch(obj, starts: np.ndarray, config: MleConfig):
    """`_lockstep` over every start, member i against the objective's
    row i, in chunks of at most _FIT_CHUNK_MASKS masks in all."""
    size = max(1, _FIT_CHUNK_MASKS >> starts.shape[1])
    parts = [_lockstep(obj, starts[lo:lo + size],
                       np.arange(lo, min(lo + size, len(starts))), config)
             for lo in range(0, len(starts), size)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _starts(freqs: EmpiricalTable, config: MleConfig) -> np.ndarray:
    """The (restarts, n, n) starting kernels of a fit.

    Restart 0 is the moment-matched kernel and restart 1 its
    sign-corrected variant (at any n >= 3, when it differs); later restarts add
    symmetric jitter of escalating scale around the anchors, drawn from
    per-restart deterministic streams, so a run with more restarts
    reuses the earlier starts exactly.
    """
    anchors = [moment_init(freqs, config.spectral_box).matrix]
    signed = _sign_corrected_init(freqs, config.spectral_box)
    if signed is not None:
        anchors.append(signed.matrix)
    scale = float(np.abs(np.diag(anchors[0])).mean())
    starts = anchors[:config.restarts]
    for r in range(len(anchors), config.restarts):
        base = anchors[r % len(anchors)]
        step = 1 + (r - len(anchors)) // len(anchors)
        noise = rngs.stream(config.seed, rngs.RESTART_STREAM, r).normal(size=base.shape)
        start = base + step * config.init_jitter * scale * symmetrize(noise)
        starts.append(_project_box(symmetrize(start)[None], config.spectral_box)[0][0])
    return np.array(starts)


def _fit_tables(tables: list, config: MleConfig) -> list:
    """The best restart of each table's fit, every restart of every
    table fitted as one batch."""
    r = config.restarts
    obj = _Objective(np.repeat([t.freqs for t in tables], r, axis=0))
    matrices, fvals, iterations, converged, gnorms = _fit_batch(
        obj, np.concatenate([_starts(t, config) for t in tables]), config)
    results = []
    for lo in range(0, len(obj.freqs), r):
        best = lo + int(np.argmax(fvals[lo:lo + r]))     # the first of equal maxima
        results.append(MleResult(estimate=Kernel(symmetrize(matrices[best])),
                                 log_likelihood=float(fvals[best]),
                                 iterations=int(iterations[best]),
                                 converged=bool(converged[best]), restart_index=best - lo,
                                 gradient_norm=float(gnorms[best])))
    return results


def fit_mle(freqs: EmpiricalTable, config: MleConfig) -> MleResult:
    """Best local maximum of the empirical likelihood over
    `config.restarts` starts (the moment-matched kernel, its
    sign-corrected variant, then jittered copies; see `_starts`), all
    fitted as one lockstep batch.  The first of equal maxima wins."""
    return _fit_tables([freqs], config)[0]


def _moment_correlation(freqs: EmpiricalTable) -> np.ndarray:
    """Correlation-kernel estimate from first and second inclusion
    moments: exact diagonal, nonnegative off-diagonal magnitudes."""
    incl = minors.superset_sums(freqs.freqs)
    bits = 1 << np.arange(freqs.n)
    single, pair = incl[bits], incl[bits[:, None] | bits[None, :]]
    prod = single[:, None] * single[None, :]
    gap = prod - pair
    # cancellation roundoff would otherwise leak through the sqrt
    k_hat = np.sqrt(np.where(gap > 1e-12 * np.maximum(prod, pair), gap, 0.0))
    np.fill_diagonal(k_hat, single)
    return k_hat


def _clip_to_kernel(k_hat: np.ndarray, spectral_box: tuple) -> Kernel:
    alpha, beta = spectral_box
    w, v = np.linalg.eigh(k_hat)
    wc = np.clip(w, alpha, beta)
    return k_to_l(symmetrize((v * wc) @ v.T))


def moment_init(freqs: EmpiricalTable, spectral_box: tuple = (1e-4, 1.0 - 1e-4)) -> Kernel:
    """Kernel built from first and second inclusion moments.

    Diagonal of the correlation kernel comes from singleton inclusion
    frequencies; off-diagonal magnitudes from pair inclusions, with
    nonnegative signs.  The spectrum is clipped into the box, so the
    output is always a valid kernel.
    """
    return _clip_to_kernel(_moment_correlation(freqs), spectral_box)


def _sign_corrected_init(freqs: EmpiricalTable, spectral_box: tuple) -> Kernel | None:
    """Moment kernel with off-diagonal signs recovered from triple
    inclusion moments.

    Sign patterns are identified only up to conjugation, and the
    conjugation class is pinned by the cycle products K_ij K_jk K_ik.
    Each product is solved from det(K_{ijk}) = P[{i,j,k} in Z]; rooting
    the assignment at index 0 (entries K_0i taken nonnegative) realizes
    the estimated class.  The triples are entries of the superset sums,
    at any n; None for n < 3 or when no sign changes.
    """
    n = freqs.n
    if n < 3:
        return None
    k_hat = _moment_correlation(freqs)
    bits = 1 << np.arange(n)
    triple = minors.superset_sums(freqs.freqs)[1 | bits[:, None] | bits[None, :]]
    d, root = np.diag(k_hat), k_hat[0]
    # entry (i, j) solves the cycle product of {0, i, j}
    diag = d[0] * d[:, None] * d[None, :]
    cross = d[0] * k_hat ** 2 + d[:, None] * root[None, :] ** 2 + d[None, :] * root[:, None] ** 2
    cycle = (triple - diag + cross) / 2.0
    linked = (root > 1e-8) & (np.arange(n) > 0)     # i > 0 with K_0i resolved
    flip = np.triu(linked[:, None] & linked[None, :] & (k_hat > 1e-8) & (cycle < 0), 1)
    if not flip.any():
        return None
    return _clip_to_kernel(np.where(flip | flip.T, -k_hat, k_hat), spectral_box)


# --- Sign-orbit loss -------------------------------------------------------

@dataclass
class LossValue:
    """Minimum Frobenius distance to the sign orbit, with the minimizing
    sign vector (first index fixed at +1; lexicographic tie-break)."""

    value: float
    argmin_signs: np.ndarray


def sign_orbit_loss(l_hat: Kernel, l_star: Kernel) -> LossValue:
    a, b = l_hat.matrix, l_star.matrix
    n = l_hat.n
    if l_star.n != n:
        raise ValueError("ground-set sizes differ")
    if n > MAX_SIGN_ENUM_N:
        raise GroundSetTooLarge(
            f"exhaustive sign enumeration capped at n={MAX_SIGN_ENUM_N}, got {n}")
    # codes in the order of sign_vectors(n, fix_first=True): bit n-1-i of
    # the code flips sign i, for i >= 1
    shifts = np.arange(n - 2, -1, -1)
    best_val, best_signs = None, None
    for start in range(0, 2 ** (n - 1), _SIGN_CHUNK):
        codes = np.arange(start, min(start + _SIGN_CHUNK, 2 ** (n - 1)))
        signs = np.ones((codes.size, n))
        signs[:, 1:] -= 2.0 * ((codes[:, None] >> shifts) & 1)
        diff = a - signs[:, :, None] * signs[:, None, :] * b
        vals = np.sqrt((diff * diff).sum(axis=(1, 2)))
        k = int(np.argmin(vals))       # first minimum, as a strict < scan
        if best_val is None or vals[k] < best_val:
            best_val, best_signs = float(vals[k]), signs[k].copy()
    return LossValue(value=best_val, argmin_signs=best_signs)


@dataclass
class BlockwiseLoss:
    """Frobenius loss split by block structure, both restrictions taken
    at the single sign vector minimizing the full loss."""

    within: float
    cross: float
    signs: np.ndarray


def _split_by_blocks(diff: np.ndarray, graph: DeterminantalGraph):
    same = graph.same_component()
    within = float(np.sqrt((diff[same] ** 2).sum()))
    cross = float(np.sqrt((diff[~same] ** 2).sum()))
    return within, cross


def blockwise_loss(l_hat: Kernel, l_star: Kernel,
                   graph: DeterminantalGraph) -> BlockwiseLoss:
    full = sign_orbit_loss(l_hat, l_star)
    s = full.argmin_signs
    diff = l_hat.matrix - conjugate_by_signs(l_star.matrix, s)
    within, cross = _split_by_blocks(diff, graph)
    return BlockwiseLoss(within=within, cross=cross, signs=s)


# --- Monte Carlo risk ------------------------------------------------------

@dataclass
class RiskEstimate:
    """Replicated Monte Carlo estimate of the expected orbit loss."""

    sample_size: int
    replicates: int
    mean_loss: float
    std_error: float
    losses: np.ndarray
    within: np.ndarray
    cross: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    seed: int

    @property
    def median_loss(self) -> float:
        return float(np.median(self.losses))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["replicate", "loss", "within", "cross", "converged", "iterations"])
        for r in range(self.replicates):
            w.writerow([r, repr(float(self.losses[r])), repr(float(self.within[r])),
                        repr(float(self.cross[r])), int(self.converged[r]),
                        int(self.iterations[r])])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "sample_size": self.sample_size,
            "replicates": self.replicates,
            "mean_loss": self.mean_loss,
            "std_error": self.std_error,
            "median_loss": self.median_loss,
            "mean_within": float(self.within.mean()),
            "mean_cross": float(self.cross.mean()),
            "median_cross": float(np.median(self.cross)),
            "seed": self.seed,
        }


def estimate_risk(l_star: Kernel, sample_size: int, replicates: int,
                  config: MleConfig, seed: int, *, estimator=None,
                  table: DppTable | None = None) -> RiskEstimate:
    """Mean orbit loss over independent replicates.

    Replicate r draws its batch from the stream (seed, r), fits (or
    applies the injected estimator), and scores against the truth, so
    the first k replicates do not depend on how many follow.
    """
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    if table is None:
        table = build_table(l_star)
    graph = determinantal_graph(l_star)
    tables = [empirical_table(sample(table, sample_size, seed,
                                     stream_path=(rngs.REPLICATE_STREAM, r)))
              for r in range(replicates)]
    if estimator is None:
        fits = [(res.estimate, res.converged, res.iterations)
                for res in _fit_tables(tables, config)]
    else:
        fits = [(estimator(freqs), True, 0) for freqs in tables]
    losses = np.zeros(replicates)
    within = np.zeros(replicates)
    cross = np.zeros(replicates)
    converged = np.zeros(replicates, dtype=bool)
    iterations = np.zeros(replicates, dtype=int)
    for r, (l_hat, conv, iters) in enumerate(fits):
        full = sign_orbit_loss(l_hat, l_star)
        diff = l_hat.matrix - conjugate_by_signs(l_star.matrix, full.argmin_signs)
        losses[r] = full.value
        within[r], cross[r] = _split_by_blocks(diff, graph)
        converged[r] = conv
        iterations[r] = iters
    return RiskEstimate(sample_size=sample_size, replicates=replicates,
                        mean_loss=float(losses.mean()),
                        std_error=float(losses.std(ddof=1) / np.sqrt(replicates)),
                        losses=losses, within=within, cross=cross,
                        converged=converged, iterations=iterations, seed=seed)


def asymptotic_covariance(l_star: Kernel) -> np.ndarray:
    """Inverse of the information form (minus the Hessian coordinate
    matrix); defined only for irreducible kernels."""
    form = hessian_matrix(build_table(l_star))
    info_eigs = -form.eigenvalues[::-1]
    if info_eigs[0] <= 1e-10:
        raise SingularInformation(
            f"information form has smallest eigenvalue {info_eigs[0]:.3e}; "
            "kernel is reducible or nearly so")
    v = form.eigenvectors[:, ::-1]
    cov = (v / info_eigs) @ v.T
    return symmetrize(cov)
