"""Maximum-likelihood estimation of a kernel from observed subsets.

The scaled log-likelihood of a candidate kernel L against observed
frequencies q is

    Lhat(L) = sum_J q_J log det(L_J) - log det(I+L),

and its gradient is sum_J q_J pad(L_J^{-1}) - (I+L)^{-1}.  Both are
taken over the full table of 2^n masks by one forward pass of the
all-minors recursion in `minors` and its adjoint, so q_J = 0 terms add
exactly zero, but any nonpositive minor, observed or not, makes the
value -inf.  The objective is invariant under sign conjugation, so
estimates are only meaningful up to the sign orbit and performance is
measured by the orbit loss min_D ||Lhat - D Lstar D||_F.

Optimization runs over a Cholesky factor with log-parametrized diagonal
(positivity for free), ascending by BFGS with a backtracking line
search.  Near the optimum, where f = -Lhat no longer resolves the
Armijo decrease, a step is accepted on the approximate Wolfe test of
Hager & Zhang (SIAM J. Optim. 16, 2005), and a step too small to move
the parameters ends the search.  After each accepted step the spectrum
of the correlation kernel is clipped into a compact box [alpha, beta]
so degenerate frequency tables cannot push the iterates to the
boundary of the cone.
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
    obj = _Objective(freqs)
    return obj.value(kernel.matrix)


def likelihood_gradient(freqs: EmpiricalTable, kernel: Kernel) -> np.ndarray:
    """Gradient matrix G with directional derivative Tr(G H) along H:
    the frequency-weighted padded inverse minors minus (I+L)^{-1}."""
    if kernel.n != freqs.n:
        raise ValueError("ground-set sizes differ")
    obj = _Objective(freqs)
    return obj.value_and_grad(kernel.matrix)[1]


class _Objective:
    """The scaled log-likelihood over the full frequency table: the
    forward pass of the all-minors recursion for the value, and its
    adjoint for the gradient."""

    def __init__(self, freqs: EmpiricalTable):
        self.n = freqs.n
        self.freqs = freqs.freqs
        self.eye = np.eye(self.n)

    def value(self, matrix: np.ndarray) -> float:
        with np.errstate(all="ignore"):
            try:
                logdets, _ = minors._schur_pass(matrix)
            except np.linalg.LinAlgError:
                return -np.inf
            sign, log_z = np.linalg.slogdet(self.eye + matrix)
            total = float(logdets @ self.freqs) - float(log_z)
        if sign <= 0 or not np.isfinite(total):
            return -np.inf
        return total

    def value_and_grad(self, matrix: np.ndarray):
        total, grad = minors.weighted_logdet_grad(matrix, self.freqs)
        inv_z = np.linalg.inv(self.eye + matrix)
        sign, log_z = np.linalg.slogdet(self.eye + matrix)
        return total - float(log_z), grad - inv_z


# --- Cholesky-factor parametrization -------------------------------------

@functools.lru_cache(maxsize=minors.MAX_ENUM_N + 1)
def _strict_lower(n: int):
    """np.tril_indices(n, -1), built once per n and read-only, since
    every caller gets the same arrays."""
    rows, cols = np.tril_indices(n, k=-1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _theta_from_matrix(matrix: np.ndarray) -> np.ndarray:
    c = np.linalg.cholesky(matrix)
    n = matrix.shape[0]
    return np.concatenate([np.log(np.diag(c)), c[_strict_lower(n)]])


def _matrix_from_theta(theta: np.ndarray, n: int):
    c = np.zeros((n, n))
    with np.errstate(over="ignore"):
        np.fill_diagonal(c, np.exp(np.clip(theta[:n], -200, 200)))
    c[_strict_lower(n)] = theta[n:]
    return c @ c.T, c


def _theta_grad(grad_l: np.ndarray, c: np.ndarray) -> np.ndarray:
    gc = 2.0 * grad_l @ c
    n = c.shape[0]
    return np.concatenate([np.diag(gc) * np.diag(c), gc[_strict_lower(n)]])


def _project_box(matrix: np.ndarray, box: tuple):
    """Clip the kernel spectrum so the correlation-kernel eigenvalues
    stay inside [alpha, beta]; no-op when already inside."""
    alpha, beta = box
    lo, hi = alpha / (1.0 - alpha), beta / (1.0 - beta)
    w, v = np.linalg.eigh(matrix)
    if w[0] >= lo and w[-1] <= hi:
        return matrix, False
    wc = np.clip(w, lo, hi)
    return symmetrize((v * wc) @ v.T), True


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


def _fit_single(obj: _Objective, start: np.ndarray, config: MleConfig):
    """BFGS ascent from one starting kernel; returns (matrix, loglik,
    iterations, converged, grad_norm)."""
    n = obj.n
    theta = _theta_from_matrix(start)
    matrix, c = _matrix_from_theta(theta, n)
    fval, grad_l = obj.value_and_grad(matrix)
    g = -_theta_grad(grad_l, c)          # gradient of the negated objective
    m = theta.size
    h_inv = np.eye(m)
    iterations = 0
    converged = False
    for _ in range(config.max_iters):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= config.grad_tol:
            converged = True
            break
        d = -h_inv @ g
        dg = float(d @ g)
        if dg >= 0.0:                     # stale curvature; restart from steepest
            h_inv = np.eye(m)
            d = -g
            dg = float(d @ g)
        step = 1.0
        accepted = False
        slope_checked = None
        while step >= 1e-14:
            cand = theta + step * d
            if np.array_equal(cand, theta):   # the step no longer moves theta
                break
            cand_matrix, cand_c = _matrix_from_theta(cand, n)
            if np.isfinite(cand_matrix).all():
                proj_matrix, projected = _project_box(cand_matrix, config.spectral_box)
                f_new = -obj.value(proj_matrix)
                if not np.isfinite(f_new):
                    pass
                elif projected:
                    accepted = f_new < -fval
                elif f_new <= -fval + 1e-4 * step * dg:
                    accepted = True
                elif f_new <= -fval + _WOLFE_SLACK * max(1.0, abs(fval)):
                    # f no longer resolves the Armijo decrease: accept on
                    # the slope instead (approximate Wolfe, Hager & Zhang)
                    f_cand, grad_l = obj.value_and_grad(cand_matrix)
                    g_cand = -_theta_grad(grad_l, cand_c)
                    if 0.9 * dg <= float(d @ g_cand) <= -0.8 * dg:
                        accepted = True
                        slope_checked = (f_cand, g_cand)
                if accepted:
                    break
            step *= 0.5
        if not accepted:
            break
        if projected:
            theta_new = _theta_from_matrix(proj_matrix)
            matrix, c = _matrix_from_theta(theta_new, n)
        else:
            theta_new, matrix, c = cand, cand_matrix, cand_c
        if slope_checked is None:
            f_acc, grad_l = obj.value_and_grad(matrix)
            g_new = -_theta_grad(grad_l, c)
        else:
            f_acc, g_new = slope_checked
        # refactoring a projected point may perturb the value by roundoff
        if not f_acc >= fval - 1e-9 * max(1.0, abs(fval)):
            raise LikelihoodDecrease(
                f"line search accepted a decrease in likelihood: {fval!r} -> {f_acc!r}")
        s = theta_new - theta
        y = g_new - g
        sy = float(s @ y)
        if projected or sy <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            h_inv = np.eye(m)
        else:
            rho = 1.0 / sy
            v = np.eye(m) - rho * np.outer(s, y)
            h_inv = v @ h_inv @ v.T + rho * np.outer(s, s)
        theta, fval, g = theta_new, f_acc, g_new
        iterations += 1
    gnorm = float(np.linalg.norm(g))
    converged = converged or gnorm <= config.grad_tol
    return matrix, fval, iterations, converged, gnorm


def fit_mle(freqs: EmpiricalTable, config: MleConfig) -> MleResult:
    """Best local maximum of the empirical likelihood over restarts.

    Restart 0 starts from the moment-matched kernel and restart 1 from
    its sign-corrected variant (when it differs); later restarts add
    symmetric jitter of escalating scale around the anchors, drawn from
    per-restart deterministic streams, so a run with more restarts
    reuses the earlier starts exactly.
    """
    obj = _Objective(freqs)
    anchors = [moment_init(freqs, config.spectral_box)]
    signed = _sign_corrected_init(freqs, config.spectral_box)
    if signed is not None:
        anchors.append(signed)
    scale = float(np.abs(np.diag(anchors[0].matrix)).mean())
    best = None
    for r in range(config.restarts):
        if r < len(anchors):
            start = anchors[r].matrix
        else:
            base = anchors[r % len(anchors)].matrix
            step = 1 + (r - len(anchors)) // len(anchors)
            gen = rngs.stream(config.seed, rngs.RESTART_STREAM, r)
            noise = gen.normal(size=base.shape)
            start = base + step * config.init_jitter * scale * symmetrize(noise)
            start, _ = _project_box(symmetrize(start), config.spectral_box)
        matrix, fval, iters, conv, gnorm = _fit_single(obj, start, config)
        if best is None or fval > best[1]:
            best = (matrix, fval, iters, conv, gnorm, r)
    matrix, fval, iters, conv, gnorm, r = best
    return MleResult(estimate=Kernel(symmetrize(matrix)), log_likelihood=fval,
                     iterations=iters, converged=conv, restart_index=r,
                     gradient_norm=gnorm)


def _moment_correlation(freqs: EmpiricalTable) -> np.ndarray:
    """Correlation-kernel estimate from first and second inclusion
    moments: exact diagonal, nonnegative off-diagonal magnitudes."""
    n = freqs.n
    masks = np.arange(2 ** n)
    k_hat = np.zeros((n, n))
    incl = np.empty(n)
    for i in range(n):
        has_i = (masks >> i & 1) == 1
        incl[i] = freqs.freqs[has_i].sum()
        k_hat[i, i] = incl[i]
    for i in range(n):
        for j in range(i + 1, n):
            both = ((masks >> i & 1) == 1) & ((masks >> j & 1) == 1)
            pair = freqs.freqs[both].sum()
            gap = incl[i] * incl[j] - pair
            # cancellation roundoff would otherwise leak through the sqrt
            floor = 1e-12 * max(incl[i] * incl[j], pair)
            off = math.sqrt(gap) if gap > floor else 0.0
            k_hat[i, j] = k_hat[j, i] = off
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


#: Ground-set bound for the cubic-moment sign recovery (O(n^2 2^n) scan).
_SIGN_ANCHOR_MAX_N = 12


def _sign_corrected_init(freqs: EmpiricalTable, spectral_box: tuple) -> Kernel | None:
    """Moment kernel with off-diagonal signs recovered from triple
    inclusion moments.

    Sign patterns are identified only up to conjugation, and the
    conjugation class is pinned by the cycle products K_ij K_jk K_ik.
    Each product is solved from det(K_{ijk}) = P[{i,j,k} in Z]; rooting
    the assignment at index 0 (entries K_0i taken nonnegative) realizes
    the estimated class.  None when the ground set is too large for the
    triple-moment scan.
    """
    n = freqs.n
    if n > _SIGN_ANCHOR_MAX_N or n < 3:
        return None
    k_hat = _moment_correlation(freqs)
    masks = np.arange(2 ** n)
    tol = 1e-8
    signed = k_hat.copy()
    for i in range(1, n):
        for j in range(i + 1, n):
            mags = (k_hat[0, i], k_hat[0, j], k_hat[i, j])
            if min(mags) <= tol:
                continue
            sel = ((masks >> 0 & 1) & (masks >> i & 1) & (masks >> j & 1)) == 1
            triple = freqs.freqs[sel].sum()
            diag = k_hat[0, 0] * k_hat[i, i] * k_hat[j, j]
            cross = (k_hat[0, 0] * k_hat[i, j] ** 2
                     + k_hat[i, i] * k_hat[0, j] ** 2
                     + k_hat[j, j] * k_hat[0, i] ** 2)
            cycle = (triple - diag + cross) / 2.0
            if cycle < 0:
                signed[i, j] = signed[j, i] = -k_hat[i, j]
    if np.array_equal(signed, k_hat):
        return None
    return _clip_to_kernel(signed, spectral_box)


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
    losses = np.zeros(replicates)
    within = np.zeros(replicates)
    cross = np.zeros(replicates)
    converged = np.zeros(replicates, dtype=bool)
    iterations = np.zeros(replicates, dtype=int)
    for r in range(replicates):
        batch = sample(table, sample_size, seed, stream_path=(rngs.REPLICATE_STREAM, r))
        freqs = empirical_table(batch)
        if estimator is None:
            res = fit_mle(freqs, config)
            l_hat, conv, iters = res.estimate, res.converged, res.iterations
        else:
            l_hat, conv, iters = estimator(freqs), True, 0
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
