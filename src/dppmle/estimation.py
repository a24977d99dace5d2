"""Maximum-likelihood estimation of a kernel from observed subsets.

The scaled log-likelihood Lhat(L) = sum_J q_J log det(L_J) -
log det(I+L) of a candidate kernel L against observed frequencies q,
its gradient and its Hessian are `geometry`'s (`_Objective`,
`likelihood_derivatives`); this module searches it.  The objective is
invariant under sign conjugation, so estimates are only meaningful up
to the sign orbit and performance is measured by the orbit loss
min_D ||Lhat - D Lstar D||_F.  `sign_orbit_loss` ranks all 2^(n-1)
classes by s^T (Lhat o Lstar) s from two half sign sets in one matrix
product, then scores the classes within a roundoff band of the best
directly, so its value and signs are those of the direct scan.

The fit is damped Newton in the orthonormal symmetric coordinates of L
on the exact observed information, the negated Hessian, which a member
sums unless its last step was below roundoff and solves against only if
it then steps.  The likelihood is not concave (Brunel, Moitra, Rigollet
& Urschel, arXiv:1701.06501), so eigh reflects the eigenvalues of -H and
floors them at 1e-13 of the largest, unless a Cholesky factor certifies
that none is negative or below the floor and solves the step (Higham,
2002, ch. 10); Armijo backtracking from step 1 makes every step a rise
(Nocedal & Wright, ch. 3.4).  A nonpositive minor makes the value -inf,
so iterates stay positive definite; a candidate the spectral box
[alpha, beta] of the correlation kernel moves is taken only if it
rises.  A member stops on `grad_tol`; on `roundoff`, when half the
Newton decrement g^T (-H)^{-1} g is at most 8 eps max(1, |f|), below
what f resolves (Boyd & Vandenberghe, 9.5.1), after one full step taken
unless f falls by more than that; on `line_search`, when no step moves
L; or on `max_iters`.  `grad_tol`, `converged` and `gradient_norm` use
the gradient norm in the log-Cholesky parameters of L = C C^T at the
returned kernel, and nothing else does.

Every fit is one lockstep batch: all restarts of `fit_mle`, and all
sizes x replicates x restarts of a rate study in `estimate_risk`,
iterate together, each member with its own state.  A kernel is
evaluated once: the start, and each line-search candidate, whose value
is kept if it is accepted.  Each objective call and
Newton step (one loop, its derivative pass inside) runs over the
members still searching in member chunks of `minors._chunks`, so memory
does not grow with the batch.  No operation mixes members, so a member's
fit is bitwise the same alone, in any batch and at any chunk budget; one
failing fit fails the batch, and a rate study then has no row.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import minors, rngs
from .errors import SingularInformation
from .geometry import _Objective, _rowdot, hessian_matrix
from .kernels import (DeterminantalGraph, Kernel, _coordinate_layout, conjugate_by_signs,
                      coords_to_sym, determinantal_graph, k_to_l, sym_to_coords,
                      symmetric_dim, symmetrize)
from .model import EmpiricalTable, build_table, csv_text, empirical_table, sample

#: Why a fit member stopped (see the module docstring).
STOP_REASONS = ("grad_tol", "roundoff", "line_search", "max_iters")
_GRAD_TOL, _ROUNDOFF, _LINE_SEARCH, _MAX_ITERS = range(4)

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_ROUNDOFF_SLACK = 8 * _EPS          # what f resolves, in units of max(1, |f|)

#: Coordinates m from which `_ascent_steps` tries Cholesky: a step took 32.2 / 34.5 / 71 us
#: by eigh, 34.8 / 35.8 / 63 by Cholesky at m = 6 / 10 / 15 (medians of 21, one BLAS thread).
_CHOLESKY_DIM = 10

#: Candidate sign vectors rescored per slice in sign_orbit_loss (n=20:
#: ~3.3 MB for the stacked differences); a diagonal truth makes all
#: 2^(n-1) classes candidates.
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
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name in ("grad_tol", "init_jitter"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
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
        return {**asdict(self), "spectral_box": list(self.spectral_box)}


def empirical_log_likelihood(freqs: EmpiricalTable, kernel: Kernel) -> float:
    if kernel.n != freqs.n:
        raise ValueError("ground-set sizes differ")
    return float(_Objective(freqs.freqs[None]).evaluate(kernel.matrix[None], [0])[0])


# --- Newton step -----------------------------------------------------------

def _theta_norm(grad_l: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Norms of the gradients in the log-Cholesky parameters theta of
    L = C C^T, given the factors c (log of diag C, then the strict lower
    triangle), the measure `grad_tol` and `converged` are stated in."""
    rows, cols, _ = _coordinate_layout(c.shape[1])
    # the diagonal, then the strict lower triangle as the transposed upper
    g = 2.0 * (grad_l @ c)[:, cols, rows]
    g[:, :c.shape[1]] *= np.diagonal(c, axis1=1, axis2=2)
    return np.sqrt(_rowdot(g, g))


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
    stop_reason: str

    def to_dict(self) -> dict:
        return {"n": self.estimate.n, "estimate": [float(x) for x in self.estimate.matrix.ravel()],
                **{name: value for name, value in vars(self).items() if name != "estimate"}}


def _line_search(obj, members, matrix, fval, direction, slope, flat, config: MleConfig):
    """Backtracking from step 1 along each member's direction, every
    member at once with its own step, on the Armijo rise
    f(L + tD) >= f(L) + 1e-4 t slope, until the step no longer moves L;
    a candidate the box moves is taken only if it rises.  Where f cannot
    resolve the predicted rise (`flat`), only the full step is tried,
    and it is taken unless f falls by more than the roundoff slack.
    Returns the accepted flags, and the accepted members' values and
    kernels, in order, from which the next Newton step goes on."""
    floor = np.where(flat, 1.0, 1e-14)
    slack = np.where(flat, _ROUNDOFF_SLACK * np.maximum(1.0, np.abs(fval)), 0.0)
    step = np.ones(len(members))
    accepted = np.zeros(len(members), dtype=bool)
    values, kernels = np.empty(len(members)), np.empty_like(matrix)
    idx = np.arange(len(members))
    while True:
        idx = idx[step[idx] >= floor[idx]]
        cand = matrix[idx] + step[idx, None, None] * direction[idx]
        moves = ~np.all(cand == matrix[idx], axis=(1, 2))
        idx, cand = idx[moves], cand[moves]
        if not idx.size:
            return accepted, values[accepted], kernels[accepted]
        cand, projected = _project_box(cand, config.spectral_box)
        value = obj.evaluate(cand, members[idx])
        rise = value - fval[idx]
        take = np.isfinite(value) & np.where(
            projected, rise > 0, rise >= 1e-4 * step[idx] * slope[idx] - slack[idx])
        values[idx[take]], kernels[idx[take]] = value[take], cand[take]
        accepted[idx[take]] = True
        idx = idx[~take]
        step[idx] *= 0.5


def _ascent_steps(info: np.ndarray, grad: np.ndarray):
    """(Newton decrements g^T A^+ g, steps A^+ g) of informations A = -H
    (k, m, m) and gradients g (k, m), A^+ the inverse with eigenvalues
    reflected and floored at 1e-13 of the largest.  From m = _CHOLESKY_DIM
    a Cholesky factor C with 1/||C^-1||_F^2 (<= the least eigenvalue) >=
    1e-13 max_i sum_j |A_ij| (>= 1e-13 of the largest) certifies that no
    eigenvalue needs either, and the member takes y = C^-1 g, y^T y and
    C^-T y.  A member's path and bits do not depend on the batch."""
    k, m = grad.shape
    decrement, step, certified = np.empty(k), np.empty((k, m)), np.zeros(k, dtype=bool)
    if m >= _CHOLESKY_DIM:
        try:
            inverses = np.linalg.inv(np.linalg.cholesky(info))
        except np.linalg.LinAlgError:       # each member alone; NaN is never certified
            inverses = np.full_like(info, np.nan)
            for i in range(k):
                with contextlib.suppress(np.linalg.LinAlgError):
                    inverses[i] = np.linalg.inv(np.linalg.cholesky(info[i]))
        frobenius = _rowdot(inverses.reshape(k, m * m), inverses.reshape(k, m * m))
        certified = 1e-13 * np.abs(info).sum(axis=2).max(axis=1) * frobenius <= 1.0
        y = (inverses[certified] @ grad[certified][:, :, None])[:, :, 0]
        decrement[certified] = _rowdot(y, y)
        step[certified] = (y[:, None, :] @ inverses[certified])[:, 0]
    if not certified.all():
        w, v = np.linalg.eigh(info[~certified])
        w = np.maximum(np.abs(w), 1e-13 * np.abs(w).max(axis=1, keepdims=True))
        z = (grad[~certified][:, None, :] @ v)[:, 0] / np.sqrt(w)
        decrement[~certified] = _rowdot(z, z)
        step[~certified] = ((z / np.sqrt(w))[:, None, :] @ v.transpose(0, 2, 1))[:, 0]
    return decrement, step


def _newton(obj, matrices: np.ndarray, members: np.ndarray, flat: np.ndarray, grad_tol: float):
    """(gradient norms by `_theta_norm`, Newton decrements, ascent
    directions) of the kernels of `members`, the last two zero, and no
    step solved, for a member at `grad_tol` or `flat`, and no Gram summed
    or Hessian formed for a `flat` one; in one loop over member chunks,
    a member taking its bordering work, `minors._pass_floats(n)`, plus
    about 4 m^2 floats of Gram, Hessian and the step's Cholesky or eigh,
    m = n(n+1)/2, so no pass or Hessian spans the batch."""
    b, n = matrices.shape[0], matrices.shape[1]
    gnorm, decrement, direction = np.empty(b), np.zeros(b), np.zeros((b, n, n))
    for at in minors._chunks(b, minors._pass_floats(n) + 4 * symmetric_dim(n) ** 2):
        grad, hess = obj.derivatives(matrices[at], members[at], ~flat[at])
        gnorm[at] = _theta_norm(grad, np.linalg.cholesky(matrices[at]))
        go = ~(gnorm[at] <= grad_tol) & ~flat[at]
        decrement[at][go], step = _ascent_steps(-hess[go[~flat[at]]], sym_to_coords(grad[go]))
        direction[at][go] = coords_to_sym(step, n)
    return gnorm, decrement, direction


def _lockstep(obj, starts: np.ndarray, config: MleConfig):
    """Damped Newton ascent from each start, member i scored as the
    objective's member i, one iteration of every live member per pass;
    (kernels, log-likelihoods, iterations, converged, gradient norms,
    stop codes indexing STOP_REASONS).  Each member keeps its own
    kernel, value and stop state, so its result does not depend on the
    rest of the batch.  Only the starts are evaluated here: a step goes
    on from the value and kernel that `_line_search` accepted."""
    matrix = np.array(starts, dtype=float)
    live = np.arange(len(matrix))                   # members still searching
    fval = obj.evaluate(matrix, live)
    iterations = np.zeros(len(live), dtype=int)
    gnorm = np.zeros(len(live))
    stop = np.full(len(live), _MAX_ITERS)
    flat = np.zeros(len(live), dtype=bool)          # the last step was below roundoff
    for _ in range(config.max_iters):
        gnorm[live], decrement, direction = _newton(obj, matrix[live], live, flat[live],
                                                    config.grad_tol)
        done = gnorm[live] <= config.grad_tol
        stop[live[done]] = _GRAD_TOL
        stop[live[~done & flat[live]]] = _ROUNDOFF
        keep = np.flatnonzero(~done & ~flat[live])
        live, decrement, direction = live[keep], decrement[keep], direction[keep]
        if not live.size:
            break
        # below what f resolves, a member takes the full step once and stops
        flat[live] = decrement / 2.0 <= _ROUNDOFF_SLACK * np.maximum(1.0, np.abs(fval[live]))
        accepted, values, kernels = _line_search(obj, live, matrix[live], fval[live],
                                                 direction, decrement, flat[live], config)
        stop[live[~accepted]] = np.where(flat[live[~accepted]], _ROUNDOFF, _LINE_SEARCH)
        live = live[accepted]
        if not live.size:
            break
        fval[live], matrix[live] = values, kernels
        iterations[live] += 1
    else:
        gnorm[live] = _newton(obj, matrix[live], live, np.ones(live.size, bool),
                              config.grad_tol)[0]
    return matrix, fval, iterations, gnorm <= config.grad_tol, gnorm, stop


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


def _fit_tables(freqs: np.ndarray, config: MleConfig) -> list:
    """The best restart of the fit of each row of the (T, 2^n)
    frequencies, which the objective keeps without a copy, every
    restart of every row fitted as one batch."""
    r, n = config.restarts, freqs.shape[1].bit_length() - 1
    obj = _Objective(freqs, np.repeat(np.arange(len(freqs)), r))
    matrices, fvals, iterations, converged, gnorms, stops = _lockstep(
        obj, np.concatenate([_starts(EmpiricalTable(n, row, 0), config) for row in freqs]), config)
    results = []
    for lo in range(0, len(matrices), r):
        # the lowest restart within roundoff of the best, not the last-bit largest
        top = fvals[lo:lo + r].max()
        best = lo + int(np.argmax(fvals[lo:lo + r] >= top - 4 * _EPS * max(1.0, abs(top))))
        results.append(MleResult(estimate=Kernel(symmetrize(matrices[best])),
                                 log_likelihood=float(fvals[best]),
                                 iterations=int(iterations[best]),
                                 converged=bool(converged[best]), restart_index=best - lo,
                                 gradient_norm=float(gnorms[best]),
                                 stop_reason=STOP_REASONS[stops[best]]))
    return results


def fit_mle(freqs: EmpiricalTable, config: MleConfig) -> MleResult:
    """Best local maximum of the empirical likelihood over
    `config.restarts` starts (the moment-matched kernel, its
    sign-corrected variant, then jittered copies; see `_starts`), all
    fitted as one lockstep batch.  Of restarts within 4 eps max(1, |f|)
    of the best, the lowest wins."""
    return _fit_tables(freqs.freqs[None], config)[0]


def _moment_correlation(incl: np.ndarray) -> np.ndarray:
    """Correlation-kernel estimate from first and second inclusion
    moments, entries of the superset sums `incl` of the frequencies:
    exact diagonal, nonnegative off-diagonal magnitudes."""
    bits = 1 << np.arange(incl.size.bit_length() - 1)
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
    return _clip_to_kernel(_moment_correlation(minors.superset_sums(freqs.freqs)), spectral_box)


def _sign_corrected_init(freqs: EmpiricalTable, spectral_box: tuple) -> Kernel | None:
    """Moment kernel with off-diagonal signs recovered from triple
    inclusion moments (Urschel et al., ICML 2017).

    Sign patterns are identified only up to conjugation, and the
    conjugation class is pinned by the cycle products K_ij K_jk K_ik.
    Each product is solved from det(K_{ijk}) = P[{i,j,k} in Z]; rooting
    the assignment at index 0 (entries K_0i taken nonnegative) realizes
    the estimated class.  The pairs and triples are entries of one
    superset-sum transform, at any n; None for n < 3 or when no sign
    changes.
    """
    n = freqs.n
    if n < 3:
        return None
    incl = minors.superset_sums(freqs.freqs)
    k_hat = _moment_correlation(incl)
    bits = 1 << np.arange(n)
    triple = incl[1 | bits[:, None] | bits[None, :]]
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


def _code_signs(codes: np.ndarray, width: int) -> np.ndarray:
    """Sign vectors of length `width`, one row per code: bit width-1-i
    of a code flips sign i, so codes below 2^(width-1) keep sign 0 at +1
    and run in the order of sign_vectors(width, fix_first=True)."""
    signs = np.ones((codes.size, width))
    signs -= 2.0 * ((codes[:, None] >> np.arange(width - 1, -1, -1)) & 1)
    return signs


def sign_orbit_loss(l_hat: Kernel, l_star: Kernel) -> LossValue:
    """min over the 2^(n-1) sign classes D of ||Lhat - D Lstar D||_F.

    The value and signs are those of scoring every class directly, as
    sqrt of the summed squared entries of the difference, and taking the
    first minimum in code order.  Only the classes within roundoff of the
    best are scored that way; a half-split pass ranks them all first."""
    a, b = l_hat.matrix, l_star.matrix
    n = l_hat.n
    if l_star.n != n:
        raise ValueError("ground-set sizes differ")
    minors.check_enum_budget(n)
    # ||A - SBS||^2 = ||A||^2 + ||B||^2 - 2 q(s) with q(s) = s^T (A o B) s.
    # Split s into a high half (s_0 = +1 and the next h - 1 signs) and a
    # low half of n - h signs (Horowitz & Sahni's meet in the middle): q is
    # the two within-half forms plus 2 s_hi^T M s_lo, all three for every
    # pair of halves in one product whose C order is the code order.
    h = 1 + (n - 1) // 2
    hi = _code_signs(np.arange(2 ** (h - 1)), h)
    lo = _code_signs(np.arange(2 ** (n - h)), n - h)
    # The direct score d(s) = fl(sqrt(S(s))), S(s) the computed sum of
    # squares, must be minimal at some code kept here.  Let N = ||A||^2 +
    # ||B||^2, T(s) the exact squared distance (T <= 2N) and g = gamma_k =
    # k eps / (1 - k eps) with k = n^2 + 4, more roundings than any term of
    # q or S passes through.  Then
    #   |q - s^T M s| <= g sum|a_ij b_ij| <= g N / 2     (Cauchy-Schwarz),
    #   |S - T| <= g T <= 2 g N,
    # and sqrt merges sums at most 2.01 eps S <= 4.1 eps N apart, since two
    # roots rounding to one d lie within ulp(d) <= eps d.  So if d(s) <=
    # d(s') for the code s' maximizing q, T(s) <= T(s') + 4 g N + 4.1 eps N
    # and q(s) >= q(s') - 3 g N - 2.1 eps N.  The band 4 k eps N covers
    # that and the rounding of N; n^2 tiny covers underflowed products.
    # An overflowed N makes the band inf and keeps every code.
    with np.errstate(all="ignore"):     # overflow warns once, in the rescoring
        m = a * b
        x = np.column_stack([hi @ (2.0 * m[:h, h:]), ((hi @ m[:h, :h]) * hi).sum(axis=1),
                             np.ones(len(hi))])
        y = np.column_stack([lo, np.ones(len(lo)), ((lo @ m[h:, h:]) * lo).sum(axis=1)])
        q = (x @ y.T).ravel()
        band = 4.0 * (n * n + 4) * _EPS * ((a * a).sum() + (b * b).sum()) + n * n * _TINY
        candidates = np.flatnonzero(~(q < q.max() - band))
    best_val, best_signs = None, None
    for start in range(0, candidates.size, _SIGN_CHUNK):
        signs = _code_signs(candidates[start:start + _SIGN_CHUNK], n)
        diff = a - signs[:, :, None] * signs[:, None, :] * b
        vals = np.sqrt((diff * diff).sum(axis=(1, 2)))
        k = int(np.argmin(vals))       # first minimum, as a strict < scan
        if best_val is None or vals[k] < best_val:
            best_val, best_signs = float(vals[k]), signs[k].copy()
    return LossValue(value=best_val, argmin_signs=best_signs)


@dataclass
class BlockwiseLoss:
    """The orbit loss `total`, and the Frobenius loss split by block
    structure, both restrictions taken at the single sign vector
    minimizing the full loss."""

    total: float
    within: float
    cross: float
    signs: np.ndarray


def blockwise_loss(l_hat: Kernel, l_star: Kernel,
                   graph: DeterminantalGraph) -> BlockwiseLoss:
    full = sign_orbit_loss(l_hat, l_star)
    diff = l_hat.matrix - conjugate_by_signs(l_star.matrix, full.argmin_signs)
    same = graph.same_component()
    return BlockwiseLoss(total=full.value, within=float(np.sqrt((diff[same] ** 2).sum())),
                         cross=float(np.sqrt((diff[~same] ** 2).sum())),
                         signs=full.argmin_signs)


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
        return csv_text(["replicate", "loss", "within", "cross", "converged", "iterations"],
                        ([r, repr(float(self.losses[r])), repr(float(self.within[r])),
                          repr(float(self.cross[r])), int(self.converged[r]),
                          int(self.iterations[r])] for r in range(self.replicates)))

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


def estimate_risk(l_star: Kernel, sample_size, replicates: int,
                  config: MleConfig, seed: int, *, estimator=None):
    """Mean orbit loss over independent replicates, for one sample size
    (a RiskEstimate) or for each of a sequence of them (a list, in order).

    Replicate r of every size draws its batch from the stream (seed, r)
    of the truth's table, built here, fits (or applies the injected
    estimator), and scores with `blockwise_loss` against the truth, so
    the first k replicates do not depend on how many follow.
    All sizes x replicates x restarts are fitted as one lockstep batch,
    its per-member work in member chunks of `minors._chunks`; a failing
    fit fails the call, and no size gets a result.
    """
    single = isinstance(sample_size, numbers.Integral)
    sizes = [sample_size] if single else list(sample_size)
    if not sizes:
        raise ValueError("sample_size: need at least one size")
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    table = build_table(l_star)
    graph = determinantal_graph(l_star)
    draws = (empirical_table(sample(table, size, seed, stream_path=(rngs.REPLICATE_STREAM, r)))
             for size in sizes for r in range(replicates))
    freqs, tables = np.empty((len(sizes) * replicates, table.probs.size)), []
    for row, freq in zip(freqs, draws):     # each table's frequencies become its row
        row[:], freq.freqs = freq.freqs, row
        tables.append(freq)
    if estimator is None:
        fits = [(res.estimate, res.converged, res.iterations)
                for res in _fit_tables(freqs, config)]
    else:
        fits = [(estimator(freq), True, 0) for freq in tables]
    scores = []
    for l_hat, conv, iters in fits:
        loss = blockwise_loss(l_hat, l_star, graph)
        scores.append((loss.total, loss.within, loss.cross, conv, iters))
    losses, within, cross, converged, iterations = (
        np.array(c).reshape(len(sizes), replicates) for c in zip(*scores))
    risks = [RiskEstimate(sample_size=size, replicates=replicates,
                          mean_loss=float(losses[i].mean()),
                          std_error=float(losses[i].std(ddof=1) / np.sqrt(replicates)),
                          losses=losses[i], within=within[i], cross=cross[i],
                          converged=converged[i], iterations=iterations[i], seed=seed)
             for i, size in enumerate(sizes)]
    return risks[0] if single else risks


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
