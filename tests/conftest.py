import math

import numpy as np
import pytest

from dppmle import Kernel, block_diagonal_kernel, estimation, minors, symmetrize
from dppmle.experiments import random_kernel, random_symmetric


#: Symmetric, every 1x1 and 2x2 principal minor positive, det = -2.888.
NEGATIVE_3X3 = np.array([[1.0, 0.9, -0.9],
                         [0.9, 1.0, 0.9],
                         [-0.9, 0.9, 1.0]])


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_block_kernel(sizes, gen) -> Kernel:
    """Block-diagonal kernel with well-conditioned random blocks."""
    return block_diagonal_kernel([random_kernel(s, gen).matrix for s in sizes])


def random_null_direction(graph, gen) -> np.ndarray:
    """Random symmetric direction supported on cross-component pairs."""
    n = graph.n
    h = np.zeros((n, n))
    for i, j in graph.cross_pairs():
        v = gen.normal()
        h[i, j] = h[j, i] = v
    return h


def brute_submatrix(a, mask):
    idx = [i for i in range(a.shape[0]) if mask >> i & 1]
    return a[np.ix_(idx, idx)]


def brute_logdets(a):
    """Reference: one slogdet per mask."""
    out = np.zeros(2 ** a.shape[0])
    for mask in range(1, out.size):
        sign, out[mask] = np.linalg.slogdet(brute_submatrix(a, mask))
        assert sign > 0
    return out


def brute_inverses(a):
    """Reference: one inverse per mask, zero-padded."""
    n = a.shape[0]
    out = np.zeros((2 ** n, n, n))
    for mask in range(1, out.shape[0]):
        idx = minors.subset_indices(mask)
        out[mask][np.ix_(idx, idx)] = np.linalg.inv(brute_submatrix(a, mask))
    return out


def tridiagonal(n, gen):
    a = np.diag(2.0 + gen.random(n))
    off = 0.9 * (2.0 * gen.random(n - 1) - 1.0)
    return a + np.diag(off, 1) + np.diag(off, -1)


def reference_kernels():
    """Random, block-diagonal and tridiagonal kernels at n = 1..8."""
    gen = np.random.default_rng(11)
    for n in range(1, 9):
        yield f"random-{n}", random_kernel(n, gen).matrix
        yield f"tridiagonal-{n}", tridiagonal(n, gen)
        if n >= 2:
            sizes = [n // 2, n - n // 2]
            yield f"blocks-{n}", random_block_kernel(sizes, gen).matrix


def loop_moment_correlation(freqs):
    """Reference: one scan over all masks per singleton and per pair."""
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


def loop_sign_corrected_init(freqs, spectral_box):
    """Reference: one scan over all masks per triple {0, i, j}, without
    a ground-set cap."""
    n = freqs.n
    if n < 3:
        return None
    k_hat = loop_moment_correlation(freqs)
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
    return estimation._clip_to_kernel(signed, spectral_box)


__all__ = ["NEGATIVE_3X3", "brute_inverses", "brute_logdets", "brute_submatrix",
           "loop_moment_correlation", "loop_sign_corrected_init", "random_kernel",
           "random_symmetric", "random_block_kernel", "random_null_direction",
           "reference_kernels", "symmetrize"]
