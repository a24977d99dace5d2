import numpy as np
import pytest

from dppmle import Kernel, block_diagonal_kernel, minors, symmetrize
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


__all__ = ["NEGATIVE_3X3", "brute_inverses", "brute_logdets", "brute_submatrix",
           "random_kernel", "random_symmetric", "random_block_kernel", "random_null_direction",
           "reference_kernels", "symmetrize"]
