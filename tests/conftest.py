import numpy as np
import pytest

from dppmle import Kernel, block_diagonal_kernel, symmetrize
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


__all__ = ["NEGATIVE_3X3", "random_kernel", "random_symmetric", "random_block_kernel",
           "random_null_direction", "symmetrize"]
