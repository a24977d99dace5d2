import numpy as np
import pytest

import dppmle as d
from dppmle.minors import mask_of

from conftest import random_kernel, random_symmetric


class TestKernelConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            d.Kernel([[1.0, 0.1], [0.2, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            d.Kernel([[1.0, 2.0], [2.0, 1.0]])

    def test_margin_reported(self):
        k = d.Kernel(np.diag([2.0, 5.0]))
        assert k.spd_margin == pytest.approx(2.0)

    def test_correlation_kernel_range(self):
        with pytest.raises(ValueError, match="inside"):
            d.CorrelationKernel(np.diag([0.5, 1.0]))
        d.CorrelationKernel(np.diag([0.5, 0.9]))  # valid

    @pytest.mark.parametrize("cls", [d.Kernel, d.CorrelationKernel])
    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,)])
    def test_both_kinds_refuse_empty_or_nonsquare(self, cls, shape):
        with pytest.raises(ValueError, match="square and nonempty"):
            cls(np.zeros(shape))

    def test_correlation_kernel_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="exactly symmetric"):
            d.CorrelationKernel([[0.5, 0.1], [0.2, 0.5]])

    @pytest.mark.parametrize("cls", [d.Kernel, d.CorrelationKernel])
    def test_both_kinds_refuse_nonfinite_entries(self, cls):
        # an inf diagonal has eigenvalues [nan nan], which pass every bound
        with pytest.raises(ValueError, match="entries must be finite"):
            cls(np.array([[np.inf, 0.0], [0.0, np.inf]]))

    def test_kernel_whose_spectrum_overflows(self):
        # finite, symmetric and positive definite, but eigvalsh gives
        # [5e307, inf]; the reason is the overflow, not indefiniteness
        with pytest.raises(ValueError, match="^kernel spectrum overflows float64$"):
            d.Kernel([[1.5e308, 1e308], [1e308, 1.5e308]])

    def test_correlation_kernel_whose_spectrum_overflows(self):
        with pytest.raises(ValueError, match="^correlation kernel spectrum overflows float64$"):
            d.CorrelationKernel([[1.5e308, 1e308], [1e308, 1.5e308]])

    def test_json_entries_that_overflow_when_symmetrized(self):
        with pytest.raises(ValueError, match="entries must be finite"):
            d.kernel_from_json({"n": 2, "entries": [1e308, 0, 0, 1e308]})


class TestPrincipalSubmatrix:
    def test_single_index(self):
        # second diagonal entry of Diag(2, 3)
        sub = d.principal_submatrix(np.diag([2.0, 3.0]), 0b10)
        assert sub.shape == (1, 1) and sub[0, 0] == 3.0

    def test_empty_mask_conventions(self):
        sub = d.principal_submatrix(np.diag([2.0, 3.0]), 0)
        assert sub.shape == (0, 0)
        assert np.linalg.det(sub) == 1.0
        assert np.trace(sub) == 0.0

    def test_offdiagonal_bookkeeping(self):
        m = np.eye(3) * 2.0
        m[0, 2] = m[2, 0] = 0.5
        sub = d.principal_submatrix(m, mask_of([0, 2]))
        assert sub[0, 1] == 0.5 and sub[1, 0] == 0.5

    def test_rejects_mask_outside_ground_set(self):
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="outside"):
                d.principal_submatrix(np.diag([2.0, 3.0]), bad)


class TestKLConversions:
    def test_identity_maps_to_half(self):
        k = d.l_to_k(d.Kernel(np.eye(2)))
        np.testing.assert_allclose(k.matrix, 0.5 * np.eye(2), atol=1e-14)

    def test_scalar(self):
        assert d.l_to_k(d.Kernel([[3.0]])).matrix[0, 0] == pytest.approx(0.75)
        assert d.k_to_l(d.CorrelationKernel([[0.75]])).matrix[0, 0] == pytest.approx(3.0)

    def test_roundtrips(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            ker = random_kernel(n, rng)
            back = d.k_to_l(d.l_to_k(ker))
            err = np.linalg.norm(back.matrix - ker.matrix) / np.linalg.norm(ker.matrix)
            assert err <= 1e-10

    def test_roundtrip_other_direction(self, rng):
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            mu = rng.uniform(0.1, 0.9, size=4)
            corr = d.CorrelationKernel(d.symmetrize((q * mu) @ q.T))
            back = d.l_to_k(d.k_to_l(corr))
            err = np.linalg.norm(back.matrix - corr.matrix) / np.linalg.norm(corr.matrix)
            assert err <= 1e-10

    def test_eigenvalue_map(self, rng):
        # spectrum of L equals mu/(1-mu) over the spectrum of K
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        mu = rng.uniform(0.1, 0.9, size=5)
        k = d.CorrelationKernel(d.symmetrize((q * mu) @ q.T))
        lam = np.linalg.eigvalsh(d.k_to_l(k).matrix)
        np.testing.assert_allclose(np.sort(lam), np.sort(mu / (1 - mu)), rtol=1e-10)

    def test_rejects_near_singular(self):
        with pytest.raises(ValueError, match="close to 1"):
            d.k_to_l(np.diag([0.5, 1.0 - 1e-13]))


class TestSignConjugation:
    def test_identity_signs(self, rng):
        m = random_symmetric(4, rng)
        np.testing.assert_array_equal(d.conjugate_by_signs(m, np.ones(4)), m)

    def test_flip_offdiagonal(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        out = d.conjugate_by_signs(m, [1.0, -1.0])
        assert out[0, 1] == -0.5 and out[1, 0] == -0.5
        assert out[0, 0] == 1.0 and out[1, 1] == 1.0

    def test_involution_exact(self, rng):
        m = random_symmetric(5, rng)
        s = rng.choice([-1.0, 1.0], size=5)
        np.testing.assert_array_equal(
            d.conjugate_by_signs(d.conjugate_by_signs(m, s), s), m)

    def test_preserves_principal_minors(self, rng):
        ker = random_kernel(5, rng)
        for s in d.kernels.sign_vectors(5):
            conj = d.conjugate_by_signs(ker.matrix, s)
            for mask in range(2 ** 5):
                a = np.linalg.det(d.principal_submatrix(ker.matrix, mask))
                b = np.linalg.det(d.principal_submatrix(conj, mask))
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


class TestDeterminantalGraph:
    def test_diagonal_is_singletons(self):
        g = d.determinantal_graph(d.Kernel(np.diag([1.0, 2.0, 3.0])))
        assert g.components == ((0,), (1,), (2,))
        assert not g.irreducible

    def test_tridiagonal_is_connected(self):
        g = d.determinantal_graph(d.tridiagonal_kernel(5, 2.0, 0.7))
        assert g.irreducible
        assert len(g.edges) == 4  # path graph

    def test_block_structure(self):
        ker = d.block_diagonal_kernel([np.array([[2.0, 0.5], [0.5, 2.0]]), np.array([[3.0]])])
        g = d.determinantal_graph(ker)
        assert g.components == ((0, 1), (2,))
        assert g.cross_pairs() == [(0, 2), (1, 2)]

    def test_sign_invariance(self, rng):
        ker = random_kernel(5, rng)
        g = d.determinantal_graph(ker)
        for s in d.kernels.sign_vectors(5):
            conj = d.Kernel(d.conjugate_by_signs(ker.matrix, s))
            assert d.determinantal_graph(conj).edges == g.edges

    def test_zero_tolerance(self):
        m = np.eye(2) * 2.0
        m[0, 1] = m[1, 0] = 1e-12
        assert d.determinantal_graph(d.Kernel(m)).irreducible
        assert not d.determinantal_graph(d.Kernel(m), zero_tol=1e-9).irreducible


def loop_basis(n):
    """Reference layout: E_ii, then (E_ij + E_ji)/sqrt(2) for i < j, one
    matrix at a time."""
    basis = []
    for i in range(n):
        b = np.zeros((n, n))
        b[i, i] = 1.0
        basis.append(b)
    r = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            b = np.zeros((n, n))
            b[i, j] = b[j, i] = r
            basis.append(b)
    return basis


def loop_to_coords(h):
    rows, cols = np.triu_indices(h.shape[0], k=1)
    return np.concatenate([np.diag(h), np.sqrt(2.0) * h[rows, cols]])


def loop_to_sym(v, n):
    h = np.zeros((n, n))
    np.fill_diagonal(h, v[:n])
    rows, cols = np.triu_indices(n, k=1)
    off = v[n:] / np.sqrt(2.0)
    h[rows, cols] = off
    h[cols, rows] = off
    return h


class TestSymmetricBasis:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_layout_is_bitwise_the_loop_layout(self, n, rng):
        # hessian_matrix.csv is written in this order, so pin it exactly,
        # not only up to a round trip
        basis = d.symmetric_basis(n)
        assert len(basis) == d.symmetric_dim(n)
        for got, want in zip(basis, loop_basis(n)):
            np.testing.assert_array_equal(got, want)
        # a stack's coordinates are C-ordered, so products with them sum as
        # with one matrix's, and row for row bitwise the single-matrix map
        stack = np.array([random_symmetric(n, rng) for _ in range(3)])
        coords = d.sym_to_coords(stack)
        assert coords.flags.c_contiguous
        for h, c, back in zip(stack, coords, d.coords_to_sym(coords, n)):
            np.testing.assert_array_equal(c, loop_to_coords(h))
            np.testing.assert_array_equal(d.sym_to_coords(h), c)
            np.testing.assert_array_equal(back, loop_to_sym(c, n))
            np.testing.assert_array_equal(d.coords_to_sym(c, n), back)

    def test_n1(self):
        basis = d.symmetric_basis(1)
        assert len(basis) == 1
        np.testing.assert_array_equal(basis[0], [[1.0]])

    @pytest.mark.parametrize("n,count", [(2, 3), (4, 10)])
    def test_count(self, n, count):
        assert len(d.symmetric_basis(n)) == count
        assert d.symmetric_dim(n) == count

    def test_gram_matrix_is_identity(self):
        basis = d.symmetric_basis(3)
        gram = np.array([[np.trace(a @ b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-14)

    def test_coordinate_roundtrip(self, rng):
        for _ in range(10):
            h = random_symmetric(5, rng)
            coords = d.sym_to_coords(h)
            back = d.coords_to_sym(coords, 5)
            assert np.abs(back - h).max() <= 1e-14
            assert abs(np.linalg.norm(coords) - np.linalg.norm(h)) <= 1e-12

    def test_reconstruction_from_basis(self, rng):
        h = random_symmetric(4, rng)
        coords = d.sym_to_coords(h)
        rebuilt = sum(c * b for c, b in zip(coords, d.symmetric_basis(4)))
        assert np.linalg.norm(rebuilt - h) <= 1e-13 * np.linalg.norm(h)


class TestConstructionHelpers:
    def test_tridiagonal_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match=r"a\^2 > 4\*b\^2"):
            d.tridiagonal_kernel(4, 1.0, 0.9)

    def test_json_roundtrip(self, rng):
        ker = random_kernel(3, rng)
        back = d.kernel_from_json(d.kernel_to_json(ker))
        np.testing.assert_allclose(back.matrix, ker.matrix, atol=1e-15)

    def test_json_warns_on_asymmetry(self):
        obj = {"n": 2, "entries": [1.0, 0.5, 0.5 + 1e-6, 1.0]}
        with pytest.warns(UserWarning, match="asymmetric"):
            ker = d.kernel_from_json(obj)
        assert ker.matrix[0, 1] == ker.matrix[1, 0]

    @pytest.mark.parametrize("n", [True, False, 1.7, "1", None, float("nan"), float("inf"), [1],
                                   0, -1])
    def test_json_rejects_a_non_integer_n(self, n):
        with pytest.raises(ValueError, match="kernel n must be an integer"):
            d.kernel_from_json({"n": n, "entries": [2.0]})

    @pytest.mark.parametrize("entries", [[True], ["2.5"], 2.0, [[[3.0]]], [2.0, 1.0], []])
    def test_json_rejects_entries_that_are_not_n_squared_numbers(self, entries):
        with pytest.raises(ValueError, match=r"a flat list of n\*n = 1 numbers"):
            d.kernel_from_json({"n": 1, "entries": entries})

    def test_json_takes_an_integral_float_n(self):
        assert d.kernel_from_json({"n": 1.0, "entries": [2.0]}).n == 1
