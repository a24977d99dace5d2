import numpy as np
import pytest

import dppmle as d
from dppmle.errors import NotNullDirection
from dppmle.kernels import sign_vectors

from dppmle import geometry, minors, model
from conftest import (NEGATIVE_3X3, brute_inverses, brute_logdets, dense_basis_hessian,
                      matmul_trace_stats, random_block_kernel, random_kernel,
                      random_null_direction, random_symmetric, reference_kernels)


def close(got, ref, tol=1e-12):
    """Relative agreement within tol of the larger magnitude (1 at least)."""
    scale = max(1.0, float(np.max(np.abs(ref))))
    np.testing.assert_allclose(got, ref, rtol=0, atol=tol * scale)


def phi_along(table, base, direction):
    """Population log-likelihood restricted to the line t -> base + t H."""
    def phi(t):
        return d.expected_log_likelihood(table, d.Kernel(d.symmetrize(base + t * direction)))
    return phi


def central_difference(phi, k, h):
    if k == 1:
        return (phi(h) - phi(-h)) / (2 * h)
    if k == 2:
        return (phi(h) - 2 * phi(0.0) + phi(-h)) / h ** 2
    if k == 3:
        return (phi(2 * h) - 2 * phi(h) + 2 * phi(-h) - phi(-2 * h)) / (2 * h ** 3)
    if k == 4:
        return (phi(2 * h) - 4 * phi(h) + 6 * phi(0.0) - 4 * phi(-h) + phi(-2 * h)) / h ** 4
    raise ValueError(k)


def richardson(phi, k, h):
    """Halved-step Richardson extrapolation of the O(h^2) stencils,
    with the pair of estimates returned for consistency checking."""
    d1 = central_difference(phi, k, h)
    d2 = central_difference(phi, k, h / 2)
    return (4 * d2 - d1) / 3, d1, d2


FD_STEPS = {1: 1e-3, 2: 2e-3, 3: 1.5e-2, 4: 4e-2}


class TestExpectedLogLikelihood:
    def test_scalar_hand_value(self):
        table = d.build_table(d.Kernel([[1.0]]))
        value = d.expected_log_likelihood(table, d.Kernel([[3.0]]))
        assert value == pytest.approx(0.5 * np.log(3.0) - np.log(4.0), rel=1e-12)

    def test_reference_is_global_max(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            star = random_kernel(n, rng)
            table = d.build_table(star)
            at_star = d.expected_log_likelihood(table, star)
            assert d.expected_log_likelihood(table, random_kernel(n, rng)) <= at_star

    def test_matches_per_mask_reference(self, rng):
        # sum_J p*_J log det L_J - log det(I+L), one slogdet per mask
        for n in range(1, 9):
            for _ in range(3):
                table, a = d.build_table(random_kernel(n, rng)), random_kernel(n, rng).matrix
                expect = table.probs @ brute_logdets(a) - np.linalg.slogdet(np.eye(n) + a)[1]
                got = d.expected_log_likelihood(table, d.Kernel(a))
                assert got == pytest.approx(expect, rel=1e-12, abs=1e-12), n

    def test_is_the_empirical_value_at_the_probabilities(self, rng):
        for n in range(1, 9):
            table, cand = d.build_table(random_kernel(n, rng)), random_kernel(n, rng)
            freqs = model.EmpiricalTable.from_probabilities(n, table.probs)
            assert d.expected_log_likelihood(table, cand) == d.empirical_log_likelihood(freqs, cand)

    def test_minus_inf_on_nonpositive_minor(self, rng):
        bad = d.Kernel(np.eye(3))
        bad.matrix = NEGATIVE_3X3
        assert d.expected_log_likelihood(d.build_table(random_kernel(3, rng)), bad) == -np.inf

    def test_sign_orbit_attains_max(self, rng):
        star = random_kernel(4, rng)
        table = d.build_table(star)
        at_star = d.expected_log_likelihood(table, star)
        for s in sign_vectors(4, fix_first=True):
            conj = d.Kernel(d.conjugate_by_signs(star.matrix, s))
            assert d.expected_log_likelihood(table, conj) == pytest.approx(at_star, abs=1e-10)


class TestTraceStatistics:
    """a_{J,k} and a_k of `geometry._stats`, row k - 1 for order k."""

    def test_zero_direction(self, rng):
        ker = random_kernel(3, rng)
        per, glob = geometry._stats(ker, np.zeros((3, 3)), 2)
        assert np.all(per == 0.0)
        assert np.all(glob == 0.0)

    def test_scalar_values(self):
        per, glob = geometry._stats(d.Kernel([[2.0]]), np.array([[1.0]]), 1)
        assert per[0, 1] == pytest.approx(0.5)
        assert glob[0] == pytest.approx(1.0 / 3.0)

    def test_second_order_is_nonnegative(self, rng):
        # a_{J,2} equals the trace of a symmetrized square
        for _ in range(10):
            n = int(rng.integers(2, 7))
            ker = random_kernel(n, rng)
            h = random_symmetric(n, rng)
            per, _ = geometry._stats(ker, h, 2)
            assert np.all(per[1] >= -1e-12)

    def test_second_order_matches_symmetrized_square(self, rng):
        ker = random_kernel(4, rng)
        h = random_symmetric(4, rng)
        per, _ = geometry._stats(ker, h, 2)
        from dppmle.minors import subset_indices
        for mask in (0b0011, 0b1101, 0b1111):
            idx = subset_indices(mask)
            lj = ker.matrix[np.ix_(idx, idx)]
            hj = h[np.ix_(idx, idx)]
            w, v = np.linalg.eigh(lj)
            root_inv = (v / np.sqrt(w)) @ v.T
            sym = root_inv @ hj @ root_inv
            assert per[1, mask] == pytest.approx(np.trace(sym @ sym), rel=1e-10)


class TestDirectionalDerivatives:
    def test_gradient_vanishes_at_reference(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            star = random_kernel(n, rng)
            table = d.build_table(star)
            h = random_symmetric(n, rng)
            assert abs(d.directional_derivative(table, star, h, 1)) <= 1e-10

    def test_third_derivative_vanishes_on_null_directions(self, rng):
        star = random_block_kernel([2, 2], rng)
        table = d.build_table(star)
        graph = d.determinantal_graph(star)
        for _ in range(10):
            h = random_null_direction(graph, rng)
            assert abs(d.directional_derivative(table, star, h, 3)) <= 1e-9

    def test_second_derivative_matches_fd_at_reference(self, rng):
        star = random_kernel(4, rng)
        table = d.build_table(star)
        h = random_symmetric(4, rng)
        h /= np.linalg.norm(h)
        closed = d.directional_derivative(table, star, h, 2)
        fd, _, _ = richardson(phi_along(table, star.matrix, h), 2, 1e-3)
        assert fd == pytest.approx(closed, rel=1e-5)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_all_orders_match_richardson_fd(self, k, rng):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            star = random_kernel(n, rng)
            table = d.build_table(star)
            base = random_kernel(n, rng)
            h = random_symmetric(n, rng)
            h /= np.linalg.norm(h)
            closed = d.directional_derivative(table, base, h, k)
            phi = phi_along(table, base.matrix, h)
            extrap, d1, d2 = richardson(phi, k, FD_STEPS[k])
            assert abs(d2 - closed) <= abs(d1 - closed) + 1e-7 * max(1, abs(closed))
            assert extrap == pytest.approx(closed, rel=1e-4, abs=1e-7)


class TestHessianQuadraticForm:
    def test_zero_direction(self, rng):
        table = d.build_table(random_kernel(3, rng))
        assert d.hessian_quadratic_form(table, np.zeros((3, 3))) == 0.0

    def test_cross_block_direction_is_null(self):
        table = d.build_table(d.Kernel(np.diag([1.0, 1.0])))
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert d.hessian_quadratic_form(table, h) == pytest.approx(0.0, abs=1e-15)

    def test_four_subset_enumeration(self):
        # L* = I2, H = E_11: the trace statistic is 1 on subsets containing
        # index 0 (probability 1/2) and 0 otherwise, so the variance is 1/4.
        table = d.build_table(d.Kernel(np.eye(2)))
        h = np.zeros((2, 2))
        h[0, 0] = 1.0
        assert d.hessian_quadratic_form(table, h) == pytest.approx(-0.25, rel=1e-12)

    def test_three_way_agreement(self, rng):
        # variance form == closed-form k=2 == centered first-order squares
        for _ in range(10):
            n = int(rng.integers(2, 7))
            star = random_kernel(n, rng)
            table = d.build_table(star)
            h = random_symmetric(n, rng)
            variance_form = d.hessian_quadratic_form(table, h)
            derivative_form = d.directional_derivative(table, star, h, 2)
            per, glob = geometry._stats(star, h, 1)
            rearranged = -(table.probs @ per[0] ** 2 - glob[0] ** 2)
            scale = max(abs(variance_form), 1e-12)
            assert abs(variance_form - derivative_form) <= 1e-10 * scale
            assert abs(variance_form - rearranged) <= 1e-10 * scale


def long_double_curvature(table):
    """Reference: the smallest eigenvalue of sum_J p_J Tr((P_J - G) B_a
    (P_J - G) B_b) over `symmetric_basis` B, minus the population
    Hessian.  The padded inverses P_J and G = (I+L)^{-1} are refined in
    long double by two Newton-Schulz steps X <- 2X - X A X (P_J A P_J =
    P_J A_J P_J, so the padded form refines each block), and the sum is
    taken in long double with the table's float64 probabilities, whose
    rounding moves a sum of positive semidefinite terms only relatively;
    the eigenvector of its float64 rounding then gives the Rayleigh
    quotient in long double."""
    n = table.n
    a = table.kernel.matrix.astype(np.longdouble)

    def refine(x, a):
        x = x.astype(np.longdouble)
        for _ in range(2):
            x = 2 * x - x @ a @ x
        return x

    y = refine(minors.padded_inverses(table.kernel.matrix), a)
    y -= refine(np.linalg.inv(np.eye(n) + table.kernel.matrix), np.eye(n) + a)
    rows, cols = np.triu_indices(n)
    u = np.empty((n, n), dtype=np.intp)
    u[rows, cols] = u[cols, rows] = np.arange(rows.size)
    x = y[:, rows, cols]
    gram = (x * table.probs.astype(np.longdouble)[:, None]).T @ x
    j, k, l, i = np.indices((n,) * 4)
    basis = np.array(d.symmetric_basis(n), dtype=np.longdouble)
    form = np.einsum("aij,bkl,jkli->ab", basis, basis, gram[u[j, k], u[l, i]], optimize=True)
    v = np.linalg.eigh(form.astype(float))[1][:, 0].astype(np.longdouble)
    return float(v @ form @ v / (v @ v))


class TestHessianMatrix:
    def test_quadratic_form_consistency(self, rng):
        table = d.build_table(random_kernel(4, rng))
        form = d.hessian_matrix(table)
        for _ in range(10):
            h = random_symmetric(4, rng)
            coords = d.sym_to_coords(h)
            assert coords @ form.matrix @ coords == pytest.approx(
                d.hessian_quadratic_form(table, h), rel=1e-10, abs=1e-12)

    def test_irreducible_tridiagonal_is_negative_definite(self):
        table = d.build_table(d.tridiagonal_kernel(4, 2.0, 0.9))
        form = d.hessian_matrix(table)
        assert np.all(form.eigenvalues < -1e-12)

    def test_product_kernel_has_one_null_direction(self):
        table = d.build_table(d.Kernel(np.diag([1.0, 1.0])))
        form = d.hessian_matrix(table)
        zero = np.abs(form.eigenvalues) <= form.null_tolerance
        assert zero.sum() == 1
        assert np.all(form.eigenvalues[~zero] < 0)

    def test_negative_semidefinite(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            ker = random_block_kernel([n // 2, n - n // 2], rng) if rng.random() < 0.5 \
                else random_kernel(n, rng)
            form = d.hessian_matrix(d.build_table(ker))
            assert form.eigenvalues.max() <= 1e-9 * max(1.0, np.abs(form.eigenvalues).max())

    def test_matches_the_per_mask_covariance(self):
        # minus the covariance under p of the coordinates of one inverse per
        # mask, centered, to 1e-12 of the spectral scale
        for name, a in reference_kernels():
            table = d.build_table(d.Kernel(a))
            t = np.array([d.sym_to_coords(m) for m in brute_inverses(a)])
            centered = t - table.probs @ t
            expect = -(centered * table.probs[:, None]).T @ centered
            form = d.hessian_matrix(table)
            np.testing.assert_allclose(form.matrix, expect, rtol=0,
                                       atol=1e-12 * np.abs(form.eigenvalues).max(), err_msg=name)

    def test_is_the_fitter_hessian_at_the_truth(self, monkeypatch, rng):
        # the population Hessian is bitwise the centred form of the
        # fitter's derivative pass at (L*, q = p*), symmetrized; the
        # Newton step's Hessian there differs from that form only by the
        # rank-two term of its gradient d, G = (I+L*)^{-1}: at most twice
        # 2 |d| |G| + |1 - sum p*| |G|^2 through the gathers, and the
        # rounding of the sum; in one block of masks and in several
        for bits, n in ((12, 1), (12, 3), (12, 6), (2, 3), (2, 6)):
            monkeypatch.setattr(minors, "_BLOCK_BITS", bits)
            star = random_kernel(n, rng)
            table = d.build_table(star)
            rows, cols, _ = d.kernels._coordinate_layout(n)
            glob = np.linalg.inv(np.eye(n) + star.matrix)[None]
            centred = geometry.likelihood_derivatives(
                minors._inverse_blocks(star.matrix[None], rows, cols), table.probs[None], glob,
                np.ones(1, dtype=bool))[1][0]
            np.testing.assert_array_equal(d.hessian_matrix(table).matrix,
                                          (centred + centred.T) / 2)
            grad, hess = geometry._Objective(table.probs[None]).derivatives(
                star.matrix[None], [0], np.ones(1, dtype=bool))
            g, d_max = np.abs(glob).max(), np.abs(grad).max()
            bound = (2 * (2 * d_max * g + abs(1 - table.probs.sum()) * g ** 2)
                     + 4 * np.finfo(float).eps * np.abs(centred).max())
            assert bound <= 1e-13 * max(1.0, np.abs(centred).max())
            assert np.abs(hess[0] - centred).max() <= bound

    @pytest.mark.parametrize("n", [11, 12, 13])
    def test_smallest_curvature_against_a_long_double_reference(self, n):
        # tridiagonal a = 2, b = 0.9, whose smallest curvature falls fast
        # with n: to 1e-7 relative of a long-double reference
        star = d.tridiagonal_kernel(n, 2.0, 0.9)
        table = d.build_table(star)
        expect = long_double_curvature(table)
        assert d.min_curvature(table) == pytest.approx(expect, rel=1e-7, abs=0)

    def test_matches_the_dense_basis_projection(self, rng):
        # the two gathers from the Gram of the distinct entries are the
        # projection of the n^2 x n^2 form onto the dense basis, to 1e-13
        # of the largest entry, for q away from p
        for n in range(1, 11):
            a = random_kernel(n, rng).matrix
            inv = minors.padded_inverses(a)[None]
            raw = rng.random(2 ** n) * (rng.random(2 ** n) < 0.5)
            raw[0] += 1.0
            q = (raw / raw.sum())[None]
            glob = np.linalg.inv(np.eye(n) + a)[None]
            expect = dense_basis_hessian(inv, q, glob)
            x = inv.reshape(1, 2 ** n, n * n)[:, :, geometry._gram_pairs(n)[0]].transpose(0, 2, 1)
            got = geometry.likelihood_derivatives([x], q, glob, np.ones(1, dtype=bool))[1]
            np.testing.assert_allclose(got, expect, rtol=0,
                                       atol=1e-13 * np.abs(expect).max(), err_msg=f"n={n}")

    def test_blocked_gram_matches_one_block(self, monkeypatch, rng):
        # gradients and Hessians summed over 2^(n - bits) blocks from bordered
        # seeds against one block, to 1e-12 relative, for q away from p
        for n in range(2, 11):
            mats = np.array([random_kernel(n, rng).matrix for _ in range(2)])
            raw = rng.random((2, 2 ** n)) * (rng.random((2, 2 ** n)) < 0.5)
            raw[:, 0] += 1.0
            q = raw / raw.sum(axis=1, keepdims=True)
            glob = np.linalg.inv(np.eye(n) + mats)
            rows, cols, _ = d.kernels._coordinate_layout(n)
            got = []
            for bits in (12, n // 2, 1):
                monkeypatch.setattr(minors, "_BLOCK_BITS", bits)
                got.append(geometry.likelihood_derivatives(
                    minors._inverse_blocks(mats, rows, cols), q, glob, np.ones(2, dtype=bool)))
            for grads, hess in got[1:]:
                for one, other in zip(got[0], (grads, hess)):
                    np.testing.assert_allclose(other, one, rtol=0,
                                               atol=1e-12 * np.abs(one).max(), err_msg=f"n={n}")

    def test_hessians_only_of_gram_members(self, rng):
        # one Hessian row per member `gram` selects, in order, each bitwise
        # that member's row of the full pass; every gradient is bitwise too
        mats = np.array([random_kernel(4, rng).matrix for _ in range(3)])
        p = np.array([d.build_table(d.Kernel(a)).probs for a in mats])
        glob = np.linalg.inv(np.eye(4) + mats)
        rows, cols, _ = d.kernels._coordinate_layout(4)

        def derivatives(gram):
            return geometry.likelihood_derivatives(minors._inverse_blocks(mats, rows, cols),
                                                   p, glob, gram)

        grads, hess = derivatives(np.ones(3, dtype=bool))
        assert hess.shape == (3, 10, 10)
        for gram in ([True, False, True], [False, False, True], [False] * 3):
            some_grads, some = derivatives(np.array(gram))
            np.testing.assert_array_equal(some_grads, grads)
            assert some.shape == (sum(gram), 10, 10)
            np.testing.assert_array_equal(some, hess[np.array(gram)])

    def test_csv_exports(self, rng):
        form = d.hessian_matrix(d.build_table(random_kernel(3, rng)))
        lines = form.eigenvalues_csv().strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 1 + d.symmetric_dim(3)
        rows = form.matrix_csv().strip().splitlines()
        parsed = np.array([[float(x) for x in row.split(",")] for row in rows])
        np.testing.assert_allclose(parsed, form.matrix)


class TestNullSpace:
    def test_irreducible_dimension_zero(self, rng):
        ker = d.tridiagonal_kernel(4, 2.0, 0.5)
        nsb = d.null_space_basis(d.determinantal_graph(ker))
        assert nsb.dimension == 0

    def test_two_blocks(self):
        ker = d.block_diagonal_kernel([np.array([[2.0, 0.5], [0.5, 2.0]]), np.array([[3.0]])])
        nsb = d.null_space_basis(d.determinantal_graph(ker))
        assert nsb.dimension == 2
        assert nsb.pairs == [(0, 2), (1, 2)]

    def test_three_singletons(self):
        nsb = d.null_space_basis(d.determinantal_graph(d.Kernel(np.diag([1.0, 2.0, 3.0]))))
        assert nsb.dimension == 3

    def test_basis_elements_are_null(self, rng):
        ker = random_block_kernel([2, 2], rng)
        table = d.build_table(ker)
        nsb = d.null_space_basis(d.determinantal_graph(ker))
        for b in nsb.basis:
            assert abs(d.hessian_quadratic_form(table, b)) <= 1e-10

    def test_basis_is_orthonormal(self, rng):
        ker = random_block_kernel([2, 1, 2], rng)
        nsb = d.null_space_basis(d.determinantal_graph(ker))
        gram = np.array([[np.trace(a @ b) for b in nsb.basis] for a in nsb.basis])
        np.testing.assert_allclose(gram, np.eye(nsb.dimension), atol=1e-14)

    def test_numerical_null_space_matches(self, rng):
        for sizes in ([2, 2], [1, 3], [2, 1, 2]):
            ker = random_block_kernel(sizes, rng)
            table = d.build_table(ker)
            form = d.hessian_matrix(table)
            nsb = d.null_space_basis(d.determinantal_graph(ker))
            numerical = form.null_vectors()
            assert numerical.shape[1] == nsb.dimension
            analytic = nsb.coordinate_matrix()
            sv = np.linalg.svd(numerical.T @ analytic, compute_uv=False)
            max_angle = np.sqrt(max(0.0, 2.0 * (1.0 - sv.min())))
            assert max_angle <= 1e-6


class TestFourthOrder:
    def test_zero_direction(self, rng):
        table = d.build_table(random_block_kernel([1, 1], rng))
        assert d.fourth_order_form(table, np.zeros((2, 2))) == 0.0

    def test_strictly_negative_on_cross_direction(self):
        table = d.build_table(d.Kernel(np.diag([1.0, 1.0])))
        for h_val in (0.3, 1.0, 2.0):
            h = np.array([[0.0, h_val], [h_val, 0.0]])
            assert d.fourth_order_form(table, h) < 0

    def test_four_subset_enumeration(self):
        # L* = I2, H = offdiag(1): Tr((L_J^{-1} H_J)^2) is 2 on the full
        # subset (probability 1/4) and 0 elsewhere; variance 3/4. The
        # quartic Taylor coefficient of Phi along H is then -3 * 3/4,
        # matching the direct expansion Phi(t) = 0.25 log(1-t^2)
        # - log(4-t^2) whose t^4 coefficient is -3/32 (so d4 = -9/4).
        table = d.build_table(d.Kernel(np.eye(2)))
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        t2 = np.array([0.0, 0.0, 0.0, 2.0])
        var = (t2 ** 2 @ table.probs) - (t2 @ table.probs) ** 2
        assert var == pytest.approx(0.75)
        assert d.fourth_order_form(table, h) == pytest.approx(-3.0 * var, rel=1e-12)
        assert d.fourth_order_form(table, h) == pytest.approx(-2.25, rel=1e-12)

    def test_matches_fourth_derivative(self, rng):
        star = random_block_kernel([2, 1], rng)
        table = d.build_table(star)
        graph = d.determinantal_graph(star)
        for _ in range(10):
            h = random_null_direction(graph, rng)
            quartic = d.fourth_order_form(table, h)
            lemma = d.directional_derivative(table, star, h, 4)
            assert quartic == pytest.approx(lemma, rel=1e-9)

    def test_matches_fd_quartic(self, rng):
        star = random_block_kernel([2, 1], rng)
        table = d.build_table(star)
        h = random_null_direction(d.determinantal_graph(star), rng)
        h /= np.linalg.norm(h)
        quartic = d.fourth_order_form(table, h)
        extrap, _, _ = richardson(phi_along(table, star.matrix, h), 4, 4e-2)
        assert extrap == pytest.approx(quartic, rel=1e-4)

    def test_rejects_non_null_direction(self, rng):
        star = random_kernel(3, rng)  # irreducible with probability 1
        table = d.build_table(star)
        with pytest.raises(NotNullDirection):
            d.fourth_order_form(table, np.eye(3))

    def test_rejects_nan_direction(self):
        # a NaN Hessian value compares false against the tolerance
        table = d.build_table(d.Kernel(np.eye(2)))
        with pytest.raises(NotNullDirection, match="nan"):
            d.fourth_order_form(table, np.array([[0.0, np.nan], [np.nan, 0.0]]))

    def test_strictness(self, rng):
        star = random_block_kernel([2, 2], rng)
        table = d.build_table(star)
        graph = d.determinantal_graph(star)
        for _ in range(50):
            h = random_null_direction(graph, rng)
            if np.linalg.norm(h) < 1e-6:
                continue
            assert d.fourth_order_form(table, h) < -1e-12


class TestDecomposeNullDirection:
    def test_zero_gives_empty(self, rng):
        ker = random_block_kernel([2, 1], rng)
        graph = d.determinantal_graph(ker)
        assert d.decompose_null_direction(np.zeros((3, 3)), graph) == []

    def test_single_pair(self, rng):
        ker = random_block_kernel([2, 1], rng)
        graph = d.determinantal_graph(ker)
        h = np.zeros((3, 3))
        h[0, 2] = h[2, 0] = 1.0
        pieces = d.decompose_null_direction(h, graph)
        assert len(pieces) == 1
        piece, signs = pieces[0]
        np.testing.assert_array_equal(piece, h)
        np.testing.assert_array_equal(signs, [1.0, 1.0, -1.0])
        # the signs fix the kernel and flip the piece, exactly
        np.testing.assert_array_equal(d.conjugate_by_signs(ker.matrix, signs), ker.matrix)
        np.testing.assert_array_equal(d.conjugate_by_signs(piece, signs), -piece)

    def test_three_blocks(self, rng):
        ker = random_block_kernel([1, 1, 1], rng)
        graph = d.determinantal_graph(ker)
        h = 1.0 - np.eye(3)
        pieces = d.decompose_null_direction(h, graph)
        assert len(pieces) == 3
        total = sum(p for p, _ in pieces)
        np.testing.assert_array_equal(total, h)
        for piece, signs in pieces:
            np.testing.assert_array_equal(d.conjugate_by_signs(ker.matrix, signs), ker.matrix)
            np.testing.assert_array_equal(d.conjugate_by_signs(piece, signs), -piece)

    def test_componentwise_masking(self, rng):
        ker = random_block_kernel([2, 2, 1], rng)
        graph = d.determinantal_graph(ker)
        h = random_null_direction(graph, rng)
        pieces = d.decompose_null_direction(h, graph)
        total = sum(p for p, _ in pieces)
        np.testing.assert_array_equal(total, h)

    def test_rejects_within_component_support(self, rng):
        ker = random_block_kernel([2, 1], rng)
        graph = d.determinantal_graph(ker)
        h = np.zeros((3, 3))
        h[0, 1] = h[1, 0] = 1.0  # inside the first block
        with pytest.raises(NotNullDirection):
            d.decompose_null_direction(h, graph)


class TestIdentityResiduals:
    def test_zero_direction_gives_zero(self, rng):
        res = d.identity_residuals(random_kernel(3, rng), np.zeros((3, 3)))
        assert (res.r1, res.r2, res.r3, res.r4) == (0.0, 0.0, 0.0, 0.0)

    def test_scalar_case(self):
        # L = [2], H = [1]: the weighted linear statistic is
        # (2/3) * (1/2) + (1/3) * 0 = 1/3, the global value.
        res = d.identity_residuals(d.Kernel([[2.0]]), np.array([[1.0]]))
        assert abs(res.r1) <= 1e-15
        assert res.scales[0] == pytest.approx(1.0 / 3.0)

    def test_random_inputs(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            res = d.identity_residuals(random_kernel(n, rng), random_symmetric(n, rng))
            assert res.max_relative() <= 1e-9
            assert res.matrix_form_residual <= 1e-9

    def test_json_record(self, rng):
        res = d.identity_residuals(random_kernel(2, rng), random_symmetric(2, rng))
        record = res.to_dict()
        assert set(record) == {"r1", "r2", "r3", "r4", "matrix_form_residual"}


class TestJetConsumers:
    """The five consumers of the jet pass against the padded matrix powers
    they read before (`matmul_trace_stats`)."""

    def test_trace_statistics(self, rng):
        for n in range(1, 8):
            kernel = random_kernel(n, rng)
            for h in (random_symmetric(n, rng), rng.normal(size=(n, n))):
                per, glob = matmul_trace_stats(kernel, h, 4)
                for k in range(1, 5):
                    got_per, got_glob = geometry._stats(kernel, h, k)
                    close(got_per[k - 1], per[:, k - 1])
                    close(got_glob[k - 1], glob[k - 1])

    def test_directional_derivative(self, rng):
        for n in range(2, 7):
            table = d.build_table(random_kernel(n, rng))
            kernel, h = random_kernel(n, rng), random_symmetric(n, rng)
            per, glob = matmul_trace_stats(kernel, h, 4)
            for k in range(1, 5):
                expect = (-1.0) ** (k - 1) * np.prod(range(1, k)) * (table.probs @ per[:, k - 1]
                                                                     - glob[k - 1])
                close(d.directional_derivative(table, kernel, h, k), expect)

    def test_quadratic_and_quartic_forms(self, rng):
        kernel = random_block_kernel([2, 3], rng)
        table = d.build_table(kernel)
        h = random_symmetric(5, rng)
        per, _ = matmul_trace_stats(kernel, h, 2)
        p = table.probs
        close(d.hessian_quadratic_form(table, h), -(p @ per[:, 0] ** 2 - (p @ per[:, 0]) ** 2))
        null = random_null_direction(d.determinantal_graph(kernel), rng)
        per, _ = matmul_trace_stats(kernel, null, 2)
        close(d.fourth_order_form(table, null),
              -3.0 * (p @ per[:, 1] ** 2 - (p @ per[:, 1]) ** 2))

    def test_identity_residuals(self, rng):
        for n in range(1, 9):
            kernel, h = random_kernel(n, rng), random_symmetric(n, rng)
            res = d.identity_residuals(kernel, h)
            per, glob = matmul_trace_stats(kernel, h, 4)
            ref = geometry._residuals(d.build_table(kernel).probs, per.T, glob,
                                      res.matrix_form_residual)
            for got, expect, scale in zip((res.r1, res.r2, res.r3, res.r4),
                                          (ref.r1, ref.r2, ref.r3, ref.r4), ref.scales):
                assert abs(got - expect) <= 1e-12 * max(1.0, scale)
            close(np.array(res.scales), np.array(ref.scales))


class TestIdentityBatch:
    @staticmethod
    def fields(res):
        return (res.r1, res.r2, res.r3, res.r4, res.matrix_form_residual, res.scales)

    def test_member_alone_in_any_batch_and_chunk(self, monkeypatch):
        gen = np.random.default_rng(31)
        for n in (1, 3, 6, 9):
            kernels = [random_kernel(n, gen) for _ in range(5)]
            dirs = np.array([random_symmetric(n, gen) for _ in range(5)])
            alone = [self.fields(d.identity_residuals(k, h)) for k, h in zip(kernels, dirs)]
            for budget in (1, 2 ** 12, 2 ** 17, 2 ** 30):
                monkeypatch.setattr(minors, "_CHUNK_FLOATS", budget)
                batch = d.identity_residuals(kernels, dirs)
                assert [self.fields(r) for r in batch] == alone, (n, budget)
                part = d.identity_residuals(kernels[3:0:-1], dirs[3:0:-1])
                assert [self.fields(r) for r in part] == alone[3:0:-1], (n, budget)

    def test_probabilities_are_build_tables(self, rng):
        # the order-0 row of the jets gives build_table's probabilities bit for bit
        kernel, h = random_kernel(6, rng), random_symmetric(6, rng)
        logdets = geometry._traces(kernel.matrix[None], h[None], 4)[0]
        probs = model.normalized(logdets[0], kernel.matrix)[0]
        np.testing.assert_array_equal(probs, d.build_table(kernel).probs)

    def test_nonpositive_minor_raises(self, rng):
        bad = d.Kernel(np.eye(3))
        bad.matrix = NEGATIVE_3X3
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"nonpositive principal minor at masks \[7\]"):
            d.identity_residuals([random_kernel(3, rng), bad], np.ones((2, 3, 3)))

    def test_directions_must_match(self, rng):
        # a (1, 1) direction would broadcast over the jets' direction slot
        kernel = random_kernel(3, rng)
        with pytest.raises(ValueError, match="directions"):
            d.identity_residuals([kernel], np.ones((2, 3, 3)))
        for call in (lambda h: geometry._stats(kernel, h, 1),
                     lambda h: d.hessian_quadratic_form(d.build_table(kernel), h)):
            with pytest.raises(ValueError, match="direction"):
                call(np.ones((1, 1)))


class TestMinCurvature:
    def test_reducible_returns_zero(self):
        assert d.min_curvature(d.Kernel(np.diag([1.0, 1.0]))) == pytest.approx(0.0, abs=1e-12)

    def test_irreducible_tridiagonal_positive(self):
        value = d.min_curvature(d.tridiagonal_kernel(3, 2.0, 0.9))
        assert value > 1e-12

    def test_decay_with_ground_set_size(self):
        v4 = d.min_curvature(d.tridiagonal_kernel(4, 2.0, 0.9))
        v8 = d.min_curvature(d.tridiagonal_kernel(8, 2.0, 0.9))
        assert 0 < v8 < v4

    def test_sign_orbit_invariance(self, rng):
        ker = random_kernel(4, rng)
        base = d.min_curvature(ker)
        s = np.array([1.0, -1.0, 1.0, -1.0])
        conj = d.Kernel(d.conjugate_by_signs(ker.matrix, s))
        assert d.min_curvature(conj) == pytest.approx(base, abs=1e-10)
