import numpy as np
import pytest

from dppmle import minors
from dppmle.errors import GroundSetTooLarge
from dppmle import rngs

from conftest import (NEGATIVE_3X3, brute_inverses, brute_logdets, brute_submatrix,
                      random_kernel, reference_kernels)


class TestMaskHelpers:
    def test_subset_indices(self):
        np.testing.assert_array_equal(minors.subset_indices(0b1011), [0, 1, 3])
        assert minors.subset_indices(0).size == 0
        with pytest.raises(ValueError):
            minors.subset_indices(-1)

    def test_check_mask(self):
        assert minors.check_mask(np.int64(7), 3) == 7
        for bad in (-1, 8):
            with pytest.raises(ValueError, match="outside"):
                minors.check_mask(bad, 3)

    def test_mask_roundtrip(self):
        for mask in (0, 1, 0b1010, 0b11111):
            assert minors.mask_of(minors.subset_indices(mask)) == mask

    def test_budget(self):
        with pytest.raises(GroundSetTooLarge):
            minors.check_enum_budget(21)
        minors.check_enum_budget(20)  # at the cap


class TestPrincipalLogdets:
    def test_against_brute_force(self, rng):
        ker = random_kernel(5, rng)
        logs = minors.principal_logdets(ker.matrix)
        for mask in range(32):
            sub = brute_submatrix(ker.matrix, mask)
            expect = np.log(np.linalg.det(sub)) if mask else 0.0
            assert logs[mask] == pytest.approx(expect, abs=1e-10)

    def test_subset_of_masks(self, rng):
        ker = random_kernel(4, rng)
        masks = np.array([0, 3, 9, 15])
        logs = minors.principal_logdets(ker.matrix, masks)
        full = minors.principal_logdets(ker.matrix)
        np.testing.assert_allclose(logs, full[masks], atol=1e-14)

    def test_rejects_nonpositive_minor(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # det = -3
        with pytest.raises(np.linalg.LinAlgError):
            minors.principal_logdets(bad)

    def test_matches_reference(self):
        for name, a in reference_kernels():
            np.testing.assert_allclose(minors.principal_logdets(a), brute_logdets(a),
                                       rtol=0, atol=1e-12, err_msg=name)

    def test_rejects_nonpositive_3x3_minor(self):
        assert all(np.linalg.det(brute_submatrix(NEGATIVE_3X3, m)) > 0
                   for m in (3, 5, 6))
        with pytest.raises(np.linalg.LinAlgError, match=r"masks \[7\]"):
            minors.principal_logdets(NEGATIVE_3X3)

    def test_unsorted_repeated_masks(self, rng):
        ker = random_kernel(4, rng)
        masks = np.array([3, 9, 3, 0, 9])
        logs = minors.principal_logdets(ker.matrix, masks)
        full = brute_logdets(ker.matrix)
        np.testing.assert_allclose(logs, full[masks], rtol=0, atol=1e-12)

    def test_rejects_masks_out_of_range(self, rng):
        ker = random_kernel(3, rng)
        for bad in ([8], [-1]):
            with pytest.raises(ValueError):
                minors.principal_logdets(ker.matrix, np.array(bad))

    def test_enumeration_cap(self):
        with pytest.raises(GroundSetTooLarge):
            minors.principal_logdets(np.eye(21))


class TestPaddedInverses:
    def test_against_brute_force(self, rng):
        ker = random_kernel(4, rng)
        inv = minors.padded_inverses(ker.matrix)
        for mask in range(16):
            idx = minors.subset_indices(mask)
            expect = np.zeros((4, 4))
            if idx.size:
                expect[np.ix_(idx, idx)] = np.linalg.inv(brute_submatrix(ker.matrix, mask))
            np.testing.assert_allclose(inv[mask], expect, atol=1e-12)

    def test_matches_reference(self):
        for name, a in reference_kernels():
            np.testing.assert_allclose(minors.padded_inverses(a), brute_inverses(a),
                                       rtol=1e-12, atol=1e-12, err_msg=name)

    def test_rejects_nonpositive_3x3_minor(self):
        with pytest.raises(np.linalg.LinAlgError, match=r"masks \[7\]"):
            minors.padded_inverses(NEGATIVE_3X3)

    def test_unsorted_repeated_masks(self, rng):
        ker = random_kernel(4, rng)
        masks = np.array([3, 9, 3, 0, 9])
        inv = minors.padded_inverses(ker.matrix, masks)
        np.testing.assert_allclose(inv, brute_inverses(ker.matrix)[masks],
                                   rtol=0, atol=1e-12)

    def test_zero_padding_outside_subset(self, rng):
        ker = random_kernel(3, rng)
        inv = minors.padded_inverses(ker.matrix)
        mask = 0b101
        assert inv[mask][1, :].sum() == 0.0
        assert inv[mask][:, 1].sum() == 0.0


class TestWeightedLogdetGrad:
    def test_matches_reference(self):
        gen = np.random.default_rng(5)
        for name, a in reference_kernels():
            w = gen.random(2 ** a.shape[0])
            total, grad = minors.weighted_logdet_grad(a, w)
            expect = np.einsum("m,mij->ij", w, brute_inverses(a))
            assert total == pytest.approx(w @ brute_logdets(a), rel=1e-12, abs=1e-12), name
            np.testing.assert_allclose(grad, expect, rtol=1e-12, atol=1e-12, err_msg=name)

    def test_uses_rows_and_columns_separately(self, rng):
        # on a nonsymmetric matrix the adjoint is sum_J w_J pad(A_J^{-T})
        a = random_kernel(4, rng).matrix + 0.3 * np.triu(np.ones((4, 4)), 1)
        w = rng.random(16)
        _, grad = minors.weighted_logdet_grad(a, w)
        expect = np.einsum("m,mij->ij", w, brute_inverses(a))
        np.testing.assert_allclose(grad, expect.T, rtol=1e-12, atol=1e-12)

    def test_rejects_nonpositive_3x3_minor_of_zero_weight(self):
        w = np.zeros(8)
        w[:7] = 1.0
        with pytest.raises(np.linalg.LinAlgError, match=r"masks \[7\]"):
            minors.weighted_logdet_grad(NEGATIVE_3X3, w)

    def test_rejects_wrong_weight_shape(self, rng):
        with pytest.raises(ValueError):
            minors.weighted_logdet_grad(random_kernel(3, rng).matrix, np.ones(7))


class TestStreams:
    def test_same_path_reproduces(self):
        a = rngs.stream(7, 1, 2).random(5)
        b = rngs.stream(7, 1, 2).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = rngs.stream(7, 1, 2).random(5)
        b = rngs.stream(7, 1, 3).random(5)
        c = rngs.stream(8, 1, 2).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSupersetSums:
    def test_against_brute_force(self):
        gen = np.random.default_rng(3)
        for n in range(0, 9):
            values = gen.normal(size=2 ** n)
            before = values.copy()
            masks = np.arange(2 ** n)
            expect = [values[(masks & s) == s].sum() for s in masks]
            np.testing.assert_allclose(minors.superset_sums(values), expect,
                                       rtol=0, atol=1e-12, err_msg=f"n={n}")
            np.testing.assert_array_equal(values, before)      # the input is left alone

    def test_rejects_other_lengths(self):
        for bad in (np.zeros(0), np.zeros(6), np.zeros((2, 2))):
            with pytest.raises(ValueError, match="2\\^n"):
                minors.superset_sums(bad)
