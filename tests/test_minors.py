import numpy as np
import pytest

from dppmle import Kernel, build_table, estimation, identity_residuals, minors, tridiagonal_kernel
from dppmle.errors import GroundSetTooLarge
from dppmle import rngs
from dppmle.kernels import _coordinate_layout

from conftest import (NEGATIVE_3X3, brute_inverses, brute_logdets, brute_submatrix,
                      random_kernel, random_symmetric, reference_kernels)


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

    def test_enumeration_cap(self):
        with pytest.raises(GroundSetTooLarge):
            minors.principal_logdets(np.eye(21))


def streamed(mats):
    """The blocks of `minors._inverse_blocks`, (B, m, 2^n), joined in order."""
    rows, cols, _ = _coordinate_layout(mats.shape[-1])
    return np.concatenate([x.copy() for x in minors._inverse_blocks(mats, rows, cols)], axis=2)


class TestInverseBlocks:
    @pytest.mark.parametrize("bits", [12, 3, 1])
    def test_against_per_mask_inverses(self, monkeypatch, bits):
        # the distinct entries, masks last, against one np.linalg.inv per
        # mask gathered into the kernels layout, to 1e-12, in one block and
        # in 2^(n - bits) blocks from bordered seeds
        monkeypatch.setattr(minors, "_BLOCK_BITS", bits)
        for name, a in reference_kernels():
            rows, cols, _ = _coordinate_layout(a.shape[0])
            x = streamed(a[None])[0]
            assert x.shape == (rows.size, 2 ** a.shape[0])
            np.testing.assert_allclose(x, brute_inverses(a)[:, rows, cols].T, rtol=1e-12,
                                       atol=1e-12, err_msg=f"{name} bits={bits}")

    def test_blocks_of_fixed_width(self, monkeypatch):
        # the block width is the module constant, whatever the chunk budget
        a = random_kernel(7, np.random.default_rng(27)).matrix
        rows, cols, _ = _coordinate_layout(7)
        for bits, count in ((12, 1), (5, 4), (2, 32)):
            monkeypatch.setattr(minors, "_BLOCK_BITS", bits)
            for budget in (1, 2 ** 30):
                monkeypatch.setattr(minors, "_CHUNK_FLOATS", budget)
                widths = [x.shape for x in minors._inverse_blocks(a[None], rows, cols)]
                assert widths == [(1, 28, 2 ** min(7, bits))] * count

    @pytest.mark.parametrize("bits", [12, 2, 1])
    def test_rejects_nonpositive_minor_at_any_block_width(self, monkeypatch, bits):
        monkeypatch.setattr(minors, "_BLOCK_BITS", bits)
        with pytest.raises(np.linalg.LinAlgError, match=r"masks \[7\]"):
            minors.padded_inverses(NEGATIVE_3X3)


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

    def test_batched_recursion_is_bitwise_the_same(self, monkeypatch):
        # the fitter's batched stream against the public padded inverses,
        # each member alone and in a batch of the kernels of its size, in
        # one block and in several
        by_size = {}
        for name, a in reference_kernels():
            by_size.setdefault(a.shape[0], []).append(a)
        for bits in (12, 2):
            monkeypatch.setattr(minors, "_BLOCK_BITS", bits)
            for n, mats in by_size.items():
                rows, cols, _ = _coordinate_layout(n)
                whole = streamed(np.array(mats))
                for k, a in enumerate(mats):
                    public = minors.padded_inverses(a)[:, rows, cols].T
                    np.testing.assert_array_equal(streamed(a[None])[0], public)
                    np.testing.assert_array_equal(whole[k], public, err_msg=f"n={n} member {k}")

    def test_zero_padding_outside_subset(self, rng):
        ker = random_kernel(3, rng)
        inv = minors.padded_inverses(ker.matrix)
        mask = 0b101
        assert inv[mask][1, :].sum() == 0.0
        assert inv[mask][:, 1].sum() == 0.0


def per_mask_traces(a, h, kmax):
    """Reference: Tr((A_J^{-1} H_J)^k) for k = 1..kmax, one inverse per mask."""
    n = a.shape[0]
    out = np.zeros((kmax, 2 ** n))
    for mask in range(1, 2 ** n):
        idx = minors.subset_indices(mask)
        m = np.linalg.inv(a[np.ix_(idx, idx)]) @ h[np.ix_(idx, idx)]
        power = m
        for k in range(kmax):
            if k:
                power = power @ m
            out[k, mask] = np.trace(power)
    return out


class TestJets:
    def test_against_per_mask_inverses(self):
        # a_{J,k} = (-1)^(k-1) k c_{J,k}, also for a direction that is not symmetric
        gen = np.random.default_rng(21)
        for name, a in reference_kernels():
            n = a.shape[0]
            for h in (gen.normal(size=(n, n)), random_symmetric(n, gen)):
                jets, ok = minors._schur_pass(a[None], h[None], 4)
                assert ok.all() and jets.shape == (5, 1, 2 ** n)
                ref = per_mask_traces(a, h, 4)
                for k in range(1, 5):
                    got = (-1.0) ** (k - 1) * k * jets[k, 0]
                    np.testing.assert_allclose(got, ref[k - 1], rtol=1e-12,
                                               atol=1e-12 * np.abs(ref[k - 1]).max(),
                                               err_msg=f"{name} k={k}")

    def test_order_zero_is_principal_logdets(self):
        gen = np.random.default_rng(22)
        for n in range(1, 13):
            mats = np.array([random_kernel(n, gen).matrix for _ in range(3)])
            dirs = gen.normal(size=(3, n, n))
            for order in range(5):
                jets, ok = minors._schur_pass(mats, dirs, order)
                assert ok.all()
                for b, a in enumerate(mats):
                    np.testing.assert_array_equal(jets[0, b], minors.principal_logdets(a),
                                                  err_msg=f"n={n} order={order}")

    def test_bad_member_is_flagged_alone(self):
        good = random_kernel(3, np.random.default_rng(23)).matrix
        jets, ok = minors._schur_pass(np.array([good, NEGATIVE_3X3]), np.ones((2, 3, 3)), 2)
        assert ok.tolist() == [True, False]
        np.testing.assert_array_equal(jets[0, 0], minors.principal_logdets(good))


def adjoint(mats, weights, order=0):
    """sum_J weights[b, J] pad(A_J^{-1}) from the tape of one pass."""
    tape = []
    jets, ok = minors._schur_pass(mats, np.ones_like(mats), order, tape)
    assert ok.all()
    return minors._schur_adjoint(tape, weights)


class TestSchurAdjoint:
    def test_against_per_mask_inverses(self):
        # to 1e-12 of the largest entry: one np.linalg.inv per mask, and the
        # einsum over the bordered padded inverses
        gen = np.random.default_rng(24)
        for name, a in reference_kernels():
            n = a.shape[0]
            weights = gen.random((2, 2 ** n))
            weights[1] -= 0.5                   # signed weights, as q - p
            got = adjoint(a[None].repeat(2, axis=0), weights)
            bordered = minors.padded_inverses(a)
            for w, g in zip(weights, got):
                for ref in (np.einsum("j,jab->ab", w, brute_inverses(a)),
                            np.einsum("j,jab->ab", w, bordered)):
                    np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12 * np.abs(ref).max(),
                                               err_msg=name)

    def test_matrix_that_is_not_symmetric(self):
        # the sum itself, not its transpose, the gradient of sum_J w_J log det A_J
        gen = np.random.default_rng(25)
        a = 3.0 * np.eye(5) + 0.3 * gen.normal(size=(5, 5))
        w = gen.random(32)
        expect = np.einsum("j,jab->ab", w, brute_inverses(a))
        np.testing.assert_allclose(adjoint(a[None], w[None])[0], expect,
                                   rtol=0, atol=1e-12 * np.abs(expect).max())

    def test_member_alone_in_any_batch_and_chunk(self, monkeypatch):
        # every member bitwise the same alone, in any batch, from a tape of
        # any jet order, and in identity_residuals at every chunk budget
        gen = np.random.default_rng(26)
        for n in (1, 3, 6, 9, 12):
            kernels = [random_kernel(n, gen) for _ in range(4)]
            mats = np.array([k.matrix for k in kernels])
            weights = gen.random((4, 2 ** n))
            alone = [adjoint(mats[i:i + 1], weights[i:i + 1])[0] for i in range(4)]
            for order in (0, 4):
                np.testing.assert_array_equal(adjoint(mats, weights, order), alone)
                np.testing.assert_array_equal(adjoint(mats[3:0:-1], weights[3:0:-1], order),
                                              alone[3:0:-1])
            probs = np.array([build_table(k).probs for k in kernels])
            expect = [float(np.linalg.norm(adjoint(mats[i:i + 1], probs[i:i + 1])[0]
                                           - np.linalg.inv(np.eye(n) + mats[i])))
                      for i in range(4)]
            for budget in (1, 2 ** 12, 2 ** 17, 2 ** 30):
                monkeypatch.setattr(minors, "_CHUNK_FLOATS", budget)
                res = identity_residuals(kernels, gen.normal(size=(4, n, n)))
                assert [r.matrix_form_residual for r in res] == expect, (n, budget)

    def test_nonpositive_minor_names_its_masks(self, monkeypatch, rng):
        bad = Kernel(np.eye(3))
        bad.matrix = NEGATIVE_3X3
        for budget in (1, 2 ** 30):
            monkeypatch.setattr(minors, "_CHUNK_FLOATS", budget)
            with pytest.raises(np.linalg.LinAlgError,
                               match=r"nonpositive principal minor at masks \[7\]"):
                identity_residuals([random_kernel(3, rng), bad, random_kernel(3, rng)],
                                   np.ones((3, 3, 3)))


class TestChunkBudget:
    @staticmethod
    def spy_chunks(monkeypatch):
        """The member slices of each `minors._chunks` call."""
        calls, chunks = [], minors._chunks

        def spy(b, floats):
            calls.append(chunks(b, floats))
            return calls[-1]

        monkeypatch.setattr(minors, "_chunks", spy)
        return calls

    def test_n10_newton_step_batches(self, monkeypatch):
        # at the default budget, six n = 10 members step in at most three
        # chunks, so their bordering, Gram and solves run batched
        star = tridiagonal_kernel(10, 2.0, 0.5)
        kernels = np.array([star.matrix * (1.0 + 0.1 * i) for i in range(6)])
        obj = estimation._Objective(build_table(star).probs[None], np.zeros(6, dtype=int))
        calls = self.spy_chunks(monkeypatch)
        estimation._newton(obj, kernels, np.arange(6), np.zeros(6, dtype=bool), 1e-8)
        assert len(calls) == 1 and len(calls[0]) <= 3

    def test_n12_identity_chunk_holds_two_members(self, monkeypatch):
        # two n = 12 identity trials share one jet pass
        gen = np.random.default_rng(12)
        kernels = [random_kernel(12, gen) for _ in range(2)]
        calls = self.spy_chunks(monkeypatch)
        identity_residuals(kernels, np.array([random_symmetric(12, gen) for _ in range(2)]))
        assert calls == [[slice(0, 2)]]


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
