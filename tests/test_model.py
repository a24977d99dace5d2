import csv
import io
import json

import numpy as np
import pytest

import dppmle as d
from dppmle import minors
from dppmle.errors import EmptyBatch, GroundSetTooLarge, NormalizationMismatch
from dppmle.kernels import sign_vectors
from dppmle.model import SampleBatch

from conftest import random_block_kernel, random_kernel


def brute_probability(matrix, mask):
    """Independent oracle: ratio of determinants, no log tricks."""
    idx = minors.subset_indices(mask)
    num = np.linalg.det(matrix[np.ix_(idx, idx)]) if idx.size else 1.0
    return num / np.linalg.det(np.eye(matrix.shape[0]) + matrix)


class TestSubsetProbability:
    def test_scalar_kernel(self):
        ker = d.Kernel([[1.0]])
        assert d.subset_probability(ker, 0) == pytest.approx(0.5)
        assert d.subset_probability(ker, 1) == pytest.approx(0.5)

    def test_identity_is_uniform(self):
        ker = d.Kernel(np.eye(2))
        for mask in range(4):
            assert d.subset_probability(ker, mask) == pytest.approx(0.25)

    def test_tridiagonal_empty_set(self):
        ker = d.tridiagonal_kernel(3, 2.0, 0.5)
        expect = 1.0 / np.linalg.det(np.eye(3) + ker.matrix)
        assert d.subset_probability(ker, 0) == pytest.approx(expect, rel=1e-12)

    def test_rejects_mask_outside_ground_set(self):
        ker = d.tridiagonal_kernel(3, 2.0, 0.5)
        for bad in (-1, 8):
            with pytest.raises(ValueError, match="outside"):
                d.subset_probability(ker, bad)


class TestBuildTable:
    def test_identity_table(self):
        table = d.build_table(d.Kernel(np.eye(2)))
        np.testing.assert_allclose(table.probs, 0.25, atol=1e-14)

    def test_invariants(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 9))
            table = d.build_table(random_kernel(n, rng))
            assert abs(table.probs.sum() - 1.0) <= 1e-10
            assert np.all(table.probs > 0)
            assert abs(table.probs[0] * table.normalizer - 1.0) <= 1e-10

    def test_normalization_identity(self, rng):
        # sum of all principal minors reproduces det(I+L)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            table = d.build_table(random_kernel(n, rng))
            assert table.normalization_residual <= 1e-9

    def test_matches_brute_force(self, rng):
        ker = random_kernel(6, rng)
        table = d.build_table(ker)
        for mask in (0, 1, 7, 21, 63):
            assert table.probs[mask] == pytest.approx(
                brute_probability(ker.matrix, mask), rel=1e-10)

    def test_sign_orbit_invariance(self, rng):
        ker = random_kernel(5, rng)
        base = d.build_table(ker).probs
        for s in sign_vectors(5):
            conj = d.Kernel(d.conjugate_by_signs(ker.matrix, s))
            assert np.abs(d.build_table(conj).probs - base).max() <= 1e-12

    def test_block_independence(self, rng):
        ker = random_block_kernel([2, 3], rng)
        table = d.build_table(ker)
        t1 = d.build_table(d.Kernel(ker.matrix[:2, :2]))
        t2 = d.build_table(d.Kernel(ker.matrix[2:, 2:]))
        for mask in range(2 ** 5):
            j1 = mask & 0b11
            j2 = mask >> 2
            assert table.probs[mask] == pytest.approx(
                t1.probs[j1] * t2.probs[j2], abs=1e-10)

    def test_ground_set_cap(self):
        with pytest.raises(GroundSetTooLarge):
            d.build_table(d.Kernel(np.eye(3)), cap=2)

    def test_breakdown_detection(self, rng, monkeypatch):
        ker = random_kernel(3, rng)
        good = minors.principal_logdets(ker.matrix)
        monkeypatch.setattr(minors, "principal_logdets", lambda m: good + 0.01)
        with pytest.raises(NormalizationMismatch):
            d.build_table(ker)


class TestInclusionProbability:
    def test_empty_set(self, rng):
        assert d.inclusion_probability(random_kernel(3, rng), 0) == 1.0

    def test_identity_singleton(self):
        assert d.inclusion_probability(d.Kernel(np.eye(2)), 0b01) == pytest.approx(0.5)

    def test_rejects_mask_outside_ground_set(self):
        table = d.build_table(d.Kernel(np.eye(2)))
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="outside"):
                d.inclusion_probability(table, bad)
            with pytest.raises(ValueError, match="outside"):
                table.inclusion_from_sum(bad)

    def test_agrees_with_superset_sum(self, rng):
        ker = random_kernel(6, rng)
        table = d.build_table(ker)
        for mask in range(2 ** 6):
            a = d.inclusion_probability(ker, mask)
            b = table.inclusion_from_sum(mask)
            assert abs(a - b) <= 1e-10


class TestEmptyProbability:
    def test_identity(self):
        assert d.empty_probability(d.Kernel(np.eye(2))) == pytest.approx(0.25)

    def test_scalar(self):
        ker = d.Kernel([[3.0]])
        k = d.l_to_k(ker).matrix
        assert d.empty_probability(ker) == pytest.approx(1.0 - k[0, 0])
        assert d.empty_probability(ker) == pytest.approx(0.25)

    def test_two_formulas_agree(self, rng):
        for _ in range(5):
            ker = random_kernel(7, rng)
            p = d.empty_probability(ker)
            det_ik = np.linalg.det(np.eye(7) - d.l_to_k(ker).matrix)
            assert abs(p - det_ik) <= 1e-12 * abs(det_ik)


class TestSampling:
    def test_determinism(self, rng):
        table = d.build_table(random_kernel(3, rng))
        b1 = d.sample(table, 5000, seed=42)
        b2 = d.sample(table, 5000, seed=42)
        np.testing.assert_array_equal(b1.draws, b2.draws)
        assert d.sample(table, 5000, seed=43).draws.tolist() != b1.draws.tolist()

    def test_scalar_frequency(self):
        table = d.build_table(d.Kernel([[1.0]]))
        batch = d.sample(table, 100000, seed=7)
        freq = batch.counts[1] / batch.size
        assert abs(freq - 0.5) <= 0.005  # ~3 sigma

    def test_total_variation_shrinks(self, rng):
        table = d.build_table(random_kernel(4, rng))
        batch = d.sample(table, 200000, seed=3)
        tv = d.total_variation(batch.counts / batch.size, table.probs)
        assert tv <= 0.02

    def test_singleton_inclusion_frequencies(self, rng):
        ker = random_kernel(4, rng)
        table = d.build_table(ker)
        batch = d.sample(table, 200000, seed=5)
        masks = np.arange(16)
        for i in range(4):
            q = d.inclusion_probability(ker, 1 << i)
            freq = batch.counts[(masks >> i & 1) == 1].sum() / batch.size
            sigma = np.sqrt(q * (1 - q) / batch.size)
            assert abs(freq - q) <= 4 * sigma

    def test_counts_match_draws(self, rng):
        table = d.build_table(random_kernel(2, rng))
        batch = d.sample(table, 1000, seed=1)
        assert batch.counts.sum() == 1000
        np.testing.assert_array_equal(batch.counts, np.bincount(batch.draws, minlength=4))


class TestEmpiricalTable:
    def test_single_draw_indicator(self):
        batch = SampleBatch(n=2, seed=0, draws=np.array([3]), counts=np.bincount([3], minlength=4))
        freqs = d.empirical_table(batch)
        np.testing.assert_array_equal(freqs.freqs, [0, 0, 0, 1.0])

    def test_uniform_counts(self):
        batch = SampleBatch(n=2, seed=0, draws=np.array([0, 1, 2, 3]),
                            counts=np.ones(4, dtype=int))
        np.testing.assert_array_equal(d.empirical_table(batch).freqs, 0.25)

    def test_empty_batch_rejected(self):
        batch = SampleBatch(n=1, seed=0, draws=np.array([], dtype=int), counts=np.zeros(2, dtype=int))
        with pytest.raises(EmptyBatch):
            d.empirical_table(batch)

    def test_law_of_large_numbers(self, rng):
        table = d.build_table(random_kernel(3, rng))
        errs = []
        for count in (1000, 100000):
            batch = d.sample(table, count, seed=11)
            freqs = d.empirical_table(batch)
            errs.append(np.abs(freqs.freqs - table.probs).max())
        assert errs[1] < errs[0]

    def test_frequencies_are_multiples(self, rng):
        table = d.build_table(random_kernel(2, rng))
        batch = d.sample(table, 640, seed=2)
        freqs = d.empirical_table(batch)
        assert abs(freqs.freqs.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(freqs.freqs * 640, np.round(freqs.freqs * 640), atol=1e-9)


class TestSerialization:
    def test_sample_batch_json_roundtrip(self, rng):
        table = d.build_table(random_kernel(3, rng))
        batch = d.sample(table, 100, seed=9)
        back = SampleBatch.from_json(batch.to_json())
        assert back.n == batch.n and back.seed == batch.seed
        np.testing.assert_array_equal(back.draws, batch.draws)
        np.testing.assert_array_equal(back.counts, batch.counts)

    def test_csv_bytes_match_csv_writer(self, rng):
        def reference(values):
            buf = io.StringIO()
            w = csv.writer(buf)
            w.writerow(["mask", "probability"])
            for m, p in enumerate(values):
                w.writerow([m, repr(float(p))])
            return buf.getvalue()

        table = d.build_table(random_kernel(5, rng))
        freqs = d.empirical_table(d.sample(table, 50, seed=4))
        assert table.to_csv() == reference(table.probs)
        assert freqs.to_csv() == reference(freqs.freqs)

    def test_sample_batch_json_bytes(self, rng):
        batch = d.sample(d.build_table(random_kernel(4, rng)), 200, seed=6)
        assert batch.to_json() == json.dumps({
            "n": batch.n, "seed": batch.seed, "count": batch.size,
            "draws": [int(x) for x in batch.draws]})

    def test_table_csv(self, rng):
        table = d.build_table(random_kernel(2, rng))
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "mask,probability"
        probs = [float(row.split(",")[1]) for row in lines[1:]]
        assert probs == pytest.approx(list(table.probs))
