import csv
import io
import json

import numpy as np
import pytest

import dppmle as d
from dppmle import minors, model, rngs
from dppmle.errors import EmptyBatch, GroundSetTooLarge, NormalizationMismatch
from dppmle.kernels import sign_vectors
from dppmle.model import EmpiricalTable, SampleBatch

from conftest import one_shot_draws, random_block_kernel, random_kernel


def csv_writer_reference(values):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["mask", "probability"])
    for m, p in enumerate(values):
        w.writerow([m, repr(float(p))])
    return buf.getvalue()


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
            d.build_table(d.Kernel(np.eye(21)))

    def test_breakdown_detection(self, rng, monkeypatch):
        ker = random_kernel(3, rng)
        good = minors.principal_logdets(ker.matrix)
        monkeypatch.setattr(minors, "principal_logdets", lambda m: good + 0.01)
        with pytest.raises(NormalizationMismatch):
            d.build_table(ker)

    def test_breakdown_detection_at_nan(self):
        # a NaN residual compares false against BREAKDOWN_TOL
        with pytest.raises(NormalizationMismatch, match="nan"), np.errstate(invalid="ignore"):
            model.normalized(np.array([0.0, np.nan]), np.array([[1.0]]))


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

    def test_draws_are_the_plain_inverse_cdf(self, rng):
        # both sides of the table-size rule: a plain search at n = 3 and a
        # sorted one at n = 12, each draw searchsorted of its own uniform,
        # the blocked stream the same as one call, at counts around blocks
        assert 2 ** 3 < model._SORTED_SEARCH_MIN_TABLE <= 2 ** 12
        b = model._BLOCK
        for n in (3, 12):
            table = d.build_table(random_kernel(n, rng))
            for seed, count, path in ((0, 1, ()), (5, 997, ()), (8, 20000, (2,)),
                                      (13, 100000, (rngs.REPLICATE_STREAM, 4)),
                                      (3, b - 1, ()), (4, b, (1,)), (6, b + 1, ()),
                                      (7, 3 * b + 7, (rngs.REPLICATE_STREAM, 2))):
                batch = d.sample(table, count, seed, stream_path=path)
                assert batch.draws.dtype == np.int64
                np.testing.assert_array_equal(batch.draws,
                                              one_shot_draws(table, count, seed, path))


class TestEmpiricalTable:
    def test_single_draw_indicator(self):
        batch = SampleBatch(n=2, seed=0, draws=np.array([3]), counts=np.bincount([3], minlength=4))
        freqs = d.empirical_table(batch)
        np.testing.assert_array_equal(freqs.freqs, [0, 0, 0, 1.0])

    def test_uniform_counts(self):
        batch = SampleBatch(n=2, seed=0, draws=np.array([0, 1, 2, 3]),
                            counts=np.ones(4, dtype=int))
        np.testing.assert_array_equal(d.empirical_table(batch).freqs, 0.25)

    def test_rejects_malformed_frequencies(self):
        for bad in ([-0.5, 1.5, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0], [0.25, 0.25, 0.0, 0.0],
                    [0.5, 0.5]):
            with pytest.raises(ValueError):
                EmpiricalTable.from_probabilities(2, np.array(bad))
            with pytest.raises(ValueError):
                EmpiricalTable(n=2, freqs=np.array(bad), total=2)

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
        table = d.build_table(random_kernel(5, rng))
        freqs = d.empirical_table(d.sample(table, 50, seed=4))
        assert table.to_csv() == csv_writer_reference(table.probs)
        assert freqs.to_csv() == csv_writer_reference(freqs.freqs)

    def test_csv_bytes_at_block_edges(self, rng, monkeypatch):
        # rows built and written a block at a time, against csv.writer:
        # tables at n = 1, 3 and 12, and vectors around a 7-row block
        b = 7
        monkeypatch.setattr(model, "_BLOCK", b)
        vectors = [d.build_table(random_kernel(n, rng)).probs for n in (1, 3, 12)]
        vectors += [rng.random(size) / size for size in (1, b - 1, b, b + 1, 3 * b + 7)]
        for values in vectors:
            buf = io.StringIO()
            model._mask_csv(values, buf)
            assert model._mask_csv(values) == buf.getvalue() == csv_writer_reference(values)

    def test_sample_batch_json_bytes(self, rng):
        batch = d.sample(d.build_table(random_kernel(4, rng)), 200, seed=6)
        assert batch.to_json() == json.dumps({
            "n": batch.n, "seed": batch.seed, "count": batch.size,
            "draws": [int(x) for x in batch.draws]})

    def test_sample_batch_json_bytes_at_block_edges(self):
        # numpy's digits against json.dumps at counts around the block
        # size, with masks 0 and 2^n - 1 on the block ends, at n = 1, 3, 18
        b = model._BLOCK
        gen = np.random.default_rng(5)
        for n in (1, 3, 18):
            for count in (0, 1, b - 1, b, b + 1, 3 * b + 7):
                draws = gen.integers(0, 2 ** n, count)
                draws[::b], draws[b - 1::b] = 0, 2 ** n - 1
                draws[-1:] = 2 ** n - 1
                batch = SampleBatch(n=n, seed=(3, n), draws=draws,
                                    counts=np.bincount(draws, minlength=2 ** n))
                text = json.dumps({"n": n, "seed": [3, n], "count": count,
                                   "draws": draws.tolist()})
                buf = io.StringIO()
                batch.to_json(buf)
                assert batch.to_json() == buf.getvalue() == text
                assert model._canonical_fields(text) is not None
                back = SampleBatch.from_json(text)
                assert back.n == n and back.seed == (3, n)
                np.testing.assert_array_equal(back.draws, draws)
                np.testing.assert_array_equal(back.counts, batch.counts)

    def test_to_json_refuses_draws_that_are_not_masks(self):
        for draws in ([4], [-1], [0, 2 ** 32]):
            batch = SampleBatch(n=2, seed=0, draws=np.array(draws), counts=np.zeros(4, int))
            with pytest.raises(ValueError):
                batch.to_json()

    def test_numpy_and_json_readers_agree(self, monkeypatch):
        # to_json's layout goes through numpy, everything else through
        # json.loads; both give the same batch on valid files (with a
        # 7-draw block, the numpy reader takes ~56 characters at a time)
        b = 7
        monkeypatch.setattr(model, "_BLOCK", b)
        draws = np.random.default_rng(7).integers(0, 2 ** 12, 5 * b + 3).tolist()
        fields = {"n": 12, "seed": [4, 1], "count": len(draws)}
        texts = {
            json.dumps({**fields, "draws": draws}): True,
            json.dumps({**fields, "draws": draws}, indent=1): False,
            json.dumps({"draws": draws, **fields}): False,
            json.dumps({"n": 12, "draws": draws, "seed": [4, 1], "count": len(draws)}): False,
            json.dumps({**fields, "draws": draws}, separators=(",", ":")): False,
            json.dumps({**fields, "note": '"draws": [1, 2]}', "draws": draws}): True,
            json.dumps({**fields, "note": ', "draws": [', "draws": draws}): True,
            json.dumps({**fields, "draws": draws}) + "\n": False,
        }
        assert [model._canonical_fields(t) is not None for t in texts] == list(texts.values())
        fast = [SampleBatch.from_json(t) for t in texts]
        monkeypatch.setattr(model, "_canonical_fields", lambda text: None)
        for text, batch in zip(texts, fast):
            ref = SampleBatch.from_json(text)
            assert (batch.n, batch.seed) == (ref.n, ref.seed) == (12, (4, 1))
            np.testing.assert_array_equal(batch.draws, draws)
            np.testing.assert_array_equal(ref.draws, draws)

    def test_readers_agree_on_edited_draws(self, monkeypatch):
        # one-character edits of a canonical file: whatever the numpy
        # reader takes, json.loads reads the same, and both refuse alike
        # (a 2-draw block makes the numpy reader split the list)
        monkeypatch.setattr(model, "_BLOCK", 2)
        text = json.dumps({"n": 4, "seed": 2, "count": 6, "draws": [0, 15, 7, 10, 1, 3]})
        body = text.index("[") + 1
        gen = np.random.default_rng(8)
        edits = []
        for _ in range(400):
            k = int(gen.integers(body, len(text) - 1))
            c = "0123456789, -.e]["[int(gen.integers(17))]
            edits.append(text[:k] + c + text[k + int(gen.integers(2)):])

        def outcome(edited):
            try:
                batch = SampleBatch.from_json(edited)
            except Exception as exc:        # noqa: BLE001 - the class is the result
                return type(exc)
            return batch.n, batch.seed, batch.draws.tolist()

        fast = [outcome(t) for t in edits]
        monkeypatch.setattr(model, "_canonical_fields", lambda text: None)
        assert fast == [outcome(t) for t in edits]

    def test_table_csv(self, rng):
        table = d.build_table(random_kernel(2, rng))
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "mask,probability"
        probs = [float(row.split(",")[1]) for row in lines[1:]]
        assert probs == pytest.approx(list(table.probs))
