import numpy as np
import pytest

import dppmle as d
from dppmle import estimation, minors
from dppmle.errors import GroundSetTooLarge, LikelihoodDecrease, SingularInformation
from dppmle.estimation import MleConfig
from dppmle.kernels import sign_vectors
from dppmle.model import EmpiricalTable

from conftest import (NEGATIVE_3X3, brute_inverses, brute_logdets, loop_moment_correlation,
                      loop_sign_corrected_init, random_block_kernel, random_kernel,
                      reference_kernels)


def exact_frequencies(kernel) -> EmpiricalTable:
    table = d.build_table(kernel)
    return EmpiricalTable.from_probabilities(kernel.n, table.probs)


class TestEmpiricalLogLikelihood:
    def test_coincides_with_population_value(self, rng):
        star = random_kernel(4, rng)
        table = d.build_table(star)
        freqs = exact_frequencies(star)
        for _ in range(5):
            cand = random_kernel(4, rng)
            a = d.empirical_log_likelihood(freqs, cand)
            b = d.expected_log_likelihood(table, cand)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_single_draw_scalar(self):
        freqs = EmpiricalTable(n=1, freqs=np.array([0.0, 1.0]), total=1)
        value = d.empirical_log_likelihood(freqs, d.Kernel([[1.0]]))
        assert value == pytest.approx(-np.log(2.0), rel=1e-14)

    def test_zero_frequency_terms_are_skipped(self, rng):
        # a subset with zero weight contributes exactly nothing
        freqs = EmpiricalTable(n=2, freqs=np.array([0.5, 0.0, 0.0, 0.5]), total=2)
        ker = random_kernel(2, rng)
        manual = 0.5 * 0.0 + 0.5 * np.linalg.slogdet(ker.matrix)[1] \
            - np.linalg.slogdet(np.eye(2) + ker.matrix)[1]
        assert d.empirical_log_likelihood(freqs, ker) == pytest.approx(manual, rel=1e-14)

    def test_orbit_invariance(self, rng):
        star = random_kernel(4, rng)
        freqs = exact_frequencies(star)
        cand = random_kernel(4, rng)
        base = d.empirical_log_likelihood(freqs, cand)
        for s in sign_vectors(4):
            conj = d.Kernel(d.conjugate_by_signs(cand.matrix, s))
            assert abs(d.empirical_log_likelihood(freqs, conj) - base) <= 1e-12 * abs(base)


class TestLikelihoodGradient:
    def test_vanishes_at_population_optimum(self, rng):
        star = random_kernel(4, rng)
        grad = d.likelihood_gradient(exact_frequencies(star), star)
        assert np.linalg.norm(grad) <= 1e-10

    def test_matches_finite_differences(self, rng):
        star = random_kernel(3, rng)
        table = d.build_table(star)
        batch = d.sample(table, 5000, seed=3)
        freqs = d.empirical_table(batch)
        cand = random_kernel(3, rng)
        grad = d.likelihood_gradient(freqs, cand)
        for _ in range(5):
            h = d.symmetrize(rng.normal(size=(3, 3)))
            h /= np.linalg.norm(h)
            step = 1e-5
            up = d.empirical_log_likelihood(freqs, d.Kernel(cand.matrix + step * h))
            dn = d.empirical_log_likelihood(freqs, d.Kernel(cand.matrix - step * h))
            fd = (up - dn) / (2 * step)
            assert fd == pytest.approx(np.sum(grad * h), rel=1e-5, abs=1e-9)

    def test_scalar_closed_form(self):
        freqs = EmpiricalTable(n=1, freqs=np.array([0.5, 0.5]), total=2)
        for lval in (0.5, 1.0, 2.0):
            grad = d.likelihood_gradient(freqs, d.Kernel([[lval]]))
            expect = 0.5 / lval - 1.0 / (1.0 + lval)
            assert grad[0, 0] == pytest.approx(expect, rel=1e-12)
        # root at L = p/(1-p) = 1
        assert d.likelihood_gradient(freqs, d.Kernel([[1.0]]))[0, 0] == pytest.approx(0.0, abs=1e-15)


class TestObjective:
    def test_value_is_minus_inf_on_nonpositive_minor(self, rng):
        # the negative minor is mask 7, observed or not; it makes only its
        # own member -inf
        good = random_kernel(3, rng).matrix
        for freqs in ([0.5, 0.5, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1.0]):
            obj = estimation._Objective(np.array([freqs, freqs]))
            values, _ = obj.evaluate(np.array([NEGATIVE_3X3, good]), [0, 1])
            alone, _ = obj.evaluate(good[None], [1])
            assert values[0] == -np.inf
            assert values[1] == alone[0] and np.isfinite(alone[0])

    def test_matches_per_mask_reference(self, rng):
        # log det(I+L) as a logsumexp over the minors, and the gradient as
        # one adjoint sweep with weights q - p, against slogdet and inv
        for name, a in reference_kernels():
            n = a.shape[0]
            raw = rng.random(2 ** n) * (rng.random(2 ** n) < 0.5)
            raw[0] += 1.0
            q = raw / raw.sum()
            value = q @ brute_logdets(a) - np.linalg.slogdet(np.eye(n) + a)[1]
            grad = np.einsum("m,mij->ij", q, brute_inverses(a)) - np.linalg.inv(np.eye(n) + a)
            obj = estimation._Objective(q[None])
            values, point = obj.evaluate(a[None], [0])
            assert values[0] == pytest.approx(value, rel=1e-12, abs=1e-12), name
            np.testing.assert_allclose(obj.gradient(point, np.arange(1))[0], grad,
                                       rtol=1e-12, atol=1e-12, err_msg=name)

    def test_fit_does_not_call_public_minors(self, monkeypatch):
        # the traced public primitives must not count objective calls
        freqs = d.empirical_table(d.sample(d.build_table(random_block_kernel([2, 2], np.random.default_rng(3))),
                                           500, seed=4))

        def banned(*args, **kwargs):
            raise AssertionError("fit_mle called a public minors primitive")

        monkeypatch.setattr(minors, "principal_logdets", banned)
        monkeypatch.setattr(minors, "padded_inverses", banned)
        result = d.fit_mle(freqs, MleConfig(seed=2, restarts=3))
        assert np.isfinite(result.log_likelihood)

    def test_strict_lower_is_cached_and_read_only(self):
        rows, cols = estimation._strict_lower(5)
        expect = np.tril_indices(5, k=-1)
        np.testing.assert_array_equal(rows, expect[0])
        np.testing.assert_array_equal(cols, expect[1])
        assert estimation._strict_lower(5)[0] is rows
        with pytest.raises(ValueError):
            rows[0] = 1


def fit_one(obj, start, config):
    """A single member through the batched fitter, as plain values."""
    matrices, fvals, iters, conv, gnorms = estimation._fit_batch(obj, start[None], config)
    return matrices[0], fvals[0], iters[0], conv[0], gnorms[0]


class TestLineSearch:
    def test_flat_value_reaches_grad_tol(self):
        """A constant value never passes Armijo, so every step must pass
        the slope test; the gradient is that of -||L - target||^2 / 2."""
        target = np.array([[2.0, 0.5], [0.5, 1.0]])

        class Flat:
            def evaluate(self, matrices, members):
                return np.full(len(matrices), -3.0), matrices

            def gradient(self, point, which):
                return target - point[which]

        cfg = MleConfig()
        matrix, fval, iters, conv, gnorm = fit_one(Flat(), np.eye(2), cfg)
        assert conv and gnorm <= cfg.grad_tol and iters < cfg.max_iters
        np.testing.assert_allclose(matrix, target, atol=1e-8)

    def test_gives_up_when_no_step_moves_theta(self):
        """Every move lowers the likelihood; the gradient is above grad_tol
        but so small that backtracking stops moving theta above its step
        floor, where Armijo would pass on roundoff alone, every iteration."""

        class Peaked:
            peak = None
            calls = 0

            def evaluate(self, matrices, members):
                if self.peak is None:
                    self.peak = matrices[0].copy()
                self.calls += len(matrices)
                return -1.0 - 1e30 * ((matrices - self.peak) ** 2).sum(axis=(1, 2)), None

            def gradient(self, point, which):
                return np.repeat(1e-6 * np.eye(2)[None], len(which), axis=0)

        obj = Peaked()
        cfg = MleConfig()
        _, fval, iters, conv, gnorm = fit_one(obj, 2.0 * np.eye(2), cfg)
        # a step may still change theta in its last bit but not the matrix
        assert iters <= 2 and not conv and gnorm > cfg.grad_tol
        assert fval == -1.0 and obj.calls < 200


def replicate_tables(n, count, size, seed=5):
    star = d.tridiagonal_kernel(n, 2.0, 0.6) if n > 1 else d.Kernel([[1.5]])
    table = d.build_table(star)
    return [d.empirical_table(d.sample(table, size, seed, stream_path=(1, r)))
            for r in range(count)]


def batch_of(tables, config):
    """(objective, starts) of every restart of every table."""
    freqs = np.repeat([t.freqs for t in tables], config.restarts, axis=0)
    starts = np.concatenate([estimation._starts(t, config) for t in tables])
    return estimation._Objective(freqs), starts


class TestLockstepBatch:
    def assert_members_equal(self, batch, members, alone, where=""):
        for field, whole, own in zip(("matrix", "f", "iterations", "converged", "gnorm"),
                                     batch, alone):
            np.testing.assert_array_equal(whole[members], own, err_msg=f"{where} {field}")

    def test_composition_invariance(self, monkeypatch):
        """Each member's fit is bitwise the same alone, in the batch, and
        split across chunks, over several sampled batches."""
        cfg = MleConfig(seed=3, restarts=3)
        for seed in (1, 4, 5, 6):
            obj, starts = batch_of(replicate_tables(3, 4, 300, seed), cfg)
            whole = estimation._fit_batch(obj, starts, cfg)
            assert whole[2].max() > 1                   # real fits, not stops at the start
            for i in range(len(starts)):
                alone = estimation._Objective(obj.freqs[i:i + 1])
                self.assert_members_equal(whole, [i], estimation._fit_batch(
                    alone, starts[i:i + 1], cfg), f"seed {seed} member {i}")
            with monkeypatch.context() as m:
                m.setattr(estimation, "_FIT_CHUNK_MASKS", 5 * 2 ** 3)
                chunked = estimation._fit_batch(obj, starts, cfg)
            self.assert_members_equal(whole, slice(None), chunked, f"seed {seed} chunked")

    def test_one_bad_member_stops_alone(self):
        """Member 1's candidates have a nonpositive minor, member 3's line
        search never accepts; both stop at their start, the others'
        results are bitwise those of the batch without the faults."""
        cfg = MleConfig(seed=3, restarts=2)
        obj, starts = batch_of(replicate_tables(3, 2, 400), cfg)
        clean = estimation._fit_batch(obj, starts, cfg)

        class Faulty(estimation._Objective):
            calls = 0

            def evaluate(self, matrices, members):
                self.calls += 1
                matrices = matrices.copy()
                if self.calls > 1:
                    matrices[np.asarray(members) == 1] = NEGATIVE_3X3
                values, point = super().evaluate(matrices, members)
                if self.calls > 1:
                    values[np.asarray(members) == 3] = -np.inf
                return values, point

        faulty = estimation._fit_batch(Faulty(obj.freqs), starts, cfg)
        self.assert_members_equal(clean, [0, 2], [x[[0, 2]] for x in faulty])
        np.testing.assert_array_equal(faulty[2][[1, 3]], 0)
        assert not faulty[3][[1, 3]].any()
        assert clean[2][[1, 3]].min() > 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mixed_edge_members(self, n):
        """n = 1 and a one-mask table, batched with ordinary tables."""
        cfg = MleConfig(seed=2, restarts=2, max_iters=200)
        one_mask = EmpiricalTable(n=n, freqs=np.eye(2 ** n)[2 ** n - 1], total=7)
        tables = replicate_tables(n, 2, 200) + [one_mask]
        obj, starts = batch_of(tables, cfg)
        whole = estimation._fit_batch(obj, starts, cfg)
        for i in range(len(starts)):
            self.assert_members_equal(whole, [i], estimation._fit_batch(
                estimation._Objective(obj.freqs[i:i + 1]), starts[i:i + 1], cfg))
        assert np.isfinite(whole[1]).all()
        # the one-mask table's sup is on the boundary: held by the box
        lo, hi = cfg.spectral_box
        for matrix in whole[0][-2:]:
            eigs = d.l_to_k(d.Kernel(d.symmetrize(matrix))).eigenvalues
            assert eigs[0] >= lo - 1e-12 and eigs[-1] <= hi + 1e-12


class TestFitMle:
    def test_population_recovery_n3(self, rng):
        star = d.tridiagonal_kernel(3, 2.0, 0.8)
        result = d.fit_mle(exact_frequencies(star), MleConfig(seed=5))
        assert result.converged
        assert d.sign_orbit_loss(result.estimate, star).value <= 1e-4

    def test_scalar_closed_form(self):
        freqs = EmpiricalTable(n=1, freqs=np.array([0.5, 0.5]), total=2)
        result = d.fit_mle(freqs, MleConfig(seed=0))
        assert result.estimate.matrix[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_more_restarts_never_hurt(self, rng):
        star = random_kernel(3, rng)
        batch = d.sample(d.build_table(star), 300, seed=9)
        freqs = d.empirical_table(batch)
        phi1 = d.fit_mle(freqs, MleConfig(restarts=1, seed=4)).log_likelihood
        phi5 = d.fit_mle(freqs, MleConfig(restarts=5, seed=4)).log_likelihood
        assert phi5 >= phi1 - 1e-12

    def test_deterministic(self, rng):
        star = random_kernel(3, rng)
        batch = d.sample(d.build_table(star), 500, seed=2)
        freqs = d.empirical_table(batch)
        r1 = d.fit_mle(freqs, MleConfig(seed=7))
        r2 = d.fit_mle(freqs, MleConfig(seed=7))
        np.testing.assert_array_equal(r1.estimate.matrix, r2.estimate.matrix)
        assert r1.log_likelihood == r2.log_likelihood

    def test_converged_gradient_norm(self, rng):
        star = random_kernel(2, rng)
        cfg = MleConfig(seed=3)
        result = d.fit_mle(exact_frequencies(star), cfg)
        assert result.converged
        assert result.gradient_norm <= cfg.grad_tol

    def test_estimate_dominates_other_candidates(self, rng):
        star = random_kernel(5, rng)
        batch = d.sample(d.build_table(star), 2000, seed=8)
        freqs = d.empirical_table(batch)
        result = d.fit_mle(freqs, MleConfig(seed=1))
        for _ in range(5):
            other = random_kernel(5, rng)
            assert d.empirical_log_likelihood(freqs, other) <= result.log_likelihood + 1e-9

    def test_config_validation(self):
        for kwargs in ({"spectral_box": (0.5, 0.4)}, {"restarts": 0},
                       {"restarts": 2.5}, {"max_iters": 100.0},
                       {"grad_tol": float("nan")}, {"grad_tol": float("inf")},
                       {"init_jitter": float("nan")}, {"init_jitter": float("inf")},
                       {"seed": -1}, {"seed": 1.5}, {"seed": "1"}):
            with pytest.raises(ValueError):
                MleConfig(**kwargs)

    def test_accepted_decrease_raises(self):
        class Decreasing:
            """Line search sees a rise at a point outside the box, the
            refactored projected point a fall."""
            calls = 0

            def evaluate(self, matrices, members):
                self.calls += 1
                return np.full(len(matrices), (0.0, 1.0, -5.0)[min(self.calls, 3) - 1]), None

            def gradient(self, point, which):
                # the first step leaves the box
                return np.repeat(5.0 * np.eye(2)[None], len(which), axis=0)

        with pytest.raises(LikelihoodDecrease):
            fit_one(Decreasing(), np.eye(2), MleConfig())

    def test_degenerate_table_clamps_to_box(self):
        # all mass on one subset: the likelihood sup is on the boundary,
        # so the box must hold the iterates and the fit must flag
        # non-convergence instead of diverging
        freqs = EmpiricalTable(n=2, freqs=np.array([0.0, 1.0, 0.0, 0.0]), total=5)
        cfg = MleConfig(seed=1, restarts=2, max_iters=300)
        result = d.fit_mle(freqs, cfg)
        assert not result.converged
        eigs = d.l_to_k(result.estimate).eigenvalues
        lo, hi = cfg.spectral_box
        assert eigs[0] >= lo - 1e-12 and eigs[-1] <= hi + 1e-12


class TestSignOrbitLoss:
    def test_zero_at_identity(self, rng):
        ker = random_kernel(3, rng)
        loss = d.sign_orbit_loss(ker, ker)
        assert loss.value == 0.0
        np.testing.assert_array_equal(loss.argmin_signs, np.ones(3))

    def test_zero_on_whole_orbit_exactly(self, rng):
        ker = random_kernel(4, rng)
        for s in sign_vectors(4):
            conj = d.Kernel(d.conjugate_by_signs(ker.matrix, s))
            assert d.sign_orbit_loss(conj, ker).value == 0.0

    def test_two_by_two_enumeration(self):
        star = d.Kernel(np.array([[2.0, 0.5], [0.5, 2.0]]))
        hat_m = star.matrix.copy()
        hat_m[0, 0] += 0.1
        hat = d.Kernel(hat_m)
        loss = d.sign_orbit_loss(hat, star)
        assert loss.value == pytest.approx(0.1, rel=1e-12)
        np.testing.assert_array_equal(loss.argmin_signs, [1.0, 1.0])
        # the flipped class differs by 1.0 in both off-diagonal slots
        flipped = np.linalg.norm(hat_m - d.conjugate_by_signs(star.matrix, [1.0, -1.0]))
        assert flipped == pytest.approx(np.sqrt(0.01 + 2 * 1.0 ** 2), rel=1e-12)

    def test_orbit_symmetry_exact(self, rng):
        hat, star = random_kernel(3, rng), random_kernel(3, rng)
        base = d.sign_orbit_loss(hat, star).value
        for s1 in sign_vectors(3):
            for s2 in sign_vectors(3):
                a = d.Kernel(d.conjugate_by_signs(hat.matrix, s1))
                b = d.Kernel(d.conjugate_by_signs(star.matrix, s2))
                assert d.sign_orbit_loss(a, b).value == base

    def test_half_enumeration_equals_full(self, rng):
        for n in (2, 3, 4):
            hat, star = random_kernel(n, rng), random_kernel(n, rng)
            half = d.sign_orbit_loss(hat, star).value

            def frob(s):
                diff = hat.matrix - d.conjugate_by_signs(star.matrix, s)
                return float(np.sqrt((diff * diff).sum()))

            assert half == min(frob(s) for s in sign_vectors(n))

    def test_upper_bounded_by_plain_distance(self, rng):
        hat, star = random_kernel(4, rng), random_kernel(4, rng)
        loss = d.sign_orbit_loss(hat, star)
        assert loss.value <= np.linalg.norm(hat.matrix - star.matrix) + 1e-15

    def test_matches_loop_reference(self, rng):
        def loop_loss(hat, star):
            best_val, best_signs = None, None
            for s in sign_vectors(hat.n, fix_first=True):
                diff = hat.matrix - np.outer(s, s) * star.matrix
                val = float(np.sqrt((diff * diff).sum()))
                if best_val is None or val < best_val:
                    best_val, best_signs = val, s.copy()
            return best_val, best_signs

        cases = [(random_kernel(n, rng), random_kernel(n, rng)) for n in range(1, 9)]
        # ties: a diagonal truth is at the same distance from every class
        cases.append((random_kernel(5, rng), d.Kernel(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))))
        star = random_block_kernel([3, 3], rng)
        cases.append((star, star))
        for hat, star in cases:
            loss = d.sign_orbit_loss(hat, star)
            val, signs = loop_loss(hat, star)
            assert loss.value == val
            np.testing.assert_array_equal(loss.argmin_signs, signs)

    def test_cap(self):
        big = d.Kernel(np.eye(21))
        with pytest.raises(GroundSetTooLarge):
            d.sign_orbit_loss(big, big)


class TestBlockwiseLoss:
    def test_irreducible_has_no_cross(self, rng):
        star = d.tridiagonal_kernel(3, 2.0, 0.5)
        hat = random_kernel(3, rng)
        bw = d.blockwise_loss(hat, star, d.determinantal_graph(star))
        assert bw.cross == 0.0

    def test_exact_estimate(self, rng):
        star = random_block_kernel([2, 1], rng)
        bw = d.blockwise_loss(star, star, d.determinantal_graph(star))
        assert bw.within == 0.0 and bw.cross == 0.0

    def test_pure_cross_perturbation(self, rng):
        star = random_block_kernel([2, 1], rng)
        graph = d.determinantal_graph(star)
        eps = 1e-3
        hat_m = star.matrix.copy()
        for i, j in graph.cross_pairs():
            hat_m[i, j] = hat_m[j, i] = eps
        bw = d.blockwise_loss(d.Kernel(hat_m), star, graph)
        assert bw.within == pytest.approx(0.0, abs=1e-15)
        assert bw.cross == pytest.approx(eps * np.sqrt(2 * len(graph.cross_pairs())), rel=1e-12)

    def test_splits_total(self, rng):
        star = random_block_kernel([2, 2], rng)
        hat = random_kernel(4, rng)
        graph = d.determinantal_graph(star)
        bw = d.blockwise_loss(hat, star, graph)
        total = d.sign_orbit_loss(hat, star).value
        assert np.hypot(bw.within, bw.cross) == pytest.approx(total, rel=1e-12)


class TestMomentInit:
    def test_recovers_diagonal_kernel(self):
        star = d.Kernel(np.diag([0.5, 2.0, 3.0]))
        freqs = exact_frequencies(star)
        init = d.moment_init(freqs)
        np.testing.assert_allclose(np.diag(init.matrix), [0.5, 2.0, 3.0], atol=1e-10)
        off = init.matrix - np.diag(np.diag(init.matrix))
        assert np.abs(off).max() <= 1e-10

    def test_always_valid(self, rng):
        # arbitrary frequency vectors still give a usable kernel
        raw = rng.random(8)
        freqs = EmpiricalTable(n=3, freqs=raw / raw.sum(), total=100)
        init = d.moment_init(freqs)
        assert isinstance(init, d.Kernel)

    def test_offdiagonal_magnitude(self):
        star = d.Kernel(np.array([[1.0, 0.5], [0.5, 1.5]]))
        init = d.moment_init(exact_frequencies(star))
        k_true = d.l_to_k(star).matrix
        k_init = d.l_to_k(init).matrix
        assert abs(k_init[0, 1]) == pytest.approx(abs(k_true[0, 1]), abs=1e-10)


def reference_tables():
    """Population and sampled frequency tables of the reference kernels."""
    for k, (name, matrix) in enumerate(reference_kernels()):
        star = d.Kernel(matrix)
        yield f"{name}-population", exact_frequencies(star)
        yield f"{name}-sampled", d.empirical_table(d.sample(d.build_table(star), 400, seed=k))


class TestMomentStarts:
    """The superset-sum moments and sign anchors against one scan over
    all masks per moment.  An off-diagonal entry is the square root of a
    moment gap, which magnifies the gap's roundoff near zero, so the
    squares, the moments themselves, are compared."""

    @pytest.fixture
    def raw_signs(self, monkeypatch):
        """Sign-corrected starts as the signed correlation matrices
        themselves, before the spectral clip."""
        monkeypatch.setattr(estimation, "_clip_to_kernel", lambda k_hat, box: k_hat)

    def test_moments_match_loop_reference(self):
        for name, freqs in reference_tables():
            np.testing.assert_allclose(estimation._moment_correlation(freqs) ** 2,
                                       loop_moment_correlation(freqs) ** 2,
                                       rtol=0, atol=1e-12, err_msg=name)

    def test_sign_patterns_match_loop_reference(self, raw_signs):
        signed = 0
        for name, freqs in reference_tables():
            fast = estimation._sign_corrected_init(freqs, (1e-4, 1 - 1e-4))
            loop = loop_sign_corrected_init(freqs, (1e-4, 1 - 1e-4))
            assert (fast is None) == (loop is None), name
            if fast is not None:
                signed += 1
                np.testing.assert_array_equal(np.sign(fast), np.sign(loop), err_msg=name)
                np.testing.assert_allclose(fast ** 2, loop ** 2, rtol=0, atol=1e-12,
                                           err_msg=name)
        assert signed >= 10                    # the comparison sees real sign changes

    def test_signed_start_past_twelve(self, raw_signs):
        freqs = exact_frequencies(d.tridiagonal_kernel(13, 2.0, 0.9))
        fast = estimation._sign_corrected_init(freqs, (1e-4, 1 - 1e-4))
        loop = loop_sign_corrected_init(freqs, (1e-4, 1 - 1e-4))
        np.testing.assert_array_equal(np.sign(fast), np.sign(loop))
        assert (fast < 0).any()

    def test_no_signed_start_below_three(self):
        for n in (1, 2):
            freqs = exact_frequencies(d.tridiagonal_kernel(n, 2.0, 0.9))
            assert estimation._sign_corrected_init(freqs, (1e-4, 1 - 1e-4)) is None

    def test_scalar_moment(self):
        freqs = EmpiricalTable(n=1, freqs=np.array([0.25, 0.75]), total=4)
        np.testing.assert_array_equal(estimation._moment_correlation(freqs), [[0.75]])

    @pytest.mark.parametrize("mask", [0, 5, 7])
    def test_one_mask_table(self, mask):
        freqs = EmpiricalTable(n=3, freqs=np.eye(8)[mask], total=3)
        in_mask = np.array([mask >> i & 1 for i in range(3)], dtype=float)
        np.testing.assert_array_equal(estimation._moment_correlation(freqs), np.diag(in_mask))
        assert estimation._sign_corrected_init(freqs, (1e-4, 1 - 1e-4)) is None
        eigs = d.l_to_k(d.moment_init(freqs)).eigenvalues
        assert eigs[0] >= 1e-4 - 1e-12 and eigs[-1] <= 1 - 1e-4 + 1e-12


class TestEstimateRisk:
    def test_oracle_estimator_gives_zero_risk(self, rng):
        star = random_kernel(3, rng)
        risk = d.estimate_risk(star, 100, 5, MleConfig(seed=0), seed=4,
                               estimator=lambda freqs: star)
        assert risk.mean_loss == 0.0
        assert np.all(risk.losses == 0.0)

    def test_replicate_prefix_stability(self, rng):
        star = random_kernel(2, rng)
        cfg = MleConfig(seed=1, restarts=2)
        small = d.estimate_risk(star, 200, 3, cfg, seed=99)
        large = d.estimate_risk(star, 200, 6, cfg, seed=99)
        np.testing.assert_array_equal(small.losses, large.losses[:3])

    def test_median_risk_nonincreasing(self, rng):
        star = d.tridiagonal_kernel(3, 2.0, 0.5)
        cfg = MleConfig(seed=11, restarts=3)
        medians = []
        for size in (1000, 10000, 100000):
            risk = d.estimate_risk(star, size, 50, cfg, seed=17)
            medians.append(risk.median_loss)
        assert medians[0] >= medians[1] >= medians[2]

    def test_standard_error(self, rng):
        star = random_kernel(2, rng)
        risk = d.estimate_risk(star, 200, 8, MleConfig(seed=1), seed=3)
        assert risk.std_error == pytest.approx(risk.losses.std(ddof=1) / np.sqrt(8))

    def test_csv_export(self, rng):
        star = random_kernel(2, rng)
        risk = d.estimate_risk(star, 100, 3, MleConfig(seed=1), seed=2)
        lines = risk.to_csv().strip().splitlines()
        assert lines[0] == "replicate,loss,within,cross,converged,iterations"
        assert len(lines) == 4

    def test_requires_two_replicates(self, rng):
        with pytest.raises(ValueError):
            d.estimate_risk(random_kernel(2, rng), 100, 1, MleConfig(), seed=0)


class TestAsymptoticCovariance:
    def test_scalar_two_outcome_model(self):
        # L* = [1]: the diagonal trace statistic is Bernoulli(1/2), so the
        # information is 1/4 and the covariance is 4.
        star = d.Kernel([[1.0]])
        cov = d.asymptotic_covariance(star)
        table = d.build_table(star)
        t = np.array([0.0, 1.0])
        info = (t ** 2 @ table.probs) - (t @ table.probs) ** 2
        assert cov[0, 0] == pytest.approx(1.0 / info, rel=1e-12)
        assert cov[0, 0] == pytest.approx(4.0, rel=1e-12)

    def test_reducible_is_singular(self):
        with pytest.raises(SingularInformation):
            d.asymptotic_covariance(d.Kernel(np.diag([1.0, 2.0])))

    def test_positive_definite(self, rng):
        cov = d.asymptotic_covariance(d.tridiagonal_kernel(3, 2.0, 0.9))
        assert np.linalg.eigvalsh(cov)[0] > 0

    def test_variance_grows_with_ground_set(self):
        tops = [np.linalg.eigvalsh(d.asymptotic_covariance(
            d.tridiagonal_kernel(n, 2.0, 0.9)))[-1] for n in (3, 4, 5)]
        assert tops[0] < tops[1] < tops[2]


class TestMleResultSerialization:
    def test_json_fields(self, rng):
        star = random_kernel(2, rng)
        result = d.fit_mle(exact_frequencies(star), MleConfig(seed=0))
        import json
        obj = json.loads(result.to_json())
        assert obj["converged"] is True
        assert len(obj["estimate"]) == 4

    def test_config_json_roundtrip(self):
        cfg = MleConfig.from_json({"restarts": 2, "seed": 5, "spectral_box": [0.01, 0.99]})
        assert cfg.restarts == 2
        assert cfg.spectral_box == (0.01, 0.99)
        assert MleConfig.from_json(cfg.to_dict()) == cfg
