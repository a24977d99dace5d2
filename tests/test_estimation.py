import sys

import numpy as np
import pytest

import dppmle as d
from dppmle import estimation, geometry, minors
from dppmle.errors import GroundSetTooLarge, SingularInformation
from dppmle.estimation import MleConfig
from dppmle.kernels import sign_vectors
from dppmle.model import EmpiricalTable

from conftest import (NEGATIVE_3X3, brute_inverses, brute_logdets, loop_loss,
                      loop_moment_correlation, loop_sign_corrected_init, random_block_kernel,
                      random_kernel, reference_kernels)


#: The Gram flags of a one-member derivative pass that forms its Hessian.
ONE = np.ones(1, dtype=bool)


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


    def test_matches_per_mask_reference(self, rng):
        # sum_J q_J inv(L_J) - inv(I+L), one inverse per mask, and exactly symmetric
        for name, a in reference_kernels():
            n = a.shape[0]
            raw = rng.random(2 ** n) * (rng.random(2 ** n) < 0.5)
            raw[0] += 1.0
            freqs = EmpiricalTable(n=n, freqs=raw / raw.sum(), total=1)
            expect = (np.einsum("m,mij->ij", freqs.freqs, brute_inverses(a))
                      - np.linalg.inv(np.eye(n) + a))
            grad = d.likelihood_gradient(freqs, d.Kernel(a))
            np.testing.assert_array_equal(grad, grad.T)
            np.testing.assert_allclose(grad, expect, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(expect).max()), err_msg=name)

    def test_is_the_fitters_gradient(self, rng):
        # bitwise the gradient a Newton step reads, whose pass sums a Gram
        for name, a in reference_kernels():
            n = a.shape[0]
            raw = rng.random(2 ** n) * (rng.random(2 ** n) < 0.5)
            raw[0] += 1.0
            freqs = EmpiricalTable(n=n, freqs=raw / raw.sum(), total=1)
            obj = estimation._Objective(freqs.freqs[None])
            np.testing.assert_array_equal(d.likelihood_gradient(freqs, d.Kernel(a)),
                                          obj.derivatives(a[None], [0], ONE)[0][0], err_msg=name)


class TestObjective:
    def test_value_is_minus_inf_on_nonpositive_minor(self, rng):
        # the negative minor is mask 7, observed or not; it makes only its
        # own member -inf
        good = random_kernel(3, rng).matrix
        for freqs in ([0.5, 0.5, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1.0]):
            obj = estimation._Objective(np.array([freqs, freqs]))
            values = obj.evaluate(np.array([NEGATIVE_3X3, good]), [0, 1])
            alone = obj.evaluate(good[None], [1])
            assert values[0] == -np.inf
            assert values[1] == alone[0] and np.isfinite(alone[0])

    def test_matches_per_mask_reference(self, rng):
        # log det(I+L) as a logsumexp over the minors, and the gradient as
        # the padded inverses weighted by q - p, against slogdet and inv
        for name, a in reference_kernels():
            n = a.shape[0]
            raw = rng.random(2 ** n) * (rng.random(2 ** n) < 0.5)
            raw[0] += 1.0
            q = raw / raw.sum()
            value = q @ brute_logdets(a) - np.linalg.slogdet(np.eye(n) + a)[1]
            grad = np.einsum("m,mij->ij", q, brute_inverses(a)) - np.linalg.inv(np.eye(n) + a)
            obj = estimation._Objective(q[None])
            assert obj.evaluate(a[None], [0])[0] == pytest.approx(value, rel=1e-12,
                                                                  abs=1e-12), name
            np.testing.assert_allclose(obj.derivatives(a[None], [0], ONE)[0][0], grad,
                                       rtol=1e-12, atol=1e-12, err_msg=name)

    def test_hessian_matches_per_mask_reference(self, rng):
        # -sum_J q_J Tr(P_J E_p P_J E_q) + Tr(G E_p G E_q) over the
        # orthonormal symmetric basis, one inverse per mask
        for name, a in reference_kernels():
            n = a.shape[0]
            raw = rng.random(2 ** n) * (rng.random(2 ** n) < 0.5)
            raw[0] += 1.0
            q = raw / raw.sum()
            inv, glob = brute_inverses(a), np.linalg.inv(np.eye(n) + a)
            per = [(inv @ e, glob @ e) for e in d.symmetric_basis(n)]
            expect = np.array([[np.trace(gp @ gq) - q @ np.einsum("jab,jba->j", mp, mq)
                                for mq, gq in per] for mp, gp in per])
            obj = estimation._Objective(q[None])
            np.testing.assert_allclose(obj.derivatives(a[None], [0], ONE)[1][0], expect,
                                       rtol=0, atol=1e-10, err_msg=name)

    def test_exact_when_the_frequencies_miss_one(self, rng):
        # frequencies summing to 1 + 1e-10, within what EmpiricalTable
        # accepts: the gradient is sum_J q_J P_J - G and the Hessian
        # -sum_J q_J P_J (x) P_J + G (x) G, G = (I+L)^{-1}, to 1e-12 of
        # their scale, (1 - sum q) terms included
        for name, a in reference_kernels():
            n = a.shape[0]
            raw = rng.random(2 ** n) * (rng.random(2 ** n) < 0.5)
            raw[0] += 1.0
            freqs = EmpiricalTable(n=n, freqs=raw / raw.sum() * (1.0 + 1e-10), total=1)
            q = freqs.freqs
            inv, glob = brute_inverses(a), np.linalg.inv(np.eye(n) + a)
            grad = np.einsum("m,mij->ij", q, inv) - glob
            per = [(inv @ e, glob @ e) for e in d.symmetric_basis(n)]
            hess = np.array([[np.trace(gp @ gq) - q @ np.einsum("jab,jba->j", mp, mq)
                              for mq, gq in per] for mp, gp in per])
            got = estimation._Objective(q[None]).derivatives(a[None], [0], ONE)
            for what, ref in zip(got, (grad, hess)):
                np.testing.assert_allclose(what[0], ref, rtol=0,
                                           atol=1e-12 * max(1.0, np.abs(ref).max()), err_msg=name)

    def test_hessian_matches_gradient_differences(self, rng):
        # central differences of the gradient's coordinates along each
        # basis direction, on sampled frequencies
        star = d.tridiagonal_kernel(4, 2.0, 0.7)
        freqs = d.empirical_table(d.sample(d.build_table(star), 3000, seed=6))
        cand = random_kernel(4, rng)
        obj = estimation._Objective(freqs.freqs[None])
        hess = obj.derivatives(cand.matrix[None], [0], ONE)[1][0]
        basis = d.symmetric_basis(4)
        step = 1e-5
        for p, ep in enumerate(basis):
            up = d.likelihood_gradient(freqs, d.Kernel(cand.matrix + step * ep))
            dn = d.likelihood_gradient(freqs, d.Kernel(cand.matrix - step * ep))
            fd = d.sym_to_coords(d.symmetrize(up - dn)) / (2 * step)
            np.testing.assert_allclose(hess[p], fd, rtol=0, atol=1e-7, err_msg=f"direction {p}")

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

    def test_gram_pairs_are_cached_and_read_only(self):
        # the Hessian's m x m pair map, against a loop over the coordinate
        # pairs of the kernels layout
        n = 5
        coords = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = len(coords)
        index = {}
        for at, (i, j) in enumerate(coords):
            index[i, j] = index[j, i] = at
        pairs = np.empty((2, m, m), dtype=int)
        weights = np.empty((m, m))
        for a, (i, j) in enumerate(coords):
            for b, (k, l) in enumerate(coords):
                pairs[:, a, b] = index[j, k] * m + index[i, l], index[j, l] * m + index[i, k]
                c = [0.5 if x == y else np.sqrt(0.5) for x, y in ((i, j), (k, l))]
                weights[a, b] = -2.0 * c[0] * c[1]
        layout = geometry._gram_pairs(n)
        np.testing.assert_array_equal(layout[0], [i * n + j for i, j in coords])
        np.testing.assert_array_equal(layout[1], [[index[i, j] for j in range(n)] for i in range(n)])
        np.testing.assert_array_equal(layout[2], pairs)
        np.testing.assert_allclose(layout[3], weights, rtol=1e-15)
        assert geometry._gram_pairs(n)[2] is layout[2]
        for x in layout:
            with pytest.raises(ValueError):
                x[(0,) * x.ndim] = 1


def fit_one(obj, start, config):
    """A single member through the batched fitter, as plain values."""
    return tuple(column[0] for column in estimation._lockstep(obj, start[None], config))


def fake_derivatives(grads, gram, curvature=1.0):
    """What `_Objective.derivatives` returns for 2 x 2 kernels with these
    gradients and, for the members `gram` selects, the Hessian
    -curvature I in symmetric coordinates, that of -curvature ||L - T||^2
    / 2."""
    count = len(grads) if gram is None else int(np.sum(gram))
    return grads, np.repeat(-curvature * np.eye(3)[None], count, axis=0)


class TestLineSearch:
    def test_gives_up_when_no_step_moves_theta(self):
        """Every move lowers the likelihood; the gradient is above grad_tol
        and its Newton decrement above roundoff, but so small that
        backtracking stops moving L above its step floor."""

        class Peaked:
            peak = None
            calls = 0

            def evaluate(self, matrices, members):
                if self.peak is None:
                    self.peak = matrices[0].copy()
                self.calls += len(matrices)
                return -1.0 - 1e30 * ((matrices - self.peak) ** 2).sum(axis=(1, 2))

            def derivatives(self, matrices, members, gram=None):
                return fake_derivatives(np.repeat(1e-6 * np.eye(2)[None], len(matrices), axis=0),
                                        gram)

        obj = Peaked()
        cfg = MleConfig()
        _, fval, iters, conv, gnorm, stop = fit_one(obj, 2.0 * np.eye(2), cfg)
        assert iters == 0 and not conv and gnorm > cfg.grad_tol
        assert estimation.STOP_REASONS[stop] == "line_search"
        assert fval == -1.0 and obj.calls < 200

    def test_decrement_below_roundoff_stops(self):
        """f = 1e6 - ||L - T||^2 / 2 with T 1e-6 away, and a Hessian of
        twice the true curvature: the gradient stays above grad_tol, but
        the decrement is below what f resolves, so the member takes the
        (half) Newton step once and stops."""
        target = np.eye(2) + 1e-6 * np.array([[1.0, 0.0], [0.0, -1.0]])

        class Quadratic:
            calls = 0

            def evaluate(self, matrices, members):
                self.calls += 1
                return 1e6 - 0.5 * ((matrices - target) ** 2).sum(axis=(1, 2))

            def derivatives(self, matrices, members, gram=None):
                return fake_derivatives(target - matrices, gram, 2.0)

        obj = Quadratic()
        cfg = MleConfig()
        matrix, fval, iters, conv, gnorm, stop = fit_one(obj, np.eye(2), cfg)
        assert estimation.STOP_REASONS[stop] == "roundoff"
        assert iters == 1 and not conv and gnorm > cfg.grad_tol
        np.testing.assert_allclose(matrix, (np.eye(2) + target) / 2, rtol=0, atol=1e-15)
        assert obj.calls == 2          # the start and the full step, evaluated once


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


def count_steps(monkeypatch):
    """(the Gram members of each derivative pass, one entry a pass; the
    Hessians `_newton` solves against, one entry an `_ascent_steps` call)."""
    grams, solved = [], []
    derivatives, ascent_steps = geometry._Objective.derivatives, estimation._ascent_steps

    def counting(self, matrices, members, gram):
        grads, hess = derivatives(self, matrices, members, gram)
        grams.append(len(hess))
        return grads, hess

    def counting_steps(info, grad):
        solved.append(len(info))
        return ascent_steps(info, grad)

    monkeypatch.setattr(geometry._Objective, "derivatives", counting)
    monkeypatch.setattr(estimation, "_ascent_steps", counting_steps)
    return grams, solved


def eigh_steps(info, grad):
    """The decrements and steps of the information stack `info` solved by
    eigh, its eigenvalues reflected and floored at 1e-13 of the largest:
    the step every member took before the Cholesky path."""
    w, v = np.linalg.eigh(info)
    w = np.maximum(np.abs(w), 1e-13 * np.abs(w).max(axis=1, keepdims=True))
    z = (grad[:, None, :] @ v)[:, 0] / np.sqrt(w)
    return geometry._rowdot(z, z), ((z / np.sqrt(w))[:, None, :] @ v.transpose(0, 2, 1))[:, 0]


def spectral_matrix(eigenvalues, gen):
    """A symmetric matrix with these eigenvalues and random eigenvectors."""
    q = np.linalg.qr(gen.normal(size=(len(eigenvalues),) * 2))[0]
    return d.symmetrize((q * eigenvalues) @ q.T)


class TestAscentSteps:
    @staticmethod
    def spy_eigh(monkeypatch):
        """The member counts of each eigh `_ascent_steps` runs."""
        calls, eigh = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            if sys._getframe(1).f_code.co_name == "_ascent_steps":
                calls.append(len(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        return calls

    def members(self, m, gen):
        """A certifiable information (condition 1e4), an indefinite one,
        and a positive definite one of condition 1e15, with gradients."""
        spectra = [np.logspace(0, 4, m), np.linspace(-1.0, 3.0, m), np.logspace(-15, 0, m)]
        return (np.array([spectral_matrix(w, gen) for w in spectra]),
                gen.normal(size=(len(spectra), m)))

    @pytest.mark.parametrize("m", [15, 21, 55])
    def test_certified_step_is_the_eigh_step(self, monkeypatch, m):
        # the Cholesky step and decrement agree with the eigh ones within
        # 1e-10 relative; their gap is roundoff of order condition x eps
        gen = np.random.default_rng(m)
        conditions = [1.0, 1e2, 1e4, 1e6]
        info = np.array([spectral_matrix(np.logspace(0, np.log10(c), m), gen)
                         for c in conditions])
        grad = gen.normal(size=(len(conditions), m))
        calls = self.spy_eigh(monkeypatch)
        decrement, step = estimation._ascent_steps(info, grad)
        assert calls == []
        want_decrement, want_step = eigh_steps(info, grad)
        np.testing.assert_allclose(decrement, want_decrement, rtol=1e-10, atol=0)
        for got, want in zip(step, want_step):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("m", [15, 55])
    def test_uncertified_members_take_eigh(self, monkeypatch, m):
        # an indefinite information, and one whose eigenvalues eigh would
        # floor, take the eigh path and its step bit for bit
        info, grad = self.members(m, np.random.default_rng(m))
        calls = self.spy_eigh(monkeypatch)
        for i in (1, 2):
            got = estimation._ascent_steps(info[i:i + 1], grad[i:i + 1])
            for x, y in zip(got, eigh_steps(info[i:i + 1], grad[i:i + 1])):
                np.testing.assert_array_equal(x, y)
        assert calls == [1, 1]

    @pytest.mark.parametrize("m", [6, 15, 55])
    def test_member_steps_do_not_depend_on_the_batch(self, monkeypatch, m):
        # certifiable, indefinite and ill-conditioned members in one batch
        # each take bitwise the step they take alone; below the size rule
        # every member takes eigh
        info, grad = self.members(m, np.random.default_rng(m + 1))
        calls = self.spy_eigh(monkeypatch)
        batch = estimation._ascent_steps(info, grad)
        assert calls == [3 if m < estimation._CHOLESKY_DIM else 2]
        for order in ([0, 1, 2], [2, 0], [1, 2, 0]):
            part = estimation._ascent_steps(info[order], grad[order])
            for x, y in zip(part, batch):
                np.testing.assert_array_equal(x, y[order])
        for i in range(3):
            alone = estimation._ascent_steps(info[i:i + 1], grad[i:i + 1])
            for x, y in zip(alone, batch):
                np.testing.assert_array_equal(x, y[i:i + 1])


class TestHessiansFormed:
    def test_one_hessian_a_step_at_max_iters(self, monkeypatch):
        # six restarts take one step each; the closing gradient pass, every
        # member flat, sums no Gram and forms no Hessian
        freqs = d.empirical_table(d.sample(d.build_table(d.tridiagonal_kernel(6, 2.0, 0.5)),
                                           2000, seed=3))
        grams, solved = count_steps(monkeypatch)
        result = d.fit_mle(freqs, MleConfig(seed=1, max_iters=1))
        assert result.stop_reason == "max_iters" and result.iterations == 1
        assert grams == [6, 0] and sum(solved) == 6

    def test_one_hessian_a_step_to_convergence(self, monkeypatch):
        # every member stops on grad_tol, and no member at grad_tol is solved
        cfg = MleConfig(seed=2, restarts=3)
        obj, starts = batch_of(replicate_tables(4, 2, 2000), cfg)
        searched = []
        line_search = estimation._line_search

        def spy(obj, members, *args):
            searched.append(len(members))
            return line_search(obj, members, *args)

        monkeypatch.setattr(estimation, "_line_search", spy)
        _, solved = count_steps(monkeypatch)
        _, _, iterations, converged, _, _ = estimation._lockstep(obj, starts, cfg)
        assert converged.all()
        assert sum(solved) == sum(searched) == iterations.sum()


class TestOneEvaluationAStep:
    def test_line_search_values_are_a_fresh_evaluation(self, monkeypatch):
        # on a batch that backtracks, the values each line search hands
        # back are bitwise a fresh evaluation of the kernels it accepted
        cfg = MleConfig(seed=2, restarts=3)
        obj, starts = batch_of(replicate_tables(4, 2, 300), cfg)
        searches, evaluated = [], []
        line_search, evaluate = estimation._line_search, obj.evaluate

        def spy(obj, members, *args):
            accepted, values, kernels = line_search(obj, members, *args)
            searches.append((members[accepted], values.copy(), kernels.copy()))
            return accepted, values, kernels

        def counting(matrices, members):
            evaluated.append(len(matrices))
            return evaluate(matrices, members)

        monkeypatch.setattr(estimation, "_line_search", spy)
        monkeypatch.setattr(obj, "evaluate", counting)
        estimation._lockstep(obj, starts, cfg)
        assert len(evaluated) - 1 > len(searches)        # some search backtracked
        for members, values, kernels in searches:
            np.testing.assert_array_equal(values, evaluate(kernels, members))

    def test_one_evaluation_a_round(self, monkeypatch):
        # an n = 6 fit evaluates its starts once, then once per round of a
        # line search, and the accepted kernels never again
        freqs = d.empirical_table(d.sample(d.build_table(d.tridiagonal_kernel(6, 2.0, 0.5)),
                                           2000, seed=3))
        evaluated, rounds = [], []
        evaluate, project = estimation._Objective.evaluate, estimation._project_box

        def counting(self, matrices, members):
            evaluated.append(sys._getframe(1).f_code.co_name)
            return evaluate(self, matrices, members)

        def projecting(matrices, box):
            rounds.append(sys._getframe(1).f_code.co_name)
            return project(matrices, box)

        monkeypatch.setattr(estimation._Objective, "evaluate", counting)
        monkeypatch.setattr(estimation, "_project_box", projecting)
        result = d.fit_mle(freqs, MleConfig(seed=1))
        searched = rounds.count("_line_search")
        assert evaluated == ["_lockstep"] + ["_line_search"] * searched
        assert searched >= result.iterations > 1


class TestLockstepBatch:
    def assert_members_equal(self, batch, members, alone, where=""):
        for field, whole, own in zip(("matrix", "f", "iterations", "converged", "gnorm",
                                      "stop"), batch, alone):
            np.testing.assert_array_equal(whole[members], own, err_msg=f"{where} {field}")

    def test_composition_invariance(self):
        """Each member's fit is bitwise the same alone and in the batch,
        over several sampled batches."""
        cfg = MleConfig(seed=3, restarts=3)
        for seed in (1, 4, 5, 6):
            obj, starts = batch_of(replicate_tables(3, 4, 300, seed), cfg)
            whole = estimation._lockstep(obj, starts, cfg)
            assert whole[2].max() > 1                   # real fits, not stops at the start
            for i in range(len(starts)):
                alone = estimation._Objective(obj.freqs[i:i + 1])
                self.assert_members_equal(whole, [i], estimation._lockstep(
                    alone, starts[i:i + 1], cfg), f"seed {seed} member {i}")

    def test_one_bad_member_stops_alone(self):
        """Member 1's candidates have a nonpositive minor, member 3's line
        search never accepts; both stop at their start, the others'
        results are bitwise those of the batch without the faults."""
        cfg = MleConfig(seed=3, restarts=2)
        obj, starts = batch_of(replicate_tables(3, 2, 400), cfg)
        clean = estimation._lockstep(obj, starts, cfg)

        class Faulty(estimation._Objective):
            calls = 0

            def evaluate(self, matrices, members):
                self.calls += 1
                matrices = matrices.copy()
                if self.calls > 1:
                    matrices[np.asarray(members) == 1] = NEGATIVE_3X3
                values = super().evaluate(matrices, members)
                if self.calls > 1:
                    values[np.asarray(members) == 3] = -np.inf
                return values

        faulty = estimation._lockstep(Faulty(obj.freqs), starts, cfg)
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
        whole = estimation._lockstep(obj, starts, cfg)
        for i in range(len(starts)):
            self.assert_members_equal(whole, [i], estimation._lockstep(
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

    def test_stop_reasons_of_real_fits(self):
        freqs = d.empirical_table(d.sample(d.build_table(d.tridiagonal_kernel(3, 2.0, 0.6)),
                                           2000, seed=3))
        assert d.fit_mle(freqs, MleConfig(seed=1)).stop_reason == "grad_tol"
        capped = d.fit_mle(freqs, MleConfig(seed=1, max_iters=1))
        assert capped.stop_reason == "max_iters"
        assert capped.iterations == 1 and not capped.converged

    def test_tied_restarts_take_the_lowest(self, monkeypatch):
        """Restarts 1 and 2 tie within one ulp, restart 2 the larger: the
        lowest of them wins."""
        freqs = d.empirical_table(d.sample(d.build_table(d.tridiagonal_kernel(3, 2.0, 0.6)),
                                           500, seed=2))
        lockstep = estimation._lockstep

        def tied(obj, starts, config):
            columns = list(lockstep(obj, starts, config))
            top = columns[1].max()
            columns[1] = np.array([top - 1.0, top, np.nextafter(top, np.inf), top - 1.0])
            return tuple(columns)

        monkeypatch.setattr(estimation, "_lockstep", tied)
        result = d.fit_mle(freqs, MleConfig(seed=1, restarts=4))
        assert result.restart_index == 1

    def test_config_validation(self):
        for kwargs in ({"spectral_box": (0.5, 0.4)}, {"restarts": 0},
                       {"restarts": 2.5}, {"max_iters": 100.0}, {"max_iters": -1},
                       {"grad_tol": float("nan")}, {"grad_tol": float("inf")},
                       {"init_jitter": float("nan")}, {"init_jitter": float("inf")},
                       {"seed": -1}, {"seed": 1.5}, {"seed": "1"}):
            with pytest.raises(ValueError):
                MleConfig(**kwargs)

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
        cases = [(random_kernel(n, rng), random_kernel(n, rng)) for n in (*range(1, 13), 14)]
        for n in (2, 7, 12):
            # the truth's own orbit: the loss is exactly 0.0 at its class
            star = random_kernel(n, rng)
            s = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            conj = d.Kernel(d.conjugate_by_signs(star.matrix, s))
            assert d.sign_orbit_loss(conj, star).value == 0.0
            cases.append((conj, star))
        # ties: a diagonal truth is at the same distance from every class,
        # so at n = 12 all 2048 classes are rescored, in two slices
        cases.append((random_kernel(5, rng), d.Kernel(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))))
        cases.append((random_kernel(12, rng), d.Kernel(np.diag(1.0 + rng.random(12)))))
        star = random_block_kernel([3, 3], rng)
        cases.append((star, star))
        cases.append((random_kernel(9, rng), random_block_kernel([4, 2, 3], rng)))
        for hat, star in cases:
            loss = d.sign_orbit_loss(hat, star)
            val, signs = loop_loss(hat, star)
            assert loss.value == val
            np.testing.assert_array_equal(loss.argmin_signs, signs)

    def test_near_tied_classes_match_loop_reference(self, rng):
        # flipping sign 1 changes only the (0, 1) entries when the truth's
        # row 1 is zero elsewhere, by 8 * hat_01 * star_01 in the squared
        # distance T: within +-4 ulps of T here, so the two classes' direct
        # scores fall on either side of each other or round to one value.
        # With hat 100 times the truth's scale, s^T (hat o star) s is ~100
        # times smaller than T and tells the two apart even where they round
        # to one direct score, at which the first class must win.
        outcomes = set()
        for n in (2, 5):
            hat, star = 10.0 * random_kernel(n, rng).matrix, 0.1 * random_kernel(n, rng).matrix
            star[1, 2:] = star[2:, 1] = 0.0
            c = np.sqrt(np.spacing(np.sum((hat - star) ** 2)) / 2.0)
            star[0, 1] = star[1, 0] = c
            for t in np.linspace(-1.0, 1.0, 41):
                hat[0, 1] = hat[1, 0] = c * t
                loss = d.sign_orbit_loss(d.Kernel(hat), d.Kernel(star))
                val, signs = loop_loss(d.Kernel(hat), d.Kernel(star))
                assert loss.value == val
                np.testing.assert_array_equal(loss.argmin_signs, signs)
                flipped = signs.copy()
                flipped[1] = -flipped[1]
                diff = hat - d.conjugate_by_signs(star, flipped)
                other = float(np.sqrt((diff * diff).sum()))
                outcomes.add("tie" if other == val else f"sign1={signs[1]:+.0f}")
        assert outcomes == {"tie", "sign1=+1", "sign1=-1"}

    def test_rescoring_slices_do_not_change_the_result(self, rng, monkeypatch):
        cases = [(random_kernel(8, rng), d.Kernel(np.diag(1.0 + rng.random(8)))),
                 (random_kernel(8, rng), random_kernel(8, rng))]
        expected = [d.sign_orbit_loss(hat, star) for hat, star in cases]
        for chunk in (1, 7, 64):
            monkeypatch.setattr(estimation, "_SIGN_CHUNK", chunk)
            for (hat, star), ref in zip(cases, expected):
                loss = d.sign_orbit_loss(hat, star)
                assert loss.value == ref.value
                np.testing.assert_array_equal(loss.argmin_signs, ref.argmin_signs)

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


def moments(freqs):
    """The moment correlation matrix of a table."""
    return estimation._moment_correlation(minors.superset_sums(freqs.freqs))


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
            np.testing.assert_allclose(moments(freqs) ** 2,
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

    def test_two_superset_transforms_a_start_set(self, monkeypatch):
        # the moment start (through moment_init) and the sign-corrected one
        # each transform the frequencies once, at any n >= 3
        transforms, inits = [], []
        superset_sums, moment_init = minors.superset_sums, estimation.moment_init
        monkeypatch.setattr(minors, "superset_sums",
                            lambda values: transforms.append(1) or superset_sums(values))
        monkeypatch.setattr(estimation, "moment_init",
                            lambda *args: inits.append(1) or moment_init(*args))
        for n in (3, 5, 8, 13):
            transforms.clear(), inits.clear()
            estimation._starts(exact_frequencies(d.tridiagonal_kernel(n, 2.0, 0.9)), MleConfig())
            assert len(transforms) == 2 and len(inits) == 1, n

    def test_no_signed_start_below_three(self):
        for n in (1, 2):
            freqs = exact_frequencies(d.tridiagonal_kernel(n, 2.0, 0.9))
            assert estimation._sign_corrected_init(freqs, (1e-4, 1 - 1e-4)) is None

    def test_scalar_moment(self):
        freqs = EmpiricalTable(n=1, freqs=np.array([0.25, 0.75]), total=4)
        np.testing.assert_array_equal(moments(freqs), [[0.75]])

    @pytest.mark.parametrize("mask", [0, 5, 7])
    def test_one_mask_table(self, mask):
        freqs = EmpiricalTable(n=3, freqs=np.eye(8)[mask], total=3)
        in_mask = np.array([mask >> i & 1 for i in range(3)], dtype=float)
        np.testing.assert_array_equal(moments(freqs), np.diag(in_mask))
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
        medians = [risk.median_loss
                   for risk in d.estimate_risk(star, (1000, 10000, 100000), 50, cfg, seed=17)]
        assert medians[0] >= medians[1] >= medians[2]

    @pytest.mark.parametrize("kind", ["tridiagonal", "block", "oracle"])
    def test_sequence_is_the_per_size_calls(self, kind):
        # one joint batch over the sizes, each size's fields bitwise those
        # of its own call
        star = (d.tridiagonal_kernel(3, 2.0, 0.5) if kind == "tridiagonal" else
                d.block_diagonal_kernel([d.tridiagonal_kernel(2, 2.0, 0.5).matrix, [[3.0]]]))
        estimator = (lambda freqs: star) if kind == "oracle" else None
        cfg = MleConfig(seed=11, restarts=3)
        sizes = [300, 1000, 3000]
        joint = d.estimate_risk(star, sizes, 4, cfg, seed=17, estimator=estimator)
        assert [r.sample_size for r in joint] == sizes
        for size, risk in zip(sizes, joint):
            alone = d.estimate_risk(star, size, 4, cfg, seed=17, estimator=estimator)
            assert risk.to_dict() == alone.to_dict()
            for field in ("losses", "within", "cross", "converged", "iterations"):
                np.testing.assert_array_equal(getattr(risk, field), getattr(alone, field),
                                              err_msg=f"{kind} {size} {field}")

    def test_empty_sequence_raises(self, rng):
        with pytest.raises(ValueError, match="sample_size"):
            d.estimate_risk(random_kernel(2, rng), [], 3, MleConfig(), seed=0)

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_fits_do_not_depend_on_the_chunk_budget(self, monkeypatch, n):
        # the objective and the Newton steps run in member chunks; one
        # member a chunk and the whole batch in one give the same fits.  At
        # n = 10 the default budget holds two members a Newton chunk
        freqs = np.array([t.freqs for t in replicate_tables(n, 3, 400, seed=8)])
        cfg = MleConfig(seed=2, restarts=3, max_iters=30 if n < 10 else 3)
        fits = []
        for budget in (1, 2 ** 12, 2 ** 17, 2 ** 18, 2 ** 30):
            monkeypatch.setattr(minors, "_CHUNK_FLOATS", budget)
            fits.append(estimation._fit_tables(freqs, cfg))
        assert max(r.iterations for r in fits[0]) > 1
        for budget, other in zip((2 ** 12, 2 ** 17, 2 ** 18, 2 ** 30), fits[1:]):
            for a, b in zip(fits[0], other):
                np.testing.assert_array_equal(a.estimate.matrix, b.estimate.matrix)
                assert a.to_dict() == b.to_dict(), (n, budget)

    def test_fits_in_blocks_do_not_depend_on_the_chunk_budget(self, monkeypatch):
        # with the derivative pass in 2^(6 - 2) blocks, the same fits at
        # every chunk budget, and the maxima of the one-block fits (up to
        # the sign orbit, which roundoff may change)
        freqs = np.array([t.freqs for t in replicate_tables(6, 3, 400, seed=8)])
        cfg = MleConfig(seed=2, restarts=3)
        one_block = estimation._fit_tables(freqs, cfg)
        monkeypatch.setattr(minors, "_BLOCK_BITS", 2)
        fits = []
        for budget in (1, 2 ** 12, 2 ** 30):
            monkeypatch.setattr(minors, "_CHUNK_FLOATS", budget)
            fits.append(estimation._fit_tables(freqs, cfg))
        for other in fits[1:]:
            for a, b in zip(fits[0], other):
                assert a.to_dict() == b.to_dict()
        for a, b in zip(one_block, fits[0]):
            assert a.converged and b.converged
            assert b.log_likelihood == pytest.approx(a.log_likelihood, rel=1e-12)

    def test_rate_study_runs_one_lockstep(self, monkeypatch):
        from dppmle import experiments
        calls = []
        lockstep = estimation._lockstep

        def spy(obj, starts, config):
            calls.append(len(starts))
            return lockstep(obj, starts, config)

        monkeypatch.setattr(estimation, "_lockstep", spy)
        experiments.run_rate_study({"kernel": {"tridiagonal": {"a": 2.0, "b": 0.5, "n": 3}},
                                    "sample_sizes": [100, 1000, 10000], "replicates": 2,
                                    "seed": 3, "mle": {"restarts": 2}})
        assert calls == [3 * 2 * 2]

    def test_replicate_tables_are_rows_of_the_objectives_array(self, monkeypatch):
        # each replicate's table is a row view of the one (T, 2^n) array the
        # objective keeps without a copy, and fit_mle hands its table over
        # the same way
        tables, objectives = [], []
        empirical, init = estimation.empirical_table, geometry._Objective.__init__

        def spy_table(batch):
            tables.append(empirical(batch))
            return tables[-1]

        def spy_init(self, freqs, tables=None):
            init(self, freqs, tables)
            objectives.append(self)

        monkeypatch.setattr(estimation, "empirical_table", spy_table)
        monkeypatch.setattr(geometry._Objective, "__init__", spy_init)
        d.estimate_risk(d.tridiagonal_kernel(3, 2.0, 0.5), [100, 1000], 3,
                        MleConfig(seed=1, restarts=2), seed=3)
        (obj,) = objectives
        assert obj.freqs.shape == (6, 8) and len(tables) == 6
        for i, table in enumerate(tables):
            assert np.shares_memory(table.freqs, obj.freqs[i])
        d.fit_mle(tables[0], MleConfig(seed=1, restarts=2))
        assert np.shares_memory(objectives[-1].freqs, tables[0].freqs)

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
        obj = result.to_dict()
        assert obj["converged"] is True and obj["stop_reason"] == "grad_tol"
        assert len(obj["estimate"]) == 4

    def test_config_json_roundtrip(self):
        cfg = MleConfig.from_json({"restarts": 2, "seed": 5, "spectral_box": [0.01, 0.99]})
        assert cfg.restarts == 2
        assert cfg.spectral_box == (0.01, 0.99)
        assert MleConfig.from_json(cfg.to_dict()) == cfg
