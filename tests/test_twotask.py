"""The two-task fast paths against the exact Cholesky paths they replace."""
import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from samsbo import bounds, gp
from samsbo.hyperposterior import (
    CELL_MIDPOINTS,
    R_MAX,
    ConfidenceSet,
    _log_cell_masses,
    sample_hyperposterior,
)
from samsbo.kernels import CorrelationMatrix, KernelParams, se_kernel_matrix
from samsbo.safeopt import _greedy_variance_picks, make_grid
from samsbo.twotask import TwoTaskFactor

from oracles import two_task_log_likelihoods
from test_hyperposterior import synthetic_two_task

PARAMS = KernelParams(1.0, [0.2], noise_variance=0.01)


def factor_for(dataset, params=PARAMS):
    return TwoTaskFactor.build(dataset, params,
                               se_kernel_matrix(dataset.inputs, dataset.inputs, params))


def cholesky_nu(dataset, sigma_prime, members, params):
    """nu by one Cholesky factorization per unique member."""
    zi = dataset.tasks - 1
    base = se_kernel_matrix(dataset.inputs, dataset.inputs, params)
    y = dataset.observations
    sn2 = params.noise_variance
    eye = np.eye(dataset.n)

    def gram(task_matrix):
        return task_matrix[np.ix_(zi, zi)] * base

    g_prime = gram(sigma_prime.matrix)
    alpha_prime = cho_solve(cho_factor(g_prime + sn2 * eye, lower=True), y)
    prime_inv = np.linalg.inv(sigma_prime.matrix)
    head = alpha_prime @ g_prime @ alpha_prime
    worst = 0.0
    for s in {m.key(): m.matrix for m in members}.values():
        g_s = gram(s)
        alpha = cho_solve(cho_factor(g_s + sn2 * eye, lower=True), y)
        term1 = head - 2.0 * alpha_prime @ g_s @ alpha + alpha @ gram(s @ prime_inv @ s) @ alpha
        term2 = sn2 * np.sum((alpha - alpha_prime) ** 2)
        worst = max(worst, max(term1, 0.0) + term2)
    return float(np.sqrt(worst))


def datasets():
    rng = np.random.default_rng(0)
    mixed = synthetic_two_task(0.6, 40, rng)
    task_one = gp.MultiTaskDataset(rng.random((30, 1)), np.ones(30, int),
                                   rng.standard_normal(30))
    task_two = gp.MultiTaskDataset(rng.random((20, 1)), np.full(20, 2),
                                   rng.standard_normal(20))
    return {"mixed": mixed, "task-1 only": task_one, "task-2 only": task_two,
            "empty": gp.MultiTaskDataset.empty(1)}


def frozen_grid(size=300):
    points = np.linspace(0.0, 1.0, size).reshape(-1, 1).copy()
    points.setflags(write=False)
    return points


class TestLogLikelihood:
    @pytest.mark.parametrize("name", ["mixed", "task-1 only", "task-2 only", "empty"])
    def test_matches_cholesky(self, name):
        dataset = datasets()[name]
        factor = factor_for(dataset)
        for r in (0.0, 0.3, 0.5, 0.9, R_MAX):
            exact = gp.log_marginal_likelihood(dataset, CorrelationMatrix.two_task(r), PARAMS)
            assert factor.log_likelihood(r) == pytest.approx(exact, rel=1e-10, abs=1e-12)

    def test_spectrum_is_plus_minus_the_singular_values(self):
        dataset = datasets()["mixed"]
        factor = factor_for(dataset)
        base = se_kernel_matrix(dataset.inputs, dataset.inputs, PARAMS)
        second = dataset.tasks == 2
        cross = np.where(second[:, None] != second[None, :], base, 0.0)
        shift = PARAMS.noise_variance + gp.JITTER_START * PARAMS.signal_variance
        chol = np.linalg.cholesky(base - cross + shift * np.eye(dataset.n))
        half = np.linalg.solve(chol, cross)
        pencil = np.linalg.eigvalsh(np.linalg.solve(chol, half.T))
        s = factor.singular
        assert s.size == 40 and np.max(s) < 1.0
        assert np.allclose(np.sort(pencil), np.sort(np.concatenate([s, -s])), atol=1e-12)


class TestPosterior:
    @pytest.mark.parametrize("name", ["mixed", "task-1 only", "task-2 only", "empty"])
    def test_matches_a_cholesky_fit(self, name):
        dataset = datasets()[name]
        factor = factor_for(dataset)
        points = frozen_grid()
        for r in (0.0, 0.5, R_MAX):
            sigma = CorrelationMatrix.two_task(r)
            posterior = factor.posterior(sigma)
            exact = gp.fit(dataset, sigma, PARAMS)
            assert isinstance(posterior, gp.Posterior) and posterior.sigma_used == sigma
            for z in (1, 2):
                for got, want in zip(posterior.predict_batch(points, z),
                                     exact.predict_batch(points, z)):
                    assert np.max(np.abs(got - want)) <= 1e-10
                # a writable copy of the points bypasses every grid cache
                for got, want in zip(posterior.predict_batch(np.array(points), z),
                                     exact.predict_batch(points, z)):
                    assert np.max(np.abs(got - want)) <= 1e-10
            with pytest.raises(TypeError, match="no joint factor"):
                posterior.whitened(points, 1)

    def test_sigma_prime_moves_and_the_task_grids_only_grow(self, monkeypatch):
        fills = []
        real = gp.Posterior._new_rows

        def recording(posterior, entries, points):
            fills.append((posterior.dataset.n, entries[0].rows if entries else 0))
            return real(posterior, entries, points)

        monkeypatch.setattr(gp.Posterior, "_new_rows", recording)
        rng = np.random.default_rng(3)
        full = synthetic_two_task(0.8, 30, rng)
        order = rng.permutation(full.n)
        dataset = gp.MultiTaskDataset(full.inputs[order], full.tasks[order],
                                      full.observations[order])
        points = frozen_grid()
        previous, centres = None, []
        for n in range(12, 61, 6):
            head = gp.MultiTaskDataset(dataset.inputs[:n], dataset.tasks[:n],
                                       dataset.observations[:n])
            _, bundle, posterior = bounds.robust_model(head, 2, 0.1, 0.15, points.shape[0],
                                                       PARAMS, 0.05, previous=previous)
            exact = gp.fit(head, bundle.sigma_prime, PARAMS)
            for z in (1, 2):
                for got, want in zip(posterior.predict_batch(points, z),
                                     exact.predict_batch(points, z)):
                    assert np.max(np.abs(got - want)) <= 1e-10
            centres.append(bundle.sigma_prime.matrix[0, 1])
            previous = posterior
        assert len(set(centres)) > 2                       # sigma-prime moved
        grown = [fill for fill in fills if fill[1] > 0]
        from_zero = [fill for fill in fills if fill[1] == 0 and fill[0] > 0]
        exact_fills = len(centres)                         # the reference fits' fresh fills
        assert len(from_zero) == 2 + exact_fills           # one per task, then only growth
        assert len(grown) == 2 * (len(centres) - 1)


class TestNotPositiveDefinite:
    """A task block made indefinite as in ``test_gp.TestJitter``: zero noise, and
    a near-twin input whose diagonal is lowered by 3e-9."""

    PARAMS = KernelParams(1.0, [0.3], 0.0)

    def case(self, task):
        rng = np.random.default_rng(0)
        X = rng.random((12, 1))
        X[5] = X[1] + 1e-9
        tasks = np.where(np.arange(12) % 2 == 1, task, 3 - task)
        base = se_kernel_matrix(X, X, self.PARAMS)
        base[5, 5] -= 3e-9
        return gp.MultiTaskDataset(X, tasks, np.sin(3.0 * X[:, 0])), base

    @pytest.mark.parametrize("task", [1, 2])
    def test_raises_at_the_starting_jitter(self, task):
        dataset, base = self.case(task)
        with pytest.raises(gp.NumericalError, match="not positive definite"):
            TwoTaskFactor.build(dataset, self.PARAMS, base)
        head = gp.MultiTaskDataset(dataset.inputs[:4], dataset.tasks[:4],
                                   dataset.observations[:4])
        previous = TwoTaskFactor.build(head, self.PARAMS, base[:4, :4])
        with pytest.raises(gp.NumericalError, match="not positive definite"):
            TwoTaskFactor.build(dataset, self.PARAMS, base, previous=previous)


class TestNu:
    def test_matches_cholesky_reference(self):
        rng = np.random.default_rng(1)
        for n in (3, 12, 60):
            dataset = gp.MultiTaskDataset(rng.random((n, 2)), rng.integers(1, 3, n),
                                          rng.standard_normal(n))
            params = KernelParams(1.3, [0.3, 0.5], noise_variance=0.02)
            members = [CorrelationMatrix.two_task(float(r)) for r in rng.random(8) * 0.95]
            members += members[:3]
            cs = ConfidenceSet(tuple(members))
            for sp in (members[0], CorrelationMatrix.two_task(0.2)):
                reference = cholesky_nu(dataset, sp, members, params)
                assert bounds.nu_factor(dataset, sp, cs, params) == pytest.approx(
                    reference, rel=1e-7)
                shared = factor_for(dataset, params)
                assert bounds.nu_factor(dataset, sp, cs, params, factor=shared) == pytest.approx(
                    reference, rel=1e-7)

    def test_single_member_short_circuit_matches_general_path(self):
        rng = np.random.default_rng(2)
        task_one = gp.MultiTaskDataset(rng.random((25, 1)), np.ones(25, int),
                                       rng.standard_normal(25))
        identity = CorrelationMatrix.identity(1)
        single = ConfidenceSet((identity,))
        assert bounds.nu_factor(task_one, identity, single, PARAMS) == 0.0
        assert cholesky_nu(task_one, identity, [identity], PARAMS) == 0.0
        # nu is a square root: rounding of about 1e-13 in the quadratic form
        # leaves the general paths a few 1e-7 above zero
        mixed = datasets()["mixed"]
        for r in (0.0, 0.4, 0.9):
            sp = CorrelationMatrix.two_task(r)
            cs = ConfidenceSet((sp, sp))
            assert bounds.nu_factor(mixed, sp, cs, PARAMS) == 0.0
            assert cholesky_nu(mixed, sp, [sp], PARAMS) == pytest.approx(0.0, abs=1e-6)
            assert factor_for(mixed).nu(r, np.array([r])) == pytest.approx(0.0, abs=1e-6)


class TestSizeSelectsTheRoute:
    @staticmethod
    def near_unit(r):
        return CorrelationMatrix(np.array([[1.0 + 1e-10, r], [r, 1.0]]))

    def test_near_unit_diagonal_takes_the_closed_forms(self):
        members = [self.near_unit(r) for r in (0.1, 0.35, 0.6, 0.85)]
        cs = ConfidenceSet(tuple(members))
        assert cs.offdiagonals is not None
        assert np.array_equal(cs.offdiagonals, [0.1, 0.35, 0.6, 0.85])
        chosen, gamma = bounds.select_sigma_prime(cs)
        ratios = [np.linalg.norm(np.linalg.solve(chosen.matrix, m.matrix), 2) for m in members]
        assert gamma == pytest.approx(np.sqrt(max(ratios)), rel=1e-8)
        for sp in (chosen, self.near_unit(0.2)):
            for name in ("mixed", "task-1 only"):
                dataset = datasets()[name]
                assert bounds.nu_factor(dataset, sp, cs, PARAMS) == pytest.approx(
                    cholesky_nu(dataset, sp, members, PARAMS), rel=1e-8)

    def test_mixed_sizes_raise(self):
        two, three = CorrelationMatrix.two_task(0.3), CorrelationMatrix.identity(3)
        with pytest.raises(ValueError, match="one size"):
            ConfidenceSet((two, three))
        cs = ConfidenceSet((two, CorrelationMatrix.two_task(0.6)))
        with pytest.raises(ValueError, match="3x3.*2x2"):
            bounds.nu_factor(datasets()["mixed"], three, cs, PARAMS)


class TestFantasyDowndate:
    def test_variances_match_refit_after_each_pick(self):
        """Cholesky fits of two and three tasks, and the two-task factor's posterior."""
        rng = np.random.default_rng(2)
        grid = make_grid(2, size=256, seed=1)
        three = CorrelationMatrix(np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]]))
        params = KernelParams(1.0, [0.25, 0.25], noise_variance=0.01)
        for sigma, data_tasks, factored in ((CorrelationMatrix.two_task(0.7), (1, 2), False),
                                            (CorrelationMatrix.two_task(0.7), (1, 2), True),
                                            (three, (1, 2, 3), False)):
            dataset = gp.MultiTaskDataset(rng.random((25, 2)), rng.choice(data_tasks, 25),
                                          rng.standard_normal(25))
            tasks = [2, 3, 2, 3, 2, 3] if sigma.size == 3 else [2] * 6
            fantasy = gp.fit(dataset, sigma, params)
            posterior = factor_for(dataset, params).posterior(sigma) if factored else fantasy
            picks = _greedy_variance_picks(posterior, grid.points, tasks)
            for (idx, variances), task in zip(picks, tasks):
                _, refit = fantasy.predict_batch(grid.points, task)
                assert np.max(np.abs(variances - refit)) < 1e-10
                assert idx == int(np.argmax(variances))
                if factored:
                    # the factor's pick covariance against the refit's, at this pick
                    got = factor_for(fantasy.dataset, params).posterior(sigma).pick_covariance(
                        grid.points, 1, task, idx)
                    want = fantasy.pick_covariance(grid.points, 1, task, idx)
                    assert np.max(np.abs(got - want)) < 1e-10
                fantasy = gp.fit(fantasy.dataset.extended([grid.points[idx]], [task], [0.0]),
                                 sigma, params)


class TestSampler:
    def test_recorded_densities_match_cholesky_target(self):
        # each cell's log weight is the Cholesky log likelihood at its midpoint plus its prior mass
        eta = 0.1
        for dataset in datasets().values():
            post = sample_hyperposterior(dataset, 2, eta, PARAMS)
            exact = two_task_log_likelihoods(dataset, PARAMS, CELL_MIDPOINTS)
            assert np.allclose(post.log_weights - _log_cell_masses(eta), exact,
                               rtol=1e-8, atol=1e-12)
            assert np.array_equal(post.log_densities, post.log_weights)

    def test_mismatched_factor_fails_the_cross_check(self):
        rng = np.random.default_rng(5)
        dataset = synthetic_two_task(0.5, 10, rng)
        other = gp.MultiTaskDataset(dataset.inputs, dataset.tasks, dataset.observations + 0.1)
        with pytest.raises(gp.NumericalError, match="differs from the Cholesky value"):
            sample_hyperposterior(dataset, 2, 0.1, PARAMS, factor=factor_for(other))
