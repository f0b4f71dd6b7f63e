"""The two-task fast paths against the exact Cholesky paths they replace."""
import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from samsbo import bounds, gp, kernels
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

from oracles import empty_dataset, two_task_log_likelihoods
from test_gp import GridSpy, spy_on_grids, whitened
from test_hyperposterior import synthetic_two_task

PARAMS = KernelParams(1.0, [0.2], noise_variance=0.01)


def factor_for(dataset, params=PARAMS):
    return TwoTaskFactor.build(dataset, params)


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
            "empty": empty_dataset(1)}


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
            exact = gp.log_marginal_likelihood(gp.fit(dataset, CorrelationMatrix.two_task(r),
                                                      PARAMS))
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
                # a writable copy of the points is a fresh fill of every grid
                for got, want in zip(posterior.predict_batch(np.array(points), z),
                                     exact.predict_batch(points, z)):
                    assert np.max(np.abs(got - want)) <= 1e-10
            with pytest.raises(TypeError, match="TwoTaskFactor.log_likelihood"):
                gp.log_marginal_likelihood(posterior)

    @pytest.mark.parametrize("width", [2, 3])
    def test_a_query_of_another_width_is_refused(self, width):
        posterior = factor_for(datasets()["mixed"]).posterior(CorrelationMatrix.two_task(0.5))
        points = np.random.default_rng(0).random((5, width))
        with pytest.raises(ValueError, match="input dimension does not match lengthscales"):
            posterior.predict_batch(points, 1)
        with pytest.raises(ValueError, match="input dimension does not match lengthscales"):
            posterior.pick_covariance(points, 1, 2, 0)

    @pytest.mark.parametrize("kind", ["cholesky", "two-task"])
    @pytest.mark.parametrize("z, task", [(0, 1), (3, 1), (1, 0), (1, 3)])
    def test_a_task_index_outside_one_to_two_is_refused(self, kind, z, task):
        """Both posterior types check pick_covariance's indices, as predict_batch's."""
        dataset, sigma = datasets()["mixed"], CorrelationMatrix.two_task(0.5)
        posterior = (gp.fit(dataset, sigma, PARAMS) if kind == "cholesky"
                     else factor_for(dataset).posterior(sigma))
        with pytest.raises(ValueError, match=r"task indices must lie in 1\.\.2"):
            posterior.pick_covariance(frozen_grid(20), z, task, 3)

    def test_a_list_is_a_query(self):
        factor = factor_for(datasets()["mixed"])
        sigma = CorrelationMatrix.two_task(0.5)
        points = frozen_grid(20)
        for got, want in zip(factor.posterior(sigma).predict_batch(points.tolist(), 2),
                             factor.posterior(sigma).predict_batch(points, 2)):
            assert np.array_equal(got, want)
        assert np.array_equal(factor.posterior(sigma).pick_covariance(points.tolist(), 1, 2, 3),
                              factor.posterior(sigma).pick_covariance(points, 1, 2, 3))

    def test_sigma_prime_moves_and_the_task_grids_only_grow(self, monkeypatch):
        fills = []
        real = gp.Posterior._new_rows

        def recording(posterior, entries, scaled):
            fills.append((posterior.dataset.n, entries[0].rows if entries else 0))
            return real(posterior, entries, scaled)

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
            model = bounds.robust_model(head, 2, 0.1, 0.15, points.shape[0], PARAMS, 0.05,
                                        previous=previous)
            bundle, posterior = model.bundle, model.posterior
            exact = gp.fit(head, bundle.sigma_prime, PARAMS)
            for z in (1, 2):
                for got, want in zip(posterior.predict_batch(points, z),
                                     exact.predict_batch(points, z)):
                    assert np.max(np.abs(got - want)) <= 1e-10
            centres.append(bundle.sigma_prime.matrix[0, 1])
            previous = model
        assert len(set(centres)) > 2                       # sigma-prime moved
        grown = [fill for fill in fills if fill[1] > 0]
        from_zero = [fill for fill in fills if fill[1] == 0 and fill[0] > 0]
        exact_fills = len(centres)                         # the reference fits' fresh fills
        assert len(from_zero) == 2 + exact_fills           # one per task, then only growth
        assert len(grown) == 2 * (len(centres) - 1)


class TestFusedProjection:
    """A two-task mean is the fits' kept means plus P1' shift_1 and P2' shift_2, with
    P1 = U' W1 and P2 = V' W2 the projections the variances read."""

    @staticmethod
    def separate(posterior, points, z):
        """Mean and clamped variance of task ``z`` from separate products over the fits' grids."""
        factor = posterior.factor
        (w1, sq1), (w2, sq2) = (whitened(fit, points, 1) for fit in factor.tasks)
        p1, p2 = factor.left.T @ w1, factor.right.T @ w2
        (c1, c2), (one, two) = posterior.coefficients, factor.tasks
        t1, t2 = factor._solve_whitened(one.whitened_obs, two.whitened_obs, c1, c2)
        g1, g2 = posterior.sigma_used.matrix[z - 1]
        explained = (g1 * g1 * (sq1 + c1 @ (p1 * p1)) + g2 * g2 * (sq2 + c1 @ (p2 * p2))
                     + 2.0 * g1 * g2 * (c2 @ (p1 * p2)))
        return (g1 * (w1.T @ t1) + g2 * (w2.T @ t2),
                gp.clamp_variances(PARAMS.signal_variance - explained))

    @staticmethod
    def factors(points):
        mixed = datasets()["mixed"]                 # task 1's rows, then task 2's
        order = np.ravel(np.column_stack([np.arange(40), np.arange(40, 80)]))
        both = gp.MultiTaskDataset(mixed.inputs[order], mixed.tasks[order],
                                   mixed.observations[order])
        head = gp.MultiTaskDataset(both.inputs[:30], both.tasks[:30], both.observations[:30])
        previous = factor_for(head)
        for fit in previous.tasks:
            whitened(fit, points, 1)                # the grown factor's fits append to these
        grown = TwoTaskFactor.build(both, PARAMS, previous=previous)
        for fit, old in zip(grown.tasks, previous.tasks):
            whitened(fit, points, 1)
            assert fit._grid[0].buffer is old._grid[0].buffer
        return {**{name: factor_for(d) for name, d in datasets().items()}, "grown": grown}

    @pytest.mark.parametrize("name", ["mixed", "task-1 only", "task-2 only", "empty", "grown"])
    def test_variances_equal_separate_projections_and_means_agree(self, name):
        """Bit for bit on OpenBLAS at these sizes; the module notes say where it is not."""
        points = frozen_grid()
        factor = self.factors(points)[name]
        for r in (0.0, 0.5, R_MAX):
            posterior = factor.posterior(CorrelationMatrix.two_task(r))
            for z in (1, 2):
                mean, variance = self.separate(posterior, points, z)
                got_mean, got_variance = posterior.predict_batch(points, z)
                assert np.array_equal(got_variance, variance)
                assert np.max(np.abs(got_mean - mean)) <= 1e-12 * np.max(np.abs(mean))

    def test_task_without_new_rows_reads_its_new_observations(self):
        """Laser's case: task 1 gains no rows, but restandardizing changes its observations."""
        points = frozen_grid()
        rng = np.random.default_rng(5)
        head = synthetic_two_task(0.7, 20, rng)
        previous = factor_for(head)
        for r in (0.3, 0.8):
            previous.posterior(CorrelationMatrix.two_task(r)).predict_batch(points, 1)
        extra = rng.random((4, 1))
        inputs = np.vstack([head.inputs, extra])
        tasks = np.concatenate([head.tasks, np.full(4, 2)])
        y = np.concatenate([head.observations, np.sin(6.0 * extra[:, 0])])
        dataset = gp.MultiTaskDataset(inputs, tasks, (y - y.mean()) / y.std())
        grown = TwoTaskFactor.build(dataset, PARAMS, previous=previous)
        one, old = grown.tasks[0], previous.tasks[0]
        assert one.chol is old.chol and one._grid[0] is old._grid[0]     # covered, inherited
        assert not np.array_equal(one.whitened_obs, old.whitened_obs)
        assert grown.tasks[1]._grid[0].rows < grown.tasks[1].dataset.n  # task 2 grows
        for r in (0.3, 0.8):
            posterior = grown.posterior(CorrelationMatrix.two_task(r))
            for z in (1, 2):
                mean, variance = self.separate(posterior, points, z)
                got_mean, got_variance = posterior.predict_batch(points, z)
                assert np.max(np.abs(got_mean - mean)) <= 1e-12 * np.max(np.abs(mean))
                assert np.max(np.abs(got_variance - variance)) <= 1e-12
            exact = gp.fit(dataset, posterior.sigma_used, PARAMS)
            for z in (1, 2):
                for got, want in zip(posterior.predict_batch(points, z),
                                     exact.predict_batch(points, z)):
                    assert np.max(np.abs(got - want)) <= 1e-10

    def test_prediction_reads_each_task_grid_once(self, monkeypatch):
        spy_on_grids(monkeypatch)
        dataset = datasets()["mixed"]
        factor = factor_for(dataset)
        points = frozen_grid()
        for fit in factor.tasks:
            whitened(fit, points, 1)
        posterior = factor.posterior(CorrelationMatrix.two_task(0.5))
        GridSpy.read = 0
        for _ in range(2):
            for z in (1, 2):
                posterior.predict_batch(points, z)
        assert GridSpy.read == dataset.n * points.shape[0]


class TestNotPositiveDefinite:
    """A task block made indefinite as in ``test_gp.TestJitter``: zero noise, and
    a near-twin input whose diagonal is lowered by 3e-9."""

    PARAMS = KernelParams(1.0, [0.3], 0.0)

    def case(self, task, monkeypatch):
        """The dataset, with the kernel returning the perturbed Gram's entries by input."""
        rng = np.random.default_rng(0)
        X = rng.random((12, 1))
        X[5] = X[1] + 1e-9
        tasks = np.where(np.arange(12) % 2 == 1, task, 3 - task)
        base = se_kernel_matrix(X, X, self.PARAMS)
        base[5, 5] -= 3e-9

        def rows(stack):
            return [int(np.flatnonzero((X == x).all(axis=1))[0]) for x in stack]

        monkeypatch.setattr(kernels, "se_kernel_matrix",
                            lambda A, B, params: base[np.ix_(rows(A), rows(B))])
        return gp.MultiTaskDataset(X, tasks, np.sin(3.0 * X[:, 0]))

    @pytest.mark.parametrize("task", [1, 2])
    def test_raises_at_the_starting_jitter(self, task, monkeypatch):
        dataset = self.case(task, monkeypatch)
        with pytest.raises(gp.NumericalError, match="not positive definite"):
            TwoTaskFactor.build(dataset, self.PARAMS)
        head = gp.MultiTaskDataset(dataset.inputs[:4], dataset.tasks[:4],
                                   dataset.observations[:4])
        previous = TwoTaskFactor.build(head, self.PARAMS)
        with pytest.raises(gp.NumericalError, match="not positive definite"):
            TwoTaskFactor.build(dataset, self.PARAMS, previous=previous)


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
            shared = factor_for(dataset, params)
            for sp in (members[0], CorrelationMatrix.two_task(0.2)):
                reference = cholesky_nu(dataset, sp, members, params)
                fresh = factor_for(dataset, params)
                assert bounds.nu_factor(dataset, sp, cs, params, factor=fresh) == pytest.approx(
                    reference, rel=1e-7)
                assert bounds.nu_factor(dataset, sp, cs, params, factor=shared) == pytest.approx(
                    reference, rel=1e-7)

    def test_single_member_short_circuit_matches_general_path(self):
        rng = np.random.default_rng(2)
        task_one = gp.MultiTaskDataset(rng.random((25, 1)), np.ones(25, int),
                                       rng.standard_normal(25))
        identity = CorrelationMatrix.identity(1)
        single = ConfidenceSet((identity,))
        assert bounds.nu_factor(task_one, identity, single, PARAMS, factor=None) == 0.0
        assert cholesky_nu(task_one, identity, [identity], PARAMS) == 0.0
        # nu is a square root: rounding of about 1e-13 in the quadratic form
        # leaves the general paths a few 1e-7 above zero
        mixed = datasets()["mixed"]
        for r in (0.0, 0.4, 0.9):
            sp = CorrelationMatrix.two_task(r)
            cs = ConfidenceSet((sp, sp))
            assert bounds.nu_factor(mixed, sp, cs, PARAMS, factor=factor_for(mixed)) == 0.0
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
                assert bounds.nu_factor(dataset, sp, cs, PARAMS,
                                        factor=factor_for(dataset)) == pytest.approx(
                    cholesky_nu(dataset, sp, members, PARAMS), rel=1e-8)

    def test_mixed_sizes_raise(self):
        two, three = CorrelationMatrix.two_task(0.3), CorrelationMatrix.identity(3)
        with pytest.raises(ValueError, match="one size"):
            ConfidenceSet((two, three))
        cs = ConfidenceSet((two, CorrelationMatrix.two_task(0.6)))
        with pytest.raises(ValueError, match="3x3.*2x2"):
            bounds.nu_factor(datasets()["mixed"], three, cs, PARAMS, factor=None)


class TestFantasyDowndate:
    def test_variances_match_refit_after_each_pick(self):
        """Cholesky fits of two and three tasks, and the two-task factor's posterior."""
        rng = np.random.default_rng(2)
        grid = make_grid(2, size=256)
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
        # each cell's log density, its log weight, is the Cholesky log likelihood at its
        # midpoint plus its log prior mass
        eta = 0.1
        for dataset in datasets().values():
            post = sample_hyperposterior(dataset, 2, eta, PARAMS, factor=factor_for(dataset))
            exact = two_task_log_likelihoods(dataset, PARAMS, CELL_MIDPOINTS)
            assert np.allclose(post.log_densities - _log_cell_masses(eta), exact,
                               rtol=1e-8, atol=1e-12)

    def test_mismatched_factor_fails_the_cross_check(self):
        """A factor of other observations is refused before any cell is weighed."""
        rng = np.random.default_rng(5)
        dataset = synthetic_two_task(0.5, 10, rng)
        other = gp.MultiTaskDataset(dataset.inputs, dataset.tasks, dataset.observations + 0.1)
        with pytest.raises(ValueError, match="factor built on its own dataset"):
            sample_hyperposterior(dataset, 2, 0.1, PARAMS, factor=factor_for(other))


class TestCrossCheck:
    """A factor checks itself where it is made, and each stage takes only its data's own."""

    OTHER_DATA = {
        "other-inputs": lambda d, rng: gp.MultiTaskDataset(rng.random(d.inputs.shape), d.tasks,
                                                            d.observations),
        "another-size": lambda d, rng: synthetic_two_task(0.5, 4, rng),
        "equal-copy": lambda d, rng: gp.MultiTaskDataset(d.inputs.copy(), d.tasks.copy(),
                                                             d.observations.copy()),
    }
    SIGMA_PRIME = CorrelationMatrix.two_task(0.3)
    SET = ConfidenceSet((SIGMA_PRIME, CorrelationMatrix.two_task(0.7)))
    STAGES = {
        "sample_hyperposterior": lambda d, f: sample_hyperposterior(d, 2, 0.1, PARAMS, factor=f),
        "nu_factor": lambda d, f: bounds.nu_factor(d, TestCrossCheck.SIGMA_PRIME,
                                                   TestCrossCheck.SET, PARAMS, factor=f),
        "scaling_bundle": lambda d, f: bounds.scaling_bundle(d, TestCrossCheck.SET, 100, PARAMS,
                                                             0.05, factor=f),
    }

    @pytest.mark.parametrize("stage", sorted(STAGES))
    @pytest.mark.parametrize("other", [None, *OTHER_DATA])
    def test_a_stage_refuses_any_factor_but_its_datas_own(self, stage, other):
        """No factor, or one of another dataset object, equal content included, is refused."""
        rng = np.random.default_rng(5)
        dataset = synthetic_two_task(0.5, 6, rng)
        factor = None if other is None else factor_for(self.OTHER_DATA[other](dataset, rng))
        with pytest.raises(ValueError, match="factor built on its own dataset"):
            self.STAGES[stage](dataset, factor)
        self.STAGES[stage](dataset, factor_for(dataset))

    def test_nu_and_the_bundle_refuse_a_factor_of_other_data(self):
        """Factors of other observations, other inputs and another size."""
        rng = np.random.default_rng(5)
        dataset = synthetic_two_task(0.5, 6, rng)
        others = (gp.MultiTaskDataset(dataset.inputs, dataset.tasks, dataset.observations + 0.1),
                  gp.MultiTaskDataset(rng.random(dataset.inputs.shape), dataset.tasks,
                                      dataset.observations),
                  synthetic_two_task(0.5, 4, rng))
        for other in others:
            factor = factor_for(other)
            for stage in ("nu_factor", "scaling_bundle"):
                with pytest.raises(ValueError, match="factor built on its own dataset"):
                    self.STAGES[stage](dataset, factor)

    def test_build_checks_itself(self, monkeypatch):
        """A closed form off by 1 nat fails in build, fresh and grown, before any sampler call."""
        dataset = synthetic_two_task(0.5, 8, np.random.default_rng(5))
        head = gp.MultiTaskDataset(dataset.inputs[:10], dataset.tasks[:10],
                                   dataset.observations[:10])
        previous = factor_for(head)
        real = TwoTaskFactor.log_likelihood
        monkeypatch.setattr(TwoTaskFactor, "log_likelihood",
                            lambda factor, r: real(factor, r) + 1.0)
        for grown in (None, previous):
            with pytest.raises(gp.NumericalError, match="differs from the Cholesky value"):
                TwoTaskFactor.build(dataset, PARAMS, previous=grown)
