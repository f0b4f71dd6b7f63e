import dataclasses

import numpy as np
import pytest

from samsbo import bounds, gp, kernels, safeopt, twotask, verify
from samsbo.benchmarks import branin_problem, find_safe_seed, laser_problem, powell_problem
from samsbo.bounds import select_sigma_prime
from samsbo.config import ConfigError, ExperimentConfig
from samsbo.hyperposterior import ConfidenceSet
from samsbo.kernels import CorrelationMatrix, KernelParams
from samsbo.safeopt import (
    SUPPLEMENTARY_PER_INPUT,
    CandidateGrid,
    LoopConfig,
    NoSafeActionError,
    OptimizationState,
    acquire_main,
    acquire_supplementary,
    fit_transforms,
    initialize_state,
    make_grid,
    run_repetition,
    safe_set,
    step,
)

from oracles import empty_dataset, predict

PARAMS = KernelParams(1.0, [0.4], noise_variance=0.01)


def make_state(dataset, sigma, beta_b=4.0, grid=None):
    """A state at ``sigma`` with nu = 0 and gamma = 1, so beta_bar = (sqrt(beta_b))^2."""
    cs = ConfidenceSet((sigma,))
    bundle = bounds.ScalingBundle(sigma_prime=sigma, beta_b=beta_b, nu=0.0, gamma=1.0)
    model = bounds.RobustModel(cs, bundle, gp.fit(dataset, sigma, PARAMS))
    return OptimizationState(dataset=dataset, transforms=None, model=model, grid=grid)


class TestTransforms:
    def test_domain_endpoints(self):
        ds = gp.MultiTaskDataset(np.array([[0.0]]), [1], [1.0])
        tr = fit_transforms(ds, np.array([[-4.0, 5.0]]))
        assert tr.normalize(np.array([[-4.0]]))[0, 0] == pytest.approx(0.0)
        assert tr.normalize(np.array([[5.0]]))[0, 0] == pytest.approx(1.0)

    def test_standardization(self):
        ds = gp.MultiTaskDataset(np.array([[0.0], [1.0]]), [1, 1], [1.0, 3.0])
        tr = fit_transforms(ds, np.array([[0.0, 1.0]]))
        assert np.allclose(tr.standardize(np.array([1.0, 3.0])), [-1.0, 1.0])

    def test_threshold_follows_output_map(self):
        ds = gp.MultiTaskDataset(np.array([[0.0], [1.0]]), [1, 1], [1.0, 3.0])
        tr = fit_transforms(ds, np.array([[0.0, 1.0]]))
        assert tr.threshold_std(5.0) == pytest.approx(tr.standardize(np.array([5.0]))[0])

    def test_zero_variance_floor(self):
        ds = gp.MultiTaskDataset(np.array([[0.0], [1.0]]), [1, 1], [2.0, 2.0])
        tr = fit_transforms(ds, np.array([[0.0, 1.0]]))
        assert tr.y_std == pytest.approx(1e-8)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        ds = gp.MultiTaskDataset(rng.random((5, 2)), np.ones(5, int), rng.standard_normal(5))
        box = np.array([[-2.0, 3.0], [0.0, 10.0]])
        tr = fit_transforms(ds, box)
        x = rng.random((4, 2)) * [5.0, 10.0] + [-2.0, 0.0]
        assert np.allclose(tr.denormalize(tr.normalize(x)), x)


class TestCandidateGrid:
    def test_unit_cube_and_distinct(self):
        grid = make_grid(2, size=128)
        assert len(grid) == 128
        assert np.min(grid.points) >= 0.0 and np.max(grid.points) <= 1.0

    def test_one_dimensional_lattice(self):
        grid = make_grid(1, size=11)
        assert np.allclose(grid.points.ravel(), np.linspace(0, 1, 11))

    def test_extra_points_deduplicated(self):
        extra = np.array([[0.5], [0.5], [0.25]])
        grid = make_grid(1, size=5, extra_points=extra)
        assert np.unique(grid.points, axis=0).shape[0] == len(grid)
        assert any(np.allclose(p, [0.25]) for p in grid.points)

    def test_rejects_out_of_cube(self):
        with pytest.raises(ValueError):
            CandidateGrid(points=np.array([[1.5]]))

    def test_dedup_is_numpys_unique_rows(self):
        """The lexsort dedup gives np.unique(axis=0)'s rows in its order, repeats or not."""
        rng = np.random.default_rng(8)
        for d in (1, 2, 3, 10):
            for _ in range(50):
                coarse = rng.integers(0, 3, (int(rng.integers(1, 30)), d)) / 2.0
                points = np.vstack([coarse, coarse[rng.integers(0, len(coarse), 4)],
                                    rng.random((3, d))])
                got = safeopt._unique_rows(points)
                assert np.array_equal(got.view(np.int64), np.unique(points, axis=0).view(np.int64))
        sobol = make_grid(10, 64).points
        extra = sobol[[5, 5, 9]]
        grid = make_grid(10, 64, extra_points=np.vstack([extra, [[0.5] * 10]]))
        assert np.array_equal(grid.points, np.unique(np.vstack([sobol, extra, [[0.5] * 10]]),
                                                     axis=0))
        with pytest.raises(ValueError, match="distinct"):
            CandidateGrid(points=np.vstack([sobol, sobol[[7]]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="unit cube"):
            CandidateGrid(points=np.array([[0.5, bad], [0.2, 0.3]]))

    def test_rejects_a_nan_seed(self):
        """np.clip keeps a NaN, and np.min and np.max of it are NaN, which compares False."""
        with pytest.raises(ValueError, match="unit cube"):
            make_grid(2, 8, extra_points=[[np.nan, 0.5]])

    @pytest.mark.parametrize("dimension, size, name", [
        (0, 10, "dimension"), (-1, 10, "dimension"), (2, 0, "size"), (1, 0, "size"),
    ])
    def test_rejects_empty_arguments(self, dimension, size, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            make_grid(dimension, size)


class TestSafeSet:
    def test_zero_beta_low_mean_all_safe(self):
        ds = gp.MultiTaskDataset(np.array([[0.5]]), [1], [-1.0])
        post = gp.fit(ds, CorrelationMatrix.identity(1), PARAMS)
        state = make_state(ds, CorrelationMatrix.identity(1), beta_b=0.0)
        grid = make_grid(1, size=32)
        result = safe_set(state.model, threshold_std=0.5, grid=grid)
        assert result.size() == 32

    def test_prior_bound_exceeds_threshold_empty(self):
        post = gp.fit(empty_dataset(1), CorrelationMatrix.identity(1), PARAMS)
        state = make_state(empty_dataset(1), CorrelationMatrix.identity(1),
                           beta_b=9.0)
        grid = make_grid(1, size=32)
        # prior mean 0, std 1 -> upper bound 3 everywhere
        result = safe_set(state.model, threshold_std=2.0, grid=grid)
        assert result.size() == 0

    def test_mask_matches_hand_evaluation(self):
        """A one-task model against per-point predictions, and it and a two-task model
        against mean +- sqrt(beta_bar) std of their posterior's batch, bit for bit."""
        ds = gp.MultiTaskDataset(np.array([[0.4]]), [1], [-0.5])
        sigma = CorrelationMatrix.identity(1)
        post = gp.fit(ds, sigma, PARAMS)
        state = make_state(ds, sigma, beta_b=2.0)
        grid = CandidateGrid(np.linspace(0, 1, 5).reshape(-1, 1))
        result = safe_set(state.model, threshold_std=0.3, grid=grid)
        for i, point in enumerate(grid.points):
            mean, var = predict(post, point, 1)
            expected = mean + np.sqrt(2.0) * np.sqrt(var) <= 0.3
            assert result.mask[i] == expected
        rng = np.random.default_rng(4)
        two = gp.MultiTaskDataset(rng.random((12, 1)), np.tile([1, 2], 6),
                                  rng.standard_normal(12))
        two_task = bounds.robust_model(two, 2, 0.1, 0.15, len(grid), PARAMS, 0.05)
        assert isinstance(two_task.posterior, twotask.TwoTaskPosterior)
        assert two_task.bundle.beta_bar > two_task.bundle.beta_b        # nu > 0 or gamma > 1
        for model in (state.model, two_task):
            result = safe_set(model, threshold_std=0.3, grid=grid)
            means, variances = model.posterior.predict_batch(grid.points, 1)
            band = np.sqrt(model.bundle.beta_bar) * np.sqrt(variances)
            assert np.array_equal(result.mask, means + band <= 0.3)
            assert np.array_equal(result.lower.view(np.int64), (means - band).view(np.int64))


class TestAcquireMain:
    @staticmethod
    def candidates(state, grid, mask):
        """The safe set of ``grid`` at an infinite threshold, restricted to ``mask``."""
        every = safe_set(state.model, threshold_std=np.inf, grid=grid)
        assert every.size() == len(grid)
        return dataclasses.replace(every, mask=mask)

    def test_single_safe_candidate(self):
        ds = gp.MultiTaskDataset(np.array([[0.5]]), [1], [0.0])
        sigma = CorrelationMatrix.identity(1)
        state = make_state(ds, sigma)
        grid = make_grid(1, size=16)
        mask = np.zeros(16, dtype=bool)
        mask[7] = True
        chosen = acquire_main(self.candidates(state, grid, mask))
        assert np.allclose(chosen, grid.points[7])

    def test_optimism_prefers_uncertainty(self):
        # two symmetric candidates, one farther from data -> larger std wins
        ds = gp.MultiTaskDataset(np.array([[0.0]]), [1], [0.0])
        sigma = CorrelationMatrix.identity(1)
        state = make_state(ds, sigma)
        grid = CandidateGrid(np.array([[0.1], [0.9]]))
        chosen = acquire_main(self.candidates(state, grid, np.ones(2, bool)))
        assert np.allclose(chosen, [0.9])

    def test_matches_exhaustive_argmin(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = rng.integers(1, 6)
            ds = gp.MultiTaskDataset(rng.random((n, 1)), np.ones(n, int),
                                     rng.standard_normal(n))
            sigma = CorrelationMatrix.identity(1)
            state = make_state(ds, sigma, beta_b=float(rng.random() * 5 + 0.5))
            grid = CandidateGrid(np.sort(rng.random(5)).reshape(-1, 1))
            mask = rng.random(5) < 0.7
            if not mask.any():
                mask[0] = True
            best, best_val = None, np.inf
            for i in range(5):
                if not mask[i]:
                    continue
                mean, var = predict(state.model.posterior, grid.points[i], 1)
                val = mean - np.sqrt(state.model.bundle.beta_bar) * np.sqrt(var)
                if val < best_val - 1e-15:
                    best, best_val = i, val
            chosen = acquire_main(self.candidates(state, grid, mask))
            assert np.allclose(chosen, grid.points[best])

    def test_empty_safe_set_raises(self):
        ds = gp.MultiTaskDataset(np.array([[0.5]]), [1], [0.0])
        state = make_state(ds, CorrelationMatrix.identity(1))
        grid = make_grid(1, size=8)
        with pytest.raises(NoSafeActionError):
            acquire_main(self.candidates(state, grid, np.zeros(8, bool)))


class TestAcquireSupplementary:
    def test_empty_data_picks_lowest_index_of_max_prior_variance(self):
        ds = empty_dataset(1)
        sigma = CorrelationMatrix.two_task(0.5)
        grid = make_grid(1, size=8)
        state = make_state(ds, sigma, grid=grid)
        picks = acquire_supplementary(state, 1)
        assert len(picks) == 1
        assert np.allclose(picks[0][0], grid.points[0])
        assert picks[0][1] == 2

    @pytest.mark.parametrize("n_obs", [0, 1])
    def test_refuses_a_problem_without_supplementary_tasks(self, n_obs):
        # the loop evaluates the picks without a safety check, so none may be main-task;
        # the refusal reads the model's task count, with or without main-task data
        ds = gp.MultiTaskDataset(np.full((n_obs, 1), 0.5), np.ones(n_obs, dtype=int),
                                 np.zeros(n_obs))
        state = make_state(ds, CorrelationMatrix.identity(1), grid=make_grid(1, size=8))
        with pytest.raises(ValueError, match="2 or more tasks, got 1"):
            acquire_supplementary(state, 2)

    def test_second_pick_differs(self):
        ds = empty_dataset(1)
        sigma = CorrelationMatrix.two_task(0.5)
        grid = make_grid(1, size=16)
        state = make_state(ds, sigma, grid=grid)
        picks = acquire_supplementary(state, 2)
        assert not np.allclose(picks[0][0], picks[1][0])

    def test_matches_brute_force_greedy(self):
        rng = np.random.default_rng(2)
        sigma = CorrelationMatrix.two_task(0.6)
        ds = gp.MultiTaskDataset(rng.random((4, 1)), rng.integers(1, 3, 4),
                                 rng.standard_normal(4))
        grid = CandidateGrid(np.linspace(0, 1, 10).reshape(-1, 1))
        state = make_state(ds, sigma, grid=grid)
        picks = acquire_supplementary(state, 3)

        # brute force: at each stage evaluate every candidate's variance from
        # a dense-inverse posterior conditioned on previous fantasy picks
        fantasy_ds = ds
        for stage in range(3):
            best_idx, best_var = None, -np.inf
            post = gp.fit(fantasy_ds, sigma, PARAMS)
            for i, point in enumerate(grid.points):
                _, var = predict(post, point, 2)
                if var > best_var + 1e-15:
                    best_idx, best_var = i, var
            assert np.allclose(picks[stage][0], grid.points[best_idx])
            fantasy_ds = fantasy_ds.extended([grid.points[best_idx]], [2], [0.0])


class TestSelectSigmaPrime:
    def test_singleton(self):
        s = CorrelationMatrix.two_task(0.4)
        cs = ConfidenceSet((s,))
        assert select_sigma_prime(cs)[0].key() == s.key()

    def test_matches_exhaustive_minimax(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            members = tuple(CorrelationMatrix.two_task(float(r))
                            for r in rng.random(6) * 0.9)
            cs = ConfidenceSet(members)
            chosen, _ = select_sigma_prime(cs)
            worst = []
            for cand in members:
                worst.append(max(
                    np.linalg.norm(np.linalg.solve(cand.matrix, m.matrix), 2)
                    for m in members))
            best = min(worst)
            chosen_worst = max(
                np.linalg.norm(np.linalg.solve(chosen.matrix, m.matrix), 2)
                for m in members)
            assert chosen_worst == pytest.approx(best, abs=1e-10)

    def test_three_task_general_path(self):
        from test_kernels import random_correlation
        rng = np.random.default_rng(4)
        members = tuple(random_correlation(3, rng) for _ in range(5))
        cs = ConfidenceSet(members)
        chosen, _ = select_sigma_prime(cs)
        worst_chosen = max(
            np.linalg.norm(np.linalg.solve(chosen.matrix, m.matrix), 2) for m in members)
        for cand in members:
            worst = max(
                np.linalg.norm(np.linalg.solve(cand.matrix, m.matrix), 2) for m in members)
            assert worst_chosen <= worst + 1e-10


class TestStepComposition:
    def test_full_step_matches_scripted_suboperations(self, monkeypatch):
        """One SaMSBO step equals the same suboperations called by hand."""
        from samsbo.safeopt import _refresh_model

        monkeypatch.setattr(safeopt, "GRID_SIZE", 64)
        problem = branin_problem(disturbance_seed=7)
        cfg = LoopConfig(iterations=1, seed_points=2)
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)

        seeds = np.array([[2.0, 3.0], [1.0, 8.0]])
        state_a, _ = initialize_state(problem, cfg, rng_a, seeds)
        state_b, _ = initialize_state(problem, cfg, rng_b, seeds)

        trace = step(state_a, problem, cfg, rng_a)

        # scripted equivalent: supplementary batch, evaluations, refresh, safe
        # set, main acquisition, in the same order with the same rng stream
        grid = state_b.grid
        picks = acquire_supplementary(state_b, SUPPLEMENTARY_PER_INPUT * 2)
        new = [(state_b.transforms.denormalize(x), z) for x, z in picks]
        ys = [problem.evaluate(z, x, rng_b) for x, z in new]
        state_b.dataset = state_b.dataset.extended(
            [x for x, _ in new], [z for _, z in new], ys)
        state_b.iteration += 1
        _refresh_model(state_b, problem, cfg, rng_b)
        threshold_std = state_b.transforms.threshold_std(problem.threshold)
        sset = safe_set(state_b.model, threshold_std, grid)
        x_norm = acquire_main(sset)
        x_raw = state_b.transforms.denormalize(x_norm)
        y_main = problem.evaluate(1, x_raw, rng_b)

        main_rows = [r for r in trace if r.task == 1]
        assert len(main_rows) == 1
        assert np.allclose(main_rows[0].x, x_raw)
        assert main_rows[0].observed == pytest.approx(y_main)
        supp_rows = [r for r in trace if r.task == 2]
        assert [tuple(np.round(r.x, 12)) for r in supp_rows] == \
            [tuple(np.round(x, 12)) for x, _ in new]


class TestProtocolConstants:
    def test_branin_refresh_sees_the_protocol_kernel_and_cover(self, monkeypatch):
        """The fixed kernel and tau reach every refresh, written out here, not read from config."""
        seen = []
        real = bounds.robust_model

        def recording(dataset, n_tasks, eta, rho, cardinality, params, delta, **kwargs):
            seen.append((cardinality, params))
            return real(dataset, n_tasks, eta, rho, cardinality, params, delta, **kwargs)

        monkeypatch.setattr(bounds, "robust_model", recording)
        monkeypatch.setattr(safeopt, "GRID_SIZE", 64)
        cfg = LoopConfig(iterations=1, seed_points=2)
        trace = run_repetition(branin_problem(disturbance_seed=1), cfg, seed=0)
        assert max(r.iteration for r in trace) == 1
        assert len(seen) == 2                           # initialization and one step
        for cardinality, params in seen:
            assert cardinality == bounds.covering_number(0.001, 2)
            assert params.signal_variance == 1.0 and params.noise_variance == 0.01
            assert params.lengthscales.tolist() == [0.2, 0.2]


    @pytest.mark.parametrize("size", [None, 64])
    def test_initial_grid_is_the_constant_size_grid_with_the_seeds(self, size, monkeypatch):
        assert safeopt.GRID_SIZE == 2048
        if size is not None:
            monkeypatch.setattr(safeopt, "GRID_SIZE", size)
        problem = branin_problem(disturbance_seed=1)
        seeds = np.array([[2.0, 3.0], [1.0, 8.0]])
        state, _ = initialize_state(problem, LoopConfig(), np.random.default_rng(0), seeds)
        want = make_grid(2, safeopt.GRID_SIZE, extra_points=state.transforms.normalize(seeds))
        assert np.array_equal(state.grid.points, want.points)
        assert len(want) == safeopt.GRID_SIZE + len(seeds)


class TestStepPrediction:
    @staticmethod
    def start(algorithm, monkeypatch):
        monkeypatch.setattr(safeopt, "GRID_SIZE", 64)
        problem = branin_problem(disturbance_seed=6, n_tasks=1)
        cfg = LoopConfig(algorithm=algorithm, iterations=1)
        rng = np.random.default_rng(21)
        seeds = np.array([find_safe_seed(problem, rng) for _ in range(3)])
        state, _ = initialize_state(problem, cfg, rng, seeds)
        return problem, cfg, rng, state

    def test_safe_ucb_step_predicts_the_main_task_once(self, monkeypatch):
        problem, cfg, rng, state = self.start("safe-ucb", monkeypatch)
        tasks = []
        real = gp.Posterior.predict_batch

        def recording(posterior, points, z):
            tasks.append(z)
            return real(posterior, points, z)

        monkeypatch.setattr(gp.Posterior, "predict_batch", recording)
        trace = step(state, problem, cfg, rng)
        assert [r.task for r in trace] == [1]           # the step reached acquisition
        assert tasks == [1]                             # safe set and acquisition share it

    def test_ucb_step_takes_the_argmin_of_lower_over_the_whole_grid(self, monkeypatch):
        problem, cfg, rng, state = self.start("ucb", monkeypatch)
        grid, posterior, bundle = state.grid, state.model.posterior, state.model.bundle
        lower = []
        for point in grid.points:
            mean, var = predict(posterior, point, 1)
            lower.append(mean - np.sqrt(bundle.beta_bar) * np.sqrt(var))
        expected = state.transforms.denormalize(grid.points[int(np.argmin(lower))])
        trace = step(state, problem, cfg, rng)
        assert state.model.posterior is posterior       # no new rows before acquisition
        assert [r.task for r in trace] == [1]
        assert trace[0].safe_set_size == len(grid)
        assert np.allclose(trace[0].x, expected)


class TestLoopBehavior:
    @pytest.mark.parametrize("make_problem", [branin_problem, powell_problem, laser_problem],
                             ids=["branin", "powell", "laser"])
    def test_iteration_and_dataset_growth(self, make_problem, monkeypatch):
        problem = make_problem(disturbance_seed=1)
        monkeypatch.setattr(safeopt, "GRID_SIZE", 128)
        cfg = LoopConfig(iterations=3, seed_points=2)
        rng = np.random.default_rng(0)          # the draws of run_repetition(seed=0)
        seeds = np.array([find_safe_seed(problem, rng) for _ in range(cfg.seed_points)])
        state, trace = initialize_state(problem, cfg, rng, seeds)
        for _ in range(cfg.iterations):
            trace.extend(step(state, problem, cfg, rng))
        per_iter = {}
        for r in trace:
            per_iter.setdefault(r.iteration, []).append(r)
        assert len(per_iter[0]) == 2                       # seed rows
        batch = SUPPLEMENTARY_PER_INPUT * problem.dimension
        for t in (1, 2, 3):
            assert len(per_iter[t]) in (batch, batch + 1)
        assert not any(r.violation for r in trace)
        main_rows = sum(r.task == 1 for r in trace if r.iteration > 0)
        assert main_rows + state.stalled_iterations == cfg.iterations

    def test_multi_name_algorithm_never_runs(self):
        # a campaign may list several loops; the loop itself must refuse the list
        problem = branin_problem(disturbance_seed=1)
        cfg = ExperimentConfig(algorithm="samsbo,ucb", iterations=1)
        with pytest.raises(ConfigError, match="one algorithm"):
            run_repetition(problem, cfg, seed=0)

    def test_zero_iterations_only_seed(self, monkeypatch):
        problem = branin_problem(disturbance_seed=1)
        monkeypatch.setattr(safeopt, "GRID_SIZE", 64)
        cfg = LoopConfig(iterations=0, seed_points=3)
        trace = run_repetition(problem, cfg, seed=0)
        assert len(trace) == 3
        assert all(r.iteration == 0 for r in trace)

    def test_fixed_seed_reproducible(self, monkeypatch):
        problem = branin_problem(disturbance_seed=1)
        monkeypatch.setattr(safeopt, "GRID_SIZE", 128)
        cfg = LoopConfig(iterations=2)
        a = run_repetition(problem, cfg, seed=5)
        b = run_repetition(problem, cfg, seed=5)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.x, rb.x)
            assert ra.observed == rb.observed
            assert ra.beta_bar == rb.beta_bar

    def test_best_observation_monotone(self, monkeypatch):
        problem = branin_problem(disturbance_seed=2)
        monkeypatch.setattr(safeopt, "GRID_SIZE", 256)
        cfg = LoopConfig(iterations=5)
        trace = run_repetition(problem, cfg, seed=1)
        main = [r.best_so_far for r in trace if r.task == 1]
        assert all(b <= a + 1e-12 for a, b in zip(main, main[1:]))

    def test_single_task_reduction_matches_safe_ucb(self, monkeypatch):
        problem = branin_problem(disturbance_seed=3, n_tasks=1)
        monkeypatch.setattr(safeopt, "GRID_SIZE", 256)
        cfg_m = LoopConfig(algorithm="samsbo", iterations=4)
        cfg_s = LoopConfig(algorithm="safe-ucb", iterations=4)
        a = run_repetition(problem, cfg_m, seed=7)
        b = run_repetition(problem, cfg_s, seed=7)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.x, rb.x)
            assert ra.observed == rb.observed

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10: safe-ucb evaluates an unsafe input "
                       "at benchmark seed 802; the change that fixes it removes this mark")
    def test_safe_ucb_stays_safe_at_benchmark_seed_802(self):
        """safeucb-branin's repetition at seed 802, cut to 3 iterations: its third main-task
        evaluation is x = (-3.367, 0.303), true value 157.4 above the threshold 150."""
        s = int(np.random.SeedSequence([802, 0]).generate_state(1)[0])
        trace = run_repetition(branin_problem(disturbance_seed=s),
                               LoopConfig(algorithm="safe-ucb", iterations=3, seed_points=3), s)
        assert not [r for r in trace if r.violation]

    def test_safe_set_soundness_recorded_states(self, monkeypatch):
        problem = branin_problem(disturbance_seed=4)
        monkeypatch.setattr(safeopt, "GRID_SIZE", 128)
        cfg = LoopConfig(iterations=3)
        rng = np.random.default_rng(11)
        seeds = np.array([find_safe_seed(problem, rng) for _ in range(3)])
        state, _ = initialize_state(problem, cfg, rng, seeds)
        for _ in range(3):
            step(state, problem, cfg, rng)
            grid = state.grid
            threshold_std = state.transforms.threshold_std(problem.threshold)
            sset = safe_set(state.model, threshold_std, grid)
            means, variances = state.model.posterior.predict_batch(grid.points, 1)
            upper = means + np.sqrt(state.model.bundle.beta_bar) * np.sqrt(variances)
            assert np.array_equal(sset.mask, upper <= threshold_std)


class TestReadOnlyQueries:
    """Every grid query of a run hands the posterior a read-only array, so it reaches the
    grid cache instead of a fresh fill of a frozen copy."""

    @staticmethod
    def spy(monkeypatch):
        """Whether each ``Posterior._entries`` call received a read-only array, in call order."""
        frozen = []
        real = gp.Posterior._entries

        def recording(posterior, points):
            frozen.append(gp._frozen(points))
            return real(posterior, points)

        monkeypatch.setattr(gp.Posterior, "_entries", recording)
        return frozen

    @pytest.mark.parametrize("make, algorithm", [(branin_problem, "samsbo"),
                                                 (laser_problem, "samsbo"),
                                                 (branin_problem, "safe-ucb")])
    def test_one_step(self, make, algorithm, monkeypatch):
        problem = make()
        cfg = LoopConfig(algorithm=algorithm, iterations=1)
        rng = np.random.default_rng(3)
        seeds = np.array([find_safe_seed(problem, rng) for _ in range(cfg.seed_points)])
        frozen = self.spy(monkeypatch)
        state, _ = initialize_state(problem, cfg, rng, seeds)
        step(state, problem, cfg, rng)
        assert frozen and all(frozen)

    @pytest.mark.parametrize("suite", [verify.bayesian_coverage, verify.frequentist_coverage])
    def test_one_coverage_trial(self, suite, monkeypatch):
        frozen = self.spy(monkeypatch)
        suite(trials=1)
        assert frozen and all(frozen)


class TestIncrementalRefresh:
    def test_grown_posterior_matches_fresh_fit_every_step(self, monkeypatch):
        problem = branin_problem(disturbance_seed=5)
        cfg = LoopConfig(algorithm="safe-ucb", iterations=30)
        rng = np.random.default_rng(13)
        seeds = np.array([find_safe_seed(problem, rng) for _ in range(3)])
        state, _ = initialize_state(problem, cfg, rng, seeds)
        full_factorizations = []
        real = gp._chol_with_jitter

        def counting(*args):
            full_factorizations.append(args[0].shape[0])
            return real(*args)

        monkeypatch.setattr(gp, "_chol_with_jitter", counting)
        grown_rows = 0
        for _ in range(cfg.iterations):
            before = state.model.posterior.dataset.n
            step(state, problem, cfg, rng)
            posterior = state.model.posterior
            grown_rows += posterior.dataset.n - before
            fresh = gp.fit(posterior.dataset, posterior.sigma_used, posterior.params)
            for got, want in zip(posterior.predict_batch(state.grid.points, 1),
                                 fresh.predict_batch(state.grid.points, 1)):
                assert np.max(np.abs(got - want)) <= 1e-10
        # the loop grew its factor at every refresh: the reference fits are the
        # only full factorizations
        assert grown_rows > 0
        assert len(full_factorizations) == cfg.iterations

    def test_laser_step_puts_the_shorter_stack_first_in_every_cdist(self, monkeypatch):
        problem = laser_problem()
        cfg = LoopConfig(iterations=1)
        rng = np.random.default_rng(3)
        seeds = np.array([find_safe_seed(problem, rng) for _ in range(cfg.seed_points)])
        state, _ = initialize_state(problem, cfg, rng, seeds)
        rows = []
        real = kernels._cdist_sqeuclidean

        def recording(A, B, **kwargs):
            rows.append((A.shape[0], B.shape[0]))
            return real(A, B, **kwargs)

        monkeypatch.setattr(kernels, "_cdist_sqeuclidean", recording)
        step(state, problem, cfg, rng)
        assert rows and all(first <= second for first, second in rows)
        assert (1, len(state.grid)) in rows          # a fantasized pick's prior row

    def test_samsbo_factors_no_full_system_after_the_first_refresh(self, monkeypatch):
        problem = branin_problem(disturbance_seed=5)
        monkeypatch.setattr(safeopt, "GRID_SIZE", 128)
        cfg = LoopConfig(iterations=5)
        refreshes = []                      # (rows, shapes factored) per refresh
        real_refresh, real_cholesky = bounds.robust_model, np.linalg.cholesky

        def recording_refresh(dataset, *args, **kwargs):
            refreshes.append((dataset.n, []))
            return real_refresh(dataset, *args, **kwargs)

        def recording_cholesky(a):
            refreshes[-1][1].append(a.shape)
            return real_cholesky(a)

        monkeypatch.setattr(bounds, "robust_model", recording_refresh)
        monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
        run_repetition(problem, cfg, seed=4)
        (n, first), *later = refreshes
        assert (n, n) in first              # the cross-check's joint fit starts fresh
        assert len(later) == cfg.iterations
        for n, shapes in later:
            assert shapes and (n, n) not in shapes

    def test_step_without_new_rows_keeps_the_model(self, monkeypatch):
        problem = dataclasses.replace(branin_problem(disturbance_seed=6),
                                      threshold=-1e3)                   # nothing is safe
        monkeypatch.setattr(safeopt, "GRID_SIZE", 64)
        cfg = LoopConfig(algorithm="safe-ucb", iterations=2)
        rng = np.random.default_rng(17)
        seeds = np.array([[2.0, 3.0], [1.0, 8.0], [5.0, 5.0]])
        state, _ = initialize_state(problem, cfg, rng, seeds)
        model, transforms = state.model, state.transforms
        fits = []
        real = gp.fit
        monkeypatch.setattr(gp, "fit", lambda *a, **k: fits.append(1) or real(*a, **k))
        for stalls in (1, 2):
            rng_state = rng.bit_generator.state
            assert step(state, problem, cfg, rng) == []
            assert state.stalled_iterations == stalls
            assert rng.bit_generator.state == rng_state
            assert state.model.posterior.dataset.n == state.dataset.n == 3
            assert state.model is model and state.transforms is transforms
        assert fits == []
        # new rows refresh the model: a new frozen one of every row
        state.dataset = state.dataset.extended([[4.0, 4.0]], [1], [50.0])
        assert step(state, problem, cfg, rng) == []
        assert state.model is not model and isinstance(state.model, bounds.RobustModel)
        assert state.model.posterior.dataset.n == state.dataset.n == 4 and fits
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.model.bundle = model.bundle

