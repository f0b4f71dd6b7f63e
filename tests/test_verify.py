import hashlib

import numpy as np
import pytest

from samsbo import bounds, gp, verify
from samsbo.config import kernel_params
from samsbo.hyperposterior import R_MAX
from samsbo.kernels import CorrelationMatrix, KernelParams, se_kernel_matrix
from samsbo.safeopt import make_grid


def recorded_trials(monkeypatch) -> list:
    """Each trial's posterior and grid, recorded as ``_covers`` receives them."""
    trials = []
    covers = verify._covers

    def recording(posterior, grid, *args, **kwargs):
        trials.append((posterior, grid))
        return covers(posterior, grid, *args, **kwargs)

    monkeypatch.setattr(verify, "_covers", recording)
    return trials


def predictions_digest(trials, fresh: bool) -> str:
    """SHA-256 over every trial's means and variances of both tasks on its grid.

    ``fresh`` refits each dataset from scratch and queries a writable copy of
    the grid, so neither a shared factor nor a cached whitened grid is used.
    """
    digest = hashlib.sha256()
    for posterior, grid in trials:
        if fresh:
            posterior = gp.fit(posterior.dataset, posterior.sigma_used, posterior.params)
            grid = np.array(grid)
        for z in (1, 2):
            for values in posterior.predict_batch(grid, z):
                digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


class TestCovers:
    def test_band_is_sqrt_beta_std(self):
        rng = np.random.default_rng(2)
        params = KernelParams(1.0, [0.3], noise_variance=0.05)
        dataset = gp.MultiTaskDataset(rng.random((8, 1)), np.tile([1, 2], 4),
                                      rng.standard_normal(8))
        posterior = gp.fit(dataset, CorrelationMatrix.two_task(0.5), params)
        grid = np.linspace(0.0, 1.0, 7)[:, None]
        beta = 4.0
        edge = {}
        for z in (1, 2):
            means, variances = posterior.predict_batch(grid, z)
            edge[z] = means - np.sqrt(beta * variances)
        assert verify._covers(posterior, grid, edge, beta)
        outside = {1: edge[1], 2: edge[2].copy()}
        outside[2][3] -= 1e-6
        assert not verify._covers(posterior, grid, outside, beta)


class TestBayesianDraw:
    @pytest.mark.parametrize("r", [0.0, 0.5, R_MAX])
    def test_draw_has_the_kronecker_covariance(self, r):
        g = 30
        grid = make_grid(1, g).points
        params = KernelParams(1.0, [0.2], noise_variance=0.01)
        K = se_kernel_matrix(grid, grid, params)
        regularized = K + gp.JITTER_START * params.signal_variance * np.eye(g)
        chol = np.linalg.cholesky(regularized)
        M = np.column_stack([np.concatenate(verify._two_task_draw(chol, r, xi))
                             for xi in np.eye(2 * g)])
        expected = np.kron(CorrelationMatrix.two_task(r).matrix, regularized)
        assert np.max(np.abs(M @ M.T - expected)) <= 1e-12

    def test_no_factor_larger_than_the_grid(self, monkeypatch):
        # two calls from an empty cache factor the grid kernel once between them
        shapes = []
        cholesky = np.linalg.cholesky

        def recording(a):
            shapes.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        grid_size = verify.GRID_SIZE
        verify._draw_factor.cache_clear()
        verify.bayesian_coverage(trials=3)
        verify.bayesian_coverage(trials=3, seed=1)
        assert shapes and max(shape[0] for shape in shapes) <= grid_size
        assert shapes.count((grid_size, grid_size)) == 1


class TestDrawFactorCache:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_cold_and_warm_cache_give_equal_trials(self, monkeypatch, seed):
        digests, reports = [], []
        verify._draw_factor.cache_clear()
        for _ in range(2):
            trials = recorded_trials(monkeypatch)
            reports.append(verify.bayesian_coverage(trials=3, seed=seed))
            digests.append(predictions_digest(trials, fresh=False))
            monkeypatch.undo()
        assert reports[0] == reports[1]
        assert digests[0] == digests[1]

    def test_cached_grid_and_factor_are_read_only_and_exact(self):
        grid, chol = verify._draw_factor(50)
        again = verify._draw_factor(50)
        assert again[0] is grid and again[1] is chol
        assert np.array_equal(grid, make_grid(1, 50).points)
        params = kernel_params(1)
        kernel = se_kernel_matrix(grid, grid, params)
        jitter = gp.JITTER_START * params.signal_variance
        assert np.array_equal(chol, np.linalg.cholesky(kernel + jitter * np.eye(50)))
        for array in (grid, chol):
            assert gp._frozen(array)
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0


class TestFrequentistReuse:
    def test_trials_share_one_factor_and_one_grid_kernel(self, monkeypatch):
        factors, kernels = [], []
        chol_with_jitter, kernel = gp._chol_with_jitter, gp.se_kernel_scaled

        def recording_factor(*args):
            factors.append(args[0].shape)
            return chol_with_jitter(*args)

        def recording_kernel(*args):
            kernels.append(args[0].shape)
            return kernel(*args)

        monkeypatch.setattr(gp, "_chol_with_jitter", recording_factor)
        monkeypatch.setattr(gp, "se_kernel_scaled", recording_kernel)
        verify.frequentist_coverage(trials=20)
        assert factors == [(30, 30)]
        assert kernels == [(200, 1)]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_trials_match_fresh_fits_bit_for_bit(self, monkeypatch, seed):
        trials = recorded_trials(monkeypatch)
        verify.frequentist_coverage(trials=20, seed=seed)
        assert len(trials) == 20
        assert predictions_digest(trials, fresh=False) == predictions_digest(trials, fresh=True)


class TestSuites:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_both_suites_pass(self, seed):
        bayes = verify.bayesian_coverage(trials=40, seed=seed)
        freq = verify.frequentist_coverage(trials=100, seed=seed)
        assert bayes.trials == 40 and bayes.passed
        assert freq.trials == 100 and freq.passed

    @pytest.mark.parametrize("grid_size", [50, 200, 500])
    def test_bayesian_beta_b_counts_the_grid(self, grid_size, monkeypatch):
        factors = []
        beta_bayes = bounds.beta_bayes

        def recording(cardinality, delta):
            factors.append(beta_bayes(cardinality, delta))
            return factors[-1]

        monkeypatch.setattr(bounds, "beta_bayes", recording)
        monkeypatch.setattr(verify, "GRID_SIZE", grid_size)
        monkeypatch.setattr(verify, "BAYESIAN_OBSERVATIONS_PER_TASK", 5)
        verify.bayesian_coverage(trials=2, delta=0.05)
        assert factors == [beta_bayes(grid_size, 0.05)] * 2

    @pytest.mark.parametrize("suite", [verify.bayesian_coverage, verify.frequentist_coverage])
    def test_negative_trials_are_refused(self, suite):
        with pytest.raises(ValueError, match="trials"):
            suite(trials=-1)

    @pytest.mark.parametrize("suite", [verify.bayesian_coverage, verify.frequentist_coverage])
    def test_band_is_checked_on_the_loop_grid(self, monkeypatch, suite):
        trials = recorded_trials(monkeypatch)
        suite(trials=2)
        assert len(trials) == 2
        for _, grid in trials:
            assert np.array_equal(grid, make_grid(1, verify.GRID_SIZE).points)
            assert gp._frozen(grid)
