import functools
import hashlib

import numpy as np
import pytest

from samsbo import bounds, gp, verify
from samsbo.config import kernel_params
from samsbo.hyperposterior import R_MAX
from samsbo.kernels import CorrelationMatrix, KernelParams, se_kernel_matrix
from samsbo.safeopt import make_grid

from oracles import frequentist_trials_reference


def recorded_trials(monkeypatch) -> list:
    """Each trial's posterior and grid, recorded as ``_covers`` receives them."""
    trials = []
    covers = verify._covers

    def recording(posterior, grid, *args, **kwargs):
        trials.append((posterior, grid))
        return covers(posterior, grid, *args, **kwargs)

    monkeypatch.setattr(verify, "_covers", recording)
    return trials


def recorded_blocks(monkeypatch) -> list:
    """Each frequentist block's smoothers and observations, as ``_block_covered`` receives them."""
    blocks = []
    block_covered = verify._block_covered

    def recording(smoothers, f_grid, bands, observations):
        blocks.append((smoothers, observations.copy()))
        return block_covered(smoothers, f_grid, bands, observations)

    monkeypatch.setattr(verify, "_block_covered", recording)
    return blocks


def recorded_entries(monkeypatch) -> list:
    """Every grid cache entry that ``gp.Posterior._entries`` returns."""
    entries = []
    lookup = gp.Posterior._entries

    def recording(self, points):
        found = lookup(self, points)
        entries.extend(found)
        return found

    monkeypatch.setattr(gp.Posterior, "_entries", recording)
    return entries


def recorded_flags(monkeypatch) -> list:
    """Every frequentist trial's covered flag, in trial order, as ``_block_covered`` returns them."""
    flags = []
    block_covered = verify._block_covered

    def recording(*args):
        covered = block_covered(*args)
        flags.extend(bool(flag) for flag in covered)
        return covered

    monkeypatch.setattr(verify, "_block_covered", recording)
    return flags


SMALL_BETA = 4.0    # a frequentist band of 2 std, which about half the trials miss


def predictions_digest(trials) -> str:
    """SHA-256 over every trial's means and variances of both tasks on its grid."""
    digest = hashlib.sha256()
    for posterior, grid in trials:
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
            digests.append(predictions_digest(trials))
            monkeypatch.undo()
        assert reports[0] == reports[1]
        assert digests[0] == digests[1]

    def test_cached_grid_and_factor_are_read_only_and_exact(self):
        grid, chol = verify._draw_factor()
        again = verify._draw_factor()
        assert again[0] is grid and again[1] is chol
        size = verify.GRID_SIZE
        assert np.array_equal(grid, make_grid(1, size).points)
        params = kernel_params(1)
        kernel = se_kernel_matrix(grid, grid, params)
        jitter = gp.JITTER_START * params.signal_variance
        assert np.array_equal(chol, np.linalg.cholesky(kernel + jitter * np.eye(size)))
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
    def test_trials_match_fresh_fits(self, monkeypatch, seed):
        # products over a block round differently from a fit and a solve per trial
        blocks, flags = recorded_blocks(monkeypatch), recorded_flags(monkeypatch)
        report = verify.frequentist_coverage(trials=130, seed=seed)
        reference = frequentist_trials_reference(130, verify.DEFAULTS.delta, seed)
        for z in (1, 2):
            means = np.hstack([smoothers[z] @ observations.T
                               for smoothers, observations in blocks]).T
            assert np.max(np.abs(means - [trial[1][z] for trial in reference])) <= 1e-12
        assert flags == [trial[2] for trial in reference]
        assert report.successes == sum(flags)

    def test_missed_trials_are_those_of_fresh_fits(self, monkeypatch):
        # the default band covers every trial, so a small beta makes the comparison bite
        monkeypatch.setattr(bounds, "beta_freq", lambda norm, n, delta: SMALL_BETA)
        flags = recorded_flags(monkeypatch)
        report = verify.frequentist_coverage(trials=130)
        expected = [trial[2] for trial in frequentist_trials_reference(130, verify.DEFAULTS.delta,
                                                                       verify.DEFAULTS.seed)]
        assert flags == expected
        assert 0 < report.successes < 130

    @pytest.mark.parametrize("trials", [0, 1, 63, 64, 65, 130])
    def test_successes_across_block_edges(self, monkeypatch, trials):
        monkeypatch.setattr(bounds, "beta_freq", lambda norm, n, delta: SMALL_BETA)
        report = verify.frequentist_coverage(trials=trials, seed=2)
        reference = frequentist_trials_reference(trials, verify.DEFAULTS.delta, 2)
        assert report.trials == trials
        assert report.successes == sum(trial[2] for trial in reference)

    def test_block_draws_are_the_per_trial_draws(self, monkeypatch):
        blocks = recorded_blocks(monkeypatch)
        verify.frequentist_coverage(trials=130, seed=3)
        size = verify.FREQUENTIST_BLOCK
        assert [block[1].shape for block in blocks] == [(min(size, 130 - start), 30)
                                                        for start in range(0, 130, size)]
        reference = frequentist_trials_reference(130, verify.DEFAULTS.delta, 3)
        assert np.array_equal(np.vstack([block[1] for block in blocks]),
                              [trial[0] for trial in reference])
        # the property the suite relies on, on a generator of its own
        block, single = np.random.default_rng(7), np.random.default_rng(7)
        assert np.array_equal(block.standard_normal((65, 30)),
                              [single.standard_normal(30) for _ in range(65)])
        assert block.random() == single.random()


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
        # a cache of its own, so the process's factor of the default grid stays
        monkeypatch.setattr(verify, "_draw_factor", functools.cache(verify._draw_factor.__wrapped__))
        monkeypatch.setattr(verify, "BAYESIAN_OBSERVATIONS_PER_TASK", 5)
        verify.bayesian_coverage(trials=2, delta=0.05)
        assert factors == [beta_bayes(grid_size, 0.05)] * 2

    @pytest.mark.parametrize("suite", [verify.bayesian_coverage, verify.frequentist_coverage])
    def test_negative_trials_are_refused(self, suite):
        with pytest.raises(ValueError, match="trials"):
            suite(trials=-1)

    @pytest.mark.parametrize("suite", [verify.bayesian_coverage, verify.frequentist_coverage])
    def test_band_is_checked_on_the_loop_grid(self, monkeypatch, suite):
        # a Bayesian trial checks its own posterior; two frequentist trials share one block,
        # whose smoothers and band come from the fit's grid entries
        bayesian = suite is verify.bayesian_coverage
        if bayesian:
            checks = recorded_trials(monkeypatch)
        else:
            entries, checks = recorded_entries(monkeypatch), recorded_blocks(monkeypatch)
        suite(trials=2)
        assert len(checks) == (2 if bayesian else 1)
        if bayesian:
            grids = [grid for _, grid in checks]
        else:
            grids = [entry.points for entry in entries]
            assert grids and set(checks[0][0]) == {1, 2}
        for grid in grids:
            assert np.array_equal(grid, make_grid(1, verify.GRID_SIZE).points)
            assert gp._frozen(grid)
