import math
import time

import numpy as np
import pytest
from scipy.stats import beta

from samsbo import hyperposterior
from samsbo.gp import MultiTaskDataset, fit, log_marginal_likelihood
from samsbo.hyperposterior import (
    CELL_EDGES,
    CELL_MIDPOINTS,
    QUADRATURE_CELLS,
    R_MAX,
    ConfidenceSet,
    EmpiricalHyperPosterior,
    McmcDiagnostics,
    _log_cell_masses,
    angles_to_correlation,
    confidence_set,
    sample_hyperposterior,
    sample_prior_offdiagonal,
    truncated_prior_mass,
)
from samsbo.kernels import CorrelationMatrix, KernelParams, se_kernel_matrix

from oracles import empty_dataset, posterior_grid_two_task, stage_factor


PARAMS = KernelParams(1.0, [0.2], noise_variance=0.01)
SIGMA_3 = CorrelationMatrix(np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.5], [0.3, 0.5, 1.0]]))


def synthetic(sigma, n_per_task, rng, params=PARAMS):
    """Observations of a GP draw with correlation ``sigma``, stacked task by task."""
    u = sigma.size
    inputs = np.vstack([rng.random((n_per_task, 1)) for _ in range(u)])
    tasks = np.repeat(np.arange(1, u + 1), n_per_task)
    zi = tasks - 1
    cov = sigma.matrix[np.ix_(zi, zi)] * se_kernel_matrix(inputs, inputs, params)
    chol = np.linalg.cholesky(cov + 1e-10 * np.eye(u * n_per_task))
    f = chol @ rng.standard_normal(u * n_per_task)
    y = f + np.sqrt(params.noise_variance) * rng.standard_normal(u * n_per_task)
    return MultiTaskDataset(inputs, tasks, y)


def synthetic_two_task(r_true, n_per_task, rng, params=PARAMS):
    return synthetic(CorrelationMatrix.two_task(r_true), n_per_task, rng, params)


def task_one_only(n, rng):
    return MultiTaskDataset(rng.random((n, 1)), np.ones(n, int), rng.standard_normal(n))


def normalized_weights(post):
    """The cells' normalized masses: a cell's log density is its log mass."""
    w = np.exp(post.log_densities - np.max(post.log_densities))
    return w / w.sum()


def offdiagonals(matrix):
    return matrix[np.triu_indices(matrix.shape[0], 1)]


class TestSampleHyperposterior:
    def test_prior_recovery_uniform(self):
        # single-task data leaves the likelihood flat in r; eta = 1 is uniform
        dataset = task_one_only(6, np.random.default_rng(1))
        post = sample_hyperposterior(dataset, 2, 1.0, PARAMS,
                                     factor=stage_factor(dataset, 2, PARAMS))
        cdf = np.cumsum(normalized_weights(post))
        assert np.max(np.abs(cdf - CELL_EDGES[1:] / R_MAX)) < 1e-12

    def test_posterior_mean_matches_grid_oracle(self):
        rng = np.random.default_rng(2)
        dataset = synthetic_two_task(0.9, 30, rng)
        post = sample_hyperposterior(dataset, 2, 0.1, PARAMS,
                                     factor=stage_factor(dataset, 2, PARAMS))
        mean = float(CELL_MIDPOINTS @ normalized_weights(post))
        nodes, weights = posterior_grid_two_task(dataset, PARAMS, eta=0.1, nodes=2000)
        assert abs(mean - float(nodes @ weights)) < 1e-3

    def test_chain_reproducibility_across_seeds(self, monkeypatch):
        monkeypatch.setattr(hyperposterior, "SAMPLES_PER_CHAIN", 300)
        dataset = synthetic(SIGMA_3, 10, np.random.default_rng(3))
        means = []
        for seed in (5, 6):
            post = sample_hyperposterior(dataset, 3, 0.5, PARAMS, seed=seed, factor=None)
            means.append(np.mean([offdiagonals(s.matrix) for s in post.samples], axis=0))
        assert np.max(np.abs(means[0] - means[1])) < 0.05

    def test_fixed_seed_bit_identical(self, monkeypatch):
        monkeypatch.setattr(hyperposterior, "SAMPLES_PER_CHAIN", 25)
        dataset = synthetic(SIGMA_3, 4, np.random.default_rng(4))
        a = sample_hyperposterior(dataset, 3, 0.1, PARAMS, seed=42, factor=None)
        b = sample_hyperposterior(dataset, 3, 0.1, PARAMS, seed=42, factor=None)
        assert all(x.key() == y.key() for x, y in zip(a.samples, b.samples))
        assert np.array_equal(a.log_densities, b.log_densities)

    def test_samples_respect_support(self, monkeypatch):
        monkeypatch.setattr(hyperposterior, "SAMPLES_PER_CHAIN", 50)
        eta = 0.1
        dataset = synthetic(SIGMA_3, 4, np.random.default_rng(5))
        post = sample_hyperposterior(dataset, 3, eta, PARAMS, seed=7, factor=None)
        for s in post.samples:
            assert np.min(s.matrix) >= 0.0
            assert np.min(np.linalg.eigvalsh(s.matrix)) > 0.0
        assert 0.0 <= post.diagnostics.acceptance_rate <= 1.0
        assert post.edges is None
        # the walk's states weigh equally, whatever their densities
        assert len(confidence_set(post, 0.3)) == math.ceil(0.7 * len(post.samples))
        # repeated states share one matrix; each records likelihood plus LKJ log prior
        distinct = {}
        for sample, logd in zip(post.samples, post.log_densities):
            distinct.setdefault(sample.key(), (sample, logd))
        assert len(distinct) < len(post.samples)
        assert len({id(s) for s in post.samples}) == len(distinct)
        for sample, logd in distinct.values():
            exact = (log_marginal_likelihood(fit(dataset, sample, PARAMS))
                     + (eta - 1.0) * np.linalg.slogdet(sample.matrix)[1])
            assert logd == pytest.approx(exact, rel=1e-8)

    def test_three_task_support(self, monkeypatch):
        monkeypatch.setattr(hyperposterior, "SAMPLES_PER_CHAIN", 30)
        rng = np.random.default_rng(6)
        inputs = rng.random((12, 1))
        tasks = np.tile([1, 2, 3], 4)
        dataset = MultiTaskDataset(inputs, tasks, rng.standard_normal(12))
        post = sample_hyperposterior(dataset, 3, 0.5, PARAMS, seed=8, factor=None)
        for s in post.samples:
            assert s.size == 3
            assert np.min(s.matrix) >= 0.0
            assert np.min(np.linalg.eigvalsh(s.matrix)) > 0.0
            assert np.allclose(np.diag(s.matrix), 1.0, atol=1e-9)

    def test_requires_two_tasks(self):
        with pytest.raises(ValueError):
            sample_hyperposterior(empty_dataset(1), 1, 0.1, PARAMS, factor=None)

    @pytest.mark.parametrize("n_tasks", [2, 3])
    def test_requires_positive_eta(self, n_tasks):
        dataset = empty_dataset(1)
        for eta in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="eta must be positive"):
                sample_hyperposterior(dataset, n_tasks, eta, PARAMS,
                                      factor=stage_factor(dataset, n_tasks, PARAMS))

    def test_prior_draw_requires_positive_finite_eta(self):
        # rng.beta(inf, inf) is NaN, which the rejection loop would never accept
        rng = np.random.default_rng(0)
        for eta in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="eta must be positive"):
                sample_prior_offdiagonal(eta, rng)

    def test_prior_draw_refuses_an_eta_without_mass(self):
        # mass on [0, R_MAX]: 7.3e-6 at eta = 1e-6 and 7.3e-10 at 1e-10, which the
        # rejection loop would need about 1.4e9 proposals per draw to find
        rng = np.random.default_rng(0)
        started = time.perf_counter()
        with pytest.raises(ValueError, match="eta = 1e-10"):
            sample_prior_offdiagonal(1e-10, rng)
        assert time.perf_counter() - started < 1.0
        assert 0.0 <= sample_prior_offdiagonal(1e-6, rng) <= R_MAX


class TestTwoTaskQuadrature:
    def test_output_does_not_depend_on_the_seed(self):
        dataset = synthetic_two_task(0.7, 25, np.random.default_rng(9))
        a, b = (sample_hyperposterior(dataset, 2, 0.1, PARAMS, seed=seed,
                                      factor=stage_factor(dataset, 2, PARAMS))
                for seed in (0, 1))
        assert a.samples is CELL_MIDPOINTS and b.samples is CELL_MIDPOINTS
        assert a.edges is CELL_EDGES and b.edges is CELL_EDGES
        assert np.array_equal(a.log_densities, b.log_densities)
        assert a.diagnostics.acceptance_rate == 1.0

    def test_cells_partition_the_support(self):
        rs = CELL_MIDPOINTS
        assert len(rs) == QUADRATURE_CELLS and len(CELL_EDGES) == QUADRATURE_CELLS + 1
        assert not rs.flags.writeable and not CELL_EDGES.flags.writeable
        assert CELL_EDGES[0] == 0.0 and CELL_EDGES[-1] == R_MAX
        assert np.all((CELL_EDGES[:-1] < rs) & (rs < CELL_EDGES[1:]))

    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0, 3.0])
    def test_cell_masses_sum_to_the_prior_mass_of_the_support(self, eta):
        masses = np.exp(_log_cell_masses(eta))
        # (r + 1) / 2 ~ Beta(eta, eta); the CDF near 1 carries ~1e-12 rounding at eta = 0.1
        support = beta.cdf(0.5 * (R_MAX + 1.0), eta, eta) - beta.cdf(0.5, eta, eta)
        assert masses.sum() == pytest.approx(support, rel=1e-10)
        if eta == 1.0:
            assert np.allclose(masses, masses[0], rtol=1e-10)

    def test_prior_constants_are_computed_once_per_eta(self):
        masses = _log_cell_masses(0.3)
        assert _log_cell_masses(0.3) is masses and not masses.flags.writeable
        assert np.array_equal(masses, _log_cell_masses.__wrapped__(0.3))
        assert truncated_prior_mass(0.3) == truncated_prior_mass.__wrapped__(0.3)

    def test_prior_set_at_small_eta_spans_the_exact_hpd_interval(self):
        # on task-1-only data the set is the prior's 85 % HPD set, [0.576, R_MAX)
        dataset = task_one_only(17, np.random.default_rng(10))
        post = sample_hyperposterior(dataset, 2, 0.1, PARAMS,
                                     factor=stage_factor(dataset, 2, PARAMS))
        cs = confidence_set(post, 0.15)
        rs = np.sort([m.matrix[0, 1] for m in cs.members])
        width = CELL_EDGES[1]
        # one run of cells plus its two outer edges
        assert abs(rs[0] - 0.576) <= width
        assert rs[-1] == R_MAX
        assert np.allclose(np.diff(rs[1:-1]), width)
        assert np.allclose([rs[1] - rs[0], rs[-1] - rs[-2]], 0.5 * width)


class TestAnglesToCorrelation:
    def test_right_angles_give_identity(self):
        m = angles_to_correlation(np.full(3, np.pi / 2.0), 3)
        assert np.allclose(m, np.eye(3), atol=1e-12)

    def test_unit_diagonal_and_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            angles = rng.uniform(0.1, np.pi - 0.1, size=6)
            m = angles_to_correlation(angles, 4)
            assert np.allclose(np.diag(m), 1.0, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(m)) > 0.0


class TestConfidenceSet:
    @staticmethod
    def _posterior(monkeypatch, n, seed=0):
        """A three-task hyper-posterior of ``n`` samples, ``n`` a multiple of the chains."""
        monkeypatch.setattr(hyperposterior, "SAMPLES_PER_CHAIN", n // hyperposterior.CHAINS)
        dataset = synthetic(SIGMA_3, 4, np.random.default_rng(seed))
        return sample_hyperposterior(dataset, 3, 0.1, PARAMS, seed=seed, factor=None)

    def test_rho_near_zero_keeps_all(self, monkeypatch):
        post = self._posterior(monkeypatch, 50)
        cs = confidence_set(post, 1e-9)
        assert len(cs) == 50

    def test_ceiling_count(self, monkeypatch):
        post = self._posterior(monkeypatch, 100, seed=1)
        cs = confidence_set(post, 0.15)
        assert len(cs) == 85

    def test_hpd_contiguous_on_unimodal_posterior(self):
        rng = np.random.default_rng(2)
        dataset = synthetic_two_task(0.8, 15, rng)
        post = sample_hyperposterior(dataset, 2, 0.1, PARAMS,
                                     factor=stage_factor(dataset, 2, PARAMS))
        cs = confidence_set(post, 0.2)
        kept = np.array([m.matrix[0, 1] for m in cs.members])
        excluded = [r for r in post.samples if r not in kept]
        lo, hi = kept.min(), kept.max()
        assert all(r < lo or r > hi for r in excluded)
        # the retained range contains the grid-oracle mode
        nodes, weights = posterior_grid_two_task(dataset, PARAMS, 0.1, nodes=1000)
        mode = nodes[np.argmax(weights)]
        assert lo <= mode <= hi

    def test_each_run_of_kept_cells_adds_its_outer_edges(self):
        # cells 0, 1 and 3 of five hold the weight: runs [0, 1] and [3, 3]
        edges = 0.1 * np.arange(6)
        cells = 0.1 * np.arange(5) + 0.05
        logw = np.log([0.3, 0.4, 1e-6, 0.3, 1e-6])
        diag = McmcDiagnostics(1.0)
        post = EmpiricalHyperPosterior(cells, logw, diag, edges)
        cs = confidence_set(post, 0.05)
        # kept cells densest first, then each run's two outer edges in the order of r
        rs = [cells[1], cells[0], cells[3], edges[0], edges[2], edges[3], edges[4]]
        assert np.array_equal(cs.offdiagonals, rs)
        assert cs.members == tuple(CorrelationMatrix.two_task(r) for r in rs)
        assert np.allclose(cs.offdiagonals, [0.15, 0.05, 0.35, 0.0, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError, match="edges"):
            EmpiricalHyperPosterior(cells, logw, diag, edges[:-1])

    def test_a_set_of_r_builds_only_the_members_asked_for(self):
        """offdiagonals are the members' off-diagonals; equal r are one matrix, and
        sigma-prime is the member the set later builds."""
        dataset = synthetic_two_task(0.6, 12, np.random.default_rng(12))
        post = sample_hyperposterior(dataset, 2, 0.1, PARAMS,
                                     factor=stage_factor(dataset, 2, PARAMS))
        cs = confidence_set(post, 0.15)
        twin = confidence_set(post, 0.15)
        sp = cs.member(3)
        assert len(cs) == len(cs.offdiagonals) and cs.size == 2
        assert not cs.offdiagonals.flags.writeable
        members = cs.members
        assert cs.members is members and len(members) == len(cs)
        assert all(m.size == 2 for m in members)
        assert np.array_equal(cs.offdiagonals, [m.matrix[0, 1] for m in members])
        assert members[3] is sp and all(cs.member(i) is m for i, m in enumerate(members))
        assert all(a is b for a, b in zip(twin.members, members))
        for bad in ([], [0.2, -0.1], [0.2, 1.0], [np.nan]):
            with pytest.raises(ValueError):
                ConfidenceSet.of_offdiagonals(np.array(bad))

    @pytest.mark.parametrize("rho", [0.05, 0.15, 0.5])
    def test_kept_weight_is_the_smallest_reaching_one_minus_rho(self, rho):
        dataset = synthetic_two_task(0.5, 10, np.random.default_rng(11))
        post = sample_hyperposterior(dataset, 2, 0.1, PARAMS,
                                     factor=stage_factor(dataset, 2, PARAMS))
        weight = dict(zip(post.samples.tolist(), normalized_weights(post)))
        kept = [weight[r] for r in confidence_set(post, rho).offdiagonals.tolist()
                if r in weight]
        assert sum(kept) >= 1.0 - rho
        assert sum(kept[:-1]) < 1.0 - rho
        assert kept == sorted(kept, reverse=True)

    @pytest.mark.parametrize(("rho", "cells_kept"), [(0.9, 1), (0.5, 2), (0.15, 3), (0.04, 5)])
    def test_the_route_gives_the_weights(self, rho, cells_kept):
        """m walk states weigh equally, so they keep the ceil((1 - rho) m) densest whatever
        their densities; cells weigh their masses, so they keep the fewest densest cells
        whose mass reaches 1 - rho, then their runs' edges."""
        masses = np.array([0.05, 0.4, 0.02, 0.3, 0.2, 0.03])    # densest first: 1, 3, 4, 0, 5, 2
        order = [1, 3, 4, 0, 5, 2]
        states = tuple(CorrelationMatrix.two_task(0.1 * i) for i in range(6))
        walk = confidence_set(EmpiricalHyperPosterior(states, np.log(masses),
                                                      McmcDiagnostics(0.5)), rho)
        assert walk.members == tuple(states[i] for i in order[:math.ceil((1.0 - rho) * 6)])
        cells, edges = 0.1 * np.arange(6) + 0.05, 0.1 * np.arange(7)
        kept = confidence_set(EmpiricalHyperPosterior(cells, np.log(masses), McmcDiagnostics(1.0),
                                                      edges), rho).offdiagonals
        assert np.array_equal(kept[:cells_kept], cells[order[:cells_kept]])
        assert set(kept[cells_kept:].tolist()) <= set(edges.tolist())

    def test_weights_that_do_not_normalize_raise(self):
        # a NaN weight used to keep the first cell and its two edges whatever the data
        cells = 0.1 * np.arange(3) + 0.05
        edges = 0.1 * np.arange(4)
        for logw in ([np.nan] * 3, [0.0, np.nan, 0.0], [0.0, np.inf, 0.0], [-np.inf] * 3):
            logw = np.array(logw)
            post = EmpiricalHyperPosterior(cells, logw, McmcDiagnostics(1.0), edges)
            with pytest.raises(ValueError, match="log weights"):
                confidence_set(post, 0.15)

    def test_invalid_rho(self, monkeypatch):
        post = self._posterior(monkeypatch, 20, seed=3)
        with pytest.raises(ValueError):
            confidence_set(post, 0.0)


@pytest.mark.slow
class TestCoverageCalibration:
    def test_true_r_inside_range(self):
        """Over prior-drawn problems the set's r-range covers the truth.

        Uses eta = 0.5: for very small eta the prior has an integrable
        singularity at r = 1 with a double-digit percentage of its mass within
        1e-6 of the boundary, where no finite sample range can resolve it.
        The exact-quadrature HPD oracle shows the same effect, so this is a
        resolution limit of range-based coverage, not an inference defect.
        """
        eta = 0.5
        trials = 200
        rho = 0.15
        hits = 0
        master = np.random.SeedSequence(99).spawn(trials)
        for seq in master:
            rng = np.random.default_rng(seq)
            r_true = sample_prior_offdiagonal(eta, rng)
            dataset = synthetic_two_task(r_true, 12, rng)
            post = sample_hyperposterior(dataset, 2, eta, PARAMS,
                                         factor=stage_factor(dataset, 2, PARAMS))
            cs = confidence_set(post, rho)
            rs = [m.matrix[0, 1] for m in cs.members]
            hits += min(rs) <= r_true <= max(rs)
        assert hits / trials >= (1.0 - rho) - 0.07
