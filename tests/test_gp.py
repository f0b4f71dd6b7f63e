import logging
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import solve_triangular

from samsbo import gp, kernels
from samsbo.gp import MultiTaskDataset, fit, log_marginal_likelihood
from samsbo.kernels import CorrelationMatrix, KernelParams, gram, se_kernel_matrix
from samsbo.safeopt import _greedy_variance_picks

from oracles import empty_dataset, mean_values, predict
from test_kernels import random_correlation


def make_params(d=1, noise=0.1, ell=0.5):
    return KernelParams(1.0, np.full(d, ell), noise)


def dense_posterior(dataset, sigma, params, x, z):
    """Direct dense-inverse reference for the posterior equations."""
    K = gram(dataset, sigma, params)
    A = K + params.noise_variance * np.eye(dataset.n)
    zi = dataset.tasks - 1
    k_star = sigma.matrix[z - 1, zi] * se_kernel_matrix(
        np.atleast_2d(x), dataset.inputs, params)[0]
    inv = np.linalg.inv(A)
    mean = k_star @ inv @ dataset.observations
    var = sigma.matrix[z - 1, z - 1] * params.signal_variance - k_star @ inv @ k_star
    return mean, var


class TestFit:
    def test_empty_dataset_predicts_prior(self):
        post = fit(empty_dataset(1), CorrelationMatrix.two_task(0.5), make_params())
        mean, var = predict(post, [0.3], 1)
        assert mean == 0.0 and var == pytest.approx(1.0)
        mean, var = predict(post, [0.3], 2)
        assert mean == 0.0 and var == pytest.approx(1.0)

    def test_one_point_closed_form(self):
        ds = MultiTaskDataset(np.array([[0.0]]), [1], [2.0])
        params = KernelParams(1.0, [1.0], noise_variance=1.0)
        post = fit(ds, CorrelationMatrix.identity(1), params)
        mean, var = predict(post, [0.0], 1)
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert var == pytest.approx(0.5, abs=1e-9)

    def test_cholesky_reconstructs_system(self):
        rng = np.random.default_rng(0)
        ds = MultiTaskDataset(rng.random((12, 2)), rng.integers(1, 3, 12), rng.standard_normal(12))
        sigma = CorrelationMatrix.two_task(0.6)
        params = make_params(d=2)
        post = fit(ds, sigma, params)
        system = gram(post.dataset, post.sigma_used, post.params) + params.noise_variance * np.eye(12)
        rebuilt = post.chol @ post.chol.T
        assert np.max(np.abs(rebuilt - system)) <= 1e-8 * np.max(np.abs(system)) + 1e-10


class TestPredict:
    def test_far_query_recovers_prior(self):
        ds = MultiTaskDataset(np.array([[0.0]]), [1], [3.0])
        sigma = CorrelationMatrix.two_task(0.8)
        post = fit(ds, sigma, make_params(ell=0.05))
        mean, var = predict(post, [1.0], 2)
        assert abs(mean) < 1e-6
        assert var == pytest.approx(sigma.matrix[1, 1] * 1.0, abs=1e-6)

    def test_interpolation_with_vanishing_noise(self):
        rng = np.random.default_rng(1)
        inputs = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
        ds = MultiTaskDataset(inputs, np.ones(5, dtype=int), rng.standard_normal(5))
        post = fit(ds, CorrelationMatrix.identity(1), make_params(noise=1e-10))
        for i in range(5):
            mean, _ = predict(post, ds.inputs[i], 1)
            assert mean == pytest.approx(ds.observations[i], abs=1e-4)

    def test_zero_cross_correlation_decouples(self):
        rng = np.random.default_rng(2)
        X1, y1 = rng.random((6, 1)), rng.standard_normal(6)
        X2, y2 = rng.random((7, 1)), rng.standard_normal(7)
        joint = MultiTaskDataset(np.vstack([X1, X2]),
                                 np.concatenate([np.ones(6, int), np.full(7, 2)]),
                                 np.concatenate([y1, y2]))
        params = make_params()
        post_joint = fit(joint, CorrelationMatrix.identity(2), params)
        post_single = fit(MultiTaskDataset(X2, np.ones(7, int), y2),
                          CorrelationMatrix.identity(1), params)
        for x in rng.random((25, 1)):
            mj, vj = predict(post_joint, x, 2)
            ms, vs = predict(post_single, x, 1)
            assert mj == pytest.approx(ms, abs=1e-10)
            assert vj == pytest.approx(vs, abs=1e-10)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = rng.integers(1, 9)
            u = rng.integers(1, 3)
            sigma = random_correlation(u, rng) if u > 1 else CorrelationMatrix.identity(1)
            ds = MultiTaskDataset(rng.random((n, 2)), rng.integers(1, u + 1, n),
                                  rng.standard_normal(n))
            params = make_params(d=2)
            post = fit(ds, sigma, params)
            for _ in range(5):
                x = rng.random(2)
                z = int(rng.integers(1, u + 1))
                mean, var = predict(post, x, z)
                mean_ref, var_ref = dense_posterior(ds, sigma, params, x, z)
                assert mean == pytest.approx(mean_ref, abs=1e-8)
                assert var == pytest.approx(var_ref, abs=1e-8)

    def test_variance_shrinks_with_more_data(self):
        rng = np.random.default_rng(4)
        params = make_params()
        sigma = CorrelationMatrix.two_task(0.5)
        ds = MultiTaskDataset(rng.random((8, 1)), rng.integers(1, 3, 8), rng.standard_normal(8))
        post_small = fit(ds, sigma, params)
        grown = ds.extended([[0.4]], [1], [0.2])
        post_large = fit(grown, sigma, params)
        queries = rng.random((100, 1))
        for z in (1, 2):
            _, v_small = post_small.predict_batch(queries, z)
            _, v_large = post_large.predict_batch(queries, z)
            assert np.all(v_large <= v_small + 1e-9)

    def test_training_values_reproduce_smoother(self):
        rng = np.random.default_rng(5)
        ds = MultiTaskDataset(rng.random((10, 1)), rng.integers(1, 3, 10),
                              rng.standard_normal(10))
        sigma = CorrelationMatrix.two_task(0.3)
        params = make_params()
        post = fit(ds, sigma, params)
        K = gram(ds, sigma, params)
        expected = K @ np.linalg.solve(K + params.noise_variance * np.eye(10),
                                       ds.observations)
        got = np.array([predict(post, ds.inputs[i], int(ds.tasks[i]))[0] for i in range(10)])
        assert np.allclose(got, expected, atol=1e-8)


class TestLogMarginalLikelihood:
    def test_univariate_normal_density(self):
        ds = MultiTaskDataset(np.array([[0.0]]), [1], [0.0])
        params = KernelParams(0.5, [1.0], noise_variance=0.5)
        value = log_marginal_likelihood(fit(ds, CorrelationMatrix.identity(1), params))
        assert value == pytest.approx(-0.5 * np.log(2.0 * np.pi), abs=1e-9)

    def test_independent_tasks_add(self):
        rng = np.random.default_rng(6)
        X1, y1 = rng.random((5, 1)), rng.standard_normal(5)
        X2, y2 = rng.random((4, 1)), rng.standard_normal(4)
        params = make_params()
        joint = MultiTaskDataset(np.vstack([X1, X2]),
                                 np.concatenate([np.ones(5, int), np.full(4, 2)]),
                                 np.concatenate([y1, y2]))
        single1 = MultiTaskDataset(X1, np.ones(5, int), y1)
        single2 = MultiTaskDataset(X2, np.ones(4, int), y2)
        lj = log_marginal_likelihood(fit(joint, CorrelationMatrix.identity(2), params))
        l1 = log_marginal_likelihood(fit(single1, CorrelationMatrix.identity(1), params))
        l2 = log_marginal_likelihood(fit(single2, CorrelationMatrix.identity(1), params))
        assert lj == pytest.approx(l1 + l2, abs=1e-8)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        ds = MultiTaskDataset(rng.random((8, 1)), rng.integers(1, 3, 8), rng.standard_normal(8))
        sigma = CorrelationMatrix.two_task(0.4)
        params = make_params()
        perm = rng.permutation(8)
        shuffled = MultiTaskDataset(ds.inputs[perm], ds.tasks[perm], ds.observations[perm])
        assert log_marginal_likelihood(fit(ds, sigma, params)) == pytest.approx(
            log_marginal_likelihood(fit(shuffled, sigma, params)), abs=1e-9)

    def test_two_task_dense_gaussian_density(self):
        # -1/2 y' K^-1 y - 1/2 log det K - n/2 log 2 pi with K the fit's regularized system
        rng = np.random.default_rng(8)
        n = 14
        ds = MultiTaskDataset(rng.random((n, 2)), rng.integers(1, 3, n),
                              rng.standard_normal(n))
        sigma = CorrelationMatrix.two_task(0.7)
        params = KernelParams(1.3, [0.4, 0.6], noise_variance=0.05)
        jitter = fit(ds, sigma, params).jitter
        K = (gram(ds, sigma, params)
             + (params.noise_variance + jitter * params.signal_variance) * np.eye(n))
        y = ds.observations
        sign, logdet = np.linalg.slogdet(K)
        assert sign > 0
        reference = -0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)
        assert log_marginal_likelihood(fit(ds, sigma, params)) == pytest.approx(reference,
                                                                         abs=1e-10)


class TestMeanValues:
    def test_empty_points(self):
        ds = MultiTaskDataset(np.array([[0.0]]), [1], [1.0])
        post = fit(ds, CorrelationMatrix.identity(1), make_params())
        assert mean_values(post, np.zeros((0, 1))).size == 0

    def test_matches_predict(self):
        ds = MultiTaskDataset(np.array([[0.2]]), [1], [1.5])
        post = fit(ds, CorrelationMatrix.identity(1), make_params())
        points = np.array([[0.1], [0.2], [0.9]])
        values = mean_values(post, points, 1)
        for p, v in zip(points, values):
            assert v == pytest.approx(predict(post, p, 1)[0])

    def test_one_point_grid_closed_form(self):
        params = KernelParams(1.0, [1.0], noise_variance=1.0)
        ds = MultiTaskDataset(np.array([[0.0]]), [1], [2.0])
        post = fit(ds, CorrelationMatrix.identity(1), params)
        grid = np.array([[0.0], [1.0], [2.0]])
        expected = np.array([np.exp(-0.5 * g[0] ** 2) * 2.0 / 2.0 for g in grid])
        assert np.allclose(mean_values(post, grid, 1), expected, atol=1e-9)


def whitened(posterior, points, z):
    """The cached whitened cross-Gram V_z of ``posterior`` at ``points`` and its column
    sums of squares."""
    entry = posterior._entries(points)[z - 1]
    return entry.whitened, entry.sumsq


def frozen(points):
    points = np.array(points, dtype=float)
    points.setflags(write=False)
    return points


def grown_and_fresh(previous, dataset, sigma, params, base_gram=None):
    return (fit(dataset, sigma, params, base_gram=base_gram, previous=previous),
            fit(dataset, sigma, params, base_gram=base_gram))


def assert_close_to(grown, fresh, points, tol=1e-10):
    """Factor, whitened observations and predictions of both tasks agree within ``tol``."""
    assert grown.jitter == fresh.jitter
    assert np.max(np.abs(grown.chol - fresh.chol)) <= tol
    assert np.max(np.abs(grown.whitened_obs - fresh.whitened_obs)) <= tol
    for z in range(1, fresh.sigma_used.size + 1):
        for got, want in zip(grown.predict_batch(points, z), fresh.predict_batch(points, z)):
            assert np.max(np.abs(got - want)) <= tol


def assert_bitwise(grown, fresh, points):
    assert grown.jitter == fresh.jitter
    assert np.array_equal(grown.chol, fresh.chol)
    assert np.array_equal(grown.whitened_obs, fresh.whitened_obs)
    for z in range(1, fresh.sigma_used.size + 1):
        for got, want in zip(grown.predict_batch(points, z), fresh.predict_batch(points, z)):
            assert np.array_equal(got, want)


class TestExtension:
    SIGMA = CorrelationMatrix.two_task(0.6)
    PARAMS = KernelParams(1.0, [0.3, 0.4], 0.01)

    def data(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return MultiTaskDataset(rng.random((n, 2)), rng.integers(1, 3, n),
                                rng.standard_normal(n))

    def prefix(self, dataset, m):
        return MultiTaskDataset(dataset.inputs[:m], dataset.tasks[:m], dataset.observations[:m])

    @pytest.mark.parametrize("new_rows", [1, 5, 0])
    def test_matches_fresh_fit(self, new_rows):
        full = self.data(40 + new_rows)
        points = frozen(np.random.default_rng(1).random((300, 2)))
        previous = fit(self.prefix(full, 40), self.SIGMA, self.PARAMS)
        for z in (1, 2):
            previous.predict_batch(points, z)       # fills the cache the extension grows
        grown, fresh = grown_and_fresh(previous, full, self.SIGMA, self.PARAMS)
        assert_close_to(grown, fresh, points)
        assert_close_to(grown, fresh, np.array(points))     # writable: a fresh fill

    def test_restandardized_observations(self):
        full = self.data(45)
        points = frozen(np.random.default_rng(2).random((300, 2)))
        previous = fit(self.prefix(full, 40), self.SIGMA, self.PARAMS)
        previous.predict_batch(points, 1)
        y = full.observations
        restandardized = MultiTaskDataset(full.inputs, full.tasks, (y - y.mean()) / y.std())
        assert_close_to(*grown_and_fresh(previous, restandardized, self.SIGMA, self.PARAMS),
                        points)

    def test_chain_of_extensions(self):
        full = self.data(60)
        points = frozen(np.random.default_rng(3).random((200, 2)))
        posterior = fit(self.prefix(full, 20), self.SIGMA, self.PARAMS)
        for m in range(21, 61, 3):
            if m % 2:           # some steps predict, some do not
                posterior.predict_batch(points, 1)
            posterior = fit(self.prefix(full, m), self.SIGMA, self.PARAMS, previous=posterior)
        assert posterior.dataset.n == 60
        assert_close_to(posterior, fit(full, self.SIGMA, self.PARAMS), points)

    def test_grid_grows_by_the_new_rows_only(self, monkeypatch):
        full = self.data(45)
        points = frozen(np.random.default_rng(4).random((300, 2)))
        previous = fit(self.prefix(full, 40), self.SIGMA, self.PARAMS)
        first = previous.predict_batch(points, 1)
        grown = fit(full, self.SIGMA, self.PARAMS, previous=previous)
        widths = []
        real = gp.se_kernel_scaled          # the grid fills' kernel, on the cached scaled grid

        def recording(X, Y, params):
            widths.append(np.atleast_2d(Y).shape[0])
            return real(X, Y, params)

        monkeypatch.setattr(gp, "se_kernel_scaled", recording)
        assert all(np.array_equal(a, b) for a, b in zip(previous.predict_batch(points, 1), first))
        assert widths == []                                   # a hit on the unchanged posterior
        means, variances = grown.predict_batch(points, 1)
        assert widths == [5]                                  # only the new rows' kernel block
        again = grown.predict_batch(points, 1)
        assert widths == [5]                                  # second prediction is a hit
        assert np.array_equal(again[0], means) and np.array_equal(again[1], variances)

    def test_siblings_and_a_chain_share_rows(self):
        full = self.data(50)
        rng = np.random.default_rng(8)
        points = frozen(rng.random((200, 2)))
        other = MultiTaskDataset(rng.random((2, 2)), [2, 1], rng.standard_normal(2))
        parent = fit(self.prefix(full, 40), self.SIGMA, self.PARAMS)
        before = {z: [np.array(a) for a in parent.predict_batch(points, z)] for z in (1, 2)}
        rows = {z: np.array(whitened(parent, points, z)[0]) for z in (1, 2)}
        first = fit(self.prefix(full, 43), self.SIGMA, self.PARAMS, previous=parent)
        second = fit(parent.dataset.extended(other.inputs, other.tasks, other.observations),
                     self.SIGMA, self.PARAMS, previous=parent)
        for z in (1, 2):
            first.predict_batch(points, z)          # appends behind the parent's rows
            second.predict_batch(points, z)         # those rows are taken: copies the prefix
        chained = fit(self.prefix(full, 45), self.SIGMA, self.PARAMS, previous=first)
        for posterior in (first, second, chained):
            assert_close_to(posterior, fit(posterior.dataset, self.SIGMA, self.PARAMS), points)
        fresh = fit(parent.dataset, self.SIGMA, self.PARAMS)
        for z in (1, 2):
            assert np.shares_memory(whitened(chained, points, z)[0],
                                    whitened(first, points, z)[0])
            assert not np.shares_memory(whitened(second, points, z)[0],
                                        whitened(first, points, z)[0])
            assert np.array_equal(whitened(parent, points, z)[0], rows[z])
            for got, kept, want in zip(parent.predict_batch(points, z), before[z],
                                       fresh.predict_batch(points, z)):
                assert np.array_equal(got, kept) and np.array_equal(got, want)

    def test_concurrent_extensions_of_one_parent(self):
        """Threads extending siblings and their children at once never mix rows."""
        full = self.data(30)
        rng = np.random.default_rng(10)
        points = frozen(rng.random((100, 2)))
        workers, rounds = 8, 20
        start = threading.Barrier(workers)
        posteriors = []

        def work(children, rows):
            grandchildren = []
            for child, extra in zip(children, rows):
                start.wait(timeout=60)
                child.predict_batch(points, 1)      # appends to or copies the parent's rows
                grown = child.dataset.extended(extra, [1, 2], [0.3, -0.2])
                grandchildren.append(fit(grown, self.SIGMA, self.PARAMS, previous=child))
                grandchildren[-1].predict_batch(points, 1)
            posteriors.extend(grandchildren)

        plan = [([], []) for _ in range(workers)]
        for _ in range(rounds):
            parent = fit(full, self.SIGMA, self.PARAMS)
            parent.predict_batch(points, 1)
            for children, rows in plan:
                k = int(rng.integers(1, 4))
                grown = full.extended(rng.random((k, 2)), rng.integers(1, 3, k),
                                      rng.standard_normal(k))
                children.append(fit(grown, self.SIGMA, self.PARAMS, previous=parent))
                rows.append(rng.random((2, 2)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=job) for job in plan]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(posteriors) == workers * rounds
        for posterior in posteriors + [child for children, _ in plan for child in children]:
            fresh = fit(posterior.dataset, self.SIGMA, self.PARAMS)
            for z in (1, 2):        # task 2 was filled alongside task 1
                for got, ref in zip(posterior.predict_batch(points, z),
                                    fresh.predict_batch(points, z)):
                    assert np.max(np.abs(got - ref)) <= 1e-10

    def test_concurrent_fills_of_one_posterior(self):
        """Threads racing on one posterior's fill, fresh or grown, all read its rows."""
        full = self.data(45)
        points = frozen(np.random.default_rng(11).random((100, 2)))
        parent = fit(self.prefix(full, 40), self.SIGMA, self.PARAMS)
        parent.predict_batch(points, 1)
        fresh = fit(full, self.SIGMA, self.PARAMS)
        want = {z: fresh.predict_batch(points, z) for z in (1, 2)}
        workers, rounds = 8, 200
        targets = [fit(full, self.SIGMA, self.PARAMS, previous=parent if r % 2 else None)
                   for r in range(rounds)]
        start = threading.Barrier(workers)
        results = []

        def work(order):
            for target in targets:
                start.wait(timeout=60)
                for z in order:
                    results.append((z, target.predict_batch(points, z)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=((1, 2) if i % 2 else (2, 1),))
                       for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == workers * rounds * 2
        for z, got in results:
            for a, b in zip(got, want[z]):
                assert np.max(np.abs(a - b)) <= 1e-10

    def test_grown_fit_computes_the_new_columns_once(self, monkeypatch):
        data = self.data(45)
        full = MultiTaskDataset(data.inputs, np.ones(45, int), data.observations)
        sigma = CorrelationMatrix.identity(1)
        previous = fit(self.prefix(full, 41), sigma, self.PARAMS)
        shapes = []
        real = gp.se_kernel_matrix

        def recording(X, Y, params):
            result = real(X, Y, params)
            shapes.append(result.shape)
            return result

        monkeypatch.setattr(gp, "se_kernel_matrix", recording)
        monkeypatch.setattr(kernels, "se_kernel_matrix", recording)
        grown = fit(full, sigma, self.PARAMS, previous=previous)
        assert shapes == [(45, 4)]
        assert np.array_equal(gram(grown.dataset, grown.sigma_used, grown.params),
                              gram(full, sigma, self.PARAMS))

    def test_grown_task_index_out_of_range_raises(self):
        full = self.data(40)
        previous = fit(full, self.SIGMA, self.PARAMS)
        with pytest.raises(ValueError, match="task indices"):
            fit(full.extended([[0.5, 0.5]], [3], [0.0]), self.SIGMA, self.PARAMS,
                previous=previous)

    @pytest.mark.parametrize("change", ["sigma", "params", "inputs", "tasks", "shorter"])
    def test_inapplicable_previous_is_a_fresh_fit(self, change):
        full = self.data(45)
        points = frozen(np.random.default_rng(5).random((100, 2)))
        previous = fit(self.prefix(full, 40), self.SIGMA, self.PARAMS)
        previous.predict_batch(points, 1)
        sigma, params, dataset = self.SIGMA, self.PARAMS, full
        if change == "sigma":
            sigma = CorrelationMatrix.two_task(0.5)
        elif change == "params":
            params = KernelParams(1.0, [0.3, 0.41], 0.01)
        elif change == "inputs":
            inputs = np.array(full.inputs)
            inputs[3, 0] += 1e-12
            dataset = MultiTaskDataset(inputs, full.tasks, full.observations)
        elif change == "tasks":
            tasks = np.array(full.tasks)
            tasks[3] = 3 - tasks[3]
            dataset = MultiTaskDataset(full.inputs, tasks, full.observations)
        else:
            dataset = self.prefix(full, 30)
        assert_bitwise(*grown_and_fresh(previous, dataset, sigma, params), points)

    def test_mutated_writable_points_never_stale(self):
        dataset = self.data(30)
        posterior = fit(dataset, self.SIGMA, self.PARAMS)
        reference = fit(dataset, self.SIGMA, self.PARAMS)
        rng = np.random.default_rng(6)
        points = rng.random((50, 2))
        posterior.predict_batch(points, 1)
        points[:] = rng.random((50, 2))
        assert all(np.array_equal(a, b) for a, b in zip(posterior.predict_batch(points, 1),
                                                        reference.predict_batch(points, 1)))
        # a read-only view of a writable array can still change underneath
        view = points.view()
        view.setflags(write=False)
        posterior.predict_batch(view, 1)
        points[:] = rng.random((50, 2))
        assert all(np.array_equal(a, b) for a, b in zip(posterior.predict_batch(view, 1),
                                                        reference.predict_batch(points, 1)))

    def test_cached_results_are_read_only(self):
        posterior = fit(self.data(30), self.SIGMA, self.PARAMS)
        points = frozen(np.random.default_rng(7).random((50, 2)))
        rows, sumsq = whitened(posterior, points, 2)
        assert not rows.flags.writeable and not sumsq.flags.writeable
        for query in (lambda: posterior.predict_batch(points, 3),
                      lambda: posterior.pick_covariance(points, 3, 1, 0),
                      lambda: posterior.pick_covariance(points, 1, 0, 0)):
            with pytest.raises(ValueError, match="must lie in 1..2"):
                query()


class TestJitter:
    """Jitter escalation forced through a base Gram with a small negative eigenvalue.

    Near-duplicate inputs leave the squared-exponential Gram a direction with
    eigenvalue about zero; lowering one twin's diagonal by 3e-9 (as rounding in
    a kernel routine could) makes the Gram indefinite, and with zero noise the
    factorization needs jitter 1e-8.
    """

    PARAMS = KernelParams(1.0, [0.3, 0.4], 0.0)
    SIGMA = CorrelationMatrix.identity(1)

    def case(self, twin, n=12, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 2))
        X[twin] = X[0] + 1e-9
        base = se_kernel_matrix(X, X, self.PARAMS)
        base[twin, twin] -= 3e-9
        y = np.sin(3.0 * X[:, 0]) + X[:, 1]
        return MultiTaskDataset(X, np.ones(n, int), y), base

    def test_escalation_shifts_the_consumed_system_in_place(self):
        """Two attempts fail; the factor is that of a shifted copy, bit for bit, and the
        system it consumed holds the shift of the last attempt on its diagonal alone."""
        _, base = self.case(twin=1)
        n, scale = base.shape[0], 0.5
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(base + gp.JITTER_START * scale * np.eye(n))
        system = base.copy()
        chol, jitter = gp._chol_with_jitter(system, scale)
        assert jitter == pytest.approx(100.0 * gp.JITTER_START)
        assert np.array_equal(chol, np.linalg.cholesky(base + jitter * scale * np.eye(n)))
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(system[off], base[off])
        assert np.array_equal(system.diagonal(), base.diagonal() + jitter * scale)

    def test_extension_reuses_escalated_jitter(self):
        dataset, base = self.case(twin=1)
        m = 8
        head = MultiTaskDataset(dataset.inputs[:m], dataset.tasks[:m], dataset.observations[:m])
        previous = fit(head, self.SIGMA, self.PARAMS, base_gram=base[:m, :m])
        assert previous.jitter == pytest.approx(1e-8)
        points = frozen(np.random.default_rng(1).random((100, 2)))
        previous.predict_batch(points, 1)
        grown, fresh = grown_and_fresh(previous, dataset, self.SIGMA, self.PARAMS, base)
        assert grown.jitter == previous.jitter == fresh.jitter
        assert np.max(np.abs(grown.chol - fresh.chol)) <= 1e-10
        for got, want in zip(grown.predict_batch(points, 1), fresh.predict_batch(points, 1)):
            assert np.max(np.abs(got - want)) <= 1e-10
        # L^-1 y inherits the factor's conditioning (about 1e4 here)
        assert np.allclose(grown.whitened_obs, fresh.whitened_obs, rtol=1e-6, atol=0.0)

    def test_non_pd_schur_complement_falls_back(self):
        dataset, base = self.case(twin=10)
        m = 8
        head = MultiTaskDataset(dataset.inputs[:m], dataset.tasks[:m], dataset.observations[:m])
        previous = fit(head, self.SIGMA, self.PARAMS, base_gram=base[:m, :m])
        assert previous.jitter == gp.JITTER_START
        system = base + self.PARAMS.noise_variance * np.eye(dataset.n)
        assert gp._extended_factor(previous, dataset, self.SIGMA, self.PARAMS, system) is None
        clean = se_kernel_matrix(dataset.inputs, dataset.inputs, self.PARAMS)
        assert gp._extended_factor(previous, dataset, self.SIGMA, self.PARAMS, clean) is not None
        points = frozen(np.random.default_rng(2).random((100, 2)))
        previous.predict_batch(points, 1)
        grown, fresh = grown_and_fresh(previous, dataset, self.SIGMA, self.PARAMS, base)
        assert grown.jitter == pytest.approx(1e-8)
        assert_bitwise(grown, fresh, points)


    def test_fantasy_downdate_shifts_by_the_escalated_jitter(self):
        # each pick's variances against a grown refit on the fantasized data, which
        # carries the factor's jitter of 1e-8 rather than the starting 1e-10
        dataset, base = self.case(twin=1)
        posterior = fit(dataset, self.SIGMA, self.PARAMS, base_gram=base)
        assert posterior.jitter == pytest.approx(1e-8)
        points = frozen(np.random.default_rng(5).random((200, 2)))
        refit = posterior
        for idx, variances in _greedy_variance_picks(posterior, points, [1] * 4):
            assert np.max(np.abs(variances - refit.predict_batch(points, 1)[1])) <= 1e-10
            refit = fit(refit.dataset.extended([points[idx]], [1], [0.0]), self.SIGMA,
                        self.PARAMS, previous=refit)
            assert refit.jitter == posterior.jitter


def triangular_solve_reference(posterior, points, z):
    """V = L^-1 k_z(data, points) by a triangular solve, and the mean and variance it gives."""
    data = posterior.dataset
    scale = posterior.sigma_used.matrix[z - 1, data.tasks - 1]
    cross = scale[:, None] * se_kernel_matrix(data.inputs, points, posterior.params)
    whitened = solve_triangular(posterior.chol, cross, lower=True)
    prior = posterior.sigma_used.matrix[z - 1, z - 1] * posterior.params.signal_variance
    return (whitened, whitened.T @ posterior.whitened_obs,
            np.maximum(prior - np.sum(whitened * whitened, axis=0), 0.0))


class TestGridFill:
    """Grid fills through the inverted trailing block of the factor."""

    SIGMA = TestExtension.SIGMA
    PARAMS = TestExtension.PARAMS

    def assert_matches_triangular_solve(self, posterior, points, tol=1e-10):
        for z in (1, 2):
            want = triangular_solve_reference(posterior, points, z)
            got = (whitened(posterior, points, z)[0], *posterior.predict_batch(points, z))
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.max(np.abs(a - b)) <= tol

    def test_fresh_and_grown_fills_match_a_triangular_solve(self):
        full = TestExtension().data(60, seed=11)
        points = frozen(np.random.default_rng(12).random((300, 2)))
        previous = fit(TestExtension().prefix(full, 52), self.SIGMA, self.PARAMS)
        self.assert_matches_triangular_solve(previous, points)
        grown = fit(full, self.SIGMA, self.PARAMS, previous=previous)
        assert all(entry.rows == 52 for entry in grown._grid)    # grown, not refilled
        self.assert_matches_triangular_solve(grown, points)
        # a writable point array is a fresh fill of a read-only copy
        self.assert_matches_triangular_solve(grown, np.array(points))

    def test_escalated_jitter_fills_match_a_triangular_solve(self):
        dataset, base = TestJitter().case(twin=1, n=14, seed=3)
        tasks = np.where(np.arange(dataset.n) % 3 == 2, 2, 1)        # the twins share task 1
        dataset = MultiTaskDataset(dataset.inputs, tasks, dataset.observations)
        params = TestJitter.PARAMS
        m = 9
        head = MultiTaskDataset(dataset.inputs[:m], tasks[:m], dataset.observations[:m])
        previous = fit(head, self.SIGMA, params, base_gram=base[:m, :m])
        assert previous.jitter == pytest.approx(1e-8)
        points = frozen(np.random.default_rng(4).random((200, 2)))
        self.assert_matches_triangular_solve(previous, points)
        grown = fit(dataset, self.SIGMA, params, base_gram=base, previous=previous)
        assert grown.jitter == previous.jitter
        assert all(entry.rows == m for entry in grown._grid)
        self.assert_matches_triangular_solve(grown, points)

    def test_both_tasks_share_one_kernel_call_per_fill(self, monkeypatch):
        full = TestExtension().data(45)
        points = frozen(np.random.default_rng(13).random((150, 2)))
        kernels, inversions = [], []
        real_kernel, real_dtrtri = gp.se_kernel_scaled, gp.dtrtri

        def recording_kernel(X, Y, params):
            result = real_kernel(X, Y, params)
            kernels.append(result.shape)
            return result

        def recording_dtrtri(block, **kwargs):
            inversions.append(block.shape)
            return real_dtrtri(block, **kwargs)

        monkeypatch.setattr(gp, "se_kernel_scaled", recording_kernel)
        monkeypatch.setattr(gp, "dtrtri", recording_dtrtri)
        previous = fit(TestExtension().prefix(full, 40), self.SIGMA, self.PARAMS)
        whitened(previous, points, 1)               # fills task 2 as well
        assert kernels == [(150, 40)] and inversions == [(40, 40)]
        grown = fit(full, self.SIGMA, self.PARAMS, previous=previous)
        kernels.clear()
        inversions.clear()
        for z in (2, 1):
            grown.predict_batch(points, z)
        whitened(previous, points, 2)               # a hit on the first fill
        assert kernels == [(150, 5)] and inversions == [(5, 5)]
        assert_close_to(grown, fit(full, self.SIGMA, self.PARAMS), points)

    def test_fresh_block_is_the_buffer_storage(self, monkeypatch):
        posterior = fit(TestExtension().data(30), self.SIGMA, self.PARAMS)
        points = frozen(np.random.default_rng(14).random((100, 2)))
        blocks = []
        real = gp.Posterior._new_rows

        def recording(self, entries, scaled):
            result = real(self, entries, scaled)
            blocks.extend(block for block, *_ in result)
            return result

        monkeypatch.setattr(gp.Posterior, "_new_rows", recording)
        for z in (1, 2):
            rows = whitened(posterior, points, z)[0]
            assert np.shares_memory(rows, blocks[z - 1])
            assert np.shares_memory(rows, posterior._grid[z - 1].buffer.data)
            assert not rows.flags.writeable
        assert len(blocks) == 2                     # one fill for both tasks


class GridSpy(np.ndarray):
    """A cached whitened grid that counts the entries matrix products read from it."""

    read = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            GridSpy.read += sum(x.size for x in inputs if isinstance(x, GridSpy))
        inputs = [np.asarray(x) if isinstance(x, GridSpy) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def spy_on_grids(monkeypatch):
    """Hand out every cached whitened grid as a GridSpy and reset its count."""
    def view(buffer):
        rows = buffer.data[:buffer.filled].view(GridSpy)
        rows.setflags(write=False)
        return rows

    monkeypatch.setattr(gp._RowBuffer, "view", view)
    GridSpy.read = 0


class TestFusedMeans:
    """Every fill computes the means V_z' w in the product that grows the grid, and its
    entries keep them for the posterior that made them."""

    SIGMA = TestExtension.SIGMA
    PARAMS = TestExtension.PARAMS
    POINTS = frozen(np.random.default_rng(21).random((250, 2)))

    def data(self, n, u=2, seed=0):
        rng = np.random.default_rng(seed)
        return MultiTaskDataset(rng.random((n, 2)), rng.integers(1, u + 1, n),
                                rng.standard_normal(n))

    def assert_means_match(self, posterior, points=POINTS):
        """Each task's mean is within 1e-12 relative of V_z' w of this posterior's own w."""
        for z in range(1, posterior.sigma_used.size + 1):
            got = posterior.predict_batch(points, z)[0]        # the prediction fills first
            want = whitened(posterior, points, z)[0].T @ posterior.whitened_obs
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @staticmethod
    def assert_kept(posterior, points=POINTS):
        """Every task's prediction reads no whitened grid: the fill kept the means.

        The grids must come from fills made under :func:`spy_on_grids`."""
        GridSpy.read = 0
        for z in range(1, posterior.sigma_used.size + 1):
            posterior.predict_batch(points, z)
        assert GridSpy.read == 0

    def test_fresh_fill(self, monkeypatch):
        spy_on_grids(monkeypatch)
        posterior = fit(self.data(150), self.SIGMA, self.PARAMS)
        self.assert_means_match(posterior)
        self.assert_kept(posterior)

    @pytest.mark.parametrize("m", [40, 150])     # one product, and blocks of GRID_BLOCK rows
    def test_appended_fill(self, m):
        full = self.data(m + 3)
        previous = fit(TestExtension().prefix(full, m), self.SIGMA, self.PARAMS)
        previous.predict_batch(self.POINTS, 1)
        grown = fit(full, self.SIGMA, self.PARAMS, previous=previous)
        self.assert_means_match(grown)
        assert grown._grid[0].buffer is previous._grid[0].buffer     # appended in place
        self.assert_means_match(previous)          # the parent still reads its own means

    def test_sibling_copy_fill(self):
        full = self.data(125)
        parent = fit(TestExtension().prefix(full, 120), self.SIGMA, self.PARAMS)
        parent.predict_batch(self.POINTS, 1)
        first = fit(TestExtension().prefix(full, 122), self.SIGMA, self.PARAMS, previous=parent)
        second = fit(full, self.SIGMA, self.PARAMS, previous=parent)
        first.predict_batch(self.POINTS, 1)
        self.assert_means_match(second)
        assert second._grid[0].buffer is not parent._grid[0].buffer   # copied the prefix
        self.assert_means_match(first)

    def test_three_tasks(self, monkeypatch):
        spy_on_grids(monkeypatch)
        sigma = random_correlation(3, np.random.default_rng(22))
        full = self.data(105, u=3)
        previous = fit(TestExtension().prefix(full, 100), sigma, self.PARAMS)
        previous.predict_batch(self.POINTS, 2)
        grown = fit(full, sigma, self.PARAMS, previous=previous)
        grown.predict_batch(self.POINTS, 3)
        self.assert_kept(grown)                    # one fill keeps every task's mean
        self.assert_means_match(grown)

    def test_writable_points(self):
        full = self.data(103)
        previous = fit(TestExtension().prefix(full, 100), self.SIGMA, self.PARAMS)
        previous.predict_batch(self.POINTS, 1)
        grown = fit(full, self.SIGMA, self.PARAMS, previous=previous)
        self.assert_means_match(grown, np.array(self.POINTS))

        def unfilled():
            return gp.Posterior(grown.dataset, grown.sigma_used, grown.params, grown.chol,
                                grown.jitter, grown.whitened_obs)

        for z in (1, 2):            # a writable query is a fresh fill of the same factor
            for got, want in zip(grown.predict_batch(np.array(self.POINTS), z),
                                 unfilled().predict_batch(self.POINTS, z)):
                assert np.array_equal(got, want)
        assert_close_to(grown, fit(full, self.SIGMA, self.PARAMS), self.POINTS)

    def test_every_fill_keeps_the_means(self, monkeypatch):
        spy_on_grids(monkeypatch)
        full = self.data(103)
        previous = fit(TestExtension().prefix(full, 100), self.SIGMA, self.PARAMS)
        whitened(previous, self.POINTS, 1)
        grown = fit(full, self.SIGMA, self.PARAMS, previous=previous)
        whitened(grown, self.POINTS, 2)             # a fill no prediction asked for
        self.assert_kept(grown)
        self.assert_means_match(grown)

    def test_covered_rows_with_other_observations_read_their_own_mean(self):
        dataset = self.data(60)
        first = fit(dataset, self.SIGMA, self.PARAMS)
        first.predict_batch(self.POINTS, 1)
        other = MultiTaskDataset(dataset.inputs, dataset.tasks, -2.0 * dataset.observations)
        second = fit(other, self.SIGMA, self.PARAMS, previous=first)
        assert second.chol is first.chol and second._grid[0] is first._grid[0]
        self.assert_means_match(second)             # the rows are covered: V_z' w
        assert np.allclose(second.predict_batch(self.POINTS, 1)[0],
                           -2.0 * first.predict_batch(self.POINTS, 1)[0], rtol=0, atol=1e-12)
        self.assert_means_match(first)

    @pytest.mark.parametrize("u", [1, 2])
    def test_prediction_after_a_grown_fit_reads_the_grid_once(self, u, monkeypatch):
        spy_on_grids(monkeypatch)
        sigma = CorrelationMatrix.identity(1) if u == 1 else self.SIGMA
        m, g = 150, self.POINTS.shape[0]
        full = self.data(m + 1, u=u)
        previous = fit(TestExtension().prefix(full, m), sigma, self.PARAMS)
        previous.predict_batch(self.POINTS, 1)
        grown = fit(full, sigma, self.PARAMS, previous=previous)
        GridSpy.read = 0
        for _ in range(2):
            for z in range(1, u + 1):
                grown.predict_batch(self.POINTS, z)
        assert GridSpy.read == u * m * g           # each task's covered rows, once


class TestSolveLower:
    @pytest.mark.parametrize("n", [1, 5, 40])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_bit_identical_to_solve_triangular(self, n, order, columns):
        """Scipy's solve of the C-ordered factor, which gp makes, whatever the layout."""
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        c_chol = np.linalg.cholesky(a @ a.T + n * np.eye(n))
        assert c_chol.flags.c_contiguous
        chol = np.asarray(c_chol, order=order)
        assert chol.flags[f"{order}_CONTIGUOUS"]
        rhs = rng.standard_normal(n if columns is None else (n, columns))
        got = gp._solve_lower(chol, rhs)
        want = solve_triangular(c_chol, rhs, lower=True)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_zero_diagonal_raises(self, order):
        chol = np.asarray(np.tril(np.ones((4, 4))), order=order)
        chol[2, 2] = 0.0
        with pytest.raises(gp.NumericalError, match="dtrtrs info 3"):
            gp._solve_lower(chol, np.ones(4))


class TestSolvePositive:
    @pytest.mark.parametrize("columns", [None, 12])
    def test_bit_identical_to_scipys_solves(self, columns):
        """solve(assume_a="pos") at lower=0, cho_solve(cho_factor(lower=True)) at lower=1.

        From n = 2: scipy's solve divides a 1 x 1 system instead of factoring it.
        """
        rng = np.random.default_rng(columns or 0)
        for n in (2, 3, 5, 40):
            a = rng.standard_normal((n, n))
            system = a @ a.T + 0.05 * np.eye(n)
            rhs = rng.standard_normal(n if columns is None else (n, columns))
            assert np.array_equal(gp.solve_positive(system, rhs, 0),
                                  scipy.linalg.solve(system, rhs, assume_a="pos"))
            factor = scipy.linalg.cho_factor(system, lower=True)
            assert np.array_equal(gp.solve_positive(system, rhs, 1),
                                  scipy.linalg.cho_solve(factor, rhs))

    def test_indefinite_raises_and_empty_is_its_rhs(self):
        with pytest.raises(gp.NumericalError, match="info 2"):
            gp.solve_positive(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2), 0)
        rhs = np.zeros(0)
        assert gp.solve_positive(np.zeros((0, 0)), rhs, 1) is rhs


class TestNonFinite:
    """Non-finite values are refused where they enter, since the solves scan nothing."""

    SIGMA = CorrelationMatrix.two_task(0.6)

    def test_nan_observation_is_refused(self):
        with pytest.raises(ValueError, match="finite"):
            MultiTaskDataset([[0.1], [0.2]], [1, 2], [0.0, np.nan])

    def test_inf_input_is_refused(self):
        with pytest.raises(ValueError, match="finite"):
            MultiTaskDataset([[0.1], [np.inf]], [1, 2], [0.0, 1.0])

    def test_extension_by_a_nan_row_is_refused(self):
        dataset = MultiTaskDataset([[0.1], [0.2]], [1, 2], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            dataset.extended([[np.nan]], [1], [0.5])

    def test_extended_factor_with_a_nan_gram_row_falls_back_and_the_fit_raises(self):
        rng = np.random.default_rng(3)
        params = make_params()
        dataset = MultiTaskDataset(rng.random((10, 1)), rng.integers(1, 3, 10),
                                   rng.standard_normal(10))
        head = MultiTaskDataset(dataset.inputs[:8], dataset.tasks[:8], dataset.observations[:8])
        previous = fit(head, self.SIGMA, params)
        base = se_kernel_matrix(dataset.inputs, dataset.inputs, params)
        base[9, :] = base[:, 9] = np.nan
        assert gp._extended_factor(previous, dataset, self.SIGMA, params, base) is None
        with pytest.raises(gp.NumericalError):
            fit(dataset, self.SIGMA, params, base_gram=base, previous=previous)


class TestQueryWidth:
    """Both grid queries convert their points as one lookup and refuse another width."""

    @staticmethod
    def posterior():
        rng = np.random.default_rng(11)
        dataset = MultiTaskDataset(rng.random((6, 3)), [1, 2, 1, 2, 1, 2],
                                   rng.standard_normal(6))
        return fit(dataset, CorrelationMatrix.two_task(0.5), make_params(d=3))

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_another_width_is_refused(self, width):
        # a single column used to broadcast across the three inputs
        post = self.posterior()
        points = np.random.default_rng(0).random((5, width))
        for query in (points, frozen(points)):
            with pytest.raises(ValueError, match="input dimension does not match lengthscales"):
                post.predict_batch(query, 1)
            with pytest.raises(ValueError, match="input dimension does not match lengthscales"):
                post.pick_covariance(query, 1, 2, 0)

    def test_a_list_is_a_query(self):
        post = self.posterior()
        points = frozen(np.random.default_rng(0).random((5, 3)))
        for got, want in zip(post.predict_batch(points.tolist(), 2),
                             self.posterior().predict_batch(points, 2)):
            assert np.array_equal(got, want)
        assert np.array_equal(post.pick_covariance(points.tolist(), 1, 2, 3),
                              self.posterior().pick_covariance(points, 1, 2, 3))


class TestClampVariances:
    """The clamp's warning, the package's only log record, on the logger ``samsbo.gp``."""

    def test_below_the_warning_level_logs_once_with_count_and_minimum(self, caplog):
        variances = np.array([0.5, 2.0 * gp.VARIANCE_WARN, -0.25, gp.VARIANCE_WARN, 0.0])
        with caplog.at_level(logging.WARNING, logger="samsbo.gp"):
            clamped = gp.clamp_variances(variances)
        assert [(r.name, r.levelno) for r in caplog.records] == [("samsbo.gp", logging.WARNING)]
        assert caplog.records[0].getMessage() == (
            "clamping 2 negative posterior variances (min -2.500e-01)")
        assert np.array_equal(clamped, [0.5, 0.0, 0.0, 0.0, 0.0])

    def test_from_the_warning_level_to_zero_clamps_silently(self, caplog):
        variances = np.array([gp.VARIANCE_WARN, 0.5 * gp.VARIANCE_WARN, -0.0, 0.0, 1.0])
        with caplog.at_level(logging.DEBUG, logger="samsbo.gp"):
            clamped = gp.clamp_variances(variances)
        assert caplog.records == []
        assert np.array_equal(clamped, [0.0, 0.0, 0.0, 0.0, 1.0])
