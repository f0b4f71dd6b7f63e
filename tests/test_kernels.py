import numpy as np
import pytest

from samsbo.gp import MultiTaskDataset
from samsbo.kernels import CorrelationMatrix, KernelParams, gram

from oracles import empty_dataset, multitask_kernel, se_kernel


def params_1d(sf2=1.0, ell=1.0, noise=0.0):
    return KernelParams(sf2, [ell], noise)


def random_correlation(u, rng):
    """Random positive definite correlation matrix with nonnegative entries."""
    while True:
        a = rng.random((u, u))
        m = a @ a.T + u * np.eye(u)
        d = np.sqrt(np.diag(m))
        m = m / np.outer(d, d)
        if np.min(m) >= 0.0 and np.min(np.linalg.eigvalsh(m)) > 1e-8:
            return CorrelationMatrix(m)


class TestSeKernel:
    def test_zero_distance_returns_signal_variance(self):
        for sf2 in (1.0, 2.5, 0.3):
            assert se_kernel([0.7], [0.7], params_1d(sf2)) == pytest.approx(sf2)

    def test_unit_distance_1d(self):
        assert se_kernel([0.0], [1.0], params_1d()) == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_anisotropic_2d(self):
        p = KernelParams(2.0, [1.0, 2.0])
        value = se_kernel([1.0, 2.0], [0.0, 0.0], p)
        assert value == pytest.approx(2.0 * np.exp(-1.0), abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        p = KernelParams(1.7, [0.4, 0.9, 1.3])
        for _ in range(50):
            x, y = rng.random(3), rng.random(3)
            k = se_kernel(x, y, p)
            assert k == pytest.approx(se_kernel(y, x, p))
            assert 0.0 < k <= p.signal_variance

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            se_kernel([0.0, 1.0], [0.0], params_1d())

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KernelParams(0.0, [1.0])
        with pytest.raises(ValueError):
            KernelParams(1.0, [1.0, -0.2])


class TestKernelParams:
    def test_equality_and_hash_by_value(self):
        a = KernelParams(1.0, [0.2, 0.3], 0.01)
        b = KernelParams(1.0, np.array([0.2, 0.3]), 0.01)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != KernelParams(1.0, [0.2, 0.4], 0.01)
        assert a != KernelParams(1.0, [0.2], 0.01) and a != KernelParams(1.0, [0.2, 0.3])
        assert a != (1.0, [0.2, 0.3], 0.01)
        assert len({a, b, KernelParams(2.0, [0.2, 0.3], 0.01)}) == 2

    def test_lengthscales_are_a_read_only_copy(self):
        scales = np.array([0.2, 0.3])
        params = KernelParams(1.0, scales)
        scales[0] = 5.0
        assert params.lengthscales.tolist() == [0.2, 0.3]
        with pytest.raises(ValueError):
            params.lengthscales[0] = 5.0


class TestCorrelationMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CorrelationMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            CorrelationMatrix(np.array([[1.0, -0.1], [-0.1, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            CorrelationMatrix.two_task(1.0)

    def test_unit_diagonal_enforced_when_normalized(self):
        for diagonal in ([2.0, 1.0], [1.0, 0.5], [1.0 + 1e-8, 1.0], [3.0]):
            with pytest.raises(ValueError, match="unit diagonal"):
                CorrelationMatrix(np.diag(diagonal))
        CorrelationMatrix(np.diag([1.0 + 1e-10, 1.0]))

    def test_equality_and_hash_follow_the_key(self):
        a, b = CorrelationMatrix.two_task(0.3), CorrelationMatrix.two_task(0.3)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != CorrelationMatrix.two_task(0.4)
        assert CorrelationMatrix.identity(1) != CorrelationMatrix.identity(2)
        assert a != a.key() and a != 0.3
        assert len({a, b, CorrelationMatrix.identity(2)}) == 2


class TestMultitaskKernel:
    def test_identity_decouples_tasks(self):
        ident = CorrelationMatrix.identity(2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y = rng.random(1), rng.random(1)
            assert multitask_kernel(x, 1, y, 2, ident, params_1d()) == 0.0

    def test_offdiagonal_at_equal_inputs(self):
        sigma = CorrelationMatrix.two_task(0.5)
        assert multitask_kernel([0.3], 1, [0.3], 2, sigma, params_1d()) == pytest.approx(0.5)

    def test_single_task_reduction(self):
        sigma = CorrelationMatrix.two_task(0.7)
        x, y = np.array([0.1]), np.array([0.8])
        assert multitask_kernel(x, 1, y, 1, sigma, params_1d()) == pytest.approx(
            se_kernel(x, y, params_1d()))

    def test_invalid_task(self):
        with pytest.raises(ValueError):
            multitask_kernel([0.0], 3, [0.0], 1, CorrelationMatrix.identity(2), params_1d())


class TestGram:
    def test_single_point(self):
        ds = MultiTaskDataset(np.array([[0.2]]), [1], [0.0])
        K = gram(ds, CorrelationMatrix.identity(1), params_1d())
        assert K.shape == (1, 1) and K[0, 0] == pytest.approx(1.0)

    def test_two_tasks_same_input(self):
        r = 0.4
        ds = MultiTaskDataset(np.array([[0.5], [0.5]]), [1, 2], [0.0, 0.0])
        K = gram(ds, CorrelationMatrix.two_task(r), params_1d(sf2=1.5))
        assert np.allclose(K, 1.5 * np.array([[1.0, r], [r, 1.0]]), atol=1e-12)

    def test_symmetric_psd_random(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = rng.integers(1, 21)
            u = rng.integers(1, 4)
            d = rng.integers(1, 4)
            sigma = random_correlation(u, rng)
            ds = MultiTaskDataset(rng.random((n, d)), rng.integers(1, u + 1, n), np.zeros(n))
            K = gram(ds, sigma, KernelParams(1.0, rng.random(d) + 0.2))
            assert np.allclose(K, K.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(K)) >= -1e-10 * n

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            gram(empty_dataset(1), CorrelationMatrix.identity(1), params_1d())

