import numpy as np
import pytest
from scipy.optimize import minimize

from samsbo.benchmarks import (
    StabilityError,
    branin,
    branin_problem,
    find_safe_seed,
    h2_cost,
    laser_problem,
    lyapunov_solve,
    powell,
    powell_problem,
)


class TestPowell:
    def test_minimum_at_origin(self):
        assert powell(np.zeros(4)) == 0.0
        assert powell(np.zeros(8)) == 0.0

    def test_hand_value(self):
        assert powell(np.ones(4)) == pytest.approx(122.0)

    def test_nonnegative_on_grid(self):
        rng = np.random.default_rng(0)
        xs = -4.0 + 9.0 * rng.random((2000, 4))
        values = np.array([powell(x) for x in xs])
        assert np.all(values >= 0.0)
        assert np.all(values[np.linalg.norm(xs, axis=1) > 0.5] > 0.0)

    def test_dimension_must_be_multiple_of_four(self):
        with pytest.raises(ValueError):
            powell(np.ones(3))


class TestBranin:
    def test_global_minimum_value(self):
        assert branin([np.pi, 2.275]) == pytest.approx(0.397887, abs=1e-6)

    def test_three_minima_agree(self):
        candidates = [(-np.pi, 12.275), (np.pi, 2.275), (9.42478, 2.475)]
        values = []
        for start in candidates:
            res = minimize(branin, start, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12})
            values.append(res.fun)
        assert np.max(values) - np.min(values) < 1e-6
        assert values[0] == pytest.approx(0.397887, abs=1e-6)

    def test_hand_value_origin(self):
        assert branin([0.0, 0.0]) == pytest.approx(55.602, abs=1e-3)


class TestShiftedSupplementary:
    def test_powell_shift_magnitude(self):
        p = powell_problem(shift_factor=0.1, disturbance_seed=1)
        shift = p.shift(2)
        assert np.allclose(np.abs(shift), 0.45)

    def test_zero_factor_identity(self):
        p = powell_problem(shift_factor=0.0, disturbance_seed=1)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = -4.0 + 9.0 * rng.random(4)
            assert p.true_value(2, x) == pytest.approx(p.true_value(1, x))

    def test_branin_axis_magnitude(self):
        p = branin_problem(shift_factor=0.3, disturbance_seed=2)
        assert abs(p.shift(2)[0]) == pytest.approx(2.25)
        assert abs(p.shift(2)[1]) == pytest.approx(2.25)

    def test_shift_inverse(self):
        seed = 5
        plus = powell_problem(shift_factor=0.1, disturbance_seed=seed)
        minus = powell_problem(shift_factor=-0.1, disturbance_seed=seed)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = -3.0 + 6.0 * rng.random(4)
            roundtrip = x + plus.shift(2) + minus.shift(2)
            assert np.allclose(roundtrip, x)


class TestLyapunovSolve:
    def test_identity_pair(self):
        P = lyapunov_solve(-np.eye(2), np.eye(2))
        assert np.allclose(P, 0.5 * np.eye(2), atol=1e-12)

    def test_diagonal(self):
        P = lyapunov_solve(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(P, np.diag([0.5, 0.25]), atol=1e-12)

    def test_zero_forcing(self):
        P = lyapunov_solve(np.diag([-1.0, -3.0]), np.zeros((2, 2)))
        assert np.allclose(P, 0.0, atol=1e-14)

    def test_rejects_unstable(self):
        with pytest.raises(StabilityError):
            lyapunov_solve(np.diag([1.0, -1.0]), np.eye(2))

    def test_residual_bound_random_hurwitz(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(2, 31)
            raw = rng.standard_normal((n, n))
            A = raw - (np.max(np.linalg.eigvals(raw).real) + 0.5) * np.eye(n)
            Q = rng.standard_normal((n, n))
            Q = Q @ Q.T + 0.1 * np.eye(n)
            P = lyapunov_solve(A, Q)
            residual = np.linalg.norm(A @ P + P @ A.T + Q)
            assert residual <= 1e-8 * np.linalg.norm(Q)
            assert np.min(np.linalg.eigvalsh(P)) >= -1e-10 * np.linalg.norm(P)


class TestLaserChain:
    def test_default_seed_is_safe_and_stable(self):
        p = laser_problem(disturbance_seed=0)
        cost = h2_cost(p.default_safe_seed(), p, 1)
        assert np.isfinite(cost)
        assert cost <= p.threshold

    def test_zero_gains_penalized(self):
        p = laser_problem(disturbance_seed=0)
        value = h2_cost(np.zeros(10), p, 1)
        assert value == pytest.approx(10.0 * p.threshold)

    def test_stable_cost_checks_stability_once(self, monkeypatch):
        p = laser_problem(disturbance_seed=0)
        seed = p.default_safe_seed()
        A, B, C = p.closed_loop(seed, 1)
        expected = p.output_scale * float(np.sqrt(np.trace(C @ lyapunov_solve(A, B @ B.T) @ C.T)))
        calls = []
        eigvals = np.linalg.eigvals

        def counting(matrix):
            calls.append(np.shape(matrix))
            return eigvals(matrix)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        assert h2_cost(seed, p, 1) == min(expected, 10.0 * p.threshold)
        assert calls == [A.shape]

    def test_noise_scaling_doubles_cost(self):
        p = laser_problem(disturbance_seed=0)
        seed = p.default_safe_seed()
        A, B, C = p.closed_loop(seed, 1)
        P1 = lyapunov_solve(A, B @ B.T)
        P2 = lyapunov_solve(A, (2.0 * B) @ (2.0 * B).T)
        c1 = np.sqrt(np.trace(C @ P1 @ C.T))
        c2 = np.sqrt(np.trace(C @ P2 @ C.T))
        assert c2 == pytest.approx(2.0 * c1, rel=1e-9)

    def test_supplementary_task_differs_but_correlates(self):
        p = laser_problem(disturbance_seed=4)
        rng = np.random.default_rng(4)
        lo, hi = p.box[:, 0], p.box[:, 1]
        xs = lo + rng.random((60, 10)) * (hi - lo)
        v1 = np.array([h2_cost(x, p, 1) for x in xs])
        v2 = np.array([h2_cost(x, p, 2) for x in xs])
        keep = (v1 < 9.9 * p.threshold) & (v2 < 9.9 * p.threshold)
        assert np.any(np.abs(v1[keep] - v2[keep]) > 1e-6)
        assert np.corrcoef(v1[keep], v2[keep])[0, 1] > 0.5

    def test_continuity_on_safe_region(self):
        p = laser_problem(disturbance_seed=0)
        rng = np.random.default_rng(5)
        lo, hi = p.box[:, 0], p.box[:, 1]
        checked = 0
        while checked < 100:
            x = lo + rng.random(10) * (hi - lo)
            base = h2_cost(x, p, 1)
            if base > 2.0 * p.threshold:
                continue
            bumped = h2_cost(x + 1e-6, p, 1)
            assert abs(bumped - base) < 1e-3
            checked += 1

    def test_instability_maps_to_penalty(self):
        p = laser_problem(disturbance_seed=0)
        # huge integral gain with tiny proportional gain violates the Routh bound
        bad = np.concatenate([np.full(5, 0.05), np.full(5, 8.0)])
        assert h2_cost(bad, p, 1) == pytest.approx(10.0 * p.threshold)


class TestProblemInterface:
    @pytest.mark.parametrize("factory", [
        lambda: branin_problem(disturbance_seed=1),
        lambda: powell_problem(disturbance_seed=1),
        lambda: laser_problem(disturbance_seed=1),
    ])
    def test_common_surface(self, factory):
        p = factory()
        assert p.domain.shape == (p.dimension, 2)
        assert p.n_tasks == 2
        assert p.threshold > 0
        rng = np.random.default_rng(0)
        x = find_safe_seed(p, rng)
        assert p.true_value(1, x) <= p.threshold
        noisy = p.evaluate(1, x, np.random.default_rng(1))
        again = p.evaluate(1, x, np.random.default_rng(1))
        assert noisy == again

    @pytest.mark.parametrize("factory, attribute, cols", [
        (lambda seed: branin_problem(n_tasks=3, disturbance_seed=seed), "directions", 2),
        (lambda seed: powell_problem(dimension=8, n_tasks=3, disturbance_seed=seed),
         "directions", 8),
        (lambda seed: laser_problem(n_tasks=3, disturbance_seed=seed), "filter_signs", 6),
    ])
    def test_signs_come_from_the_disturbance_seed(self, factory, attribute, cols):
        for seed in (0, 3, 11):
            p = factory(seed)
            expected = np.random.default_rng(seed).choice([-1.0, 1.0], size=(2, cols))
            assert np.array_equal(getattr(p, attribute), expected)
            assert p.disturbance_seed == seed

    def test_disturbance_reseeding_changes_supplementary(self):
        a = branin_problem(disturbance_seed=1)
        b = branin_problem(disturbance_seed=2)
        assert not np.allclose(a.shift(2), b.shift(2))
        assert np.allclose(a.shift(1), 0.0)
