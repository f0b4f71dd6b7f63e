import importlib
import pkgutil

import numpy as np
import pytest
from scipy.optimize import minimize

import samsbo
from samsbo import benchmarks
from samsbo.benchmarks import (
    LASER_BOX,
    LASER_SAFE_SEED,
    StabilityError,
    branin,
    branin_problem,
    find_safe_seed,
    h2_cost,
    laser_problem,
    powell,
    powell_problem,
)

from oracles import closed_loop_reference, h2_cost_reference, lyapunov_solve


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
        p = powell_problem(disturbance=0.1, disturbance_seed=1)
        shift = p.shift(2)
        assert np.allclose(np.abs(shift), 0.45)

    def test_zero_factor_identity(self):
        p = powell_problem(disturbance=0.0, disturbance_seed=1)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = -4.0 + 9.0 * rng.random(4)
            assert p.true_value(2, x) == pytest.approx(p.true_value(1, x))

    def test_branin_axis_magnitude(self):
        p = branin_problem(disturbance=0.3, disturbance_seed=2)
        assert abs(p.shift(2)[0]) == pytest.approx(2.25)
        assert abs(p.shift(2)[1]) == pytest.approx(2.25)

    def test_shift_inverse(self):
        seed = 5
        plus = powell_problem(disturbance=0.1, disturbance_seed=seed)
        minus = powell_problem(disturbance=-0.1, disturbance_seed=seed)
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
        cost = h2_cost(LASER_SAFE_SEED, p, 1)
        assert np.isfinite(cost)
        assert cost <= p.threshold

    def test_zero_gains_penalized(self):
        p = laser_problem(disturbance_seed=0)
        value = h2_cost(np.zeros(10), p, 1)
        assert value == pytest.approx(10.0 * p.threshold)

    def test_cost_factors_the_loop_once(self, monkeypatch):
        """One dgees per evaluation decides stability and feeds the solve; geev never runs."""
        p = laser_problem(disturbance_seed=0)
        unstable = np.concatenate([np.full(5, 0.05), np.full(5, 8.0)])
        expected = h2_cost_reference(LASER_SAFE_SEED, p, 1)
        gees_calls, eigvals_calls = [], []
        gees, eigvals = benchmarks._gees, np.linalg.eigvals

        def counting_gees(*args, **kwargs):
            gees_calls.append(np.shape(args[1]))
            return gees(*args, **kwargs)

        def counting_eigvals(matrix):
            eigvals_calls.append(np.shape(matrix))
            return eigvals(matrix)

        monkeypatch.setattr(benchmarks, "_gees", counting_gees)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        assert h2_cost(LASER_SAFE_SEED, p, 1) == expected < p.threshold
        assert gees_calls == [(21, 21)] and eigvals_calls == []
        assert h2_cost(unstable, p, 1) == 10.0 * p.threshold
        assert gees_calls == [(21, 21)] * 2 and eigvals_calls == []

    @pytest.mark.parametrize("routine, gains", [
        ("_gees", "unstable"), ("_gees", "seed"), ("_trsyl", "seed")])
    def test_lapack_failure_raises(self, monkeypatch, routine, gains):
        """A nonzero info is an error naming the routine, never a perturbed or skipped solve."""
        p = laser_problem(disturbance_seed=0)
        x = LASER_SAFE_SEED if gains == "seed" else np.concatenate([np.full(5, 0.05),
                                                                     np.full(5, 8.0)])
        binding = getattr(benchmarks, routine)

        def failing(*args, **kwargs):
            return *binding(*args, **kwargs)[:-1], 2

        monkeypatch.setattr(benchmarks, routine, failing)
        with pytest.raises(StabilityError, match=rf"d{routine[1:]} failed with info = 2"):
            h2_cost(x, p, 1)

    @pytest.mark.parametrize("n_tasks", [2, 3])
    def test_closed_loop_is_the_loop_build_bit_for_bit(self, n_tasks):
        """Gains inside and outside the box, signed zeros and non-finite ones, every task."""
        p = laser_problem(n_tasks=n_tasks, disturbance_seed=3)
        rng = np.random.default_rng(12)
        lo, hi = LASER_BOX[:, 0], LASER_BOX[:, 1]
        gains = [lo + rng.random(10) * (hi - lo) for _ in range(40)]
        gains += [rng.uniform(-20.0, 30.0, 10) for _ in range(40)]
        gains += [np.zeros(10), np.full(10, -0.0), np.full(10, np.nan), np.full(10, -np.inf),
                  list(LASER_SAFE_SEED)]
        for x in gains:
            for z in range(1, n_tasks + 1):
                got, want = p.closed_loop(x, z), closed_loop_reference(p, x, z)
                for a, b in zip(got, want):
                    assert a.shape == b.shape
                    assert np.array_equal(a.view(np.int64), b.view(np.int64))
        A, B, C = p.closed_loop(LASER_SAFE_SEED, 1)
        assert A.flags.writeable and not B.flags.writeable and not C.flags.writeable
        for z in (0, n_tasks + 1):
            with pytest.raises(ValueError, match="task must lie"):
                p.closed_loop(LASER_SAFE_SEED, z)

    def test_non_finite_gains_are_refused(self):
        p = laser_problem(disturbance_seed=0)
        for bad in (np.nan, np.inf):
            x = np.array(LASER_SAFE_SEED)
            x[3] = bad
            with pytest.raises(ValueError, match="finite"):
                h2_cost(x, p, 1)

    def test_noise_scaling_doubles_cost(self):
        p = laser_problem(disturbance_seed=0)
        seed = LASER_SAFE_SEED
        A, B, C = p.closed_loop(seed, 1)
        P1 = lyapunov_solve(A, B @ B.T)
        P2 = lyapunov_solve(A, (2.0 * B) @ (2.0 * B).T)
        c1 = np.sqrt(np.trace(C @ P1 @ C.T))
        c2 = np.sqrt(np.trace(C @ P2 @ C.T))
        assert c2 == pytest.approx(2.0 * c1, rel=1e-9)

    def test_supplementary_task_differs_but_correlates(self):
        p = laser_problem(disturbance_seed=4)
        rng = np.random.default_rng(4)
        lo, hi = p.domain[:, 0], p.domain[:, 1]
        xs = lo + rng.random((60, 10)) * (hi - lo)
        v1 = np.array([h2_cost(x, p, 1) for x in xs])
        v2 = np.array([h2_cost(x, p, 2) for x in xs])
        keep = (v1 < 9.9 * p.threshold) & (v2 < 9.9 * p.threshold)
        assert np.any(np.abs(v1[keep] - v2[keep]) > 1e-6)
        assert np.corrcoef(v1[keep], v2[keep])[0, 1] > 0.5

    def test_continuity_on_safe_region(self):
        p = laser_problem(disturbance_seed=0)
        rng = np.random.default_rng(5)
        lo, hi = p.domain[:, 0], p.domain[:, 1]
        checked = 0
        while checked < 100:
            x = lo + rng.random(10) * (hi - lo)
            base = h2_cost(x, p, 1)
            if base > 2.0 * p.threshold:
                continue
            bumped = h2_cost(x + 1e-6, p, 1)
            assert abs(bumped - base) < 1e-3
            checked += 1

    # h2_cost at the default disturbance seed, recorded before the plant's values became
    # module constants; the oracle tests above share closed_loop, so only these catch a
    # changed frequency, damping, pole or scale
    RECORDED = {
        "seed": (11.701714353448464, 11.618996929714447, 11.928243388143295),
        "uniform": (15.549032600174932, 15.425660072359735, 16.057429562567613),
        "graded": (14.104661643546612, 13.256081396417565, 15.27232059092637),
        "stiff": (14.78159058291859, 14.754645709402297, 14.834965553384059),
    }
    GAINS = {
        "uniform": np.concatenate([np.full(5, 1.0), np.full(5, 0.5)]),
        "graded": np.concatenate([np.linspace(0.5, 4.0, 5), np.linspace(0.2, 3.0, 5)]),
        "stiff": np.concatenate([np.full(5, 5.0), np.full(5, 2.0)]),
    }

    @pytest.mark.parametrize("n_tasks", [2, 3])
    @pytest.mark.parametrize("gains", ["seed", "uniform", "graded", "stiff"])
    def test_costs_match_recorded_values(self, gains, n_tasks):
        p = laser_problem(n_tasks=n_tasks)
        x = LASER_SAFE_SEED if gains == "seed" else self.GAINS[gains]
        costs = [h2_cost(x, p, z) for z in range(1, n_tasks + 1)]
        assert costs == pytest.approx(self.RECORDED[gains][:n_tasks], rel=1e-12, abs=0.0)

    def test_instability_maps_to_penalty(self):
        p = laser_problem(disturbance_seed=0)
        # huge integral gain with tiny proportional gain violates the Routh bound
        bad = np.concatenate([np.full(5, 0.05), np.full(5, 8.0)])
        assert h2_cost(bad, p, 1) == pytest.approx(10.0 * p.threshold)


class TestAgainstReference:
    """h2_cost equals the geev-check-plus-scipy-solve reference exactly, not within a tolerance."""

    @staticmethod
    def _outcome(cost, x, p, z):
        try:
            return cost(x, p, z)
        except StabilityError as exc:
            return repr(exc)

    @pytest.mark.parametrize("disturbance_seed, n_tasks", [(0, 2), (5, 3)])
    def test_seeded_gains(self, disturbance_seed, n_tasks):
        p = laser_problem(n_tasks=n_tasks, disturbance_seed=disturbance_seed)
        rng = np.random.default_rng(disturbance_seed)
        xs = LASER_BOX[:, 0] + rng.random((2000, 10)) * (LASER_BOX[:, 1] - LASER_BOX[:, 0])
        for z in range(1, n_tasks + 1):
            costs = [h2_cost(x, p, z) for x in xs]
            assert costs == [h2_cost_reference(x, p, z) for x in xs]
            # both sides of the margin are sampled, and the safe region too
            assert 0 < costs.count(10.0 * p.threshold) < len(xs)
            assert min(costs) < p.threshold

    def test_bisection_onto_the_margin(self):
        """Near the margin geev and dgees can disagree; both sides then clip to the penalty."""
        p = laser_problem(n_tasks=3, disturbance_seed=5)
        rng = np.random.default_rng(11)
        lo, hi = LASER_BOX[:, 0], LASER_BOX[:, 1]

        def stable(x, z):
            return np.max(np.linalg.eigvals(p.closed_loop(x, z)[0]).real) < -1e-9

        lines = 0
        while lines < 30:
            z = int(rng.integers(1, 4))
            good, bad = lo + rng.random((2, 10)) * (hi - lo)
            if stable(good, z) == stable(bad, z):
                continue
            if not stable(good, z):
                good, bad = bad, good
            lines += 1
            for _ in range(60):
                mid = 0.5 * (good + bad)
                assert self._outcome(h2_cost, mid, p, z) == self._outcome(h2_cost_reference, mid, p, z)
                if stable(mid, z):
                    good = mid
                else:
                    bad = mid
            # the line is bisected down to adjacent floating-point inputs
            assert np.all(np.abs(good - bad) <= 4 * np.spacing(np.maximum(abs(good), abs(bad))))


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

    @pytest.mark.parametrize("factory, cols", [
        (lambda seed: branin_problem(n_tasks=3, disturbance_seed=seed), 2),
        (lambda seed: powell_problem(dimension=8, n_tasks=3, disturbance_seed=seed), 8),
        (lambda seed: laser_problem(n_tasks=3, disturbance_seed=seed), 6),
    ])
    def test_signs_come_from_the_disturbance_seed(self, factory, cols):
        for seed in (0, 3, 11):
            p = factory(seed)
            expected = np.random.default_rng(seed).choice([-1.0, 1.0], size=(2, cols))
            assert np.array_equal(p.signs, expected)

    def test_disturbance_reseeding_changes_supplementary(self):
        a = branin_problem(disturbance_seed=1)
        b = branin_problem(disturbance_seed=2)
        assert not np.allclose(a.shift(2), b.shift(2))
        assert np.allclose(a.shift(1), 0.0)


def test_module_arrays_are_read_only():
    """Problems share the package's module arrays, so writing one would change every problem."""
    writable = [f"{info.name}.{name}"
                for info in pkgutil.iter_modules(samsbo.__path__)
                for name, value in vars(importlib.import_module(f"samsbo.{info.name}")).items()
                if isinstance(value, np.ndarray) and value.flags.writeable]
    assert writable == []
    p = branin_problem()
    with pytest.raises(ValueError, match="read-only"):
        p.domain[0, 0] = -6.0
    assert branin_problem().domain[0].tolist() == [-5.0, 10.0]
    with pytest.raises(ValueError, match="read-only"):
        powell_problem().domain[0, 0] = -6.0
