import numpy as np
import pytest

from samsbo import bounds, gp, hyperposterior, kernels, twotask
from samsbo.bounds import (
    DiscretizationSpec,
    LatentNormSpec,
    beta_bayes,
    beta_freq,
    beta_freq_robust,
    covering_number,
    estimate_feature_lipschitz,
    gamma_factor,
    kernel_dominance,
    modulus_mu,
    modulus_sigma,
    nu_factor,
    operator_norm_lambda,
    rkhs_norm_exact,
    robust_model,
    sample_lipschitz_bound,
    scaling_bundle,
    select_sigma_prime,
)
from samsbo.config import ConfigError
from samsbo.hyperposterior import ConfidenceSet
from samsbo.kernels import CorrelationMatrix, KernelParams, gram, se_kernel_matrix

from test_kernels import random_correlation

PARAMS = KernelParams(1.0, [0.3], noise_variance=0.05)


def make_set(matrices, rho=0.15):
    return ConfidenceSet(tuple(matrices), rho, np.zeros(len(matrices)))


def task_dataset(rng, n=8, d=1, u=2):
    return gp.MultiTaskDataset(rng.random((n, d)), rng.integers(1, u + 1, n),
                               rng.standard_normal(n))


class TestBetaFreq:
    def test_norm_only_limit(self):
        assert beta_freq(3.0, 0, 1.0 - 1e-12) == pytest.approx(9.0, abs=1e-5)

    def test_hand_value_no_observations(self):
        assert beta_freq(1.0, 0, 0.05) == pytest.approx(11.887, abs=1e-3)

    def test_hand_value_hundred_observations(self):
        expected = (2.0 + np.sqrt(100 + 2 * np.sqrt(100 * np.log(20.0)) + 2 * np.log(20.0))) ** 2
        assert beta_freq(2.0, 100, 0.05) == pytest.approx(expected, abs=1e-9)
        assert beta_freq(2.0, 100, 0.05) == pytest.approx(192.06, abs=0.05)


class TestOperatorNormLambda:
    def test_equal_matrices(self):
        s = CorrelationMatrix.two_task(0.3)
        assert operator_norm_lambda(s, s) == pytest.approx(1.0, abs=1e-10)

    def test_identity_reference(self):
        s = CorrelationMatrix.two_task(0.5)
        assert operator_norm_lambda(s, CorrelationMatrix.identity(2)) == pytest.approx(
            np.sqrt(1.5), abs=1e-10)

    def test_product_of_both_directions_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.integers(2, 5)
            a, b = random_correlation(u, rng), random_correlation(u, rng)
            assert operator_norm_lambda(a, b) * operator_norm_lambda(b, a) >= 1.0 - 1e-10


class TestRkhsNormExact:
    def test_orthonormal_latents_identity(self):
        for u in (1, 2, 4):
            s = CorrelationMatrix.identity(u)
            assert rkhs_norm_exact(s, np.eye(u)) == pytest.approx(np.sqrt(u))

    def test_hand_value_two_task(self):
        s = CorrelationMatrix.two_task(0.5)
        assert rkhs_norm_exact(s, np.eye(2)) == pytest.approx(1.63299, abs=1e-5)

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        s = random_correlation(3, rng)
        g = rng.random((3, 3))
        g = g @ g.T
        assert rkhs_norm_exact(s, 4.0 * g) == pytest.approx(2.0 * rkhs_norm_exact(s, g))


class TestBetaFreqRobust:
    def test_identity_reduces_to_plain(self):
        spec = LatentNormSpec(norms=[1.0, 2.0])
        ident = CorrelationMatrix.identity(2)
        assert beta_freq_robust(spec, ident, 10, 0.05) == pytest.approx(
            beta_freq(np.sqrt(5.0), 10, 0.05))

    def test_lambda_from_inverse_spectrum(self):
        # eigenvalues {0.25, 1.75} -> lambda = sqrt(1 / 0.25) = 2
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        m = q @ np.diag([1.75, 0.25]) @ q.T
        sp = CorrelationMatrix(m)
        spec = LatentNormSpec(norms=[1.0])
        assert beta_freq_robust(spec, sp, 0, 0.05) == pytest.approx(
            beta_freq(2.0, 0, 0.05), abs=1e-9)

    def test_dominates_plain_when_lambda_exceeds_one(self):
        rng = np.random.default_rng(2)
        spec = LatentNormSpec(norms=[1.0, 1.0])
        for _ in range(20):
            sp = random_correlation(2, rng)
            assert beta_freq_robust(spec, sp, 5, 0.1) >= beta_freq(
                spec.stacked_norm(), 5, 0.1) - 1e-9


class TestCoveringNumber:
    def test_hand_values(self):
        assert covering_number(0.25, 2) == 9
        assert covering_number(0.5, 1) == 2
        assert covering_number(0.001, 2) == 251001

    def test_spec_cardinality(self):
        assert DiscretizationSpec(0.001, 2).cardinality == 251001


class TestBetaBayes:
    def test_degenerate(self):
        assert beta_bayes(1, 1.0) == 0.0

    def test_hand_value(self):
        assert beta_bayes(251001, 0.05) == pytest.approx(30.857, abs=1e-3)

    def test_doubling_adds_two_log_two(self):
        assert beta_bayes(2048, 0.05) - beta_bayes(1024, 0.05) == pytest.approx(
            2.0 * np.log(2.0))


class TestModuli:
    def test_modulus_sigma_hand_value(self):
        cs = make_set([CorrelationMatrix.two_task(0.2)])
        value = modulus_sigma(0.001, 1.0 / np.sqrt(np.e), cs)
        assert value == pytest.approx(0.034829, abs=1e-5)

    def test_modulus_sigma_zero_tau(self):
        cs = make_set([CorrelationMatrix.identity(2)])
        assert modulus_sigma(0.0, 0.6, cs) == 0.0

    def test_modulus_sigma_monotone_in_diagonal(self):
        small = make_set([CorrelationMatrix.identity(2)])
        big = make_set([CorrelationMatrix.identity(2),
                        CorrelationMatrix(np.diag([2.0, 1.0]), normalized=False)])
        assert modulus_sigma(0.01, 0.6, big) >= modulus_sigma(0.01, 0.6, small)

    def test_modulus_mu_empty_dataset(self):
        cs = make_set([CorrelationMatrix.identity(2)])
        post = gp.fit(gp.MultiTaskDataset.empty(1), CorrelationMatrix.identity(2), PARAMS)
        assert modulus_mu(0.001, 0.6, cs, [post]) == 0.0

    def test_modulus_mu_hand_value(self):
        # singleton set, unit diagonal, mean norm pinned to 1 via a 1-point fit
        ds = gp.MultiTaskDataset(np.array([[0.0]]), [1], [1.0])
        params = KernelParams(1.0, [1.0], 0.0)
        post = gp.fit(ds, CorrelationMatrix.identity(1), params)
        assert post.mean_rkhs_norm() == pytest.approx(1.0, abs=1e-4)
        cs = make_set([CorrelationMatrix.identity(1)])
        value = modulus_mu(0.001, 1.0 / np.sqrt(np.e), cs, [post])
        assert value == pytest.approx(0.034829, abs=1e-4)

    def test_modulus_mu_scales_sqrt_tau(self):
        rng = np.random.default_rng(3)
        ds = task_dataset(rng)
        member = CorrelationMatrix.two_task(0.5)
        post = gp.fit(ds, member, PARAMS)
        cs = make_set([member])
        a = modulus_mu(0.001, 0.6, cs, [post])
        b = modulus_mu(0.004, 0.6, cs, [post])
        assert b == pytest.approx(2.0 * a, rel=1e-9)


class TestFeatureLipschitz:
    def test_zero_signal_variance_limit(self):
        params = KernelParams(1e-12, [0.5])
        assert estimate_feature_lipschitz(params, 0.05, n_paths=50, grid_spec=80) < 1e-4

    def test_reproducible_across_seeds(self):
        params = KernelParams(1.0, [1.0])
        values = [estimate_feature_lipschitz(params, 0.05, n_paths=500, grid_spec=200, seed=s)
                  for s in (0, 1)]
        assert abs(values[0] - values[1]) / values[0] < 0.10

    def test_scales_with_signal_std(self):
        base = estimate_feature_lipschitz(KernelParams(1.0, [1.0]), 0.05, 200, 100, seed=5)
        scaled = estimate_feature_lipschitz(KernelParams(4.0, [1.0]), 0.05, 200, 100, seed=5)
        assert scaled == pytest.approx(2.0 * base, rel=1e-9)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ConfigError):
            estimate_feature_lipschitz(KernelParams(1.0, [0.05]), 0.05, 50, 10)


class TestSampleLipschitzBound:
    def test_single_task(self):
        cs = make_set([CorrelationMatrix.identity(1)])
        assert sample_lipschitz_bound(cs, 0.7) == pytest.approx(0.7)

    def test_scaled_identity(self):
        cs = make_set([CorrelationMatrix(2.0 * np.eye(2), normalized=False)])
        assert sample_lipschitz_bound(cs, 1.0) == pytest.approx(2.0)

    def test_identity_two_tasks(self):
        cs = make_set([CorrelationMatrix.identity(2)])
        assert sample_lipschitz_bound(cs, 1.0) == pytest.approx(np.sqrt(2.0))


class TestGammaFactor:
    def test_singleton(self):
        s = CorrelationMatrix.two_task(0.4)
        assert gamma_factor(s, make_set([s])) == pytest.approx(1.0)

    @pytest.mark.parametrize("copies", [1, 3])
    def test_every_member_sigma_prime_is_exactly_one(self, copies, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("gamma decomposed a member equal to sigma-prime")

        monkeypatch.setattr(bounds, "solve", no_solve)
        rng = np.random.default_rng(3)
        for sp in (CorrelationMatrix.identity(1), CorrelationMatrix.two_task(0.4),
                   random_correlation(3, rng)):
            assert gamma_factor(sp, make_set([sp] * copies)) == 1.0

    def test_one_distinct_member_takes_the_general_path(self, monkeypatch):
        rng = np.random.default_rng(6)
        sp, member = random_correlation(3, rng), random_correlation(3, rng)
        solves = []
        real = bounds.solve

        def recording(a, b, **kwargs):
            solves.append(a.shape)
            return real(a, b, **kwargs)

        monkeypatch.setattr(bounds, "solve", recording)
        expected = np.sqrt(np.linalg.norm(np.linalg.solve(sp.matrix, member.matrix), 2))
        assert gamma_factor(sp, make_set([member, member])) == pytest.approx(expected, abs=1e-12)
        assert solves == [(3, 3)]
        two = CorrelationMatrix.two_task(0.5)
        assert gamma_factor(CorrelationMatrix.identity(2), make_set([two, two])) == pytest.approx(
            np.sqrt(1.5), abs=1e-12)

    def test_identity_prime_hand_value(self):
        cs = make_set([CorrelationMatrix.identity(2), CorrelationMatrix.two_task(0.5)])
        assert gamma_factor(CorrelationMatrix.identity(2), cs) == pytest.approx(
            np.sqrt(1.5), abs=1e-10)

    def test_subset_monotone(self):
        rng = np.random.default_rng(4)
        members = [random_correlation(2, rng) for _ in range(6)]
        sp = members[0]
        full = gamma_factor(sp, make_set(members))
        reduced = gamma_factor(sp, make_set(members[:3]))
        assert reduced <= full + 1e-12

    def test_fast_path_matches_general(self):
        rng = np.random.default_rng(5)
        rs = rng.random(8) * 0.9
        members = [CorrelationMatrix.two_task(float(r)) for r in rs]
        sp = members[3]
        fast = gamma_factor(sp, make_set(members))
        best = max(np.linalg.norm(np.linalg.solve(sp.matrix, m.matrix), 2) for m in members)
        assert fast == pytest.approx(np.sqrt(best), abs=1e-10)


def finite_feature_nu_term(dataset, sigma, sigma_prime, params):
    """Rank-n feature-space oracle for the prior part of the mean-shift term.

    Eigendecomposes the base Gram to get exact features on the data, builds the
    weight vectors of both posterior means, maps one across spaces with the
    explicit operator (S'^{-1/2} S^{1/2} on the task slot), and measures the
    squared distance.
    """
    base = se_kernel_matrix(dataset.inputs, dataset.inputs, params)
    w, v = np.linalg.eigh(base)
    w = np.maximum(w, 0.0)
    phi = np.diag(np.sqrt(w)) @ v.T          # phi[:, i] features of x_i
    u = sigma.size

    def sqrtm(m):
        ew, ev = np.linalg.eigh(m)
        return (ev * np.sqrt(np.maximum(ew, 0.0))) @ ev.T

    def mean_vector(task_matrix):
        g = task_matrix[np.ix_(dataset.tasks - 1, dataset.tasks - 1)] * base
        alpha = np.linalg.solve(g + params.noise_variance * np.eye(dataset.n),
                                dataset.observations)
        root = sqrtm(task_matrix)
        vec = np.zeros(u * dataset.n)
        for i in range(dataset.n):
            task_part = root[:, dataset.tasks[i] - 1]
            vec += alpha[i] * np.kron(task_part, phi[:, i])
        return vec

    m_prime = mean_vector(sigma_prime.matrix)
    m_sigma = mean_vector(sigma.matrix)
    op = np.kron(np.linalg.inv(sqrtm(sigma_prime.matrix)) @ sqrtm(sigma.matrix),
                 np.eye(dataset.n))
    return float(np.sum((m_prime - op @ m_sigma) ** 2))


class TestNuFactor:
    def test_singleton_set_is_zero(self):
        rng = np.random.default_rng(6)
        ds = task_dataset(rng)
        sp = CorrelationMatrix.two_task(0.6)
        assert nu_factor(ds, sp, make_set([sp]), PARAMS) == pytest.approx(0.0, abs=1e-6)

    def test_scales_with_observations(self):
        rng = np.random.default_rng(7)
        ds = task_dataset(rng, n=10)
        scaled = gp.MultiTaskDataset(ds.inputs, ds.tasks, 3.0 * ds.observations)
        sp = CorrelationMatrix.two_task(0.7)
        cs = make_set([sp, CorrelationMatrix.two_task(0.3)])
        assert nu_factor(scaled, sp, cs, PARAMS) == pytest.approx(
            3.0 * nu_factor(ds, sp, cs, PARAMS), rel=1e-9)

    @pytest.mark.parametrize("u", [2, 3])
    def test_matches_finite_feature_oracle(self, u):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ds = task_dataset(rng, n=4, u=u)
            sigma = random_correlation(u, rng)
            sigma_prime = random_correlation(u, rng)
            oracle_term1 = finite_feature_nu_term(ds, sigma, sigma_prime, PARAMS)

            sn2 = PARAMS.noise_variance
            base = se_kernel_matrix(ds.inputs, ds.inputs, PARAMS)
            zi = ds.tasks - 1

            def alpha_for(m):
                g = m[np.ix_(zi, zi)] * base
                return np.linalg.solve(g + sn2 * np.eye(ds.n), ds.observations)

            a_p = alpha_for(sigma_prime.matrix)
            a_s = alpha_for(sigma.matrix)
            g_p = sigma_prime.matrix[np.ix_(zi, zi)] * base
            g_s = sigma.matrix[np.ix_(zi, zi)] * base
            cross = (sigma.matrix @ np.linalg.inv(sigma_prime.matrix) @ sigma.matrix)
            g_c = cross[np.ix_(zi, zi)] * base
            closed_term1 = a_p @ g_p @ a_p - 2.0 * a_p @ g_s @ a_s + a_s @ g_c @ a_s
            assert closed_term1 == pytest.approx(oracle_term1, abs=1e-6)

            nu = nu_factor(ds, sigma_prime, make_set([sigma]), PARAMS)
            term2 = sn2 * float(np.sum((a_s - a_p) ** 2))
            assert nu ** 2 == pytest.approx(max(oracle_term1, 0.0) + term2, abs=1e-6)

    @pytest.mark.parametrize("u", [2, 3])
    def test_mean_difference_bounded_by_nu_times_std(self, u):
        """Lemma-style inequality at random query points, per member."""
        rng = np.random.default_rng(9)
        violations = 0
        for _ in range(200):
            ds = task_dataset(rng, n=rng.integers(4, 12), u=u)
            sp = random_correlation(u, rng)
            member = random_correlation(u, rng)
            nu = nu_factor(ds, sp, make_set([member]), PARAMS)
            post_prime = gp.fit(ds, sp, PARAMS)
            post_member = gp.fit(ds, member, PARAMS)
            queries = rng.random((5, 1))
            for z in range(1, u + 1):
                mp, vp = post_prime.predict_batch(queries, z)
                mm, _ = post_member.predict_batch(queries, z)
                if np.any(np.abs(mp - mm) > nu * np.sqrt(vp) + 1e-8):
                    violations += 1
        assert violations == 0


class TestVarianceRatio:
    @pytest.mark.parametrize("u", [2, 3])
    def test_member_std_bounded_by_gamma(self, u):
        rng = np.random.default_rng(10)
        violations = 0
        for _ in range(200):
            ds = task_dataset(rng, n=rng.integers(3, 10), u=u)
            sp = random_correlation(u, rng)
            member = random_correlation(u, rng)
            gamma = gamma_factor(sp, make_set([sp, member]))
            post_prime = gp.fit(ds, sp, PARAMS)
            post_member = gp.fit(ds, member, PARAMS)
            queries = rng.random((5, 1))
            for z in range(1, u + 1):
                _, vp = post_prime.predict_batch(queries, z)
                _, vm = post_member.predict_batch(queries, z)
                if np.any(np.sqrt(vm) > gamma * np.sqrt(vp) + 1e-8):
                    violations += 1
        assert violations == 0


class TestLemmaFiveInequality:
    def test_norm_transport(self):
        """lambda * |f|_S >= |f|_S' for random finite expansions."""
        rng = np.random.default_rng(11)
        violations = 0
        for _ in range(200):
            n = rng.integers(2, 7)
            ds = gp.MultiTaskDataset(rng.random((n, 1)), rng.integers(1, 3, n), np.zeros(n))
            sigma = random_correlation(2, rng)
            sigma_prime = random_correlation(2, rng)
            c = rng.standard_normal(n)
            norm_sigma = np.sqrt(c @ gram(ds, sigma, PARAMS) @ c)
            cross = sigma.matrix @ np.linalg.inv(sigma_prime.matrix) @ sigma.matrix
            zi = ds.tasks - 1
            g_cross = cross[np.ix_(zi, zi)] * se_kernel_matrix(ds.inputs, ds.inputs, PARAMS)
            norm_prime = np.sqrt(max(c @ g_cross @ c, 0.0))
            lam = operator_norm_lambda(sigma, sigma_prime)
            if norm_prime > lam * norm_sigma + 1e-8:
                violations += 1
        assert violations == 0


class TestScalingBundle:
    def _setup(self, rng):
        ds = task_dataset(rng, n=10)
        members = [CorrelationMatrix.two_task(float(r)) for r in rng.random(5) * 0.8]
        cs = make_set(members)
        sp = members[0]
        spec = DiscretizationSpec(0.001, 2)
        return ds, sp, cs, spec

    def test_identities_hold(self):
        rng = np.random.default_rng(12)
        ds, sp, cs, spec = self._setup(rng)
        bundle = scaling_bundle(ds, sp, cs, spec, PARAMS, 0.05)
        assert bundle.beta_bar == pytest.approx(
            (bundle.nu + bundle.gamma * np.sqrt(bundle.beta_b)) ** 2, abs=1e-12)
        assert bundle.psi == pytest.approx(
            bundle.lipschitz_f * spec.tau + bundle.omega_mu
            + np.sqrt(bundle.beta_b) * bundle.omega_sigma, abs=1e-12)
        assert bundle.gamma >= 1.0

    def test_singleton_reduces_to_beta_b(self):
        rng = np.random.default_rng(13)
        ds = task_dataset(rng)
        sp = CorrelationMatrix.two_task(0.5)
        spec = DiscretizationSpec(0.001, 2)
        bundle = scaling_bundle(ds, sp, make_set([sp]), spec, PARAMS, 0.05)
        assert bundle.nu == pytest.approx(0.0, abs=1e-6)
        assert bundle.gamma == pytest.approx(1.0, abs=1e-10)
        assert bundle.beta_bar == pytest.approx(30.857, abs=1e-2)

    def test_psi_neglected_by_default(self):
        rng = np.random.default_rng(14)
        ds, sp, cs, spec = self._setup(rng)
        bundle = scaling_bundle(ds, sp, cs, spec, PARAMS, 0.05, include_psi=False)
        assert bundle.psi == 0.0 and bundle.omega_mu == 0.0 and bundle.lipschitz_f == 0.0

    def test_psi_included_is_positive(self):
        rng = np.random.default_rng(15)
        ds, sp, cs, _ = self._setup(rng)
        spec = DiscretizationSpec(0.01, 1)
        params = KernelParams(1.0, [0.3], noise_variance=0.05)
        bundle = scaling_bundle(ds, sp, cs, spec, params, 0.05, include_psi=True,
                                l_h=2.0)
        assert bundle.psi > 0.0
        assert bundle.omega_sigma > 0.0
        assert bundle.lipschitz_f > 0.0


class TestRobustModel:
    SPEC = DiscretizationSpec(0.001, 1)

    def test_one_task_is_the_identity_set(self):
        rng = np.random.default_rng(16)
        ds = task_dataset(rng, n=9, u=1)
        cs, bundle, posterior = robust_model(ds, 1, 0.1, 0.15, self.SPEC, PARAMS, 0.05)
        identity = CorrelationMatrix.identity(1)
        assert [m.key() for m in cs.members] == [identity.key()]
        assert posterior.sigma_used.key() == identity.key()
        assert bundle.nu == 0.0 and bundle.gamma == 1.0
        assert bundle.beta_b == beta_bayes(self.SPEC.cardinality, 0.05)
        assert bundle.beta_bar == pytest.approx(bundle.beta_b, rel=1e-15)   # (sqrt(b))^2

    def test_one_task_grown_refresh_computes_new_columns_only(self, monkeypatch):
        rng = np.random.default_rng(18)
        ds = task_dataset(rng, n=12, u=1)
        head = gp.MultiTaskDataset(ds.inputs[:9], ds.tasks[:9], ds.observations[:9])
        _, _, previous = robust_model(head, 1, 0.1, 0.15, self.SPEC, PARAMS, 0.05)
        shapes = []
        real = se_kernel_matrix

        def recording(X, Y, params):
            result = real(X, Y, params)
            shapes.append(result.shape)
            return result

        for module in (bounds, gp, kernels):
            monkeypatch.setattr(module, "se_kernel_matrix", recording)
        _, bundle, posterior = robust_model(ds, 1, 0.1, 0.15, self.SPEC, PARAMS, 0.05,
                                            previous=previous)
        assert shapes == [(12, 3)]                  # the new rows' columns [K12; K22] only
        assert bundle.nu == 0.0 and bundle.gamma == 1.0
        fresh = gp.fit(ds, CorrelationMatrix.identity(1), PARAMS)
        assert np.max(np.abs(posterior.chol - fresh.chol)) <= 1e-12
        assert np.max(np.abs(posterior.alpha - fresh.alpha)) <= 1e-10

    @pytest.mark.parametrize("u", [2, 3])
    def test_equals_the_scripted_pipeline(self, u):
        rng = np.random.default_rng(17)
        ds = task_dataset(rng, n=12, u=u)
        previous = gp.fit(gp.MultiTaskDataset(ds.inputs[:8], ds.tasks[:8], ds.observations[:8]),
                          CorrelationMatrix.identity(u), PARAMS)
        cs, bundle, posterior = robust_model(ds, u, 0.1, 0.15, self.SPEC, PARAMS, 0.05,
                                             seed=5, previous=previous)

        base = se_kernel_matrix(ds.inputs, ds.inputs, PARAMS)
        factor = twotask.TwoTaskFactor.build(ds, PARAMS, base) if u == 2 else None
        hyper = hyperposterior.sample_hyperposterior(ds, u, 0.1, PARAMS, seed=5, factor=factor)
        cs_hand = hyperposterior.confidence_set(hyper, 0.15)
        sp = select_sigma_prime(cs_hand)
        bundle_hand = scaling_bundle(ds, sp, cs_hand, self.SPEC, PARAMS, 0.05,
                                     base_gram=base, factor=factor)
        posterior_hand = gp.fit(ds, sp, PARAMS, base_gram=base, previous=previous)

        assert [m.key() for m in cs.members] == [m.key() for m in cs_hand.members]
        assert np.array_equal(cs.log_densities, cs_hand.log_densities)
        assert bundle == bundle_hand
        assert bundle.nu > 0.0
        assert posterior.sigma_used.key() == sp.key()
        for name in ("chol", "alpha", "whitened_obs"):
            assert np.array_equal(getattr(posterior, name), getattr(posterior_hand, name))


class TestKernelDominance:
    def test_equal_matrices_unit_beta(self):
        s = CorrelationMatrix.two_task(0.4)
        assert kernel_dominance(s, s, 1.0)

    def test_zero_beta_fails(self):
        s = CorrelationMatrix.two_task(0.4)
        assert not kernel_dominance(s, s, 0.0)

    def test_corollary_ratio(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            u = rng.integers(2, 4)
            s, sp = random_correlation(u, rng), random_correlation(u, rng)
            beta2 = np.linalg.norm(sp.matrix @ np.linalg.inv(s.matrix), 2)
            assert kernel_dominance(s, sp, np.sqrt(beta2))
