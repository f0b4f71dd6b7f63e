import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from samsbo import bounds, gp, hyperposterior, kernels, twotask
from samsbo.bounds import (
    ScalingBundle,
    beta_bayes,
    beta_freq,
    covering_number,
    nu_factor,
    robust_model,
    scaling_bundle,
    select_sigma_prime,
)
from samsbo.hyperposterior import ConfidenceSet
from samsbo.kernels import CorrelationMatrix, KernelParams, gram, se_kernel_matrix
from samsbo.safeopt import make_grid

from oracles import (
    beta_freq_robust,
    empty_dataset,
    gamma_at,
    kernel_dominance,
    operator_norm_lambda,
    rkhs_norm_exact,
    stage_factor,
)
from test_kernels import random_correlation

PARAMS = KernelParams(1.0, [0.3], noise_variance=0.05)


def make_set(matrices):
    return ConfidenceSet(tuple(matrices))


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
        for _ in range(100):
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
        spec = [1.0, 2.0]
        ident = CorrelationMatrix.identity(2)
        assert beta_freq_robust(spec, ident, 10, 0.05) == pytest.approx(
            beta_freq(np.sqrt(5.0), 10, 0.05))

    def test_lambda_from_inverse_spectrum(self):
        # eigenvalues {0.25, 1.75} -> lambda = sqrt(1 / 0.25) = 2
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        m = q @ np.diag([1.75, 0.25]) @ q.T
        sp = CorrelationMatrix(m)
        spec = [1.0]
        assert beta_freq_robust(spec, sp, 0, 0.05) == pytest.approx(
            beta_freq(2.0, 0, 0.05), abs=1e-9)

    def test_dominates_plain_when_lambda_exceeds_one(self):
        rng = np.random.default_rng(2)
        spec = [1.0, 1.0]
        for _ in range(20):
            sp = random_correlation(2, rng)
            assert beta_freq_robust(spec, sp, 5, 0.1) >= beta_freq(
                np.sqrt(2.0), 5, 0.1) - 1e-9

    def test_negative_norm_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            beta_freq_robust([1.0, -0.5], CorrelationMatrix.identity(2), 5, 0.1)


class TestCoveringNumber:
    def test_hand_values(self):
        assert covering_number(0.25, 2) == 9
        assert covering_number(0.5, 1) == 2
        assert covering_number(0.001, 2) == 251001


class TestBetaBayes:
    def test_degenerate(self):
        assert beta_bayes(1, 1.0) == 0.0

    def test_hand_value(self):
        assert beta_bayes(251001, 0.05) == pytest.approx(30.857, abs=1e-3)

    def test_doubling_adds_two_log_two(self):
        assert beta_bayes(2048, 0.05) - beta_bayes(1024, 0.05) == pytest.approx(
            2.0 * np.log(2.0))


def minimax_sets(kind):
    """Confidence-set member lists of one kind for the sigma-prime minimax."""
    rng = np.random.default_rng(21)
    if kind == "2x2":
        sets = [[CorrelationMatrix.two_task(float(r)) for r in rng.random(k) * 0.9]
                for k in (2, 5, 8)]
        return sets + [[CorrelationMatrix.two_task(r) for r in (0.3, 0.6, 0.3, 0.6)]]
    if kind == "near-unit 2x2":     # a valid diagonal off 1 still takes the closed form
        return [[CorrelationMatrix(np.array([[1.0 + 1e-10, r], [r, 1.0]]))
                 for r in (0.1, 0.35, 0.6, 0.85)]]
    if kind == "3x3":
        return [[random_correlation(3, rng) for _ in range(k)] for k in (2, 4, 6)]
    return [[sp] * copies for sp in (CorrelationMatrix.identity(1),
                                     CorrelationMatrix.two_task(0.4),
                                     random_correlation(3, rng)) for copies in (1, 3)]


def no_solve(*args, **kwargs):
    raise AssertionError("gamma decomposed a member equal to sigma-prime")


class TestGammaFactor:
    """gamma is the value of the minimax that picks sigma-prime."""

    @pytest.mark.parametrize("kind", ["2x2", "near-unit 2x2", "3x3", "single"])
    def test_gamma_is_the_minimax_value(self, kind, monkeypatch):
        if kind == "single":
            monkeypatch.setattr(scipy.linalg, "solve", no_solve)
        for members in minimax_sets(kind):
            sp, gamma = select_sigma_prime(make_set(members))
            assert any(member is sp for member in members)
            assert gamma == gamma_at(sp, members)           # bit for bit
            assert all(gamma_at(member, members) >= gamma for member in members)
            if kind == "single":
                assert gamma == 1.0

    def test_singleton(self):
        s = CorrelationMatrix.two_task(0.4)
        sp, gamma = select_sigma_prime(make_set([s]))
        assert sp is s and gamma == pytest.approx(1.0)

    @pytest.mark.parametrize("copies", [1, 3])
    def test_every_member_sigma_prime_is_exactly_one(self, copies, monkeypatch):
        monkeypatch.setattr(scipy.linalg, "solve", no_solve)
        rng = np.random.default_rng(3)
        for sp in (CorrelationMatrix.identity(1), CorrelationMatrix.two_task(0.4),
                   random_correlation(3, rng)):
            assert select_sigma_prime(make_set([sp] * copies)) == (sp, 1.0)

    def test_one_distinct_member_takes_the_general_path(self, monkeypatch):
        rng = np.random.default_rng(6)
        first, member = random_correlation(3, rng), random_correlation(3, rng)
        solves = []
        real = scipy.linalg.solve

        def recording(a, b, **kwargs):
            solves.append(a.shape)
            return real(a, b, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve", recording)
        members = [first, member, member]
        sp, gamma = select_sigma_prime(make_set(members))
        expected = min(np.sqrt(max(np.linalg.norm(np.linalg.solve(c.matrix, m.matrix), 2)
                                   for m in members)) for c in members)
        assert gamma == pytest.approx(expected, abs=1e-12)
        assert solves == [(3, 3)] * 4               # each ordered pair of unique members once
        two = CorrelationMatrix.two_task(0.5)
        sp, gamma = select_sigma_prime(make_set([CorrelationMatrix.identity(2), two, two]))
        assert sp.key() == CorrelationMatrix.identity(2).key()
        assert gamma == pytest.approx(np.sqrt(1.5), abs=1e-12)

    def test_identity_prime_hand_value(self):
        cs = make_set([CorrelationMatrix.identity(2), CorrelationMatrix.two_task(0.5)])
        sp, gamma = select_sigma_prime(cs)
        assert sp is cs.members[0]
        assert gamma == pytest.approx(np.sqrt(1.5), abs=1e-10)

    def test_fast_path_matches_general(self):
        rng = np.random.default_rng(5)
        rs = rng.random(8) * 0.9
        members = [CorrelationMatrix.two_task(float(r)) for r in rs]
        sp, fast = select_sigma_prime(make_set(members))
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
        assert nu_factor(ds, sp, make_set([sp]), PARAMS,
                         factor=stage_factor(ds, 2, PARAMS)) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("u", [2, 3])
    def test_empty_data_reach_the_noise_check(self, u):
        sp = CorrelationMatrix.identity(u)
        cs = make_set([sp, random_correlation(u, np.random.default_rng(u))])
        noiseless = KernelParams(1.0, [0.3], noise_variance=0.0)
        with pytest.raises(ValueError, match="positive noise variance"):
            nu_factor(empty_dataset(1), sp, cs, noiseless, factor=None)

    def test_scales_with_observations(self):
        rng = np.random.default_rng(7)
        ds = task_dataset(rng, n=10)
        scaled = gp.MultiTaskDataset(ds.inputs, ds.tasks, 3.0 * ds.observations)
        sp = CorrelationMatrix.two_task(0.7)
        cs = make_set([sp, CorrelationMatrix.two_task(0.3)])
        nu_scaled = nu_factor(scaled, sp, cs, PARAMS, factor=stage_factor(scaled, 2, PARAMS))
        assert nu_scaled == pytest.approx(
            3.0 * nu_factor(ds, sp, cs, PARAMS, factor=stage_factor(ds, 2, PARAMS)), rel=1e-9)

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

            nu = nu_factor(ds, sigma_prime, make_set([sigma]), PARAMS,
                           factor=stage_factor(ds, u, PARAMS))
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
            nu = nu_factor(ds, sp, make_set([member]), PARAMS, factor=stage_factor(ds, u, PARAMS))
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
            members = [random_correlation(u, rng), random_correlation(u, rng)]
            sp, gamma = select_sigma_prime(make_set(members))
            post_prime = gp.fit(ds, sp, PARAMS)
            posts = [gp.fit(ds, member, PARAMS) for member in members]
            queries = rng.random((5, 1))
            for z in range(1, u + 1):
                _, vp = post_prime.predict_batch(queries, z)
                for post_member in posts:
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
        return ds, make_set(members), covering_number(0.001, 2)

    def test_identities_hold(self):
        rng = np.random.default_rng(12)
        ds, cs, cardinality = self._setup(rng)
        bundle = scaling_bundle(ds, cs, cardinality, PARAMS, 0.05,
                                factor=stage_factor(ds, 2, PARAMS))
        assert bundle.beta_bar == (bundle.nu + bundle.gamma * math.sqrt(bundle.beta_b)) ** 2
        assert bundle.gamma >= 1.0

    @pytest.mark.parametrize("values", [(30.857, 0.0, 1.0), (2.0, 0.37, 1.8), (0.0, 1.5, 2.0)])
    def test_beta_bar_is_computed_from_the_three_values(self, values):
        # a hand-built bundle cannot carry a beta_bar that disagrees with beta_b, nu and gamma
        beta_b, nu, gamma = values
        bundle = ScalingBundle(CorrelationMatrix.two_task(0.5), beta_b, nu, gamma)
        assert bundle.beta_bar == (nu + gamma * math.sqrt(beta_b)) ** 2
        with pytest.raises(TypeError):
            ScalingBundle(CorrelationMatrix.two_task(0.5), beta_b, nu, gamma, beta_bar=1.0)

    def test_singleton_reduces_to_beta_b(self):
        rng = np.random.default_rng(13)
        ds = task_dataset(rng)
        sp = CorrelationMatrix.two_task(0.5)
        bundle = scaling_bundle(ds, make_set([sp]), covering_number(0.001, 2), PARAMS, 0.05,
                                factor=stage_factor(ds, 2, PARAMS))
        assert bundle.sigma_prime is sp
        assert bundle.nu == pytest.approx(0.0, abs=1e-6)
        assert bundle.gamma == pytest.approx(1.0, abs=1e-10)
        assert bundle.beta_bar == pytest.approx(30.857, abs=1e-2)

    def test_bundle_holds_the_centre_and_four_ingredients(self):
        # the bound is certified on the discretization only: no correction term
        rng = np.random.default_rng(14)
        ds, cs, cardinality = self._setup(rng)
        factor = stage_factor(ds, 2, PARAMS)
        bundle = scaling_bundle(ds, cs, cardinality, PARAMS, 0.05, factor=factor)
        assert [f.name for f in dataclasses.fields(bundle)] == ["sigma_prime", "beta_b", "nu",
                                                                "gamma"]
        assert (bundle.sigma_prime, bundle.gamma) == select_sigma_prime(cs)
        assert bundle.nu == nu_factor(ds, bundle.sigma_prime, cs, PARAMS, factor=factor)
        assert bundle.beta_b == beta_bayes(cardinality, 0.05)

class TestRobustModel:
    CARDINALITY = covering_number(0.001, 1)

    def test_one_task_is_the_identity_set(self):
        rng = np.random.default_rng(16)
        ds = task_dataset(rng, n=9, u=1)
        model = robust_model(ds, 1, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05)
        cs, bundle, posterior = model.confidence_set, model.bundle, model.posterior
        identity = CorrelationMatrix.identity(1)
        assert [m.key() for m in cs.members] == [identity.key()]
        assert posterior.sigma_used.key() == identity.key()
        assert bundle.nu == 0.0 and bundle.gamma == 1.0
        assert bundle.beta_b == beta_bayes(self.CARDINALITY, 0.05)
        assert bundle.beta_bar == pytest.approx(bundle.beta_b, rel=1e-15)   # (sqrt(b))^2

    @pytest.mark.parametrize("u", [1, 2, 3])
    def test_empty_data_predict_the_prior(self, u):
        """No special case: each route's general path gives mean 0, the prior variance and
        nu exactly 0, from a set of several members for two and three tasks."""
        model = robust_model(empty_dataset(1), u, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05)
        cs, bundle, posterior = model.confidence_set, model.bundle, model.posterior
        assert bundle.nu == 0.0 and (u == 1 or len(set(cs.members)) > 1)
        writable = np.linspace(0.0, 1.0, 7).reshape(-1, 1)
        frozen = writable.copy()
        frozen.setflags(write=False)
        for points in (frozen, writable):
            for z in range(1, u + 1):
                mean, variance = posterior.predict_batch(points, z)
                prior = bundle.sigma_prime.matrix[z - 1, z - 1] * PARAMS.signal_variance
                assert np.all(mean == 0.0) and np.all(variance == prior)
                assert mean.shape == variance.shape == (7,)

    def test_one_task_grown_refresh_computes_new_columns_only(self, monkeypatch):
        rng = np.random.default_rng(18)
        ds = task_dataset(rng, n=12, u=1)
        head = gp.MultiTaskDataset(ds.inputs[:9], ds.tasks[:9], ds.observations[:9])
        previous = robust_model(head, 1, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05)
        shapes = []
        real = se_kernel_matrix

        def recording(X, Y, params):
            result = real(X, Y, params)
            shapes.append(result.shape)
            return result

        for module in (bounds, gp, kernels):
            monkeypatch.setattr(module, "se_kernel_matrix", recording)
        model = robust_model(ds, 1, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05, previous=previous)
        bundle, posterior = model.bundle, model.posterior
        assert shapes == [(12, 3)]                  # the new rows' columns [K12; K22] only
        assert bundle.nu == 0.0 and bundle.gamma == 1.0
        fresh = gp.fit(ds, CorrelationMatrix.identity(1), PARAMS)
        assert np.max(np.abs(posterior.chol - fresh.chol)) <= 1e-12
        assert np.max(np.abs(posterior.whitened_obs - fresh.whitened_obs)) <= 1e-10

    def test_two_task_refresh_takes_the_closed_forms(self, monkeypatch):
        rng = np.random.default_rng(19)
        ds = task_dataset(rng, n=12, u=2)

        def general_path(*args, **kwargs):
            raise AssertionError("a two-task refresh reached the general path")

        monkeypatch.setattr(scipy.linalg, "solve", general_path)
        monkeypatch.setattr(scipy.linalg, "cho_factor", general_path)
        model = robust_model(ds, 2, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05)
        cs, bundle = model.confidence_set, model.bundle
        assert len(cs) > 1 and bundle.nu > 0.0 and bundle.gamma > 1.0
        rs = cs.offdiagonals
        assert cs.offdiagonals is rs and not rs.flags.writeable
        assert np.array_equal(rs, [m.matrix[0, 1] for m in cs.members])
        assert make_set([CorrelationMatrix.identity(3)]).offdiagonals is None

    def test_nu_reads_each_distinct_r_once(self, monkeypatch):
        """nu's sorted distinct r are np.unique's, on a set with repeated cell edges."""
        rng = np.random.default_rng(23)
        ds = task_dataset(rng, n=12, u=2)
        rs = np.concatenate([hyperposterior.CELL_MIDPOINTS[[7, 5, 6]],
                             hyperposterior.CELL_EDGES[[5, 8, 5, 8, 0]]])
        cs = ConfidenceSet.of_offdiagonals(rs)
        seen = []
        real = twotask.TwoTaskFactor.nu

        def recording(self, r_prime, distinct):
            seen.append(distinct)
            return real(self, r_prime, distinct)

        monkeypatch.setattr(twotask.TwoTaskFactor, "nu", recording)
        sp = cs.member(1)
        factor = twotask.TwoTaskFactor.build(ds, PARAMS)
        nu = nu_factor(ds, sp, cs, PARAMS, factor=factor)
        assert np.array_equal(seen[0], np.unique(rs)) and len(seen[0]) == 6
        assert nu == real(factor, float(sp.matrix[0, 1]), np.unique(rs))
        assert nu_factor(ds, sp, ConfidenceSet.of_offdiagonals(rs[[1, 1]]), PARAMS,
                         factor=factor) == 0.0

    def test_two_task_refresh_fits_three_times(self, monkeypatch):
        """Two per-task fits and the joint fit at Sigma(CHECK_R), whose likelihood is read once."""
        rng = np.random.default_rng(22)
        ds = task_dataset(rng, n=16)
        head = gp.MultiTaskDataset(ds.inputs[:12], ds.tasks[:12], ds.observations[:12])
        calls = {"fit": 0, "log_marginal_likelihood": 0}
        for name in calls:
            real = getattr(gp, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(gp, name, counting)
        previous = None
        for data in (head, ds):                 # fresh, then grown
            for name in calls:
                calls[name] = 0
            previous = robust_model(data, 2, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05,
                                    previous=previous)
            assert calls == {"fit": 3, "log_marginal_likelihood": 1}

    def test_grown_refreshes_match_fresh_ones(self):
        """Along a chain of two-task refreshes the base Gram grows bit for bit and the
        cross-check's joint fit grows to a fresh fit's log likelihood."""
        rng = np.random.default_rng(21)
        full = task_dataset(rng, n=35, d=2)
        params = KernelParams(1.0, [0.3, 0.4], noise_variance=0.05)
        previous, m = None, 0
        for n in (10, 13, 19, 20, 28, 35):
            ds = gp.MultiTaskDataset(full.inputs[:n], full.tasks[:n],
                                     rng.standard_normal(n))   # refits re-standardize every y
            previous = robust_model(ds, 2, 0.1, 0.15, self.CARDINALITY, params, 0.05,
                                    previous=previous)
            factor = previous.posterior.factor
            if m:                               # the old rows' factor is kept as it was
                assert np.array_equal(factor.check.chol[:m, :m], check_chol)
            check_chol, m = factor.check.chol, n
            assert np.array_equal(factor.base, se_kernel_matrix(ds.inputs, ds.inputs, params))
            sigma = factor.check.sigma_used
            assert sigma == CorrelationMatrix.two_task(twotask.CHECK_R)
            grown = gp.log_marginal_likelihood(factor.check)
            fresh = gp.log_marginal_likelihood(gp.fit(ds, sigma, params))
            assert abs(grown - fresh) <= 1e-10 * abs(fresh)
            assert abs(factor.log_likelihood(twotask.CHECK_R) - fresh) <= 1e-8 * abs(fresh)

    @pytest.mark.parametrize("u", [2, 3])
    def test_equals_the_scripted_pipeline(self, u):
        rng = np.random.default_rng(17)
        ds = task_dataset(rng, n=12, u=u)
        head = gp.MultiTaskDataset(ds.inputs[:8], ds.tasks[:8], ds.observations[:8])
        previous = robust_model(head, u, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05, seed=5)
        model = robust_model(ds, u, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05, seed=5,
                             previous=previous)
        cs, bundle, posterior = model.confidence_set, model.bundle, model.posterior

        factor = (twotask.TwoTaskFactor.build(ds, PARAMS, previous=previous.posterior.factor)
                  if u == 2 else None)
        hyper = hyperposterior.sample_hyperposterior(ds, u, 0.1, PARAMS, seed=5, factor=factor)
        cs_hand = hyperposterior.confidence_set(hyper, 0.15)
        bundle_hand = scaling_bundle(ds, cs_hand, self.CARDINALITY, PARAMS, 0.05, factor=factor)
        sp = bundle_hand.sigma_prime
        if u == 2:
            posterior_hand = factor.posterior(sp)
        else:
            posterior_hand = gp.fit(ds, sp, PARAMS, previous=previous.posterior)

        assert cs.members == cs_hand.members
        assert bundle == bundle_hand
        assert bundle.nu > 0.0
        assert posterior.sigma_used == sp
        assert type(posterior) is type(posterior_hand)
        points = make_grid(1, size=64).points
        for z in range(1, u + 1):
            for got, want in zip(posterior.predict_batch(points, z),
                                 posterior_hand.predict_batch(points, z)):
                assert np.array_equal(got, want)
        if u == 3:
            for name in ("chol", "whitened_obs"):
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
        for _ in range(100):
            u = rng.integers(2, 5)
            s, sp = random_correlation(u, rng), random_correlation(u, rng)
            beta2 = np.linalg.norm(sp.matrix @ np.linalg.inv(s.matrix), 2)
            assert kernel_dominance(s, sp, np.sqrt(beta2))
