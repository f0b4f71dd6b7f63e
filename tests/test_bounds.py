import dataclasses

import numpy as np
import pytest

from samsbo import bounds, gp, hyperposterior, kernels, twotask
from samsbo.bounds import (
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
    gamma_at,
    kernel_dominance,
    operator_norm_lambda,
    rkhs_norm_exact,
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
            monkeypatch.setattr(bounds, "solve", no_solve)
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
        monkeypatch.setattr(bounds, "solve", no_solve)
        rng = np.random.default_rng(3)
        for sp in (CorrelationMatrix.identity(1), CorrelationMatrix.two_task(0.4),
                   random_correlation(3, rng)):
            assert select_sigma_prime(make_set([sp] * copies)) == (sp, 1.0)

    def test_one_distinct_member_takes_the_general_path(self, monkeypatch):
        rng = np.random.default_rng(6)
        first, member = random_correlation(3, rng), random_correlation(3, rng)
        solves = []
        real = bounds.solve

        def recording(a, b, **kwargs):
            solves.append(a.shape)
            return real(a, b, **kwargs)

        monkeypatch.setattr(bounds, "solve", recording)
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
        bundle = scaling_bundle(ds, cs, cardinality, PARAMS, 0.05)
        assert bundle.beta_bar == pytest.approx(
            (bundle.nu + bundle.gamma * np.sqrt(bundle.beta_b)) ** 2, abs=1e-12)
        assert bundle.gamma >= 1.0

    def test_singleton_reduces_to_beta_b(self):
        rng = np.random.default_rng(13)
        ds = task_dataset(rng)
        sp = CorrelationMatrix.two_task(0.5)
        bundle = scaling_bundle(ds, make_set([sp]), covering_number(0.001, 2), PARAMS, 0.05)
        assert bundle.sigma_prime is sp
        assert bundle.nu == pytest.approx(0.0, abs=1e-6)
        assert bundle.gamma == pytest.approx(1.0, abs=1e-10)
        assert bundle.beta_bar == pytest.approx(30.857, abs=1e-2)

    def test_bundle_holds_the_centre_and_four_ingredients(self):
        # the bound is certified on the discretization only: no correction term
        rng = np.random.default_rng(14)
        ds, cs, cardinality = self._setup(rng)
        bundle = scaling_bundle(ds, cs, cardinality, PARAMS, 0.05)
        assert [f.name for f in dataclasses.fields(bundle)] == ["sigma_prime", "beta_b", "nu",
                                                                "gamma", "beta_bar"]
        assert (bundle.sigma_prime, bundle.gamma) == select_sigma_prime(cs)
        assert bundle.nu == nu_factor(ds, bundle.sigma_prime, cs, PARAMS)
        assert bundle.beta_b == beta_bayes(cardinality, 0.05)

class TestRobustModel:
    CARDINALITY = covering_number(0.001, 1)

    def test_one_task_is_the_identity_set(self):
        rng = np.random.default_rng(16)
        ds = task_dataset(rng, n=9, u=1)
        cs, bundle, posterior = robust_model(ds, 1, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05)
        identity = CorrelationMatrix.identity(1)
        assert [m.key() for m in cs.members] == [identity.key()]
        assert posterior.sigma_used.key() == identity.key()
        assert bundle.nu == 0.0 and bundle.gamma == 1.0
        assert bundle.beta_b == beta_bayes(self.CARDINALITY, 0.05)
        assert bundle.beta_bar == pytest.approx(bundle.beta_b, rel=1e-15)   # (sqrt(b))^2

    def test_one_task_grown_refresh_computes_new_columns_only(self, monkeypatch):
        rng = np.random.default_rng(18)
        ds = task_dataset(rng, n=12, u=1)
        head = gp.MultiTaskDataset(ds.inputs[:9], ds.tasks[:9], ds.observations[:9])
        _, _, previous = robust_model(head, 1, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05)
        shapes = []
        real = se_kernel_matrix

        def recording(X, Y, params):
            result = real(X, Y, params)
            shapes.append(result.shape)
            return result

        for module in (bounds, gp, kernels):
            monkeypatch.setattr(module, "se_kernel_matrix", recording)
        _, bundle, posterior = robust_model(ds, 1, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05,
                                            previous=previous)
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

        monkeypatch.setattr(bounds, "solve", general_path)
        monkeypatch.setattr(bounds, "cho_factor", general_path)
        cs, bundle, _ = robust_model(ds, 2, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05)
        assert len(cs) > 1 and bundle.nu > 0.0 and bundle.gamma > 1.0
        rs = cs.offdiagonals
        assert cs.offdiagonals is rs and not rs.flags.writeable
        assert np.array_equal(rs, [m.matrix[0, 1] for m in cs.members])
        assert make_set([CorrelationMatrix.identity(3)]).offdiagonals is None

    @pytest.mark.parametrize("u", [2, 3])
    def test_equals_the_scripted_pipeline(self, u):
        rng = np.random.default_rng(17)
        ds = task_dataset(rng, n=12, u=u)
        previous = gp.fit(gp.MultiTaskDataset(ds.inputs[:8], ds.tasks[:8], ds.observations[:8]),
                          CorrelationMatrix.identity(u), PARAMS)
        cs, bundle, posterior = robust_model(ds, u, 0.1, 0.15, self.CARDINALITY, PARAMS, 0.05,
                                             seed=5, previous=previous)

        base = se_kernel_matrix(ds.inputs, ds.inputs, PARAMS)
        factor = twotask.TwoTaskFactor.build(ds, PARAMS, base) if u == 2 else None
        hyper = hyperposterior.sample_hyperposterior(ds, u, 0.1, PARAMS, seed=5, factor=factor)
        cs_hand = hyperposterior.confidence_set(hyper, 0.15)
        bundle_hand = scaling_bundle(ds, cs_hand, self.CARDINALITY, PARAMS, 0.05, factor=factor)
        sp = bundle_hand.sigma_prime
        if u == 2:
            posterior_hand = factor.posterior(sp)
        else:
            posterior_hand = gp.fit(ds, sp, PARAMS, base_gram=base, previous=previous)

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
