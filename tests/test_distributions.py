"""Unit tests for the distribution samplers and densities."""

import math

import numpy as np
import pytest
from scipy.special import betaln, gammaln
from scipy.stats import multivariate_normal

from bgmix import distributions as dist
from reference import (log_mvnormal_density, log_mvnormal_density_einsum,
                       sample_inv_wishart, sample_wishart)


class TestWishartParams:
    """The (alpha, V) checks of sample_wishart_batch."""

    def test_rejects_indefinite_rate(self):
        V = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            sample_wishart(3.0, V, np.random.default_rng(0))

    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            sample_wishart(0.4, np.eye(2), np.random.default_rng(0))

    def test_accepts_non_integer_alpha(self):
        draw = sample_wishart(0.51, np.eye(2), np.random.default_rng(0))
        assert draw.shape == (2, 2)
        assert np.all(np.isfinite(draw))


class TestSampleDirichlet:

    def test_moments(self):
        rng = np.random.default_rng(1)
        e = np.array([2.0, 3.0, 5.0])
        draws = np.array([dist.sample_dirichlet(e, rng) for _ in range(20000)])
        np.testing.assert_allclose(draws.mean(axis=0), e / e.sum(), atol=0.005)

    def test_simplex_constraint_with_tiny_parameters(self):
        rng = np.random.default_rng(2)
        e = np.full(10, 0.01)
        for _ in range(200):
            w = dist.sample_dirichlet(e, rng)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w >= 0)

    def test_rejects_nonpositive(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            dist.sample_dirichlet(np.array([1.0, 0.0]), rng)


class TestSampleCategorical:

    def test_frequencies(self):
        rng = np.random.default_rng(3)
        p = np.array([0.1, 0.2, 0.7])
        draws = np.array([dist.sample_categorical(p, rng)
                          for _ in range(20000)])
        freq = np.bincount(draws, minlength=3) / draws.size
        np.testing.assert_allclose(freq, p, atol=0.01)

    def test_unnormalized_weights(self):
        rng = np.random.default_rng(4)
        draws = [dist.sample_categorical(np.array([0.0, 5.0, 0.0]), rng)
                 for _ in range(50)]
        assert set(draws) == {1}

    def test_index_always_in_range(self):
        rng = np.random.default_rng(5)
        p = np.array([0.3, 0.3, 0.4])
        for _ in range(1000):
            assert 0 <= dist.sample_categorical(p, rng) < 3

    def test_rejects_zero_mass(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            dist.sample_categorical(np.zeros(3), rng)


class TestSampleMvnormal:

    def test_batch_matches_shape_and_moments(self):
        rng = np.random.default_rng(7)
        n = 20000
        b = np.tile([0.5, -0.5], (n, 1))
        B = np.tile(np.array([[1.0, -0.3], [-0.3, 0.8]]), (n, 1, 1))
        draws = dist.sample_mvnormal_batch(b, B, rng)
        assert draws.shape == (n, 2)
        np.testing.assert_allclose(draws.mean(axis=0), [0.5, -0.5], atol=0.05)
        np.testing.assert_allclose(np.cov(draws.T), B[0], atol=0.08)

class TestSampleWishart:
    """The rate convention: W(alpha, V) has mean alpha * V^-1."""

    def test_mean(self):
        rng = np.random.default_rng(8)
        V = np.array([[2.0, 0.3], [0.3, 1.0]])
        alpha = 3.2
        draws = np.array([sample_wishart(alpha, V, rng) for _ in range(20000)])
        expected = alpha * np.linalg.inv(V)
        np.testing.assert_allclose(draws.mean(axis=0), expected,
                                   rtol=0.05, atol=0.02)

    def test_scalar_case_is_gamma(self):
        """In one dimension W(alpha, v) reduces to Gamma(alpha, rate v)."""
        rng = np.random.default_rng(9)
        alpha, v = 2.7, 1.4
        draws = np.array([sample_wishart(alpha, [[v]], rng)[0, 0]
                          for _ in range(40000)])
        np.testing.assert_allclose(draws.mean(), alpha / v, rtol=0.03)
        np.testing.assert_allclose(draws.var(), alpha / v**2, rtol=0.05)

    def test_batch_matches_moments(self):
        rng = np.random.default_rng(10)
        n = 20000
        V = np.array([[1.5, -0.2], [-0.2, 0.9]])
        draws = dist.sample_wishart_batch(np.full(n, 4.1),
                                          np.tile(V, (n, 1, 1)), rng)
        assert draws.shape == (n, 2, 2)
        np.testing.assert_allclose(draws.mean(axis=0), 4.1 * np.linalg.inv(V),
                                   rtol=0.05, atol=0.02)

    def test_draws_positive_definite(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            draw = sample_wishart(1.6, np.eye(3), rng)
            assert np.all(np.linalg.eigvalsh(draw) > 0)


class TestSampleInvWishart:

    def test_mean(self):
        """Inverse draws have mean 2V / (2*alpha - r - 1)."""
        rng = np.random.default_rng(12)
        V = np.array([[2.0, 0.5], [0.5, 1.5]])
        alpha = 4.0
        draws = np.array([sample_inv_wishart(alpha, V, rng)
                          for _ in range(20000)])
        expected = 2.0 * V / (2 * alpha - 2 - 1)
        np.testing.assert_allclose(draws.mean(axis=0), expected,
                                   rtol=0.06, atol=0.02)

    def test_batch_consistent_with_single(self):
        V = np.array([[1.0, 0.2], [0.2, 2.0]])
        single = sample_inv_wishart(3.5, V, np.random.default_rng(13))
        batch = dist.sample_inv_wishart_batch(
            np.array([3.5]), V[None], np.random.default_rng(13))
        np.testing.assert_allclose(batch[0], single)


class TestLogMvnormalDensity:
    """The density takes precision factors R, R R^T = Sigma^-1. Each test
    builds Sigma, passes dist.precision_factor(Sigma), and compares with
    a reference computed from Sigma itself."""

    def test_matches_scipy(self):
        rng = np.random.default_rng(14)
        mu = np.array([0.3, -1.2, 2.0])
        A = rng.standard_normal((3, 3))
        Sigma = A @ A.T + 3 * np.eye(3)
        y = rng.standard_normal((40, 3)) * 2
        ours = np.array([log_mvnormal_density(yi, mu, Sigma) for yi in y])
        ref = multivariate_normal.logpdf(y, mean=mu, cov=Sigma)
        np.testing.assert_allclose(ours, ref, rtol=1e-10)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal((25, 2))
        mu = rng.standard_normal((4, 2))
        Sigma = np.array([np.diag(d) for d in
                          rng.uniform(0.5, 2.0, size=(4, 2))])
        Sigma[:, 0, 1] = Sigma[:, 1, 0] = 0.3
        # the upper factor precision_factor derives, and the lower one a
        # Wishart draw yields
        for R in (dist.precision_factor(Sigma),
                  np.linalg.cholesky(np.linalg.inv(Sigma))):
            batch = dist.log_mvnormal_density_batch(y, mu, R)
            assert batch.shape == (25, 4)
            for k in range(4):
                loop = np.array([log_mvnormal_density(yi, mu[k], Sigma[k])
                                 for yi in y])
                np.testing.assert_allclose(batch[:, k], loop, rtol=1e-12)

    @staticmethod
    def _column_scales(rng):
        scale = np.array([1e-3, 1.0, 1e3, 1e6])
        A = rng.standard_normal((3, 4, 4))
        Sigma = (A @ np.transpose(A, (0, 2, 1)) + np.eye(4)) * np.outer(
            scale, scale)
        mu = rng.standard_normal((3, 4)) * scale
        y = rng.standard_normal((30, 4)) * 3.0 * scale
        return y, mu, Sigma

    @staticmethod
    def _near_singular(rng):
        # rank-2 covariances in three dimensions, held up by a 1e-8 ridge
        B = rng.standard_normal((3, 3, 2))
        Sigma = B @ np.transpose(B, (0, 2, 1)) + 1e-8 * np.eye(3)
        mu = rng.standard_normal((3, 3))
        y = np.concatenate([
            mu[0] + rng.standard_normal((20, 2)) @ B[0].T,
            rng.standard_normal((10, 3))])
        return y, mu, Sigma

    @staticmethod
    def _far_from_origin(rng):
        # spreads of about 0.01 at 1e6: a form that multiplies y and mu
        # by the inverse factor before subtracting loses about 1e-8 here
        A = rng.standard_normal((3, 3, 3))
        Sigma = 1e-4 * (A @ np.transpose(A, (0, 2, 1)) + 0.5 * np.eye(3))
        mu = 1e6 + 0.01 * rng.standard_normal((3, 3))
        y = 1e6 + 0.02 * rng.standard_normal((30, 3))
        return y, mu, Sigma

    @pytest.mark.parametrize("case", ["_column_scales", "_near_singular",
                                      "_far_from_origin"])
    def test_batch_matches_loop_on_hard_inputs(self, case):
        y, mu, Sigma = getattr(self, case)(np.random.default_rng(16))
        batch = dist.log_mvnormal_density_batch(y, mu,
                                                dist.precision_factor(Sigma))
        loop = np.array([[log_mvnormal_density(yi, mu[k], Sigma[k])
                          for k in range(mu.shape[0])] for yi in y])
        np.testing.assert_allclose(batch, loop, rtol=1e-10)

    def test_permuting_components_permutes_columns_exactly(self):
        rng = np.random.default_rng(17)
        y = rng.standard_normal((50, 3))
        mu = rng.standard_normal((6, 3))
        A = rng.standard_normal((6, 3, 3))
        Sigma = A @ np.transpose(A, (0, 2, 1)) + np.eye(3)
        perm = rng.permutation(6)
        R = dist.precision_factor(Sigma)
        batch = dist.log_mvnormal_density_batch(y, mu, R)
        permuted = dist.log_mvnormal_density_batch(y, mu[perm], R[perm])
        assert np.all(permuted == batch[:, perm])

    @pytest.mark.parametrize("N, K, r", [(4000, 8, 5), (150, 12, 3),
                                         (150, 1, 3), (60, 4, 1),
                                         (1, 3, 2), (40, 2, 9)])
    def test_matches_einsum_form(self, N, K, r):
        """The (K, r, N) layout sums the r squares in another order than
        the einsum over (K, N, r), so only the last bits may differ."""
        y, mu, Sigma = self._inputs(np.random.default_rng(N + K + r), N, K, r)
        batch = dist.log_mvnormal_density_batch(y, mu,
                                                dist.precision_factor(Sigma))
        assert batch.shape == (N, K)
        np.testing.assert_allclose(
            batch, log_mvnormal_density_einsum(y, mu, Sigma), rtol=1e-12)

    @staticmethod
    def _inputs(rng, N, K, r):
        A = rng.standard_normal((K, r, r))
        Sigma = A @ np.transpose(A, (0, 2, 1)) + np.eye(r)
        return (rng.standard_normal((N, r)) * 2, rng.standard_normal((K, r)),
                Sigma)

    def test_each_call_returns_a_new_array(self):
        rng = np.random.default_rng(19)
        results = []
        for N, K in [(4000, 8), (150, 3), (4000, 8)]:
            y, mu, Sigma = self._inputs(rng, N, K, 5)
            batch = dist.log_mvnormal_density_batch(
                y, mu, dist.precision_factor(Sigma))
            loop = np.array([[log_mvnormal_density(yi, mu[k], Sigma[k])
                              for k in range(K)] for yi in y])
            np.testing.assert_allclose(batch, loop, rtol=1e-10)
            results.append(batch)
        for i, a in enumerate(results):
            for b in results[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("N, K, r", [(4000, 8, 5), (150, 3, 1)])
    def test_returns_transpose_of_c_ordered_rows(self, N, K, r):
        """classify walks the (K, N) rows and the trace log-likelihood
        sums over K in this layout, so both rely on it."""
        y, mu, Sigma = self._inputs(np.random.default_rng(N * K), N, K, r)
        out = dist.log_mvnormal_density_batch(y, mu,
                                              dist.precision_factor(Sigma))
        assert out.shape == (N, K)
        assert out.T.flags.c_contiguous


class TestLogGamma:

    def test_factorials(self):
        """Gamma(n) = (n - 1)! for n = 1..20."""
        n = np.arange(1, 21)
        want = np.log([float(math.factorial(m - 1)) for m in n])
        np.testing.assert_allclose(dist.log_gamma(n), want, rtol=1e-14,
                                   atol=1e-15)

    def test_half(self):
        """Gamma(1/2) = sqrt(pi)."""
        np.testing.assert_allclose(dist.log_gamma(0.5),
                                   0.5 * math.log(math.pi), rtol=1e-15)

    def test_scalar_gives_float(self):
        for x in (3, 2.5, np.float64(2.5), np.array(2.5)):
            out = dist.log_gamma(x)
            assert type(out) is float
            assert out == math.lgamma(float(x))

    def test_array_keeps_shape(self):
        x = np.linspace(0.1, 50.0, 12).reshape(3, 4)
        out = dist.log_gamma(x)
        assert out.shape == (3, 4)
        assert out.dtype == float
        np.testing.assert_allclose(out, gammaln(x), rtol=1e-13)


class TestBnbLogPmf:

    def test_matches_scipy_betaln(self):
        x = np.arange(0, 4000)
        for a_l, a_pi, b_pi in ((1.0, 4.0, 3.0), (0.3, 1.5, 12.0)):
            want = (gammaln(a_l + x) - gammaln(x + 1.0) - gammaln(a_l)
                    + betaln(a_pi + a_l, b_pi + x) - betaln(a_pi, b_pi))
            np.testing.assert_allclose(dist.bnb_log_pmf(x, a_l, a_pi, b_pi),
                                       want, rtol=0, atol=1e-10)

    def test_scalar_gives_float(self):
        assert type(dist.bnb_log_pmf(2, 1.0, 4.0, 3.0)) is float

    def test_mass_at_zero(self):
        """P(X = 0) = B(a_pi + a_l, b_pi) / B(a_pi, b_pi) = 4/7 for (1,4,3)."""
        np.testing.assert_allclose(np.exp(dist.bnb_log_pmf(0, 1.0, 4.0, 3.0)),
                                   4.0 / 7.0, rtol=1e-13)

    def test_sums_to_one(self):
        x = np.arange(0, 4000)
        total = np.exp(dist.bnb_log_pmf(x, 1.0, 4.0, 3.0)).sum()
        np.testing.assert_allclose(total, 1.0, atol=1e-6)

    def test_matches_monte_carlo(self):
        """The pmf agrees with the defining beta mixture of negative binomials."""
        rng = np.random.default_rng(16)
        n = 200000
        p = rng.beta(4.0, 3.0, size=n)
        draws = rng.negative_binomial(1.0, p)
        for x in (0, 1, 2, 5):
            mc = np.mean(draws == x)
            np.testing.assert_allclose(np.exp(dist.bnb_log_pmf(x, 1.0, 4.0, 3.0)),
                                       mc, atol=0.004)

    def test_vectorized(self):
        x = np.array([0, 1, 2])
        out = dist.bnb_log_pmf(x, 1.0, 4.0, 3.0)
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0)

    def test_rejects_non_integer_and_negative(self):
        with pytest.raises(ValueError):
            dist.bnb_log_pmf(1.5, 1.0, 4.0, 3.0)
        with pytest.raises(ValueError):
            dist.bnb_log_pmf(-1, 1.0, 4.0, 3.0)
        with pytest.raises(ValueError):
            dist.bnb_log_pmf(0, 0.0, 4.0, 3.0)


class TestSeededReproducibility:

    def test_same_seed_same_draws(self):
        V = np.array([[1.0, 0.4], [0.4, 2.0]])
        a = sample_wishart(2.5, V, np.random.default_rng(17))
        b = sample_wishart(2.5, V, np.random.default_rng(17))
        np.testing.assert_array_equal(a, b)
