"""Unit tests for model types, the default prior, and likelihoods."""

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from bgmix import distributions as dist
from bgmix.distributions import bnb_log_pmf
from bgmix.model import (ChainConfig, Dataset, DynamicGamma, FixedGamma,
                         FixedK, MixtureState, RandomK, build_default_prior,
                         complete_data_log_likelihood, generate_synthetic,
                         mixture_log_likelihood, sample_components,
                         _column_median)


def _dataset(rng, n=40, r=2):
    scale = np.resize([2.0, 5.0], r)
    shift = np.resize([1.0, -3.0], r)
    y = rng.standard_normal((n, r)) * scale + shift
    return Dataset(y=y, feature_names=[f"x{j+1}" for j in range(r)])


class TestGammaSpecs:

    def test_fixed_gamma_constant_in_k(self):
        spec = FixedGamma(0.01)
        assert spec.gamma_for(1) == 0.01
        assert spec.gamma_for(50) == 0.01

    def test_dynamic_gamma_scales_inversely(self):
        spec = DynamicGamma(0.5)
        np.testing.assert_allclose(spec.gamma_for(4), 0.125)
        np.testing.assert_allclose(spec.gamma_for(4) * 4,
                                   spec.gamma_for(10) * 10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FixedGamma(0.0)
        with pytest.raises(ValueError):
            DynamicGamma(-1.0)


class TestRandomK:

    def test_log_prior_is_the_bnb_table(self):
        kp = RandomK(1.0, 4.0, 3.0, k_max=30, k_init=5)
        expected = bnb_log_pmf(np.arange(30), 1.0, 4.0, 3.0)
        assert kp.log_prior.tobytes() == expected.tobytes()
        assert not kp.log_prior.flags.writeable

    def test_table_stays_out_of_equality_hash_and_repr(self):
        a = RandomK(1.0, 4.0, 3.0, k_max=30)
        b = RandomK(1.0, 4.0, 3.0, k_max=30)
        assert a == b and hash(a) == hash(b)
        assert a != RandomK(1.0, 4.0, 3.0, k_max=31)
        assert "log_prior" not in repr(a)


class TestDataset:

    def test_properties(self):
        data = _dataset(np.random.default_rng(0), n=17, r=3)
        assert data.n == 17
        assert data.r == 3

    def test_rejects_mismatched_names(self):
        with pytest.raises(ValueError):
            Dataset(y=np.zeros((5, 2)), feature_names=["a"])

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            Dataset(y=np.zeros((5, 2)), feature_names=["a", "b"],
                    true_labels=np.arange(4))

    def test_rejects_nonfinite(self):
        y = np.zeros((4, 2))
        y[1, 1] = np.nan
        with pytest.raises(ValueError):
            Dataset(y=y, feature_names=["a", "b"])


class TestChainConfig:

    def test_defaults(self):
        cfg = ChainConfig()
        assert cfg.n_iter == 30000
        assert cfg.burn_in == 5000
        assert cfg.store_assignments

    def test_rejects_burnin_not_below_iters(self):
        with pytest.raises(ValueError):
            ChainConfig(n_iter=100, burn_in=100)

    def test_rejects_bad_thinning(self):
        with pytest.raises(ValueError):
            ChainConfig(thinning=0)


class TestBuildDefaultPrior:
    """The data-driven prior: location at the median, scale from ranges."""

    def test_location_and_scale(self):
        rng = np.random.default_rng(1)
        data = _dataset(rng, n=60, r=2)
        prior = build_default_prior(data)
        np.testing.assert_array_equal(prior.b0, np.median(data.y, axis=0))
        ranges = data.y.max(axis=0) - data.y.min(axis=0)
        np.testing.assert_allclose(prior.B0, np.diag(ranges ** 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 145, 150, 4000, 4001])
    def test_column_median_is_numpy_median_to_the_bit(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((n, 50)) * np.logspace(-5, 6, 50)
        y[:, :10] = np.round(y[:, :10])          # ties
        np.testing.assert_array_equal(_column_median(y),
                                      np.median(y, axis=0))

    def test_degree_parameters(self):
        data = _dataset(np.random.default_rng(2), r=3)
        prior = build_default_prior(data)
        assert prior.c0 == 2.5 + 2.0          # c + (r + 1) / 2
        assert prior.g0 == 1.0 + 1.0          # 1 + (r - 1) / 2

    def test_scale_hierarchy(self):
        data = _dataset(np.random.default_rng(3), r=2)
        prior = build_default_prior(data, c=2.5, phi=0.75)
        S = np.diag(np.diag(np.cov(data.y, rowvar=False, ddof=1)))
        np.testing.assert_allclose(prior.C0_init, 2.5 * 0.75 * S)
        np.testing.assert_allclose(prior.G0,
                                   prior.g0 * np.linalg.inv(prior.C0_init))

    def test_prior_mean_of_sigma_is_phi_s(self):
        """E[Sigma_k] = phi * S by construction of (c0, C0_init)."""
        data = _dataset(np.random.default_rng(4), r=2)
        prior = build_default_prior(data, phi=0.6)
        S = np.diag(np.diag(np.cov(data.y, rowvar=False, ddof=1)))
        r = 2
        expected = 2.0 * prior.C0_init / (2 * prior.c0 - r - 1)
        np.testing.assert_allclose(expected, 0.6 * S, rtol=1e-12)

    def test_component_update_constants_are_built_once(self):
        """B0^-1 and B0^-1 b0 are computed at construction, with the same
        calls as the component update once made per sweep, and are
        read-only."""
        prior = build_default_prior(_dataset(np.random.default_rng(5), r=3))
        B0_inv = np.linalg.inv(prior.B0)
        np.testing.assert_array_equal(prior.B0_inv, B0_inv)
        np.testing.assert_array_equal(prior.B0_inv_b0, B0_inv @ prior.b0)
        with pytest.raises(ValueError):
            prior.B0_inv[0, 0] = 1.0
        with pytest.raises(ValueError):
            prior.B0_inv_b0[0] = 1.0

    def test_rejects_tiny_dataset(self):
        data = Dataset(y=np.array([[1.0, 2.0]]), feature_names=["a", "b"])
        with pytest.raises(ValueError):
            build_default_prior(data)

    def test_rejects_zero_range_column_by_name(self):
        y = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        data = Dataset(y=y, feature_names=["good", "flat"])
        with pytest.raises(ValueError, match="flat"):
            build_default_prior(data)


class TestMixtureState:
    """The state holds precision factors R, R R^T = Sigma^-1, and accepts
    or returns Sigma at its boundary."""

    def _state(self, Sigma):
        K, r = Sigma.shape[:2]
        return MixtureState(K=K, eta=np.full(K, 1.0 / K), mu=np.zeros((K, r)),
                            Sigma=Sigma, C0=np.eye(r),
                            S=np.zeros(4, dtype=int))

    @pytest.mark.parametrize("bad", [[[1.0, 2.0], [2.0, 1.0]],
                                     [[1.0, 0.0], [0.0, 0.0]],
                                     [[-1.0, 0.0], [0.0, 1.0]]],
                             ids=["indefinite", "singular", "negative"])
    def test_non_positive_definite_sigma_raises(self, bad):
        Sigma = np.array([np.eye(2), bad])
        with pytest.raises(ValueError,
                           match="every Sigma must be positive definite"):
            self._state(Sigma)

    def test_sigma_round_trips_through_the_factor(self):
        rng = np.random.default_rng(20)
        A = rng.standard_normal((5, 3, 3))
        Sigma = A @ np.transpose(A, (0, 2, 1)) + 0.5 * np.eye(3)
        state = self._state(Sigma)
        R = state.R
        np.testing.assert_allclose(R @ np.transpose(R, (0, 2, 1)),
                                   np.linalg.inv(Sigma), rtol=1e-10)
        assert np.all(R.diagonal(axis1=1, axis2=2) > 0)
        back = state.Sigma
        assert np.array_equal(back, np.transpose(back, (0, 2, 1)))
        np.testing.assert_allclose(back, Sigma, rtol=1e-12, atol=1e-13)
        # assigning Sigma sets the factors
        state.Sigma = 2.0 * Sigma
        np.testing.assert_allclose(state.Sigma, 2.0 * Sigma, rtol=1e-12,
                                   atol=1e-13)

    def test_needs_exactly_one_of_sigma_and_r(self):
        with pytest.raises(TypeError):
            MixtureState(K=1, eta=np.ones(1), mu=np.zeros((1, 1)),
                         C0=np.eye(1), S=np.zeros(2, dtype=int))
        with pytest.raises(TypeError):
            MixtureState(K=1, eta=np.ones(1), mu=np.zeros((1, 1)),
                         Sigma=np.ones((1, 1, 1)), R=np.ones((1, 1, 1)),
                         C0=np.eye(1), S=np.zeros(2, dtype=int))


class TestMixtureLogLikelihood:

    def _state(self, rng, K, r, n):
        mu = rng.standard_normal((K, r)) * 3
        Sigma = np.array([np.diag(rng.uniform(0.5, 2.0, r))
                          for _ in range(K)])
        eta = rng.dirichlet(np.full(K, 2.0))
        S = rng.integers(0, K, n)
        return MixtureState(K=K, eta=eta, mu=mu, Sigma=Sigma, C0=np.eye(r),
                            S=S)

    def test_single_component_matches_scipy(self):
        rng = np.random.default_rng(5)
        data = _dataset(rng, n=30, r=2)
        state = self._state(rng, 1, 2, 30)
        ours = mixture_log_likelihood(data, state)
        ref = multivariate_normal.logpdf(data.y, mean=state.mu[0],
                                         cov=state.Sigma[0]).sum()
        np.testing.assert_allclose(ours, ref, rtol=1e-12)

    def test_matches_logsumexp(self):
        rng = np.random.default_rng(6)
        data = _dataset(rng, n=20, r=2)
        state = self._state(rng, 3, 2, 20)
        per_comp = np.array([
            np.log(state.eta[k]) + multivariate_normal.logpdf(
                data.y, mean=state.mu[k], cov=state.Sigma[k])
            for k in range(3)])
        np.testing.assert_allclose(mixture_log_likelihood(data, state),
                                   logsumexp(per_comp, axis=0).sum(),
                                   rtol=1e-12)

    def test_exact_permutation_invariance(self):
        """Canonical summation makes relabeling a bit-exact no-op."""
        rng = np.random.default_rng(7)
        data = _dataset(rng, n=25, r=2)
        state = self._state(rng, 4, 2, 25)
        base = mixture_log_likelihood(data, state)
        for _ in range(20):
            perm = rng.permutation(4)
            permuted = MixtureState(K=4, eta=state.eta[perm],
                                    mu=state.mu[perm],
                                    Sigma=state.Sigma[perm],
                                    C0=state.C0, S=state.S)
            assert mixture_log_likelihood(data, permuted) == base

    def test_zero_weight_component_is_ignored(self):
        rng = np.random.default_rng(8)
        data = _dataset(rng, n=10, r=2)
        state = self._state(rng, 2, 2, 10)
        state.eta = np.array([1.0, 0.0])
        ref = multivariate_normal.logpdf(data.y, mean=state.mu[0],
                                         cov=state.Sigma[0]).sum()
        np.testing.assert_allclose(mixture_log_likelihood(data, state), ref,
                                   rtol=1e-12)


class TestCompleteDataLogLikelihood:

    def test_matches_manual_sum(self):
        rng = np.random.default_rng(9)
        data = _dataset(rng, n=15, r=2)
        K = 3
        mu = rng.standard_normal((K, 2))
        Sigma = np.array([np.eye(2) * s for s in (1.0, 2.0, 0.5)])
        eta = np.array([0.2, 0.3, 0.5])
        S = rng.integers(0, K, 15)
        state = MixtureState(K=K, eta=eta, mu=mu, Sigma=Sigma, C0=np.eye(2),
                             S=S)
        manual = sum(
            np.log(eta[S[i]]) + multivariate_normal.logpdf(
                data.y[i], mean=mu[S[i]], cov=Sigma[S[i]])
            for i in range(15))
        np.testing.assert_allclose(complete_data_log_likelihood(data, state),
                                   manual, rtol=1e-12)

    def test_exhaustive_assignments_recover_mixture(self):
        """Summing exp complete-data likelihoods over all K^N assignment
        vectors must reproduce the mixture likelihood exactly."""
        rng = np.random.default_rng(10)
        y = rng.standard_normal((3, 2))
        data = Dataset(y=y, feature_names=["a", "b"])
        K = 2
        mu = np.array([[0.0, 0.0], [2.0, -1.0]])
        Sigma = np.array([np.eye(2), np.diag([0.5, 1.5])])
        eta = np.array([0.4, 0.6])
        terms = []
        for code in range(K ** 3):
            S = np.array([(code >> i) & 1 for i in range(3)])
            state = MixtureState(K=K, eta=eta, mu=mu, Sigma=Sigma,
                                 C0=np.eye(2), S=S)
            terms.append(complete_data_log_likelihood(data, state))
        state = MixtureState(K=K, eta=eta, mu=mu, Sigma=Sigma, C0=np.eye(2),
                             S=np.zeros(3, dtype=int))
        np.testing.assert_allclose(logsumexp(terms),
                                   mixture_log_likelihood(data, state),
                                   rtol=1e-12)


class TestGenerateSynthetic:

    def _prior(self, k_prior, gamma_spec):
        rng = np.random.default_rng(11)
        data = _dataset(rng, n=50, r=2)
        return build_default_prior(data, gamma_spec=gamma_spec,
                                   k_prior=k_prior)

    def test_fixed_k_shapes_and_labels(self):
        prior = self._prior(FixedK(3), FixedGamma(1.0))
        data, state = generate_synthetic(prior, 200, np.random.default_rng(12))
        assert data.y.shape == (200, 2)
        assert state.K == 3
        assert data.true_labels.shape == (200,)
        assert set(np.unique(data.true_labels)) <= {0, 1, 2}

    def test_random_k_draws_k_from_prior(self):
        prior = self._prior(RandomK(1.0, 4.0, 3.0), DynamicGamma(0.5))
        ks = [generate_synthetic(prior, 5, np.random.default_rng(s))[1].K
              for s in range(40)]
        assert min(ks) >= 1
        assert len(set(ks)) > 1

    def test_reproducible(self):
        prior = self._prior(FixedK(5), FixedGamma(0.1))
        a, _ = generate_synthetic(prior, 30, np.random.default_rng(13))
        b, _ = generate_synthetic(prior, 30, np.random.default_rng(13))
        np.testing.assert_array_equal(a.y, b.y)


class TestSampleComponents:

    def _prior(self):
        data = _dataset(np.random.default_rng(14), n=50, r=2)
        return build_default_prior(data)

    def test_draws_mu_then_sigma(self):
        """The same bits as stacked draws from m copies of (b0, B0) and
        C0: B0's factor comes from the prior and C0 is factored once."""
        prior = self._prior()
        C0 = 2.0 * prior.C0_init
        mu, R = sample_components(prior, C0, 3, np.random.default_rng(15))
        rng = np.random.default_rng(15)
        want_mu = dist.sample_mvnormal_batch(np.tile(prior.b0, (3, 1)),
                                             np.tile(prior.B0, (3, 1, 1)), rng)
        want_R = dist.sample_wishart_factor_batch(
            np.full(3, prior.c0), np.tile(C0, (3, 1, 1)), rng)
        assert mu.tobytes() == want_mu.tobytes()
        assert R.tobytes() == want_R.tobytes()

    def test_prior_means(self):
        """E[mu_k] = b0 and E[Sigma_k] = C0 / (c0 - (r+1)/2)."""
        prior = self._prior()
        m, r = 20000, prior.b0.size
        mu, R = sample_components(prior, prior.C0_init, m,
                                  np.random.default_rng(16))
        Sigma = dist.covariance_from_factor(R)
        assert mu.shape == (m, r) and Sigma.shape == (m, r, r)
        se = np.sqrt(np.diag(prior.B0) / m)
        assert np.all(np.abs(mu.mean(axis=0) - prior.b0) < 5 * se)
        np.testing.assert_allclose(Sigma.mean(axis=0),
                                   prior.C0_init / (prior.c0 - (r + 1) / 2),
                                   rtol=0.05, atol=0.05 * np.abs(
                                       prior.C0_init).max())
