"""Unit tests for the Gibbs sweep steps and the chain driver."""

import os
import tracemalloc

import numpy as np
import pytest

import reference
from bgmix import distributions as dist
from bgmix import sampler as smp
from bgmix.cli import load_dataset
from bgmix.model import (ChainConfig, Dataset, DynamicGamma, FixedGamma,
                         FixedK, MixtureState, RandomK, build_default_prior,
                         complete_data_log_likelihood, mixture_log_likelihood)
from bgmix.sampler import (NumericalError, SamplerError, compact_filled,
                           init_from_kmeans, permute_labels_random, run_chain,
                           step_add_empty, step_classify,
                           step_component_params, step_hyper, step_sample_K,
                           step_weights, label_dtype, _log_partition_given_k)


DIABETES_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                             "diabetes.csv")


def _two_blob_data(rng, n=60):
    y = np.vstack([rng.standard_normal((n // 2, 2)) + [0, 0],
                   rng.standard_normal((n // 2, 2)) + [8, 8]])
    return Dataset(y=y, feature_names=["a", "b"])


def _prior(data, k_prior=None, gamma_spec=None):
    return build_default_prior(
        data, gamma_spec=gamma_spec or FixedGamma(1.0),
        k_prior=k_prior or FixedK(2))


class TestInitFromKmeans:

    def test_state_structure(self):
        rng = np.random.default_rng(0)
        data = _two_blob_data(rng)
        prior = _prior(data)
        state = init_from_kmeans(data, prior, 2, np.random.default_rng(1))
        np.testing.assert_allclose(state.eta, [0.5, 0.5])
        np.testing.assert_array_equal(state.C0, prior.C0_init)
        S = np.diag(np.diag(np.cov(data.y, rowvar=False, ddof=1)))
        for k in range(2):
            np.testing.assert_allclose(state.Sigma[k], 0.75 * S)

    def test_means_are_cluster_means(self):
        rng = np.random.default_rng(2)
        data = _two_blob_data(rng)
        prior = _prior(data)
        state = init_from_kmeans(data, prior, 2, np.random.default_rng(3))
        for k in range(2):
            np.testing.assert_allclose(
                state.mu[k], data.y[state.S == k].mean(axis=0), rtol=1e-12)

    def test_rejects_bad_k(self):
        data = _two_blob_data(np.random.default_rng(4))
        with pytest.raises(ValueError):
            init_from_kmeans(data, _prior(data), 0, np.random.default_rng(0))


class TestStepClassify:

    def test_separated_components_classify_correctly(self):
        rng = np.random.default_rng(5)
        data = _two_blob_data(rng)
        state = MixtureState(
            K=2, eta=np.array([0.5, 0.5]),
            mu=np.array([[0.0, 0.0], [8.0, 8.0]]),
            Sigma=np.array([np.eye(2), np.eye(2)]),
            C0=np.eye(2), S=np.zeros(60, dtype=int))
        step_classify(data, state, np.random.default_rng(6))
        assert np.all(state.S[:30] == 0)
        assert np.all(state.S[30:] == 1)
        np.testing.assert_array_equal(state.N_k, [30, 30])
        assert state.K_plus == 2

    def test_zero_weight_component_never_drawn(self):
        rng = np.random.default_rng(7)
        data = _two_blob_data(rng)
        state = MixtureState(
            K=2, eta=np.array([1.0, 0.0]),
            mu=np.array([[0.0, 0.0], [0.0, 0.0]]),
            Sigma=np.array([np.eye(2) * 50, np.eye(2) * 50]),
            C0=np.eye(2), S=np.zeros(60, dtype=int))
        step_classify(data, state, np.random.default_rng(8))
        assert np.all(state.S == 0)

    @pytest.mark.parametrize("K", [1, 2, 10, 75])
    @pytest.mark.parametrize("N", [1, 150, 4000])
    def test_matches_cumsum_reference(self, N, K):
        """Given the same uniforms, S equals a cumsum over each row of the
        (N, K) log weights, laid out as the density returns them; a
        zero-weight component gives a column of -inf."""
        rng = np.random.default_rng(N + K)
        logp = (rng.standard_normal((K, N)) * 4.0).T
        if K > 1:
            logp[:, 1] = -np.inf
        data = Dataset(y=np.zeros((N, 1)), feature_names=["a"])
        state = MixtureState(K=K, eta=np.full(K, 1.0 / K),
                             mu=np.zeros((K, 1)), Sigma=np.ones((K, 1, 1)),
                             C0=np.eye(1), S=np.zeros(N, dtype=int))
        want = reference.classify_cumsum(logp,
                                         np.random.default_rng(K).random(N))
        step_classify(data, state, np.random.default_rng(K), logp)
        np.testing.assert_array_equal(state.S, want)
        assert state.S.dtype == want.dtype
        if K > 1:
            assert not np.any(state.S == 1)

    def test_underflow_names_observation(self):
        y = np.array([[0.0, 0.0], [1e200, 1e200]])
        data = Dataset(y=y, feature_names=["a", "b"])
        state = MixtureState(
            K=1, eta=np.array([1.0]), mu=np.zeros((1, 2)),
            Sigma=np.eye(2)[None],
            C0=np.eye(2), S=np.zeros(2, dtype=int))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="observation 1"):
                step_classify(data, state, np.random.default_rng(9))


class TestStepWeights:

    def test_posterior_moments(self):
        state = MixtureState(
            K=2, eta=np.array([0.5, 0.5]), mu=np.zeros((2, 1)),
            Sigma=np.ones((2, 1, 1)), C0=np.eye(1),
            S=np.array([0] * 30 + [1] * 10))
        rng = np.random.default_rng(10)
        draws = []
        for _ in range(20000):
            step_weights(state, 1.0, rng)
            draws.append(state.eta.copy())
        draws = np.array(draws)
        expected = np.array([31.0, 11.0]) / 42.0
        np.testing.assert_allclose(draws.mean(axis=0), expected, atol=0.005)

    def test_empty_components_keep_prior_mass(self):
        state = MixtureState(
            K=3, eta=np.full(3, 1 / 3), mu=np.zeros((3, 1)),
            Sigma=np.ones((3, 1, 1)), C0=np.eye(1),
            S=np.zeros(5, dtype=int))
        rng = np.random.default_rng(11)
        draws = np.array([step_weights(state, 2.0, rng).eta.copy()
                          for _ in range(20000)])
        expected = np.array([7.0, 2.0, 2.0]) / 11.0
        np.testing.assert_allclose(draws.mean(axis=0), expected, atol=0.01)


class TestStepComponentParams:

    def test_filled_component_tracks_data(self):
        rng = np.random.default_rng(12)
        data = _two_blob_data(rng, n=80)
        prior = _prior(data)
        state = MixtureState(
            K=2, eta=np.array([0.5, 0.5]),
            mu=np.array([[0.0, 0.0], [8.0, 8.0]]),
            Sigma=np.array([np.eye(2), np.eye(2)]),
            C0=prior.C0_init.copy(),
            S=np.array([0] * 40 + [1] * 40))
        draw_rng = np.random.default_rng(13)
        mus = []
        for _ in range(2000):
            state.mu = np.array([[0.0, 0.0], [8.0, 8.0]])
            state.Sigma = np.array([np.eye(2), np.eye(2)])
            step_component_params(data, state, prior, draw_rng)
            mus.append(state.mu.copy())
        mus = np.array(mus)
        np.testing.assert_allclose(mus[:, 0].mean(axis=0),
                                   data.y[:40].mean(axis=0), atol=0.15)
        np.testing.assert_allclose(mus[:, 1].mean(axis=0),
                                   data.y[40:].mean(axis=0), atol=0.15)

    def test_empty_component_draws_from_prior(self):
        """With N_k = 0 the conditional collapses to mu ~ N(b0, B0)."""
        rng = np.random.default_rng(14)
        data = _two_blob_data(rng)
        prior = _prior(data)
        state = MixtureState(
            K=2, eta=np.array([1.0, 0.0]), mu=np.zeros((2, 2)),
            Sigma=np.array([np.eye(2), np.eye(2)]),
            C0=prior.C0_init.copy(), S=np.zeros(60, dtype=int))
        draw_rng = np.random.default_rng(15)
        mus = np.array([
            step_component_params(data, state, prior, draw_rng).mu[1].copy()
            for _ in range(4000)])
        se = np.sqrt(np.diag(prior.B0) / mus.shape[0])
        assert np.all(np.abs(mus.mean(axis=0) - prior.b0) < 5 * se)
        np.testing.assert_allclose(np.var(mus, axis=0), np.diag(prior.B0),
                                   rtol=0.15)

    @staticmethod
    def _three_component_state(seed):
        """r = 3, K = 4 with slot 2 empty, labels in random order."""
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((90, 3)) * [1.0, 30.0, 0.2] + [5, -40, 1]
        data = Dataset(y=y, feature_names=["a", "b", "c"])
        prior = build_default_prior(data, k_prior=FixedK(4))
        S = rng.choice([0, 1, 3], size=90)
        Sigma = np.array([np.diag(rng.uniform(0.5, 2.0, 3)) * [1, 900, 0.04]
                          for _ in range(4)])
        state = MixtureState(K=4, eta=np.full(4, 0.25),
                             mu=rng.standard_normal((4, 3)), Sigma=Sigma,
                             C0=prior.C0_init.copy(), S=S)
        return data, prior, state

    def test_matches_add_at_reference(self):
        """Per-component sums and scatter matrices, accumulated with
        np.add.at as the update was first written, give the same draw to
        the last bit."""
        data, prior, state = self._three_component_state(16)
        K, r = state.K, data.r
        Nk = state.N_k.astype(float)
        B0_inv = np.linalg.inv(prior.B0)
        Sig_inv = state.R @ np.transpose(state.R, (0, 2, 1))
        Bk = np.linalg.inv(B0_inv[None, :, :] + Nk[:, None, None] * Sig_inv)
        Bk = 0.5 * (Bk + np.transpose(Bk, (0, 2, 1)))
        sums = np.zeros((K, r))
        np.add.at(sums, state.S, data.y)
        rhs = ((B0_inv @ prior.b0)[None, :]
               + np.einsum("kij,kj->ki", Sig_inv, sums))
        ref_rng = np.random.default_rng(17)
        mu = dist.sample_mvnormal_batch(np.einsum("kij,kj->ki", Bk, rhs), Bk,
                                        ref_rng)
        dev = data.y - mu[state.S]
        scatter = np.zeros((K, r, r))
        np.add.at(scatter, state.S, dev[:, :, None] * dev[:, None, :])
        R = dist.sample_wishart_factor_batch(
            prior.c0 + Nk / 2.0, state.C0[None, :, :] + 0.5 * scatter,
            ref_rng)

        step_component_params(data, state, prior, np.random.default_rng(17))
        np.testing.assert_array_equal(state.mu, mu)
        np.testing.assert_array_equal(state.R, R)

    @pytest.mark.parametrize("N, K, r, labels", [
        (4000, 8, 5, None), (90, 4, 3, [0, 1, 3]), (50, 3, 1, None),
        (40, 1, 2, None), (2, 3, 2, [2])])
    def test_matches_cell_bincount_reference(self, monkeypatch, N, K, r,
                                             labels):
        """The sums and scatter matrices built along N equal, to the bit,
        one bincount over every observation's (r,) and (r, r) cells.

        The mean draw receives b_k, built from the sums; the covariance
        draw receives C0 + scatter / 2, which is scatter / 2 exactly
        with C0 = 0. Both arguments are recorded and compared with those
        the reference's sums and scatter give."""
        rng = np.random.default_rng(N + K + r)
        y = rng.standard_normal((N, r)) * rng.uniform(0.1, 30.0, r) + 5.0
        data = Dataset(y=y, feature_names=[f"x{j}" for j in range(r)])
        prior = build_default_prior(data, k_prior=FixedK(K))
        A = rng.standard_normal((K, r, r))
        state = MixtureState(
            K=K, eta=np.full(K, 1.0 / K), mu=rng.standard_normal((K, r)),
            Sigma=A @ np.transpose(A, (0, 2, 1)) + np.eye(r),
            C0=np.zeros((r, r)),
            S=rng.choice(labels if labels else np.arange(K), size=N))
        Sig_inv = state.R @ np.transpose(state.R, (0, 2, 1))
        S = state.S.copy()
        seen = {}
        normal = dist.sample_mvnormal_batch

        def record_normal(b, B, rng):
            seen["b"] = b
            return normal(b, B, rng)

        def record_wishart_factor(alpha, V, rng):
            seen["V"] = V
            return state.R

        monkeypatch.setattr(dist, "sample_mvnormal_batch", record_normal)
        monkeypatch.setattr(dist, "sample_wishart_factor_batch",
                            record_wishart_factor)
        step_component_params(data, state, prior, rng)

        sums, scatter = reference.cluster_sums_and_scatter(data.y, S,
                                                           state.mu, K)
        Nk = state.N_k.astype(float)
        Bk = np.linalg.inv(prior.B0_inv[None, :, :]
                           + Nk[:, None, None] * Sig_inv)
        Bk = 0.5 * (Bk + np.transpose(Bk, (0, 2, 1)))
        rhs = prior.B0_inv_b0[None, :] + np.einsum("kij,kj->ki", Sig_inv,
                                                    sums)
        assert (seen["b"].tobytes()
                == np.einsum("kij,kj->ki", Bk, rhs).tobytes())
        assert seen["V"].tobytes() == (0.5 * scatter).tobytes()

    def test_mean_update_centers_on_posterior_mean(self, monkeypatch):
        """With the normal draw replaced by its mean, mu_k is
        (B0^-1 + N_k Sigma_k^-1)^-1 (B0^-1 b0 + Sigma_k^-1 sum_{S_i=k} y_i)."""
        data, prior, state = self._three_component_state(18)
        Sigma_before = state.Sigma.copy()
        monkeypatch.setattr(dist, "sample_mvnormal_batch",
                            lambda b, B, rng: b)
        step_component_params(data, state, prior, np.random.default_rng(19))
        B0_inv = np.linalg.inv(prior.B0)
        for k in range(state.K):
            members = data.y[state.S == k]
            Sk_inv = np.linalg.inv(Sigma_before[k])
            precision = B0_inv + len(members) * Sk_inv
            expected = np.linalg.solve(
                precision, B0_inv @ prior.b0 + Sk_inv @ members.sum(axis=0))
            np.testing.assert_allclose(state.mu[k], expected, rtol=1e-9)
        # the empty slot sits at the prior mean
        np.testing.assert_allclose(state.mu[2], prior.b0, rtol=1e-12)


class TestStepHyper:

    def test_conditional_mean(self):
        rng = np.random.default_rng(16)
        data = _two_blob_data(rng)
        prior = _prior(data)
        Sigma = np.array([np.eye(2) * 2.0, np.eye(2) * 4.0])
        state = MixtureState(
            K=2, eta=np.array([0.5, 0.5]), mu=np.zeros((2, 2)),
            Sigma=Sigma.copy(), C0=np.eye(2),
            S=np.array([0] * 30 + [1] * 30))
        draw_rng = np.random.default_rng(17)
        draws = np.array([
            step_hyper(state, prior, draw_rng).C0.copy()
            for _ in range(20000)])
        alpha = prior.g0 + 2 * prior.c0
        rate = prior.G0 + np.linalg.inv(Sigma).sum(axis=0)
        np.testing.assert_allclose(draws.mean(axis=0),
                                   alpha * np.linalg.inv(rate),
                                   rtol=0.05, atol=0.08)


class TestSmallUnitData:
    """The C0 update's rate G0 + sum_k Sigma_k^-1 is symmetric only to
    rounding, and its size scales as the inverse square of the data's
    units: on the diabetes data times 1e-4 or 1e-5 the asymmetry passes
    an absolute 1e-10 within the first sweeps. Every chain must run
    whatever the units."""

    @pytest.mark.parametrize("scale", [1e-4, 1e-5])
    @pytest.mark.parametrize("mode", ["sfm", "mfm"])
    def test_chain_runs_on_rescaled_diabetes_data(self, mode, scale):
        diabetes = load_dataset(DIABETES_PATH)
        data = Dataset(y=diabetes.y * scale,
                       feature_names=diabetes.feature_names)
        if mode == "sfm":
            gamma_spec, k_prior = FixedGamma(0.01), FixedK(10)
        else:
            gamma_spec = DynamicGamma(0.5)
            k_prior = RandomK(1.0, 4.0, 3.0, k_max=100, k_init=10)
        prior = build_default_prior(data, gamma_spec=gamma_spec,
                                    k_prior=k_prior)
        out = run_chain(data, prior, ChainConfig(n_iter=50, burn_in=10,
                                                 seed=1))
        assert np.all(np.isfinite(out.trace["log_lik"]))
        assert np.all(out.trace["K_plus"] >= 1)


class TestPartitionProbability:
    """The conditional for K uses a normalized partition law."""

    def test_single_observation_probability_is_one(self):
        """Any partition of one observation has probability exactly 1,
        whatever K and gamma; this pins the gamma^K_plus factor."""
        for gamma in (0.01, 0.125, 1.0, 3.0):
            lp = _log_partition_given_k(np.array([1]), FixedGamma(gamma), 40)
            for K in (1, 2, 7, 40):
                np.testing.assert_allclose(np.exp(lp[K - 1]), 1.0,
                                           rtol=1e-12)

    def test_sums_to_one_over_set_partitions(self):
        """N = 3: p({123}) + 3 p({12}{3}) + p({1}{2}{3}) = 1."""
        for K in (3, 5, 11):
            for gamma in (0.3, 1.0, 2.5):
                spec = FixedGamma(gamma)
                # each array starts at K = K+; K is its last candidate
                one = np.exp(_log_partition_given_k(np.array([3]), spec, K))
                two = np.exp(_log_partition_given_k(np.array([2, 1]), spec,
                                                    K))
                three = np.exp(_log_partition_given_k(np.array([1, 1, 1]),
                                                      spec, K))
                np.testing.assert_allclose(one[-1] + 3 * two[-1] + three[-1],
                                           1.0, rtol=1e-12)

    @pytest.mark.parametrize("gamma_spec", [FixedGamma(0.01), FixedGamma(1.3),
                                            DynamicGamma(0.5),
                                            DynamicGamma(4.0)])
    def test_matches_scipy_reference(self, gamma_spec):
        """Normalized over K+..k_max, the table-based log weights agree
        with scipy's gammaln formula to 1e-9 for random partitions of up
        to N = 4000."""
        rng = np.random.default_rng(31)
        for _ in range(40):
            k_max = int(rng.integers(20, 121))
            kplus = int(rng.integers(1, 16))
            N = int(rng.integers(kplus, 4001))
            N_k = np.bincount(rng.integers(0, kplus, N - kplus),
                              minlength=kplus) + 1
            K = np.arange(kplus, k_max + 1)
            gam = np.broadcast_to(gamma_spec.gamma_for(K), K.shape)
            got = _log_partition_given_k(N_k, gamma_spec, k_max)
            want = reference.log_partition_given_k(K, N_k, gam)
            got -= np.logaddexp.reduce(got)
            want -= np.logaddexp.reduce(want)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_k_terms_built_once_per_chain(self):
        """The K-only tables are built by the first K update of a chain
        and read from then on."""
        data = _two_blob_data(np.random.default_rng(30))
        prior = build_default_prior(
            data, gamma_spec=DynamicGamma(0.5),
            k_prior=RandomK(1.0, 4.0, 3.0, k_max=20, k_init=4))
        smp._k_terms.cache_clear()
        run_chain(data, prior, ChainConfig(n_iter=200, burn_in=50, seed=36))
        assert smp._k_terms.cache_info().misses == 1

    def test_tables_are_read_only(self):
        *tables, cluster_row = smp._k_terms(FixedGamma(1.0), 10, 30)
        row = cluster_row(7)
        assert cluster_row(7) is row
        for table in (*tables, row):
            with pytest.raises(ValueError):
                table[0] = 0.0


class TestStepSampleK:

    def _state_with_counts(self, N_k):
        N_k = np.asarray(N_k)
        S = np.repeat(np.arange(N_k.size), N_k)
        K = N_k.size
        return MixtureState(
            K=K, eta=np.full(K, 1.0 / K), mu=np.zeros((K, 2)),
            Sigma=np.broadcast_to(np.eye(2), (K, 2, 2)).copy(),
            C0=np.eye(2), S=S)

    def _prior_with(self, k_prior, gamma_spec):
        data = _two_blob_data(np.random.default_rng(21))
        return build_default_prior(data, gamma_spec=gamma_spec,
                                   k_prior=k_prior)

    def test_requires_random_k_prior(self):
        prior = self._prior_with(FixedK(2), FixedGamma(1.0))
        state = self._state_with_counts([3, 2])
        with pytest.raises(ValueError):
            step_sample_K(state, prior, np.random.default_rng(0))

    def test_truncation_below_kplus_rejected(self):
        prior = self._prior_with(RandomK(1.0, 4.0, 3.0, k_max=2, k_init=2),
                                 DynamicGamma(0.5))
        state = self._state_with_counts([2, 2, 1])
        with pytest.raises(ValueError, match="k_max"):
            step_sample_K(state, prior, np.random.default_rng(0))

    @pytest.mark.parametrize("gamma_spec", [FixedGamma(0.7), DynamicGamma(0.5)])
    def test_single_observation_posterior_is_prior(self, gamma_spec):
        """With one observation the partition carries no information about
        K, so the conditional must collapse to the truncated prior for
        both static and dynamic Dirichlet parameters."""
        kmax = 30
        prior = self._prior_with(RandomK(1.0, 4.0, 3.0, k_max=kmax),
                                 gamma_spec)
        state = self._state_with_counts([1])
        rng = np.random.default_rng(22)
        draws = np.zeros(20000, dtype=int)
        for t in range(draws.size):
            state.K_plus = 1
            step_sample_K(state, prior, rng)
            draws[t] = state.K
        from bgmix.distributions import bnb_log_pmf
        ks = np.arange(1, kmax + 1)
        pk = np.exp(bnb_log_pmf(ks - 1, 1.0, 4.0, 3.0))
        pk /= pk.sum()
        freq = np.bincount(draws, minlength=kmax + 1)[1:] / draws.size
        tv = 0.5 * np.abs(freq - pk).sum()
        assert tv < 0.015, f"total variation {tv:.4f}"

    def test_concentrated_counts_favor_small_k(self):
        prior = self._prior_with(RandomK(1.0, 4.0, 3.0), DynamicGamma(0.5))
        state = self._state_with_counts([30, 25, 35])
        rng = np.random.default_rng(23)
        draws = []
        for _ in range(2000):
            state.K_plus = 3
            step_sample_K(state, prior, rng)
            draws.append(state.K)
        draws = np.array(draws)
        assert np.mean(draws <= 8) > 0.8
        assert draws.min() >= 3


class TestStateSurgery:

    def test_compact_preserves_relative_order(self):
        state = MixtureState(
            K=4, eta=np.array([0.1, 0.2, 0.3, 0.4]),
            mu=np.arange(8.0).reshape(4, 2),
            Sigma=np.array([np.eye(2) * (k + 1) for k in range(4)]),
            C0=np.eye(2), S=np.array([1, 1, 3, 3, 3]))
        compact_filled(state)
        assert state.K == 2
        np.testing.assert_array_equal(state.S, [0, 0, 1, 1, 1])
        np.testing.assert_allclose(state.eta, [0.2, 0.4])
        np.testing.assert_allclose(state.mu[:, 0], [2.0, 6.0])
        np.testing.assert_array_equal(state.N_k, [2, 3])

    def test_add_empty_grows_to_k(self):
        data = _two_blob_data(np.random.default_rng(24))
        prior = _prior(data)
        state = MixtureState(
            K=2, eta=np.array([0.6, 0.4]), mu=np.zeros((2, 2)),
            Sigma=np.array([np.eye(2), np.eye(2)]),
            C0=prior.C0_init.copy(), S=np.array([0, 0, 1]))
        state.K = 5
        step_add_empty(state, prior, np.random.default_rng(25))
        assert state.mu.shape == (5, 2)
        assert state.Sigma.shape == (5, 2, 2)
        np.testing.assert_array_equal(state.N_k, [2, 1, 0, 0, 0])
        assert state.K_plus == 2

    def test_add_empty_noop_consumes_no_randomness(self):
        data = _two_blob_data(np.random.default_rng(26))
        prior = _prior(data)
        state = MixtureState(
            K=2, eta=np.array([0.6, 0.4]), mu=np.zeros((2, 2)),
            Sigma=np.array([np.eye(2), np.eye(2)]),
            C0=prior.C0_init.copy(), S=np.array([0, 1]))
        rng = np.random.default_rng(27)
        before = rng.bit_generator.state
        step_add_empty(state, prior, rng)
        assert rng.bit_generator.state == before

    def test_permutation_preserves_likelihoods(self):
        rng = np.random.default_rng(28)
        data = _two_blob_data(rng)
        state = MixtureState(
            K=3, eta=np.array([0.3, 0.2, 0.5]),
            mu=rng.standard_normal((3, 2)),
            Sigma=np.array([np.eye(2)] * 3),
            C0=np.eye(2), S=rng.integers(0, 3, 60))
        base_mix = mixture_log_likelihood(data, state)
        base_complete = complete_data_log_likelihood(data, state)
        permute_labels_random(state, np.random.default_rng(29))
        assert mixture_log_likelihood(data, state) == base_mix
        assert complete_data_log_likelihood(data, state) == base_complete


class TestRunChain:

    def _setup(self, mode="fixed_k"):
        rng = np.random.default_rng(30)
        data = _two_blob_data(rng)
        if mode == "fixed_k":
            prior = _prior(data)
        elif mode == "sfm":
            prior = _prior(data, FixedK(10), FixedGamma(0.01))
        else:
            prior = build_default_prior(
                data, gamma_spec=DynamicGamma(0.5),
                k_prior=RandomK(1.0, 4.0, 3.0, k_max=20, k_init=4))
        return data, prior

    def test_record_layout_and_thinning(self):
        data, prior = self._setup()
        cfg = ChainConfig(n_iter=50, burn_in=10, thinning=4, seed=31)
        out = run_chain(data, prior, cfg)
        assert len(out.records) == 10
        assert out.records.iter.tolist()[:3] == [10, 14, 18]
        assert out.records.eta.shape == (10, 2)
        assert out.records.S.shape == (10, 60)
        assert np.all(np.isfinite(out.trace["log_lik"][out.records.iter]))

    def test_trace_covers_every_iteration(self):
        data, prior = self._setup()
        out = run_chain(data, prior, ChainConfig(n_iter=40, burn_in=5,
                                                 seed=32))
        assert out.trace["log_lik"].shape == (40,)
        assert out.trace["K"].shape == (40,)
        assert np.all(out.trace["K"] == 2)
        assert out.trace["mu1"].shape == (40, 2)

    @pytest.mark.parametrize("k, dtype", [
        (1, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16),
        (32768, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)])
    def test_label_dtype_holds_every_label_of_k_components(self, k, dtype):
        assert label_dtype(k) == dtype
        # the 0-based labels and the 1-based ones of a file
        assert np.iinfo(label_dtype(k)).max >= k

    @pytest.mark.parametrize("k_prior, dtype", [
        (FixedK(2), np.int8),
        (FixedK(127), np.int8),
        (FixedK(128), np.int16),
        (RandomK(1.0, 4.0, 3.0, k_max=127, k_init=4), np.int8),
        (RandomK(1.0, 4.0, 3.0, k_max=128, k_init=4), np.int16),
    ], ids=["fixed-2", "fixed-127", "fixed-128", "kmax-127", "kmax-128"])
    def test_assignments_stored_in_the_narrowest_label_type(self, k_prior,
                                                            dtype):
        """K for a FixedK prior and k_max for a RandomK one pick the type,
        so a K <= 127 chain stores one byte a label."""
        data = _two_blob_data(np.random.default_rng(30), n=40)
        prior = build_default_prior(data, gamma_spec=DynamicGamma(0.5),
                                    k_prior=k_prior)
        out = run_chain(data, prior, ChainConfig(n_iter=12, burn_in=2,
                                                 seed=38))
        S = out.records.S
        assert S.dtype == dtype
        assert S.shape == (10, 40)
        if dtype == np.int8:
            assert S.nbytes == 10 * 40
        assert 0 <= S.min() and S.max() < out.records.K.max()

    def test_store_assignments_off(self):
        data, prior = self._setup()
        cfg = ChainConfig(n_iter=20, burn_in=5, seed=33,
                          store_assignments=False)
        out = run_chain(data, prior, cfg)
        assert out.records.S is None

    def test_same_seed_reproduces_exactly(self):
        data, prior = self._setup()
        cfg = ChainConfig(n_iter=60, burn_in=20, seed=34)
        a = run_chain(data, prior, cfg)
        b = run_chain(data, prior, cfg)
        np.testing.assert_array_equal(a.records.mu, b.records.mu)
        np.testing.assert_array_equal(a.records.Sigma, b.records.Sigma)
        np.testing.assert_array_equal(a.records.S, b.records.S)

    def test_records_are_decoupled_from_state(self):
        data, prior = self._setup()
        out = run_chain(data, prior, ChainConfig(n_iter=25, burn_in=20,
                                                 seed=35))
        first = out.records.mu[0].copy()
        out.records.mu[1] = 0.0
        np.testing.assert_array_equal(out.records.mu[0], first)

    def test_telescoping_varies_k(self):
        data, prior = self._setup("telescoping")
        cfg = ChainConfig(n_iter=300, burn_in=50, seed=36)
        out = run_chain(data, prior, cfg)
        ks = out.records.K
        kplus = out.records.K_plus
        assert np.all(kplus <= ks)
        assert len(np.unique(ks)) > 1
        assert "mu1" not in out.trace
        # the component columns hold each row's K slots and no more
        C, r = ks.sum(), data.r
        assert out.records.eta.shape == out.records.N_k.shape == (C,)
        assert out.records.mu.shape == (C, r)
        assert out.records.Sigma.shape == (C, r, r)
        ends = np.cumsum(ks)
        for end, K, K_plus in zip(ends, ks, kplus):
            N_k = out.records.N_k[end - K:end]
            # filled components are compacted to the leading slots
            assert np.all(N_k[:K_plus] > 0)
            assert np.all(N_k[K_plus:] == 0)

    def test_fixed_k_records_written_in_place(self):
        """The sweeps are stored straight into the records: at its peak
        run_chain holds less than one more copy of the component columns
        than it returns."""
        data, prior = self._setup()
        cfg = ChainConfig(n_iter=1000, burn_in=200, seed=42)
        tracemalloc.start()
        try:
            out = run_chain(data, prior, cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rec = out.records
        assert rec.eta.shape == (800, 2)
        columns = sum(col.nbytes for col in (rec.eta, rec.mu, rec.Sigma,
                                             rec.N_k))
        assert peak - held < columns

    def test_telescoping_recovers_two_groups(self):
        data, prior = self._setup("telescoping")
        cfg = ChainConfig(n_iter=800, burn_in=200, seed=37)
        out = run_chain(data, prior, cfg)
        kplus = out.records.K_plus
        values, counts = np.unique(kplus, return_counts=True)
        assert values[np.argmax(counts)] == 2

    def test_telescoping_empties_drawn_from_the_final_C0(self, monkeypatch):
        """The C0 update integrates the empty components out, so they must
        be drawn after it: a telescoping sweep that adds empty slots draws
        them from the C0 it ends with."""
        data, prior = self._setup("telescoping")
        starts = []      # C0 as each sweep starts: the last one's final C0
        drawn_from = {}  # sweep -> C0 its empty slots were drawn from

        def classify(data, state, rng, logp=None):
            starts.append(state.C0.copy())
            return step_classify(data, state, rng, logp)

        def add_empty(state, prior, rng):
            if state.K > state.mu.shape[0]:
                drawn_from[len(starts) - 1] = state.C0.copy()
            return step_add_empty(state, prior, rng)

        monkeypatch.setattr(smp, "step_classify", classify)
        monkeypatch.setattr(smp, "step_add_empty", add_empty)
        run_chain(data, prior, ChainConfig(n_iter=100, burn_in=0, seed=43))
        checked = [t for t in drawn_from if t + 1 < len(starts)]
        assert len(checked) > 10
        for t in checked:
            np.testing.assert_array_equal(drawn_from[t], starts[t + 1])

    def test_telescoping_hyper_sees_only_filled_slots(self, monkeypatch):
        """In the telescoping sweep C0 is drawn from the filled components
        alone: every slot step_hyper sees holds observations."""
        data, prior = self._setup("telescoping")
        seen = []

        def hyper(state, prior, rng):
            seen.append(state.N_k.copy())
            return step_hyper(state, prior, rng)

        monkeypatch.setattr(smp, "step_hyper", hyper)
        out = run_chain(data, prior, ChainConfig(n_iter=100, burn_in=0,
                                                 seed=44))
        assert len(seen) == 100
        assert np.any(out.trace["K"] > out.trace["K_plus"])
        for N_k in seen:
            assert np.all(N_k > 0)

    def test_step_failure_reports_iteration(self, monkeypatch):
        data, prior = self._setup()

        calls = {"n": 0}

        def boom(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ValueError("synthetic failure")
            return step_weights(*args, **kwargs)

        monkeypatch.setattr(smp, "step_weights", boom)
        with pytest.raises(SamplerError, match="iteration 2"):
            run_chain(data, prior, ChainConfig(n_iter=10, burn_in=0, seed=38))

    @pytest.mark.parametrize("mode,permute", [
        ("fixed_k", False), ("telescoping", False), ("fixed_k", True)])
    def test_densities_evaluated_once_per_sweep(self, monkeypatch, mode,
                                                permute):
        """The trace log-likelihood and the next classification share one
        evaluation: n_iter + 1 in all, the first one before sweep 0."""
        data, prior = self._setup(mode)
        density = dist.log_mvnormal_density_batch
        calls = {"n": 0}

        def counted(*args, **kwargs):
            calls["n"] += 1
            return density(*args, **kwargs)

        monkeypatch.setattr(dist, "log_mvnormal_density_batch", counted)
        cfg = ChainConfig(n_iter=30, burn_in=10, seed=40,
                          permutation_step=permute)
        run_chain(data, prior, cfg)
        assert calls["n"] == cfg.n_iter + 1

    def test_end_of_sweep_density_failure_reports_iteration(self,
                                                            monkeypatch):
        data, prior = self._setup()
        density = dist.log_mvnormal_density_batch
        calls = {"n": 0}

        def fails_second(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ValueError("every Sigma must be positive definite")
            return density(*args, **kwargs)

        monkeypatch.setattr(dist, "log_mvnormal_density_batch", fails_second)
        with pytest.raises(SamplerError, match="iteration 0"):
            run_chain(data, prior, ChainConfig(n_iter=10, burn_in=0, seed=41))

    @pytest.mark.parametrize("mode,permute", [
        ("fixed_k", False), ("fixed_k", True), ("sfm", False),
        ("telescoping", False)])
    def test_trace_log_lik_is_each_sweeps_mixture_log_lik(
            self, monkeypatch, mode, permute):
        """Row t of the trace, the last row included, is the mixture
        log-likelihood of the state sweep t ends with (after its label
        permutation), to 1e-12 relative: classify yields it from its own
        maxima and normalizers, which add the terms in another order."""
        data, prior = self._setup(mode)
        seen = []
        densities = smp.log_weighted_densities

        def recorded(data, state):
            seen.append(mixture_log_likelihood(data, state))
            return densities(data, state)

        monkeypatch.setattr(smp, "log_weighted_densities", recorded)
        cfg = ChainConfig(n_iter=40, burn_in=10, seed=45,
                          permutation_step=permute)
        out = run_chain(data, prior, cfg)
        # the first evaluation is the start's, before sweep 0
        assert len(seen) == cfg.n_iter + 1
        np.testing.assert_allclose(out.trace["log_lik"], seen[1:],
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", ["fixed_k", "telescoping"])
    def test_stored_sigma_is_symmetric_and_the_chains_own(self, monkeypatch,
                                                          mode):
        """Each stored Sigma is exactly symmetric and, to rounding,
        (R R^T)^-1 of the factors the chain held at that sweep."""
        data, prior = self._setup(mode)
        held = []
        densities = smp.log_weighted_densities

        def recorded(data, state):
            held.append(state.R.copy())
            return densities(data, state)

        monkeypatch.setattr(smp, "log_weighted_densities", recorded)
        out = run_chain(data, prior, ChainConfig(n_iter=60, burn_in=20,
                                                 thinning=3, seed=46))
        r = data.r
        Sigma = out.records.Sigma.reshape(-1, r, r)
        assert np.array_equal(Sigma, np.transpose(Sigma, (0, 2, 1)))
        # held[0] is the start's; held[t + 1] the state sweep t stored
        R = np.concatenate([held[t + 1] for t in out.records.iter])
        want = np.linalg.inv(R @ np.transpose(R, (0, 2, 1)))
        np.testing.assert_allclose(Sigma, want, rtol=1e-10,
                                   atol=1e-12 * np.abs(want).max())

    def test_permutation_step_leaves_posterior_alone(self):
        """With random label permutations the marginal over components is
        symmetric, but K_plus and the likelihood trace stay valid."""
        data, prior = self._setup()
        cfg = ChainConfig(n_iter=120, burn_in=40, seed=39,
                          permutation_step=True)
        out = run_chain(data, prior, cfg)
        kplus = out.records.K_plus
        assert np.all(kplus == 2)
        assert np.all(np.isfinite(out.trace["log_lik"]))
