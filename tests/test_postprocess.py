"""Unit tests for identification, partition extraction, and scoring."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bgmix.clustering import kmeans
from bgmix.model import (ChainConfig, Dataset, DynamicGamma, FixedGamma,
                         FixedK, RandomK, build_default_prior)
from bgmix.postprocess import (ConfusionResult, EmptySelectionError,
                               FilteredDraws, IdentificationError, Partition,
                               _canonical_rows, _expected_vi, ari,
                               coallocation_matrix, confusion_and_mcr,
                               filter_to_kplus, kplus_distribution,
                               map_partition, posterior_summary,
                               ppr_identify, vi_partition)
from bgmix.sampler import ChainOutput, Draws, run_chain
from reference import (canonical_rows, expected_vi_scores,
                       variation_of_information)


def _rec(it, eta, N_k, S=None, mu=None):
    eta = np.asarray(eta, dtype=float)
    K = eta.size
    if mu is None:
        mu = np.arange(K * 2, dtype=float).reshape(K, 2)
    return dict(iter=it, K=K, K_plus=int(np.count_nonzero(N_k)), eta=eta,
                mu=np.asarray(mu, dtype=float),
                Sigma=np.broadcast_to(np.eye(2), (K, 2, 2)),
                N_k=np.asarray(N_k), S=S)


def _chain(records):
    """A chain whose Draws table holds the given sweeps, slot after slot."""
    def column(name):
        return np.concatenate([rec[name] for rec in records])

    have_S = all(rec["S"] is not None for rec in records)
    return ChainOutput(records=Draws(
        iter=np.array([rec["iter"] for rec in records]),
        K=np.array([rec["K"] for rec in records]),
        K_plus=np.array([rec["K_plus"] for rec in records]),
        eta=column("eta"), mu=column("mu"), Sigma=column("Sigma"),
        N_k=column("N_k"),
        S=np.array([rec["S"] for rec in records]) if have_S else None))


class TestKplusDistribution:

    def test_relative_frequencies_sorted(self):
        chain = _chain([
            _rec(0, [0.5, 0.5], [3, 2]),
            _rec(1, [1.0, 0.0], [5, 0]),
            _rec(2, [0.4, 0.6], [2, 3]),
            _rec(3, [0.2, 0.8], [1, 4])])
        dist = kplus_distribution(chain)
        assert list(dist) == [1, 2]
        np.testing.assert_allclose([dist[1], dist[2]], [0.25, 0.75])


class TestFilterToKplus:

    def test_drops_empty_slots_and_remaps(self):
        S = np.array([2, 2, 0, 0, 0])
        chain = _chain([
            _rec(0, [0.3, 0.0, 0.7], [3, 0, 2], S=S,
                 mu=[[1.0, 1.0], [9.0, 9.0], [5.0, 5.0]]),
            _rec(1, [0.5, 0.5], [2, 3], S=[1, 1, 0, 0, 0],
                 mu=[[6.0, 6.0], [2.0, 2.0]])])
        filt = filter_to_kplus(chain, 2)
        assert filt.k_plus == 2
        np.testing.assert_array_equal(filt.sweep_indices, [0, 1])
        # record 0: component 1 was empty, so slot 2 compacts to slot 1
        np.testing.assert_allclose(filt.eta[0], [0.3, 0.7])
        np.testing.assert_allclose(filt.mu[0], [[1.0, 1.0], [5.0, 5.0]])
        np.testing.assert_array_equal(filt.S[0], [1, 1, 0, 0, 0])
        np.testing.assert_array_equal(filt.N_k, [[3, 2], [2, 3]])

    def test_respects_requested_kplus(self):
        chain = _chain([
            _rec(0, [0.5, 0.5], [3, 2], S=[0, 0, 0, 1, 1]),
            _rec(1, [1.0, 0.0], [5, 0], S=[0, 0, 0, 0, 0])])
        filt = filter_to_kplus(chain, 1)
        np.testing.assert_array_equal(filt.sweep_indices, [1])
        assert filt.eta.shape == (1, 1)

    def test_no_matching_sweep_raises(self):
        chain = _chain([_rec(0, [0.5, 0.5], [3, 2], S=[0, 0, 0, 1, 1])])
        with pytest.raises(EmptySelectionError):
            filter_to_kplus(chain, 3)

    def test_missing_assignments_propagate_as_none(self):
        chain = _chain([_rec(0, [0.5, 0.5], [3, 2])])
        filt = filter_to_kplus(chain, 2)
        assert filt.S is None

    @pytest.mark.parametrize("k_prior, gamma_spec, permute", [
        (FixedK(6), FixedGamma(0.01), False),
        (RandomK(1.0, 4.0, 3.0, k_max=20, k_init=6), DynamicGamma(0.5), True),
    ], ids=["sfm", "mfm"])
    def test_matches_per_sweep_loop_on_sparse_chain(self, k_prior,
                                                    gamma_spec, permute):
        """In a sparse chain empty slots sit anywhere, and in a telescoping
        one the rows differ in K; the flat gather must equal the per-sweep
        loop it replaced."""
        rng = np.random.default_rng(5)
        y = np.concatenate([rng.normal(0.0, 1.0, (30, 2)),
                            rng.normal(6.0, 1.0, (30, 2))])
        data = Dataset(y=y, feature_names=["a", "b"])
        prior = build_default_prior(data, gamma_spec=gamma_spec,
                                    k_prior=k_prior)
        chain = run_chain(data, prior,
                          ChainConfig(n_iter=150, burn_in=50, seed=3,
                                      permutation_step=permute))
        d = chain.records
        kplus = int(np.bincount(d.K_plus).argmax())
        filt = filter_to_kplus(chain, kplus)
        expected = [t for t in range(len(d)) if d.K_plus[t] == kplus]
        assert len(expected) > 0
        if isinstance(k_prior, RandomK):
            assert np.unique(d.K[expected]).size > 1
        np.testing.assert_array_equal(filt.sweep_indices, expected)
        eta, mu = d.eta.reshape(-1), d.mu.reshape(-1, 2)
        Sigma, N_k = d.Sigma.reshape(-1, 2, 2), d.N_k.reshape(-1)
        ends = np.cumsum(d.K)
        for row, t in enumerate(expected):
            slots = slice(ends[t] - d.K[t], ends[t])
            filled = np.flatnonzero(N_k[slots] > 0)
            remap = np.full(d.K[t], -1)
            remap[filled] = np.arange(kplus)
            np.testing.assert_array_equal(filt.eta[row], eta[slots][filled])
            np.testing.assert_array_equal(filt.mu[row], mu[slots][filled])
            np.testing.assert_array_equal(filt.Sigma[row],
                                          Sigma[slots][filled])
            np.testing.assert_array_equal(filt.N_k[row], N_k[slots][filled])
            np.testing.assert_array_equal(filt.S[row], remap[d.S[t]])


def _switched_draws(rng, T=40, noise=0.05, corrupt=()):
    """Sweeps whose slots hold the same three components under random
    label permutations; returns the draws and the generating truth."""
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    w = np.array([0.2, 0.3, 0.5])
    z = np.repeat([0, 1, 2], [4, 6, 10])
    T_, n = T, z.size
    eta = np.empty((T_, 3))
    mu = np.empty((T_, 3, 2))
    S = np.empty((T_, n), dtype=int)
    N_k = np.empty((T_, 3), dtype=int)
    for t in range(T_):
        p = rng.permutation(3)
        inv = np.empty(3, dtype=int)
        inv[p] = np.arange(3)
        mu[t] = centers[p] + noise * rng.standard_normal((3, 2))
        eta[t] = w[p]
        S[t] = inv[z]
        N_k[t] = np.bincount(S[t], minlength=3)
    for t in corrupt:
        mu[t] = centers[0] + noise * rng.standard_normal((3, 2))
    filt = FilteredDraws(
        k_plus=3, sweep_indices=np.arange(T_), eta=eta, mu=mu,
        Sigma=np.broadcast_to(np.eye(2), (T_, 3, 2, 2)).copy(),
        N_k=N_k, S=S)
    return filt, centers, w, z


class TestPprIdentify:

    def test_undoes_label_switching(self):
        rng = np.random.default_rng(0)
        filt, centers, w, z = _switched_draws(rng)
        ident = ppr_identify(filt, np.random.default_rng(1))
        assert ident.non_permutation_rate == 0.0
        assert ident.kept.size == 40
        # every sweep assigns each observation to the same identified label
        assert np.all(ident.S == ident.S[0])
        # identified weights are constant across sweeps, matching the truth
        gmap = np.array([ident.S[0][z == g][0] for g in range(3)])
        for g in range(3):
            np.testing.assert_array_equal(ident.eta[:, gmap[g]], w[g])
        for g in range(3):
            dists = np.linalg.norm(ident.mu[:, gmap[g]] - centers[g], axis=1)
            assert dists.max() < 1.0

    def test_non_permutation_sweeps_dropped(self):
        rng = np.random.default_rng(2)
        filt, _, _, _ = _switched_draws(rng, corrupt=(5, 17))
        ident = ppr_identify(filt, np.random.default_rng(3))
        np.testing.assert_allclose(ident.non_permutation_rate, 2 / 40)
        assert 5 not in ident.kept
        assert 17 not in ident.kept

    def test_collapsed_draws_raise(self):
        T = 6
        filt = FilteredDraws(
            k_plus=2, sweep_indices=np.arange(T),
            eta=np.full((T, 2), 0.5), mu=np.ones((T, 2, 2)),
            Sigma=np.broadcast_to(np.eye(2), (T, 2, 2, 2)).copy(),
            N_k=np.full((T, 2), 5), S=np.zeros((T, 10), dtype=int))
        with pytest.raises(IdentificationError):
            ppr_identify(filt, np.random.default_rng(6))

    def test_kept_sweeps_match_per_row_loop(self):
        rng = np.random.default_rng(4)
        filt, _, _, _ = _switched_draws(rng, T=60, noise=3.0,
                                        corrupt=range(0, 60, 7))
        ident = ppr_identify(filt, np.random.default_rng(5))
        # the pooled clustering ppr_identify runs, and the per-row check it
        # replaced: a sweep is kept when its labels are all distinct
        lab = kmeans(filt.mu.reshape(-1, 2), 3,
                     np.random.default_rng(5)).labels.reshape(60, 3)
        kept = np.flatnonzero([np.unique(row).size == 3 for row in lab])
        assert 0 < kept.size < 60
        np.testing.assert_array_equal(ident.kept, kept)
        assert ident.non_permutation_rate == 1.0 - kept.size / 60

    def test_map_partition_recovers_truth(self):
        rng = np.random.default_rng(7)
        filt, _, _, z = _switched_draws(rng)
        ident = ppr_identify(filt, np.random.default_rng(8))
        part = map_partition(ident.S)
        assert ari(part, z + 1) == 1.0


class TestPosteriorSummary:

    def test_means_and_report_order(self):
        ident = SimpleNamespace(
            eta=np.array([[0.5, 0.1, 0.4], [0.7, 0.1, 0.2]]),
            mu=np.zeros((2, 3, 1)),
            Sigma=np.ones((2, 3, 1, 1)),
            N_k=np.array([[50, 10, 40], [70, 10, 20]]))
        summ = posterior_summary(ident)
        np.testing.assert_allclose(summ.mean_eta, [0.6, 0.1, 0.3])
        np.testing.assert_allclose(summ.mean_N_k, [60.0, 10.0, 30.0])
        np.testing.assert_array_equal(summ.report_order, [1, 2, 0])


class TestMapPartition:

    def test_majority_vote(self):
        S = np.array([[0, 1, 1], [0, 1, 0], [0, 1, 1]])
        part = map_partition(S)
        np.testing.assert_array_equal(part.labels, [1, 2, 2])
        assert part.n_groups == 2

    def test_tie_goes_to_smallest_label(self):
        S = np.array([[0, 1], [1, 0]])
        part = map_partition(S)
        np.testing.assert_array_equal(part.labels, [1, 1])
        assert part.n_groups == 1

    def test_labels_compact_and_order_preserving(self):
        S = np.array([[3, 0, 3, 0]])
        part = map_partition(S)
        np.testing.assert_array_equal(part.labels, [2, 1, 2, 1])
        assert part.n_groups == 2

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            map_partition(np.array([0, 1, 1]))

    def test_matches_per_sweep_counting(self):
        S = np.random.default_rng(9).integers(0, 4, (50, 30))
        counts = np.zeros((30, 4), dtype=int)
        for t in range(S.shape[0]):
            np.add.at(counts, (np.arange(30), S[t]), 1)
        modal = counts.argmax(axis=1)
        part = map_partition(S)
        # labels 1..n_groups in the order of the modal labels
        np.testing.assert_array_equal(
            part.labels, np.searchsorted(np.unique(modal), modal) + 1)


class TestCoallocation:

    def test_small_example(self):
        S = np.array([[0, 0, 1], [0, 1, 1]])
        C = coallocation_matrix(S)
        expected = np.array([[1.0, 0.5, 0.0],
                             [0.5, 1.0, 0.5],
                             [0.0, 0.5, 1.0]])
        np.testing.assert_array_equal(C, expected)

    def test_invariant_under_per_sweep_relabeling(self):
        rng = np.random.default_rng(9)
        S = rng.integers(0, 4, size=(50, 30))
        S2 = np.empty_like(S)
        for t in range(S.shape[0]):
            perm = rng.permutation(4)
            S2[t] = perm[S[t]]
        np.testing.assert_array_equal(coallocation_matrix(S),
                                      coallocation_matrix(S2))

    def test_chunking_matches_single_block(self):
        rng = np.random.default_rng(10)
        S = rng.integers(0, 3, size=(4100, 12))
        C_all = coallocation_matrix(S)
        counts = np.zeros((12, 12))
        for t in range(S.shape[0]):
            eq = S[t][:, None] == S[t][None, :]
            counts += eq
        np.testing.assert_allclose(C_all, counts / S.shape[0], rtol=1e-12)


class TestVariationOfInformation:

    def test_zero_for_equal_partitions(self):
        a = np.array([1, 1, 2, 2, 3])
        assert variation_of_information(a, a) == 0.0
        b = np.array([3, 3, 1, 1, 2])
        np.testing.assert_allclose(variation_of_information(a, b), 0.0,
                                   atol=1e-14)

    def test_crossed_partitions(self):
        a = np.array([1, 1, 2, 2])
        b = np.array([1, 2, 1, 2])
        np.testing.assert_allclose(variation_of_information(a, b),
                                   2 * np.log(2), rtol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 4, 60)
        b = rng.integers(0, 3, 60)
        assert (variation_of_information(a, b)
                == variation_of_information(b, a))


class TestViPartition:

    def test_majority_partition_wins(self):
        base = np.array([0, 0, 1, 1, 2, 2])
        other = np.array([0, 0, 0, 1, 1, 1])
        S = np.vstack([np.tile(base, (8, 1)), np.tile(other, (2, 1))])
        part = vi_partition(S)
        np.testing.assert_array_equal(part.labels, [1, 1, 2, 2, 3, 3])
        assert part.n_groups == 3

    def test_relabeled_duplicates_collapse(self):
        """Sweeps that are the same partition under different label names
        must pool their weight."""
        a = np.array([0, 0, 1, 1])
        a_renamed = np.array([1, 1, 0, 0])
        b = np.array([0, 1, 0, 1])
        S = np.vstack([a, a_renamed, b])
        part = vi_partition(S)
        np.testing.assert_array_equal(part.labels, [1, 1, 2, 2])

    def test_thinning_keeps_result_for_constant_draws(self):
        row = np.array([0, 1, 1, 2])
        S = np.tile(row, (3000, 1))
        part = vi_partition(S, thin_to=100)
        np.testing.assert_array_equal(part.labels, [1, 2, 2, 3])

    def test_needs_two_sweeps(self):
        with pytest.raises(ValueError):
            vi_partition(np.array([[0, 1, 1]]))

    def test_canonical_rows_match_first_appearance_loop(self):
        S = np.random.default_rng(4).integers(0, 5, (40, 12))
        expected = np.empty_like(S)
        for t, row in enumerate(S):
            first = {}
            for i, v in enumerate(row):
                expected[t, i] = first.setdefault(v, len(first))
        np.testing.assert_array_equal(_canonical_rows(S), expected)

    def test_canonical_rows_with_skipped_labels(self):
        S = np.array([[7, 7, 2, 9, 2, 0],
                      [3, 3, 3, 3, 3, 3],
                      [0, 5, 0, 9, 5, 7]])
        np.testing.assert_array_equal(_canonical_rows(S),
                                      [[0, 0, 1, 2, 1, 3],
                                       [0, 0, 0, 0, 0, 0],
                                       [0, 1, 0, 2, 1, 3]])

    @pytest.mark.parametrize("dtype, lo, hi, T, N", [
        (np.int8, 0, 8, 40, 300),
        (np.int8, 0, 128, 30, 500),       # labels up to 127
        (np.int16, 0, 129, 30, 500),      # and 128
        (np.int16, 60, 300, 25, 400),     # a nonzero minimum label
        (np.int64, 3, 12, 50, 200),
        (np.int8, 5, 9, 1, 50),           # one row
        (np.int16, 0, 40, 20, 1),         # one column
        (np.int64, -4, 4, 1, 1),
    ])
    def test_canonical_rows_match_flat_unique_reference(self, dtype, lo, hi,
                                                        T, N):
        rng = np.random.default_rng(hi * T + N)
        S = rng.integers(lo, hi, (T, N)).astype(dtype)
        # the first row meets the smallest labels, and the largest too
        # where it is long enough
        S[0, :min(N, hi - lo)] = np.arange(lo, hi)[:N]
        got = _canonical_rows(S)
        want = canonical_rows(S)
        assert np.iinfo(got.dtype).max >= int(S.max()) - int(S.min()) + 1
        assert got.astype(np.int64).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_scores_match_pairwise_reference(self, seed):
        """Candidates of unequal group counts, some relabeled duplicates,
        and so many groups that the count blocks are split into chunks
        (with seed 3, some single tables exceed the chunk size)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        rows = [rng.integers(0, rng.integers(1, n + 1), n)
                for _ in range(int(rng.integers(2, 30)))]
        rows += [rng.permutation(n)[row] for row in rows[:5]]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        canon = _canonical_rows(np.array(rows))
        uniq, first, weights = np.unique(canon, axis=0, return_index=True,
                                         return_counts=True)
        order = np.argsort(first, kind="stable")
        uniq, weights = uniq[order], weights[order]
        assert weights.max() > 1
        ours = _expected_vi(uniq, weights)
        loop = expected_vi_scores(uniq, weights)
        np.testing.assert_allclose(ours, loop, rtol=1e-12)
        assert np.argmin(ours) == np.argmin(loop)
        best = uniq[np.argmin(loop)] + 1
        np.testing.assert_array_equal(vi_partition(np.array(rows)).labels,
                                      best)

    def test_two_candidates(self):
        same = np.array([[0, 0, 1, 1], [0, 0, 1, 1]])
        np.testing.assert_array_equal(_expected_vi(same, np.ones(2)), 0.0)
        crossed = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])
        np.testing.assert_allclose(_expected_vi(crossed, np.ones(2)),
                                   2 * np.log(2), rtol=1e-12)


class TestNarrowLabels:
    """Labels of int8 give the outputs of their int64 copy; labels of 64
    and more make m * start and the cell codes pass 127."""

    def _labels(self, rng, T=30, N=200):
        # every row a permutation of 70 labels, so the top ones appear
        S = np.empty((T, N), dtype=np.int8)
        for t in range(T):
            S[t] = rng.permutation(70)[rng.integers(0, 70, N)]
        return S

    def test_partitions(self):
        S = self._labels(np.random.default_rng(12))
        assert S.max() >= 64
        for f in (map_partition, vi_partition):
            narrow, wide = f(S), f(S.astype(np.int64))
            np.testing.assert_array_equal(narrow.labels, wide.labels)
            assert narrow.n_groups == wide.n_groups
        np.testing.assert_array_equal(coallocation_matrix(S),
                                      coallocation_matrix(S.astype(int)))
        canon = _canonical_rows(S)
        assert canon.max() >= 64
        # the two split the rows j into other chunks, so the scores add
        # their terms in another order
        np.testing.assert_allclose(
            _expected_vi(canon, np.arange(1.0, 31.0)),
            _expected_vi(canon.astype(np.int64), np.arange(1.0, 31.0)),
            rtol=1e-12)

    def test_filter_and_identify(self):
        """A sweep of 80 slots with 10 empty ones among them, next to one
        where they come last; the filtered and identified labels keep S's
        type and equal those of the int64 copy."""
        rng = np.random.default_rng(13)
        records, T, N = [], 20, 300
        for t in range(T):
            N_k = np.zeros(80, dtype=int)
            filled = (np.sort(rng.permutation(80)[:70]) if t % 2
                      else np.arange(70))
            S = filled[rng.permutation(np.arange(N) % 70)]
            N_k[filled] = np.bincount(S, minlength=80)[filled]
            mu = np.zeros((80, 2))
            mu[filled] = (np.arange(70)[:, None] * 10.0
                          + 0.01 * rng.standard_normal((70, 2)))
            records.append(_rec(t, np.full(80, 1 / 80), N_k, S=S, mu=mu))
        chain = _chain(records)
        narrow = chain.records.S.astype(np.int8)
        out = {}
        for S in (narrow, narrow.astype(np.int64)):
            chain.records.S = S
            filt = filter_to_kplus(chain, 70)
            ident = ppr_identify(filt, np.random.default_rng(14))
            assert filt.S.dtype == ident.S.dtype == S.dtype
            out[S.dtype.name] = (filt.S, ident.S, ident.kept)
        assert out["int8"][0].max() == 69
        assert out["int8"][2].size > 0
        for a, b in zip(out["int8"], out["int64"]):
            np.testing.assert_array_equal(a, b)

    def test_vi_partition_memory_of_a_wide_block(self):
        """100 sweeps of 4000 int8 labels (synth-n4000's candidate block):
        the search holds a few copies of the 0.4 MB block at a time,
        where sorting all T * N int64 keys took 13-14 MB."""
        rng = np.random.default_rng(15)
        S = rng.integers(0, 8, (100, 4000)).astype(np.int8)
        tracemalloc.start()
        try:
            part = vi_partition(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part.labels.shape == (4000,)
        assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"


class TestAri:

    def test_identical_partitions(self):
        a = np.array([1, 1, 2, 2, 3])
        assert ari(a, a) == 1.0
        assert ari(a, np.array([2, 2, 3, 3, 1])) == 1.0

    def test_hand_computed_value(self):
        a = np.array([1, 1, 1, 2, 2, 2])
        b = np.array([1, 1, 2, 2, 2, 2])
        np.testing.assert_allclose(ari(a, b), 1.2 / 3.7, rtol=1e-12)

    def test_independent_split_scores_zero(self):
        a = np.array([1, 1, 2, 2])
        b = np.array([1, 2, 1, 2])
        np.testing.assert_allclose(ari(a, b), -0.5)
        c = np.array([1, 1, 1, 2])
        np.testing.assert_allclose(ari(a, c), 0.0, atol=1e-14)

    def test_degenerate_partitions(self):
        singles = np.arange(4)
        ones = np.zeros(4, dtype=int)
        assert ari(singles, singles) == 1.0
        assert ari(singles, ones) == 0.0

    def test_accepts_partition_objects(self):
        p = Partition(labels=np.array([1, 1, 2]), n_groups=2)
        assert ari(p, np.array([5, 5, 9])) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ari(np.array([1, 2]), np.array([1, 2, 3]))


class TestConfusionAndMcr:

    def test_aligned_partitions(self):
        truth = np.array([1, 1, 2, 2, 2])
        est = np.array([2, 2, 1, 1, 1])
        res = confusion_and_mcr(est, truth)
        np.testing.assert_array_equal(res.table, [[2, 0], [0, 3]])
        assert res.mcr == 0.0

    def test_single_misplaced_observation(self):
        truth = np.array([1, 1, 2, 2, 2])
        est = np.array([1, 2, 2, 2, 2])
        res = confusion_and_mcr(est, truth)
        np.testing.assert_array_equal(res.table, [[1, 1], [0, 3]])
        np.testing.assert_allclose(res.mcr, 0.2)

    def test_rows_and_cols_ordered_by_size(self):
        truth = np.array([1, 1, 1, 1, 2, 2])
        est = np.array([1, 1, 1, 1, 2, 2])
        res = confusion_and_mcr(est, truth)
        # ascending size: the 2-group row/col first
        np.testing.assert_array_equal(res.table, [[2, 0], [0, 4]])
        np.testing.assert_array_equal(res.row_labels, [2, 1])
        np.testing.assert_array_equal(res.col_labels, [2, 1])

    def test_rectangular_table(self):
        truth = np.array([1, 1, 1, 2, 2, 2])
        est = np.array([1, 1, 2, 2, 3, 3])
        res = confusion_and_mcr(est, truth)
        assert res.table.shape == (2, 3)
        assert res.table.sum() == 6

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_and_mcr(np.array([1, 2]), np.array([1, 2, 3]))
