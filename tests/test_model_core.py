import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from popbias.corpus import compute_popularity, split_mask
from popbias.errors import ValidationError
from popbias.metrics import gap
from popbias.models import (
    MultiVaeRecommender,
    PopularityRecommender,
    RandomRecommender,
    SlimRecommender,
    WrmfRecommender,
    load_model,
    rank_candidates,
    recommend_top_n,
    save_model,
)

import ranking_reference
from conftest import make_dataset, random_dataset


class TestPopularityModel:
    def test_listener_counts_identical_for_all_users(self):
        ds = make_dataset([
            [5, 1, 0],
            [2, 0, 0],
            [9, 0, 1],
            [0, 0, 3],
        ])
        model = PopularityRecommender().fit(ds)
        expected = np.array([3.0, 1.0, 2.0])
        for u in range(4):
            assert np.array_equal(model.score_user(u), expected)

    def test_play_count_weighting(self):
        ds = make_dataset([[5, 1], [2, 1]])
        model = PopularityRecommender(weighting="plays").fit(ds)
        assert np.array_equal(model.score_user(0), np.array([7.0, 2.0]))

    def test_equal_counts_tie_break_ascending_index(self):
        ds = make_dataset([[1, 0, 1, 1], [0, 1, 1, 1]])
        # artists 2 and 3 tie at 2 listeners; 0 and 1 tie at 1
        model = PopularityRecommender().fit(ds)
        ranking = rank_candidates(model.score_user(0))
        assert ranking.tolist() == [2, 3, 0, 1]

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ValidationError):
            PopularityRecommender(weighting="downloads")


class TestRandomModel:
    def test_deterministic_per_seed_and_user(self):
        ds = make_dataset(np.ones((3, 8), dtype=int))
        model = RandomRecommender(seed=11).fit(ds)
        assert np.array_equal(model.score_user(1), model.score_user(1))
        again = RandomRecommender(seed=11).fit(ds)
        assert np.array_equal(model.score_user(2), again.score_user(2))

    def test_different_users_differ(self):
        ds = make_dataset(np.ones((2, 40), dtype=int))
        model = RandomRecommender(seed=0).fit(ds)
        assert not np.array_equal(model.score_user(0), model.score_user(1))

    def test_scores_are_a_permutation(self):
        ds = make_dataset(np.ones((1, 10), dtype=int))
        model = RandomRecommender(seed=4).fit(ds)
        assert sorted(model.score_user(0).tolist()) == list(map(float, range(10)))


# few distinct values, so most vectors have runs of ties
tie_heavy_scores = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])
    | st.floats(allow_nan=True, allow_infinity=True),
    max_size=40,
)


class TestRankCandidates:
    @given(tie_heavy_scores, st.sampled_from(["none", "empty", "partial", "total"]),
           st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort_reference(self, scores, exclusion, rnd):
        n = len(scores)
        exclude = {
            "none": None,
            "empty": [],
            "partial": rnd.sample(range(n), rnd.randint(0, n)),
            "total": list(range(n)),
        }[exclusion]
        got = rank_candidates(np.array(scores), exclude=exclude)
        assert got.tolist() == ranking_reference.rank_candidates(scores, exclude).tolist()

    def test_matches_lexsort_reference_on_long_vectors(self):
        # long enough for the vectorised sort kernels, not only their small-array paths
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = int(rng.integers(100, 5000))
            pool = [rng.integers(0, 1 + trial % 7, n).astype(float), rng.normal(size=n),
                    rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 3.0], n)]
            scores = pool[trial % 3]
            scores[rng.random(n) < 0.05 * (trial % 4)] = np.nan
            exclude = rng.choice(n, int(rng.integers(0, n // 2)), replace=False)
            for ex in (None, exclude):
                expected = ranking_reference.rank_candidates(scores, ex)
                assert np.array_equal(rank_candidates(scores, ex), expected)


class TestTopN:
    def test_profile_excluded_despite_top_score(self):
        ds = make_dataset([[9, 0, 0, 0, 0], [1, 1, 1, 1, 1]])

        class Fixed(PopularityRecommender):
            def fit(self, train):
                self.scores_ = np.array([9.0, 1.0, 2.0, 3.0, 4.0])
                self.num_artists_ = train.num_artists
                return self

        model = Fixed().fit(ds)
        top = recommend_top_n(model, ds, user=0, n=3)
        assert top.tolist() == [4, 3, 2]

    def test_short_candidate_list_returned_whole(self):
        ds = make_dataset([[1, 1, 0], [1, 1, 1]])
        model = PopularityRecommender().fit(ds)
        top = recommend_top_n(model, ds, user=0, n=10)
        assert top.tolist() == [2]
        assert top.base is None

    def test_popularity_top_n_is_globally_most_popular_excluding_profile(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, num_users=6, num_artists=10)
        model = PopularityRecommender().fit(ds)
        listeners = ds.counts.getnnz(axis=0)
        for u in range(ds.num_users):
            profile = set(ds.profile(u).tolist())
            candidates = [a for a in range(10) if a not in profile]
            # brute force: best-3 by (listeners desc, index asc)
            expected = sorted(candidates, key=lambda a: (-listeners[a], a))[:3]
            got = recommend_top_n(model, ds, u, 3).tolist()
            assert got == expected

    def test_validation(self):
        ds = make_dataset([[1, 1]])
        model = PopularityRecommender().fit(ds)
        with pytest.raises(ValidationError):
            recommend_top_n(model, ds, 0, 0)
        with pytest.raises(ValidationError):
            recommend_top_n(model, ds, 5, 1)

    def test_exclusion_invariant_all_models(self, zipf_dataset, zipf_split):
        train = zipf_split.train
        models = [
            PopularityRecommender().fit(train),
            RandomRecommender(seed=2).fit(train),
            WrmfRecommender(factors=8, sweeps=3, init_seed=1).fit(train),
        ]
        for model in models:
            for u in range(0, train.num_users, 7):
                top = recommend_top_n(model, train, u, 10)
                assert set(top.tolist()) & set(train.profile(u).tolist()) == set()


class TestPopularityDominance:
    def test_upper_bound_over_random_datasets(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            ds = random_dataset(rng, num_users=12, num_artists=14)
            split = split_mask(ds, 0.3, seed=trial)
            train = split.train
            pop_train = compute_popularity(ds, scope="train-only", split=split)
            contenders = [
                RandomRecommender(seed=trial).fit(train),
                SlimRecommender(l1_penalty=0.1, l2_penalty=0.1, max_iters=50).fit(train),
                WrmfRecommender(factors=4, sweeps=3, init_seed=trial).fit(train),
                MultiVaeRecommender(latent_dim=3, hidden_dim=6, epochs=2,
                                    batch_size=4, init_seed=trial).fit(train),
            ]
            baseline = PopularityRecommender().fit(train)
            base_tops = [recommend_top_n(baseline, train, u, 5) for u in range(ds.num_users)]
            base_gap = gap(base_tops, pop_train)
            for model in contenders:
                tops = [recommend_top_n(model, train, u, 5) for u in range(ds.num_users)]
                assert gap(tops, pop_train) <= base_gap + 1e-12, model.model_type

    def test_random_top_n_mean_phi_matches_candidate_mean(self):
        rng = np.random.default_rng(3)
        counts = np.zeros((240, 30), dtype=np.int64)
        for u in range(240):
            cols = rng.choice(30, size=5, replace=False)
            counts[u, cols] = 1
        ds = make_dataset(counts)
        pop = compute_popularity(ds)
        model = RandomRecommender(seed=9).fit(ds)
        per_user_rec = []
        per_user_cand = []
        for u in range(ds.num_users):
            top = recommend_top_n(model, ds, u, 10)
            per_user_rec.append(pop.phi[top].mean())
            cand = np.setdiff1d(np.arange(30), ds.profile(u))
            per_user_cand.append(pop.phi[cand].mean())
        diff = np.mean(per_user_rec) - np.mean(per_user_cand)
        stderr = np.std(per_user_rec, ddof=1) / np.sqrt(len(per_user_rec))
        assert abs(diff) <= 3 * stderr


class TestPersistence:
    def fit_models(self, train):
        return [
            PopularityRecommender().fit(train),
            RandomRecommender(seed=5).fit(train),
            SlimRecommender(l1_penalty=0.05, l2_penalty=0.05).fit(train),
            WrmfRecommender(factors=6, sweeps=3, init_seed=2).fit(train),
            MultiVaeRecommender(latent_dim=4, hidden_dim=8, epochs=2,
                                batch_size=4, init_seed=2).fit(train),
        ]

    def test_round_trip_scores_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, num_users=8, num_artists=12)
        for model in self.fit_models(ds):
            path = tmp_path / f"{model.model_type}.npz"
            save_model(model, path)
            loaded = load_model(path, train=ds)
            for u in range(ds.num_users):
                a = model.score_user(u)
                b = loaded.score_user(u)
                assert a.tobytes() == b.tobytes(), model.model_type

    def test_unfitted_model_cannot_save(self, tmp_path):
        with pytest.raises(ValidationError):
            save_model(PopularityRecommender(), tmp_path / "x.npz")

    def test_bad_container_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(ValidationError, match="not a model container"):
            load_model(path)

    def test_score_without_train_binding_raises(self, tmp_path):
        rng = np.random.default_rng(18)
        ds = random_dataset(rng, num_users=5, num_artists=8)
        model = SlimRecommender(l1_penalty=0.05, l2_penalty=0.05).fit(ds)
        path = tmp_path / "slim.npz"
        save_model(model, path)
        loaded = load_model(path)
        with pytest.raises(ValidationError, match="bind_train"):
            loaded.score_user(0)
