import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from popbias.corpus import compute_popularity, split_mask
from popbias.errors import ValidationError
from popbias.metrics import gap
from popbias.models.base import (
    PopularityRecommender,
    RandomRecommender,
    positive_ranks,
    rank_candidates,
)
from popbias.models.multivae import MultiVaeRecommender
from popbias.models.slim import SlimRecommender
from popbias.models.wrmf import WrmfRecommender

import ranking_reference
from conftest import make_dataset, random_dataset
from entry_points import recommend_top_n


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

    def test_scoring_before_fit_rejected(self):
        with pytest.raises(ValidationError, match="PopularityRecommender is not fitted"):
            PopularityRecommender().score_user(0)


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            RandomRecommender(seed=-1)


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


def long_score_vectors(trials=24):
    """Seeded ``(scores, exclude)`` pairs of 100-5,000 entries: tie-heavy
    integers, normals and {±0, ±inf, NaN, 3}, some with NaN sprinkled in."""
    rng = np.random.default_rng(17)
    for trial in range(trials):
        n = int(rng.integers(100, 5000))
        pool = [rng.integers(0, 1 + trial % 7, n).astype(float), rng.normal(size=n),
                rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 3.0], n)]
        scores = pool[trial % 3]
        scores[rng.random(n) < 0.05 * (trial % 4)] = np.nan
        exclude = rng.choice(n, int(rng.integers(0, n // 2)), replace=False)
        yield scores, (None, exclude)[trial % 2]


class TestTopNRanking:
    """``rank_candidates(..., n)`` is the first ``n`` of the full ordering."""

    @given(tie_heavy_scores, st.sampled_from(["none", "partial", "total"]),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_every_prefix_matches_reference(self, scores, exclusion, rnd):
        size = len(scores)
        exclude = {"none": None, "partial": rnd.sample(range(size), rnd.randint(0, size)),
                   "total": list(range(size))}[exclusion]
        expected = ranking_reference.rank_candidates(scores, exclude)
        for n in range(size + 2):
            assert rank_candidates(np.array(scores), exclude, n).tolist() == (
                expected[:n].tolist())

    def test_every_prefix_matches_reference_on_long_vectors(self):
        cuts = set()  # kinds of n-th value the loop went through
        for scores, exclude in long_score_vectors(trials=6):
            expected = ranking_reference.rank_candidates(scores, exclude)
            ranked = scores[expected]
            for n in range(len(expected) + 2):
                assert np.array_equal(rank_candidates(scores, exclude, n), expected[:n])
                if 0 < n < len(expected):
                    last, after = ranked[n - 1], ranked[n]
                    if np.isnan(last):
                        cuts.add("nan")
                    elif last == after:
                        cuts.add("signed zeros" if last == 0 and np.signbit(last) != np.signbit(
                            after) else "tie")
        assert cuts == {"nan", "tie", "signed zeros"}

    @pytest.mark.parametrize("n", [-1, -5])
    def test_negative_n_rejected(self, n):
        with pytest.raises(ValidationError, match=f"n must be >= 0, got {n}"):
            rank_candidates([5.0, 4.0, 3.0, 2.0, 1.0], n=n)

    def test_recommend_top_n_takes_the_prefix(self):
        for scores, _ in long_score_vectors(trials=6):
            model = PopularityRecommender()
            model.scores_, model.num_artists_ = scores, len(scores)
            ds = make_dataset([[1] + [0] * (len(scores) - 1)])
            top = recommend_top_n(model, ds, 0, 25)
            assert top.tolist() == ranking_reference.rank_candidates(scores, [0])[:25].tolist()
            assert top.base is None


class TestPositiveRanks:
    """``positive_ranks`` gives the positives' places in the full ordering."""

    @staticmethod
    def check(scores, exclude, rng):
        expected = ranking_reference.rank_candidates(scores, exclude)
        positives = rng.permutation(expected)[: int(rng.integers(0, len(expected) + 1))]
        ranks, num_candidates = positive_ranks(scores, exclude, positives)
        assert ranks.tolist() == np.flatnonzero(np.isin(expected, positives)).tolist()
        assert num_candidates == len(expected)

    @given(tie_heavy_scores, st.sampled_from(["none", "partial", "total"]),
           st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_positions(self, scores, exclusion, rnd):
        size = len(scores)
        exclude = {"none": None, "partial": rnd.sample(range(size), rnd.randint(0, size)),
                   "total": list(range(size))}[exclusion]
        self.check(np.array(scores), exclude, np.random.default_rng(rnd.randint(0, 2**32)))

    def test_matches_reference_positions_on_long_vectors(self):
        rng = np.random.default_rng(3)
        for scores, exclude in long_score_vectors():
            for _ in range(4):
                self.check(scores, exclude, rng)

    def test_positive_outside_the_candidates_rejected(self):
        scores = np.array([3.0, 1.0, 2.0, 2.0])
        with pytest.raises(ValidationError, match="not a subset"):
            positive_ranks(scores, [1, 2], [0, 2])
        with pytest.raises(ValidationError, match="not a subset"):
            positive_ranks(scores, [0, 1, 2, 3], [3])


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
            pop_train = compute_popularity(train)
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
            per_user_rec.append(pop[top].mean())
            cand = np.setdiff1d(np.arange(30), ds.profile(u))
            per_user_cand.append(pop[cand].mean())
        diff = np.mean(per_user_rec) - np.mean(per_user_cand)
        stderr = np.std(per_user_rec, ddof=1) / np.sqrt(len(per_user_rec))
        assert abs(diff) <= 3 * stderr
