import numpy as np
import pytest
from pytest import approx

from popbias.errors import UndefinedMetricError, ValidationError
from popbias.metrics import (
    RankedCandidates,
    auc,
    average_precision_at_k,
    delta_gap,
    gap,
    mean_with_stderr,
    row_means,
)


def brute_force_auc(ordering, positives):
    """Oracle: count concordant (positive, negative) pairs directly."""
    positives = set(int(p) for p in positives)
    pos_pos = [i for i, a in enumerate(ordering) if int(a) in positives]
    neg_pos = [i for i, a in enumerate(ordering) if int(a) not in positives]
    concordant = 0
    for p in pos_pos:
        for n in neg_pos:
            if p < n:
                concordant += 1
    return concordant / (len(pos_pos) * len(neg_pos))


def brute_force_ap_at_k(ordering, positives, k):
    """Oracle: the direct summation definition of AP@K."""
    positives = set(int(p) for p in positives)
    hits = 0
    total = 0.0
    for rank, artist in enumerate(ordering[:k], start=1):
        if int(artist) in positives:
            hits += 1
            total += hits / rank
    return total / min(k, len(positives))


def ranked(ordering, positives):
    return RankedCandidates(np.asarray(ordering), np.asarray(positives))


def per_user_gap(profiles, phi):
    """Oracle: GAP as one ``np.mean`` per user, then the mean of those means."""
    user_means = []
    for prof in profiles:
        arr = np.asarray(prof, dtype=np.int64)
        if arr.size == 0:
            raise ValidationError("GAP undefined for an empty user artist set")
        if arr.max() >= len(phi) or arr.min() < 0:
            raise ValidationError("artist index outside the popularity table")
        user_means.append(float(phi[arr].mean()))
    if not user_means:
        raise ValidationError("GAP undefined for an empty user group")
    return float(np.mean(user_means))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return str(exc)


class TestAuc:
    def test_perfect_ranking(self):
        r = ranked([7, 3, 1, 2, 9], [7, 3])
        assert auc(r) == 1.0

    def test_positives_at_ranks_one_and_three(self):
        # concordant pairs: 3 + 2 of 6
        r = ranked([10, 11, 12, 13, 14], [10, 12])
        assert auc(r) == approx(5 / 6)

    def test_random_rankings_average_half(self):
        rng = np.random.default_rng(0)
        vals = []
        for _ in range(400):
            ordering = rng.permutation(30)
            positives = rng.choice(30, size=5, replace=False)
            vals.append(auc(ranked(ordering, positives)))
        assert np.mean(vals) == approx(0.5, abs=0.02)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 51))
            ordering = rng.permutation(n)
            p = int(rng.integers(1, n))
            positives = rng.choice(n, size=p, replace=False)
            r = ranked(ordering, positives)
            assert auc(r) == brute_force_auc(ordering, positives)

    def test_invariant_to_shuffles_within_prefix_and_suffix(self):
        rng = np.random.default_rng(2)
        ordering = np.arange(12)
        positives = np.array([0, 1, 2, 5])
        base = auc(ranked(ordering, positives))
        # items 0..2 are an all-positive prefix; items 6..11 all-negative suffix
        shuffled = np.concatenate([
            rng.permutation(ordering[:3]), ordering[3:6], rng.permutation(ordering[6:]),
        ])
        assert auc(ranked(shuffled, positives)) == base

    def test_adjacent_swap_increases_by_one_over_pn(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 20))
            ordering = rng.permutation(n)
            p = int(rng.integers(1, n - 1))
            positives = set(rng.choice(n, size=p, replace=False).tolist())
            is_pos = [int(a) in positives for a in ordering]
            swap_at = next(
                (i for i in range(n - 1) if not is_pos[i] and is_pos[i + 1]), None
            )
            if swap_at is None:
                continue
            before = auc(ranked(ordering, list(positives)))
            swapped = ordering.copy()
            swapped[[swap_at, swap_at + 1]] = swapped[[swap_at + 1, swap_at]]
            after = auc(ranked(swapped, list(positives)))
            assert after - before == approx(1 / (p * (n - p)), rel=1e-12)

    def test_undefined_without_positives_or_negatives(self):
        with pytest.raises(UndefinedMetricError):
            auc(ranked([1, 2, 3], []))
        with pytest.raises(UndefinedMetricError):
            auc(ranked([1, 2, 3], [1, 2, 3]))

    def test_duplicate_ordering_rejected(self):
        with pytest.raises(ValidationError):
            ranked([1, 1, 2], [1])

    def test_positives_outside_candidates_rejected(self):
        with pytest.raises(ValidationError):
            ranked([1, 2, 3], [9])


class TestAveragePrecision:
    def test_single_positive_first(self):
        assert average_precision_at_k(ranked([5, 6, 7], [5]), 10) == 1.0

    def test_single_positive_second(self):
        assert average_precision_at_k(ranked([5, 6, 7], [6]), 10) == approx(0.5)

    def test_positives_at_one_and_three_with_k_two(self):
        r = ranked([4, 5, 6, 7, 8], [4, 6])
        assert average_precision_at_k(r, 2) == approx(0.5)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(2, 51))
            ordering = rng.permutation(n)
            p = int(rng.integers(1, n))
            positives = rng.choice(n, size=p, replace=False)
            k = int(rng.integers(1, n + 5))
            r = ranked(ordering, positives)
            assert average_precision_at_k(r, k) == brute_force_ap_at_k(
                ordering, positives, k
            )

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            average_precision_at_k(ranked([1, 2], [1]), 0)


class TestGap:
    def pop(self, phi):
        return np.asarray(phi, dtype=float)

    def test_single_user_mean(self):
        pop = self.pop([0.1, 0.3, 0.9])
        assert gap([[0, 1]], pop) == approx(0.2)

    def test_mean_of_means_not_pair_weighted(self):
        pop = self.pop([0.2, 0.2, 0.2, 0.4, 0.4])
        # user A mean 0.2 over three artists, user B mean 0.4 over two
        assert gap([[0, 1, 2], [3, 4]], pop) == approx(0.3)

    def test_constant_phi(self):
        pop = self.pop([0.7] * 4)
        assert gap([[0], [1, 2], [3]], pop) == approx(0.7)

    def test_singleton_group_collapses(self):
        pop = self.pop([0.1, 0.5, 0.6])
        assert gap([[1, 2]], pop) == approx(0.55)

    def test_empty_user_set_rejected(self):
        with pytest.raises(ValidationError):
            gap([[0], []], self.pop([0.5]))

    def test_unknown_artist_rejected(self):
        with pytest.raises(ValidationError):
            gap([[3]], self.pop([0.5]))

    def test_empty_group_rejected(self):
        with pytest.raises(ValidationError, match="^GAP undefined for an empty user group$"):
            gap([], self.pop([0.5]))

    def test_matches_the_per_user_loop_byte_for_byte(self):
        # real-width profiles reach 1,070 artists
        rng = np.random.default_rng(11)
        for _ in range(40):
            phi = rng.uniform(0, 1, 1500) * 10.0 ** rng.integers(-3, 1, 1500)
            lengths = rng.integers(1, 1201, int(rng.integers(1, 30)))
            profiles = [rng.integers(0, len(phi), n) for n in lengths]
            expected = per_user_gap(profiles, phi)
            assert np.float64(gap(profiles, phi)).tobytes() == np.float64(expected).tobytes()
            assert gap(iter(p.tolist() for p in profiles), phi) == expected
            assert gap([p.astype(np.int32) for p in profiles], phi) == expected

    def test_first_faulty_user_raises_as_the_per_user_loop_does(self):
        rng = np.random.default_rng(12)
        phi = rng.uniform(0, 1, 20)
        for _ in range(300):
            profiles = [rng.integers(0, 20, int(rng.integers(0, 4)))
                        for _ in range(int(rng.integers(1, 6)))]
            for prof in profiles:
                if prof.size and rng.random() < 0.2:
                    prof[rng.integers(prof.size)] = rng.choice([-1, 20, 10**6])
            assert outcome(gap, profiles, phi) == outcome(per_user_gap, profiles, phi)

    def test_out_of_range_user_before_an_empty_one(self):
        with pytest.raises(ValidationError, match="^artist index outside the popularity table$"):
            gap([[0], [1, 5], [], [2]], self.pop([0.1, 0.2, 0.3]))
        with pytest.raises(ValidationError, match="^GAP undefined for an empty user artist set$"):
            gap([[0], [], [1, 5], [2]], self.pop([0.1, 0.2, 0.3]))


class TestRowMeans:
    def test_every_length_to_1200_matches_np_mean_byte_for_byte(self):
        # each length once, in shuffled order, past NumPy's 128-value pairwise block
        rng = np.random.default_rng(13)
        lengths = rng.permutation(np.arange(1, 1201))
        values = rng.uniform(0, 1, int(lengths.sum())) * 10.0 ** rng.integers(-6, 3, int(lengths.sum()))
        ends = np.cumsum(lengths)
        expected = np.array([np.mean(values[end - n : end]) for n, end in zip(lengths, ends)])
        assert row_means(values, lengths).tobytes() == expected.tobytes()

    def test_repeated_lengths_keep_their_places(self):
        values = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 5.0, 7.0, 9.0, 100.0])
        assert row_means(values, np.array([2, 1, 1, 1, 3, 1])).tolist() == [
            1.5, 3.0, 10.0, 20.0, 7.0, 100.0]


class TestDeltaGap:
    def test_triple(self):
        assert delta_gap(0.2, 0.6) == approx(2.0)

    def test_zero_when_equal(self):
        assert delta_gap(0.37, 0.37) == 0.0

    def test_negative_lift(self):
        assert delta_gap(0.25, 0.05) == approx(-0.8)

    def test_requires_positive_gap_p(self):
        with pytest.raises(ValidationError):
            delta_gap(0.0, 0.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gp, gr = rng.uniform(0.01, 1.0, size=2)
            c = rng.uniform(0.1, 100.0)
            assert delta_gap(c * gp, c * gr) == approx(delta_gap(gp, gr), rel=1e-12)


class TestMeanWithStderr:
    def test_constant(self):
        assert mean_with_stderr([0.5, 0.5, 0.5]) == (0.5, 0.0)

    def test_two_values(self):
        mean, stderr = mean_with_stderr([0.0, 1.0])
        assert mean == approx(0.5)
        assert stderr == approx(0.5)

    def test_single_value_has_no_stderr(self):
        mean, stderr = mean_with_stderr([0.7])
        assert mean == approx(0.7)
        assert stderr is None

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mean_with_stderr([])
