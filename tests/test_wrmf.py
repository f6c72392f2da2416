import numpy as np
import pytest
import scipy.sparse as sp
from pytest import approx

from popbias.errors import NumericalError, ValidationError
from popbias.models.wrmf import WrmfRecommender, _cannot_overflow, _confidences, wrmf_objective

from conftest import make_dataset, random_dataset
from entry_points import solve_factors
from wrmf_reference import reference_factors, reference_solve_factors

TOY_COUNTS = np.array([
    [3, 0, 1, 0],
    [0, 2, 0, 1],
    [1, 1, 0, 0],
    [0, 0, 4, 1],
    [2, 0, 0, 3],
])
TOY = make_dataset(TOY_COUNTS)


def random_counts(rng, num_rows, num_cols):
    """CSR counts whose rows include empty and one-entry rows."""
    lengths = rng.integers(0, num_cols + 1, size=num_rows)
    lengths[:2] = 0, 1
    rng.shuffle(lengths)
    indices = np.concatenate(
        [np.sort(rng.choice(num_cols, size=k, replace=False)) for k in lengths]
    )
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    data = rng.integers(1, 40, size=indices.size).astype(np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(num_rows, num_cols))


def repeated_one_play_counts(rng, num_rows, num_cols):
    """CSR counts of which at least half the rows repeat an earlier row's
    one entry: the same column and count, drawn from a few keys."""
    mixed = random_counts(rng, num_rows // 4, num_cols)
    pool = [(int(rng.integers(num_cols)), float(rng.integers(1, 4))) for _ in range(3)]
    keys = [pool[k] for k in rng.integers(len(pool), size=num_rows - mixed.shape[0])]
    one = sp.csr_matrix(([c for _, c in keys], [j for j, _ in keys], np.arange(len(keys) + 1)),
                        shape=(len(keys), num_cols))
    mat = sp.vstack([mixed, one]).tocsr()[rng.permutation(num_rows)]
    assert one_play_repeats(mat) >= num_rows // 2
    return mat


def one_play_repeats(mat):
    """Rows holding one entry whose (column, count) an earlier such row holds."""
    seen = set()
    repeats = 0
    for i in range(mat.shape[0]):
        lo, hi = mat.indptr[i], mat.indptr[i + 1]
        if hi - lo == 1:
            key = (int(mat.indices[lo]), float(mat.data[lo]))
            repeats += key in seen
            seen.add(key)
    return repeats


def dense_solve_side(counts, other, alpha, ridge):
    """Oracle: per-row solve with full dense confidence matrices."""
    n, d = counts.shape[0], other.shape[1]
    out = np.zeros((n, d))
    for i in range(n):
        conf = 1.0 + alpha * counts[i].astype(float)
        pref = (counts[i] > 0).astype(float)
        system = other.T @ np.diag(conf) @ other + ridge * np.eye(d)
        out[i] = np.linalg.solve(system, other.T @ (conf * pref))
    return out


def dense_objective(counts, X, Y, alpha, ridge):
    conf = 1.0 + alpha * counts.astype(float)
    pref = (counts > 0).astype(float)
    scores = X @ Y.T
    return float(np.sum(conf * (pref - scores) ** 2)
                 + ridge * (np.sum(X**2) + np.sum(Y**2)))


class TestSolves:
    def test_user_updates_match_dense_oracle(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((4, 2))
        alpha, ridge = 2.0, 0.5
        X = solve_factors(TOY.counts.astype(float).tocsr(), Y, alpha, ridge)
        X_ref = dense_solve_side(TOY_COUNTS, Y, alpha, ridge)
        assert X == approx(X_ref, abs=1e-8)

    def test_item_updates_match_dense_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 2))
        alpha, ridge = 1.5, 0.3
        Y = solve_factors(TOY.counts.astype(float).T.tocsr(), X, alpha, ridge)
        Y_ref = dense_solve_side(TOY_COUNTS.T, X, alpha, ridge)
        assert Y == approx(Y_ref, abs=1e-8)

    def test_scalar_closed_form(self):
        # 1 user, 1 item, count 1, d = 1: x = c*y / (c*y^2 + ridge)
        ds = make_dataset([[1]])
        alpha, ridge = 3.0, 0.7
        y = np.array([[0.4]])
        x = solve_factors(ds.counts.astype(float).tocsr(), y, alpha, ridge)[0, 0]
        c = 1.0 + alpha
        assert x == approx(c * 0.4 / (c * 0.16 + ridge), abs=1e-12)

    def test_empty_row_solves_to_zero(self):
        # transposed matrix has an empty column for artist 2 if nobody plays it
        ds = make_dataset([[1, 1, 0], [2, 1, 0]])
        rng = np.random.default_rng(2)
        X = rng.standard_normal((2, 2))
        Y = solve_factors(ds.counts.astype(float).T.tocsr(), X, 1.0, 0.5)
        assert np.array_equal(Y[2], np.zeros(2))

    @pytest.mark.parametrize("confidence", ["linear", "log"])
    @pytest.mark.parametrize("d", [1, 3, 32])
    def test_matches_reference_solver_byte_for_byte(self, confidence, d):
        rng = np.random.default_rng([d, len(confidence)])
        for trial in range(6):
            mat = random_counts(rng, int(rng.integers(2, 30)), int(rng.integers(1, 50)))
            other = rng.standard_normal((mat.shape[1], d)) * rng.uniform(0.01, 3.0)
            alpha, ridge = rng.uniform(0.1, 40.0), rng.uniform(0.01, 2.0)
            got = solve_factors(mat, other, alpha, ridge, confidence)
            want = reference_solve_factors(mat, other, alpha, ridge, confidence)
            assert got.tobytes() == want.tobytes()

    def test_overflowed_system_raises_naming_row(self):
        # y^2 overflows the system; without a check potrf factors the inf
        # into finite garbage
        mat = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        other = np.array([[1.0, 0.0], [1e200, 1.0]])
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalError, match="non-finite normal equations at row 1"):
            solve_factors(mat, other, 1.0, 0.1)

    def test_overflowed_right_hand_side_raises_naming_row(self):
        # c = 1.7e308 is finite and so is c * y^2, but c * y summed over
        # two items is not
        mat = sp.csr_matrix(np.array([[1.0, 1.0]]))
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalError, match="non-finite solution at row 0"):
            solve_factors(mat, np.array([[0.6], [0.6]]), 1.7e308, 0.1)

    def test_updated_rows_are_conditional_minimizers(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((4, 2))
        alpha, ridge = 2.0, 0.5
        X = solve_factors(TOY.counts.astype(float).tocsr(), Y, alpha, ridge)
        base = dense_objective(TOY_COUNTS, X, Y, alpha, ridge)
        eps = 1e-4
        for u in range(5):
            for k in range(2):
                for sign in (+1, -1):
                    X2 = X.copy()
                    X2[u, k] += sign * eps
                    assert dense_objective(TOY_COUNTS, X2, Y, alpha, ridge) > base - 1e-10


def group_failure(big, y0):
    """Counts and opposite factors where rows 3, 5 and 6 share one one-play key
    (column 0, count ``big``) and row 3 is the first whose system fails."""
    dense = np.zeros((7, 3))
    dense[0, [1, 2]] = 1, 3
    dense[2, 1] = 2
    dense[[3, 5, 6], 0] = big
    dense[4, [0, 2]] = 2, 1
    other = np.array([[y0, 0.5 if y0 == 1 else 0.0], [0.3, -1.2], [0.8, 0.4]])
    return sp.csr_matrix(dense), other


class TestRepeatedOnePlayRows:
    """Rows with one entry of the same (column, count) are solved once."""

    @pytest.mark.parametrize("confidence", ["linear", "log"])
    @pytest.mark.parametrize("d", [1, 3, 32])
    def test_matches_reference_solver_byte_for_byte(self, confidence, d):
        rng = np.random.default_rng([d, len(confidence), 1])
        for trial in range(6):
            mat = repeated_one_play_counts(rng, int(rng.integers(12, 40)), int(rng.integers(1, 30)))
            other = rng.standard_normal((mat.shape[1], d)) * rng.uniform(0.01, 3.0)
            alpha, ridge = rng.uniform(0.1, 40.0), rng.uniform(0.01, 2.0)
            got = solve_factors(mat, other, alpha, ridge, confidence)
            want = reference_solve_factors(mat, other, alpha, ridge, confidence)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("confidence", ["linear", "log"])
    def test_fit_matches_reference_and_counts_solves(self, confidence):
        rng = np.random.default_rng(len(confidence))
        counts = repeated_one_play_counts(rng, 60, 12).T.toarray().astype(np.int64)
        counts[counts.sum(axis=1) == 0, 0] = 1  # every user plays something
        ds = make_dataset(counts)
        model = WrmfRecommender(factors=4, alpha=3.0, ridge=0.2, sweeps=2, init_seed=1,
                                confidence=confidence).fit(ds)
        X, Y = reference_factors(model, ds)
        assert model.user_factors_.tobytes() == X.tobytes()
        assert model.item_factors_.tobytes() == Y.tobytes()
        counts_t = ds.counts.T.tocsr()
        per_sweep = (ds.num_users + np.count_nonzero(np.diff(counts_t.indptr))
                     - one_play_repeats(counts_t))
        assert model.solves_ == 2 * per_sweep

    def test_solves_counts_each_distinct_system_once(self):
        # artists 1 and 2 hold user 0's one play of count 1, artist 5 user 0's
        # play of count 2, and artist 6 nothing: 5 artist and 3 user systems
        ds = make_dataset([[1, 1, 1, 0, 0, 2, 0],
                           [0, 0, 0, 2, 2, 0, 0],
                           [3, 0, 0, 0, 2, 0, 0]])
        assert WrmfRecommender(factors=2, sweeps=3).fit(ds).solves_ == 24
        assert WrmfRecommender(factors=2, sweeps=1).fit(TOY).solves_ == 9

    def test_singular_system_names_the_groups_lowest_row(self):
        mat, other = group_failure(1e200, 1.0)
        with pytest.raises(NumericalError, match="singular normal equations at row 3:"):
            solve_factors(mat, other, 1.0, 0.1)
        with pytest.raises(NumericalError, match="singular normal equations at row 3:"):
            reference_solve_factors(mat, other, 1.0, 0.1)

    def test_overflowed_system_names_the_groups_lowest_row(self):
        mat, other = group_failure(1e210, 1e100)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite normal equations at row 3$"):
                solve_factors(mat, other, 1.0, 0.1)
            # the reference solves rows 0-2 and rejects row 3's infinite system
            reference_solve_factors(mat[:3], other, 1.0, 0.1)
            with pytest.raises(ValueError, match="infs or NaNs"):
                reference_solve_factors(mat[:4], other, 1.0, 0.1)


class TestOverflowBound:
    """One bound per half-sweep decides whether each system's sum is checked."""

    @staticmethod
    def bounded(mat, other, alpha, ridge):
        gram = other.T @ other + ridge * np.eye(other.shape[1])
        extra, _ = _confidences(mat, alpha, "linear")
        return _cannot_overflow(gram, other, mat.indptr, extra)

    def test_ordinary_instances_skip_the_check(self):
        rng = np.random.default_rng(8)
        mat = repeated_one_play_counts(rng, 30, 20)
        assert self.bounded(mat, rng.standard_normal((20, 32)), 40.0, 0.1)

    @pytest.mark.parametrize("d", [1, 3, 32])
    def test_tripped_bound_checks_and_still_matches_reference(self, d):
        # max|gram| near max / (3 d^2): the bound trips although every entry
        # of every system, and every system's sum, is finite
        rng = np.random.default_rng(d)
        mat = repeated_one_play_counts(rng, 30, 4 * d)  # a well-conditioned gram
        other = rng.standard_normal((4 * d, d))
        other *= np.sqrt(np.finfo(np.float64).max / (3 * d * d * np.abs(other.T @ other).max()))
        alpha, ridge = 1e-3, 0.1
        assert not self.bounded(mat, other, alpha, ridge)
        got = solve_factors(mat, other, alpha, ridge)
        assert np.isfinite(got).all() and np.any(got != 0)
        assert got.tobytes() == reference_solve_factors(mat, other, alpha, ridge).tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_bound_keeps_the_check(self, bad):
        mat = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        other = np.array([[1.0, 0.0], [bad, 1.0]])
        assert not self.bounded(mat, other, 1.0, 0.1)


class TestObjective:
    def test_zero_factors_equals_total_confidence(self):
        alpha = 2.0
        z = wrmf_objective(TOY, np.zeros((5, 2)), np.zeros((4, 2)), alpha, 0.5)
        expected = float(np.sum(1.0 + alpha * TOY_COUNTS[TOY_COUNTS > 0]))
        assert z == approx(expected, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 3))
        Y = rng.standard_normal((4, 3))
        fast = wrmf_objective(TOY, X, Y, 1.7, 0.2)
        slow = dense_objective(TOY_COUNTS, X, Y, 1.7, 0.2)
        assert fast == approx(slow, rel=1e-10)

    def test_larger_ridge_strictly_larger(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((5, 2))
        Y = rng.standard_normal((4, 2))
        assert wrmf_objective(TOY, X, Y, 1.0, 1.0) > wrmf_objective(TOY, X, Y, 1.0, 0.1)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            wrmf_objective(TOY, np.zeros((3, 2)), np.zeros((4, 2)), 1.0, 0.1)
        with pytest.raises(ValidationError):
            wrmf_objective(TOY, np.zeros((5, 2)), np.zeros((4, 3)), 1.0, 0.1)


class TestFit:
    def test_huge_ridge_kills_factors(self):
        model = WrmfRecommender(factors=2, alpha=1.0, ridge=1e9, sweeps=2,
                                init_seed=0).fit(TOY)
        assert np.abs(model.score_user(0)).max() < 1e-6

    def test_objective_non_increasing_across_half_sweeps(self):
        model = WrmfRecommender(factors=3, alpha=2.0, ridge=0.5, sweeps=8,
                                init_seed=3, track_objective=True).fit(TOY)
        trace = model.objective_trace_
        assert len(trace) == 16
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-9 * abs(prev)

    def test_deterministic(self):
        a = WrmfRecommender(factors=4, sweeps=3, init_seed=7).fit(TOY)
        b = WrmfRecommender(factors=4, sweeps=3, init_seed=7).fit(TOY)
        assert a.user_factors_.tobytes() == b.user_factors_.tobytes()
        assert a.item_factors_.tobytes() == b.item_factors_.tobytes()

    @pytest.mark.parametrize("confidence", ["linear", "log"])
    def test_matches_reference_fit_byte_for_byte(self, zipf_split, confidence):
        model = WrmfRecommender(factors=8, alpha=5.0, ridge=0.3, sweeps=3,
                                init_seed=2, confidence=confidence).fit(zipf_split.train)
        X, Y = reference_factors(model, zipf_split.train)
        assert model.user_factors_.tobytes() == X.tobytes()
        assert model.item_factors_.tobytes() == Y.tobytes()

    def test_overflowing_confidence_raises_numerical_error(self):
        ds = make_dataset([[3, 0, 1], [0, 2, 1]])
        with pytest.raises(NumericalError, match="confidence"):
            WrmfRecommender(alpha=1e308).fit(ds)

    def test_singular_system_names_row(self):
        # c ~ 1e200 swamps the ridge: Cholesky cancels to a non-positive pivot
        ds = make_dataset([[3, 0, 1], [0, 2, 1]])
        with pytest.raises(NumericalError, match="row 0"):
            WrmfRecommender(alpha=1e200).fit(ds)

    def test_log_confidence_variant_fits(self):
        model = WrmfRecommender(factors=2, sweeps=2, confidence="log",
                                init_seed=0).fit(TOY)
        assert np.all(np.isfinite(model.score_user(0)))

    def test_hyperparam_validation(self):
        for bad, message in (
            (dict(factors=0), "factors must be >= 1"),
            (dict(alpha=0.0), "alpha must be > 0"),
            (dict(ridge=0.0), "ridge must be > 0"),
            (dict(sweeps=0), "sweeps must be >= 1"),
            (dict(confidence="quadratic"), "confidence must be one of"),
            (dict(init_seed=-1), "init_seed must be a non-negative integer"),
        ):
            with pytest.raises(ValidationError, match=message):
                WrmfRecommender(**bad)


class TestScoring:
    def test_zero_factors_zero_scores(self):
        model = WrmfRecommender(factors=2, ridge=1e9, sweeps=1, init_seed=0).fit(TOY)
        assert model.score_user(2) == approx(np.zeros(4), abs=1e-8)

    def test_known_product(self):
        model = WrmfRecommender(factors=1, sweeps=1, init_seed=0).fit(TOY)
        model.user_factors_ = np.array([[2.0]] * 5)
        model.item_factors_ = np.array([[3.0]] * 4)
        assert np.array_equal(model.score_user(0), np.full(4, 6.0))

    def test_matches_manual_matvec(self):
        model = WrmfRecommender(factors=3, sweeps=4, init_seed=5).fit(TOY)
        for u in range(5):
            manual = model.user_factors_[u] @ model.item_factors_.T
            assert np.array_equal(model.score_user(u), manual)
