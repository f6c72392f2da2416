import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from pytest import approx

from popbias.corpus import InteractionDataset
from popbias.errors import NumericalError, ValidationError
from popbias.models import SlimRecommender, slim_objective

from conftest import make_dataset, random_dataset
from slim_reference import reference_weights

TOY = make_dataset([
    [1, 2, 1],
    [2, 1, 0],
    [0, 1, 2],
    [1, 0, 1],
])


def column_objective(A, j, w, l1, l2):
    r = A[:, j] - A @ w
    return 0.5 * np.sum(r**2) + 0.5 * l2 * np.sum(w**2) + l1 * np.sum(np.abs(w))


def lattice_search(A, j, l1, l2, step=0.01, upper=1.0):
    """Oracle: exhaustive search of the column objective on a weight lattice."""
    others = [i for i in range(A.shape[1]) if i != j]
    grid = np.arange(0.0, upper + step / 2, step)
    best_w, best_obj = None, np.inf
    for w0 in grid:
        for w1 in grid:
            w = np.zeros(A.shape[1])
            w[others[0]], w[others[1]] = w0, w1
            obj = column_objective(A, j, w, l1, l2)
            if obj < best_obj:
                best_obj, best_w = obj, w.copy()
    return best_w


class TestFit:
    def test_huge_l1_zeroes_everything(self):
        model = SlimRecommender(l1_penalty=1e6, l2_penalty=0.0).fit(TOY)
        assert model.weights_.nnz == 0

    def test_identical_columns_single_coordinate_closed_form(self):
        ds = make_dataset([[1, 1], [2, 2], [1, 1]])
        l1, l2 = 0.01, 0.01
        model = SlimRecommender(l1_penalty=l1, l2_penalty=l2,
                                tolerance=1e-14, max_iters=500).fit(ds)
        d = float(np.sum(np.array([1.0, 2.0, 1.0]) ** 2))
        expected = max(0.0, d - l1) / (d + l2)
        assert model.weights_.toarray()[0, 1] == approx(expected, abs=1e-10)
        assert model.weights_.toarray()[1, 0] == approx(expected, abs=1e-10)

    def test_matches_lattice_search_oracle(self):
        l1, l2 = 0.05, 0.05
        model = SlimRecommender(l1_penalty=l1, l2_penalty=l2,
                                tolerance=1e-12, max_iters=1000).fit(TOY)
        W = model.weights_.toarray()
        A = TOY.counts.toarray().astype(float)
        for j in range(3):
            best = lattice_search(A, j, l1, l2)
            assert np.abs(best - W[:, j]).max() <= 0.02

    def test_diag_always_zero_and_nonneg_weights_positive(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            ds = random_dataset(rng, num_users=8, num_artists=9)
            model = SlimRecommender(l1_penalty=0.02, l2_penalty=0.1).fit(ds)
            W = model.weights_.toarray()
            assert np.all(np.diag(W) == 0.0)
            assert model.weights_.nnz == 0 or model.weights_.data.min() > 0

    def test_signed_variant_allows_negative_weights(self):
        rng = np.random.default_rng(1)
        found_negative = False
        for trial in range(10):
            ds = random_dataset(rng, num_users=10, num_artists=8)
            model = SlimRecommender(l1_penalty=0.0, l2_penalty=0.05,
                                    non_negative=False).fit(ds)
            if model.weights_.nnz and model.weights_.data.min() < 0:
                found_negative = True
                break
        assert found_negative

    @pytest.mark.parametrize("non_negative", [True, False])
    @pytest.mark.parametrize("binarize", [False, True])
    @pytest.mark.parametrize("tolerance", [1e-12, 1e-2])
    def test_matches_reference_solver_byte_for_byte(self, non_negative, binarize, tolerance):
        rng = np.random.default_rng([int(non_negative), int(binarize), int(tolerance < 1e-6)])
        for trial in range(8):
            ds = random_dataset(rng, num_users=int(rng.integers(2, 14)),
                                num_artists=int(rng.integers(2, 16)))
            model = SlimRecommender(
                l1_penalty=float(rng.choice([0.0, 0.01, 0.1, 1.0])),
                l2_penalty=float(rng.choice([0.0, 0.05, 1.0])),
                non_negative=non_negative, binarize=binarize,
                tolerance=tolerance, max_iters=int(rng.choice([1, 4, 500])),
            ).fit(ds)
            want = reference_weights(model, ds)
            for name in ("data", "indices", "indptr"):
                got = getattr(model.weights_, name)
                assert got.dtype == getattr(want, name).dtype, name
                assert got.tobytes() == getattr(want, name).tobytes(), (trial, name)

    def test_trace_matches_reference_per_column(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            ds = random_dataset(rng, num_users=9, num_artists=8)
            model = SlimRecommender(l1_penalty=0.05, l2_penalty=0.1, tolerance=1e-8)
            got, want = {}, {}
            model.fit(ds, trace=lambda j, w: got.setdefault(j, []).append(w.tobytes()))
            reference_weights(model, ds,
                              trace=lambda j, w: want.setdefault(j, []).append(w.tobytes()))
            assert got == want

    def test_wide_sparse_catalogue_fits_in_bounded_memory(self):
        # a dense 200k x 200k gram would need 320 GB
        num_users, num_artists = 20, 200_000
        rng = np.random.default_rng(4)
        rows = np.repeat(np.arange(num_users), 40)
        cols = np.concatenate([rng.choice(num_artists, 40, replace=False)
                               for _ in range(num_users)])
        counts = sp.csr_matrix((rng.integers(1, 6, rows.size), (rows, cols)),
                               shape=(num_users, num_artists))
        ds = InteractionDataset([f"u{u}" for u in range(num_users)],
                                [f"a{a}" for a in range(num_artists)], counts)
        tracemalloc.start()
        try:
            model = SlimRecommender(l1_penalty=0.1, l2_penalty=1.0, max_iters=5).fit(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        W = model.weights_
        assert W.shape == (num_artists, num_artists) and W.nnz > 0
        listened = np.unique(cols)
        assert np.isin(W.indices, listened).all()
        assert np.isin(np.flatnonzero(np.diff(W.indptr)), listened).all()

    def test_non_finite_update_raises_naming_column(self, monkeypatch):
        # column 1's tiny norm makes column 0's update overflow to inf
        ds = make_dataset([[1, 1]])
        model = SlimRecommender(l1_penalty=0.0, l2_penalty=0.0)
        scaled = sp.csr_matrix(np.array([[1e150, 1e-160]]))
        monkeypatch.setattr(model, "_transform", lambda train: scaled)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="column 0"):
            model.fit(ds)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="column 0"):
            reference_weights(model, ds)

    def test_hyperparam_validation(self):
        with pytest.raises(ValidationError):
            SlimRecommender(l1_penalty=-1)
        with pytest.raises(ValidationError):
            SlimRecommender(tolerance=0)


class TestObjective:
    def test_zero_weights_gives_half_squared_norm(self):
        A = TOY.counts.toarray().astype(float)
        zeros = np.zeros((3, 3))
        assert slim_objective(TOY, zeros, 1.0, 1.0) == approx(0.5 * np.sum(A**2))

    def test_perfect_reconstruction_no_penalty_is_zero(self):
        # two identical artist columns reconstruct each other exactly
        ds = make_dataset([[1, 1], [2, 2], [1, 1]])
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert slim_objective(ds, W, 0.0, 0.0) == approx(0.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            slim_objective(TOY, np.zeros((2, 2)), 0.1, 0.1)

    def test_non_increasing_after_every_coordinate_update(self):
        snapshots = []

        def trace(column, w):
            snapshots.append((column, w))

        l1, l2 = 0.05, 0.1
        SlimRecommender(l1_penalty=l1, l2_penalty=l2,
                        tolerance=1e-10, max_iters=200).fit(TOY, trace=trace)
        A = TOY.counts.toarray().astype(float)
        per_column: dict[int, list[float]] = {}
        for column, w in snapshots:
            per_column.setdefault(column, []).append(column_objective(A, column, w, l1, l2))
        assert per_column
        for col, objs in per_column.items():
            for prev, cur in zip(objs, objs[1:]):
                assert cur <= prev + 1e-12 * max(1.0, abs(prev)), col


class TestKkt:
    def check_kkt(self, ds, model, tol=1e-6):
        A = ds.counts.toarray().astype(float)
        W = model.weights_.toarray()
        l1, l2 = model.l1_penalty, model.l2_penalty
        for j in range(ds.num_artists):
            r = A[:, j] - A @ W[:, j]
            for i in range(ds.num_artists):
                if i == j or np.sum(A[:, i] ** 2) == 0:
                    continue
                g = -A[:, i] @ r + l2 * W[i, j]
                if W[i, j] > 0:
                    assert abs(g + l1) <= tol, (i, j, g)
                elif W[i, j] < 0:
                    assert abs(g - l1) <= tol, (i, j, g)
                elif model.non_negative:
                    assert g + l1 >= -tol, (i, j, g)
                else:
                    assert abs(g) <= l1 + tol, (i, j, g)

    def test_kkt_on_random_instances_nonneg(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            ds = random_dataset(rng, num_users=15, num_artists=10)
            model = SlimRecommender(l1_penalty=0.1, l2_penalty=0.2,
                                    tolerance=1e-12, max_iters=2000).fit(ds)
            self.check_kkt(ds, model)

    def test_kkt_on_random_instances_signed(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            ds = random_dataset(rng, num_users=15, num_artists=10)
            model = SlimRecommender(l1_penalty=0.1, l2_penalty=0.2, non_negative=False,
                                    tolerance=1e-12, max_iters=2000).fit(ds)
            self.check_kkt(ds, model)


class TestScoring:
    def test_zero_weights_zero_scores(self):
        model = SlimRecommender(l1_penalty=1e6).fit(TOY)
        assert np.array_equal(model.score_user(0), np.zeros(3))

    def test_single_link_weight_propagates_count(self):
        # user 1 listens only to artist 0 (count 2): score(a2) = 2 * w(a0 -> a2)
        ds = make_dataset([[1, 0, 1], [2, 0, 0], [1, 1, 1]])
        model = SlimRecommender(l1_penalty=0.01, l2_penalty=0.01).fit(ds)
        W = model.weights_.toarray()
        scores = model.score_user(1)
        assert scores[2] == approx(2.0 * W[0, 2])

    def test_scores_equal_manual_sparse_products(self):
        model = SlimRecommender(l1_penalty=0.05, l2_penalty=0.05).fit(TOY)
        A = TOY.counts.toarray().astype(float)
        W = model.weights_.toarray()
        for u in range(TOY.num_users):
            assert model.score_user(u) == approx(A[u] @ W, abs=1e-12)

    def test_binarize_flag_fits_on_occurrences(self):
        counts = np.array([[5, 5], [9, 9], [2, 2]])
        ds = make_dataset(counts)
        l1, l2 = 0.01, 0.01
        model = SlimRecommender(l1_penalty=l1, l2_penalty=l2, binarize=True,
                                tolerance=1e-14, max_iters=500).fit(ds)
        d = 3.0  # binarized column norm
        expected = (d - l1) / (d + l2)
        assert model.weights_.toarray()[0, 1] == approx(expected, abs=1e-10)
        # scoring also uses the binarized rows
        assert model.score_user(0)[1] == approx(expected, abs=1e-10)
