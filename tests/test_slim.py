import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from pytest import approx

from popbias.corpus import InteractionDataset, SyntheticConfig, generate_synthetic, split_mask
from popbias.errors import NumericalError, ValidationError
from popbias.models import slim
from popbias.models.slim import SlimRecommender

from conftest import make_dataset, random_dataset
from slim_reference import fit_column, fit_sparse_column, reference_weights, slim_objective

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


def largest_lower(cooccur):
    """Oracle: for each row i, the largest k < i with ``cooccur[i, k]``, or -1."""
    return [max(np.flatnonzero(cooccur[i, :i]), default=-1) for i in range(len(cooccur))]


def wide_sparse_dataset(num_users=20, num_artists=200_000):
    """40 random artists a user from a catalogue of ``num_artists``."""
    rng = np.random.default_rng(4)
    rows = np.repeat(np.arange(num_users), 40)
    cols = np.concatenate([rng.choice(num_artists, 40, replace=False)
                           for _ in range(num_users)])
    counts = sp.csr_matrix((rng.integers(1, 6, rows.size), (rows, cols)),
                           shape=(num_users, num_artists))
    return InteractionDataset([f"u{u}" for u in range(num_users)],
                              [f"a{a}" for a in range(num_artists)], counts)


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

    @pytest.mark.parametrize("binarize", [False, True])
    @pytest.mark.parametrize("tolerance", [1e-12, 1e-2])
    def test_matches_reference_solver_byte_for_byte(self, binarize, tolerance):
        rng = np.random.default_rng([1, int(binarize), int(tolerance < 1e-6)])
        for trial in range(8):
            ds = random_dataset(rng, num_users=int(rng.integers(2, 14)),
                                num_artists=int(rng.integers(2, 16)))
            model = SlimRecommender(
                l1_penalty=float(rng.choice([0.0, 0.01, 0.1, 1.0])),
                l2_penalty=float(rng.choice([0.0, 0.05, 1.0])),
                binarize=binarize, tolerance=tolerance, max_iters=int(rng.choice([1, 4, 500])),
            ).fit(ds)
            want = reference_weights(model, ds)
            for name in ("data", "indices", "indptr"):
                got = getattr(model.weights_, name)
                assert got.dtype == getattr(want, name).dtype, name
                assert got.tobytes() == getattr(want, name).tobytes(), (trial, name)

    @pytest.mark.parametrize("binarize", [False, True])
    def test_sparse_row_descent_matches_the_dense_one_byte_for_byte(self, binarize):
        rng = np.random.default_rng([12, int(binarize)])
        skipped = 0
        for trial in range(8):
            ds = random_dataset(rng, num_users=int(rng.integers(2, 14)),
                                num_artists=int(rng.integers(2, 30)))
            model = SlimRecommender(
                l1_penalty=float(rng.choice([0.0, 0.01, 0.1, 1.0])),
                l2_penalty=float(rng.choice([0.0, 0.05, 1.0])),
                binarize=binarize, tolerance=float(rng.choice([1e-12, 1e-2])),
                max_iters=int(rng.choice([1, 4, 500])),
            )
            mat = model._transform(ds)
            gram = (mat.T @ mat).tocsr()
            dense = gram.toarray()
            skipped += dense.size - gram.nnz
            hyper = (model.l1_penalty, model.l2_penalty, model.max_iters, model.tolerance)
            for j in range(ds.num_artists):
                want = fit_column(dense, gram.diagonal(), j, *hyper, None)
                got = fit_sparse_column(gram, gram.diagonal(), j, *hyper)
                for name, a, b in zip(("indices", "weights"), got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (trial, j, name)
        assert skipped > 0  # the grams hold zeros, which only the dense descent adds to

    @pytest.mark.parametrize("binarize", [False, True])
    def test_pattern_is_the_off_diagonal_of_the_gram(self, binarize):
        rng = np.random.default_rng([9, int(binarize)])
        for trial in range(8):
            ds = random_dataset(rng, num_users=int(rng.integers(1, 14)),
                                num_artists=int(rng.integers(1, 16)))
            mat = SlimRecommender(binarize=binarize)._transform(ds)
            indptr, cols, corr, col_norms, neighbour = slim._candidate_pattern(mat)
            gram = mat.toarray().T @ mat.toarray()
            rows, want_cols = np.nonzero(gram)
            off = rows != want_cols
            want_indptr = np.cumsum(np.bincount(rows[off], minlength=ds.num_artists))
            assert indptr.dtype == np.int64 and cols.dtype == np.int32
            assert indptr.tolist() == [0] + want_indptr.tolist(), trial
            assert cols.tolist() == want_cols[off].tolist(), trial
            assert corr.tobytes() == gram[rows[off], want_cols[off]].tobytes(), trial
            assert col_norms.tobytes() == np.diag(gram).tobytes(), trial
            assert neighbour.tolist() == largest_lower(gram != 0), trial

    def test_flip_is_the_stable_column_order_on_the_desk_split(self):
        config = SyntheticConfig(num_users=501, num_artists=2000, zipf_exponent=1.0,
                                 profile_size_range=(10, 40))
        train = split_mask(generate_synthetic(config, seed=11), 0.2, seed=12).train
        indptr, cols, *_ = slim._candidate_pattern(SlimRecommender()._transform(train))
        flip = slim._flip(indptr, cols)
        assert flip.dtype == np.int32
        assert np.array_equal(flip, np.argsort(cols, kind="stable"))

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
        ds = wide_sparse_dataset()
        num_artists = ds.num_artists
        cols = ds.counts.indices
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

    def test_gram_larger_than_memory_raises_before_the_product(self, monkeypatch):
        ds = random_dataset(np.random.default_rng(31), num_users=20, num_artists=30)
        sizes = np.diff(ds.counts.indptr)
        need = 40 * int((sizes**2).sum())
        calls, pattern = [], slim._candidate_pattern

        def spy(mat):
            calls.append(mat.shape)
            return pattern(mat)

        monkeypatch.setattr(slim, "_candidate_pattern", spy)
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}
        monkeypatch.setattr("popbias.corpus.os.sysconf", pages.__getitem__)
        with pytest.raises(NumericalError,
                           match=f"SLIM over 20 users x 30 artists needs {need:,} bytes"):
            SlimRecommender().fit(ds)
        assert calls == []
        pages["SC_PHYS_PAGES"] = need
        SlimRecommender().fit(ds)
        assert calls == [(20, 30)]

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
        with pytest.raises(ValidationError, match="max_iters must be >= 1"):
            SlimRecommender(max_iters=0)
        with pytest.raises(ValidationError):
            SlimRecommender(tolerance=0)


def tail_heavy_dataset(rng, num_users=40, num_artists=60):
    """Sparse long-tail profiles: few artists co-occur, so runs are long."""
    weights = 1.0 / np.arange(1, num_artists + 1)
    counts = np.zeros((num_users, num_artists), dtype=np.int64)
    for u in range(num_users):
        size = int(rng.integers(1, 5))
        cols = rng.choice(num_artists, size=size, replace=False, p=weights / weights.sum())
        counts[u, cols] = rng.integers(1, 6, size=size)
    return make_dataset(counts)


def solver_runs(model, ds):
    """The pattern and the run bounds ``model``'s solver uses on ``ds``."""
    indptr, _, _, _, neighbour = slim._candidate_pattern(model._transform(ds))
    return indptr, slim._coordinate_runs(neighbour, ds.num_artists)


def longest_run(model, ds):
    """Most coordinates with candidates in one run of ``model``'s solver on ``ds``."""
    indptr, bounds = solver_runs(model, ds)
    visited = np.concatenate(([0], np.cumsum(np.diff(indptr) > 0)))
    return int(np.diff(visited[bounds]).max())


def assert_same_weights(model, ds):
    want = reference_weights(model, ds)
    for name in ("data", "indices", "indptr"):
        got = getattr(model.weights_, name)
        assert got.dtype == getattr(want, name).dtype, name
        assert got.tobytes() == getattr(want, name).tobytes(), name


@st.composite
def symmetric_patterns(draw):
    """CSR pattern of a symmetric off-diagonal G; some stored values are 0."""
    n = draw(st.integers(1, 24))
    # 0: not stored, 1: stored nonzero, -1: stored zero
    kind = np.triu(draw(arrays(np.int8, (n, n), elements=st.integers(-1, 1))), 1)
    kind = kind + kind.T
    rows, cols = np.nonzero(kind)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    corr = (kind[rows, cols] == 1).astype(np.float64)
    return indptr, cols.astype(np.int32), corr, kind == 1


class TestRuns:
    @given(symmetric_patterns(), st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    def test_runs_are_consecutive_cover_all_and_hold_no_cooccurring_pair(self, pattern, max_len):
        indptr, cols, corr, cooccur = pattern
        n = indptr.size - 1
        bounds = slim._coordinate_runs(np.array(largest_lower(cooccur)), max_len)
        assert bounds[0] == 0 and bounds[-1] == n
        assert np.all(np.diff(bounds) >= 1) and np.all(np.diff(bounds) <= max_len)
        for first, stop in zip(bounds[:-1], bounds[1:]):
            assert not cooccur[first:stop, first:stop].any()
            # maximal: the next coordinate co-occurs with a member, or the run is full
            if stop < n:
                assert cooccur[stop, first:stop].any() or stop - first == max_len

    def test_neighbours_on_tail_heavy_instances(self):
        # sparse profiles: many artists co-occur with no lower artist
        rng = np.random.default_rng(2)
        for trial in range(4):
            mat = SlimRecommender()._transform(tail_heavy_dataset(rng))
            neighbour = slim._candidate_pattern(mat)[4]
            assert neighbour.tolist() == largest_lower((mat.T @ mat).toarray() != 0), trial

    def test_zipf_dataset_matches_reference_byte_for_byte(self, zipf_dataset):
        model = SlimRecommender(l1_penalty=0.5, l2_penalty=1.0, max_iters=200)
        assert longest_run(model, zipf_dataset) >= 2
        model.fit(zipf_dataset)
        assert model.steps_ < zipf_dataset.num_artists * model.sweeps_
        assert_same_weights(model, zipf_dataset)

    def test_tail_heavy_instances_match_reference_byte_for_byte(self):
        rng = np.random.default_rng(1)
        for trial in range(4):
            ds = tail_heavy_dataset(rng)
            model = SlimRecommender(l1_penalty=float(rng.choice([0.0, 0.1, 1.0])),
                                    l2_penalty=float(rng.choice([0.0, 0.5])),
                                    tolerance=1e-10)
            assert longest_run(model, ds) >= 2
            assert_same_weights(model.fit(ds), ds)

    @pytest.mark.parametrize("lookup_rows,update_entries", [(1, 1), (2, 3), (3, 2**18)])
    def test_small_budgets_give_the_same_weights(self, monkeypatch, zipf_dataset,
                                                 lookup_rows, update_entries):
        # chunked rank-1 updates and short runs are still exact
        monkeypatch.setattr(slim, "_LOOKUP_BYTES", 8 * zipf_dataset.num_artists * lookup_rows)
        monkeypatch.setattr(slim, "_UPDATE_ENTRIES", update_entries)
        model = SlimRecommender(l1_penalty=0.5, l2_penalty=1.0, max_iters=20).fit(zipf_dataset)
        assert_same_weights(model, zipf_dataset)

    def test_column_moving_at_two_run_coordinates_with_a_shared_neighbour(self):
        # artists 0 and 1 never co-occur, so they form one run; both co-occur
        # with 2 and 3, so column 3 moves at 0 and at 1 and both updates reach
        # its partial at 2 in the same step
        ds = make_dataset([[2, 0, 1, 3], [0, 3, 2, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
        model = SlimRecommender(l1_penalty=0.01, l2_penalty=0.1, tolerance=1e-12)
        _, bounds = solver_runs(model, ds)
        assert bounds.tolist()[:2] == [0, 2]
        model.fit(ds)
        W = model.weights_.toarray()
        assert W[0, 3] != 0 and W[1, 3] != 0 and W[2, 3] != 0
        assert_same_weights(model, ds)

    def test_overflow_inside_a_run_raises_naming_the_column(self, monkeypatch):
        # coordinates 0 and 1 form one run; column 2's update at 0 overflows
        ds = make_dataset([[1, 0, 1], [0, 1, 1]])
        model = SlimRecommender(l1_penalty=0.0, l2_penalty=0.0)
        scaled = sp.csr_matrix(np.array([[1e-160, 0.0, 1e150], [0.0, 1.0, 1.0]]))
        monkeypatch.setattr(model, "_transform", lambda train: scaled)
        _, bounds = solver_runs(model, ds)
        assert bounds.tolist()[:2] == [0, 2]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="column 2") as got:
                model.fit(ds)
            with pytest.raises(NumericalError) as want:
                reference_weights(model, ds)
        assert str(got.value) == str(want.value)

    def test_trace_matches_reference_with_multi_coordinate_runs(self):
        rng = np.random.default_rng(5)
        ds = tail_heavy_dataset(rng, num_users=12, num_artists=16)
        model = SlimRecommender(l1_penalty=0.05, l2_penalty=0.1, tolerance=1e-8)
        assert longest_run(model, ds) >= 2
        got, want = {}, {}
        model.fit(ds, trace=lambda j, w: got.setdefault(j, []).append(w.tobytes()))
        reference_weights(model, ds,
                          trace=lambda j, w: want.setdefault(j, []).append(w.tobytes()))
        assert got == want

    def test_desk_shape_sweeps_and_steps(self):
        # the README desk config's train split: one step per visited coordinate
        # took 78,340 steps over the same 63 sweeps
        config = SyntheticConfig(num_users=501, num_artists=2000, zipf_exponent=1.0,
                                 profile_size_range=(10, 40))
        train = split_mask(generate_synthetic(config, seed=11), 0.2, seed=12).train
        model = SlimRecommender(l1_penalty=2.0, l2_penalty=5.0).fit(train)
        assert model.sweeps_ == 63
        assert model.steps_ <= 20_000


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
        assert (W >= 0).all()
        for j in range(ds.num_artists):
            r = A[:, j] - A @ W[:, j]
            for i in range(ds.num_artists):
                if i == j or np.sum(A[:, i] ** 2) == 0:
                    continue
                g = -A[:, i] @ r + l2 * W[i, j]
                if W[i, j] > 0:
                    assert abs(g + l1) <= tol, (i, j, g)
                else:
                    assert g + l1 >= -tol, (i, j, g)

    def test_kkt_on_random_instances_nonneg(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            ds = random_dataset(rng, num_users=15, num_artists=10)
            model = SlimRecommender(l1_penalty=0.1, l2_penalty=0.2,
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

    @pytest.mark.parametrize("shape", ["desk", "wide sparse"])
    def test_scores_equal_row_times_weights_byte_for_byte(self, shape):
        # score_user reads a CSR copy of weights_ made once by fit; each
        # score must be the CSR row times the CSC weights_, as before
        if shape == "desk":
            config = SyntheticConfig(num_users=501, num_artists=2000, zipf_exponent=1.0,
                                     profile_size_range=(10, 40))
            ds = split_mask(generate_synthetic(config, seed=11), 0.2, seed=12).train
        else:
            ds = wide_sparse_dataset()
        model = SlimRecommender(l1_penalty=2.0, l2_penalty=5.0, max_iters=3).fit(ds)
        assert model.weights_.format == "csc" and model.weights_.nnz > 0
        rows = ds.counts.astype(np.float64).tocsr()
        for u in range(ds.num_users):
            want = np.asarray((rows.getrow(u) @ model.weights_).todense()).ravel()
            assert model.score_user(u).tobytes() == want.tobytes(), u

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
