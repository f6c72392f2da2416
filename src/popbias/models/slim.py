"""Sparse linear item-to-item model fit by per-column elastic-net regression.

Learns a sparse artist-by-artist weight matrix W minimizing

    0.5 * ||A - A W||^2_F  +  (l2/2) * ||W||^2_F  +  l1 * ||W||_1

subject to diag(W) = 0 and W >= 0 (the SLIM of Ning & Karypis, ICDM 2011), by
cyclic coordinate descent on each column.  Columns are independent subproblems
that each visit their coordinates in ascending order, so the solver sweeps
coordinate-major.  The coordinates are split once per fit into consecutive runs
of artists that never co-occur (G[i1, i2] == 0 for the gram G = A^T A); one
vectorised step updates every still-active column at every coordinate of a run.
An update at one run coordinate changes a column's state at another only by
delta * 0 = +-0, which leaves it as it was, so the weights are those of
visiting one coordinate at a time.  All state lives on the sparsity pattern of
G, so memory is O(nnz(G)).  A user's scores are their train row times W.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..corpus import InteractionDataset, require_memory
from ..errors import NumericalError, ValidationError
from .base import RecommenderModel


def _candidate_pattern(mat):
    """The gram G = A^T A of ``mat`` as the CSR ``(indptr, cols, corr)`` of the
    coordinates i != j each column j visits, in ascending order with G[j, i] as
    the value; the diagonal ``col_norms``; and ``neighbour[i]``, the largest
    lower k with G[i, k] != 0, the entry before G[i, i] >= 1 in row i, or -1.

    A coordinate that never co-occurs with the column has optimum 0 under
    non-negativity, so the pattern is that of G (SciPy stores no zeros).  Artist
    indices always fit in int32, which halves the index memory of the pattern.
    """
    gram = (mat.T @ mat).tocsr()
    gram.sort_indices()  # each column visits its coordinates in ascending order
    rows = np.repeat(np.arange(gram.shape[0], dtype=gram.indices.dtype), np.diff(gram.indptr))
    diagonal = np.flatnonzero(gram.indices == rows)
    lower = diagonal[diagonal > gram.indptr[rows[diagonal]]]
    neighbour = np.full(gram.shape[0], -1)
    neighbour[rows[lower]] = gram.indices[lower - 1]
    col_norms = gram.diagonal()
    gram.data[diagonal] = 0.0
    gram.eliminate_zeros()
    return (gram.indptr.astype(np.int64), gram.indices.astype(np.int32, copy=False), gram.data,
            col_norms, neighbour)


# Bytes the fit holds per entry of the gram's pattern at its peak, in the
# descent: cols (4), corr (8), flip (4), w (8) and partial (8), plus a sweep's
# visit gather (5).  Measured at the real catalogue width, the peak is 39-42
# bytes per entry, the run lookup and the per-artist arrays included.
_GRAM_ENTRY_BYTES = 40
# Fixed budgets that bound a step's temporaries whatever the run length or the
# number of columns that move at once.
_LOOKUP_BYTES = 8 * 2**20  # rows of G held for one run's rank-1 updates
_UPDATE_ENTRIES = 2**18  # pattern positions one chunk of rank-1 updates touches


def _coordinate_runs(neighbour, max_len):
    """Bounds of the runs: run r is the coordinates ``bounds[r] <= i < bounds[r + 1]``.

    Runs are consecutive, cover every coordinate, and hold no two coordinates
    that co-occur (G[i1, i2] != 0).  Coordinate i starts a new run when its
    largest lower neighbour ``neighbour[i]`` (see ``_candidate_pattern``) lies
    in the current run, or when the run already holds ``max_len`` coordinates.
    """
    starts, first = [], 0
    linked = np.flatnonzero(neighbour >= 0)
    for i, k in zip(linked.tolist(), neighbour[linked].tolist()):
        # from ``first`` on, a run is cut every max_len coordinates
        if k >= first + (i - first) // max_len * max_len:
            starts.extend(range(first, i, max_len))
            first = i
    starts.extend(range(first, neighbour.size, max_len))
    return np.array(starts + [neighbour.size])


def _flip(indptr, cols):
    """Position of (i, j) per entry (j, i): the CSC order of the symmetric pattern."""
    positions = np.arange(cols.size, dtype=np.int32 if cols.size < 2**31 else np.int64)
    return sp.csr_matrix((positions, cols, indptr), shape=(indptr.size - 1,) * 2).tocsc().data


def _coordinate_descent(indptr, cols, corr, col_norms, neighbour, l1, l2, max_iters,
                        tolerance, trace):
    """Weights on the candidate pattern (row j holds column j of W), with the
    number of sweeps and of vectorised steps taken.

    Per column, the floating-point operations and their order are those of a
    cyclic descent over its candidates in ascending index: ``partial`` holds
    (G w_j)[i] at the position of (j, i), and G[j, i] is read as G[i, j], which
    sums the same products in the same order.  One step updates every active
    column at every coordinate of a run (see ``_coordinate_runs``).  This is
    exact: the update at i1 moves column j's ``partial`` at another run
    coordinate i2 by delta * G[i1, i2] = +-0, and ``partial`` starts at +0.0
    and so never holds -0.0, which makes adding +-0 an identity.  Every rho in
    the run therefore reads what the one-coordinate-at-a-time descent reads.
    The rank-1 updates still apply in ascending coordinate order per position,
    since one column can move at two run coordinates that share a neighbour:
    ``np.add.at`` over the moved entries in storage order does that, in chunks
    of at most ``_UPDATE_ENTRIES`` positions (or one column's row), and
    ``lookup`` holds G[i, :] for the run's coordinates.  A column leaves the
    active set after a sweep whose largest |delta| is below ``tolerance``.
    """
    num_artists = col_norms.size
    row_len = np.diff(indptr)
    bounds = _coordinate_runs(neighbour, max(1, _LOOKUP_BYTES // (8 * max(num_artists, 1))))
    run_bounds = bounds.tolist()
    flip = _flip(indptr, cols)
    w = np.zeros(cols.size)
    partial = np.zeros(cols.size)
    # during the step of the run from ``first``, lookup[(i - first) * n + k]
    # holds G[i, k] for its coordinates i
    lookup = np.zeros(int(np.diff(bounds).max(initial=0)) * num_artists)
    active = row_len > 0
    sweeps = steps = 0
    for _ in range(max_iters):
        if not active.any():
            break
        sweeps += 1
        max_delta = np.zeros(num_artists)
        visit = np.zeros(num_artists, dtype=bool)
        visit[cols[np.repeat(active, row_len)]] = True
        for run in np.logical_or.reduceat(visit, bounds[:-1]).nonzero()[0].tolist():
            steps += 1
            first, stop = run_bounds[run], run_bounds[run + 1]
            lo, hi = indptr[first], indptr[stop]
            # stored as int32, indexed as intp: NumPy casts other index types
            # on every use, which costs more than one cast per step
            entries = cols[lo:hi].astype(np.intp)
            # each entry (i, j): the offset of i's lookup row, G[i, i] and G[i, j]
            run_lens = row_len[first:stop]
            row_at = np.arange(0, (stop - first) * num_artists, num_artists).repeat(run_lens)
            js, at, rs, norms, g = (entries, flip[lo:hi].astype(np.intp), row_at,
                                    col_norms[first:stop].repeat(run_lens), corr[lo:hi])
            is_active = active[js]
            if not is_active.all():
                js, at, rs, norms, g = (a[is_active] for a in (js, at, rs, norms, g))
            w_old = w[at]
            rho = g - (partial[at] - norms * w_old)
            denom = norms + l2
            shrunk = rho - l1  # np.where, not np.maximum: NaN maps to 0 like max(0.0, x)
            w_new = np.where(shrunk > 0.0, shrunk, 0.0) / denom
            delta = w_new - w_old
            moved = delta.nonzero()[0]
            if moved.size:
                delta, jm, rm = delta[moved], js[moved], rs[moved]
                np.fmax.at(max_delta, jm, np.abs(delta))
                w[at[moved]] = w_new[moved]
                slots = row_at + entries
                diag = slice(first, first + (stop - first) * (num_artists + 1), num_artists + 1)
                lookup[slots] = corr[lo:hi]
                lookup[diag] = col_norms[first:stop]
                # positions of the moved columns' rows, concatenated, in chunks
                # of at most _UPDATE_ENTRIES positions (or one row)
                lens = row_len[jm]
                ends = lens.cumsum()
                starts = indptr[jm] - ends + lens
                a = 0
                while a < jm.size:
                    begin = ends[a] - lens[a]
                    b = max(a + 1, int(ends.searchsorted(begin + _UPDATE_ENTRIES, "right")))
                    c_lens = lens[a:b]
                    pos = starts[a:b].repeat(c_lens) + np.arange(begin, ends[b - 1])
                    gram = lookup[rm[a:b].repeat(c_lens) + cols[pos]]
                    np.add.at(partial, pos, delta[a:b].repeat(c_lens) * gram)
                    a = b
                lookup[slots] = 0.0
                lookup[diag] = 0.0
            if trace is not None:
                # column j after the coordinate of entry e: its later run
                # coordinates still hold w_old
                for e, j in enumerate(js.tolist()):
                    snapshot = np.zeros(num_artists)
                    snapshot[cols[indptr[j]:indptr[j + 1]]] = w[indptr[j]:indptr[j + 1]]
                    later = e + 1 + np.flatnonzero(js[e + 1:] == j)
                    snapshot[first + rs[later] // num_artists] = w_old[later]
                    trace(j, snapshot)
        bad = np.flatnonzero(active & ~np.isfinite(max_delta))
        if bad.size:
            raise NumericalError(f"non-finite coordinate update in column {bad[0]}")
        active &= max_delta >= tolerance
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        column = np.searchsorted(indptr, bad[0], side="right") - 1
        raise NumericalError(f"non-finite weights in column {column}")
    return w, sweeps, steps


class SlimRecommender(RecommenderModel):
    """Elastic-net item-to-item recommender.

    The fit keeps its state on the sparsity pattern of A^T A, so memory grows
    with the number of co-occurring artist pairs, not with the square of the
    artist count.  Weights are non-negative.
    ``binarize`` fits on 0/1 occurrences instead of raw play counts.  After
    ``fit``, ``sweeps_`` and ``steps_`` count the solver's sweeps and its
    vectorised steps (one per visited run of coordinates).
    """

    model_type = "slim"

    def __init__(
        self,
        l1_penalty: float = 0.1,
        l2_penalty: float = 0.1,
        max_iters: int = 200,
        tolerance: float = 1e-5,
        binarize: bool = False,
    ):
        if l1_penalty < 0 or l2_penalty < 0:
            raise ValidationError("penalties must be >= 0")
        if max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not tolerance > 0:
            raise ValidationError("tolerance must be > 0")
        self.l1_penalty = float(l1_penalty)
        self.l2_penalty = float(l2_penalty)
        self.max_iters = int(max_iters)
        self.tolerance = float(tolerance)
        self.binarize = bool(binarize)
        self.num_artists_ = None
        self.weights_ = None
        self._weights_csr = None
        self.sweeps_ = None
        self.steps_ = None
        self._train_rows = None

    def _transform(self, train: InteractionDataset) -> sp.csr_matrix:
        mat = train.counts.astype(np.float64)
        if self.binarize:
            mat.data = np.ones_like(mat.data)
        return mat.tocsr()

    def fit(self, train: InteractionDataset, trace=None):
        """Fit all columns; ``trace(column, w_snapshot)`` observes every update.

        The trace fires once per visited (column, coordinate) with that
        column's dense weights, in each column's coordinate order.  Columns
        of artists without train plays are all zero and never visited.
        """
        mat = self._transform(train)
        num_artists = train.num_artists
        # each user's row adds at most len^2 entries to the gram, so this
        # bounds its pattern before the product runs
        sizes = np.diff(mat.indptr).astype(np.int64)
        require_memory(_GRAM_ENTRY_BYTES * int(sizes @ sizes),
                       f"SLIM over {train.num_users} users x {num_artists} artists")
        indptr, cols, corr, col_norms, neighbour = _candidate_pattern(mat)
        w, self.sweeps_, self.steps_ = _coordinate_descent(
            indptr, cols, corr, col_norms, neighbour, self.l1_penalty, self.l2_penalty,
            self.max_iters, self.tolerance, trace,
        )
        self.weights_ = sp.csc_matrix((w, cols, indptr), shape=(num_artists, num_artists))
        self.weights_.eliminate_zeros()
        # a CSR row times a CSC matrix converts the matrix to CSR on every
        # call; converting once scores every user from the same CSR
        self._weights_csr = self.weights_.tocsr()
        self.num_artists_ = num_artists
        self._train_rows = mat
        return self

    def score_user(self, user: int) -> np.ndarray:
        self._require_fitted()
        row = self._train_rows.getrow(user)
        return np.asarray((row @ self._weights_csr).todense()).ravel()
