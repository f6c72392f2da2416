"""Sparse linear item-to-item model fit by per-column elastic-net regression.

Learns a sparse artist-by-artist weight matrix W minimizing

    0.5 * ||A - A W||^2_F  +  (l2/2) * ||W||^2_F  +  l1 * ||W||_1

subject to diag(W) = 0 and optionally W >= 0, by cyclic coordinate descent on
each column.  Columns are independent subproblems that each visit their
coordinates in ascending order, so the solver sweeps coordinate-major: at
coordinate i it updates every still-active column that has i as a candidate,
in one vectorised step.  All state lives on the sparsity pattern of the gram
G = A^T A, so memory is O(nnz(G)) on the non-negative path (the signed path
visits every pair of artists with plays).  A user's scores are their train row
times W.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..corpus import InteractionDataset
from ..errors import NumericalError, ValidationError
from .base import RecommenderModel


def _candidate_pattern(gram, col_norms, non_negative):
    """CSR ``(indptr, indices, values)`` of the coordinates i each column j
    visits, with G[j, i] as the value; the diagonal is never a candidate.

    Under non-negativity a coordinate that never co-occurs with the column has
    optimum 0, so the pattern is that of G; the signed path visits every pair
    of artists with plays.  Artist indices always fit in int32, which halves
    the index memory of the signed path's all-pairs pattern.
    """
    if non_negative:
        coo = gram.tocoo()
        rows, cols, vals = coo.row, coo.col, coo.data
    else:
        live = np.flatnonzero(col_norms > 0).astype(np.int32)
        rows = np.repeat(live, live.size)
        cols = np.tile(live, live.size)
        vals = gram[live][:, live].toarray().ravel()
    off = rows != cols
    indptr = np.zeros(col_norms.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[off], minlength=col_norms.size), out=indptr[1:])
    return indptr, cols[off].astype(np.int32, copy=False), vals[off]


def _coordinate_descent(indptr, cols, corr, col_norms, l1, l2, non_negative,
                        max_iters, tolerance, trace):
    """Weights on the candidate pattern (row j holds column j of W).

    Per column, the floating-point operations and their order are those of a
    cyclic descent over its candidates in ascending index: ``partial`` holds
    (G w_j)[i] at the position of (j, i), and the rank-1 update at coordinate
    i reads G[i, :] from a scratch vector.  A column leaves the active set
    after the first sweep whose largest |delta| is below ``tolerance``.
    """
    num_artists = col_norms.size
    row_len = np.diff(indptr)
    # flip[p] is the position of (i, j) for the entry p = (j, i); the
    # pattern is symmetric, so row i lists the columns that visit i.  Entries
    # are stored by ascending row, so a stable sort by column orders each
    # column's entries by row.
    flip = np.argsort(cols, kind="stable")
    if cols.size < 2**31:
        flip = flip.astype(np.int32)
    w = np.zeros(cols.size)
    partial = np.zeros(cols.size)
    gram_row = np.zeros(num_artists)
    active = row_len > 0
    for _ in range(max_iters):
        if not active.any():
            break
        max_delta = np.zeros(num_artists)
        visit = np.zeros(num_artists, dtype=bool)
        visit[cols[np.repeat(active, row_len)]] = True
        for i in np.flatnonzero(visit):
            lo, hi = indptr[i], indptr[i + 1]
            # stored as int32, indexed as intp: NumPy casts other index types
            # on every use, which costs more than one cast per step
            row = cols[lo:hi].astype(np.intp)
            js, at = row, flip[lo:hi].astype(np.intp)
            is_active = active[js]
            if not is_active.all():
                js, at = js[is_active], at[is_active]
            w_old = w[at]
            rho = corr[at] - (partial[at] - col_norms[i] * w_old)
            denom = col_norms[i] + l2
            if non_negative:
                shrunk = rho - l1  # np.where, not np.maximum: NaN maps to 0 like max(0.0, x)
                w_new = np.where(shrunk > 0.0, shrunk, 0.0) / denom
            else:
                w_new = np.where(rho > l1, (rho - l1) / denom,
                                 np.where(rho < -l1, (rho + l1) / denom, 0.0))
            delta = w_new - w_old
            moved = np.flatnonzero(delta)
            if moved.size:
                delta, jm = delta[moved], js[moved]
                max_delta[jm] = np.fmax(max_delta[jm], np.abs(delta))
                w[at[moved]] = w_new[moved]
                # positions of the moved columns' rows, concatenated
                starts, lens = indptr[jm], row_len[jm]
                ends = np.cumsum(lens)
                pos = np.repeat(starts - ends + lens, lens) + np.arange(ends[-1])
                gram_row[row] = corr[lo:hi]
                gram_row[i] = col_norms[i]
                partial[pos] += np.repeat(delta, lens) * gram_row[cols[pos].astype(np.intp)]
                gram_row[row] = 0.0
                gram_row[i] = 0.0
            if trace is not None:
                for j in js.tolist():
                    snapshot = np.zeros(num_artists)
                    snapshot[cols[indptr[j]:indptr[j + 1]]] = w[indptr[j]:indptr[j + 1]]
                    trace(j, snapshot)
        bad = np.flatnonzero(active & ~np.isfinite(max_delta))
        if bad.size:
            raise NumericalError(f"non-finite coordinate update in column {bad[0]}")
        active &= max_delta >= tolerance
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        column = np.searchsorted(indptr, bad[0], side="right") - 1
        raise NumericalError(f"non-finite weights in column {column}")
    return w


class SlimRecommender(RecommenderModel):
    """Elastic-net item-to-item recommender.

    The fit keeps its state on the sparsity pattern of A^T A, so memory grows
    with the number of co-occurring artist pairs, not with the square of the
    artist count (the signed variant visits every pair of artists with plays).
    ``binarize`` fits on 0/1 occurrences instead of raw play counts.
    """

    model_type = "slim"

    def __init__(
        self,
        l1_penalty: float = 0.1,
        l2_penalty: float = 0.1,
        non_negative: bool = True,
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
        self.non_negative = bool(non_negative)
        self.max_iters = int(max_iters)
        self.tolerance = float(tolerance)
        self.binarize = bool(binarize)
        self.num_artists_ = None
        self.weights_ = None
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
        gram = (mat.T @ mat).tocsr()
        gram.sort_indices()  # each column visits its coordinates in ascending order
        col_norms = gram.diagonal()
        num_artists = train.num_artists
        indptr, cols, corr = _candidate_pattern(gram, col_norms, self.non_negative)
        w = _coordinate_descent(
            indptr, cols, corr, col_norms, self.l1_penalty, self.l2_penalty,
            self.non_negative, self.max_iters, self.tolerance, trace,
        )
        keep = w != 0.0
        kept = np.concatenate(([0], np.cumsum(keep)))
        self.weights_ = sp.csc_matrix(
            (w[keep], cols[keep], kept[indptr]), shape=(num_artists, num_artists)
        )
        self.num_artists_ = num_artists
        self._train_rows = mat
        return self

    def score_user(self, user: int) -> np.ndarray:
        self._require_fitted()
        row = self._train_rows.getrow(user)
        return np.asarray((row @ self.weights_).todense()).ravel()


def slim_objective(
    train: InteractionDataset,
    weights,
    l1_penalty: float,
    l2_penalty: float,
    binarize: bool = False,
) -> float:
    """Value of the elastic-net reconstruction objective for a weight matrix."""
    weights = sp.csc_matrix(weights)
    if weights.shape != (train.num_artists, train.num_artists):
        raise ValidationError(
            f"weight matrix shape {weights.shape} does not match "
            f"{train.num_artists} artists"
        )
    mat = train.counts.astype(np.float64)
    if binarize:
        mat.data = np.ones_like(mat.data)
    residual = mat - mat @ weights
    fit_term = 0.5 * float(residual.multiply(residual).sum())
    ridge = 0.5 * l2_penalty * float(np.sum(weights.data**2))
    lasso = l1_penalty * float(np.sum(np.abs(weights.data)))
    return fit_term + ridge + lasso
