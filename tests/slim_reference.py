"""Reference SLIM solver: one column at a time over the dense A^T A gram.

This is the original per-column cyclic coordinate descent, with weights held
non-negative.  The library's solver runs all columns at once over the sparsity
pattern of the gram and must reproduce these weights byte for byte; the tests
compare the two.  ``slim_objective`` is the objective the tests' descent and
oracle checks evaluate.
"""

import numpy as np
import scipy.sparse as sp

from popbias.corpus import InteractionDataset
from popbias.errors import NumericalError, ValidationError


def fit_column(gram, col_norms, j, l1, l2, max_iters, tolerance, trace):
    """Coordinate descent for one column of W; returns (indices, weights).

    ``gram`` is the dense symmetric matrix A^T A.  Coordinates are visited in
    ascending artist index; convergence is max absolute coordinate change per
    sweep below ``tolerance``.
    """
    num_artists = gram.shape[0]
    corr = gram[j]
    # zero co-occurrence coordinates have optimum 0 under non-negativity
    cand = np.flatnonzero(corr)
    cand = cand[(cand != j) & (col_norms[cand] > 0)]
    w = np.zeros(num_artists)
    if cand.size == 0:
        return cand, w[cand]
    partial = np.zeros(num_artists)  # gram @ w, maintained incrementally
    for _ in range(max_iters):
        max_delta = 0.0
        for i in cand:
            rho = corr[i] - (partial[i] - col_norms[i] * w[i])
            w_new = max(0.0, rho - l1) / (col_norms[i] + l2)
            delta = w_new - w[i]
            if delta != 0.0:
                partial += delta * gram[i]
                w[i] = w_new
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
            if trace is not None:
                trace(j, w.copy())
        if not np.isfinite(max_delta):
            raise NumericalError(f"non-finite coordinate update in column {j}")
        if max_delta < tolerance:
            break
    if not np.all(np.isfinite(w[cand])):
        raise NumericalError(f"non-finite weights in column {j}")
    nz = cand[w[cand] != 0.0]
    return nz, w[nz]


def reference_weights(model, train, trace=None) -> sp.csc_matrix:
    """Weight matrix the reference solver fits with ``model``'s settings."""
    mat = model._transform(train)
    gram = (mat.T @ mat).toarray()
    col_norms = np.diag(gram).copy()
    num_artists = train.num_artists
    columns = [
        fit_column(gram, col_norms, j, model.l1_penalty, model.l2_penalty,
                   model.max_iters, model.tolerance, trace)
        for j in range(num_artists)
    ]
    indptr = np.zeros(num_artists + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(idx) for idx, _ in columns])
    indices = np.concatenate([idx for idx, _ in columns]) if indptr[-1] else np.empty(0, np.int64)
    data = np.concatenate([vals for _, vals in columns]) if indptr[-1] else np.empty(0, np.float64)
    return sp.csc_matrix((data, indices, indptr), shape=(num_artists, num_artists))


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
