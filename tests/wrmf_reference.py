"""Reference WRMF solver: one row at a time through SciPy's Cholesky wrappers.

This is the original per-row solve, which recomputes the confidences of every
row on every half-sweep and calls ``cho_factor``/``cho_solve``.  The library's
solver calls LAPACK ``potrf``/``potrs`` directly on confidences computed once
per fit and must reproduce these factors byte for byte; the tests compare the
two.
"""

import numpy as np
import scipy.linalg

from popbias.errors import NumericalError
from popbias.models.wrmf import _confidence_minus_one


def reference_solve_factors(mat, other, alpha, ridge, confidence="linear"):
    """Exact conditional minimizers for one side, as ``solve_factors``."""
    n = mat.shape[0]
    d = other.shape[1]
    gram = other.T @ other + ridge * np.eye(d)
    out = np.zeros((n, d))
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        if lo == hi:
            continue
        cols = indices[lo:hi]
        extra = _confidence_minus_one(data[lo:hi].astype(np.float64), alpha, confidence)
        observed = other[cols]
        system = gram + observed.T @ (extra[:, None] * observed)
        rhs = observed.T @ (1.0 + extra)
        try:
            factor = scipy.linalg.cho_factor(system, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(f"singular normal equations at row {i}: {exc}") from exc
        out[i] = scipy.linalg.cho_solve(factor, rhs)
    return out


def reference_factors(model, train):
    """``(user_factors, item_factors)`` of ``model``'s settings fit with the
    reference solver, from the same initialisation as ``WrmfRecommender.fit``."""
    counts = train.counts.astype(np.float64).tocsr()
    counts_t = counts.T.tocsr()
    rng = np.random.default_rng(model.init_seed)
    X = rng.uniform(-0.01, 0.01, size=(train.num_users, model.factors))
    Y = rng.uniform(-0.01, 0.01, size=(train.num_artists, model.factors))
    for _ in range(model.sweeps):
        X = reference_solve_factors(counts, Y, model.alpha, model.ridge, model.confidence)
        Y = reference_solve_factors(counts_t, X, model.alpha, model.ridge, model.confidence)
    return X, Y
