"""Weighted matrix factorization for implicit feedback, fit by exact ALS.

Binary preferences p_ui = 1[count > 0] are weighted by confidences
c_ui = 1 + alpha * count (or a log variant) in

    sum_{u,i} c_ui (p_ui - x_u . y_i)^2 + ridge * (||X||^2 + ||Y||^2)

Each half-sweep solves every non-empty row's ridge-regularized normal
equations exactly, using the standard decomposition
Y^T C_u Y = Y^T Y + Y^T (C_u - I) Y over observed items only: one dense d x d
system per row, factored and solved by LAPACK ``potrf``/``potrs`` called
directly.  SciPy's ``cho_factor``/``cho_solve`` call the same routines, but
their per-call argument handling costs more than the LAPACK work at these
sizes.  The confidence arrays c - 1 and c are computed and checked once per
fit for each orientation of the counts matrix.

A row's system and right-hand side depend only on its observed (column,
confidence) pairs, so rows holding one entry with the same column and count
are solved once, the lowest of them, and the others copy its factors; in a
long-tail catalogue most artists have one listener.  A system with an
overflowed entry must not reach ``potrf``, which can factor it into finite
garbage.  One bound per half-sweep rules overflow out for every row at once;
only when it cannot is each system's sum checked.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs

from ..corpus import InteractionDataset, require_memory
from ..errors import NumericalError, ValidationError
from .base import RecommenderModel

CONFIDENCE_MODES = ("linear", "log")


def _confidence_minus_one(counts: np.ndarray, alpha: float, confidence: str) -> np.ndarray:
    if confidence == "linear":
        return alpha * counts
    return alpha * np.log1p(counts)


def _confidences(mat: sp.csr_matrix, alpha: float, confidence: str):
    """``(c - 1, c)`` for every stored entry of ``mat``, in storage order."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        extra = _confidence_minus_one(np.asarray(mat.data, dtype=np.float64), alpha, confidence)
        conf = 1.0 + extra
    if not np.all(np.isfinite(conf)):
        raise NumericalError(f"confidence 1 + alpha * f(count) overflows at alpha={alpha:g}")
    return extra, conf


# A computed sum of n terms exceeds the sum of their absolute values by a
# factor of at most (1 + 2^-53)^n, which is below 2 for any row length or
# factor count that fits in memory; 4 also covers the rounding of the bound.
_ROUNDING_MARGIN = 4.0


def _cannot_overflow(gram, other, indptr, extra):
    """Whether no row's system, nor its sum, can leave the float range.

    Entry (j, k) of row u's system is gram_jk + sum_r extra_r y_rj y_rk over
    the row's observed r.  Its absolute value, and that of each partial sum,
    is at most B = max|gram| + (largest row sum of |extra|) * max|other|^2,
    and each intermediate |extra_r y_rj| is at most the larger of B and that
    row sum.  A system's sum adds d^2 entries.  So if d^2 * B is below the
    float maximum with a rounding margin, no entry and no sum can overflow,
    and the per-row finiteness check can be skipped.  A NaN or infinite bound
    (an overflowed row sum or a non-finite ``other``) compares false and keeps
    the check.
    """
    d = gram.shape[0]
    starts = indptr[:-1][np.diff(indptr) > 0]
    with np.errstate(over="ignore", invalid="ignore"):
        row_sums = np.add.reduceat(np.abs(extra), starts)
        bound = np.abs(gram).max() + row_sums.max() * np.abs(other).max() ** 2
        return bool(d * d * bound < np.finfo(np.float64).max / _ROUNDING_MARGIN)


def _solve_rows(mat, other, ridge, extra, conf):
    """Per-row exact solves given the confidences of ``mat``'s entries.

    Returns the solutions and the number of systems factored.  Rows that hold
    one entry with the same column and the same ``extra`` (so the same
    ``conf``) have identical systems and right-hand sides: only the lowest
    such row is solved, and the others copy its solution.  Rows are solved in
    ascending order, so a failing system's error names the same row as it
    would if every row were solved.
    """
    n = mat.shape[0]
    d = other.shape[1]
    gram = other.T @ other + ridge * np.eye(d)
    out = np.zeros((n, d))
    indptr, indices = mat.indptr, mat.indices
    lengths = np.diff(indptr)
    one = np.flatnonzero(lengths == 1)
    # a one-play row's key is its column and the bits of its extra, ranked
    _, level = np.unique(extra[indptr[one]].view(np.int64), return_inverse=True)
    key = indices[indptr[one]].astype(np.int64) * (level.max(initial=0) + 1) + level
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    copy = np.flatnonzero(first[group] != np.arange(one.size))
    copies, sources = one[copy], one[first[group[copy]]]
    solve = lengths > 0
    solve[copies] = False
    rows = np.flatnonzero(solve)
    checked = rows.size > 0 and not _cannot_overflow(gram, other, indptr, extra)
    for i, lo, hi in zip(rows.tolist(), indptr[rows].tolist(), indptr[rows + 1].tolist()):
        observed = other[indices[lo:hi]]
        system = gram + observed.T @ (extra[lo:hi, None] * observed)
        # potrf does not reject inf or NaN, and a system with an overflowed
        # entry can factor into finite garbage.  One sum is cheaper than an
        # elementwise test; it also rejects entries summing past the float range.
        if checked and not math.isfinite(system.sum()):
            raise NumericalError(f"non-finite normal equations at row {i}")
        factor, info = dpotrf(system, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise NumericalError(
                f"singular normal equations at row {i}: "
                f"leading minor {info} is not positive definite"
            )
        # potrs fails only on an illegal argument, which a d x d factor and a
        # length-d right-hand side cannot be
        out[i] = dpotrs(factor, observed.T @ conf[lo:hi], lower=1, overwrite_b=1)[0]
    out[copies] = out[sources]
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:  # e.g. an overflowed right-hand side
        raise NumericalError(f"non-finite solution at row {bad[0]}")
    return out, rows.size


def wrmf_objective(
    train: InteractionDataset,
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    alpha: float,
    ridge: float,
    confidence: str = "linear",
) -> float:
    """Full weighted loss over every (user, artist) cell plus both regularizers.

    Uses the algebraic identity that splits the sum into an all-cells term
    driven by the item gram matrix and a correction over observed cells, so
    the cost is O(nnz * d + d^2 * (users + artists)).
    """
    X = np.asarray(user_factors, dtype=np.float64)
    Y = np.asarray(item_factors, dtype=np.float64)
    if X.shape[0] != train.num_users or Y.shape[0] != train.num_artists:
        raise ValidationError("factor shapes do not match the dataset")
    if X.shape[1] != Y.shape[1]:
        raise ValidationError("user and item factor dimensions differ")
    gram = Y.T @ Y
    term_all = float(np.einsum("ud,de,ue->", X, gram, X))
    coo = train.counts.tocoo()
    scores = np.einsum("nd,nd->n", X[coo.row], Y[coo.col])
    extra = _confidence_minus_one(coo.data.astype(np.float64), alpha, confidence)
    conf = 1.0 + extra
    term_obs = float(np.sum(conf * (1.0 - scores) ** 2 - scores**2))
    reg = ridge * (float(np.sum(X * X)) + float(np.sum(Y * Y)))
    return term_all + term_obs + reg


class WrmfRecommender(RecommenderModel):
    """Alternating least squares over confidence-weighted binary preferences.

    Runs a fixed number of sweeps (no early stopping) for reproducibility;
    ``track_objective=True`` records the loss after every half-sweep in
    ``objective_trace_``.  After ``fit``, ``solves_`` counts the row systems it
    factored.
    """

    model_type = "wrmf"

    def __init__(
        self,
        factors: int = 32,
        alpha: float = 10.0,
        ridge: float = 0.1,
        sweeps: int = 15,
        init_seed: int = 0,
        confidence: str = "linear",
        track_objective: bool = False,
    ):
        if factors < 1:
            raise ValidationError("factors must be >= 1")
        if not alpha > 0:
            raise ValidationError("alpha must be > 0")
        if not ridge > 0:
            raise ValidationError("ridge must be > 0")
        if sweeps < 1:
            raise ValidationError("sweeps must be >= 1")
        if confidence not in CONFIDENCE_MODES:
            raise ValidationError(f"confidence must be one of {CONFIDENCE_MODES}")
        if init_seed < 0:
            raise ValidationError("init_seed must be a non-negative integer")
        self.factors = int(factors)
        self.alpha = float(alpha)
        self.ridge = float(ridge)
        self.sweeps = int(sweeps)
        self.init_seed = int(init_seed)
        self.confidence = confidence
        self.track_objective = bool(track_objective)
        self.num_artists_ = None
        self.user_factors_ = None
        self.item_factors_ = None
        self.objective_trace_: list[float] = []
        self.solves_ = None

    def fit(self, train: InteractionDataset):
        # factors, their d x d Gram matrix, and c - 1 and c for both orientations
        d = self.factors
        require_memory(8 * (d * (train.num_users + train.num_artists) + d * d
                            + 4 * train.num_pairs), f"WRMF with {d} factors")
        counts = train.counts
        counts_t = counts.T.tocsr()
        by_user = _confidences(counts, self.alpha, self.confidence)
        by_item = _confidences(counts_t, self.alpha, self.confidence)
        rng = np.random.default_rng(self.init_seed)
        X = rng.uniform(-0.01, 0.01, size=(train.num_users, self.factors))
        Y = rng.uniform(-0.01, 0.01, size=(train.num_artists, self.factors))
        self.objective_trace_ = []
        self.solves_ = 0
        for _ in range(self.sweeps):
            X, solves = _solve_rows(counts, Y, self.ridge, *by_user)
            self.solves_ += solves
            if self.track_objective:
                self.objective_trace_.append(
                    wrmf_objective(train, X, Y, self.alpha, self.ridge, self.confidence)
                )
            Y, solves = _solve_rows(counts_t, X, self.ridge, *by_item)
            self.solves_ += solves
            if self.track_objective:
                self.objective_trace_.append(
                    wrmf_objective(train, X, Y, self.alpha, self.ridge, self.confidence)
                )
        self.user_factors_ = X
        self.item_factors_ = Y
        self.num_artists_ = train.num_artists
        return self

    def score_user(self, user: int) -> np.ndarray:
        self._require_fitted()
        return self.user_factors_[user] @ self.item_factors_.T
