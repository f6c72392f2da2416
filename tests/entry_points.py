"""Entry points only the tests call: Multi-VAE's loss and gradient, WRMF's
one-side solve, and top-N.

``elbo_loss`` and ``gradient`` are the finite-difference oracle's entry
points.  They wrap the library's ``_forward_loss`` and ``_backward``, the
step ``MultiVaeRecommender.fit`` runs, so the oracle checks that step
itself; only the batch rows are handed over dense.  ``solve_factors`` is
WRMF's ``_solve_rows`` with the confidences ``fit`` uses.
``recommend_top_n`` is ``rank_candidates`` with ``n`` over one user's
scores, their training profile excluded.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from popbias.corpus import InteractionDataset
from popbias.errors import ValidationError
from popbias.models.base import RecommenderModel, rank_candidates
from popbias.models.multivae import _backward, _block_rows, _forward_loss
from popbias.models.wrmf import _confidences, _solve_rows


class _DenseRows:
    """Dense target and input rows behind the batch interface ``_forward_loss`` reads."""

    def __init__(self, target, fed):
        self.target, self.fed = target, fed

    def write_target(self, out, first=0):
        np.copyto(out, self.target[first : first + len(out)])

    def write_input(self, out):
        np.copyto(out, self.fed)


def _batch_loss_and_grads(params, X_target, X_input, eps, beta):
    """Mean (total, nll, kl) over the batch and the mean gradient of every parameter."""
    batch, n = X_target.shape
    logits = np.empty((batch, n))
    rows = _DenseRows(X_target, X_input)
    losses, acts = _forward_loss(params, rows, eps, beta, logits,
                                 np.empty((_block_rows(batch, n), n)))
    grads = {}

    def keep(key, g):
        grads[key] = g / batch

    _backward(params, acts, rows, eps, beta, logits, np.empty(params["w_out"].size), keep)
    return tuple(float(r.mean()) for r in losses), grads


def elbo_loss(x, params, z_noise, beta) -> tuple[float, float, float]:
    """(total, negative_log_likelihood, kl) for a single normalized row."""
    if not 0.0 <= beta <= 1.0:
        raise ValidationError(f"beta must be in [0, 1], got {beta}")
    x = np.asarray(x, dtype=np.float64)
    z_noise = np.asarray(z_noise, dtype=np.float64)
    if x.shape != (params["w_enc"].shape[1],):
        raise ValidationError("input row does not match the encoder width")
    if z_noise.shape != (params["w_mu"].shape[0],):
        raise ValidationError("noise draw does not match the latent width")
    x = x[None, :]
    losses, _ = _forward_loss(params, _DenseRows(x, x), z_noise[None, :], beta,
                              np.empty_like(x), np.empty_like(x))
    return tuple(float(r[0]) for r in losses)


def gradient(x, params, z_noise, beta) -> dict:
    """Exact analytic gradient of ``elbo_loss`` at a fixed noise draw."""
    if not 0.0 <= beta <= 1.0:
        raise ValidationError(f"beta must be in [0, 1], got {beta}")
    x = np.asarray(x, dtype=np.float64)[None, :]
    z_noise = np.asarray(z_noise, dtype=np.float64)[None, :]
    _, grads = _batch_loss_and_grads(params, x, x, z_noise, beta)
    return grads


def solve_factors(
    mat: sp.csr_matrix,
    other: np.ndarray,
    alpha: float,
    ridge: float,
    confidence: str = "linear",
) -> np.ndarray:
    """Exact conditional minimizers for one side of the factorization.

    ``mat`` has one row per entity being solved (users, or the transposed
    matrix for items); ``other`` is the fixed opposite factor matrix.  Rows
    with no observations come out exactly zero, which is their minimizer.
    """
    return _solve_rows(mat, other, ridge, *_confidences(mat, alpha, confidence))[0]


def recommend_top_n(
    model: RecommenderModel, train: InteractionDataset, user: int, n: int
) -> np.ndarray:
    """Top-n artists for a user after excluding their training profile.

    Returns fewer than n artists when fewer candidates exist.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if not 0 <= user < train.num_users:
        raise ValidationError(f"user index {user} out of range")
    return rank_candidates(model.score_user(user), exclude=train.profile(user), n=n)
