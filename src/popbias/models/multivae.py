"""Variational autoencoder over binarized listening rows, trained with SGD.

Encoder: items -> tanh hidden -> (mu, logvar).  Decoder: latent -> tanh
hidden -> item logits under a multinomial likelihood.  The loss for one user
row x (binarized, L2-normalized) at a fixed standard-normal draw eps is

    -sum_i x_i log softmax(logits)_i  +  beta * KL(N(mu, sigma^2) || N(0, I))

with beta annealed linearly from 0 over a configured number of optimizer
steps.  All gradients are computed analytically in closed form (no autograd
dependency), which keeps training reproducible bit for bit given a seed.
"""

from __future__ import annotations

import math

import numpy as np

from ..corpus import InteractionDataset, require_memory
from ..errors import NumericalError, ValidationError
from .base import RecommenderModel

PARAM_KEYS = (
    "w_enc", "b_enc",
    "w_mu", "b_mu",
    "w_logvar", "b_logvar",
    "w_dec", "b_dec",
    "w_out", "b_out",
)


def init_params(num_items: int, hidden_dim: int, latent_dim: int, rng) -> dict:
    """Xavier-uniform weights, zero biases."""

    def xavier(fan_out, fan_in):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_out, fan_in))

    return {
        "w_enc": xavier(hidden_dim, num_items),
        "b_enc": np.zeros(hidden_dim),
        "w_mu": xavier(latent_dim, hidden_dim),
        "b_mu": np.zeros(latent_dim),
        "w_logvar": xavier(latent_dim, hidden_dim),
        "b_logvar": np.zeros(latent_dim),
        "w_dec": xavier(hidden_dim, latent_dim),
        "b_dec": np.zeros(hidden_dim),
        "w_out": xavier(num_items, hidden_dim),
        "b_out": np.zeros(num_items),
    }


def kl_gaussian(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """KL(N(mu, exp(logvar)) || N(0, I)) per row; >= 0, zero iff mu=0, var=1."""
    mu = np.atleast_2d(mu)
    logvar = np.atleast_2d(logvar)
    return 0.5 * np.sum(mu**2 + np.exp(logvar) - logvar - 1.0, axis=1)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _forward(params, X, eps):
    h1 = np.tanh(X @ params["w_enc"].T + params["b_enc"])
    mu = h1 @ params["w_mu"].T + params["b_mu"]
    logvar = h1 @ params["w_logvar"].T + params["b_logvar"]
    z = mu + np.exp(0.5 * logvar) * eps
    h2 = np.tanh(z @ params["w_dec"].T + params["b_dec"])
    logits = h2 @ params["w_out"].T + params["b_out"]
    return h1, mu, logvar, z, h2, logits


def _batch_loss_and_grads(params, X_target, X_input, eps, beta):
    """Mean loss over the batch and its gradients for every parameter.

    ``X_input`` feeds the encoder (it may be a dropped-out copy of
    ``X_target``); the multinomial term always reconstructs ``X_target``.
    """
    batch = X_target.shape[0]
    h1, mu, logvar, z, h2, logits = _forward(params, X_input, eps)
    log_probs = _log_softmax(logits)
    nll_rows = -np.sum(X_target * log_probs, axis=1)
    kl_rows = kl_gaussian(mu, logvar)
    total_rows = nll_rows + beta * kl_rows

    weight_rows = X_target.sum(axis=1, keepdims=True)
    d_logits = np.exp(log_probs) * weight_rows - X_target
    g_w_out = d_logits.T @ h2
    g_b_out = d_logits.sum(axis=0)
    d_h2 = d_logits @ params["w_out"]
    d_a2 = d_h2 * (1.0 - h2**2)
    g_w_dec = d_a2.T @ z
    g_b_dec = d_a2.sum(axis=0)
    d_z = d_a2 @ params["w_dec"]
    d_mu = d_z + beta * mu
    d_logvar = d_z * eps * 0.5 * np.exp(0.5 * logvar) + beta * 0.5 * (np.exp(logvar) - 1.0)
    g_w_mu = d_mu.T @ h1
    g_b_mu = d_mu.sum(axis=0)
    g_w_logvar = d_logvar.T @ h1
    g_b_logvar = d_logvar.sum(axis=0)
    d_h1 = d_mu @ params["w_mu"] + d_logvar @ params["w_logvar"]
    d_a1 = d_h1 * (1.0 - h1**2)
    g_w_enc = d_a1.T @ X_input
    g_b_enc = d_a1.sum(axis=0)

    grads = {
        "w_enc": g_w_enc, "b_enc": g_b_enc,
        "w_mu": g_w_mu, "b_mu": g_b_mu,
        "w_logvar": g_w_logvar, "b_logvar": g_b_logvar,
        "w_dec": g_w_dec, "b_dec": g_b_dec,
        "w_out": g_w_out, "b_out": g_b_out,
    }
    for key in grads:
        grads[key] = grads[key] / batch
    losses = (
        float(total_rows.mean()),
        float(nll_rows.mean()),
        float(kl_rows.mean()),
    )
    return losses, grads


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
    _, mu, logvar, _, _, logits = _forward(params, x[None, :], z_noise[None, :])
    log_probs = _log_softmax(logits)
    nll = float(-np.sum(x * log_probs[0]))
    kl = float(kl_gaussian(mu, logvar)[0])
    return nll + beta * kl, nll, kl


def gradient(x, params, z_noise, beta) -> dict:
    """Exact analytic gradient of ``elbo_loss`` at a fixed noise draw."""
    if not 0.0 <= beta <= 1.0:
        raise ValidationError(f"beta must be in [0, 1], got {beta}")
    x = np.asarray(x, dtype=np.float64)[None, :]
    z_noise = np.asarray(z_noise, dtype=np.float64)[None, :]
    _, grads = _batch_loss_and_grads(params, x, x, z_noise, beta)
    return grads


class MultiVaeRecommender(RecommenderModel):
    """Multinomial-likelihood VAE recommender with annealed KL weight.

    Scoring a user encodes the mean (no sampling, dropout off) and returns
    the decoder logits, so inference is deterministic.
    """

    model_type = "multivae"

    def __init__(
        self,
        latent_dim: int = 16,
        hidden_dim: int = 64,
        beta_max: float = 0.2,
        anneal_steps: int = 500,
        epochs: int = 30,
        batch_size: int = 64,
        learning_rate: float = 0.5,
        dropout_keep: float = 0.5,
        init_seed: int = 0,
    ):
        if latent_dim < 1 or hidden_dim < 1:
            raise ValidationError("latent_dim and hidden_dim must be >= 1")
        if not 0.0 <= beta_max <= 1.0:
            raise ValidationError("beta_max must be in [0, 1]")
        if anneal_steps < 0:
            raise ValidationError("anneal_steps must be >= 0")
        if epochs < 1 or batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        if not learning_rate > 0:
            raise ValidationError("learning_rate must be > 0")
        if not 0.0 < dropout_keep <= 1.0:
            raise ValidationError("dropout_keep must be in (0, 1]")
        if init_seed < 0:
            raise ValidationError("init_seed must be a non-negative integer")
        self.latent_dim = int(latent_dim)
        self.hidden_dim = int(hidden_dim)
        self.beta_max = float(beta_max)
        self.anneal_steps = int(anneal_steps)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.dropout_keep = float(dropout_keep)
        self.init_seed = int(init_seed)
        self.num_artists_ = None
        self.params_ = None
        self.loss_curve_: list[float] = []
        self._train = None

    def _normalized_rows(self, train: InteractionDataset, users) -> np.ndarray:
        out = np.zeros((len(users), train.num_artists))
        for k, u in enumerate(users):
            prof = train.profile(u)
            out[k, prof] = 1.0 / math.sqrt(len(prof))
        return out

    def _beta_at(self, step: int) -> float:
        if self.anneal_steps == 0:
            return self.beta_max
        return self.beta_max * min(1.0, step / self.anneal_steps)

    def fit(self, train: InteractionDataset):
        seq = np.random.SeedSequence(self.init_seed)
        init_rng, order_rng, noise_rng, drop_rng = map(np.random.default_rng, seq.spawn(4))
        # parameters and their gradients, plus the batch's target, dropped-out
        # input, logits, log-probabilities and logit gradient
        n, h, k = train.num_artists, self.hidden_dim, self.latent_dim
        num_params = 2 * n * h + 3 * h * k + n + 2 * h + 2 * k
        batch = min(self.batch_size, train.num_users)
        require_memory(8 * (2 * num_params + 5 * batch * n),
                       f"Multi-VAE with hidden_dim {h}")
        params = init_params(train.num_artists, self.hidden_dim, self.latent_dim, init_rng)
        step = 0
        self.loss_curve_ = []
        for epoch in range(self.epochs):
            order = order_rng.permutation(train.num_users)
            epoch_losses = []
            for bi, start in enumerate(range(0, train.num_users, self.batch_size)):
                users = order[start : start + self.batch_size]
                target = self._normalized_rows(train, users)
                eps = noise_rng.standard_normal((len(users), self.latent_dim))
                if self.dropout_keep < 1.0:
                    mask = drop_rng.random(target.shape) < self.dropout_keep
                    fed = target * mask / self.dropout_keep
                else:
                    fed = target
                beta = self._beta_at(step)
                (total, _, _), grads = _batch_loss_and_grads(params, target, fed, eps, beta)
                if not math.isfinite(total):
                    raise NumericalError(
                        f"non-finite loss at epoch {epoch}, batch {bi}"
                    )
                for key in PARAM_KEYS:
                    params[key] -= self.learning_rate * grads[key]
                step += 1
                epoch_losses.append(total)
            self.loss_curve_.append(float(np.mean(epoch_losses)))
        self.params_ = params
        self.num_artists_ = train.num_artists
        self._train = train
        return self

    def score_user(self, user: int) -> np.ndarray:
        self._require_fitted()
        x = self._normalized_rows(self._train, [user])
        h1 = np.tanh(x @ self.params_["w_enc"].T + self.params_["b_enc"])
        mu = h1 @ self.params_["w_mu"].T + self.params_["b_mu"]
        h2 = np.tanh(mu @ self.params_["w_dec"].T + self.params_["b_dec"])
        logits = h2 @ self.params_["w_out"].T + self.params_["b_out"]
        return logits[0]
