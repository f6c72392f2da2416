"""Variational autoencoder over binarized listening rows, trained with SGD.

Encoder: items -> tanh hidden -> (mu, logvar).  Decoder: latent -> tanh
hidden -> item logits under a multinomial likelihood.  The loss for one user
row x (binarized, L2-normalized) at a fixed standard-normal draw eps is

    -sum_i x_i log softmax(logits)_i  +  beta * KL(N(mu, sigma^2) || N(0, I))

with beta annealed linearly from 0 over a configured number of optimizer
steps.  All gradients are computed analytically in closed form (no autograd
dependency), which keeps training reproducible bit for bit given a seed.
Training holds the parameters, one n x h gradient, one batch x n buffer and
a scratch block of a few rows (see ``MultiVaeRecommender.fit``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..corpus import InteractionDataset, require_memory
from ..errors import NumericalError, ValidationError
from .base import RecommenderModel


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


# Float64 entries in the scratch block the softmax and the target's row terms
# run in, a few rows of the batch at a time (at least one row).
_BLOCK_ENTRIES = 2**17


def _block_rows(batch: int, n: int) -> int:
    """Rows of the softmax's scratch block for batches of up to ``batch`` rows of ``n``."""
    return max(1, min(batch, _BLOCK_ENTRIES // n))


class _SparseRows:
    """A batch's binarized, L2-normalized rows, held as their non-zeros.

    Row k is ``value[k] = 1 / sqrt(count[k])`` at each of its ``count[k]``
    listened artists and +0.0 elsewhere; ``nz`` holds the flat positions of
    those entries in the (C-contiguous) batch x n block, row by row, as int32
    where they fit.  An entry is kept when its draw in ``uniforms`` (batch x
    n) is below ``keep_prob``; the encoder sees ``value[k] * kept /
    keep_prob`` at each entry, which is the reference's ``target * mask /
    keep_prob`` there, and +0.0 elsewhere.

    Every pass over the entries goes span by span, a span being consecutive
    rows with at most n entries together (or one row), so no temporary is
    larger than a few rows of the block; realistic batches are one span.
    """

    def __init__(self, train: InteractionDataset, users, n: int, uniforms: np.ndarray,
                 keep_prob: float):
        self.count = np.diff(train.counts.indptr)[users]
        self.value = 1.0 / np.sqrt(self.count)
        self._ends = np.cumsum(self.count)
        self._n = n
        self.nz = np.empty(int(self._ends[-1]), np.int32 if len(users) * n < 2**31 else np.int64)
        self.kept = np.empty(self.nz.size, dtype=bool)
        self.keep_prob = keep_prob
        drawn = uniforms.reshape(-1)
        for entries, rows in self._spans(0, len(users)):
            pos = np.repeat(np.arange(rows.start, rows.stop) * n, self.count[rows])
            pos += train.counts[users[rows]].indices
            self.nz[entries] = pos
            np.less(drawn[pos], keep_prob, out=self.kept[entries])

    def _spans(self, lo, hi):
        """Yield ``(entries, rows)`` slices for the spans of rows ``lo .. hi``."""
        ends, count = self._ends, self.count
        while lo < hi:
            begin = int(ends[lo] - count[lo])
            stop = min(hi, max(lo + 1, int(np.searchsorted(ends, begin + self._n, "right"))))
            yield slice(begin, int(ends[stop - 1])), slice(lo, stop)
            lo = stop

    def _values(self, rows):
        return np.repeat(self.value[rows], self.count[rows])

    def write_target(self, out: np.ndarray, first: int = 0) -> None:
        """Overwrite ``out`` (r x n) with target rows ``first .. first + r``."""
        out.fill(0.0)
        flat = out.reshape(-1)
        for entries, rows in self._spans(first, first + len(out)):
            flat[self.nz[entries] - first * self._n] = self._values(rows)

    def write_input(self, out: np.ndarray) -> None:
        """Overwrite ``out`` (batch x n) with the encoder's input rows."""
        out.fill(0.0)
        flat = out.reshape(-1)
        for entries, rows in self._spans(0, len(out)):
            fed = self._values(rows)
            fed *= self.kept[entries]
            fed /= self.keep_prob
            flat[self.nz[entries]] = fed

    def subtract_target(self, out: np.ndarray) -> None:
        """``out -= target`` at the non-zeros: x - (+0.0) is x everywhere else."""
        flat = out.reshape(-1)
        for entries, rows in self._spans(0, len(out)):
            flat[self.nz[entries]] -= self._values(rows)


def _forward_loss(params, rows, eps, beta, logits, scratch):
    """Per-row (total, nll, kl) and the activations; log-probabilities left in ``logits``.

    ``rows`` writes the encoder's input (which may be a dropped-out copy of
    the target) and the target, the rows the multinomial term reconstructs.
    The input goes into ``logits`` (batch x n) and is read before the decoder
    overwrites it.  The softmax and the target's terms are then taken a row
    block at a time: ``scratch`` (r x n) holds a block's exponentials and
    then its target rows, so nothing else batch x n is allocated.  A row's
    sums do not depend on the rows summed beside it.  The last activation is
    the target's per-row sum.
    """
    rows.write_input(logits)
    h1 = np.tanh(logits @ params["w_enc"].T + params["b_enc"])
    mu = h1 @ params["w_mu"].T + params["b_mu"]
    logvar = h1 @ params["w_logvar"].T + params["b_logvar"]
    z = mu + np.exp(0.5 * logvar) * eps
    h2 = np.tanh(z @ params["w_dec"].T + params["b_dec"])
    np.matmul(h2, params["w_out"].T, out=logits)
    logits += params["b_out"]
    b, r = len(logits), len(scratch)
    weight_rows, nll_rows = np.empty((b, 1)), np.empty(b)
    for lo in range(0, b, r):
        part, ex = logits[lo : lo + r], scratch[: min(r, b - lo)]
        part -= part.max(axis=1, keepdims=True)
        np.exp(part, out=ex)
        part -= np.log(ex.sum(axis=1, keepdims=True))
        rows.write_target(ex, lo)
        # summed over the dense row, so in the reference's pairwise order
        ex.sum(axis=1, keepdims=True, out=weight_rows[lo : lo + r])
        ex *= part  # target * log_probs: IEEE multiplication is commutative
        ex.sum(axis=1, out=nll_rows[lo : lo + r])
    np.negative(nll_rows, out=nll_rows)
    kl_rows = kl_gaussian(mu, logvar)
    return (nll_rows + beta * kl_rows, nll_rows, kl_rows), (h1, mu, logvar, z, h2, weight_rows)


def _backward(params, acts, rows, eps, beta, log_probs, grad, emit):
    """Hand each parameter's batch-summed gradient to ``emit(key, g)`` as it is made.

    ``log_probs`` is exponentiated in place into the logit gradient; once
    that has given ``w_out``'s gradient, ``b_out``'s and the decoder's
    back-propagated rows, it is dead and takes the encoder's input again for
    ``w_enc``'s gradient.  ``grad`` (n * h floats) holds ``w_out``'s gradient
    and then ``w_enc``'s, so ``emit`` must be done with the first before the
    second is written.  ``w_out`` is read only before it is emitted, so
    ``emit`` may update it in place.

    Both weight gradients are whole products, so ``grad`` stays.  Made a
    column block at a time, ``w_out``'s gradient matched the whole product
    byte for byte, but ``w_enc``'s did not: its columns are BLAS's M
    dimension, and OpenBLAS rounds the columns at the edge of its register
    tiles with a kernel it picks from the product's size and thread split.
    """
    h1, mu, logvar, z, h2, weight_rows = acts
    n, h = log_probs.shape[1], h1.shape[1]
    ex = np.exp(log_probs, out=log_probs)
    ex *= weight_rows
    rows.subtract_target(ex)
    g_w_out = np.matmul(ex.T, h2, out=grad.reshape(n, h))
    g_b_out = ex.sum(axis=0)
    d_h2 = ex @ params["w_out"]
    emit("w_out", g_w_out)
    emit("b_out", g_b_out)
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
    rows.write_input(log_probs)
    g_w_enc = np.matmul(d_a1.T, log_probs, out=grad.reshape(h, n))
    g_b_enc = d_a1.sum(axis=0)
    for key, g in (
        ("w_enc", g_w_enc), ("b_enc", g_b_enc),
        ("w_mu", g_w_mu), ("b_mu", g_b_mu),
        ("w_logvar", g_w_logvar), ("b_logvar", g_b_logvar),
        ("w_dec", g_w_dec), ("b_dec", g_b_dec),
    ):
        emit(key, g)


def _sgd(params, batch, lr, key, g):
    """``params[key] -= lr * (g / batch)``, overwriting ``g``.

    ``(g / batch) * lr`` rounds exactly as ``lr * (g / batch)``: IEEE
    multiplication is commutative.
    """
    g /= batch
    g *= lr
    params[key] -= g


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

    def _beta_at(self, step: int) -> float:
        if self.anneal_steps == 0:
            return self.beta_max
        return self.beta_max * min(1.0, step / self.anneal_steps)

    def fit(self, train: InteractionDataset):
        """SGD on batch-mean gradients over one batch x n buffer allocated once.

        ``logits`` takes the dropout draw, then the encoder's input, the
        logits, the log-probabilities, the logit gradient and the encoder's
        input again.  The target stays sparse in between (see
        ``_SparseRows``).  The softmax runs a few rows at a time in a scratch
        block of at most ``_BLOCK_ENTRIES`` floats (or one row), and one n x h
        gradient serves ``w_out`` and then ``w_enc``.  Each step performs the
        same floating-point operations in the same order as the allocating
        step kept in ``tests/multivae_reference.py``, so parameters and loss
        curve match it byte for byte.
        """
        seq = np.random.SeedSequence(self.init_seed)
        init_rng, order_rng, noise_rng, drop_rng = map(np.random.default_rng, seq.spawn(4))
        n, h, k = train.num_artists, self.hidden_dim, self.latent_dim
        size = min(self.batch_size, train.num_users)
        block_rows = _block_rows(size, n)
        # parameters, one gradient shared by w_out and w_enc, the batch x n
        # buffer and the softmax's rows
        num_params = 2 * n * h + 3 * h * k + n + 2 * h + 2 * k
        require_memory(8 * (num_params + n * h + (size + block_rows) * n),
                       f"Multi-VAE with hidden_dim {h}")
        params = init_params(n, h, k, init_rng)
        logits, scratch = np.empty((size, n)), np.empty((block_rows, n))
        grad = np.empty(n * h)
        step = 0
        self.loss_curve_ = []
        for epoch in range(self.epochs):
            order = order_rng.permutation(train.num_users)
            epoch_losses = []
            for bi, start in enumerate(range(0, train.num_users, self.batch_size)):
                users = order[start : start + self.batch_size]
                b = len(users)
                drop_rng.random(out=logits[:b])
                rows = _SparseRows(train, users, n, logits[:b], self.dropout_keep)
                eps = noise_rng.standard_normal((b, k))
                beta = self._beta_at(step)
                # an overflow shows up as a non-finite loss, reported below
                with np.errstate(over="ignore", invalid="ignore"):
                    losses, acts = _forward_loss(params, rows, eps, beta, logits[:b], scratch)
                    total = float(losses[0].mean())
                    if not math.isfinite(total):
                        raise NumericalError(f"non-finite loss at epoch {epoch}, batch {bi}")
                    _backward(params, acts, rows, eps, beta, logits[:b], grad,
                              functools.partial(_sgd, params, b, self.learning_rate))
                step += 1
                epoch_losses.append(total)
                del rows  # the next batch's non-zeros are built without this batch's
            self.loss_curve_.append(float(np.mean(epoch_losses)))
        self.params_ = params
        self.num_artists_ = train.num_artists
        self._train = train
        return self

    def score_user(self, user: int) -> np.ndarray:
        self._require_fitted()
        x = np.zeros((1, self.num_artists_))
        prof = self._train.profile(user)
        x[0, prof] = 1.0 / math.sqrt(len(prof))
        # huge but finite parameters overflow here; evaluation rejects the scores
        with np.errstate(over="ignore", invalid="ignore"):
            h1 = np.tanh(x @ self.params_["w_enc"].T + self.params_["b_enc"])
            mu = h1 @ self.params_["w_mu"].T + self.params_["b_mu"]
            h2 = np.tanh(mu @ self.params_["w_dec"].T + self.params_["b_dec"])
            logits = h2 @ self.params_["w_out"].T + self.params_["b_out"]
        return logits[0]
