"""Reference Multi-VAE training: the allocating batch step and SGD loop.

This is the original training step, which builds every activation and
gradient as a fresh array on each batch.  ``MultiVaeRecommender.fit`` must
reproduce its parameters and loss curve byte for byte however its step is
organised; the tests compare the two.
"""

import math

import numpy as np

from popbias.errors import NumericalError

PARAM_KEYS = (
    "w_enc", "b_enc",
    "w_mu", "b_mu",
    "w_logvar", "b_logvar",
    "w_dec", "b_dec",
    "w_out", "b_out",
)


def init_params(num_items, hidden_dim, latent_dim, rng):
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


def kl_gaussian(mu, logvar):
    mu = np.atleast_2d(mu)
    logvar = np.atleast_2d(logvar)
    return 0.5 * np.sum(mu**2 + np.exp(logvar) - logvar - 1.0, axis=1)


def _log_softmax(logits):
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


def _normalized_rows(train, users):
    out = np.zeros((len(users), train.num_artists))
    for k, u in enumerate(users):
        prof = train.profile(u)
        out[k, prof] = 1.0 / math.sqrt(len(prof))
    return out


def reference_fit(train, *, latent_dim, hidden_dim, beta_max, anneal_steps, epochs,
                  batch_size, learning_rate, dropout_keep, init_seed):
    """``(params, loss_curve)`` as ``MultiVaeRecommender(...).fit(train)`` leaves them."""
    seq = np.random.SeedSequence(init_seed)
    init_rng, order_rng, noise_rng, drop_rng = map(np.random.default_rng, seq.spawn(4))
    params = init_params(train.num_artists, hidden_dim, latent_dim, init_rng)
    step = 0
    loss_curve = []
    for epoch in range(epochs):
        order = order_rng.permutation(train.num_users)
        epoch_losses = []
        for bi, start in enumerate(range(0, train.num_users, batch_size)):
            users = order[start : start + batch_size]
            target = _normalized_rows(train, users)
            eps = noise_rng.standard_normal((len(users), latent_dim))
            if dropout_keep < 1.0:
                mask = drop_rng.random(target.shape) < dropout_keep
                fed = target * mask / dropout_keep
            else:
                fed = target
            beta = beta_max if anneal_steps == 0 else beta_max * min(1.0, step / anneal_steps)
            (total, _, _), grads = _batch_loss_and_grads(params, target, fed, eps, beta)
            if not math.isfinite(total):
                raise NumericalError(f"non-finite loss at epoch {epoch}, batch {bi}")
            for key in PARAM_KEYS:
                params[key] -= learning_rate * grads[key]
            step += 1
            epoch_losses.append(total)
        loss_curve.append(float(np.mean(epoch_losses)))
    return params, loss_curve
