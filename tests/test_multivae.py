import math
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from popbias.corpus import SyntheticConfig, generate_synthetic
from popbias.errors import ValidationError
from popbias.models import multivae
from popbias.models.multivae import MultiVaeRecommender, init_params, kl_gaussian

from conftest import make_dataset, random_dataset
from entry_points import _batch_loss_and_grads, elbo_loss, gradient
from multivae_reference import PARAM_KEYS, reference_fit


def tiny_instance(seed, num_items=12, hidden=8, latent=4):
    rng = np.random.default_rng(seed)
    params = init_params(num_items, hidden, latent, rng)
    x = np.zeros(num_items)
    profile = rng.choice(num_items, size=4, replace=False)
    x[profile] = 1.0 / math.sqrt(4)
    eps = rng.standard_normal(latent)
    beta = float(rng.uniform(0, 1))
    return params, x, eps, beta


def naive_elbo(x, params, eps, beta):
    """Oracle: straightforward recomputation of the loss formula."""
    h1 = np.tanh(params["w_enc"] @ x + params["b_enc"])
    mu = params["w_mu"] @ h1 + params["b_mu"]
    logvar = params["w_logvar"] @ h1 + params["b_logvar"]
    z = mu + np.exp(0.5 * logvar) * eps
    h2 = np.tanh(params["w_dec"] @ z + params["b_dec"])
    logits = params["w_out"] @ h2 + params["b_out"]
    probs = np.exp(logits) / np.sum(np.exp(logits))
    nll = -float(np.sum(x * np.log(probs)))
    kl = 0.5 * float(np.sum(mu**2 + np.exp(logvar) - logvar - 1.0))
    return nll + beta * kl, nll, kl


class TestLoss:
    def test_beta_zero_total_is_nll(self):
        params, x, eps, _ = tiny_instance(0)
        total, nll, kl = elbo_loss(x, params, eps, 0.0)
        assert total == nll
        assert kl >= 0

    def test_uniform_logits_one_hot_gives_log_v(self):
        params, x, eps, _ = tiny_instance(1)
        params["w_out"][:] = 0.0
        params["b_out"][:] = 0.0
        one_hot = np.zeros(12)
        one_hot[3] = 1.0
        _, nll, _ = elbo_loss(one_hot, params, eps, 0.0)
        assert nll == approx(math.log(12), rel=1e-12)

    def test_matches_naive_recomputation(self):
        for seed in range(10):
            params, x, eps, beta = tiny_instance(seed)
            got = elbo_loss(x, params, eps, beta)
            want = naive_elbo(x, params, eps, beta)
            assert got == approx(want, abs=1e-10)

    def test_beta_range_validated(self):
        params, x, eps, _ = tiny_instance(2)
        with pytest.raises(ValidationError):
            elbo_loss(x, params, eps, 1.5)

    def test_shape_validated(self):
        params, x, eps, _ = tiny_instance(3)
        with pytest.raises(ValidationError):
            elbo_loss(x[:-1], params, eps, 0.5)


class TestKl:
    def test_standard_normal_is_zero(self):
        assert kl_gaussian(np.zeros(4), np.zeros(4))[0] == 0.0

    def test_non_negative_on_many_draws(self):
        rng = np.random.default_rng(6)
        mu = rng.normal(0, 2, size=(100_000, 3))
        logvar = rng.uniform(-4, 4, size=(100_000, 3))
        assert kl_gaussian(mu, logvar).min() >= 0.0

    def test_zero_only_at_standard_normal(self):
        assert kl_gaussian(np.array([0.1, 0.0]), np.zeros(2))[0] > 0
        assert kl_gaussian(np.zeros(2), np.array([0.0, 0.2]))[0] > 0


class TestGradient:
    def test_matches_central_finite_differences(self):
        h = 1e-5
        for seed in range(10):
            params, x, eps, beta = tiny_instance(seed)
            grads = gradient(x, params, eps, beta)
            for key in PARAM_KEYS:
                p = params[key]
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = p[idx]
                    p[idx] = orig + h
                    up = elbo_loss(x, params, eps, beta)[0]
                    p[idx] = orig - h
                    down = elbo_loss(x, params, eps, beta)[0]
                    p[idx] = orig
                    fd = (up - down) / (2 * h)
                    a = float(grads[key][idx])
                    assert abs(a - fd) <= 1e-7 + 1e-4 * max(abs(a), abs(fd)), (
                        seed, key, idx, a, fd,
                    )

    def test_gradient_linear_in_the_loss(self):
        # total = nll + beta*kl, and differentiation is linear: the gradient at
        # any beta is the beta-interpolation of the endpoint gradients, and a
        # doubled loss has a doubled gradient.
        params, x, eps, _ = tiny_instance(11)
        g0 = gradient(x, params, eps, 0.0)
        g1 = gradient(x, params, eps, 1.0)
        gmid = gradient(x, params, eps, 0.4)
        for key in PARAM_KEYS:
            assert gmid[key] == approx(g0[key] + 0.4 * (g1[key] - g0[key]), abs=1e-12)
            doubled = 2 * g1[key]
            assert doubled == approx(g1[key] + g1[key], abs=0)

    def test_symmetric_duplicate_items_get_symmetric_gradients(self):
        params, _, eps, _ = tiny_instance(12)
        # make decoder rows for items 0 and 1 identical, and weight them equally
        params["w_out"][1] = params["w_out"][0]
        params["b_out"][1] = params["b_out"][0]
        x = np.zeros(12)
        x[0] = x[1] = 1.0 / math.sqrt(2)
        # encoder columns for items 0/1 also identical so the input is symmetric
        params["w_enc"][:, 1] = params["w_enc"][:, 0]
        g = gradient(x, params, eps, 0.3)
        assert g["w_out"][0] == approx(g["w_out"][1], rel=1e-12)
        assert g["b_out"][0] == approx(g["b_out"][1], rel=1e-12)

    def test_batch_gradient_is_mean_of_single_gradients(self):
        rng = np.random.default_rng(13)
        params, _, _, beta = tiny_instance(13)
        X = rng.random((3, 12))
        eps = rng.standard_normal((3, 4))
        _, batch_grads = _batch_loss_and_grads(params, X, X, eps, beta)
        for key in PARAM_KEYS:
            mean_single = np.mean(
                [gradient(X[i], params, eps[i], beta)[key] for i in range(3)], axis=0
            )
            assert batch_grads[key] == approx(mean_single, abs=1e-12)


class TestFit:
    def test_loss_decreases_on_toy_data(self):
        rng = np.random.default_rng(14)
        counts = np.zeros((20, 12), dtype=np.int64)
        for u in range(20):
            counts[u, rng.choice(12, size=4, replace=False)] = 1
        ds = make_dataset(counts)
        model = MultiVaeRecommender(latent_dim=4, hidden_dim=8, beta_max=0.0,
                                    epochs=5, batch_size=5, learning_rate=0.5,
                                    dropout_keep=1.0, init_seed=0).fit(ds)
        losses = model.loss_curve_
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_single_user_two_items_converges_to_symmetry(self):
        ds = make_dataset([[1, 1]])
        model = MultiVaeRecommender(latent_dim=2, hidden_dim=4, beta_max=0.0,
                                    epochs=300, batch_size=1, learning_rate=0.5,
                                    dropout_keep=1.0, init_seed=1).fit(ds)
        scores = model.score_user(0)
        probs = np.exp(scores) / np.sum(np.exp(scores))
        assert abs(probs[0] - probs[1]) < 0.05

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(15)
        counts = np.zeros((10, 8), dtype=np.int64)
        for u in range(10):
            counts[u, rng.choice(8, size=3, replace=False)] = 1
        ds = make_dataset(counts)
        kwargs = dict(latent_dim=3, hidden_dim=6, epochs=3, batch_size=4, init_seed=9)
        a = MultiVaeRecommender(**kwargs).fit(ds)
        b = MultiVaeRecommender(**kwargs).fit(ds)
        for key in PARAM_KEYS:
            assert a.params_[key].tobytes() == b.params_[key].tobytes()

    def test_hyperparam_validation(self):
        for bad, message in (
            (dict(latent_dim=0), "latent_dim and hidden_dim must be >= 1"),
            (dict(beta_max=1.5), "beta_max must be in"),
            (dict(anneal_steps=-1), "anneal_steps must be >= 0"),
            (dict(epochs=0), "epochs and batch_size must be >= 1"),
            (dict(learning_rate=0.0), "learning_rate must be > 0"),
            (dict(dropout_keep=0.0), "dropout_keep must be in"),
            (dict(init_seed=-1), "init_seed must be a non-negative integer"),
        ):
            with pytest.raises(ValidationError, match=message):
                MultiVaeRecommender(**bad)


class TestMatchesReference:
    """Byte-equal to the allocating training step (tests/multivae_reference.py)."""

    @pytest.mark.parametrize("seed, dropout_keep, anneal_steps, batch_size", [
        (0, 1.0, 0, 4),
        (1, 0.5, 0, 5),
        (2, 1.0, 7, 3),
        (3, 0.5, 3, 4),
        (4, 0.5, 0, 64),
        # one user a batch, and a keep rate at which some fed rows are all zero
        (6, 0.5, 0, 1),
        (7, 0.05, 2, 4),
    ])
    def test_fit_params_and_loss_curve(self, seed, dropout_keep, anneal_steps, batch_size):
        # 11 users: every batch size leaves a short last batch
        ds = random_dataset(np.random.default_rng(seed), num_users=11)
        kwargs = dict(latent_dim=3, hidden_dim=6, beta_max=0.3, anneal_steps=anneal_steps,
                      epochs=4, batch_size=batch_size, learning_rate=0.4,
                      dropout_keep=dropout_keep, init_seed=seed)
        model = MultiVaeRecommender(**kwargs).fit(ds)
        params, loss_curve = reference_fit(ds, **kwargs)
        assert np.array(model.loss_curve_).tobytes() == np.array(loss_curve).tobytes()
        for key in PARAM_KEYS:
            assert model.params_[key].tobytes() == params[key].tobytes(), key

    @pytest.mark.parametrize("dropout_keep", [1.0, 0.5])
    def test_fit_matches_at_a_width_where_blas_blocks(self, dropout_keep):
        # 40 users in batches of 16 leave a short last batch; at 3,000 artists
        # and hidden 64 every product is large enough for BLAS to block it
        ds = random_dataset(np.random.default_rng(5), num_users=40, num_artists=3000)
        kwargs = dict(latent_dim=16, hidden_dim=64, beta_max=0.3, anneal_steps=3,
                      epochs=2, batch_size=16, learning_rate=0.4,
                      dropout_keep=dropout_keep, init_seed=5)
        model = MultiVaeRecommender(**kwargs).fit(ds)
        params, loss_curve = reference_fit(ds, **kwargs)
        assert np.array(model.loss_curve_).tobytes() == np.array(loss_curve).tobytes()
        for key in PARAM_KEYS:
            assert model.params_[key].tobytes() == params[key].tobytes(), key


class TestFitMemory:
    """``fit`` holds its parameters, one n x h gradient and two batch x n buffers, no more."""

    @pytest.mark.parametrize("dropout_keep", [1.0, 0.5])
    def test_peak_is_the_state_fit_allocates_once(self, dropout_keep):
        n, h, k, batch = 4000, 16, 4, 32
        ds = random_dataset(np.random.default_rng(17), num_users=50, num_artists=n)
        kwargs = dict(latent_dim=k, hidden_dim=h, epochs=2, batch_size=batch,
                      dropout_keep=dropout_keep, init_seed=0)
        num_params = 2 * n * h + 3 * h * k + n + 2 * h + 2 * k
        # the logits and scratch rows, with or without dropout; the slack is
        # half a batch x n float64 array, so one more such array made per step
        # exceeds the bound, and it holds the batch's non-zeros
        rows = 8 * 2 * batch * n
        bound = 8 * (num_params + n * h) + rows + 4 * batch * n

        def peak(fit):
            tracemalloc.start()
            try:
                fit()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: MultiVaeRecommender(**kwargs).fit(ds)) <= bound
        # the allocating step this replaced does not fit the bound
        assert peak(lambda: reference_fit(ds, beta_max=0.2, anneal_steps=500,
                                          learning_rate=0.5, **kwargs)) > bound


class TestSoftmaxRowBlocks:
    """``fit``'s softmax runs a few rows at a time in one scratch block."""

    @pytest.mark.parametrize("dropout_keep", [1.0, 0.5])
    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_fit_matches_the_reference_when_the_batch_splits(self, monkeypatch, dropout_keep,
                                                              block_rows):
        # 11 users in batches of 8: a full batch splits into blocks of 3, 3
        # and a remainder of 2 (or into single rows), the short last batch of
        # 3 into one block (or three)
        ds = random_dataset(np.random.default_rng(8), num_users=11, num_artists=40)
        monkeypatch.setattr(multivae, "_BLOCK_ENTRIES", block_rows * ds.num_artists)
        assert multivae._block_rows(8, ds.num_artists) == block_rows
        kwargs = dict(latent_dim=3, hidden_dim=6, beta_max=0.3, anneal_steps=2,
                      epochs=3, batch_size=8, learning_rate=0.4,
                      dropout_keep=dropout_keep, init_seed=8)
        model = MultiVaeRecommender(**kwargs).fit(ds)
        params, loss_curve = reference_fit(ds, **kwargs)
        assert np.array(model.loss_curve_).tobytes() == np.array(loss_curve).tobytes()
        for key in PARAM_KEYS:
            assert model.params_[key].tobytes() == params[key].tobytes(), key

    @pytest.mark.parametrize("dropout_keep", [1.0, 0.5])
    def test_peak_is_one_batch_buffer_beside_the_gradient(self, monkeypatch, dropout_keep):
        n, h, k, batch = 6000, 16, 4, 32
        # 48 users: a full batch and a short one, with sparse rows
        ds = generate_synthetic(SyntheticConfig(48, n, 1.0, (50, 300)), seed=3)
        monkeypatch.setattr(multivae, "_BLOCK_ENTRIES", n)  # a block of one row
        kwargs = dict(latent_dim=k, hidden_dim=h, epochs=2, batch_size=batch,
                      dropout_keep=dropout_keep, init_seed=0)
        num_params = 2 * n * h + 3 * h * k + n + 2 * h + 2 * k
        # the parameters, the n x h gradient, the batch x n buffer and the
        # one-row block; the slack, a quarter of a batch x n float64 array,
        # holds the batch's non-zeros and the small activations, so a second
        # batch x n array made per step exceeds the bound
        bound = 8 * (num_params + n * h + (batch + 1) * n) + 2 * batch * n

        def peak(fit):
            tracemalloc.start()
            try:
                fit()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: MultiVaeRecommender(**kwargs).fit(ds)) <= bound
        assert peak(lambda: reference_fit(ds, beta_max=0.2, anneal_steps=500,
                                          learning_rate=0.5, **kwargs)) > bound


class TestScoring:
    def fitted(self):
        rng = np.random.default_rng(16)
        counts = np.zeros((15, 10), dtype=np.int64)
        for u in range(15):
            counts[u, rng.choice(10, size=3, replace=False)] = rng.integers(1, 4, 3)
        ds = make_dataset(counts)
        model = MultiVaeRecommender(latent_dim=3, hidden_dim=6, epochs=4,
                                    batch_size=4, init_seed=2).fit(ds)
        return ds, model

    def test_repeat_scoring_identical(self):
        _, model = self.fitted()
        assert np.array_equal(model.score_user(3), model.score_user(3))

    def test_softmax_of_scores_sums_to_one(self):
        _, model = self.fitted()
        scores = model.score_user(0)
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        assert probs.sum() == approx(1.0, rel=1e-12)

    def test_constant_logit_shift_preserves_ranking(self):
        _, model = self.fitted()
        before = np.argsort(-model.score_user(5), kind="stable")
        model.params_["b_out"] = model.params_["b_out"] + 3.7
        after = np.argsort(-model.score_user(5), kind="stable")
        assert np.array_equal(before, after)

    def test_overfit_single_user_ranks_seen_items_first(self):
        counts = np.zeros((1, 8), dtype=np.int64)
        counts[0, [2, 5]] = 1
        ds = make_dataset(counts)
        model = MultiVaeRecommender(latent_dim=2, hidden_dim=6, beta_max=0.0,
                                    epochs=400, batch_size=1, learning_rate=0.5,
                                    dropout_keep=1.0, init_seed=3).fit(ds)
        scores = model.score_user(0)
        seen = scores[[2, 5]].min()
        unseen = np.delete(scores, [2, 5]).max()
        assert seen > unseen
