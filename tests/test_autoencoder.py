import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkfs.autoencoder import (
    _ADAM_BLOCK,
    AeArchitecture,
    AeHyperparams,
    _batch_slices,
    _forward_buffers,
    _forward_cached,
    _update_running_stats,
    encode,
    gradient_check,
    init_model,
    max_relative_error,
    numerical_gradients,
    parameter_gradients,
    train,
    weight_penalty,
)
from lkfs.dataio import ExpressionMatrix, generate_synthetic, minmax_scale
from lkfs.errors import ConfigError, DataValidationError, NumericalError

TINY = AeArchitecture(encoder_layers=(6, 4, 2), decoder_layers=(2, 4, 6), latent_dim=2)


def tiny_batch(seed=0, rows=4):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.95, size=(rows, 6))


def as_matrix(values, first_row=0):
    ids = tuple(f"s{first_row + i}" for i in range(values.shape[0]))
    return ExpressionMatrix(values, ids, tuple(f"g{j}" for j in range(values.shape[1])))


class TestArchitecture:
    def test_default_sizes(self):
        arch = AeArchitecture.default(8820)
        assert arch.encoder_layers == (8820, 200, 100, 50)
        assert arch.decoder_layers == (50, 100, 200, 8820)
        assert arch.latent_dim == 50

    def test_inconsistent_latent_rejected(self):
        with pytest.raises(ConfigError):
            AeArchitecture(encoder_layers=(6, 4, 3), decoder_layers=(2, 4, 6), latent_dim=2)

    def test_decoder_must_close_the_loop(self):
        with pytest.raises(ConfigError):
            AeArchitecture(encoder_layers=(6, 4, 2), decoder_layers=(2, 4, 5), latent_dim=2)


class TestInit:
    def test_same_seed_identical(self):
        a = init_model(TINY, seed=3)
        b = init_model(TINY, seed=3)
        for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_first_encoder_weight_shape(self):
        model = init_model(AeArchitecture.default(100), seed=0)
        assert model.encoder[0].weights.shape == (200, 100)

    def test_biases_zero_and_bn_identity(self):
        model = init_model(TINY, seed=1)
        for layer in model.layers():
            np.testing.assert_array_equal(layer.bias, 0.0)
            if layer.batch_norm is not None:
                np.testing.assert_array_equal(layer.batch_norm.gamma, 1.0)
                np.testing.assert_array_equal(layer.batch_norm.shift, 0.0)

    def test_hidden_layers_have_bn_ends_do_not(self):
        model = init_model(TINY, seed=1)
        assert model.encoder[0].batch_norm is not None
        assert model.encoder[-1].batch_norm is None
        assert model.decoder[0].batch_norm is not None
        assert model.decoder[-1].batch_norm is None
        assert model.encoder[-1].activation == "identity"
        assert model.decoder[-1].activation == "sigmoid"


class TestForward:
    """The train-mode pass of training and the inference-mode pass of ``encode``."""

    def test_shapes(self):
        model = init_model(TINY, seed=0)
        caches, rec = _forward_cached(model, tiny_batch(), _forward_buffers(model.layers(), 4))
        assert caches[len(model.encoder) - 1]["out"].shape == (4, 2) and rec.shape == (4, 6)

    def test_single_sample_inference(self):
        model = init_model(TINY, seed=0)
        z = encode(model, as_matrix(tiny_batch(rows=1))).z_values
        assert z.shape == (1, 2) and np.isfinite(z).all()

    def test_untrained_outputs_finite(self):
        model = init_model(TINY, seed=4)
        assert np.isfinite(encode(model, as_matrix(tiny_batch(seed=5))).z_values).all()
        buffers = _forward_buffers(model.layers(), 4)
        assert np.isfinite(_forward_cached(model, tiny_batch(seed=5), buffers)[1]).all()

    def test_train_mode_needs_two_rows(self):
        # batch norm needs per-batch statistics: no training batch has one row
        with pytest.raises(ConfigError):
            AeHyperparams(batch_size=1)
        for n, batch_size in [(9, 4), (5, 2), (2, 2), (17, 8), (3, 2)]:
            order = np.arange(n)
            batches = _batch_slices(n, batch_size, order)
            assert min(b.size for b in batches) >= 2
            np.testing.assert_array_equal(np.concatenate(batches), order)

    def test_inference_batch_equals_per_sample(self):
        # running statistics make inference independent of batch composition;
        # a one-row product may round its last bit differently from a batched one
        X, _ = generate_synthetic(n=24, d=6, informative=2, separation=3.0, seed=0)
        model = train(minmax_scale(X), TINY, AeHyperparams(epochs=2, batch_size=8), seed=2)
        batch = tiny_batch(seed=9, rows=5)
        z_all = encode(model, as_matrix(batch)).z_values
        z_rows = [encode(model, as_matrix(batch[i : i + 1], i)).z_values for i in range(5)]
        np.testing.assert_allclose(z_all, np.vstack(z_rows), rtol=1e-12, atol=1e-14)


def loss_mse(x, x_reconstructed):
    """Mean over samples of the squared Euclidean reconstruction error."""
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(x_reconstructed, dtype=np.float64)
    if x.shape != r.shape:
        raise DataValidationError(f"shape mismatch: {x.shape} vs {r.shape}")
    diff = x - r
    return float((diff * diff).sum() / x.shape[0])


class TestLosses:
    def test_identity_reconstruction_is_zero(self):
        x = tiny_batch()
        assert loss_mse(x, x) == 0.0

    def test_hand_evaluated_case(self):
        assert loss_mse(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])) == 2.0

    def test_symmetric(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        assert loss_mse(a, b) == loss_mse(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(DataValidationError):
            loss_mse(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_zero_weights_zero_penalty(self):
        model = init_model(TINY, seed=0)
        for layer in model.layers():
            layer.weights[:] = 0.0
        scratch = np.empty(max(w.size for w in model.weight_matrices()))
        assert weight_penalty(model, scratch) == 0.0


class TestGradients:
    def test_matches_finite_differences_beta_zero(self):
        model = init_model(TINY, seed=0)
        assert gradient_check(model, tiny_batch(), tolerance=1e-4)

    def test_matches_finite_differences_with_regularization(self):
        model = init_model(TINY, seed=1)
        assert gradient_check(model, tiny_batch(seed=2), tolerance=1e-4, beta_l2=1e-3)

    def test_corrupted_gradient_detected(self):
        model = init_model(TINY, seed=0)
        batch = tiny_batch()
        analytic = parameter_gradients(model, batch, 0.0)
        analytic[0][0, 0] += 0.05
        numeric = numerical_gradients(model, batch, 0.0)
        assert max_relative_error(analytic, numeric) > 1e-4

    def test_gradients_after_some_training(self):
        # check at a non-initial parameter point as well
        X, _ = generate_synthetic(n=24, d=6, informative=2, separation=3.0, seed=0)
        Xs = minmax_scale(X)
        model = train(Xs, TINY, AeHyperparams(epochs=3, batch_size=8), seed=0)
        assert gradient_check(model, Xs.values[:4], tolerance=1e-4, beta_l2=1e-4)


@pytest.fixture(scope="module")
def trained_pair():
    X, _ = generate_synthetic(n=200, d=100, informative=10, separation=4.0, seed=1)
    Xs = minmax_scale(X)
    arch = AeArchitecture.default(100, hidden=(32, 16), latent_dim=8)
    hp = AeHyperparams(epochs=30, batch_size=64)
    return Xs, arch, hp, train(Xs, arch, hp, seed=5)


class TestTrain:
    def test_epochs_zero_rejected(self):
        with pytest.raises(ConfigError):
            AeHyperparams(epochs=0)

    def test_loss_decreases_on_synthetic(self, trained_pair):
        _, _, _, model = trained_pair
        history = model.loss_history
        assert len(history) == 30
        assert all(np.isfinite(history))
        assert history[-1] < history[0]

    def test_deterministic_given_seed(self):
        X, _ = generate_synthetic(n=40, d=12, informative=3, separation=3.0, seed=2)
        Xs = minmax_scale(X)
        arch = AeArchitecture.default(12, hidden=(8,), latent_dim=4)
        hp = AeHyperparams(epochs=4, batch_size=10)
        h1 = train(Xs, arch, hp, seed=9).loss_history
        h2 = train(Xs, arch, hp, seed=9).loss_history
        assert h1 == h2

    def test_needs_enough_samples(self):
        X, _ = generate_synthetic(n=10, d=6, informative=2, separation=2.0, seed=0)
        with pytest.raises(DataValidationError):
            train(minmax_scale(X), TINY, AeHyperparams(epochs=1, batch_size=64), seed=0)

    def test_non_finite_loss_raises(self):
        # values near 1e200 overflow the squared reconstruction error
        values = 1e200 * (1.0 + np.arange(24.0).reshape(8, 3) / 10.0)
        arch = AeArchitecture(encoder_layers=(3, 2), decoder_layers=(2, 3), latent_dim=2)
        hp = AeHyperparams(epochs=1, batch_size=4)
        with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match="^non-finite loss at epoch 0, batch 0$"
        ):
            train(as_matrix(values), arch, hp, seed=0)

    def test_large_beta_shrinks_weights(self):
        X, _ = generate_synthetic(n=60, d=10, informative=2, separation=3.0, seed=3)
        Xs = minmax_scale(X)
        arch = AeArchitecture.default(10, hidden=(8,), latent_dim=4)
        free = train(Xs, arch, AeHyperparams(epochs=25, batch_size=20, beta_l2=0.0), seed=4)
        tight = train(Xs, arch, AeHyperparams(epochs=25, batch_size=20, beta_l2=1e3), seed=4)
        norm = lambda m: sum(float(np.linalg.norm(w)) for w in m.weight_matrices())
        assert norm(tight) < norm(free)


class TestEncode:
    def test_shape(self, trained_pair):
        Xs, arch, _, model = trained_pair
        latent = encode(model, Xs)
        assert latent.z_values.shape == (200, 8)

    def test_default_architecture_latent_width(self):
        X, _ = generate_synthetic(n=20, d=60, informative=4, separation=3.0, seed=0)
        model = init_model(AeArchitecture.default(60), seed=0)
        latent = encode(model, minmax_scale(X))
        assert latent.z_values.shape == (20, 50)

    def test_identical_rows_identical_latents(self):
        model = init_model(TINY, seed=0)
        values = np.vstack([tiny_batch(seed=1, rows=2)] * 2)
        X = ExpressionMatrix(values, tuple(f"s{i}" for i in range(4)), tuple(f"g{j}" for j in range(6)))
        latent = encode(model, X)
        np.testing.assert_array_equal(latent.z_values[0], latent.z_values[2])

    def test_row_order_invariance(self):
        model = init_model(TINY, seed=0)
        values = tiny_batch(seed=3, rows=5)
        ids = tuple(f"s{i}" for i in range(5))
        names = tuple(f"g{j}" for j in range(6))
        fwd = encode(model, ExpressionMatrix(values, ids, names))
        rev = encode(model, ExpressionMatrix(values[::-1], ids[::-1], names))
        np.testing.assert_array_equal(fwd.z_values, rev.z_values[::-1])


def _reference_forward(model, batch):
    """The train-mode forward pass before the reused layer buffers: a fresh
    array for every intermediate, numpy's own mean and variance."""
    caches, h = [], batch
    for layer in model.layers():
        affine = h @ layer.weights.T + layer.bias
        cache = {"h_in": h, "affine": affine}
        bn = layer.batch_norm
        if bn is not None:
            mu, var = affine.mean(axis=0), affine.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + 1e-5)
            xhat = (affine - mu) * inv_std
            pre = bn.gamma * xhat + bn.shift
            cache.update(xhat=xhat, inv_std=inv_std, batch_mean=mu, batch_var=var)
        else:
            pre = affine
        if layer.activation == "relu":
            h = np.maximum(pre, 0.0)
        elif layer.activation == "sigmoid":
            h = 1.0 / (1.0 + np.exp(-pre))
        else:
            h = pre
        cache.update(pre=pre, out=h)
        caches.append(cache)
    return caches, h


def _reference_gradients(model, batch, beta_l2):
    """The backward pass before the reused workspace: its own forward pass and
    a fresh array for every intermediate and every gradient."""
    caches, recon = _reference_forward(model, batch)
    m = batch.shape[0]
    grads = {}
    d_out = 2.0 * (recon - batch) / m
    layers = list(model.layers())
    for idx in range(len(layers) - 1, -1, -1):
        layer, cache = layers[idx], caches[idx]
        if layer.activation == "relu":
            d_pre = d_out * (cache["pre"] > 0)
        elif layer.activation == "sigmoid":
            d_pre = d_out * cache["out"] * (1.0 - cache["out"])
        else:
            d_pre = d_out
        bn = layer.batch_norm
        if bn is not None:
            xhat, inv_std = cache["xhat"], cache["inv_std"]
            d_gamma = (d_pre * xhat).sum(axis=0)
            d_shift = d_pre.sum(axis=0)
            d_xhat = d_pre * bn.gamma
            d_affine = (inv_std / m) * (
                m * d_xhat - d_xhat.sum(axis=0) - xhat * (d_xhat * xhat).sum(axis=0)
            )
        else:
            d_affine = d_pre
        layer_grads = [d_affine.T @ cache["h_in"] + 2.0 * beta_l2 * layer.weights, d_affine.sum(axis=0)]
        if bn is not None:
            layer_grads.extend([d_gamma, d_shift])
        grads[idx] = layer_grads
        d_out = d_affine @ layer.weights
    return [g for idx in range(len(layers)) for g in grads[idx]]


def _reference_train(X, arch, hp, seed):
    """Training before the single pass: two forward passes per batch and an
    Adam step (learning rate 1e-3, betas 0.9 and 0.999, epsilon 1e-8) per
    parameter array with fresh temporaries."""
    model = init_model(arch, seed)
    shuffle_rng = np.random.default_rng([seed, 1])
    params = [array for _, array in model.parameters()]
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]
    step = 0
    for _ in range(hp.epochs):
        order = shuffle_rng.permutation(X.n)
        epoch_loss = 0.0
        for rows in _batch_slices(X.n, hp.batch_size, order):
            batch = X.values[rows]
            caches, recon = _reference_forward(model, batch)
            penalty = float(sum((w * w).sum() for w in model.weight_matrices()))
            epoch_loss += (loss_mse(batch, recon) + hp.beta_l2 * penalty) * batch.shape[0]
            grads = _reference_gradients(model, batch, hp.beta_l2)
            step += 1
            bias1 = 1.0 - 0.9**step
            bias2 = 1.0 - 0.999**step
            for p, g, m_state, v_state in zip(params, grads, adam_m, adam_v):
                m_state *= 0.9
                m_state += (1 - 0.9) * g
                v_state *= 0.999
                v_state += (1 - 0.999) * g * g
                p -= 1e-3 * (m_state / bias1) / (np.sqrt(v_state / bias2) + 1e-8)
            _update_running_stats(model, caches, batch.shape[0])
        model.loss_history.append(epoch_loss / X.n)
    return model


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_training(X, arch, hp, seed):
    got, want = train(X, arch, hp, seed), _reference_train(X, arch, hp, seed)
    for (name, a), (_, b) in zip(got.parameters(), want.parameters()):
        _assert_same_bits(a, b)
    for layer, ref in zip(got.layers(), want.layers()):
        if layer.batch_norm is not None:
            _assert_same_bits(layer.batch_norm.running_mean, ref.batch_norm.running_mean)
            _assert_same_bits(layer.batch_norm.running_var, ref.batch_norm.running_var)
    _assert_same_bits(got.loss_history, want.loss_history)
    _assert_same_bits(encode(got, X).z_values, encode(want, X).z_values)
    batch = X.values[: hp.batch_size]
    for a, b in zip(
        parameter_gradients(got, batch, hp.beta_l2), _reference_gradients(want, batch, hp.beta_l2)
    ):
        _assert_same_bits(a, b)


def _uniform_matrix(n, d, seed):
    values = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, d))
    return ExpressionMatrix(values, tuple(f"s{i}" for i in range(n)), tuple(f"g{j}" for j in range(d)))


@st.composite
def training_cases(draw):
    d = draw(st.integers(2, 12))
    hidden = tuple(draw(st.lists(st.integers(1, 9), max_size=2)))
    arch = AeArchitecture.default(d, hidden=hidden, latent_dim=draw(st.integers(1, 4)))
    batch_size = draw(st.integers(2, 8))
    # a tail of one row joins the previous batch
    tail = draw(st.one_of(st.just(1), st.integers(0, batch_size - 1)))
    n = batch_size * draw(st.integers(1, 4)) + tail
    hp = AeHyperparams(
        epochs=draw(st.integers(1, 4)),
        batch_size=batch_size,
        beta_l2=draw(st.sampled_from([0.0, 1e-4, 0.5])),
    )
    seed = draw(st.integers(0, 2**16))
    return _uniform_matrix(n, d, seed), arch, hp, seed


class TestTrainingBitIdentity:
    """One forward pass into reused layer buffers, the reused workspace and
    the blocked Adam step give the bits of the two-pass, per-array loop."""

    @settings(max_examples=60, deadline=None)
    @given(training_cases())
    def test_matches_two_pass_loop(self, case):
        _assert_same_training(*case)

    def test_matches_two_pass_loop_on_a_wider_network(self):
        # several BLAS-sized layers and a trailing single row (65 = 2 * 32 + 1)
        arch = AeArchitecture.default(60, hidden=(32, 16), latent_dim=8)
        hp = AeHyperparams(epochs=3, batch_size=32)
        _assert_same_training(_uniform_matrix(65, 60, 11), arch, hp, seed=11)

    def test_buffered_pass_writes_the_fresh_bits_into_its_buffers(self):
        model = init_model(AeArchitecture.default(12, hidden=(9, 5), latent_dim=3), seed=4)
        batch = _uniform_matrix(9, 12, 4).values
        buffers = _forward_buffers(model.layers(), rows=10)
        got, _ = _forward_cached(model, batch, buffers=buffers)
        want, _ = _reference_forward(model, batch)
        for cache, ref, layer_buffers in zip(got, want, buffers):
            # the cache holds what backpropagation and the running statistics
            # read; the affine map and the pre-activation were overwritten
            assert set(cache) == set(ref) - {"affine", "pre"}
            for key in cache:
                _assert_same_bits(cache[key], ref[key])
            assert len(layer_buffers) <= 2
            for name, flat in layer_buffers.items():
                assert np.shares_memory(cache[name], flat)

    def test_parameter_gradients_are_fresh_arrays(self):
        X, _ = generate_synthetic(n=24, d=6, informative=2, separation=3.0, seed=0)
        model = train(minmax_scale(X), TINY, AeHyperparams(epochs=2, batch_size=8), seed=0)
        batch = tiny_batch()
        first = parameter_gradients(model, batch, 1e-3)
        second = parameter_gradients(model, batch, 1e-3)
        params = [array for _, array in model.parameters()]
        for a, b in zip(first, second):
            _assert_same_bits(a, b)
        for i, a in enumerate(first):
            assert not any(np.shares_memory(a, other) for other in second + params)
            assert not any(np.shares_memory(a, other) for other in first[i + 1 :])


class TestTrainingMemory:
    def test_one_epoch_holds_the_arrays_it_needs_and_one_scratch(self):
        n, d = 160, 500
        X = _uniform_matrix(n, d, 0)
        arch = AeArchitecture.default(d)
        hp = AeHyperparams(epochs=1)
        model = init_model(arch, 0)
        P = sum(array.size for _, array in model.parameters())
        largest = max(w.size for w in model.weight_matrices())
        layer_params = [
            layer.weights.size + layer.bias.size + (2 * layer.bias.size if layer.batch_norm else 0)
            for layer in model.layers()
        ]
        rows = hp.batch_size + 1  # a trailing singleton joins the last batch
        width = max(arch.encoder_layers)
        # parameters and both Adam moments; the gradients of one layer at a time
        moments = 3 * 8 * P + 8 * max(layer_params)
        scratch = 8 * max(largest, 2 * _ADAM_BLOCK)
        forward = sum(
            flat.nbytes for layer in _forward_buffers(model.layers(), rows) for flat in layer.values()
        )
        workspace = 3 * 8 * rows * width + rows * width + 2 * 8 * width  # deltas, rows, mask, sums
        # one gathered batch; per-batch vectors
        slack = 8 * rows * d + 256 * 1024
        tracemalloc.start()
        try:
            train(X, arch, hp, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= moments + scratch + forward + workspace + slack
