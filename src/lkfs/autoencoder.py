"""Fully connected autoencoder trained with mini-batch Adam.

Hidden layers are affine -> batch norm -> ReLU; the latent layer is affine with
identity activation and the reconstruction layer is affine -> sigmoid (inputs
are expected in [0, 1]). Backpropagation is implemented directly on numpy
arrays so every parameter gradient can be verified against central finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .dataio import ExpressionMatrix
from .errors import ConfigError, DataValidationError, NumericalError

_BN_EPS = 1e-5
_ADAM_BLOCK = 1 << 15  # entries per block of the Adam step (256 KB of float64)


@dataclass(frozen=True)
class AeArchitecture:
    """Layer sizes for the encoder and decoder, latent width included."""

    encoder_layers: tuple[int, ...]
    decoder_layers: tuple[int, ...]
    latent_dim: int

    def __post_init__(self):
        object.__setattr__(self, "encoder_layers", tuple(int(s) for s in self.encoder_layers))
        object.__setattr__(self, "decoder_layers", tuple(int(s) for s in self.decoder_layers))
        enc, dec = self.encoder_layers, self.decoder_layers
        if len(enc) < 2 or len(dec) < 2:
            raise ConfigError("encoder and decoder need at least two layer sizes each")
        if any(s < 1 for s in enc + dec):
            raise ConfigError("all layer sizes must be >= 1")
        if enc[-1] != self.latent_dim or dec[0] != self.latent_dim:
            raise ConfigError("latent_dim must equal the encoder output and decoder input size")
        if dec[-1] != enc[0]:
            raise ConfigError("decoder output size must equal the input dimension")

    @classmethod
    def default(cls, d: int, hidden: tuple[int, ...] = (200, 100), latent_dim: int = 50) -> "AeArchitecture":
        return cls(
            encoder_layers=(d, *hidden, latent_dim),
            decoder_layers=(latent_dim, *reversed(hidden), d),
            latent_dim=latent_dim,
        )

    @property
    def input_dim(self) -> int:
        return self.encoder_layers[0]


@dataclass(frozen=True)
class AeHyperparams:
    learning_rate: float = 1e-3
    beta_l2: float = 1e-4
    epochs: int = 200
    batch_size: int = 64
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.beta_l2 < 0:
            raise ConfigError("beta_l2 must be >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (batch norm needs per-batch statistics)")
        if not 0 < self.adam_beta1 < 1 or not 0 < self.adam_beta2 < 1:
            raise ConfigError("adam betas must lie in (0, 1)")


@dataclass
class BatchNormState:
    gamma: np.ndarray
    shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9


@dataclass
class DenseLayer:
    weights: np.ndarray  # (n_out, n_in)
    bias: np.ndarray  # (n_out,)
    activation: str  # "relu" | "identity" | "sigmoid"
    batch_norm: BatchNormState | None = None


@dataclass
class AeModel:
    arch: AeArchitecture
    encoder: list[DenseLayer]
    decoder: list[DenseLayer]
    loss_history: list[float] = field(default_factory=list)

    def layers(self) -> Iterator[DenseLayer]:
        yield from self.encoder
        yield from self.decoder

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """All trainable arrays in a fixed order (weights, biases, BN scale/shift)."""
        out = []
        for idx, layer in enumerate(self.layers()):
            out.append((f"layer{idx}.weights", layer.weights))
            out.append((f"layer{idx}.bias", layer.bias))
            if layer.batch_norm is not None:
                out.append((f"layer{idx}.gamma", layer.batch_norm.gamma))
                out.append((f"layer{idx}.shift", layer.batch_norm.shift))
        return out

    def weight_matrices(self) -> list[np.ndarray]:
        return [layer.weights for layer in self.layers()]


def _build_stack(sizes: tuple[int, ...], final_activation: str, rng: np.random.Generator) -> list[DenseLayer]:
    layers = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        scale = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-scale, scale, size=(fan_out, fan_in))
        last = i == len(sizes) - 2
        layers.append(
            DenseLayer(
                weights=weights,
                bias=np.zeros(fan_out),
                activation=final_activation if last else "relu",
                batch_norm=None
                if last
                else BatchNormState(
                    gamma=np.ones(fan_out),
                    shift=np.zeros(fan_out),
                    running_mean=np.zeros(fan_out),
                    running_var=np.ones(fan_out),
                ),
            )
        )
    return layers


def init_model(arch: AeArchitecture, seed: int) -> AeModel:
    """Glorot-uniform weights, zero biases, identity batch-norm state."""
    rng = np.random.default_rng(seed)
    return AeModel(
        arch=arch,
        encoder=_build_stack(arch.encoder_layers, "identity", rng),
        decoder=_build_stack(arch.decoder_layers, "sigmoid", rng),
    )


def _activate(pre: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    if kind == "relu":
        return np.maximum(pre, 0.0, out=out)
    if kind == "sigmoid":  # 1 / (1 + exp(-pre))
        out = np.negative(pre, out=out)
        np.exp(out, out=out)
        np.add(1.0, out, out=out)
        return np.divide(1.0, out, out=out)
    return pre


def _forward_buffers(model: AeModel, rows: int) -> list[dict[str, np.ndarray]]:
    """Per layer, flat arrays of ``rows`` rows for what a train-mode pass
    writes: the affine map, with batch norm the centred values (then xhat) and
    the pre-activation, and the output of a non-identity activation."""
    buffers = []
    for layer in model.layers():
        names = ["affine"]
        if layer.batch_norm is not None:
            names += ["xhat", "pre"]
        if layer.activation != "identity":
            names.append("out")
        buffers.append({name: np.empty(rows * layer.weights.shape[0]) for name in names})
    return buffers


def _layer_forward(
    layer: DenseLayer, h_in: np.ndarray, training: bool, buffers: dict | None = None
) -> dict:
    """One layer's pass and the cache backpropagation reads. With ``buffers``
    (one layer of ``_forward_buffers``) the (m, width) results are written
    into them instead of into fresh arrays, with the same bits."""
    shape = (h_in.shape[0], layer.weights.shape[0])

    def into(name: str) -> np.ndarray | None:
        flat = None if buffers is None else buffers.get(name)
        return None if flat is None else _view(flat, shape)

    affine = np.matmul(h_in, layer.weights.T, out=into("affine"))
    affine += layer.bias
    bn = layer.batch_norm
    cache: dict = {"h_in": h_in, "affine": affine}
    if bn is not None:
        if training:
            # the steps of affine.mean(axis=0) and affine.var(axis=0)
            m = shape[0]
            mu = np.add.reduce(affine, axis=0) / m
            centred = np.subtract(affine, mu, out=into("xhat"))
            var = np.add.reduce(np.multiply(centred, centred, out=into("pre")), axis=0) / m
        else:
            mu, var = bn.running_mean, bn.running_var
            centred = affine - mu
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        xhat = np.multiply(centred, inv_std, out=centred)
        pre = np.multiply(bn.gamma, xhat, out=into("pre"))
        pre += bn.shift
        cache.update(xhat=xhat, inv_std=inv_std, batch_mean=mu, batch_var=var)
    else:
        pre = affine
    out = _activate(pre, layer.activation, into("out"))
    cache.update(pre=pre, out=out)
    return cache


def _forward_cached(
    model: AeModel, batch: np.ndarray, training: bool, buffers: list[dict] | None = None
) -> tuple[list[dict], np.ndarray, np.ndarray]:
    h = batch
    caches = []
    z = None
    for i, layer in enumerate(model.layers()):
        cache = _layer_forward(layer, h, training, None if buffers is None else buffers[i])
        caches.append(cache)
        h = cache["out"]
        if i == len(model.encoder) - 1:
            z = h
    return caches, z, h


def forward(model: AeModel, batch: np.ndarray, mode: str = "inference") -> tuple[np.ndarray, np.ndarray]:
    """Full pass returning (latent, reconstruction).

    Train mode normalizes with per-batch statistics and updates the running
    statistics; inference mode uses the stored running statistics.
    """
    if mode not in ("train", "inference"):
        raise ConfigError(f"mode must be 'train' or 'inference', got {mode!r}")
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.arch.input_dim:
        raise DataValidationError(
            f"batch shape {batch.shape} incompatible with input dimension {model.arch.input_dim}"
        )
    training = mode == "train"
    if training and batch.shape[0] < 2:
        raise DataValidationError("train-mode forward needs at least 2 rows")
    caches, z, recon = _forward_cached(model, batch, training)
    if training:
        _update_running_stats(model, caches, batch.shape[0])
    return z, recon


def _update_running_stats(model: AeModel, caches: list[dict], m: int) -> None:
    for layer, cache in zip(model.layers(), caches):
        bn = layer.batch_norm
        if bn is None:
            continue
        unbiased = cache["batch_var"] * (m / (m - 1)) if m > 1 else cache["batch_var"]
        bn.running_mean = bn.momentum * bn.running_mean + (1 - bn.momentum) * cache["batch_mean"]
        bn.running_var = bn.momentum * bn.running_var + (1 - bn.momentum) * unbiased


def encode(model: AeModel, X: ExpressionMatrix) -> "LatentRepresentation":
    """Inference-mode pass through the encoder only."""
    values = X.values
    if values.shape[1] != model.arch.input_dim:
        raise DataValidationError(
            f"matrix has {values.shape[1]} features, model expects {model.arch.input_dim}"
        )
    h = values
    for layer in model.encoder:
        h = _layer_forward(layer, h, training=False)["out"]
    return LatentRepresentation(z_values=h, sample_ids=X.sample_ids)


@dataclass(frozen=True)
class LatentRepresentation:
    z_values: np.ndarray
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        if self.z_values.shape[0] != len(self.sample_ids):
            raise DataValidationError("latent rows must align one-to-one with sample ids")


def loss_mse(x: np.ndarray, x_reconstructed: np.ndarray) -> float:
    """Mean over samples of the squared Euclidean reconstruction error."""
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(x_reconstructed, dtype=np.float64)
    if x.shape != r.shape:
        raise DataValidationError(f"shape mismatch: {x.shape} vs {r.shape}")
    diff = x - r
    return float((diff * diff).sum() / x.shape[0])


def weight_penalty(model: AeModel, scratch: np.ndarray | None = None) -> float:
    """Sum of squared weight entries over encoder and decoder (biases excluded).

    ``scratch``, a flat array at least as large as the largest weight matrix,
    receives the squares instead of a fresh temporary per matrix.
    """
    total = 0
    for w in model.weight_matrices():
        squares = None if scratch is None else _view(scratch, w.shape)
        total += np.multiply(w, w, out=squares).sum()
    return float(total)


def _training_loss(model: AeModel, batch: np.ndarray, beta_l2: float) -> float:
    _, _, recon = _forward_cached(model, batch, training=True)
    return loss_mse(batch, recon) + beta_l2 * weight_penalty(model)


def _view(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading entries of a flat buffer as a C-contiguous array of ``shape``."""
    return flat[: math.prod(shape)].reshape(shape)


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive, non-overlapping views of a flat buffer, one per shape."""
    out, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[start : start + size].reshape(shape))
        start += size
    return out


def _flatten_parameters(model: AeModel) -> np.ndarray:
    """Move every trainable array into one flat buffer, in ``model.parameters()``
    order, and leave the model holding reshaped views of it."""
    arrays = [array for _, array in model.parameters()]
    flat = np.concatenate([array.ravel() for array in arrays])
    views = iter(_views(flat, [array.shape for array in arrays]))
    for layer in model.layers():
        layer.weights, layer.bias = next(views), next(views)
        if layer.batch_norm is not None:
            layer.batch_norm.gamma, layer.batch_norm.shift = next(views), next(views)
    return flat


class _Workspace:
    """Gradient arrays and backward scratch for one model, reused across batches.

    The gradients are views of one flat array aligned with
    ``model.parameters()``; the row buffers hold up to ``rows`` rows of the
    widest layer.
    """

    def __init__(self, model: AeModel, rows: int):
        shapes = [array.shape for _, array in model.parameters()]
        self.grad_flat = np.empty(sum(math.prod(shape) for shape in shapes))
        self.grads = _views(self.grad_flat, shapes)
        per_layer = iter(self.grads)
        self.layer_grads = []  # (weights, bias, gamma, shift) per layer, None without BN
        for layer in model.layers():
            d_weights, d_bias = next(per_layer), next(per_layer)
            bn = (next(per_layer), next(per_layer)) if layer.batch_norm is not None else (None, None)
            self.layer_grads.append((d_weights, d_bias, *bn))
        width = max(model.arch.encoder_layers + model.arch.decoder_layers)
        self.deltas = (np.empty(rows * width), np.empty(rows * width))
        self.rows_tmp = np.empty(rows * width)
        self.mask = np.empty(rows * width, dtype=bool)
        self.col_sums = np.empty((2, width))
        self.weights_tmp = np.empty(max(w.size for w in model.weight_matrices()))


def _backward(
    model: AeModel,
    caches: list[dict],
    batch: np.ndarray,
    recon: np.ndarray,
    beta_l2: float,
    out: _Workspace | None = None,
) -> list[np.ndarray]:
    """Gradients of the regularized loss from the caches of one train-mode pass.

    They are written into the gradient arrays of ``out``, or of a fresh
    workspace, and returned aligned with ``model.parameters()``. The input
    gradient of the first layer is not computed: nothing reads it.
    """
    m = batch.shape[0]
    ws = _Workspace(model, m) if out is None else out
    delta_buf, below_buf = ws.deltas
    d_out = _view(delta_buf, recon.shape)
    np.subtract(recon, batch, out=d_out)
    np.multiply(2.0, d_out, out=d_out)
    np.divide(d_out, m, out=d_out)
    layers = list(model.layers())
    for idx in range(len(layers) - 1, -1, -1):
        layer, cache = layers[idx], caches[idx]
        d_weights, d_bias, d_gamma, d_shift = ws.layer_grads[idx]
        # d_out becomes d_pre, then d_affine, in place
        tmp = _view(ws.rows_tmp, d_out.shape)
        if layer.activation == "relu":
            mask = _view(ws.mask, d_out.shape)
            np.greater(cache["pre"], 0, out=mask)
            np.multiply(d_out, mask, out=d_out)
        elif layer.activation == "sigmoid":
            np.subtract(1.0, cache["out"], out=tmp)
            np.multiply(d_out, cache["out"], out=d_out)
            np.multiply(d_out, tmp, out=d_out)
        bn = layer.batch_norm
        if bn is not None:
            xhat = cache["xhat"]
            col_sum, col_dot = ws.col_sums[:, : d_out.shape[1]]
            np.multiply(d_out, xhat, out=tmp)
            np.sum(tmp, axis=0, out=d_gamma)
            np.sum(d_out, axis=0, out=d_shift)
            np.multiply(d_out, bn.gamma, out=d_out)  # d_xhat
            np.sum(d_out, axis=0, out=col_sum)
            np.multiply(d_out, xhat, out=tmp)
            np.sum(tmp, axis=0, out=col_dot)
            np.multiply(m, d_out, out=d_out)
            np.subtract(d_out, col_sum, out=d_out)
            np.multiply(xhat, col_dot, out=tmp)
            np.subtract(d_out, tmp, out=d_out)
            np.divide(cache["inv_std"], m, out=col_sum)
            np.multiply(col_sum, d_out, out=d_out)
        np.matmul(d_out.T, cache["h_in"], out=d_weights)
        decay = _view(ws.weights_tmp, layer.weights.shape)
        np.multiply(2.0 * beta_l2, layer.weights, out=decay)
        np.add(d_weights, decay, out=d_weights)
        np.sum(d_out, axis=0, out=d_bias)
        if idx > 0:
            d_in = _view(below_buf, (m, layer.weights.shape[1]))
            np.matmul(d_out, layer.weights, out=d_in)
            d_out = d_in
            delta_buf, below_buf = below_buf, delta_buf
    return ws.grads


def parameter_gradients(model: AeModel, batch: np.ndarray, beta_l2: float) -> list[np.ndarray]:
    """Analytic gradients of the regularized loss, aligned with ``model.parameters()``."""
    batch = np.asarray(batch, dtype=np.float64)
    caches, _, recon = _forward_cached(model, batch, training=True)
    return _backward(model, caches, batch, recon, beta_l2)


def numerical_gradients(model: AeModel, batch: np.ndarray, beta_l2: float, step: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of the regularized training loss."""
    batch = np.asarray(batch, dtype=np.float64)
    out = []
    for _, array in model.parameters():
        grad = np.empty_like(array)
        flat = array.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = _training_loss(model, batch, beta_l2)
            flat[i] = orig - step
            lo = _training_loss(model, batch, beta_l2)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        out.append(grad)
    return out


def max_relative_error(analytic: list[np.ndarray], numeric: list[np.ndarray]) -> float:
    """max over entries of |a - n| / max(|a|, |n|, 1)."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def gradient_check(model: AeModel, batch: np.ndarray, tolerance: float, beta_l2: float = 0.0) -> bool:
    """True iff every analytic gradient matches central finite differences."""
    analytic = parameter_gradients(model, batch, beta_l2)
    numeric = numerical_gradients(model, batch, beta_l2)
    return max_relative_error(analytic, numeric) <= tolerance


def _batch_slices(n: int, batch_size: int, order: np.ndarray) -> list[np.ndarray]:
    batches = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    # batch norm needs >= 2 rows; a trailing singleton joins the previous batch
    if len(batches) > 1 and batches[-1].size == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def _adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    adam_m: np.ndarray,
    adam_v: np.ndarray,
    step: int,
    hp: AeHyperparams,
    scratch: np.ndarray,
) -> None:
    """One Adam update of flat ``params`` in place, ``_ADAM_BLOCK`` entries at a
    time so that the operands of every ufunc stay in cache."""
    bias1 = 1.0 - hp.adam_beta1**step
    bias2 = 1.0 - hp.adam_beta2**step
    for start in range(0, params.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        p, g, m_state, v_state = params[block], grads[block], adam_m[block], adam_v[block]
        t1, t2 = scratch[:, : p.size]
        m_state *= hp.adam_beta1
        np.multiply(1 - hp.adam_beta1, g, out=t1)
        m_state += t1
        v_state *= hp.adam_beta2
        np.multiply(1 - hp.adam_beta2, g, out=t1)
        t1 *= g
        v_state += t1
        np.divide(m_state, bias1, out=t1)
        np.multiply(hp.learning_rate, t1, out=t1)
        np.divide(v_state, bias2, out=t2)
        np.sqrt(t2, out=t2)
        t2 += hp.adam_epsilon
        t1 /= t2
        p -= t1


def train(X: ExpressionMatrix, arch: AeArchitecture, hp: AeHyperparams) -> AeModel:
    """Mini-batch Adam over shuffled batches for ``hp.epochs`` passes.

    Deterministic given ``hp.seed`` (initialization and shuffling both derive
    from it); records the mean regularized loss per epoch. Each batch runs one
    forward pass, one backward pass and one Adam step. The trainable arrays of
    the returned model are views of one flat buffer; gradients, Adam moments,
    forward-pass layer outputs and scratch are allocated once per call.
    """
    if arch.input_dim != X.d:
        raise ConfigError(f"architecture input size {arch.input_dim} != matrix width {X.d}")
    if X.n < hp.batch_size:
        raise DataValidationError(f"need n >= batch_size, got n={X.n}, batch_size={hp.batch_size}")
    model = init_model(arch, hp.seed)
    shuffle_rng = np.random.default_rng([hp.seed, 1])
    params = _flatten_parameters(model)
    rows = hp.batch_size + 1  # a trailing singleton joins the last batch
    ws = _Workspace(model, rows)
    buffers = _forward_buffers(model, rows)
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    adam_scratch = np.empty((2, min(_ADAM_BLOCK, params.size)))
    step = 0
    values = X.values
    for epoch in range(hp.epochs):
        order = shuffle_rng.permutation(X.n)
        epoch_loss = 0.0
        for batch_no, rows in enumerate(_batch_slices(X.n, hp.batch_size, order)):
            batch = values[rows]
            m = batch.shape[0]
            caches, _, recon = _forward_cached(model, batch, training=True, buffers=buffers)
            # loss_mse and weight_penalty, squaring into reused scratch
            diff = _view(ws.rows_tmp, batch.shape)
            np.subtract(batch, recon, out=diff)
            np.multiply(diff, diff, out=diff)
            batch_loss = float(diff.sum() / m) + hp.beta_l2 * weight_penalty(model, ws.weights_tmp)
            if not np.isfinite(batch_loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            epoch_loss += batch_loss * m
            _backward(model, caches, batch, recon, hp.beta_l2, out=ws)
            step += 1
            _adam_step(params, ws.grad_flat, adam_m, adam_v, step, hp, adam_scratch)
            _update_running_stats(model, caches, m)
        model.loss_history.append(epoch_loss / X.n)
    return model
