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
from typing import Callable, Iterable, Iterator

import numpy as np

from .dataio import ExpressionMatrix
from .errors import ConfigError, DataValidationError, NumericalError

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9  # weight of the old running statistics per batch
_LEARNING_RATE = 1e-3
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8
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
    beta_l2: float = 1e-4
    epochs: int = 200
    batch_size: int = 64

    def __post_init__(self):
        if self.beta_l2 < 0:
            raise ConfigError("beta_l2 must be >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (batch norm needs per-batch statistics)")


@dataclass
class BatchNormState:
    gamma: np.ndarray
    shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class DenseLayer:
    weights: np.ndarray  # (n_out, n_in)
    bias: np.ndarray  # (n_out,)
    activation: str  # "relu" | "identity" | "sigmoid"
    batch_norm: BatchNormState | None = None


def _layer_parameters(layer: DenseLayer) -> list[np.ndarray]:
    """A layer's trainable arrays: weights, bias and, with batch norm, its scale and shift."""
    bn = layer.batch_norm
    return [layer.weights, layer.bias] + ([bn.gamma, bn.shift] if bn is not None else [])


@dataclass
class AeModel:
    arch: AeArchitecture
    encoder: list[DenseLayer]
    decoder: list[DenseLayer]
    loss_history: list[float] = field(default_factory=list)

    def layers(self) -> Iterator[DenseLayer]:
        yield from self.encoder
        yield from self.decoder

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays in a fixed order (weights, biases, BN scale/shift)."""
        return [array for layer in self.layers() for array in _layer_parameters(layer)]

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


def _activate(pre: np.ndarray, kind: str) -> np.ndarray:
    """The activation of ``kind`` applied to ``pre`` in place."""
    if kind == "relu":
        return np.maximum(pre, 0.0, out=pre)
    if kind == "sigmoid":  # 1 / (1 + exp(-pre))
        np.negative(pre, out=pre)
        np.exp(pre, out=pre)
        np.add(1.0, pre, out=pre)
        return np.divide(1.0, pre, out=pre)
    return pre


def _forward_buffers(layers: Iterable[DenseLayer], rows: int) -> list[dict[str, np.ndarray]]:
    """Per layer, flat arrays of ``rows`` rows for what a pass writes: the
    output, which takes the affine map and every step after it in place, and
    with batch norm the normalized values."""
    buffers = []
    for layer in layers:
        names = ("out", "xhat") if layer.batch_norm is not None else ("out",)
        buffers.append({name: np.empty(rows * layer.weights.shape[0]) for name in names})
    return buffers


def _layer_forward(layer: DenseLayer, h_in: np.ndarray, training: bool, buffers: dict) -> dict:
    """One layer's pass and the cache backpropagation reads. The (m, width)
    results are written into ``buffers``, one layer of ``_forward_buffers``."""
    shape = (h_in.shape[0], layer.weights.shape[0])
    out = np.matmul(h_in, layer.weights.T, out=_view(buffers["out"], shape))
    out += layer.bias
    bn = layer.batch_norm
    cache: dict = {"h_in": h_in}
    if bn is not None:
        # in training, the steps of affine.mean(axis=0) and affine.var(axis=0)
        mu = np.add.reduce(out, axis=0) / shape[0] if training else bn.running_mean
        xhat = np.subtract(out, mu, out=_view(buffers["xhat"], shape))
        if training:  # the squares overwrite the affine map, read in full by now
            var = np.add.reduce(np.multiply(xhat, xhat, out=out), axis=0) / shape[0]
        else:
            var = bn.running_var
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        np.multiply(xhat, inv_std, out=xhat)
        np.multiply(bn.gamma, xhat, out=out)
        out += bn.shift
        cache.update(xhat=xhat, inv_std=inv_std, batch_mean=mu, batch_var=var)
    cache["out"] = _activate(out, layer.activation)
    return cache


def _forward_cached(model: AeModel, batch: np.ndarray, buffers: list) -> tuple[list, np.ndarray]:
    """Train-mode pass, with batch statistics, into ``buffers``: (caches, reconstruction)."""
    h = batch
    caches = []
    for layer, layer_buffers in zip(model.layers(), buffers):
        cache = _layer_forward(layer, h, training=True, buffers=layer_buffers)
        caches.append(cache)
        h = cache["out"]
    return caches, h


def _update_running_stats(model: AeModel, caches: list[dict], m: int) -> None:
    for layer, cache in zip(model.layers(), caches):
        bn = layer.batch_norm
        if bn is None:
            continue
        unbiased = cache["batch_var"] * (m / (m - 1))
        bn.running_mean = _BN_MOMENTUM * bn.running_mean + (1 - _BN_MOMENTUM) * cache["batch_mean"]
        bn.running_var = _BN_MOMENTUM * bn.running_var + (1 - _BN_MOMENTUM) * unbiased


def encode(model: AeModel, X: ExpressionMatrix) -> "LatentRepresentation":
    """Inference-mode pass through the encoder only: batch norm uses the
    running statistics that training stored, so each row's latent code does
    not depend on the other rows."""
    values = X.values
    if values.shape[1] != model.arch.input_dim:
        raise DataValidationError(
            f"matrix has {values.shape[1]} features, model expects {model.arch.input_dim}"
        )
    h = values
    for layer, buffers in zip(model.encoder, _forward_buffers(model.encoder, X.n)):
        h = _layer_forward(layer, h, training=False, buffers=buffers)["out"]
    return LatentRepresentation(z_values=h)


@dataclass(frozen=True)
class LatentRepresentation:
    z_values: np.ndarray  # row i is the latent code of sample i of the encoded matrix


def weight_penalty(model: AeModel, scratch: np.ndarray) -> float:
    """Sum of squared weight entries over encoder and decoder (biases excluded).

    ``scratch``, a flat array at least as large as the largest weight matrix,
    receives the squares of each matrix in turn.
    """
    total = 0
    for w in model.weight_matrices():
        total += np.multiply(w, w, out=_view(scratch, w.shape)).sum()
    return float(total)


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
    arrays = model.parameters()
    flat = np.concatenate([array.ravel() for array in arrays])
    views = iter(_views(flat, [array.shape for array in arrays]))
    for layer in model.layers():
        layer.weights, layer.bias = next(views), next(views)
        if layer.batch_norm is not None:
            layer.batch_norm.gamma, layer.batch_norm.shift = next(views), next(views)
    return flat


class _Workspace:
    """Forward buffers, gradient arrays and scratch for one model, reused across batches.

    ``forward`` holds every layer's ``_forward_buffers`` and the row buffers
    hold the widest layer, both for up to ``rows`` rows. ``grad`` holds one
    layer's gradients at a time: ``layer_grads`` gives each layer views of it,
    aligned with that layer's arrays in ``model.parameters()``, and
    ``layer_slices`` that layer's slice of the flat parameters.
    ``scratch`` serves the weight decay, the weight penalty and the Adam
    blocks in turn, so it holds the largest weight matrix or two Adam blocks,
    whichever is larger.
    """

    def __init__(self, model: AeModel, rows: int):
        self.forward = _forward_buffers(model.layers(), rows)
        arrays = [_layer_parameters(layer) for layer in model.layers()]
        sizes = [sum(a.size for a in layer_arrays) for layer_arrays in arrays]
        self.grad = np.empty(max(sizes))
        self.layer_slices, self.layer_grads = [], []
        start = 0
        for layer_arrays, size in zip(arrays, sizes):
            self.layer_slices.append(slice(start, start + size))
            start += size
            # (weights, bias, gamma, shift), None without BN
            grads = _views(self.grad, [a.shape for a in layer_arrays])
            self.layer_grads.append((*grads, *[None] * (4 - len(grads))))
        width = max(model.arch.encoder_layers + model.arch.decoder_layers)
        self.deltas = (np.empty(rows * width), np.empty(rows * width))
        self.rows_tmp = np.empty(rows * width)
        self.mask = np.empty(rows * width, dtype=bool)
        self.col_sums = np.empty((2, width))
        adam_blocks = 2 * min(_ADAM_BLOCK, self.grad.size)
        self.scratch = np.empty(max(adam_blocks, *(w.size for w in model.weight_matrices())))


def _loss(model: AeModel, batch: np.ndarray, beta_l2: float, ws: _Workspace) -> tuple:
    """The train-mode pass into ``ws``: the regularized loss (the squared
    reconstruction error summed over features and averaged over samples, plus
    ``beta_l2`` times ``weight_penalty``), the caches and the residual
    ``recon - batch``, held in ``ws.deltas[0]`` for the backward pass."""
    caches, recon = _forward_cached(model, batch, ws.forward)
    residual = np.subtract(recon, batch, out=_view(ws.deltas[0], batch.shape))
    squares = np.multiply(residual, residual, out=_view(ws.rows_tmp, batch.shape))
    loss = float(squares.sum() / batch.shape[0]) + beta_l2 * weight_penalty(model, ws.scratch)
    return loss, caches, residual


def _backward(
    model: AeModel, caches: list[dict], residual: np.ndarray, beta_l2: float,
    ws: _Workspace, layer_done: Callable[[int], None],
) -> None:
    """Gradients of the regularized loss from the caches and the residual of
    one ``_loss`` pass, from the last layer down; the residual is scaled in
    place into the reconstruction's gradient. Once layer ``idx``'s gradients
    are in ``ws.layer_grads[idx]`` and the gradient it passes down has read
    its weights, ``layer_done(idx)`` is called; the next layer down
    overwrites them. The input gradient of the first layer is not computed:
    nothing reads it."""
    m = residual.shape[0]
    delta_buf, below_buf = ws.deltas
    d_out = np.multiply(2.0, residual, out=residual)
    np.divide(d_out, m, out=d_out)
    layers = list(model.layers())
    for idx in range(len(layers) - 1, -1, -1):
        layer, cache = layers[idx], caches[idx]
        d_weights, d_bias, d_gamma, d_shift = ws.layer_grads[idx]
        # d_out becomes d_pre, then d_affine, in place
        tmp = _view(ws.rows_tmp, d_out.shape)
        if layer.activation == "relu":
            mask = _view(ws.mask, d_out.shape)
            np.greater(cache["out"], 0, out=mask)  # max(pre, 0) > 0 exactly where pre > 0
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
        decay = _view(ws.scratch, layer.weights.shape)
        np.multiply(2.0 * beta_l2, layer.weights, out=decay)
        np.add(d_weights, decay, out=d_weights)
        np.sum(d_out, axis=0, out=d_bias)
        if idx > 0:
            d_in = _view(below_buf, (m, layer.weights.shape[1]))
            np.matmul(d_out, layer.weights, out=d_in)
            d_out = d_in
            delta_buf, below_buf = below_buf, delta_buf
        layer_done(idx)


def parameter_gradients(model: AeModel, batch: np.ndarray, beta_l2: float) -> list[np.ndarray]:
    """Analytic gradients of the regularized loss, aligned with ``model.parameters()``,
    each copied out of the workspace into a fresh array."""
    batch = np.asarray(batch, dtype=np.float64)
    ws = _Workspace(model, batch.shape[0])
    _, caches, residual = _loss(model, batch, beta_l2, ws)
    from_the_top = []  # per layer, last layer first

    def copy_out(idx: int) -> None:
        from_the_top.append([g.copy() for g in ws.layer_grads[idx] if g is not None])

    _backward(model, caches, residual, beta_l2, ws, copy_out)
    return [g for grads in reversed(from_the_top) for g in grads]


def numerical_gradients(model: AeModel, batch: np.ndarray, beta_l2: float, step: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of the regularized loss of training's own pass."""
    batch = np.asarray(batch, dtype=np.float64)
    ws = _Workspace(model, batch.shape[0])
    out = []
    for array in model.parameters():
        grad = np.empty_like(array)
        flat = array.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = _loss(model, batch, beta_l2, ws)[0]
            flat[i] = orig - step
            lo = _loss(model, batch, beta_l2, ws)[0]
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
    scratch: np.ndarray,
) -> None:
    """One Adam update of flat ``params`` in place, ``_ADAM_BLOCK`` entries at a
    time so that the operands of every ufunc stay in cache. ``scratch`` is a
    flat array of at least two blocks."""
    bias1 = 1.0 - _ADAM_BETA1**step
    bias2 = 1.0 - _ADAM_BETA2**step
    for start in range(0, params.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        p, g, m_state, v_state = params[block], grads[block], adam_m[block], adam_v[block]
        t1, t2 = scratch[: 2 * p.size].reshape(2, p.size)
        m_state *= _ADAM_BETA1
        np.multiply(1 - _ADAM_BETA1, g, out=t1)
        m_state += t1
        v_state *= _ADAM_BETA2
        np.multiply(1 - _ADAM_BETA2, g, out=t1)
        t1 *= g
        v_state += t1
        np.divide(m_state, bias1, out=t1)
        np.multiply(_LEARNING_RATE, t1, out=t1)
        np.divide(v_state, bias2, out=t2)
        np.sqrt(t2, out=t2)
        t2 += _ADAM_EPSILON
        t1 /= t2
        p -= t1


def train(X: ExpressionMatrix, arch: AeArchitecture, hp: AeHyperparams, seed: int) -> AeModel:
    """Mini-batch Adam over shuffled batches for ``hp.epochs`` passes.

    Deterministic given ``seed`` (initialization and shuffling both derive
    from it); records the mean regularized loss per epoch. Each batch runs one
    forward pass and one backward pass, which takes the Adam step of each
    layer as soon as that layer's gradients are formed. The trainable arrays
    of the returned model are views of one flat buffer; Adam moments, one
    layer's gradients, forward-pass layer outputs, scratch and the gathered
    batch are allocated once per call.
    """
    if arch.input_dim != X.d:
        raise ConfigError(f"architecture input size {arch.input_dim} != matrix width {X.d}")
    if X.n < hp.batch_size:
        raise DataValidationError(f"need n >= batch_size, got n={X.n}, batch_size={hp.batch_size}")
    model = init_model(arch, seed)
    shuffle_rng = np.random.default_rng([seed, 1])
    params = _flatten_parameters(model)
    most = hp.batch_size + 1  # a trailing singleton joins the last batch
    ws = _Workspace(model, most)
    gathered = np.empty((most, X.d))
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    step = 0

    def adam_layer(idx: int) -> None:
        # Adam is elementwise, and backpropagation below this layer reads
        # none of its parameters, so stepping it now gives the bits of one
        # step over the whole model after the backward pass
        layer = ws.layer_slices[idx]
        grad = ws.grad[: layer.stop - layer.start]
        _adam_step(params[layer], grad, adam_m[layer], adam_v[layer], step, ws.scratch)

    values = X.values
    for epoch in range(hp.epochs):
        order = shuffle_rng.permutation(X.n)
        epoch_loss = 0.0
        for batch_no, rows in enumerate(_batch_slices(X.n, hp.batch_size, order)):
            m = rows.size
            # mode="clip" lets numpy write straight into `out` (the default buffers it)
            batch = np.take(values, rows, axis=0, out=gathered[:m], mode="clip")
            batch_loss, caches, residual = _loss(model, batch, hp.beta_l2, ws)
            if not np.isfinite(batch_loss):
                raise NumericalError(f"non-finite loss at epoch {epoch}, batch {batch_no}")
            epoch_loss += batch_loss * m
            step += 1
            _backward(model, caches, residual, hp.beta_l2, ws, adam_layer)
            _update_running_stats(model, caches, m)
        model.loss_history.append(epoch_loss / X.n)
    return model
