"""Minimal dense network with manual backpropagation.

The model is a stack of fully connected layers with tanh between them
(the feature extractor) followed by a linear classification layer whose
per-class weight vectors we call proxies.  tanh was chosen over ReLU
because it is smooth everywhere, which keeps central finite differences
honest in the gradient checks.

All arithmetic is float64.  Parameters and gradients are immutable by
convention: every operation returns fresh arrays.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ParseError, ShapeError

CHECKPOINT_MAGIC = b"NNCP"
CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    """Feature-extractor layers plus the proxy classification layer.

    layers: list of (W, b) with W shaped (fan_in, fan_out), b shaped (fan_out,).
    proxies: (num_classes, feature_dim) matrix, one proxy vector per class.
    proxy_bias: (num_classes,) bias vector.

    The same container is reused for gradient sets, which mirror the
    parameter shapes exactly.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    proxies: np.ndarray
    proxy_bias: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.proxies.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.proxies.shape[1]

    @property
    def layer_dims(self) -> list[int]:
        dims = [self.layers[0][0].shape[0]] if self.layers else [self.feature_dim]
        for w, _ in self.layers:
            dims.append(w.shape[1])
        return dims

    def copy(self) -> "ModelParams":
        return ModelParams(
            layers=[(w.copy(), b.copy()) for w, b in self.layers],
            proxies=self.proxies.copy(),
            proxy_bias=self.proxy_bias.copy(),
        )


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the parameters."""

    m: ModelParams
    v: ModelParams
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8

    @classmethod
    def init(cls, params: ModelParams, beta1: float = 0.9, beta2: float = 0.99,
             eps: float = 1e-8) -> "AdamState":
        return cls(m=zeros_like_params(params), v=zeros_like_params(params),
                   step=0, beta1=beta1, beta2=beta2, eps=eps)


@dataclass
class ForwardCache:
    """Everything the backward pass needs for one batch."""

    inputs: np.ndarray
    pre_acts: list[np.ndarray] = field(default_factory=list)
    acts: list[np.ndarray] = field(default_factory=list)
    features: np.ndarray = None
    logits: np.ndarray = None


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams(
        layers=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers],
        proxies=np.zeros_like(params.proxies),
        proxy_bias=np.zeros_like(params.proxy_bias),
    )


def add_params(a: ModelParams, b: ModelParams, scale: float = 1.0) -> ModelParams:
    """a + scale * b, elementwise over every parameter array."""
    return ModelParams(
        layers=[(wa + scale * wb, ba + scale * bb)
                for (wa, ba), (wb, bb) in zip(a.layers, b.layers)],
        proxies=a.proxies + scale * b.proxies,
        proxy_bias=a.proxy_bias + scale * b.proxy_bias,
    )


def init_params(layer_dims: list[int], num_classes: int, seed: int) -> ModelParams:
    """Seeded scaled-uniform init: W ~ U(+-sqrt(6/(fan_in+fan_out))), biases zero.

    layer_dims chains input through hidden to the feature dimension, e.g.
    [16, 32, 32] builds two feature layers 16->32->32 with 32-dim features.
    """
    if not layer_dims:
        raise ConfigError("layer_dims must be nonempty")
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    feat_dim = layer_dims[-1]
    limit = np.sqrt(6.0 / (feat_dim + num_classes))
    proxies = rng.uniform(-limit, limit, size=(num_classes, feat_dim))
    return ModelParams(layers=layers, proxies=proxies,
                       proxy_bias=np.zeros(num_classes))


def forward(params: ModelParams, batch: np.ndarray) -> ForwardCache:
    """Run the net on a (batch, input_dim) matrix and cache intermediates."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {batch.shape}")
    expected = (params.layers[0][0].shape[0] if params.layers
                else params.feature_dim)
    if batch.shape[1] != expected:
        raise ShapeError(
            f"batch has {batch.shape[1]} columns, model expects {expected}")
    cache = ForwardCache(inputs=batch)
    h = batch
    for w, b in params.layers:
        z = h @ w + b
        h = np.tanh(z)
        cache.pre_acts.append(z)
        cache.acts.append(h)
    cache.features = h
    cache.logits = h @ params.proxies.T + params.proxy_bias
    return cache


def backward(params: ModelParams, cache: ForwardCache,
             dlogits: np.ndarray) -> ModelParams:
    """Exact gradients of sum(dlogits * logits) w.r.t. every parameter."""
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache.logits.shape:
        raise ShapeError(
            f"dlogits shape {dlogits.shape} != logits shape {cache.logits.shape}")
    proxies = dlogits.T @ cache.features
    proxy_bias = dlogits.sum(axis=0)
    dh = dlogits @ params.proxies
    layers = []
    for i in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[i]
        dz = dh * (1.0 - cache.acts[i] ** 2)  # tanh'(z) = 1 - tanh(z)^2
        prev = cache.acts[i - 1] if i > 0 else cache.inputs
        layers.append((prev.T @ dz, dz.sum(axis=0)))
        dh = dz @ w.T
    return ModelParams(layers=layers[::-1], proxies=proxies,
                       proxy_bias=proxy_bias)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              lr: float) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update.  Returns fresh params and state."""
    if lr <= 0:
        raise ConfigError(f"lr must be positive, got {lr}")
    for i, (gw, gb) in enumerate(grads.layers):
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise NumericError(f"non-finite gradient in feature layer {i}")
    if not (np.isfinite(grads.proxies).all() and np.isfinite(grads.proxy_bias).all()):
        raise NumericError("non-finite gradient in proxy layer")

    t = state.step + 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t

    def update(p, g, m, v):
        m_new = b1 * m + (1.0 - b1) * g
        v_new = b2 * v + (1.0 - b2) * g * g
        p_new = p - lr * (m_new / bc1) / (np.sqrt(v_new / bc2) + eps)
        return p_new, m_new, v_new

    new_layers, m_layers, v_layers = [], [], []
    for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(
            params.layers, grads.layers, state.m.layers, state.v.layers):
        w2, mw2, vw2 = update(w, gw, mw, vw)
        b2_, mb2, vb2 = update(b, gb, mb, vb)
        new_layers.append((w2, b2_))
        m_layers.append((mw2, mb2))
        v_layers.append((vw2, vb2))
    pw, mpw, vpw = update(params.proxies, grads.proxies,
                          state.m.proxies, state.v.proxies)
    pb, mpb, vpb = update(params.proxy_bias, grads.proxy_bias,
                          state.m.proxy_bias, state.v.proxy_bias)

    new_params = ModelParams(layers=new_layers, proxies=pw, proxy_bias=pb)
    new_state = AdamState(
        m=ModelParams(layers=m_layers, proxies=mpw, proxy_bias=mpb),
        v=ModelParams(layers=v_layers, proxies=vpw, proxy_bias=vpb),
        step=t, beta1=b1, beta2=b2, eps=eps)
    return new_params, new_state


def ema_update(teacher: ModelParams, student: ModelParams,
               decay: float) -> ModelParams:
    """teacher' = decay * teacher + (1 - decay) * student, per parameter."""
    if not 0.0 <= decay <= 1.0:
        raise ConfigError(f"EMA decay must be in [0, 1], got {decay}")
    return ModelParams(
        layers=[(decay * tw + (1.0 - decay) * sw, decay * tb + (1.0 - decay) * sb)
                for (tw, tb), (sw, sb) in zip(teacher.layers, student.layers)],
        proxies=decay * teacher.proxies + (1.0 - decay) * student.proxies,
        proxy_bias=decay * teacher.proxy_bias + (1.0 - decay) * student.proxy_bias,
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; accepts 1-D or 2-D input."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _param_views(params: ModelParams) -> list[np.ndarray]:
    views = []
    for w, b in params.layers:
        views.append(w)
        views.append(b)
    views.append(params.proxies)
    views.append(params.proxy_bias)
    return views


def gradcheck(params: ModelParams, batch: np.ndarray, loss_fn,
              eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn maps a logits matrix to (loss, dloss/dlogits); the analytic
    path runs backward() on dlogits while the numeric path perturbs each
    parameter scalar by +-eps and re-evaluates the loss.
    """
    if not 1e-7 < eps < 1e-2:
        raise ConfigError(f"eps must lie in (1e-7, 1e-2), got {eps}")
    cache = forward(params, batch)
    _, dlogits = loss_fn(cache.logits)
    analytic = backward(params, cache, dlogits)

    work = params.copy()
    max_err = 0.0
    for a_view, w_view in zip(_param_views(analytic), _param_views(work)):
        flat_a = a_view.ravel()
        flat_w = w_view.ravel()
        for j in range(flat_w.size):
            orig = flat_w[j]
            flat_w[j] = orig + eps
            lp, _ = loss_fn(forward(work, batch).logits)
            flat_w[j] = orig - eps
            lm, _ = loss_fn(forward(work, batch).logits)
            flat_w[j] = orig
            numeric = (lp - lm) / (2.0 * eps)
            denom = max(abs(flat_a[j]), abs(numeric), 1e-8)
            max_err = max(max_err, abs(flat_a[j] - numeric) / denom)
    return max_err


def save_params(params: ModelParams, path: str) -> None:
    """Flat little-endian float64 checkpoint with a versioned header."""
    dims = params.layer_dims
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<III", CHECKPOINT_VERSION, len(dims),
                            params.num_classes))
        f.write(struct.pack(f"<{len(dims)}I", *dims))
        for w, b in params.layers:
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(params.proxies, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(params.proxy_bias, dtype="<f8").tobytes())


def load_params(path: str) -> ModelParams:
    """Inverse of save_params.  Raises ParseError naming the path."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not a checkpoint file (bad magic)")
    if len(blob) < 16:
        raise ParseError(f"{path}: truncated header")
    version, n_dims, num_classes = struct.unpack_from("<III", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    if n_dims < 1:
        raise ParseError(f"{path}: need at least one layer dimension, "
                         f"got {n_dims}")
    if num_classes < 2:
        raise ParseError(f"{path}: num_classes must be >= 2, got {num_classes}")
    offset = 16 + 4 * n_dims
    if len(blob) < offset:
        raise ParseError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{n_dims}I", blob, 16)
    shapes = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    shapes += [(num_classes, dims[-1]), (num_classes,)]
    size = offset + 8 * sum(math.prod(shape) for shape in shapes)
    if len(blob) < size:
        raise ParseError(f"{path}: truncated parameter data")
    if len(blob) > size:
        raise ParseError(f"{path}: {len(blob) - size} trailing bytes after "
                         "the parameter data")
    arrays = []
    for shape in shapes:
        n = math.prod(shape)
        arrays.append(np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
                      .astype(np.float64).reshape(shape))
        offset += 8 * n
    layers = list(zip(arrays[:-2:2], arrays[1:-2:2]))
    return ModelParams(layers=layers, proxies=arrays[-2],
                       proxy_bias=arrays[-1])
