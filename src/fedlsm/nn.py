"""Minimal dense network with manual backpropagation.

The model is a stack of fully connected layers with tanh between them
(the feature extractor) followed by a linear classification layer whose
per-class weight vectors we call proxies.  tanh was chosen over ReLU
because it is smooth everywhere, which keeps central finite differences
honest in the gradient checks.

All arithmetic is float64.  A model is one parameter vector in
checkpoint order (W0, b0, W1, b1, ..., proxies, proxy_bias) with
per-layer views for forward/backward, so Adam, EMA and parameter sums are
single array expressions.  Every operation returns a fresh vector unless
it is given `out=` (NumPy's idiom): backward, adam_step and ema_update
then write into that model's vector, which may be an input's own, so a
client round trains in buffers it owns and allocates no model per step.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericError, ParseError, ShapeError

CHECKPOINT_MAGIC = b"NNCP"
CHECKPOINT_VERSION = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.99
ADAM_EPS = 1e-8


@lru_cache(maxsize=8)
def _layout(dims: tuple[int, ...],
            num_classes: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """(start, stop, shape) of each array in vector order: (W, b) per
    feature layer, then the proxies and their bias."""
    shapes = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    out, start = [], 0
    for shape in [*shapes, (num_classes, dims[-1]), (num_classes,)]:
        out.append((start, start + math.prod(shape), shape))
        start += math.prod(shape)
    return out


@dataclass
class ModelParams:
    """Feature-extractor layers plus the proxy classification layer.

    flat: every parameter in one float64 vector, in checkpoint order.
    dims: input dimension, then each feature layer's width; the last
    entry is the feature dimension.

    Views: layers is a list of (W, b) with W shaped (fan_in, fan_out);
    proxies is (num_classes, feature_dim), one proxy vector per class;
    proxy_bias is (num_classes,).  The same container holds gradient sets.
    """

    flat: np.ndarray
    dims: tuple[int, ...]
    num_classes: int
    layers: list = field(init=False, repr=False, compare=False)
    proxies: np.ndarray = field(init=False, repr=False, compare=False)
    proxy_bias: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = [self.flat[start:stop].reshape(shape) for start, stop, shape
             in _layout(self.dims, self.num_classes)]
        self.layers = list(zip(v[:-2:2], v[1:-2:2]))
        self.proxies, self.proxy_bias = v[-2:]

    @classmethod
    def from_arrays(cls, layers, proxies, proxy_bias) -> "ModelParams":
        dims = ([layers[0][0].shape[0], *(w.shape[1] for w, _ in layers)]
                if layers else [proxies.shape[1]])
        parts = [a for pair in layers for a in pair] + [proxies, proxy_bias]
        return cls(np.concatenate([np.ravel(a) for a in parts],
                                  dtype=np.float64),
                   tuple(dims), proxies.shape[0])

    def like(self, flat: np.ndarray) -> "ModelParams":
        """Another vector with this model's layout."""
        return ModelParams(flat, self.dims, self.num_classes)


@dataclass
class AdamState:
    """First/second moment accumulators, one vector each."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


@dataclass
class ForwardCache:
    """Everything the backward pass needs for one batch."""

    inputs: np.ndarray
    acts: list[np.ndarray] = field(default_factory=list)
    features: np.ndarray = None
    logits: np.ndarray = None


def add_params(a: ModelParams, b: ModelParams, scale: float = 1.0) -> ModelParams:
    """a + scale * b, elementwise over the parameter vector."""
    return a.like(a.flat + scale * b.flat)


def init_params(layer_dims: list[int], num_classes: int, seed: int) -> ModelParams:
    """Seeded scaled-uniform init: W ~ U(+-sqrt(6/(fan_in+fan_out))), biases zero.

    layer_dims chains input through hidden to the feature dimension, e.g.
    [16, 32, 32] builds two feature layers 16->32->32 with 32-dim features.
    """
    if not layer_dims or min(layer_dims) < 1:
        raise ConfigError(f"layer_dims must be nonempty, each width "
                          f">= 1, got {layer_dims}")
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
    return ModelParams.from_arrays(layers, proxies, np.zeros(num_classes))


def forward(params: ModelParams, batch: np.ndarray) -> ForwardCache:
    """Run the net on a (batch, input_dim) matrix and cache intermediates."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {batch.shape}")
    expected = params.dims[0]
    if batch.shape[1] != expected:
        raise ShapeError(
            f"batch has {batch.shape[1]} columns, model expects {expected}")
    cache = ForwardCache(inputs=batch)
    h = batch
    for w, b in params.layers:
        h = h @ w
        h += b
        np.tanh(h, out=h)
        cache.acts.append(h)
    cache.features = h
    cache.logits = h @ params.proxies.T + params.proxy_bias
    return cache


def backward(params: ModelParams, cache: ForwardCache, dlogits: np.ndarray,
             out: ModelParams | None = None) -> ModelParams:
    """Exact gradients of sum(dlogits * logits) w.r.t. every parameter,
    written into out (not params itself) or one fresh vector."""
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache.logits.shape:
        raise ShapeError(
            f"dlogits shape {dlogits.shape} != logits shape {cache.logits.shape}")
    grads = params.like(np.empty_like(params.flat)) if out is None else out
    np.matmul(dlogits.T, cache.features, out=grads.proxies)
    dlogits.sum(axis=0, out=grads.proxy_bias)
    dh = dlogits @ params.proxies
    for i in range(len(params.layers) - 1, -1, -1):
        gw, gb = grads.layers[i]
        dz = cache.acts[i] ** 2  # dz = dh * tanh'(z) = dh * (1 - tanh(z)^2)
        np.subtract(1.0, dz, out=dz)
        dz *= dh
        prev = cache.acts[i - 1] if i > 0 else cache.inputs
        np.matmul(prev.T, dz, out=gw)
        dz.sum(axis=0, out=gb)
        if i > 0:
            dh = dz @ params.layers[i][0].T
    return grads


def _non_finite_layer(grads: ModelParams) -> str:
    """Name of the layer holding the first non-finite gradient entry."""
    first = int(np.flatnonzero(~np.isfinite(grads.flat))[0])
    layout = _layout(grads.dims, grads.num_classes)
    k = next(k for k, (_, stop, _) in enumerate(layout) if first < stop)
    return f"feature layer {k // 2}" if k < len(layout) - 2 else "proxy layer"


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              lr: float, out: tuple[ModelParams, AdamState] | None = None
              ) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update with ADAM_BETA1/ADAM_BETA2/ADAM_EPS.

    Returns fresh params and state, or writes them into out = (params,
    state), which may be the inputs themselves, and returns out.
    """
    if not 0.0 < lr < math.inf:
        raise ConfigError(f"lr must be finite and > 0, got {lr}")
    g = grads.flat
    if not np.isfinite(g).all():
        raise NumericError(f"non-finite gradient in {_non_finite_layer(grads)}")

    t = state.step + 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    # In place, with the operands and order of
    #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
    #   p = p - lr * (m / bc1) / (sqrt(v / bc2) + eps)
    if out is None:
        out = (params.like(np.empty_like(params.flat)),
               AdamState(m=np.empty_like(g), v=np.empty_like(g)))
    new, moments = out
    m, v = moments.m, moments.v
    np.multiply(b1, state.m, out=m)
    m += (1.0 - b1) * g
    np.multiply(b2, state.v, out=v)
    g2 = (1.0 - b2) * g
    g2 *= g
    v += g2
    denom = np.divide(v, bc2, out=g2)
    np.sqrt(denom, out=denom)
    denom += eps
    step = m / bc1
    step *= lr
    step /= denom
    np.subtract(params.flat, step, out=new.flat)
    moments.step = t
    return out


def ema_update(teacher: ModelParams, student: ModelParams, decay: float,
               out: ModelParams | None = None) -> ModelParams:
    """teacher' = decay * teacher + (1 - decay) * student, per parameter,
    written into out (which may be teacher, not student) or a fresh
    vector."""
    if not 0.0 <= decay <= 1.0:
        raise ConfigError(f"EMA decay must be in [0, 1], got {decay}")
    if out is None:
        out = teacher.like(np.empty_like(teacher.flat))
    np.multiply(decay, teacher.flat, out=out.flat)
    out.flat += (1.0 - decay) * student.flat
    return out


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True) of a 1-D or 2-D array, faster on short
    rows.  A zero max may differ in sign on a row wider than 8 holding both
    zeros; softmax and log_softmax cannot see it (that row's sum is >= 2)."""
    return np.ascontiguousarray(x.T).max(axis=0)[..., None]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; accepts 1-D or 2-D input."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - _row_max(logits)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - _row_max(logits)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    e is exp(-x) where x >= 0 and exp(x) elsewhere (NaN included), so each
    branch sees the same operands as 1 / (1 + exp(-x)) and
    exp(x) / (1 + exp(x)) would, and nothing overflows.
    """
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d)


def gradcheck(params: ModelParams, batch: np.ndarray, loss_fn,
              eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn maps a logits matrix to (loss, dloss/dlogits); the analytic
    path runs backward() on dlogits while the numeric path perturbs each
    entry of the parameter vector by +-eps and re-evaluates the loss.
    """
    if not 1e-7 < eps < 1e-2:
        raise ConfigError(f"eps must lie in (1e-7, 1e-2), got {eps}")
    cache = forward(params, batch)
    _, dlogits = loss_fn(cache.logits)
    analytic = backward(params, cache, dlogits).flat

    work = params.like(params.flat.copy())
    flat = work.flat
    max_err = 0.0
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        lp, _ = loss_fn(forward(work, batch).logits)
        flat[j] = orig - eps
        lm, _ = loss_fn(forward(work, batch).logits)
        flat[j] = orig
        numeric = (lp - lm) / (2.0 * eps)
        denom = max(abs(analytic[j]), abs(numeric), 1e-8)
        max_err = max(max_err, abs(analytic[j] - numeric) / denom)
    return max_err


def save_params(params: ModelParams, path: str) -> None:
    """Flat little-endian float64 checkpoint with a versioned header."""
    dims = params.dims
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<III", CHECKPOINT_VERSION, len(dims),
                            params.num_classes))
        f.write(struct.pack(f"<{len(dims)}I", *dims))
        f.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


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
    if 0 in dims:
        raise ParseError(f"{path}: layer dimension {dims.index(0)} is 0")
    n = _layout(dims, num_classes)[-1][1]
    size = offset + 8 * n
    if len(blob) < size:
        raise ParseError(f"{path}: truncated parameter data")
    if len(blob) > size:
        raise ParseError(f"{path}: {len(blob) - size} trailing bytes after "
                         "the parameter data")
    flat = np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
    return ModelParams(flat.astype(np.float64), dims, num_classes)
