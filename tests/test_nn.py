"""Numeric core: init, forward/backward, Adam, EMA, checkpoints."""

import numpy as np
import pytest

from fedlsm import nn
from fedlsm.errors import ConfigError, NumericError, ParseError, ShapeError


def small_net(seed=0, dims=(4, 6, 5), m=3):
    return nn.init_params(list(dims), m, seed=seed)


def test_softmax_oracle():
    p = nn.softmax(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(p, [0.0900, 0.2447, 0.6652], atol=5e-5)
    assert p.sum() == pytest.approx(1.0)


def test_softmax_rows_and_stability():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(8, 5)) * 3
    p = nn.softmax(logits)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert (p > 0).all()
    huge = nn.softmax(np.array([[1000.0, 0.0, -1000.0]]))
    assert np.isfinite(huge).all()
    assert huge[0, 0] == pytest.approx(1.0)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(6, 4)) * 2
    assert np.allclose(nn.log_softmax(logits), np.log(nn.softmax(logits)))


def test_sigmoid_oracle_and_extremes():
    assert nn.sigmoid(np.array(2.0)) == pytest.approx(0.8808, abs=5e-5)
    assert nn.sigmoid(np.array(-2.0)) == pytest.approx(1 - 0.8808, abs=5e-5)
    ex = nn.sigmoid(np.array([1000.0, -1000.0]))
    assert ex[0] == 1.0 and ex[1] == 0.0


def test_init_shapes_bounds_and_determinism():
    p = small_net(seed=7, dims=(4, 6, 5), m=3)
    assert [w.shape for w, _ in p.layers] == [(4, 6), (6, 5)]
    assert all((b == 0).all() for _, b in p.layers)
    assert p.proxies.shape == (3, 5)
    assert (p.proxy_bias == 0).all()
    for (w, _), (fi, fo) in zip(p.layers, [(4, 6), (6, 5)]):
        limit = np.sqrt(6.0 / (fi + fo))
        assert (np.abs(w) <= limit).all()
    q = small_net(seed=7, dims=(4, 6, 5), m=3)
    assert np.array_equal(p.layers[0][0], q.layers[0][0])
    r = small_net(seed=8, dims=(4, 6, 5), m=3)
    assert not np.array_equal(p.layers[0][0], r.layers[0][0])


def test_init_rejects_bad_args():
    with pytest.raises(ConfigError):
        nn.init_params([], 3, seed=0)
    with pytest.raises(ConfigError):
        nn.init_params([4, 4], 1, seed=0)


def test_forward_shapes_and_logit_identity():
    p = small_net()
    x = np.random.default_rng(0).normal(size=(7, 4))
    cache = nn.forward(p, x)
    assert cache.features.shape == (7, 5)
    assert cache.logits.shape == (7, 3)
    manual = cache.features @ p.proxies.T + p.proxy_bias
    assert np.array_equal(cache.logits, manual)


def test_forward_rejects_bad_batch():
    p = small_net()
    with pytest.raises(ShapeError):
        nn.forward(p, np.zeros(4))
    with pytest.raises(ShapeError):
        nn.forward(p, np.zeros((2, 5)))


def test_backward_matches_finite_differences():
    p = small_net(seed=11)
    x = np.random.default_rng(1).normal(size=(3, 4))
    target = np.random.default_rng(2).dirichlet(np.ones(3), size=3)

    def loss_fn(logits):
        log_p = nn.log_softmax(logits)
        loss = float(-(target * log_p).sum())
        dlogits = nn.softmax(logits) * target.sum(axis=1, keepdims=True) - target
        return loss, dlogits

    assert nn.gradcheck(p, x, loss_fn) < 1e-5


def test_gradcheck_eps_validation():
    p = small_net()
    x = np.zeros((1, 4))
    with pytest.raises(ConfigError):
        nn.gradcheck(p, x, lambda z: (0.0, np.zeros_like(z)), eps=1.0)


def test_adam_single_step_oracle():
    # One parameter, unit gradient: the bias-corrected step is exactly lr
    # up to the epsilon in the denominator.
    p = nn.ModelParams(layers=[(np.array([[1.0]]), np.zeros(1))],
                       proxies=np.zeros((2, 1)), proxy_bias=np.zeros(2))
    g = nn.zeros_like_params(p)
    g.layers[0] = (np.array([[1.0]]), np.zeros(1))
    state = nn.AdamState.init(p, beta1=0.9, beta2=0.99)
    p2, state2 = nn.adam_step(p, g, state, lr=0.1)
    assert p2.layers[0][0][0, 0] == pytest.approx(0.9, abs=1e-6)
    assert state2.step == 1
    # functional: inputs untouched
    assert p.layers[0][0][0, 0] == 1.0
    assert state.step == 0


def test_adam_rejects_non_finite_gradients():
    p = small_net()
    g = nn.zeros_like_params(p)
    g.layers[1] = (g.layers[1][0] + np.nan, g.layers[1][1])
    with pytest.raises(NumericError, match="layer 1"):
        nn.adam_step(p, g, nn.AdamState.init(p), lr=0.1)


def test_ema_oracle_and_endpoints():
    t = nn.ModelParams(layers=[(np.ones((1, 1)), np.ones(1))],
                       proxies=np.ones((2, 1)), proxy_bias=np.ones(2))
    s = nn.zeros_like_params(t)
    out = nn.ema_update(t, s, 0.999)
    assert out.layers[0][0][0, 0] == pytest.approx(0.999)
    assert nn.ema_update(t, s, 0.0).layers[0][0][0, 0] == 0.0
    assert nn.ema_update(t, s, 1.0).layers[0][0][0, 0] == 1.0
    with pytest.raises(ConfigError):
        nn.ema_update(t, s, 1.5)


def test_param_algebra():
    p = small_net(seed=1)
    q = small_net(seed=2)
    z = nn.zeros_like_params(p)
    combo = nn.add_params(nn.add_params(z, p), q, scale=2.0)
    assert np.allclose(combo.proxies, p.proxies + 2.0 * q.proxies)
    assert np.allclose(combo.layers[0][0],
                       p.layers[0][0] + 2.0 * q.layers[0][0])


def test_checkpoint_roundtrip(tmp_path):
    p = small_net(seed=9, dims=(3, 8, 4), m=5)
    path = tmp_path / "model.ckpt"
    nn.save_params(p, str(path))
    q = nn.load_params(str(path))
    assert q.layer_dims == p.layer_dims
    assert q.num_classes == p.num_classes
    for (w1, b1), (w2, b2) in zip(p.layers, q.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    assert np.array_equal(p.proxies, q.proxies)
    assert np.array_equal(p.proxy_bias, q.proxy_bias)


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"notaheader")
    with pytest.raises(ParseError, match="magic"):
        nn.load_params(str(bad))


def test_checkpoint_rejects_truncation(tmp_path):
    p = small_net()
    path = tmp_path / "model.ckpt"
    nn.save_params(p, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ParseError, match="truncated"):
        nn.load_params(str(path))


def _checkpoint_blob(tmp_path):
    path = tmp_path / "model.ckpt"
    nn.save_params(small_net(), str(path))
    return path, path.read_bytes()


def test_checkpoint_rejects_truncated_header(tmp_path):
    path, blob = _checkpoint_blob(tmp_path)
    path.write_bytes(blob[:10])
    with pytest.raises(ParseError, match=r"model\.ckpt: truncated header"):
        nn.load_params(str(path))
    path.write_bytes(blob[:18])  # cuts into the layer dimensions
    with pytest.raises(ParseError, match=r"model\.ckpt: truncated header"):
        nn.load_params(str(path))


def test_checkpoint_rejects_zero_dims(tmp_path):
    path, blob = _checkpoint_blob(tmp_path)
    path.write_bytes(blob[:8] + (0).to_bytes(4, "little") + blob[12:])
    with pytest.raises(ParseError, match=r"model\.ckpt: .*layer dimension"):
        nn.load_params(str(path))


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path, blob = _checkpoint_blob(tmp_path)
    path.write_bytes(blob + b"\0" * 8)
    with pytest.raises(ParseError, match=r"model\.ckpt: 8 trailing bytes"):
        nn.load_params(str(path))


def test_checkpoint_rejects_fewer_than_two_classes(tmp_path):
    path, blob = _checkpoint_blob(tmp_path)
    path.write_bytes(blob[:12] + (1).to_bytes(4, "little") + blob[16:])
    with pytest.raises(ParseError, match=r"model\.ckpt: num_classes"):
        nn.load_params(str(path))


def test_backward_returns_fresh_gradients_in_layer_order():
    p = small_net(seed=4)
    batch = np.random.default_rng(4).normal(size=(5, 4))
    cache = nn.forward(p, batch)
    grads = nn.backward(p, cache, np.ones_like(cache.logits))
    assert [g.shape for g, _ in grads.layers] == [w.shape for w, _ in p.layers]
    assert [g.shape for _, g in grads.layers] == [b.shape for _, b in p.layers]
    assert grads.proxies.shape == p.proxies.shape
