"""Numeric core: init, forward/backward, Adam, EMA, checkpoints."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    for dims in ([3, 0], [0], [0, 4], [4, 6, 0, 5]):
        with pytest.raises(ConfigError, match=r"each width >= 1, got \["):
            nn.init_params(dims, 2, seed=0)


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
    p = nn.ModelParams.from_arrays(layers=[(np.array([[1.0]]), np.zeros(1))],
                                   proxies=np.zeros((2, 1)),
                                   proxy_bias=np.zeros(2))
    g = p.like(np.zeros_like(p.flat))
    g.layers[0][0][...] = np.array([[1.0]])
    state = nn.AdamState.init(p)
    p2, state2 = nn.adam_step(p, g, state, lr=0.1)
    assert p2.layers[0][0][0, 0] == pytest.approx(0.9, abs=1e-6)
    assert state2.step == 1
    # functional: inputs untouched
    assert p.layers[0][0][0, 0] == 1.0
    assert state.step == 0


def test_adam_rejects_non_finite_gradients():
    p = small_net()
    g = p.like(np.zeros_like(p.flat))
    g.layers[1][0][...] += np.nan
    with pytest.raises(NumericError, match="layer 1"):
        nn.adam_step(p, g, nn.AdamState.init(p), lr=0.1)


@pytest.mark.parametrize("lr", [0.0, -0.1, np.nan, np.inf, -np.inf])
def test_adam_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    p = small_net()
    g = p.like(np.zeros_like(p.flat))
    with pytest.raises(ConfigError, match=f"lr must be finite and > 0, "
                                          f"got {lr}"):
        nn.adam_step(p, g, nn.AdamState.init(p), lr)


def test_ema_oracle_and_endpoints():
    t = nn.ModelParams.from_arrays(layers=[(np.ones((1, 1)), np.ones(1))],
                                   proxies=np.ones((2, 1)),
                                   proxy_bias=np.ones(2))
    s = t.like(np.zeros_like(t.flat))
    out = nn.ema_update(t, s, 0.999)
    assert out.layers[0][0][0, 0] == pytest.approx(0.999)
    assert nn.ema_update(t, s, 0.0).layers[0][0][0, 0] == 0.0
    assert nn.ema_update(t, s, 1.0).layers[0][0][0, 0] == 1.0
    with pytest.raises(ConfigError):
        nn.ema_update(t, s, 1.5)


def test_param_algebra():
    p = small_net(seed=1)
    q = small_net(seed=2)
    z = p.like(np.zeros_like(p.flat))
    combo = nn.add_params(nn.add_params(z, p), q, scale=2.0)
    assert np.allclose(combo.proxies, p.proxies + 2.0 * q.proxies)
    assert np.allclose(combo.layers[0][0],
                       p.layers[0][0] + 2.0 * q.layers[0][0])


def test_checkpoint_roundtrip(tmp_path):
    p = small_net(seed=9, dims=(3, 8, 4), m=5)
    path = tmp_path / "model.ckpt"
    nn.save_params(p, str(path))
    q = nn.load_params(str(path))
    assert q.dims == p.dims
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


@pytest.mark.parametrize("dims,zero_at", [((3, 0), 1), ((0,), 0)])
def test_checkpoint_rejects_a_zero_width(tmp_path, dims, zero_at):
    # Only the 2 proxy biases have nonzero size, so the sizes agree.
    path = tmp_path / "model.ckpt"
    path.write_bytes(nn.CHECKPOINT_MAGIC
                     + struct.pack("<III", nn.CHECKPOINT_VERSION, len(dims), 2)
                     + struct.pack(f"<{len(dims)}I", *dims)
                     + np.zeros(2, dtype="<f8").tobytes())
    with pytest.raises(ParseError, match=rf"model\.ckpt: layer dimension "
                                         rf"{zero_at} is 0"):
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


# ------------------------------------------------ per-array references
#
# The functions below are the per-array code the parameter vector
# replaced.  The vector code must reproduce them bit for bit.

def arrays_of(p):
    return [a for pair in p.layers for a in pair] + [p.proxies, p.proxy_bias]


def reference_add_params(a, b, scale=1.0):
    return [x + scale * y for x, y in zip(arrays_of(a), arrays_of(b))]


def reference_ema_update(teacher, student, decay):
    return [decay * t + (1.0 - decay) * s
            for t, s in zip(arrays_of(teacher), arrays_of(student))]


def reference_adam_step(params, grads, m, v, step, lr, b1=0.9, b2=0.99,
                        eps=1e-8):
    t = step + 1
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    out = []
    for p, g, mi, vi in zip(params, grads, m, v):
        m_new = b1 * mi + (1.0 - b1) * g
        v_new = b2 * vi + (1.0 - b2) * g * g
        out.append((p - lr * (m_new / bc1) / (np.sqrt(v_new / bc2) + eps),
                    m_new, v_new))
    return [o[0] for o in out], [o[1] for o in out], [o[2] for o in out]


def reference_backward(p, cache, dlogits):
    grads = [dlogits.T @ cache.features, dlogits.sum(axis=0)]
    dh = dlogits @ p.proxies
    for i in range(len(p.layers) - 1, -1, -1):
        dz = dh * (1.0 - cache.acts[i] ** 2)
        prev = cache.acts[i - 1] if i > 0 else cache.inputs
        grads[:0] = [prev.T @ dz, dz.sum(axis=0)]
        dh = dz @ p.layers[i][0].T
    return grads


def reference_checkpoint(p):
    dims = p.dims
    blob = nn.CHECKPOINT_MAGIC + struct.pack("<III", nn.CHECKPOINT_VERSION,
                                             len(dims), p.num_classes)
    blob += struct.pack(f"<{len(dims)}I", *dims)
    for a in arrays_of(p):
        blob += np.ascontiguousarray(a, dtype="<f8").tobytes()
    return blob


def same_bytes(got, want):
    return (len(got) == len(want)
            and all(a.tobytes() == b.tobytes() for a, b in zip(got, want)))


NET_SHAPES = [((4,), 2), ((4, 6, 5), 3), ((16, 32, 32), 7), ((3, 8, 2, 5), 4)]


@pytest.mark.parametrize("dims,m", NET_SHAPES)
def test_vector_algebra_matches_per_array_reference_exactly(dims, m):
    rng = np.random.default_rng(len(dims) * 10 + m)
    p = nn.init_params(list(dims), m, seed=3)
    q = p.like(rng.normal(size=p.flat.size))
    for scale in (1.0, 0.1, -2.5):
        assert same_bytes(arrays_of(nn.add_params(p, q, scale)),
                          reference_add_params(p, q, scale))
    for decay in (0.0, 0.999, 0.5, 1.0):
        want = reference_ema_update(p, q, decay)
        assert same_bytes(arrays_of(nn.ema_update(p, q, decay)), want)
        # out= a buffer of garbage, and out= the teacher itself
        out = p.like(np.full_like(p.flat, np.nan))
        assert nn.ema_update(p, q, decay, out=out) is out
        assert same_bytes(arrays_of(out), want)
        teacher = p.like(p.flat.copy())
        nn.ema_update(teacher, q, decay, out=teacher)
        assert same_bytes(arrays_of(teacher), want)

    state = nn.AdamState.init(p)
    # a round's own buffers, updated in place as local_train does
    own, own_state = p.like(p.flat.copy()), nn.AdamState.init(p)
    params = arrays_of(p)
    m_ref = [np.zeros_like(a) for a in params]
    v_ref = [np.zeros_like(a) for a in params]
    for step in range(5):
        grads = p.like(rng.normal(size=p.flat.size) * 10.0 ** (step - 2))
        p, state = nn.adam_step(p, grads, state, lr=3e-3)
        out = (own, own_state)
        assert nn.adam_step(own, grads, own_state, 3e-3, out=out) is out
        params, m_ref, v_ref = reference_adam_step(
            params, arrays_of(grads), m_ref, v_ref, step, lr=3e-3)
        for got, moments in ((p, state), (own, own_state)):
            assert same_bytes(arrays_of(got), params)
            assert moments.m.tobytes() == b"".join(a.tobytes() for a in m_ref)
            assert moments.v.tobytes() == b"".join(a.tobytes() for a in v_ref)
            assert moments.step == step + 1

    cache = nn.forward(p, rng.normal(size=(9, dims[0])))
    dlogits = rng.normal(size=cache.logits.shape)
    want = reference_backward(p, cache, dlogits)
    assert same_bytes(arrays_of(nn.backward(p, cache, dlogits)), want)
    out = p.like(np.full_like(p.flat, np.nan))
    assert nn.backward(p, cache, dlogits, out=out) is out
    assert same_bytes(arrays_of(out), want)


@pytest.mark.parametrize("dims,m", NET_SHAPES)
def test_checkpoint_bytes_match_per_array_writer(tmp_path, dims, m):
    p = nn.init_params(list(dims), m, seed=5)
    p = p.like(p.flat + np.random.default_rng(1).normal(size=p.flat.size))
    path = tmp_path / "model.ckpt"
    nn.save_params(p, str(path))
    assert path.read_bytes() == reference_checkpoint(p)
    assert nn.load_params(str(path)).flat.tobytes() == p.flat.tobytes()


def test_non_finite_gradient_names_its_layer():
    p = small_net(dims=(4, 6, 5), m=3)
    names = ["feature layer 0", "feature layer 0", "feature layer 1",
             "feature layer 1", "proxy layer", "proxy layer"]
    for k, name in enumerate(names):
        for bad in (np.nan, np.inf):
            g = p.like(np.zeros_like(p.flat))
            arrays_of(g)[k].flat[-1] = bad
            with pytest.raises(NumericError, match=f"in {name}$"):
                nn.adam_step(p, g, nn.AdamState.init(p), lr=0.1)


def reference_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_reference_exactly():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([1000.0, -1000.0, 745.0, -745.0, 710.0, -710.0,
                        0.0, -0.0, tiny, -tiny, 4 * tiny, -4 * tiny,
                        np.nan, np.inf, -np.inf, 36.7, -36.7])
    grid = np.concatenate([special, np.linspace(-800.0, 800.0, 4001),
                           np.random.default_rng(0).normal(size=2000) * 30])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = nn.sigmoid(grid)
        got_2d = nn.sigmoid(grid[:6000].reshape(60, 100))
    want = reference_sigmoid(grid)
    assert got.tobytes() == want.tobytes()
    assert got_2d.tobytes() == want[:6000].tobytes()


def reference_softmax(logits):
    """softmax with the last-axis row max, verbatim."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_log_softmax(logits):
    """log_softmax with the last-axis row max, verbatim."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


ROW_MAX_EDGES = [0.0, -0.0, 1.0, -1.0, 750.0, -750.0, np.inf, -np.inf,
                 np.nan]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_max_and_softmax_match_last_axis_max_bits(data):
    n, m = data.draw(st.integers(0, 16)), data.draw(st.integers(1, 12))
    # few distinct values, so rows hold ties, signed zeros, infinities
    # and NaNs in every order
    values = data.draw(st.lists(st.one_of(st.sampled_from(ROW_MAX_EDGES),
                                          st.floats(-5.0, 5.0, width=16)),
                                min_size=n * m, max_size=n * m))
    logits = np.array(values, dtype=np.float64).reshape(n, m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for x in (logits, *logits[:1]):  # 2-D, then one 1-D row
            # equal maxima; a zero maximum may differ in sign on a row
            # wider than 8 that holds both zeros, so compare values there
            assert np.array_equal(nn._row_max(x),
                                  x.max(axis=-1, keepdims=True),
                                  equal_nan=True)
            if m <= 8:
                assert nn._row_max(x).tobytes() == \
                    x.max(axis=-1, keepdims=True).tobytes()
            assert nn.softmax(x).tobytes() == reference_softmax(x).tobytes()
            assert nn.log_softmax(x).tobytes() == \
                reference_log_softmax(x).tobytes()


# ------------------------------------------------ checkpoint reader fuzz

def _checkpoint_bytes(dims, m, seed):
    p = nn.init_params(list(dims), m, seed=seed)
    return reference_checkpoint(p)


def _load_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    path.write_bytes(blob)
    try:
        return nn.load_params(str(path))
    except ParseError as exc:
        assert str(path) in str(exc)
        return None


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
net_dims = st.lists(st.integers(1, 6), min_size=1, max_size=4)


@FUZZ
@given(blob=st.binary(max_size=200))
def test_load_params_fuzz_arbitrary_bytes(tmp_path_factory, blob):
    _load_bytes(tmp_path_factory, blob)
    _load_bytes(tmp_path_factory, nn.CHECKPOINT_MAGIC + blob)


@FUZZ
@given(dims=net_dims, m=st.integers(2, 5), seed=st.integers(0, 2 ** 16),
       cut=st.integers(0, 10 ** 6))
def test_load_params_fuzz_truncated(tmp_path_factory, dims, m, seed, cut):
    blob = _checkpoint_bytes(dims, m, seed)
    cut %= len(blob)
    assert _load_bytes(tmp_path_factory, blob[:cut]) is None


@FUZZ
@given(dims=net_dims, m=st.integers(2, 5), seed=st.integers(0, 2 ** 16),
       field_idx=st.integers(0, 10 ** 6), value=st.integers(0, 2 ** 32 - 1))
def test_load_params_fuzz_changed_header_field(tmp_path_factory, dims, m,
                                               seed, field_idx, value):
    blob = bytearray(_checkpoint_bytes(dims, m, seed))
    field_idx %= 3 + len(dims)  # version, n_dims, num_classes, each dim
    offset = 4 + 4 * field_idx
    blob[offset:offset + 4] = struct.pack("<I", value)
    loaded = _load_bytes(tmp_path_factory, bytes(blob))
    if loaded is not None:
        assert loaded.flat.size == (len(blob) - 16 - 4 * len(loaded.dims)) // 8


@FUZZ
@given(dims=net_dims, m=st.integers(2, 5), seed=st.integers(0, 2 ** 16))
def test_save_load_round_trip_is_byte_identical(tmp_path_factory, dims, m,
                                                seed):
    rng = np.random.default_rng(seed)
    p = nn.init_params(list(dims), m, seed=seed)
    p = p.like(rng.normal(size=p.flat.size) * 10.0 ** rng.integers(-300, 300))
    first = tmp_path_factory.mktemp("rt") / "a.ckpt"
    nn.save_params(p, str(first))
    q = nn.load_params(str(first))
    second = first.with_name("b.ckpt")
    nn.save_params(q, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert q.dims == p.dims and q.num_classes == p.num_classes
