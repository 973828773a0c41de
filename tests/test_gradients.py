"""Analytic gradients checked against central finite differences.

Float64 checks must agree to 1e-6 and float32 checks to 1e-3, measured as
|analytic - numeric| / max(1, |numeric|) maximized over coordinates.  Each
check wraps one op (or a composite) into a scalar function of a single
tensor; the weighting tensors make the gradients non-trivial.
"""

import numpy as np
import pytest

from maskdetect import tensor as T
from maskdetect.rng import SplitMix64

F64_TOL = 1e-6
F32_TOL = 1e-3


def _pt(rng, shape, dtype=np.float64):
    return T.Tensor(rng.normal(shape=shape).astype(dtype))


def _weight(rng, shape, dtype=np.float64):
    # fixed multiplier so d(out)/d(x) varies across coordinates
    return T.Tensor(rng.normal(shape=shape).astype(dtype))


# -- convolution -----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, (0, 2))])
def test_conv2d_input_gradient(seed, stride, padding):
    rng = SplitMix64(100 + seed)
    w = _pt(rng, (3, 2, 3, 3))
    b = _pt(rng, (3,))
    x = _pt(rng, (2, 2, 6, 6))
    oh = T.conv2d(x, w, b, stride=stride, padding=padding).shape
    s = _weight(rng, oh)

    for bias in (b, None):  # the model's convs pass no bias
        def f(t):
            return (T.conv2d(t, w, bias, stride=stride, padding=padding) * s).sum()

        assert T.gradient_check(f, x) < F64_TOL


@pytest.mark.parametrize("seed", range(3))
def test_conv2d_weight_and_bias_gradients(seed):
    rng = SplitMix64(200 + seed)
    x = _pt(rng, (2, 2, 5, 5))
    w0 = _pt(rng, (3, 2, 3, 3))
    b0 = _pt(rng, (3,))
    s = _weight(rng, (2, 3, 5, 5))

    def fw(t):
        return (T.conv2d(x, t, b0, padding=1) * s).sum()

    def fb(t):
        return (T.conv2d(x, w0, t, padding=1) * s).sum()

    assert T.gradient_check(fw, w0) < F64_TOL
    assert T.gradient_check(fb, b0) < F64_TOL


@pytest.mark.parametrize("kernel,stride,padding", [
    ((1, 1), 1, 0),        # the input is the column matrix
    ((1, 1), 2, 0),        # strided and padded 1x1 convs build columns
    ((1, 1), 1, 1),
    ((1, 7), 1, (0, 3)),   # the factorized pair
    ((7, 1), 1, (3, 0)),
])
def test_conv2d_gradients_per_kernel_path(kernel, stride, padding):
    rng = SplitMix64(300)
    x = _pt(rng, (2, 3, 7, 8))
    w0 = _pt(rng, (4, 3) + kernel)
    b0 = _pt(rng, (4,))
    s = _weight(rng, T.conv2d(x, w0, b0, stride=stride, padding=padding).shape)

    def at(xx, ww, bb):
        return (T.conv2d(xx, ww, bb, stride=stride, padding=padding) * s).sum()

    for bias in (b0, None):  # the model's convs pass no bias
        assert T.gradient_check(lambda t: at(t, w0, bias), x) < F64_TOL
        assert T.gradient_check(lambda t: at(x, t, bias), w0) < F64_TOL
    assert T.gradient_check(lambda t: at(x, w0, t), b0) < F64_TOL


# -- pooling ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind,k,stride,padding", [
    ("max", 2, 2, 0), ("max", 3, 1, 0), ("avg", 2, 2, 0), ("avg", 3, 1, 1), ("max", 3, 2, 1),
])
def test_pool2d_gradient(seed, kind, k, stride, padding):
    rng = SplitMix64(300 + seed)
    # distinct values keep max argmaxes stable under the probe eps
    base = rng.permutation(2 * 2 * 6 * 6)
    x = T.Tensor((np.array(base, dtype=np.float64).reshape(2, 2, 6, 6)) * 0.1)
    shape = T.pool2d(x, kind, k, stride, padding=padding).shape
    s = _weight(rng, shape)

    def f(t):
        return (T.pool2d(t, kind, k, stride, padding=padding) * s).sum()

    assert T.gradient_check(f, x) < F64_TOL


@pytest.mark.parametrize("seed", range(3))
def test_global_avg_pool_gradient(seed):
    rng = SplitMix64(400 + seed)
    x = _pt(rng, (2, 3, 4, 4))
    s = _weight(rng, (2, 3))

    def f(t):
        return (T.global_avg_pool(t) * s).sum()

    assert T.gradient_check(f, x) < F64_TOL


# -- elementwise / affine ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_relu_gradient(seed):
    rng = SplitMix64(500 + seed)
    # keep values away from the kink so finite differences are clean
    data = rng.normal(shape=(4, 5))
    data = np.where(np.abs(data) < 0.05, 0.5, data)
    s = _weight(rng, (4, 5))

    def f(t):
        return (T.relu(t) * s).sum()

    assert T.gradient_check(f, T.Tensor(data)) < F64_TOL


@pytest.mark.parametrize("seed", range(3))
def test_linear_gradients(seed):
    rng = SplitMix64(600 + seed)
    x = _pt(rng, (4, 6))
    w = _pt(rng, (6, 5))
    b = _pt(rng, (5,))
    s = _weight(rng, (4, 5))

    assert T.gradient_check(lambda t: (T.linear(t, w, b) * s).sum(), x) < F64_TOL
    assert T.gradient_check(lambda t: (T.linear(x, t, b) * s).sum(), w) < F64_TOL
    assert T.gradient_check(lambda t: (T.linear(x, w, t) * s).sum(), b) < F64_TOL


@pytest.mark.parametrize("seed", range(3))
def test_concat_and_flatten_gradient(seed):
    rng = SplitMix64(700 + seed)
    x = _pt(rng, (2, 3, 3, 3))
    other = _pt(rng, (2, 2, 3, 3))
    s = _weight(rng, (2, 45))

    def f(t):
        return (T.concat_channels([t, other]).reshape(2, -1) * s).sum()

    assert T.gradient_check(f, x) < F64_TOL


# -- batch norm ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_batch_norm_train_gradients(seed):
    rng = SplitMix64(800 + seed)
    x = _pt(rng, (3, 2, 4, 4))
    g = T.Tensor(np.array([1.3, 0.7]))
    b = T.Tensor(np.array([0.2, -0.5]))
    s = _weight(rng, (3, 2, 4, 4))

    def fresh_state():
        return T.BatchNormState(2, np.float64)

    def fx(t):
        return (T.batch_norm2d(t, g, b, fresh_state(), "train") * s).sum()

    def fg(t):
        return (T.batch_norm2d(x, t, b, fresh_state(), "train") * s).sum()

    def fb(t):
        return (T.batch_norm2d(x, g, t, fresh_state(), "train") * s).sum()

    assert T.gradient_check(fx, x) < F64_TOL
    assert T.gradient_check(fg, g) < F64_TOL
    assert T.gradient_check(fb, b) < F64_TOL


@pytest.mark.parametrize("seed", range(3))
def test_batch_norm_eval_gradients(seed):
    rng = SplitMix64(900 + seed)
    st = T.BatchNormState(2, np.float64)
    st.running_mean[:] = rng.normal(shape=2)
    st.running_var[:] = np.abs(rng.normal(shape=2)) + 0.5
    x = _pt(rng, (2, 2, 3, 3))
    g = T.Tensor(np.array([0.8, 1.4]))
    b = T.Tensor(np.array([0.1, 0.3]))
    s = _weight(rng, (2, 2, 3, 3))

    assert T.gradient_check(lambda t: (T.batch_norm2d(t, g, b, st, "eval") * s).sum(), x) < F64_TOL
    assert T.gradient_check(lambda t: (T.batch_norm2d(x, t, b, st, "eval") * s).sum(), g) < F64_TOL
    assert T.gradient_check(lambda t: (T.batch_norm2d(x, g, t, st, "eval") * s).sum(), b) < F64_TOL


# -- dropout (fixed mask) -----------------------------------------------------------------


def test_dropout_gradient_with_fixed_mask():
    rng = SplitMix64(1000)
    x = _pt(rng, (5, 5))
    s = _weight(rng, (5, 5))

    def f(t):
        # same seed every call -> deterministic mask, as the checker requires
        return (T.dropout(t, 0.4, "train", SplitMix64(77)) * s).sum()

    assert T.gradient_check(f, x) < F64_TOL


# -- softmax / loss -------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_softmax_gradient(seed):
    rng = SplitMix64(1100 + seed)
    z = _pt(rng, (4, 3))
    s = _weight(rng, (4, 3))

    def f(t):
        return (T.softmax(t) * s).sum()

    assert T.gradient_check(f, z) < F64_TOL


@pytest.mark.parametrize("seed", range(3))
def test_cross_entropy_gradient(seed):
    rng = SplitMix64(1200 + seed)
    z = _pt(rng, (5, 3))
    t = np.zeros((5, 3))
    t[np.arange(5), [rng.randint(3) for _ in range(5)]] = 1.0
    tt = T.Tensor(t)

    assert T.gradient_check(lambda q: T.softmax_cross_entropy(q, tt), z) < F64_TOL


def test_cross_entropy_gradient_closed_form():
    rng = SplitMix64(1300)
    z = T.Tensor(rng.normal(shape=(6, 3)), requires_grad=True)
    t = np.zeros((6, 3))
    t[np.arange(6), [0, 1, 2, 0, 1, 2]] = 1.0
    loss = T.softmax_cross_entropy(z, T.Tensor(t))
    loss.backward()
    e = np.exp(z.data - z.data.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    assert np.allclose(z.grad, (p - t) / 6.0, atol=1e-12)


# -- composite network and precision tiers -----------------------------------------------------


def _mini_net(t, w1, b1, g1, be1, st, w2, b2, targets, mode="train"):
    y = T.conv2d(t, w1, b1, stride=1, padding=1)
    y = T.batch_norm2d(y, g1, be1, st, mode)
    y = T.relu(y)
    y = T.pool2d(y, "max", 2, 2)
    y = T.global_avg_pool(y)
    y = T.linear(y, w2, b2)
    return T.softmax_cross_entropy(y, targets)


@pytest.mark.parametrize("seed", range(3))
def test_composite_network_input_gradient_f64(seed):
    rng = SplitMix64(1400 + seed)
    w1 = _pt(rng, (4, 2, 3, 3))
    b1 = _pt(rng, (4,))
    g1 = T.Tensor(np.abs(rng.normal(shape=4)) + 0.5)
    be1 = _pt(rng, (4,))
    w2 = _pt(rng, (4, 3))
    b2 = _pt(rng, (3,))
    t = np.zeros((2, 3))
    t[0, 1] = t[1, 2] = 1.0
    targets = T.Tensor(t)
    x = _pt(rng, (2, 2, 6, 6))

    def f(q):
        return _mini_net(q, w1, b1, g1, be1, T.BatchNormState(4, np.float64), w2, b2, targets)

    assert T.gradient_check(f, x) < F64_TOL


def test_composite_network_parameter_gradients_f32():
    # float32 probes take a coarse step, so this composite avoids the
    # non-smooth ops (relu kinks, max-pool argmax flips) that a step can
    # push across; those ops get their own checks at safe points above
    rng = SplitMix64(1500)
    w1 = T.Tensor(rng.normal(std=0.4, shape=(4, 2, 3, 3)).astype(np.float32))
    b1 = T.Tensor(rng.normal(shape=(4,)).astype(np.float32))
    g1 = T.Tensor((np.abs(rng.normal(shape=4)) + 0.5).astype(np.float32))
    be1 = T.Tensor(rng.normal(shape=(4,)).astype(np.float32))
    w2 = T.Tensor(rng.normal(shape=(4, 3)).astype(np.float32))
    b2 = T.Tensor(rng.normal(shape=(3,)).astype(np.float32))
    st = T.BatchNormState(4, np.float32)
    st.running_mean[:] = rng.normal(shape=4).astype(np.float32)
    st.running_var[:] = (np.abs(rng.normal(shape=4)) + 0.5).astype(np.float32)
    t = np.zeros((2, 3), dtype=np.float32)
    t[0, 0] = t[1, 1] = 1.0
    targets = T.Tensor(t)
    x = T.Tensor(rng.normal(shape=(2, 2, 6, 6)).astype(np.float32))

    def smooth_net(xx, ww1, ww2):
        y = T.conv2d(xx, ww1, b1, stride=1, padding=1)
        y = T.batch_norm2d(y, g1, be1, st, "eval")
        y = T.pool2d(y, "avg", 2, 2)
        y = T.global_avg_pool(y)
        y = T.linear(y, ww2, b2)
        return T.softmax_cross_entropy(y, targets)

    assert T.gradient_check(lambda q: smooth_net(x, q, w2), w1) < F32_TOL
    assert T.gradient_check(lambda q: smooth_net(x, w1, q), w2) < F32_TOL
    assert T.gradient_check(lambda q: smooth_net(q, w1, w2), x) < F32_TOL


def test_detector_flags_corrupted_gradient():
    # an op whose backward overstates the true derivative by 1% must trip
    # the float32 tolerance; the honest version must pass it
    def corrupt_identity(x):
        return T._node(x.data.copy(), (x, lambda g: g * 1.01))

    x = T.Tensor(np.linspace(-2, 2, 9).astype(np.float64))

    def dishonest(t):
        return (corrupt_identity(t) * 2.0).sum()

    def honest(t):
        return (t * 2.0).sum()

    assert T.gradient_check(honest, x) < F32_TOL
    assert T.gradient_check(dishonest, x) > F32_TOL


def test_default_probe_step_follows_dtype():
    # f32 uses a coarse step to beat roundoff; f64 a fine one for accuracy
    rng = SplitMix64(1600)
    x32 = T.Tensor(rng.normal(shape=(3, 3)).astype(np.float32))
    x64 = T.Tensor(x32.data.astype(np.float64))
    s32 = T.Tensor(np.ones((3, 3), dtype=np.float32))
    s64 = T.Tensor(np.ones((3, 3), dtype=np.float64))

    assert T.gradient_check(lambda t: (T.relu(t * t) * s32).sum(), x32) < F32_TOL
    assert T.gradient_check(lambda t: (T.relu(t * t) * s64).sum(), x64) < F64_TOL
