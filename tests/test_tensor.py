"""Forward-pass semantics of the tensor ops, checked against brute-force
reference implementations written as plain loops."""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from maskdetect import tensor as T
from maskdetect.errors import InputError, ParameterError, ShapeError, UsageError
from maskdetect.nn import HeadConfig, build_model, desk_backbone
from maskdetect.rng import SplitMix64


# -- reference implementations (independent of the library's vectorized code) --


def conv2d_ref(x, w, b, stride, ph, pw):
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (wd + 2 * pw - kw) // stride + 1
    out = np.zeros((n, o, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, oi, i, j] = (patch * w[oi]).sum() + b[oi]
    return out


def pool2d_ref(x, kind, k, stride):
    n, c, h, w = x.shape
    oh = (h - k) // stride + 1
    ow = (w - k) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    win = x[ni, ci, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[ni, ci, i, j] = win.max() if kind == "max" else win.mean()
    return out


def linear_ref(x, w, b):
    n, f = x.shape
    m = w.shape[1]
    out = np.zeros((n, m), dtype=x.dtype)
    for i in range(n):
        for j in range(m):
            out[i, j] = sum(x[i, k] * w[k, j] for k in range(f)) + b[j]
    return out


def _rand(rng, shape, dtype=np.float64):
    return rng.normal(shape=shape).astype(dtype)


# -- convolution ---------------------------------------------------------------


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2), (1, (0, 3))])
def test_conv2d_matches_loop_oracle(stride, padding):
    # three random kernels, then a fixed 1x1 one in both dtypes: at stride 1
    # without padding it takes the path that uses the input as its columns
    cases = [(1000 + seed, None, np.float64) for seed in range(3)]
    cases += [(1003, (1, 1), np.float32), (1003, (1, 1), np.float64)]
    for seed, kernel, dtype in cases:
        rng = SplitMix64(seed)
        kh, kw = kernel or (rng.randint(3) + 1, rng.randint(3) + 1)
        x = _rand(rng, (2, 3, 9, 10), dtype)
        w = _rand(rng, (4, 3, kh, kw), dtype)
        b = _rand(rng, (4,), dtype)
        ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
        got = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=stride, padding=padding)
        want = conv2d_ref(x.astype(np.float64), w, b, stride, ph, pw)
        assert got.shape == want.shape and got.dtype == dtype
        assert np.allclose(got.data, want, rtol=0, atol=1e-12 if dtype == np.float64 else 1e-5)
        # without a bias nothing is added: equal by value to a zero bias (where
        # adding +0.0 turned a -0.0 into +0.0, the bias-free output keeps -0.0)
        bare = T.conv2d(T.Tensor(x), T.Tensor(w), stride=stride, padding=padding)
        zero = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(4, dtype)),
                        stride=stride, padding=padding)
        assert bare.dtype == dtype and np.array_equal(bare.data, zero.data)


def test_conv2d_asymmetric_padding_shapes():
    # the 1x7 / 7x1 factorized pair pads only the axis its kernel spans
    x = T.Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32))
    w17 = T.Tensor(np.zeros((3, 2, 1, 7), dtype=np.float32))
    w71 = T.Tensor(np.zeros((3, 3, 7, 1), dtype=np.float32))
    b = T.Tensor(np.zeros(3, dtype=np.float32))
    y = T.conv2d(x, w17, b, padding=(0, 3))
    assert y.shape == (1, 3, 8, 8)
    z = T.conv2d(y, w71, b, padding=(3, 0))
    assert z.shape == (1, 3, 8, 8)


def test_conv2d_identity_kernel():
    rng = SplitMix64(4)
    x = _rand(rng, (1, 1, 5, 5))
    w = np.ones((1, 1, 1, 1))
    y = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(1)))
    assert np.array_equal(y.data, x)


@pytest.mark.parametrize("kernel", [1, 3])
def test_conv2d_promotes_a_wider_bias(kernel):
    # float32 input and weight with a float64 bias give a float64 output
    rng = SplitMix64(6)
    x = _rand(rng, (2, 3, 5, 5)).astype(np.float32)
    w = _rand(rng, (4, 3, kernel, kernel)).astype(np.float32)
    b = _rand(rng, (4,))
    y = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b))
    bare = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(4, dtype=np.float32)))
    assert y.dtype == np.float64
    assert np.array_equal(y.data, bare.data + b[:, None, None])


def test_conv2d_shape_errors():
    x = T.Tensor(np.zeros((1, 3, 8, 8)))
    b3 = T.Tensor(np.zeros(3))
    with pytest.raises(ShapeError):
        T.conv2d(x, T.Tensor(np.zeros((3, 4, 3, 3))), b3)  # channel mismatch
    with pytest.raises(ShapeError):
        T.conv2d(x, T.Tensor(np.zeros((3, 3, 3, 3))), T.Tensor(np.zeros(5)))  # bias size
    with pytest.raises(ShapeError):
        T.conv2d(x, T.Tensor(np.zeros((3, 3, 11, 3))), b3, padding=1)  # kernel too tall
    with pytest.raises(ShapeError):
        T.conv2d(T.Tensor(np.zeros((3, 8, 8))), T.Tensor(np.zeros((3, 3, 3, 3))), b3)
    with pytest.raises(ParameterError):
        T.conv2d(x, T.Tensor(np.zeros((3, 3, 3, 3))), b3, stride=0)
    with pytest.raises(ParameterError):
        T.conv2d(x, T.Tensor(np.zeros((3, 3, 3, 3))), b3, padding=-1)


# -- pooling --------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["max", "avg"])
@pytest.mark.parametrize("k,stride", [(2, 2), (3, 1), (3, 2), (2, 3)])
def test_pool2d_matches_loop_oracle(kind, k, stride):
    for seed in range(3):
        rng = SplitMix64(2000 + seed)
        x = _rand(rng, (2, 3, 8, 9))
        got = T.pool2d(T.Tensor(x), kind, k, stride)
        want = pool2d_ref(x, kind, k, stride)
        assert got.shape == want.shape
        assert np.allclose(got.data, want, atol=1e-12)


def _avg_pool_row_major_sum(x, k, stride, padding):
    """Avg pooling as each window's cells added with np.add in row-major
    window order, then divided by k*k once."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    total = win[..., 0, 0].copy()
    for t in range(1, k * k):
        total = np.add(total, win[..., t // k, t % k])
    return total / (k * k)


def _awkward_input(rng, shape, dtype, nonfinite):
    """Normal values with -0.0, subnormals and +-1e30 mixed in, plus +-inf
    and NaN when ``nonfinite``; the first plane is all -0.0."""
    tiny = np.finfo(dtype).smallest_subnormal
    specials = [-0.0, tiny, -tiny, 1e30, -1e30] + ([np.inf, -np.inf, np.nan] if nonfinite else [])
    x = rng.normal(shape=shape).astype(dtype)
    hit = rng.uniform(shape=shape) < 0.15
    pick = (rng.uniform(shape=shape) * len(specials)).astype(int)
    x[hit] = np.array(specials, dtype=dtype)[pick[hit]]
    x[0, 0] = -0.0
    return x


def _avg_pool_grid(dtype, nonfinite):
    """(k, stride, padding, x) over k 1..13, stride 1..3 and padding 0..2."""
    rng = SplitMix64(31 + nonfinite)
    for k in range(1, 14):
        for stride in (1, 2, 3):
            for padding in (0, 1, 2):
                x = _awkward_input(rng, (2, 3, k + 4, k + 5), dtype, nonfinite)
                yield k, stride, padding, x


def _assert_same_bits(got, want, case):
    """Bitwise equal, except that a NaN matches any NaN: which NaN pattern
    a NaN output carries is left to the hardware and to numpy's loops."""
    assert got.dtype == want.dtype and got.shape == want.shape, case
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), case
    assert got[~nan].tobytes() == want[~nan].tobytes(), case


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("nonfinite", [False, True], ids=["finite", "nonfinite"])
def test_avg_pool_is_bitwise_the_row_major_window_sum(dtype, nonfinite):
    # the pool adds each window's k*k cells in row-major order and divides
    # once, so a window of -0.0 stays -0.0
    for k, stride, padding, x in _avg_pool_grid(dtype, nonfinite):
        with np.errstate(invalid="ignore"):  # inf + -inf
            got = T.pool2d(T.Tensor(x), "avg", k, stride, padding).data
            want = _avg_pool_row_major_sum(x, k, stride, padding)
        _assert_same_bits(got, want, (k, stride, padding))
        if not nonfinite:
            assert got.tobytes() == want.tobytes()


def _peak_bytes(run):
    """Result of ``run()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_avg_pool_makes_no_window_copy():
    # the Inception pool branch: 3x3, stride 1, padding 1.  A [N,C,OH,OW,9]
    # window copy alone would take 9x the input; the padded copy plus the
    # output take about 2.2x, so partial-sum arrays beside them do not fit
    x = T.Tensor(SplitMix64(5).normal(shape=(32, 36, 19, 19)).astype(np.float32))
    _, peak = _peak_bytes(lambda: T.pool2d(x, "avg", 3, 1, padding=1))
    assert peak < 2.4 * x.data.nbytes


def test_relu_allocates_only_its_output():
    # a boolean mask beside the output would add a quarter of it in float32
    x = T.Tensor(SplitMix64(9).normal(shape=(8, 30, 19, 19)).astype(np.float32))
    y, peak = _peak_bytes(lambda: T.relu(x))
    assert peak < 1.1 * y.data.nbytes


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batch_norm_keeps_one_temporary_beside_its_output(mode):
    # the normalized input, which the backward keeps, and the output are the
    # only full-size arrays: a third one alive beside them would not fit
    rng = SplitMix64(10)
    x = T.Tensor((rng.normal(shape=(8, 30, 19, 19)) * 3.0 + 1.0).astype(np.float32))
    gamma = T.Tensor(rng.normal(shape=(30,)).astype(np.float32))
    beta = T.Tensor(rng.normal(shape=(30,)).astype(np.float32))
    state = T.BatchNormState(30, np.float32)
    y, peak = _peak_bytes(lambda: T.batch_norm2d(x, gamma, beta, state, mode))
    assert peak < 2.5 * y.data.nbytes


def test_1x1_conv_makes_no_column_copy():
    # a stride-1, unpadded 1x1 conv reads its input as the column matrix:
    # only the output is allocated, where a column copy alone would take
    # 4.5x the output here
    rng = SplitMix64(6)
    x = T.Tensor(rng.normal(shape=(32, 36, 19, 19)).astype(np.float32))
    w = T.Tensor(rng.normal(shape=(8, 36, 1, 1)).astype(np.float32))
    b = T.Tensor(np.zeros(8, dtype=np.float32))
    y, peak = _peak_bytes(lambda: T.conv2d(x, w, b))
    assert peak < 1.2 * y.data.nbytes


def test_conv_weight_gradient_needs_no_per_sample_stack():
    # late-block shape: more outputs than grid cells.  Stacking the per-sample
    # products before summing them would take N=32 times the weight gradient
    rng = SplitMix64(7)
    x = T.Tensor(rng.normal(shape=(32, 64, 4, 4)).astype(np.float32))
    w = T.Tensor(rng.normal(shape=(96, 64, 3, 3)).astype(np.float32), requires_grad=True)
    y = T.conv2d(x, w, T.Tensor(np.zeros(96, dtype=np.float32)), padding=1)
    g = np.ones(y.shape, dtype=np.float32)
    (grad_weight,) = y._grad_fns
    dw, peak = _peak_bytes(lambda: grad_weight(g))
    assert peak < 3 * dw.nbytes
    # an empty batch has a zero weight gradient
    empty = T.conv2d(T.Tensor(np.zeros((0, 64, 4, 4), np.float32)), w, T.Tensor(np.zeros(96)), padding=1)
    assert not empty._grad_fns[0](np.zeros(empty.shape)).any()


def _desk_conv_shapes(monkeypatch):
    """(input [C,H,W], weight, stride, padding) of every conv of one desk
    train forward: the stride-2 stem, the 1x7/7x1 paddings, the 1x1 views."""
    shapes, conv2d = set(), T.conv2d

    def record(x, weight, bias=None, stride=1, padding=0):
        shapes.add((x.shape[1:], weight.shape, stride, padding))
        return conv2d(x, weight, bias, stride, padding)

    monkeypatch.setattr(T, "conv2d", record)
    model = build_model(desk_backbone(), HeadConfig(), seed=0)
    model.run(T.Tensor(np.zeros((2, 3, 75, 75), np.float32)), mode="train", rng=SplitMix64(0))
    monkeypatch.undo()
    return sorted(shapes, key=repr)


def _grad_weight_from_batch_columns(x, w, g, stride, padding):
    # the batch's whole [N, C*kh*kw, OH*OW] column array, one GEMM per sample
    # added in batch order
    n, c = x.shape[:2]
    o, _, kh, kw = w.shape
    ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = win.shape[2:4]
    col = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * kh * kw, oh * ow)
    dw = np.zeros((o, c * kh * kw), dtype=x.dtype)
    for gi, ci in zip(g.reshape(n, o, oh * ow), col):
        dw += gi @ ci.T
    return dw.reshape(w.shape)


@pytest.mark.parametrize("n", [1, 8])
def test_conv_weight_gradient_bits_match_the_batch_columns(monkeypatch, n):
    # backward copies each sample's columns from the window view; the bytes,
    # the GEMMs and their order are those of the batch's column array
    shapes = _desk_conv_shapes(monkeypatch)
    kinds = {(wshape[2:], padding) for _, wshape, _, padding in shapes}
    assert {((1, 7), (0, 3)), ((7, 1), (3, 0)), ((1, 1), 0)} <= kinds
    assert {stride for _, _, stride, _ in shapes} == {1, 2}
    rng = SplitMix64(40 + n)
    for chw, wshape, stride, padding in shapes:
        x = _rand(rng, (n, *chw), np.float32)
        w = T.Tensor(_rand(rng, wshape, np.float32), requires_grad=True)
        y = T.conv2d(T.Tensor(x), w, stride=stride, padding=padding)
        g = _rand(rng, y.shape, np.float32)
        (grad_weight,) = y._grad_fns
        want = _grad_weight_from_batch_columns(x, w.data, g, stride, padding)
        _assert_same_bits(grad_weight(g), want, (chw, wshape, stride, padding))


def _fold_batch_columns(dcol, shape, stride, ph, pw):
    # col2im: window gradients [N,C,kh,kw,OH,OW] added in row-major tap order
    # onto a zeroed padded grid, then cropped to the unpadded [N,C,H,W] one
    n, c, h, w = shape
    kh, kw, oh, ow = dcol.shape[2:]
    dxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=dcol.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcol[:, :, i, j]
    return dxp[:, :, ph : ph + h, pw : pw + w]


def _grad_x_from_batch_columns(shape, w, g, stride, padding):
    # the batch's whole [N, C*kh*kw, OH*OW] column gradient, one GEMM per
    # sample with the transposed [O, C*kh*kw] weights, folded by col2im
    n, c = shape[:2]
    o, _, kh, kw = w.shape
    oh, ow = g.shape[2:]
    ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
    dcol = w.reshape(o, c * kh * kw).T @ g.reshape(n, o, oh * ow)
    return _fold_batch_columns(dcol.reshape(n, c, kh, kw, oh, ow), shape, stride, ph, pw)


@pytest.mark.parametrize("n", [1, 8])
def test_conv_input_gradient_bits_match_the_batch_columns(monkeypatch, n):
    # one GEMM per kernel tap adds, per element, the products the column
    # gradient held, in the same tap order
    rng = SplitMix64(50 + n)
    for chw, wshape, stride, padding in _desk_conv_shapes(monkeypatch):
        x = T.Tensor(_rand(rng, (n, *chw), np.float32), requires_grad=True)
        w = _rand(rng, wshape, np.float32)
        y = T.conv2d(x, T.Tensor(w), stride=stride, padding=padding)
        g = _rand(rng, y.shape, np.float32)
        (grad_x,) = y._grad_fns
        want = _grad_x_from_batch_columns(x.shape, w, g, stride, padding)
        _assert_same_bits(grad_x(g), want, (chw, wshape, stride, padding))


def test_avg_pool_gradient_bits_match_the_batch_columns():
    # each window cell gets its share g / (k*k), added in row-major window order
    rng = SplitMix64(60)
    for k, stride, padding, x in _avg_pool_grid(np.float32, False):
        y = T.pool2d(T.Tensor(x, requires_grad=True), "avg", k, stride, padding)
        g = _rand(rng, y.shape, np.float32)
        n, c, oh, ow = y.shape
        share = np.broadcast_to((g / (k * k))[:, :, None, None], (n, c, k, k, oh, ow))
        want = _fold_batch_columns(share, x.shape, stride, padding, padding)
        (grad_x,) = y._grad_fns
        _assert_same_bits(grad_x(g), want, (k, stride, padding))


def test_conv_forward_bits_do_not_depend_on_the_column_chunk(monkeypatch):
    # one-sample chunks and one whole-batch chunk give the same bytes: each
    # sample is one GEMM either way
    shapes = _desk_conv_shapes(monkeypatch)
    rng = SplitMix64(70)
    for chw, wshape, stride, padding in shapes:
        x = T.Tensor(_rand(rng, (32, *chw), np.float32))
        w = T.Tensor(_rand(rng, wshape, np.float32))
        b = T.Tensor(_rand(rng, wshape[:1], np.float32))
        outs = []
        for budget in (1, 1 << 40):
            monkeypatch.setattr(T, "_COLUMN_BYTES", budget)
            outs.append(T.conv2d(x, w, b, stride=stride, padding=padding).data)
        monkeypatch.undo()
        outs.append(T.conv2d(x, w, b, stride=stride, padding=padding).data)
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes(), (chw, wshape)


def test_batch_32_conv_copies_its_columns_in_chunks():
    # the desk stem's second conv in a batch-32 eval: its whole column array
    # would take 13.3 MB; chunks of whole samples keep them under two budgets
    rng = SplitMix64(71)
    x = T.Tensor(rng.normal(shape=(32, 8, 38, 38)).astype(np.float32))
    w = T.Tensor(rng.normal(shape=(8, 8, 3, 3)).astype(np.float32))
    y, peak = _peak_bytes(lambda: T.conv2d(x, w, padding=1))
    padded = 32 * 8 * 40 * 40 * 4
    assert peak < y.data.nbytes + padded + 2 * T._COLUMN_BYTES


def test_conv_input_gradient_holds_one_tap_product():
    # the full-profile 5x5 branch: a [N, C*25, OH*OW] column gradient would
    # take 25 times dx; one tap's product beside the padded dx fits under 3x
    rng = SplitMix64(72)
    x = T.Tensor(rng.normal(shape=(2, 16, 75, 75)).astype(np.float32), requires_grad=True)
    w = T.Tensor(rng.normal(shape=(24, 16, 5, 5)).astype(np.float32))
    y = T.conv2d(x, w, padding=2)
    g = np.ones(y.shape, dtype=np.float32)
    (grad_x,) = y._grad_fns
    dx, peak = _peak_bytes(lambda: grad_x(g))
    assert peak < 3 * dx.nbytes


def test_pool2d_max_tie_routes_to_lowest_flat_index():
    x = np.zeros((1, 1, 2, 2))  # all four values tie
    t = T.Tensor(x, requires_grad=True)
    out = T.pool2d(t, "max", 2, 2)
    out.sum().backward()
    want = np.zeros((1, 1, 2, 2))
    want[0, 0, 0, 0] = 1.0  # flat index 0 wins the tie
    assert np.array_equal(t.grad, want)


def test_pool2d_padding_semantics():
    x = np.full((1, 1, 2, 2), -5.0)
    # max ignores the pad ring (padded with -inf, never selected)
    m = T.pool2d(T.Tensor(x), "max", 3, 1, padding=1)
    assert m.shape == (1, 1, 2, 2)
    assert (m.data == -5.0).all()
    # avg counts padded zeros in the window mean
    a = T.pool2d(T.Tensor(np.full((1, 1, 2, 2), 9.0)), "avg", 3, 1, padding=1)
    assert np.allclose(a.data, 9.0 * 4 / 9)


def test_pool2d_errors():
    x = T.Tensor(np.zeros((1, 1, 4, 4)))
    with pytest.raises(ParameterError):
        T.pool2d(x, "median", 2, 2)
    with pytest.raises(ShapeError):
        T.pool2d(x, "max", 5, 1)
    with pytest.raises(ParameterError):
        T.pool2d(x, "max", 2, 0)


def test_global_avg_pool():
    rng = SplitMix64(8)
    x = _rand(rng, (3, 5, 4, 6))
    y = T.global_avg_pool(T.Tensor(x))
    assert y.shape == (3, 5)
    assert np.allclose(y.data, x.mean(axis=(2, 3)), atol=1e-12)
    with pytest.raises(ShapeError):
        T.global_avg_pool(T.Tensor(np.zeros((3, 5))))


# -- elementwise / shaping --------------------------------------------------------


def test_relu_values_and_zero_subgradient():
    t = T.Tensor(np.array([-2.0, -0.0, 0.0, 3.5]), requires_grad=True)
    y = T.relu(t)
    assert np.array_equal(y.data, [0.0, 0.0, 0.0, 3.5])
    y.sum().backward()
    assert np.array_equal(t.grad, [0.0, 0.0, 0.0, 1.0])


def test_relu_keeps_nan_and_positive_zero():
    t = T.Tensor(np.array([np.nan, -0.0, 1.0, -3.0], dtype=np.float32), requires_grad=True)
    y = T.relu(t)
    assert np.isnan(y.data[0])
    assert np.array_equal(y.data[1:], [0.0, 1.0, 0.0])
    assert not np.signbit(y.data[1])  # -0.0 comes out as +0.0
    y.sum().backward()
    assert np.array_equal(t.grad, [0.0, 0.0, 1.0, 0.0])  # the mask is x > 0


def _special_floats(dtype):
    """+-0, quiet and signalling NaNs of both signs with payloads, +-inf,
    subnormals of both signs and +-1, bit for bit."""
    if dtype == np.float32:
        bits = [0x00000000, 0x80000000, 0x7FC00001, 0xFFC12345, 0x7F800001, 0xFF812345,
                0x7F800000, 0xFF800000, 0x00000001, 0x807FFFFF, 0x3F800000, 0xBF800000]
        return np.array(bits, dtype=np.uint32).view(np.float32)
    bits = [0, 1 << 63, 0x7FF8000000000001, 0xFFF8000000012345, 0x7FF0000000000001,
            0xFFF0000000012345, 0x7FF0000000000000, 0xFFF0000000000000, 1,
            0x800FFFFFFFFFFFFF, 0x3FF0000000000000, 0xBFF0000000000000]
    return np.array(bits, dtype=np.uint64).view(np.float64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_bits_match_the_masked_select(dtype):
    # relu gives the bits np.where(x <= 0, 0, x) gives: -0.0 becomes +0.0 and
    # a NaN keeps its sign and payload.  Each special value sits at every
    # offset 0-15 of arrays of length 1-69, in the SIMD body and in the tail
    base = SplitMix64(11).normal(shape=(69,)).astype(dtype)
    for n in range(1, 70):
        for offset in range(min(n, 16)):
            for v in _special_floats(dtype):
                x = base[:n].copy()
                x[offset] = v
                with np.errstate(invalid="ignore"):
                    want = np.where(x <= 0, dtype(0), x)
                got = T.relu(T.Tensor(x)).data
                assert got.tobytes() == want.tobytes(), (n, offset, x[offset : offset + 1].tobytes())


@pytest.mark.parametrize("seed", range(3))
def test_linear_matches_loop_oracle(seed):
    rng = SplitMix64(3000 + seed)
    x, w, b = _rand(rng, (4, 6)), _rand(rng, (6, 5)), _rand(rng, (5,))
    got = T.linear(T.Tensor(x), T.Tensor(w), T.Tensor(b))
    assert np.allclose(got.data, linear_ref(x, w, b), atol=1e-12)


def test_linear_shape_errors():
    with pytest.raises(ShapeError):
        T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5))), T.Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 5))), T.Tensor(np.zeros(4)))


def test_flatten_row_major_and_roundtrip():
    x = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
    t = T.Tensor(x, requires_grad=True)
    y = t.reshape(2, -1)
    assert y.shape == (2, 12)
    assert np.array_equal(y.data[0], x[0].reshape(-1))
    (y * T.Tensor(np.ones_like(y.data))).sum().backward()
    assert t.grad.shape == x.shape


def test_concat_channels_order_and_split_gradient():
    rng = SplitMix64(9)
    a = T.Tensor(_rand(rng, (2, 2, 3, 3)), requires_grad=True)
    b = T.Tensor(_rand(rng, (2, 5, 3, 3)), requires_grad=True)
    c = T.Tensor(_rand(rng, (2, 1, 3, 3)), requires_grad=True)
    y = T.concat_channels([a, b, c])
    assert y.shape == (2, 8, 3, 3)
    assert np.array_equal(y.data[:, 0:2], a.data)
    assert np.array_equal(y.data[:, 2:7], b.data)
    assert np.array_equal(y.data[:, 7:8], c.data)
    scale = T.Tensor(np.concatenate([np.full((2, 2, 3, 3), 1.0), np.full((2, 5, 3, 3), 2.0),
                                     np.full((2, 1, 3, 3), 3.0)], axis=1))
    (y * scale).sum().backward()
    assert np.allclose(a.grad, 1.0) and np.allclose(b.grad, 2.0) and np.allclose(c.grad, 3.0)
    with pytest.raises(InputError):
        T.concat_channels([])
    with pytest.raises(ShapeError):
        T.concat_channels([a, T.Tensor(np.zeros((2, 2, 4, 3)))])


# -- batch normalization -----------------------------------------------------------


def test_batch_norm_train_normalizes_per_channel():
    rng = SplitMix64(21)
    x = _rand(rng, (4, 3, 5, 5)) * 3.0 + 7.0
    st = T.BatchNormState(3, np.float64)
    y = T.batch_norm2d(T.Tensor(x), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), st, "train")
    assert np.allclose(y.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    assert np.allclose(y.data.var(axis=(0, 2, 3)), 1.0, atol=1e-3)  # epsilon shifts it slightly
    # affine parameters are applied after normalization
    g, b = np.array([2.0, 0.5, 1.0]), np.array([1.0, -1.0, 0.0])
    st2 = T.BatchNormState(3, np.float64)
    y2 = T.batch_norm2d(T.Tensor(x), T.Tensor(g), T.Tensor(b), st2, "train")
    assert np.allclose(y2.data.mean(axis=(0, 2, 3)), b, atol=1e-10)


def test_batch_norm_running_stats_update_rule():
    rng = SplitMix64(22)
    x = _rand(rng, (2, 2, 4, 4))
    st = T.BatchNormState(2, np.float64)
    before_mean = st.running_mean.copy()
    before_var = st.running_var.copy()
    T.batch_norm2d(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), st, "train",
                   momentum=0.25)
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    assert np.allclose(st.running_mean, 0.75 * before_mean + 0.25 * mu, atol=1e-12)
    assert np.allclose(st.running_var, 0.75 * before_var + 0.25 * var, atol=1e-12)


def test_batch_norm_eval_uses_running_stats_and_keeps_them():
    st = T.BatchNormState(2, np.float64)
    st.running_mean[:] = [1.0, -2.0]
    st.running_var[:] = [4.0, 0.25]
    x = np.ones((1, 2, 2, 2))
    y = T.batch_norm2d(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), st, "eval",
                       epsilon=1e-12)
    assert np.allclose(y.data[0, 0], (1.0 - 1.0) / 2.0, atol=1e-6)
    assert np.allclose(y.data[0, 1], (1.0 + 2.0) / 0.5, atol=1e-6)
    assert np.array_equal(st.running_mean, [1.0, -2.0])  # eval never writes state


def _batch_norm_first_formula(x, gamma, beta, running_mean, running_var, mode, g,
                              momentum=0.1, epsilon=1e-5):
    """batch_norm2d as first written, with np.var, (x - mu) * inv and
    (gamma * xhat + beta).astype(dt): the output, the running stats after
    the call and the gradients of x, gamma and beta for output gradient g."""
    dt, axes = x.dtype, (0, 2, 3)
    rm, rv = running_mean.copy(), running_var.copy()
    if mode == "train":
        mu, var = x.mean(axis=axes, dtype=dt), x.var(axis=axes, dtype=dt)
        rm[:] = (1.0 - momentum) * rm + momentum * mu
        rv[:] = (1.0 - momentum) * rv + momentum * var
    else:
        mu, var = rm.astype(dt), rv.astype(dt)
    inv = (1.0 / np.sqrt(var + dt.type(epsilon))).astype(dt)
    xhat = (x - mu[None, :, None, None]) * inv[None, :, None, None]
    scale = (gamma * inv)[None, :, None, None]
    y = (gamma[None, :, None, None] * xhat + beta[None, :, None, None]).astype(dt)
    if mode == "eval":
        dx = (g * scale).astype(dt)
    else:
        g_mean = g.mean(axis=axes, keepdims=True, dtype=dt)
        gx_mean = (g * xhat).mean(axis=axes, keepdims=True, dtype=dt)
        dx = (scale * (g - g_mean - xhat * gx_mean)).astype(dt)
    return y, rm, rv, dx, (g * xhat).sum(axis=axes, dtype=dt), g.sum(axis=axes, dtype=dt)


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize(
    "dtypes",
    [(np.float32,) * 3, (np.float64,) * 3, (np.float32, np.float64, np.float32),
     (np.float32, np.float32, np.float64)],
    ids=["f32", "f64", "f64-gamma", "f64-beta"],
)
def test_batch_norm_bits_match_the_first_formula(mode, dtypes):
    # output, running stats and the three gradients, bit for bit; the input
    # dtype is the first of dtypes, then gamma's and beta's
    dtype, gamma_dtype, beta_dtype = dtypes
    for seed, shape in enumerate([(2, 3, 5, 5), (3, 4, 1, 7), (8, 30, 19, 19), (2, 16, 9, 9)]):
        rng = SplitMix64(4000 + seed)
        c = shape[1]
        x = (rng.normal(shape=shape) * (seed + 0.5) + 3.0 * seed).astype(dtype)
        gamma = rng.normal(shape=(c,)).astype(gamma_dtype)
        beta = rng.normal(shape=(c,)).astype(beta_dtype)
        g = rng.normal(shape=shape).astype(dtype)
        state = T.BatchNormState(c, dtype)
        state.running_mean[:] = rng.normal(shape=(c,))
        state.running_var[:] = rng.uniform(shape=(c,)) + 0.5
        want = _batch_norm_first_formula(x, gamma, beta, state.running_mean, state.running_var,
                                         mode, g)
        y = T.batch_norm2d(T.Tensor(x, requires_grad=True), T.Tensor(gamma, requires_grad=True),
                           T.Tensor(beta, requires_grad=True), state, mode)
        got = (y.data, state.running_mean, state.running_var, *(fn(g) for fn in y._grad_fns))
        for name, a, b in zip(["y", "mean", "var", "dx", "dgamma", "dbeta"], got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (seed, name)


def test_batch_norm_degenerate_batch_rejected():
    st = T.BatchNormState(2, np.float64)
    one = T.Tensor(np.zeros((1, 2, 1, 1)))
    with pytest.raises(UsageError):
        T.batch_norm2d(one, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), st, "train")
    # the same single-value batch is fine in eval mode
    T.batch_norm2d(one, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), st, "eval")


def test_batch_norm_parameter_validation():
    st = T.BatchNormState(2, np.float64)
    x = T.Tensor(np.zeros((2, 2, 2, 2)))
    g, b = T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
    with pytest.raises(ParameterError):
        T.batch_norm2d(x, g, b, st, "predict")
    with pytest.raises(ParameterError):
        T.batch_norm2d(x, g, b, st, "train", momentum=1.5)
    with pytest.raises(ParameterError):
        T.batch_norm2d(x, g, b, st, "train", epsilon=0.0)
    with pytest.raises(ShapeError):
        T.batch_norm2d(x, T.Tensor(np.ones(3)), b, st, "train")
    with pytest.raises(ShapeError):
        T.batch_norm2d(x, g, b, T.BatchNormState(5, np.float64), "train")


# -- dropout -------------------------------------------------------------------------


def test_dropout_eval_is_identity():
    x = T.Tensor(np.arange(12.0).reshape(3, 4))
    y = T.dropout(x, 0.5, "eval")
    assert np.array_equal(y.data, x.data)
    z = T.dropout(x, 0.0, "train")
    assert np.array_equal(z.data, x.data)


def test_dropout_train_mask_and_scaling():
    rng = SplitMix64(31)
    x = T.Tensor(np.ones((200, 200)))
    y = T.dropout(x, 0.3, "train", rng)
    kept = y.data != 0.0
    assert abs(kept.mean() - 0.7) < 0.01
    assert np.allclose(y.data[kept], 1.0 / 0.7)
    # expectation is preserved by the inverted scaling
    assert abs(y.data.mean() - 1.0) < 0.02


def test_dropout_determinism_and_validation():
    x = T.Tensor(np.ones((8, 8)))
    a = T.dropout(x, 0.5, "train", SplitMix64(5))
    b = T.dropout(x, 0.5, "train", SplitMix64(5))
    assert np.array_equal(a.data, b.data)
    with pytest.raises(ParameterError):
        T.dropout(x, 1.0, "train", SplitMix64(5))
    with pytest.raises(ParameterError):
        T.dropout(x, -0.1, "train", SplitMix64(5))
    with pytest.raises(UsageError):
        T.dropout(x, 0.5, "train")  # no generator supplied
    with pytest.raises(ParameterError):
        T.dropout(x, 0.5, "test", SplitMix64(5))


# -- softmax and loss ------------------------------------------------------------------


def test_softmax_rows_are_distributions():
    rng = SplitMix64(41)
    z = _rand(rng, (6, 3)) * 5
    p = T.softmax(T.Tensor(z))
    assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-12)
    assert (p.data > 0).all()
    # order preserved
    assert np.array_equal(p.data.argmax(axis=1), z.argmax(axis=1))


def test_softmax_extreme_logits_stay_finite():
    z = np.array([[1e4, 0.0, -1e4], [-1e4, -1e4, -1e4]])
    p = T.softmax(T.Tensor(z))
    assert np.isfinite(p.data).all()
    assert np.allclose(p.data.sum(axis=1), 1.0)
    assert np.allclose(p.data[1], 1.0 / 3.0)


def test_cross_entropy_known_values():
    # uniform logits over 3 classes -> loss is log(3) regardless of target
    z = T.Tensor(np.zeros((2, 3)))
    t = np.zeros((2, 3))
    t[0, 0] = t[1, 2] = 1.0
    loss = T.softmax_cross_entropy(z, T.Tensor(t))
    assert abs(loss.item() - np.log(3.0)) < 1e-12
    # matches the direct -log(softmax) computation on random instances
    for seed in range(5):
        rng = SplitMix64(500 + seed)
        zd = _rand(rng, (4, 3)) * 3
        td = np.zeros((4, 3))
        td[np.arange(4), [rng.randint(3) for _ in range(4)]] = 1.0
        e = np.exp(zd - zd.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        want = -np.log((p * td).sum(axis=1)).mean()
        got = T.softmax_cross_entropy(T.Tensor(zd), T.Tensor(td)).item()
        assert abs(got - want) < 1e-12


def test_cross_entropy_extreme_logits_stay_finite():
    z = np.array([[1e4, -1e4, 0.0]])
    t = np.array([[0.0, 1.0, 0.0]])
    loss = T.softmax_cross_entropy(T.Tensor(z), T.Tensor(t))
    assert np.isfinite(loss.item())
    assert abs(loss.item() - 2e4) < 1.0  # dominated by the logit gap


def test_cross_entropy_rejects_non_one_hot():
    z = T.Tensor(np.zeros((2, 3)))
    for bad in [np.full((2, 3), 1 / 3), np.zeros((2, 3)),
                np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])]:
        with pytest.raises(InputError):
            T.softmax_cross_entropy(z, T.Tensor(bad))
    with pytest.raises(ShapeError):
        T.softmax_cross_entropy(z, T.Tensor(np.zeros((2, 4))))


# -- graph/backward semantics ------------------------------------------------------------


def test_backward_requires_scalar():
    t = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(UsageError):
        (t * 2.0).backward()


def test_backward_without_reset_is_an_error():
    t = T.Tensor(np.ones(4), requires_grad=True)
    loss = (t * 3.0).sum()
    loss.backward()
    assert np.allclose(t.grad, 3.0)
    loss2 = (t * 3.0).sum()
    with pytest.raises(UsageError):
        loss2.backward()  # t.grad still set
    t.zero_grad()
    loss3 = (t * 3.0).sum()
    loss3.backward()
    assert np.allclose(t.grad, 3.0)  # fresh accumulation, not doubled


def _small_graph():
    """Leaves and the inner nodes of a conv -> batch norm -> relu -> pool ->
    linear -> cross-entropy graph over a constant input."""
    rng = SplitMix64(31)
    w = T.Tensor(_rand(rng, (4, 3, 3, 3)), requires_grad=True)
    gamma = T.Tensor(np.ones(4), requires_grad=True)
    beta = T.Tensor(np.zeros(4), requires_grad=True)
    fc_w = T.Tensor(_rand(rng, (4, 3)), requires_grad=True)
    fc_b = T.Tensor(np.zeros(3), requires_grad=True)
    x = T.Tensor(_rand(rng, (2, 3, 6, 6)))
    z = T.conv2d(x, w, padding=1)
    h = T.relu(T.batch_norm2d(z, gamma, beta, T.BatchNormState(4, np.float64), "train"))
    logits = T.linear(T.global_avg_pool(h), fc_w, fc_b)
    targets = T.Tensor(np.eye(3)[[0, 2]])
    loss = T.softmax_cross_entropy(logits, targets)
    return (w, gamma, beta, fc_w, fc_b), (z, h, logits, loss), targets


def test_backward_keeps_leaf_gradients_and_releases_inner_nodes():
    leaves, inner, _ = _small_graph()
    data = [t.data.copy() for t in inner]
    inner[-1].backward()
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape
    for node, before in zip(inner, data):
        assert node.grad is None and not node._parents and not node._grad_fns
        assert np.array_equal(node.data, before)


def test_backward_through_a_released_graph_is_an_error():
    leaves, (_, _, logits, loss), targets = _small_graph()
    loss.backward()
    for leaf in leaves:
        leaf.zero_grad()
    # the leaves hold no gradient now; the released nodes alone refuse
    with pytest.raises(UsageError):
        loss.backward()
    with pytest.raises(UsageError):
        T.softmax_cross_entropy(logits, targets).backward()
    assert all(leaf.grad is None for leaf in leaves)


def test_desk_train_step_holds_one_graph_at_a_time():
    # one batch-8 step of the whole desk model while the previous step's
    # loss and logits are still referenced, as in a training loop; a graph
    # kept alive to the end of its step peaked at 42.7 MB, the released
    # walk with no kept columns at about 18 MB
    model = build_model(desk_backbone(), HeadConfig(), seed=0)
    x = T.Tensor(SplitMix64(1).normal(shape=(8, 3, 75, 75)).astype(np.float32))
    y = T.Tensor(np.eye(3, dtype=np.float32)[np.arange(8) % 3])
    rng = SplitMix64(2)

    def step():
        model.zero_grad()
        logits = model.run(x, mode="train", rng=rng)
        loss = T.softmax_cross_entropy(logits, y)
        loss.backward()
        return logits, loss

    previous = step()
    _, peak = _peak_bytes(step)
    assert previous[1].grad is None
    assert peak < 25e6, peak


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda t: t * 3.0 + t * 5.0, 8.0),  # two paths through two ops
        (lambda t: t * t, 4.0),  # one op with t on both sides: d(t^2) = 2t
        (lambda t: t + t, 2.0),
    ],
    ids=["two_ops", "mul_self", "add_self"],
)
def test_gradient_accumulates_within_one_backward(build, expected):
    # a tensor used twice receives the sum of both contributions
    t = T.Tensor(np.array([2.0]), requires_grad=True)
    build(t).sum().backward()
    assert np.allclose(t.grad, expected)


def test_no_grad_inputs_build_no_graph():
    x = T.Tensor(np.ones((1, 2, 4, 4)))
    w = T.Tensor(np.ones((2, 2, 3, 3)))
    y = T.conv2d(x, w, T.Tensor(np.zeros(2)), padding=1)
    assert not y.requires_grad
    assert y._parents == ()
    assert y._grad_fns == ()


def test_constant_input_keeps_only_trainable_edges():
    x = T.Tensor(np.ones((1, 2, 4, 4)))
    w = T.Tensor(np.ones((2, 2, 3, 3)), requires_grad=True)
    b = T.Tensor(np.zeros(2), requires_grad=True)
    y = T.conv2d(x, w, b, padding=1)
    assert y.requires_grad
    assert y._parents == (w, b)  # edges in input order, x dropped
    assert len(y._grad_fns) == 2
    y.sum().backward()
    assert x.grad is None
    assert w.grad is not None and b.grad is not None
    assert T.conv2d(x, w, padding=1)._parents == (w,)  # no bias, no bias edge


def test_frozen_branch_gets_no_gradient():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    w = T.Tensor(np.ones((2, 2)))  # frozen: requires_grad False
    y = T.linear(x, w, T.Tensor(np.zeros(2)))
    y.sum().backward()
    assert x.grad is not None
    assert w.grad is None


def test_float32_default_and_float64_opt_in():
    t = T.Tensor([1.0, 2.0])
    assert t.dtype == np.float32
    t64 = T.Tensor([1.0, 2.0], dtype=np.float64)
    assert t64.dtype == np.float64
    y = T.relu(t64)
    assert y.dtype == np.float64
    # the "f32"/"f64" names are gone, and "f16" is numpy's float128
    for dtype in ("f16", "f32", "f64", "no-such-dtype", np.float16, np.int32):
        with pytest.raises(ParameterError):
            T.Tensor([1.0], dtype=dtype)


def test_parameter_trainable_toggle():
    p = T.Parameter("head.fc1.weight", T.Tensor(np.ones((2, 2))), trainable=True)
    assert p.trainable and p.requires_grad
    y = T.linear(T.Tensor(np.ones((1, 2))), p, T.Tensor(np.zeros(2)))
    y.sum().backward()
    assert p.grad is not None
    p.trainable = False
    assert p.grad is None and not p.requires_grad
