"""Dense n-dimensional tensors with reverse-mode automatic differentiation.

Every forward operation that the classifier needs is implemented here as a
function over :class:`Tensor` that builds its result with :func:`_node`.
The node keeps an edge list: each input that requires a gradient, in input
order, as ``_parents``, and beside it in ``_grad_fns`` the function that
maps the result's gradient to that input's.  Gradients are exact (verified
against central finite differences in the test suite).  Float32 is the
default compute precision; every op also works in float64, which the
gradient checks use for tight tolerances.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, ParameterError, ShapeError, UsageError
from .rng import SplitMix64

GradFn = Callable[[np.ndarray], np.ndarray]

# the two compute precisions
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
# bound on the im2col columns conv2d copies at once; a chunk holds at least one sample
_COLUMN_BYTES = 1 << 20


def _as_dtype(dtype) -> np.dtype:
    try:
        dt = np.dtype(dtype)
    except (TypeError, ValueError):  # not a dtype numpy knows
        dt = None
    if dt is None or dt not in _FLOATS:  # `is None` first: a dtype compares equal to None
        raise ParameterError(f"unsupported dtype {dtype!r}; expected float32 or float64")
    return dt


class Tensor:
    """N-dimensional float array with optional gradient.

    ``data`` is a row-major numpy array (float32 by default).  When
    ``requires_grad`` is set, operations record the computation graph so
    that :meth:`backward` can accumulate ``grad`` on every reachable leaf.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fns")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            # arrays keep an explicit float dtype; everything else gets f32
            if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
                dtype = data.dtype
            else:
                dtype = np.float32
        arr = np.asarray(data)
        self.data = np.ascontiguousarray(arr, dtype=_as_dtype(dtype))
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fns: tuple[GradFn, ...] = ()

    # -- introspection -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, shape is {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff core -------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode accumulation from a scalar output.

        Leaves (tensors without edges, such as parameters) that require a
        gradient get ``grad``.  Each inner node is released once it has
        passed its gradient on: its ``grad`` and its edges are dropped, and
        with them the arrays its gradient functions kept, so the graph does
        not outlive the walk; ``data`` is left as it is.  Raises before any
        work if a reachable tensor already holds a gradient (reset it with
        ``zero_grad``) or is a node an earlier backward released, so a
        second backward through the same graph is an error, not a silent
        stop.
        """
        if self.data.size != 1:
            raise UsageError(f"backward() needs a scalar loss, shape is {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise UsageError("backward() reached a node an earlier backward released; "
                                 "run the forward again")
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents)
        for node in order:
            if node is not self and node.grad is not None:
                raise UsageError(
                    "a reachable tensor already holds a gradient; "
                    "reset grads (zero_grad) before calling backward again"
                )
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._parents:
                for parent, fn in zip(node._parents, node._grad_fns):
                    parent._accumulate(fn(node.grad))
                node.grad = node._parents = node._grad_fns = None

    # -- small composable ops (same-shape or scalar only) ---------------------

    def __add__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            return _node(self.data + self.data.dtype.type(other), (self, lambda g: g))
        _check_same_shape("add", self, other)
        return _node(self.data + other.data, (self, lambda g: g), (other, lambda g: g))

    def __mul__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            c = self.data.dtype.type(other)
            return _node(self.data * c, (self, lambda g: g * c))
        _check_same_shape("mul", self, other)
        a, b = self.data, other.data
        return _node(a * b, (self, lambda g: g * b), (other, lambda g: g * a))

    __radd__ = __add__
    __rmul__ = __mul__

    def sum(self) -> "Tensor":
        total = np.asarray(self.data.sum(), dtype=self.dtype).reshape(())
        return _node(total, (self, lambda g: np.broadcast_to(g, self.shape)))

    def mean(self) -> "Tensor":
        n = self.data.size
        avg = np.asarray(self.data.sum() / n, dtype=self.dtype).reshape(())
        return _node(avg, (self, lambda g: np.broadcast_to(g / n, self.shape).astype(self.dtype)))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return _node(self.data.reshape(shape), (self, lambda g: g.reshape(old)))


class Parameter(Tensor):
    """Named tensor of model weights; ``trainable`` is its ``requires_grad``,
    and turning it off drops the gradient."""

    __slots__ = ("name",)

    def __init__(self, name: str, data, trainable: bool = True):
        super().__init__(data, requires_grad=trainable)
        self.name = name

    @property
    def trainable(self) -> bool:
        return self.requires_grad

    @trainable.setter
    def trainable(self, flag: bool) -> None:
        self.requires_grad = bool(flag)
        if not flag:
            self.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, trainable={self.trainable})"


# -- graph bookkeeping ---------------------------------------------------------


def _node(data: np.ndarray, *edges: tuple[Tensor, GradFn]) -> Tensor:
    """Result tensor of an op over the inputs named by ``edges``.

    Each edge is ``(input, grad_fn)``, where ``grad_fn`` maps the result's
    gradient to the input's.  Edges whose input needs no gradient are
    dropped, so their functions never run; the rest keep input order,
    which fixes the order in which gradients are summed.
    """
    live = [(t, fn) for t, fn in edges if t.requires_grad]
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = bool(live)
    out._parents = tuple(t for t, _ in live)
    out._grad_fns = tuple(fn for _, fn in live)
    return out


def _check_same_shape(opname: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} differ")
    if a.dtype != b.dtype:
        raise ShapeError(f"{opname}: dtypes {a.dtype} and {b.dtype} differ")


def _pad_pair(padding) -> tuple[int, int]:
    if isinstance(padding, (tuple, list)):
        ph, pw = int(padding[0]), int(padding[1])
    else:
        ph = pw = int(padding)
    if ph < 0 or pw < 0:
        raise ParameterError(f"padding must be non-negative, got {padding}")
    return ph, pw


def _pad(a: np.ndarray, ph: int, pw: int, fill: float = 0.0) -> np.ndarray:
    """[N,C,H,W] ``a`` with ``ph`` rows and ``pw`` columns of ``fill`` on each side."""
    if not (ph or pw):
        return a
    n, c, h, w = a.shape
    out = np.full((n, c, h + 2 * ph, w + 2 * pw), fill, dtype=a.dtype)
    out[:, :, ph : ph + h, pw : pw + w] = a
    return out


def _fold(tap: Callable, x: Tensor, kh: int, kw: int, stride: int, ph: int, pw: int) -> np.ndarray:
    """col2im: add each tap's [N,C,OH,OW] ``tap(i, j)`` in row-major order onto x's grid."""
    n, c, h, w = x.shape
    dxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    span_h, span_w = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1  # the window origins
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + span_h : stride, j : j + span_w : stride] += tap(i, j)
    return dxp[:, :, ph : ph + h, pw : pw + w]


# -- convolution ----------------------------------------------------------------


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride: int = 1,
           padding=0) -> Tensor:
    """Zero-padded cross-correlation of [N,C,H,W] with [O,C,kh,kw] filters.

    ``padding`` is an int or an (ph, pw) pair; the pair form exists for the
    factorized 1x7/7x1 branches, which pad one axis only.  Output extent is
    floor((H + 2*ph - kh) / stride) + 1 per axis.  Each sample is one GEMM
    of the [O, C*kh*kw] weights with its [C*kh*kw, OH*OW] columns, so a
    sample's result does not depend on the rest of the batch; the input
    gradient is one [C, O] @ [O, OH*OW] GEMM per kernel tap.  Without a
    ``bias`` the op adds nothing and builds no bias edge.
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(
            f"conv2d: input {x.shape} must be [N,C,H,W] and weight {weight.shape} [O,C,kh,kw]"
        )
    n, c, h, w = x.shape
    o, cw, kh, kw = weight.shape
    if c != cw:
        raise ShapeError(f"conv2d: input channels {x.shape} do not match weight {weight.shape}")
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"conv2d: bias {bias.shape} must be ({o},)")
    if stride < 1:
        raise ParameterError(f"conv2d: stride must be positive, got {stride}")
    ph, pw = _pad_pair(padding)
    if h + 2 * ph < kh or w + 2 * pw < kw:
        raise ShapeError(
            f"conv2d: padded input {(h + 2 * ph, w + 2 * pw)} smaller than kernel {(kh, kw)}"
        )

    xp = _pad(x.data, ph, pw)
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    # im2col: (N, C, kh, kw, OH, OW) view -> (C*kh*kw, OH*OW) columns per sample,
    # copied in chunks of whole samples; for a stride-1, unpadded 1x1 conv the view
    # is already contiguous and nothing is copied.  Backward keeps only the view
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    win = win.transpose(0, 1, 4, 5, 2, 3)
    wmat = weight.data.reshape(o, c * kh * kw)
    out_data = np.empty((n, o, oh * ow), dtype=np.result_type(wmat, xp))
    chunk = max(1, _COLUMN_BYTES // max(1, c * kh * kw * oh * ow * xp.itemsize))
    for s in range(0, n, chunk):
        cols = np.ascontiguousarray(win[s : s + chunk])
        np.matmul(wmat, cols.reshape(len(cols), c * kh * kw, oh * ow), out=out_data[s : s + chunk])

    def grad_x(g: np.ndarray) -> np.ndarray:
        # every tap's [C, O] @ [O, OH*OW] product goes into one array, so no tap maps new pages
        wt = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))  # [kh, kw, O, C]
        g, dtap = g.reshape(n, o, oh * ow), np.empty((n, c, oh * ow), np.result_type(wt, g))
        return _fold(lambda i, j: np.matmul(wt[i, j].T, g, out=dtap).reshape(n, c, oh, ow),
                     x, kh, kw, stride, ph, pw)

    def grad_weight(g: np.ndarray) -> np.ndarray:
        # add the per-sample products in batch order, as a batch sum would, into
        # one array; each sample's columns are copied from the view as the forward did
        dw = np.zeros((o, c * kh * kw), dtype=np.result_type(g, xp))
        for gi, wi in zip(g.reshape(n, o, oh * ow), win):
            dw += gi @ np.ascontiguousarray(wi).reshape(c * kh * kw, oh * ow).T
        return dw.reshape(o, c, kh, kw)

    edges = [(x, grad_x), (weight, grad_weight)]
    if bias is not None:  # in place, after any promotion, so no second output is made
        out_data = out_data.astype(np.result_type(out_data, bias.data), copy=False)
        out_data += bias.data[:, None]
        edges.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return _node(out_data.reshape(n, o, oh, ow), *edges)


# -- pooling ---------------------------------------------------------------------


def pool2d(x: Tensor, kind: str, k: int, stride: int, padding: int = 0) -> Tensor:
    """Windowed max or mean over [N,C,H,W].

    Max routes gradient to the argmax cell, ties to the lowest flat index
    inside the window.  ``padding`` (an extension used by the pooled
    projection branch) pads with -inf for max and with zeros, counted in
    the mean, for avg.
    """
    if kind not in ("max", "avg"):
        raise ParameterError(f"pool2d: kind must be 'max' or 'avg', got {kind!r}")
    if x.data.ndim != 4:
        raise ShapeError(f"pool2d: input {x.shape} must be [N,C,H,W]")
    if k < 1 or stride < 1:
        raise ParameterError(f"pool2d: k and stride must be positive, got k={k} stride={stride}")
    n, c, h, w = x.shape
    ph, pw = _pad_pair(padding)
    hp, wp = h + 2 * ph, w + 2 * pw
    if k > hp or k > wp:
        raise ShapeError(f"pool2d: window {k} exceeds padded input {(hp, wp)}")
    xp = _pad(x.data, ph, pw, -np.inf if kind == "max" else 0.0)
    oh = (hp - k) // stride + 1
    ow = (wp - k) // stride + 1

    if kind == "max":
        win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
        flat = win.reshape(n, c, oh, ow, k * k)
        arg = flat.argmax(axis=-1)  # first occurrence == lowest flat index
        out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    else:
        out_data = _window_mean(xp, k, stride, oh, ow)

    def grad_x(g: np.ndarray) -> np.ndarray:
        if kind == "avg":
            share = g / (k * k)
            return _fold(lambda i, j: share, x, k, k, stride, ph, pw)
        dxp = np.zeros((n, c, hp, wp), dtype=x.dtype)
        nn, cc, ii, jj = np.ogrid[:n, :c, :oh, :ow]
        np.add.at(dxp, (nn, cc, ii * stride + arg // k, jj * stride + arg % k), g)
        return dxp[:, :, ph : ph + h, pw : pw + w]

    return _node(np.ascontiguousarray(out_data), (x, grad_x))


def _window_mean(xp: np.ndarray, k: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Mean of every k x k window of [N,C,H,W] ``xp``, as [N,C,OH,OW].

    The sum runs in place in the output: the window's first shifted,
    strided slice of ``xp`` is copied in, the other k*k - 1 are added in
    row-major window order, and the sum is divided by k*k once.  No window
    copy is made.
    """
    n, c = xp.shape[:2]
    out = np.empty((n, c, oh, ow), dtype=xp.dtype)
    span_h, span_w = stride * (oh - 1) + 1, stride * (ow - 1) + 1
    out[...] = xp[:, :, :span_h:stride, :span_w:stride]
    for t in range(1, k * k):
        i, j = divmod(t, k)
        out += xp[:, :, i : i + span_h : stride, j : j + span_w : stride]
    out /= k * k
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean: [N,C,H,W] -> [N,C]."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: input {x.shape} must be [N,C,H,W]")
    n, c, h, w = x.shape
    return _node(
        x.data.mean(axis=(2, 3), dtype=x.dtype),
        (x, lambda g: np.broadcast_to((g / (h * w))[:, :, None, None], (n, c, h, w))),
    )


# -- elementwise and shaping ------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, v); subgradient at 0 is 0.  A NaN passes through,
    so a non-finite input still reaches the loss.  The argument order
    matters: maximum(v, 0) returns v's own NaN bits, and +0.0 for -0.0."""
    xd = x.data
    return _node(np.maximum(xd, 0), (x, lambda g: g * (xd > 0)))


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map [N,F] @ [F,M] + [M].  Each row is its own [1,F] @ [F,M]
    product, so a row's result does not depend on the rest of the batch."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"linear: input {x.shape} and weight {weight.shape} must be rank 2")
    n, f = x.shape
    fw, m = weight.shape
    if f != fw:
        raise ShapeError(f"linear: inner dims differ, input {x.shape} vs weight {weight.shape}")
    if bias.shape != (m,):
        raise ShapeError(f"linear: bias {bias.shape} must be ({m},)")
    xd, wd = x.data, weight.data
    return _node(
        np.matmul(xd[:, None, :], wd)[:, 0, :] + bias.data,
        (x, lambda g: g @ wd.T),
        (weight, lambda g: xd.T @ g),
        (bias, lambda g: g.sum(axis=0)),
    )


def concat_channels(xs: Iterable[Tensor]) -> Tensor:
    """Concatenate [N,Ci,H,W] tensors along the channel axis, in order."""
    xs = list(xs)
    if not xs:
        raise InputError("concat_channels: need at least one input")
    base = xs[0]
    for t in xs[1:]:
        if t.data.ndim != 4 or base.data.ndim != 4:
            raise ShapeError("concat_channels: inputs must be [N,C,H,W]")
        if (t.shape[0], t.shape[2], t.shape[3]) != (base.shape[0], base.shape[2], base.shape[3]):
            raise ShapeError(
                f"concat_channels: spatial/batch dims differ, {base.shape} vs {t.shape}"
            )
    ends = list(accumulate(t.shape[1] for t in xs))
    return _node(
        np.concatenate([t.data for t in xs], axis=1),
        *((t, lambda g, s=e - t.shape[1], e=e: g[:, s:e]) for t, e in zip(xs, ends)),
    )


def dropout(x: Tensor, p: float, mode: str, rng: Optional[SplitMix64] = None) -> Tensor:
    """Inverted dropout: train mode zeroes with prob p and scales kept
    values by 1/(1-p); eval mode is the identity."""
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout: rate must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ParameterError(f"dropout: mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise UsageError("dropout: train mode with p > 0 needs an explicit generator")
    keep = (rng.uniform(shape=x.shape) >= p).astype(x.dtype)
    scale = x.dtype.type(1.0 / (1.0 - p))
    return _node(x.data * keep * scale, (x, lambda g: g * keep * scale))


# -- batch normalization -----------------------------------------------------------


class BatchNormState:
    """Running per-channel statistics owned by one normalization layer."""

    __slots__ = ("running_mean", "running_var")

    def __init__(self, channels: int, dtype=np.float32):
        self.running_mean = np.zeros(channels, dtype=_as_dtype(dtype))
        self.running_var = np.ones(channels, dtype=_as_dtype(dtype))


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    mode: str,
    momentum: float = 0.1,
    epsilon: float = 1e-5,
) -> Tensor:
    """Per-channel normalization of [N,C,H,W] with learned scale and shift.

    Train mode normalizes by the biased batch statistics and folds them
    into ``state`` as ``(1-momentum)*running + momentum*batch``; eval mode
    normalizes by the running statistics and leaves ``state`` untouched.
    A train-mode batch with fewer than 2 values per channel has no usable
    variance and raises.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm2d: input {x.shape} must be [N,C,H,W]")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batch_norm2d: gamma {gamma.shape} and beta {beta.shape} must be ({c},)"
        )
    if state.running_mean.shape != (c,):
        raise ShapeError(
            f"batch_norm2d: state holds {state.running_mean.shape[0]} channels, input has {c}"
        )
    if mode not in ("train", "eval"):
        raise ParameterError(f"batch_norm2d: mode must be 'train' or 'eval', got {mode!r}")
    if not 0.0 <= momentum <= 1.0:
        raise ParameterError(f"batch_norm2d: momentum must be in [0, 1], got {momentum}")
    if epsilon <= 0.0:
        raise ParameterError(f"batch_norm2d: epsilon must be positive, got {epsilon}")

    dt = x.dtype
    if mode == "train":
        m = n * h * w
        if m < 2:
            raise UsageError(
                f"batch_norm2d: train mode needs >= 2 values per channel, batch gives {m}"
            )
        mu = x.data.mean(axis=(0, 2, 3), dtype=dt)
        xhat = x.data - mu[None, :, None, None]
        # np.var's own steps on the centred input, so var keeps its bits
        var = np.square(xhat).mean(axis=(0, 2, 3), dtype=dt)
        state.running_mean[:] = (1.0 - momentum) * state.running_mean + momentum * mu
        state.running_var[:] = (1.0 - momentum) * state.running_var + momentum * var
    else:
        mu = state.running_mean.astype(dt)
        var = state.running_var.astype(dt)
        xhat = x.data - mu[None, :, None, None]
    inv = (1.0 / np.sqrt(var + dt.type(epsilon))).astype(dt)
    xhat *= inv[None, :, None, None]
    scale = (gamma.data * inv)[None, :, None, None]

    def grad_x(g: np.ndarray) -> np.ndarray:
        if mode == "eval":
            return (g * scale).astype(dt)
        g_mean = g.mean(axis=(0, 2, 3), keepdims=True, dtype=dt)
        gx_mean = (g * xhat).mean(axis=(0, 2, 3), keepdims=True, dtype=dt)
        return (scale * (g - g_mean - xhat * gx_mean)).astype(dt)

    y = gamma.data[None, :, None, None] * xhat
    y += beta.data[None, :, None, None]
    return _node(
        y.astype(dt, copy=False),
        (x, grad_x),
        (gamma, lambda g: (g * xhat).sum(axis=(0, 2, 3), dtype=dt)),
        (beta, lambda g: g.sum(axis=(0, 2, 3), dtype=dt)),
    )


# -- classification head ops -------------------------------------------------------


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax over [N,K], max-shifted for stability."""
    if logits.data.ndim != 2 or logits.shape[1] < 1:
        raise ShapeError(f"softmax: input {logits.shape} must be [N,K] with K >= 1")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    return _node(
        p.astype(logits.dtype), (logits, lambda g: p * (g - (g * p).sum(axis=1, keepdims=True)))
    )


def softmax_cross_entropy(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean over the batch of -log softmax(logits)[true class].

    Fused with softmax through log-sum-exp, so the loss is finite for any
    finite logits and the gradient is (softmax - target) / N.  Targets must
    be one-hot rows and are treated as constants.
    """
    if logits.shape != targets.shape or logits.data.ndim != 2:
        raise ShapeError(
            f"softmax_cross_entropy: logits {logits.shape} and targets {targets.shape} "
            "must both be [N,K]"
        )
    t = targets.data
    if not (np.isin(t, (0.0, 1.0)).all() and (t.sum(axis=1) == 1.0).all()):
        raise InputError("softmax_cross_entropy: each target row must be one-hot")
    n = logits.shape[0]
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    total = e.sum(axis=1, keepdims=True)
    loss = (m[:, 0] + np.log(total[:, 0]) - (z * t).sum(axis=1)).mean(dtype=logits.dtype)
    return _node(
        np.asarray(loss, dtype=logits.dtype).reshape(()),
        (logits, lambda g: (g * (e / total - t) / n).astype(logits.dtype)),
    )


# -- verification --------------------------------------------------------------------


def gradient_check(
    f: Callable[[Tensor], Tensor], point: Tensor, eps: Optional[float] = None
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be deterministic and scalar-valued.  Per coordinate the
    numeric derivative is (f(x+eps) - f(x-eps)) / (2 eps) and the error is
    |analytic - numeric| / max(1, |numeric|); the max over coordinates is
    returned.
    """
    if eps is None:
        eps = 1e-2 if point.dtype == np.float32 else 1e-5

    x = Tensor(point.data.copy(), requires_grad=True)
    out = f(x)
    out.backward()
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)

    base = point.data.copy()
    flat = base.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(Tensor(base.copy())).item()
        flat[i] = orig - eps
        fm = f(Tensor(base.copy())).item()
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * eps)
        err = abs(float(analytic.reshape(-1)[i]) - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
