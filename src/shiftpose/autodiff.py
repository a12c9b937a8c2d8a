"""Dense-tensor reverse-mode differentiation on numpy arrays.

Activations travel as rank-4 arrays in (batch, channel, height, width)
order; parameters are rank-1/2/4. Every forward operation records a
closure that propagates gradients to its inputs, and ``Tensor.backward``
replays those closures in reverse topological order exactly once.

Channel contractions run as BLAS matrix products, in an order that is
fixed for a given BLAS build and thread count; other reductions run in
numpy's fixed internal order. So repeated backward passes from the same
loss produce bit-identical gradients.
There is no general broadcasting: each op accepts exactly the shapes it
documents and raises :class:`DimensionError` otherwise.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ConfigError, DimensionError

__all__ = [
    "Tensor",
    "Parameter",
    "tensor",
    "add",
    "mul",
    "relu",
    "sigmoid",
    "softplus",
    "conv1x1",
    "conv2d",
    "batch_norm",
    "group_norm",
    "max_pool2d",
    "upsample_nearest2x",
    "spatial_sum",
    "spatial_div",
    "sum_all",
    "mse_loss",
    "bilinear_sample",
    "conv_out_size",
]


class Tensor:
    """A numpy array plus the tape bookkeeping for reverse-mode autodiff.

    ``grad`` is accumulated for every tensor with ``requires_grad`` that
    lies on the path of a backward pass, including intermediates, so
    analyses can read gradients at arbitrary points of a forward graph.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None, _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = tuple(_parents)
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, seed=None):
        """Propagate gradients from this tensor back to every input.

        ``seed`` is the upstream gradient; it defaults to 1 for scalar
        tensors (the usual loss case) and must be given explicitly for
        non-scalar roots (e.g. receptive-field probes).
        """
        if seed is None:
            if self.size != 1:
                raise ValueError("backward() without a seed requires a scalar tensor")
            seed = np.ones_like(self.data)
        seed = np.asarray(seed, dtype=self.dtype)
        if seed.shape != self.shape:
            raise DimensionError(
                f"seed: expected shape {self.shape}, got {seed.shape}")

        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads = {id(self): seed}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node._accumulate(g)
            if node._backward is None:
                continue
            for parent, pg in node._backward(g):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{tag})"


class Parameter(Tensor):
    """A trainable tensor; always differentiable, gradient buffer preallocated."""

    __slots__ = ()

    def __init__(self, data, name=None):
        super().__init__(np.array(data), requires_grad=True, name=name)
        self.grad = np.zeros_like(self.data)


def tensor(data, requires_grad=False, dtype=None, name=None):
    arr = np.asarray(data, dtype=dtype)
    if dtype is None and arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return Tensor(arr, requires_grad=requires_grad, name=name)


def _node(data, parents, backward, name=None):
    # requires_grad propagates so gradients are retained at every
    # intermediate; analyses read them at interior nodes of the graph.
    rg = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=rg, _parents=parents, _backward=backward, name=name)


def _check_rank4(x, op):
    if x.ndim != 4:
        raise DimensionError(f"{op}: expected a rank-4 (B,C,H,W) input, got rank {x.ndim}")


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def add(a, b):
    """Elementwise sum of two same-shape tensors (residual connections)."""
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} differ")

    def backward(g):
        return ((a, g), (b, g))

    return _node(a.data + b.data, (a, b), backward)


def mul(a, b):
    """Elementwise product of two same-shape tensors (attention gating)."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} differ")

    def backward(g):
        return ((a, g * b.data), (b, g * a.data))

    return _node(a.data * b.data, (a, b), backward)


_SMOOTHNESS = None


@contextlib.contextmanager
def trace_smoothness():
    """Record, while active, each relu's smallest distance from its kink
    (``"relu"``) and each normalization's smallest per-slice variance
    (``"var"``). Gradient-check case selection rejects inputs near a kink
    or with a near-zero variance, whose 1/sigma curvature defeats finite
    differencing. Yields the dict of lists being filled."""
    global _SMOOTHNESS
    prev, _SMOOTHNESS = _SMOOTHNESS, {"relu": [], "var": []}
    try:
        yield _SMOOTHNESS
    finally:
        _SMOOTHNESS = prev


def relu(x):
    if _SMOOTHNESS is not None:
        _SMOOTHNESS["relu"].append(float(np.abs(x.data).min()))
    mask = x.data > 0
    def backward(g):
        return ((x, g * mask),)
    # np.maximum (not where/mask) so non-finite inputs propagate to the
    # training guard instead of being silently clamped to zero
    return _node(np.maximum(x.data, 0), (x,), backward)


def sigmoid(x):
    out = _sigmoid_raw(x.data)
    def backward(g):
        return ((x, g * out * (1.0 - out)),)
    return _node(out, (x,), backward)


def softplus(x):
    # log(1 + exp(x)) via logaddexp for overflow safety
    out = np.logaddexp(np.zeros((), dtype=x.dtype), x.data)
    def backward(g):
        return ((x, g * _sigmoid_raw(x.data)),)
    return _node(out, (x,), backward)


def _sigmoid_raw(v):
    return 0.5 * (1.0 + np.tanh(0.5 * v))


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def _contract(op, x, cols, weight, bias, fold=None):
    """The channel contraction out[b,k] = sum_c w[k,c] cols[b,c] (+ bias[k])
    as a tape node over ``x``, ``weight`` and ``bias``.

    ``cols`` is ``x``'s data or, for a spatial kernel, its patches
    flattened to (B, C*kh*kw, Ho, Wo); ``weight`` is flattened to (K, -1)
    to match, and ``fold`` maps the gradient of ``cols`` back onto ``x``.
    Each product is one batched GEMM over (B, C, Ho*Wo).
    """
    k = weight.shape[0]
    b, c, h, w = cols.shape
    w2 = weight.data.reshape(k, c)
    cols3 = cols.reshape(b, c, h * w)
    # a non-finite operand is reported by the training guard; BLAS would
    # add a warning of its own
    with np.errstate(invalid="ignore", over="ignore"):
        out = (w2 @ cols3).reshape(b, k, h, w)
    parents = [x, weight]
    if bias is not None:
        if bias.shape != (k,):
            raise DimensionError(f"{op}: bias: expected shape ({k},), got {bias.shape}")
        out += bias.data[None, :, None, None]
        parents.append(bias)

    def backward(g):
        g3 = g.reshape(b, k, h * w)
        with np.errstate(invalid="ignore", over="ignore"):
            gcols = (w2.T @ g3).reshape(b, c, h, w)
            gw = (g3 @ cols3.transpose(0, 2, 1)).sum(axis=0)
            grads = [
                (x, gcols if fold is None else fold(gcols)),
                (weight, gw.reshape(weight.shape)),
            ]
            if bias is not None:
                grads.append((bias, g.sum(axis=(0, 2, 3))))
            return grads

    return _node(out, parents, backward)


def conv1x1(x, weight, bias=None):
    """Pointwise convolution: out[b,k] = sum_c weight[k,c] * x[b,c] (+ bias[k]).

    ``weight`` has shape (K, C); this is the channel-mixing primitive the
    shifting module is built from.
    """
    _check_rank4(x, "conv1x1")
    if weight.ndim != 2:
        raise DimensionError(f"conv1x1: weight must be rank-2 (K,C), got {weight.shape}")
    if weight.shape[1] != x.shape[1]:
        raise DimensionError(
            f"conv1x1: channels: weight expects C={weight.shape[1]}, input has C={x.shape[1]}")
    return _contract("conv1x1", x, x.data, weight, bias)


def conv_out_size(size, kernel, stride, padding):
    """Output length of a conv/pool axis: floor semantics after padding."""
    return (size + 2 * padding - kernel) // stride + 1


def _patches(op, x, kh, kw, stride, padding, fill=0):
    """The (B, C, kh, kw, Ho, Wo) patches of ``x`` padded with ``fill``, and
    their adjoint ``fold``: it scatter-adds a tensor of that size back
    onto the unpadded (B, C, H, W) input."""
    b, c, h, w = x.shape
    if (kh, kw, stride, padding) == (1, 1, 1, 0):
        # each patch is one input cell: no copy, and fold is a reshape
        return x[:, :, None, None], lambda gcols: gcols.reshape(b, c, h, w)
    ho = conv_out_size(h, kh, stride, padding)
    wo = conv_out_size(w, kw, stride, padding)
    if ho < 1 or wo < 1:
        raise DimensionError(f"{op}: spatial: {h}x{w} too small for kernel {kh}x{kw}")
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=fill)
    cols = np.empty((b, c, kh, kw, ho, wo), dtype=x.dtype)
    windows = [(i, j, (slice(None), slice(None), slice(i, i + stride * ho, stride),
                       slice(j, j + stride * wo, stride)))
               for i in range(kh) for j in range(kw)]
    for i, j, window in windows:
        cols[:, :, i, j] = xp[window]
    padded_shape, dtype = xp.shape, x.dtype

    def fold(gcols):
        gcols = gcols.reshape(b, c, kh, kw, ho, wo)
        gxp = np.zeros(padded_shape, dtype=dtype)
        for i, j, window in windows:
            gxp[window] += gcols[:, :, i, j]
        return gxp[:, :, padding:padding + h, padding:padding + w]

    return cols, fold


def conv2d(x, weight, stride=1, padding=0, bias=None):
    """2-D convolution with a (K, C, kh, kw) kernel, zero padding."""
    _check_rank4(x, "conv2d")
    if weight.ndim != 4:
        raise DimensionError(f"conv2d: weight must be rank-4 (K,C,kh,kw), got {weight.shape}")
    _, c, kh, kw = weight.shape
    if c != x.shape[1]:
        raise DimensionError(
            f"conv2d: channels: weight expects C={c}, input has C={x.shape[1]}")
    cols, fold = _patches("conv2d", x.data, kh, kw, stride, padding)
    b, _, _, _, ho, wo = cols.shape
    return _contract("conv2d", x, cols.reshape(b, c * kh * kw, ho, wo), weight, bias, fold)


def max_pool2d(x, kernel=3, stride=2, padding=1):
    """Max pooling; ties go to the first window cell in row-major order."""
    _check_rank4(x, "max_pool2d")
    cols, fold = _patches("max_pool2d", x.data, kernel, kernel, stride, padding,
                          fill=np.finfo(x.dtype).min)
    b, c, _, _, ho, wo = cols.shape
    flat = cols.reshape(b, c, kernel * kernel, ho, wo)
    arg = flat.argmax(axis=2)[:, :, None]
    out = np.take_along_axis(flat, arg, axis=2)[:, :, 0]
    flat_shape = flat.shape

    def backward(g):
        gflat = np.zeros(flat_shape, dtype=x.dtype)
        np.put_along_axis(gflat, arg, g[:, :, None], axis=2)
        return ((x, fold(gflat)),)

    return _node(out, (x,), backward)


def upsample_nearest2x(x):
    """Nearest-neighbour 2x upsampling; backward sums each 2x2 cell."""
    _check_rank4(x, "upsample_nearest2x")
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def backward(g):
        b, c, h2, w2 = g.shape
        gx = g.reshape(b, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))
        return ((x, gx),)

    return _node(out, (x,), backward)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

EPS = 1e-5


def _normalize(op, x, gamma, beta, view, axes, eps, stats=None):
    """gamma * xhat + beta as a tape node, where xhat normalizes ``x``
    reshaped to ``view`` over ``axes``. ``stats`` fixes (mean, var) in
    the keep-dims shape of that reduction; without it they are taken from
    ``x`` and differentiated through. Returns the node, mean and var."""
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"{op}: channels: scale/offset need shape ({c},), "
            f"got {gamma.shape}/{beta.shape}")
    xv = x.data.reshape(view)
    if stats is None:
        mean = xv.mean(axis=axes, keepdims=True)
        var = xv.var(axis=axes, keepdims=True)
    else:
        mean, var = stats
    if _SMOOTHNESS is not None:
        _SMOOTHNESS["var"].append(float(var.min()))
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = ((xv - mean) * inv_std).reshape(x.shape)
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(g):
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        gxhat = (g * gamma.data[None, :, None, None]).reshape(view)
        if stats is not None:
            gx = gxhat * inv_std
        else:
            xhatv = xhat.reshape(view)
            n = xhatv.size // inv_std.size
            s1 = gxhat.sum(axis=axes, keepdims=True)
            s2 = (gxhat * xhatv).sum(axis=axes, keepdims=True)
            gx = (gxhat - s1 / n - xhatv * s2 / n) * inv_std
        return ((x, gx.reshape(x.shape)), (gamma, ggamma), (beta, gbeta))

    return _node(out, (x, gamma, beta), backward), mean, var


def batch_norm(x, gamma, beta, running_mean, running_var, mode, momentum=0.1, eps=EPS):
    """Per-channel batch normalization.

    ``running_mean``/``running_var`` are plain numpy arrays owned by the
    layer; train mode updates them in place with an exponential moving
    average (biased variance, matching the statistics used to normalize).
    """
    _check_rank4(x, "batch_norm")
    if mode not in ("train", "eval"):
        raise ValueError(f"batch_norm: unknown mode {mode!r}")
    stats = None
    if mode == "eval":
        stats = tuple(s.astype(x.dtype)[None, :, None, None]
                      for s in (running_mean, running_var))
    out, mean, var = _normalize("batch_norm", x, gamma, beta, x.shape, (0, 2, 3),
                                eps, stats)
    if mode == "train":
        running_mean += momentum * (mean.ravel() - running_mean)
        running_var += momentum * (var.ravel() - running_var)
    return out


def group_norm(x, gamma, beta, groups, eps=EPS):
    """Group normalization over (channels/groups, H, W) slices per sample."""
    _check_rank4(x, "group_norm")
    b, c, h, w = x.shape
    if c % groups != 0:
        raise ConfigError("group_norm.groups", f"{groups} does not divide {c} channels")
    return _normalize("group_norm", x, gamma, beta, (b, groups, c // groups, h, w),
                      (2, 3, 4), eps)[0]


def default_groups(channels):
    """Group count for group-norm: 32, clamped to the channel count when smaller."""
    return min(32, channels)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def spatial_sum(x):
    """Sum over H and W, keeping dims: (B,C,H,W) -> (B,C,1,1)."""
    _check_rank4(x, "spatial_sum")
    h, w = x.shape[2], x.shape[3]

    def backward(g):
        return ((x, np.broadcast_to(g, x.shape).copy()),)

    return _node(x.data.sum(axis=(2, 3), keepdims=True), (x,), backward)


def spatial_div(x, denom):
    """Divide (B,C,H,W) by a per-(b,c) scalar field (B,C,1,1)."""
    _check_rank4(x, "spatial_div")
    if denom.shape != (x.shape[0], x.shape[1], 1, 1):
        raise DimensionError(
            f"spatial_div: denominator must be (B,C,1,1)={x.shape[:2] + (1, 1)}, "
            f"got {denom.shape}")
    inv = 1.0 / denom.data
    out = x.data * inv

    def backward(g):
        gx = g * inv
        gd = -(g * out * inv).sum(axis=(2, 3), keepdims=True)
        return ((x, gx), (denom, gd))

    return _node(out, (x, denom), backward)


def sum_all(x):
    def backward(g):
        return ((x, np.full(x.shape, g, dtype=x.dtype)),)
    return _node(np.asarray(x.data.sum(), dtype=x.dtype), (x,), backward)


def mse_loss(pred, target):
    """Mean squared error against a constant target array."""
    target = np.asarray(target, dtype=pred.dtype)
    if target.shape != pred.shape:
        raise DimensionError(
            f"mse_loss: target shape {target.shape} differs from prediction {pred.shape}")
    diff = pred.data - target
    n = diff.size

    def backward(g):
        return ((pred, (2.0 / n) * g * diff),)

    return _node(np.asarray((diff * diff).mean(), dtype=pred.dtype), (pred,), backward)


# ---------------------------------------------------------------------------
# bilinear sampling
# ---------------------------------------------------------------------------

def bilinear_sample(map2d, x, y):
    """Sample a 2-D map at real-valued (x, y); x indexes columns, y rows.

    The four enclosing grid values are blended with bilinear weights;
    grid points outside [0,H)x[0,W) contribute zero, so coordinates that
    fall fully out of view return 0.
    """
    arr = np.asarray(map2d)
    if arr.ndim != 2:
        raise DimensionError(f"bilinear_sample: expected a 2-D map, got rank {arr.ndim}")
    h, w = arr.shape
    x0 = int(np.floor(x))
    y0 = int(np.floor(y))
    fx = x - x0
    fy = y - y0

    def at(yy, xx):
        if 0 <= yy < h and 0 <= xx < w:
            return float(arr[yy, xx])
        return 0.0

    return ((1 - fy) * ((1 - fx) * at(y0, x0) + fx * at(y0, x0 + 1))
            + fy * ((1 - fx) * at(y0 + 1, x0) + fx * at(y0 + 1, x0 + 1)))
