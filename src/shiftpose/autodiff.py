"""Dense-tensor reverse-mode differentiation on numpy arrays.

Activations travel as rank-4 arrays in (batch, channel, height, width)
order; parameters are rank-1/2/4. Every forward operation records a
closure that propagates gradients to its inputs, and ``Tensor.backward``
replays those closures in reverse topological order exactly once.

Reductions always run in numpy's fixed internal order, so repeated
backward passes from the same loss produce bit-identical gradients.
There is no general broadcasting: each op accepts exactly the shapes it
documents and raises :class:`DimensionError` otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "Tensor",
    "Parameter",
    "tensor",
    "add",
    "mul",
    "scale",
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

    def item(self):
        return float(self.data)

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


def scale(a, factor):
    factor = float(factor)

    def backward(g):
        return ((a, g * factor),)

    return _node(a.data * factor, (a,), backward)


_RELU_TRACE = None
_VAR_TRACE = None


def trace_relu_margins(store):
    """Record each relu's distance from its kink into ``store`` (a list);
    gradient-check case selection uses this to reject near-kink inputs.
    Returns a context manager."""
    import contextlib

    @contextlib.contextmanager
    def ctx():
        global _RELU_TRACE
        prev, _RELU_TRACE = _RELU_TRACE, store
        try:
            yield store
        finally:
            _RELU_TRACE = prev

    return ctx()


def trace_norm_variances(store):
    """Record each normalization's smallest per-slice variance into
    ``store``; near-zero variances make the 1/sigma curvature large enough
    to defeat finite differencing, so check cases filter on this too."""
    import contextlib

    @contextlib.contextmanager
    def ctx():
        global _VAR_TRACE
        prev, _VAR_TRACE = _VAR_TRACE, store
        try:
            yield store
        finally:
            _VAR_TRACE = prev

    return ctx()


def relu(x):
    if _RELU_TRACE is not None:
        _RELU_TRACE.append(float(np.abs(x.data).min()))
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
    out = np.einsum("kc,bchw->bkhw", weight.data, x.data)
    parents = [x, weight]
    if bias is not None:
        if bias.shape != (weight.shape[0],):
            raise DimensionError(
                f"conv1x1: bias: expected shape ({weight.shape[0]},), got {bias.shape}")
        out += bias.data[None, :, None, None]
        parents.append(bias)

    def backward(g):
        grads = [
            (x, np.einsum("kc,bkhw->bchw", weight.data, g)),
            (weight, np.einsum("bkhw,bchw->kc", g, x.data)),
        ]
        if bias is not None:
            grads.append((bias, g.sum(axis=(0, 2, 3))))
        return grads

    return _node(out, parents, backward)


def conv_out_size(size, kernel, stride, padding):
    """Output length of a conv/pool axis: floor semantics after padding."""
    return (size + 2 * padding - kernel) // stride + 1


def _im2col(xp, kh, kw, stride, ho, wo):
    """View the padded input as (B, C, kh, kw, Ho, Wo) patch slices."""
    b, c = xp.shape[:2]
    cols = np.empty((b, c, kh, kw, ho, wo), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    return cols


def conv2d(x, weight, stride=1, padding=0, bias=None):
    """2-D convolution with a (K, C, kh, kw) kernel, zero padding."""
    _check_rank4(x, "conv2d")
    if weight.ndim != 4:
        raise DimensionError(f"conv2d: weight must be rank-4 (K,C,kh,kw), got {weight.shape}")
    k, c, kh, kw = weight.shape
    if c != x.shape[1]:
        raise DimensionError(
            f"conv2d: channels: weight expects C={c}, input has C={x.shape[1]}")
    b, _, h, w = x.shape
    ho = conv_out_size(h, kh, stride, padding)
    wo = conv_out_size(w, kw, stride, padding)
    if ho < 1 or wo < 1:
        raise DimensionError(f"conv2d: spatial: {h}x{w} too small for kernel {kh}x{kw}")
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = _im2col(xp, kh, kw, stride, ho, wo)
    out = np.einsum("kcij,bcijhw->bkhw", weight.data, cols)
    parents = [x, weight]
    if bias is not None:
        if bias.shape != (k,):
            raise DimensionError(f"conv2d: bias: expected shape ({k},), got {bias.shape}")
        out += bias.data[None, :, None, None]
        parents.append(bias)

    def backward(g):
        gw = np.einsum("bkhw,bcijhw->kcij", g, cols)
        gcols = np.einsum("kcij,bkhw->bcijhw", weight.data, g)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcols[:, :, i, j]
        gx = gxp[:, :, padding:padding + h, padding:padding + w]
        grads = [(x, gx), (weight, gw)]
        if bias is not None:
            grads.append((bias, g.sum(axis=(0, 2, 3))))
        return grads

    return _node(out, parents, backward)


def max_pool2d(x, kernel=3, stride=2, padding=1):
    """Max pooling; ties go to the first window cell in row-major order."""
    _check_rank4(x, "max_pool2d")
    b, c, h, w = x.shape
    ho = conv_out_size(h, kernel, stride, padding)
    wo = conv_out_size(w, kernel, stride, padding)
    pad_value = np.finfo(x.dtype).min
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=pad_value)
    cols = _im2col(xp, kernel, kernel, stride, ho, wo)
    flat = cols.reshape(b, c, kernel * kernel, ho, wo)
    arg = flat.argmax(axis=2)
    out = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]

    def backward(g):
        gxp = np.zeros_like(xp)
        for idx in range(kernel * kernel):
            i, j = divmod(idx, kernel)
            gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += g * (arg == idx)
        return ((x, gxp[:, :, padding:padding + h, padding:padding + w]),)

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


def batch_norm(x, gamma, beta, running_mean, running_var, mode, momentum=0.1, eps=EPS):
    """Per-channel batch normalization.

    ``running_mean``/``running_var`` are plain numpy arrays owned by the
    layer; train mode updates them in place with an exponential moving
    average (biased variance, matching the statistics used to normalize).
    """
    _check_rank4(x, "batch_norm")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"batch_norm: channels: scale/offset need shape ({c},), "
            f"got {gamma.shape}/{beta.shape}")
    if mode not in ("train", "eval"):
        raise ValueError(f"batch_norm: unknown mode {mode!r}")

    if mode == "train":
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean += momentum * (mean - running_mean)
        running_var += momentum * (var - running_var)
    else:
        mean = running_mean.astype(x.dtype)
        var = running_var.astype(x.dtype)
    if _VAR_TRACE is not None:
        _VAR_TRACE.append(float(var.min()))

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(g):
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        gxhat = g * gamma.data[None, :, None, None]
        if mode == "eval":
            gx = gxhat * inv_std[None, :, None, None]
        else:
            n = x.shape[0] * x.shape[2] * x.shape[3]
            s1 = gxhat.sum(axis=(0, 2, 3))[None, :, None, None]
            s2 = (gxhat * xhat).sum(axis=(0, 2, 3))[None, :, None, None]
            gx = (gxhat - s1 / n - xhat * s2 / n) * inv_std[None, :, None, None]
        return ((x, gx), (gamma, ggamma), (beta, gbeta))

    return _node(out, (x, gamma, beta), backward)


def group_norm(x, gamma, beta, groups, eps=EPS):
    """Group normalization over (channels/groups, H, W) slices per sample."""
    from .errors import ConfigError

    _check_rank4(x, "group_norm")
    b, c, h, w = x.shape
    if c % groups != 0:
        raise ConfigError("group_norm.groups", f"{groups} does not divide {c} channels")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"group_norm: channels: scale/offset need shape ({c},), "
            f"got {gamma.shape}/{beta.shape}")

    xg = x.data.reshape(b, groups, c // groups, h, w)
    mean = xg.mean(axis=(2, 3, 4), keepdims=True)
    var = xg.var(axis=(2, 3, 4), keepdims=True)
    if _VAR_TRACE is not None:
        _VAR_TRACE.append(float(var.min()))
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = ((xg - mean) * inv_std).reshape(b, c, h, w)
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(g):
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        gxhat = (g * gamma.data[None, :, None, None]).reshape(b, groups, c // groups, h, w)
        xhatg = xhat.reshape(b, groups, c // groups, h, w)
        n = (c // groups) * h * w
        s1 = gxhat.sum(axis=(2, 3, 4), keepdims=True)
        s2 = (gxhat * xhatg).sum(axis=(2, 3, 4), keepdims=True)
        gx = ((gxhat - s1 / n - xhatg * s2 / n) * inv_std).reshape(b, c, h, w)
        return ((x, gx), (gamma, ggamma), (beta, gbeta))

    return _node(out, (x, gamma, beta), backward)


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
