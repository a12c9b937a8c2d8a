"""Dense-tensor reverse-mode differentiation on numpy arrays.

Activations travel as rank-4 arrays in (batch, channel, height, width)
order; parameters are rank-1/2/4. While recording is on (the default), every
forward operation records a closure that propagates gradients to its
inputs, and one walk replays those closures in reverse topological order:
``Tensor.backward`` for the optimizer, :func:`grad` for every other
reader. A forward run with recording off (an inference forward of
``NetworkGraph``) records nothing: each op returns a plain tensor, and
the state only its backward would read is freed when the op returns.
Backward-only work (relu's mask, max-pool's winning cells) is done in
backward, from the inputs the tape keeps. Every convolution is one core,
``_conv`` (``conv1x1`` is ``conv2d``'s 1x1 case), and
``_conv_input_grad`` builds every conv's input gradient.

Channel contractions run as BLAS matrix products, in an order that is
fixed for a given BLAS build and thread count, and by the two fixed
halves of a large product's output columns (``_halves``); other
reductions run in numpy's fixed internal order. So repeated backward
passes from the same loss produce bit-identical gradients, at any core
count.
There is no general broadcasting: each op accepts exactly the shapes it
documents and raises :class:`DimensionError` otherwise.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .errors import ConfigError, DimensionError, StateError

__all__ = [
    "Tensor",
    "Parameter",
    "grad",
    "tensor",
    "add",
    "mul",
    "relu",
    "sigmoid",
    "conv1x1",
    "conv2d",
    "batch_norm",
    "group_norm",
    "max_pool2d",
    "upsample_nearest2x",
    "mse_loss",
    "bilinear_sample",
    "conv_out_size",
]


class Tensor:
    """A numpy array plus the tape bookkeeping for reverse-mode autodiff.

    ``backward`` (the optimizer's pass) accumulates ``grad`` only on leaves
    with ``requires_grad`` (parameters and inputs: no backward closure);
    every other reader of a gradient calls :func:`grad`, which writes none.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
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

    def backward(self, seed=None):
        """Accumulate this tensor's gradient into every leaf that requires
        one. ``seed`` is the upstream gradient (1 by default for a scalar
        root); a root that requires no gradient raises :class:`StateError`."""
        for node, g in _walk(self, seed):
            if node._backward is None:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


class Parameter(Tensor):
    """A trainable tensor; always differentiable, gradient buffer preallocated."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(np.array(data), requires_grad=True)
        self.grad = np.zeros_like(self.data)


def _walk(root, seed, wrt=None):
    """The replay behind ``Tensor.backward`` and ``grad``: yield each tensor
    that receives a gradient, with its sum, before its closure runs."""
    if not root.requires_grad:
        raise StateError("the root requires no gradient "
                         "(no input requires one, or the forward was not taped)")
    if seed is None:
        if root.size != 1:
            raise ValueError("a non-scalar root requires an explicit seed")
        seed = np.ones_like(root.data)
    seed = np.asarray(seed, dtype=root.dtype)
    if seed.shape != root.shape:
        raise DimensionError(f"seed: expected shape {root.shape}, got {seed.shape}")

    order = []
    visited = set()
    stack = [(root, False)]
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
    if wrt is not None:
        path = {id(t) for t in wrt}
        for node in order:
            if any(id(p) in path for p in node._parents):
                path.add(id(node))

    grads = {id(root): seed}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        yield node, g
        if node._backward is None:
            continue
        for parent, pg in node._backward(g):
            key = id(parent)
            if not (parent.requires_grad if wrt is None else key in path):
                continue
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


def grad(root, wrt, seed=None):
    """The gradient of ``root`` with respect to each tensor in ``wrt``, as new
    arrays (zeros where ``root`` does not depend on it), writing no ``grad``.
    It replays only the nodes on a path from a ``wrt`` tensor to ``root``: in
    ``wrt``, or with a parent on such a path. ``seed`` is as for ``backward``."""
    grads = {id(t): np.zeros_like(t.data) for t in wrt}
    for node, g in _walk(root, seed, wrt):
        if id(node) in grads:
            grads[id(node)] += g
    return [grads[id(t)] for t in wrt]


def tensor(data, requires_grad=False):
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return Tensor(arr, requires_grad=requires_grad)


_RECORD = True


@contextlib.contextmanager
def _recording(on):
    """Record the tape (``on``) or not while active; ``_node`` reads it."""
    global _RECORD
    prev, _RECORD = _RECORD, on
    try:
        yield
    finally:
        _RECORD = prev


def _node(data, parents, backward):
    if not _RECORD:
        # no parents and no closure: the op's backward-only state goes now
        return Tensor(data)
    # requires_grad propagates so the walk reaches the leaves
    rg = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=rg, _parents=parents, _backward=backward)


# A product of at least this many FLOPs (or a pass of as much work) runs
# as two halves, one on the worker; a toy step's largest is 2.4 MFLOP
_SPLIT_WORK = 20e6
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)
_POOL = None    # the worker, made by the first split on more than one core


def _halves(fn, n, work):
    """Call ``fn(lo, hi)`` on ``range(n)`` or, from ``_SPLIT_WORK`` on, on
    its halves cut at ``n // 2``: the first on the worker (inline on one
    core) under the caller's errstate. ``fn`` writes preallocated outputs
    with numpy, never a tape op. Returns after both, even if the second
    raises."""
    global _POOL
    mid = n // 2
    if work < _SPLIT_WORK or mid == 0:
        fn(0, n)
    elif _CORES == 1:
        fn(0, mid)
        fn(mid, n)
    else:
        if _POOL is None:
            # imported here: a run that never splits does without the
            # module and the logging and queue modules it loads
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(1)
        err = np.geterr()

        def first():
            with np.errstate(**err):
                fn(0, mid)

        future = _POOL.submit(first)
        try:
            fn(mid, n)
        finally:
            future.result()


def _matmul(a, b):
    """``a @ b``, from ``_SPLIT_WORK`` FLOPs on as ``_halves`` of the
    output's columns, never of the contracted axis: BLAS takes each
    column slice without a copy."""
    (m, k), n = a.shape[-2:], b.shape[-1]
    work = 2 * m * k * n * max(math.prod(a.shape[:-2]), math.prod(b.shape[:-2]))
    if work < _SPLIT_WORK:
        return a @ b
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n),
                   np.promote_types(a.dtype, b.dtype))

    def part(lo, hi):
        np.matmul(a, b[..., lo:hi], out=out[..., lo:hi])

    _halves(part, n, work)
    return out


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
    def backward(g):
        return ((x, g * (x.data > 0)),)
    # np.maximum (not where/mask) so non-finite inputs propagate to the
    # training guard instead of being silently clamped to zero. It runs in
    # place against the zeroed output, with no temporary: numpy takes about
    # a third of the time it takes against a scalar 0
    out = np.zeros(x.shape, x.dtype)
    np.maximum(x.data, out, out=out)
    return _node(out, (x,), backward)


def sigmoid(x):
    # 0.5 * (1 + tanh(0.5 * x)), built in one buffer
    out = np.multiply(x.data, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    def backward(g):
        return ((x, g * out * (1.0 - out)),)
    return _node(out, (x,), backward)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def _conv_node(op, x, weight, bias, out, grads):
    """``out`` (+ ``bias[k]``) as the tape node of a conv of ``x`` by
    ``weight``. ``grads(g, need_input)`` returns the weight gradient and,
    when ``need_input``, ``x``'s gradient (else None) from the output
    gradient ``g``."""
    parents = [x, weight]
    if bias is not None:
        k = weight.shape[0]
        if bias.shape != (k,):
            raise DimensionError(f"{op}: bias: expected shape ({k},), got {bias.shape}")
        out += bias.data[None, :, None, None]
        parents.append(bias)

    def backward(g):
        with np.errstate(invalid="ignore", over="ignore"):
            # the tape would drop this gradient when ``x`` (the graph input)
            # requires none: skip building it
            gw, gx = grads(g, x.requires_grad)
            result = [(weight, gw.reshape(weight.shape))]
            if gx is not None:
                result.append((x, gx))
            if bias is not None:
                result.append((bias, g.sum(axis=(0, 2, 3))))
            return result

    return _node(out, parents, backward)


def _conv(op, x, weight, w4, stride, padding, bias):
    """The tape node of the convolution of ``x`` by ``weight``, whose data
    viewed as (K, C, kh, kw) is ``w4``: the one core of ``conv1x1`` and
    ``conv2d``, after their rank checks.

    A stride-1 spatial kernel with fewer outputs than inputs (K < C)
    projects first (``_tap_sum``). Every other conv gathers ``x``'s
    patches (a view for 1x1), C*kh*kw values per output cell, no more
    than a projection first would hold where K >= C or the stride skips
    cells, and contracts them with ``w4`` flattened to (K, C*kh*kw): one
    batched GEMM over (B, C*kh*kw, Ho*Wo), and one more for the weight
    gradient. ``_conv_input_grad`` builds the input gradient.
    """
    k, c, kh, kw = w4.shape
    if c != x.shape[1]:
        raise DimensionError(f"{op}: channels: weight expects C={c}, input has C={x.shape[1]}")
    if stride == 1 and kh * kw > 1 and k < c:
        return _tap_sum(op, x, weight, w4, padding, bias)
    cols = _patches(op, x.data, kh, kw, stride, padding)
    b, _, _, _, ho, wo = cols.shape
    cols3 = cols.reshape(b, c * kh * kw, ho * wo)
    # a non-finite operand is reported by the training guard; BLAS would
    # add a warning of its own
    with np.errstate(invalid="ignore", over="ignore"):
        out = _matmul(w4.reshape(k, c * kh * kw), cols3).reshape(b, k, ho, wo)

    def grads(g, need_input):
        gw = _matmul(g.reshape(b, k, ho * wo), cols3.transpose(0, 2, 1)).sum(axis=0)
        return gw, _conv_input_grad(g, w4, x.shape, stride, padding) if need_input else None

    return _conv_node(op, x, weight, bias, out, grads)


def conv1x1(x, weight, bias=None):
    """Pointwise convolution: out[b,k] = sum_c weight[k,c] * x[b,c] (+ bias[k]).

    ``weight`` has shape (K, C); this is the channel-mixing primitive the
    shifting module is built from, and ``conv2d``'s 1x1 case.
    """
    _check_rank4(x, "conv1x1")
    if weight.ndim != 2:
        raise DimensionError(f"conv1x1: weight must be rank-2 (K,C), got {weight.shape}")
    return _conv("conv1x1", x, weight, weight.data[:, :, None, None], 1, 0, bias)


def conv_out_size(op, h, w, kh, kw, stride, padding):
    """The output size (Ho, Wo) of a kh x kw window sliding over an (H, W)
    map padded by ``padding``: floor semantics, and at least one cell."""
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise DimensionError(f"{op}: spatial: {h}x{w} too small for kernel {kh}x{kw}")
    return ho, wo


def _windows(op, h, w, kh, kw, stride, padding):
    """``conv_out_size``, and for each kernel cell (i, j), in row-major
    order, the index of its strided (B, C, Ho, Wo) view of the padded
    map."""
    ho, wo = conv_out_size(op, h, w, kh, kw, stride, padding)
    return ho, wo, [(i, j, (slice(None), slice(None), slice(i, i + stride * ho, stride),
                            slice(j, j + stride * wo, stride)))
                    for i in range(kh) for j in range(kw)]


def _pad(x, ph, pw, fill=0):
    """(B, C, H, W) ``x`` padded with ``fill`` by ``ph`` rows and ``pw``
    columns on each side: one new array and one slice assignment, which
    takes less than half the time of ``np.pad`` on these small maps."""
    b, c, h, w = x.shape
    shape = (b, c, h + 2 * ph, w + 2 * pw)
    out = np.zeros(shape, x.dtype) if fill == 0 else np.full(shape, fill, x.dtype)
    out[:, :, ph:ph + h, pw:pw + w] = x
    return out


def _patches(op, x, kh, kw, stride, padding):
    """The (B, C, kh, kw, Ho, Wo) patches of ``x`` zero-padded: the one
    im2col gather. The ``_conv`` forward gathers its input with it only
    where K >= C or the stride is above 1: a stride-1 conv with K < C
    projects first (``_tap_sum``), so its wider input is never gathered.
    Every conv backward gathers the output gradient with it instead,
    K*kh*kw values per input cell: once at stride 1, at exactly the
    input's cells (``_grad_patches``), or once per stride phase of
    ``_conv_input_grad``. A 1x1, stride-1, unpadded window is a view of
    ``x``."""
    if (kh, kw, stride, padding) == (1, 1, 1, 0):
        return x[:, :, None, None]
    b, c, h, w = x.shape
    ho, wo, windows = _windows(op, h, w, kh, kw, stride, padding)
    xp = _pad(x, padding, padding) if padding else x
    cols = np.empty((b, c, kh, kw, ho, wo), dtype=x.dtype)
    for i, j, window in windows:
        cols[:, :, i, j] = xp[window]
    return cols


def _grad_patches(g, kh, kw, padding):
    """A stride-1 conv's (B, K, Ho, Wo) output gradient ``g`` gathered at
    exactly the input's H x W cells: cols[b, k, kh-1-i, kw-1-j, y, x] =
    g[b, k, y+p-i, x+p-j], zero outside ``g``. That is ``g`` padded by
    (kernel - 1 - padding) per side, or cropped where that is negative."""
    ho, wo = g.shape[2:]
    ea, eb = kh - 1 - padding, kw - 1 - padding
    gp = g[:, :, max(-ea, 0):ho - max(-ea, 0), max(-eb, 0):wo - max(-eb, 0)]
    if ea > 0 or eb > 0:
        gp = _pad(gp, max(ea, 0), max(eb, 0))
    return _patches("conv2d", gp, kh, kw, 1, 0)


def _conv_input_grad(g, weight, x_shape, stride, padding, cols=None):
    """The input gradient of a conv from its (B, K, Ho, Wo) output
    gradient ``g`` and (K, C, kh, kw) ``weight``: a gather of ``g``
    contracted with the flipped kernel in one batched GEMM, which gathers
    K*kh*kw values per input cell where scattering ``w.T @ g`` back
    through the windows would write C*kh*kw.

    At stride 1 the gather is ``_grad_patches`` (or ``cols``, the same
    gather made by the caller), and for a 1x1 kernel the GEMM is
    ``w.T @ g``. A larger stride runs as a polyphase convolution: the
    padded input's cells at stride phase (ry, rx) are reached only by the
    taps ``weight[:, :, ry::s, rx::s]``, so that phase is the input
    gradient of an unpadded stride-1 conv by that sub-kernel, written
    into the phase's strided view. A phase with no taps stays zero; the
    padding is cropped at the end.
    """
    b, k = g.shape[:2]
    _, c, kh, kw = weight.shape

    def correlate(sub, cols):
        na, nb = sub.shape[2:]
        w2 = sub[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, k * na * nb)
        hq, wq = cols.shape[4:]
        return _matmul(w2, cols.reshape(b, k * na * nb, hq * wq)).reshape(b, c, hq, wq)

    if stride == 1:
        return correlate(weight, _grad_patches(g, kh, kw, padding) if cols is None else cols)
    h, w = x_shape[2:]
    gxp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
    for ry in range(min(stride, kh)):
        for rx in range(min(stride, kw)):
            sub = weight[:, :, ry::stride, rx::stride]
            part = correlate(sub, _grad_patches(g, *sub.shape[2:], 0))
            gxp[:, :, ry::stride, rx::stride][:, :, :part.shape[2], :part.shape[3]] = part
    return gxp[:, :, padding:padding + h, padding:padding + w]


def _tap_sum(op, x, weight, w4, padding, bias):
    """``_conv`` at stride 1 with fewer outputs than inputs (K < C),
    projected first: one batched GEMM of ``x`` by ``w4`` viewed as a
    (kh*kw*K, C) matrix gives every tap's K-channel map at every input
    cell, and the output sums those maps through the taps' window views
    of the padded product. That holds kh*kw*K values per cell, where an
    im2col gather of ``x`` would write C*kh*kw.

    Backward gathers the output gradient once (``_grad_patches``) and
    contracts that gather with ``x`` for the weight gradient and, in
    ``_conv_input_grad``, with the flipped weight for the input gradient.
    """
    k, c, kh, kw = w4.shape
    b, _, h, w = x.shape
    _, _, windows = _windows(op, h, w, kh, kw, 1, padding)
    x3 = x.data.reshape(b, c, h * w)
    with np.errstate(invalid="ignore", over="ignore"):
        prod = _matmul(w4.transpose(2, 3, 0, 1).reshape(kh * kw * k, c), x3)
    prod = prod.reshape(b, kh * kw * k, h, w)
    if padding:
        prod = _pad(prod, padding, padding)
    prod = prod.reshape(b, kh * kw, k, *prod.shape[2:])
    out = prod[:, 0][windows[0][2]].copy()
    for tap, (_, _, window) in enumerate(windows[1:], 1):
        out += prod[:, tap][window]

    def grads(g, need_input):
        cols = _grad_patches(g, kh, kw, padding)
        gw = _matmul(x3, cols.reshape(b, k * kh * kw, h * w).transpose(0, 2, 1)).sum(axis=0)
        gw = gw.reshape(c, k, kh, kw)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return gw, _conv_input_grad(g, w4, x.shape, 1, padding, cols) if need_input else None

    return _conv_node(op, x, weight, bias, out, grads)


def conv2d(x, weight, stride=1, padding=0, bias=None):
    """2-D convolution with a (K, C, kh, kw) kernel, zero padding, run
    by the one conv core ``_conv`` (see there for the form the operand
    shapes pick)."""
    _check_rank4(x, "conv2d")
    if weight.ndim != 4:
        raise DimensionError(f"conv2d: weight must be rank-4 (K,C,kh,kw), got {weight.shape}")
    return _conv("conv2d", x, weight, weight.data, stride, padding, bias)


def max_pool2d(x, kernel=3, stride=2, padding=1):
    """Max pooling; ties go to the first window cell in row-major order,
    and a NaN anywhere in a window is its maximum (the first NaN wins).

    Forward is a running maximum over the windows' strided views of the
    padded input. Backward walks the same views: each window's gradient
    goes to the first cell equal to its maximum, or to the first NaN where
    the maximum is a NaN. As in ``relu``, the gradient is selected by a
    product with the mask, so a non-finite ``g`` spreads over its window.
    """
    _check_rank4(x, "max_pool2d")
    _, _, h, w = x.shape
    _, _, windows = _windows("max_pool2d", h, w, kernel, kernel, stride, padding)
    xp = _pad(x.data, padding, padding, np.finfo(x.dtype).min)
    out = xp[windows[0][2]].copy()
    for _, _, window in windows[1:]:
        # the running maximum second: numpy keeps it on a tie of signed
        # zeros, so the first cell's value wins
        np.maximum(xp[window], out, out=out)

    def backward(g):
        gxp = np.zeros(xp.shape, dtype=x.dtype)
        pending = np.ones(out.shape, dtype=bool)
        # the NaN test would add about half to the pass: skip it where no
        # window's maximum is a NaN
        any_nan = np.isnan(out).any()
        for _, _, window in windows:
            v = xp[window]
            won = v == out
            if any_nan:
                won |= np.isnan(v)
            won &= pending
            pending ^= won
            dst = gxp[window]
            dst += g * won
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


def _normalize(op, x, gamma, beta, view, axes, stats=None):
    """gamma * xhat + beta as a tape node, where xhat normalizes ``x``
    reshaped to ``view`` over ``axes``; the last two axes of ``view`` are
    (H, W) and both are reduced. ``stats`` fixes (mean, var) in the
    keep-dims shape of that reduction; without it they are taken from
    ``x`` and differentiated through. Returns the node, mean and var.

    Every sum is an einsum to per-(b, c) sums over (H, W), then a sum of
    those over the rest of ``axes``, so no product array is made. Only the
    centred ``x - mean`` is kept: xhat = (x - mean) * inv_std is merged
    into per-(b, c) coefficients, forward and backward.
    """
    b, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"{op}: channels: scale/offset need shape ({c},), "
            f"got {gamma.shape}/{beta.shape}")
    slice_shape = view[:-2] + (1, 1)

    def over_slices(bc):
        # (B, C) sums -> the keep-dims shape of the reduction
        return np.add.reduce(bc.reshape(slice_shape), axis=axes, keepdims=True)

    def per_channel(stat):
        # the keep-dims shape of the reduction -> (B, C), copied out
        full = np.empty(slice_shape, stat.dtype)
        full[...] = stat
        return full.reshape(b, c)

    def spread(bc):
        return bc[:, :, None, None]

    n = math.prod(view[a] for a in axes)
    if stats is None:
        mean = over_slices(np.einsum("bchw->bc", x.data)) / n
    else:
        mean, var = stats
    xc = (x.data.reshape(view) - mean).reshape(x.shape)
    if stats is None:
        var = over_slices(np.einsum("bchw,bchw->bc", xc, xc)) / n
    if _SMOOTHNESS is not None:
        _SMOOTHNESS["var"].append(float(var.min()))
    inv_std = per_channel(1.0 / np.sqrt(var + EPS))
    scale = gamma.data * inv_std
    out = xc * spread(scale)
    out += beta.data[None, :, None, None]

    def backward(g):
        sum_g = np.einsum("bchw->bc", g)
        sum_gxhat = np.einsum("bchw,bchw->bc", g, xc) * inv_std
        gx = g * spread(scale)
        if stats is None:
            # gx = (gamma g - s1 / n - xhat s2 / n) * inv_std, with s1 and
            # s2 the slice sums of gamma g and of gamma g xhat
            s1 = per_channel(over_slices(gamma.data * sum_g) / n)
            s2 = per_channel(over_slices(gamma.data * sum_gxhat) / n)
            gx -= xc * spread(s2 * inv_std * inv_std)
            gx -= spread(s1 * inv_std)
        return ((x, gx), (gamma, sum_gxhat.sum(axis=0)), (beta, sum_g.sum(axis=0)))

    return _node(out, (x, gamma, beta), backward), mean, var


def batch_norm(x, gamma, beta, running_mean, running_var, mode, momentum=0.1):
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
    out, mean, var = _normalize("batch_norm", x, gamma, beta, x.shape, (0, 2, 3), stats)
    if mode == "train":
        running_mean += momentum * (mean.ravel() - running_mean)
        running_var += momentum * (var.ravel() - running_var)
    return out


def group_norm(x, gamma, beta, groups):
    """Group normalization over (channels/groups, H, W) slices per sample."""
    _check_rank4(x, "group_norm")
    b, c, h, w = x.shape
    if c % groups != 0:
        raise ConfigError("group_norm.groups", f"{groups} does not divide {c} channels")
    return _normalize("group_norm", x, gamma, beta, (b, groups, c // groups, h, w),
                      (2, 3, 4))[0]


def default_groups(channels):
    """Group count for group-norm: 32, clamped to the channel count when smaller."""
    return min(32, channels)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

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
