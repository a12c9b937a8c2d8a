"""Feature shifting with correlation attention.

A feature shifting module projects C input channels onto K shifting
channels with a 1x1 convolution, translates each shifting channel by its
own learnable fractional offset (bilinear interpolation, zero fill
outside the view), gates the shifted maps with a per-position attention
map predicted from the input, projects back to C channels, and adds the
result onto the input shortcut before batch normalization and a ReLU.

The module is algebraically an input-dependent convolution whose kernel
window is the set of K offsets; ``fsm_oracle`` evaluates that induced
convolution directly and serves as the correctness reference for the
factored fast path.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DimensionError, StateError

__all__ = [
    "CA_SOFTPLUS", "CA_SIGMOID",
    "shift", "ca_forward", "fsm_oracle", "fsm_param_count",
    "FeatureShiftModule", "OFFSET_INIT_RANGE",
]

CA_SOFTPLUS = "softplus-normalized"
CA_SIGMOID = "sigmoid-unnormalized"
# every correlation-attention variant ``ca_forward`` runs: the allowed
# values of a run config's and a graph spec's ``ca_variant``
CA_VARIANTS = (CA_SOFTPLUS, CA_SIGMOID)

# Offsets start uniform in [-1, 1]: breaks symmetry without risking maps
# being shifted fully out of view at initialization.
OFFSET_INIT_RANGE = 1.0


def _draw_offsets(rng, k, dtype):
    """Fresh (dx, dy) for K shifting channels, uniform in the init range."""
    return tuple(rng.uniform(-OFFSET_INIT_RANGE, OFFSET_INIT_RANGE, k).astype(dtype)
                 for _ in range(2))


# ---------------------------------------------------------------------------
# shifting
# ---------------------------------------------------------------------------

def _translate_axis(maps, d, axis, difference=False, out=None, acc=None):
    """One axis of the per-channel translation of (B, K, H, W) maps,
    written into ``out`` and returned.

    Channel k reads ``maps`` at ``i - d[k]`` along ``axis`` (2 rows, 3
    columns): with ``o = floor(-d)`` and ``f = -d - o`` that is the two-tap
    blend ``(1 - f) * maps[i + o] + f * maps[i + o + 1]``, reading zero
    outside the view. ``difference`` swaps the taps for (-1, +1), the
    derivative of the blend with respect to the sample coordinate. The
    channels are gathered into ``out`` in the stable order of ``o``, so
    each distinct ``o`` is one run and one pair of slice updates into the
    scratch ``acc``, which is scattered back in the original channel
    order. ``out`` and ``acc`` are like ``maps`` (new by default) and
    overlap nothing; channel slices of all three give that slice of the
    whole result, bit for bit.
    """
    n = maps.shape[axis]
    m = -np.asarray(d, dtype=np.float64)
    o = np.floor(m)
    f = (m - o).astype(maps.dtype)
    o = o.astype(np.int64)
    order = np.argsort(o, kind="stable")
    o, f = o[order], f[order]
    out = np.empty_like(maps) if out is None else out
    # mode "clip" (the indices are in range) writes into a strided out unbuffered
    src = np.take(maps, order, axis=1, out=out, mode="clip")
    lead = (slice(None),) * (axis - 2)

    def view(a, channels, lo, hi):
        return a[(slice(None), channels) + lead + (slice(lo, hi),)]

    acc = np.empty_like(maps) if acc is None else acc
    acc[...] = 0
    cuts = (np.flatnonzero(np.diff(o)) + 1).tolist()
    for k0, k1 in zip([0] + cuts, cuts + [len(o)]):
        ch = slice(k0, k1)
        fk = f[ch].reshape(-1, 1, 1)
        taps = (-1, 1) if difference else (1 - fk, fk)
        for t, wgt in zip((int(o[k0]), int(o[k0]) + 1), taps):
            lo, hi = max(0, -t), min(n, n - t)
            if lo < hi:
                dst = view(acc, ch, lo, hi)
                dst += wgt * view(src, ch, lo + t, hi + t)
    out[:, order] = acc
    return out


def _channel_major(a):
    """A new array like (B, K, H, W) ``a``, laid out (K, B, H, W) as a
    channel gather lays out its result. The einsums and downstream ops see
    that layout, so their bits do not change, and a channel slice is one
    block."""
    return np.empty_like(a.transpose(1, 0, 2, 3), order="C").transpose(1, 0, 2, 3)


def shift(maps, dx, dy):
    """Differentiable per-channel translation (autodiff op).

    out[b,k,y,x] samples maps[b,k] at (x - dx[k], y - dy[k]) with bilinear
    interpolation; content moved outside the view is lost and vacated
    regions fill with zero. The translation is separable: a two-tap blend
    along x, then one along y.

    Gradients: the map gradient is the exact adjoint, the y pass then
    the x pass with negated offsets, since negating an offset mirrors its
    taps, so ``<shift(m), g> == <m, T_x^T T_y^T g>``. The offset gradient
    is the negated spatial derivative of the interpolated map at the
    sample points: the blend on the differentiated axis is replaced by
    difference taps (-1, +1), and the result is contracted per channel
    with the upstream gradient (for dx, with ``T_y^T g``, the adjoint's
    first pass). Four translation passes, and no product array, run as
    ``ad._halves`` over channels into slices of arrays made here.
    """
    if maps.ndim != 4:
        raise DimensionError(f"shift: expected (B,K,H,W) maps, got rank {maps.ndim}")
    k = maps.shape[1]
    if dx.shape != (k,) or dy.shape != (k,):
        raise DimensionError(
            f"shift: offsets: expected dx/dy of shape ({k},) to match K={k}, "
            f"got {dx.shape}/{dy.shape}")
    # a pass takes about 1.2 ns a value here, as long as 250 FLOPs of a
    # large GEMM (one thread, AMD EPYC)
    work = 250 * maps.size
    along_x, out, acc = (_channel_major(maps.data) for _ in range(3))

    def forward(lo, hi):
        ch = slice(lo, hi)
        _translate_axis(maps.data[:, ch], dx.data[ch], 3, False, along_x[:, ch], acc[:, ch])
        _translate_axis(along_x[:, ch], dy.data[ch], 2, False, out[:, ch], acc[:, ch])

    ad._halves(forward, k, 2 * work)

    def backward(g):
        # T_y^T g serves both the map gradient and the dx sum, so D_x maps
        # needs no y pass: <g, T_y D_x maps> = <T_y^T g, D_x maps>
        g_y, gmaps, acc_g = (_channel_major(g) for _ in range(3))
        d_gx, d_gy, acc_m = (_channel_major(maps.data) for _ in range(3))

        def passes(lo, hi):
            ch = slice(lo, hi)
            _translate_axis(g[:, ch], -dy.data[ch], 2, False, g_y[:, ch], acc_g[:, ch])
            _translate_axis(g_y[:, ch], -dx.data[ch], 3, False, gmaps[:, ch], acc_g[:, ch])
            _translate_axis(maps.data[:, ch], dx.data[ch], 3, True, d_gx[:, ch], acc_m[:, ch])
            _translate_axis(along_x[:, ch], dy.data[ch], 2, True, d_gy[:, ch], acc_m[:, ch])

        ad._halves(passes, k, 4 * work)
        gdx = -np.einsum("bkhw,bkhw->k", g_y, d_gx)
        gdy = -np.einsum("bkhw,bkhw->k", g, d_gy)
        return ((maps, gmaps), (dx, gdx.astype(dx.dtype)), (dy, gdy.astype(dy.dtype)))

    return ad._node(out, (maps, dx, dy), backward)


# ---------------------------------------------------------------------------
# correlation attention
# ---------------------------------------------------------------------------

def ca_forward(p, gate_weight, variant=CA_SOFTPLUS):
    """Attention maps gating each shifting channel at each position.

    softplus-normalized: softplus of a 1x1 conv, normalized to sum to 1
    over all spatial positions per (batch, channel).
    sigmoid-unnormalized: plain sigmoid of the 1x1 conv, each value in (0,1).
    """
    raw = ad.conv1x1(p, gate_weight)
    if variant == CA_SOFTPLUS:
        return ad.spatial_normalize(ad.softplus(raw))
    if variant == CA_SIGMOID:
        return ad.sigmoid(raw)
    raise ValueError(f"unknown correlation-attention variant {variant!r}")


# ---------------------------------------------------------------------------
# the module and its oracle
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FeatureShiftModule:
    """Graph layer holding a module's parameters, bypass state and
    last-forward tensors.

    ``in_weight`` (K,C) feeds the shifting channels, ``gate_weight`` (K,C)
    feeds the attention branch, ``out_weight`` (C,K) projects back, and
    ``dx``/``dy`` (K,) translate each shifting channel in pixels (positive
    dx moves content toward +x). The branch norm is a batch norm over the
    C output channels (``norm_scale``, ``norm_offset``, ``running_mean``,
    ``running_var``).

    A module built for delayed insertion starts in bypass, acting as an
    exact identity with frozen parameters; :meth:`insert` activates it.
    The tensors of the most recent active forward (pre-shift, post-shift,
    attention, branch output) stay accessible for analyses. The graph sets
    ``name`` and ``clamp_bound`` when the module is added.
    """

    channels: int
    shift_channels: int
    ca_variant: str = CA_SOFTPLUS
    rng: InitVar = None
    dtype: InitVar = np.float32
    active: bool = True

    kind = "fsm"

    def __post_init__(self, rng, dtype):
        rng = rng or np.random.default_rng()
        c, k = self.channels, self.shift_channels
        std = np.sqrt(2.0 / c)
        self.in_weight = Parameter((rng.standard_normal((k, c)) * std).astype(dtype))
        self.gate_weight = Parameter((rng.standard_normal((k, c)) * std).astype(dtype))
        # an active module starts with the branch silent; a bypassed one
        # draws a random projection that insert() zeroes
        if self.active:
            self.out_weight = Parameter(np.zeros((c, k), dtype=dtype))
        else:
            self.out_weight = Parameter(
                (rng.standard_normal((c, k)) * np.sqrt(2.0 / k)).astype(dtype))
        self.dx, self.dy = (Parameter(d) for d in _draw_offsets(rng, k, dtype))
        self.norm_scale = Parameter(np.ones(c, dtype=dtype))
        self.norm_offset = Parameter(np.zeros(c, dtype=dtype))
        self.running_mean = np.zeros(c, dtype=dtype)
        self.running_var = np.ones(c, dtype=dtype)
        self.name = "fsm"
        self.clamp_bound = None
        # After a train-mode forward, the tensors of that forward keep the
        # step's whole tape (activations and closures; no gradient copies,
        # which backward keeps on leaves only) alive until the next forward
        # replaces them. That is deliberate: freeing the tape after each step
        # let the allocator return its pages and fault them in again
        # (mid-train: 3x the minor faults, a slower step) and lowered no
        # peak RSS. An untaped eval forward caches plain tensors, which hold
        # only their own maps.
        self.cache = {}

    def forward(self, p, mode="train"):
        """Project, shift, gate, project back, add the shortcut, batch-norm
        the sum, ReLU; a bypassed module returns its input."""
        if not self.active:
            return p
        if p.ndim != 4 or p.shape[1] != self.channels:
            raise DimensionError(
                f"{self.name}: channels: module expects C={self.channels}, "
                f"input has {p.shape[1] if p.ndim == 4 else p.shape}")
        pre_shift = ad.conv1x1(p, self.in_weight)
        post_shift = shift(pre_shift, self.dx, self.dy)
        gate = ca_forward(p, self.gate_weight, self.ca_variant)
        nonlocal_maps = ad.conv1x1(ad.mul(gate, post_shift), self.out_weight)
        normed = ad.batch_norm(ad.add(p, nonlocal_maps), self.norm_scale,
                               self.norm_offset, self.running_mean,
                               self.running_var, mode)
        out = ad.relu(normed)
        self.cache = {"pre_shift": pre_shift, "post_shift": post_shift,
                      "attention": gate, "nonlocal": nonlocal_maps}
        return out

    def out_shape(self, in_shape):
        c = in_shape[0]
        if c != self.channels:
            raise DimensionError(
                f"fsm: channels: module expects C={self.channels}, input has C={c}")
        return in_shape

    def cost_ops(self, in_shape):
        c, h, w = in_shape
        k = self.shift_channels
        px = h * w
        ops = 3 * (2 * k * c * px)       # the three pointwise projections
        ops += 7 * k * px                # shifting: 4 mul + 3 add per pixel/channel
        ops += k * px                    # attention gating multiply
        ops += 2 * k * px               # attention activation
        if self.ca_variant == CA_SOFTPLUS:
            ops += 2 * k * px           # spatial normalization
        ops += c * px                    # residual add
        ops += 4 * c * px               # branch norm + final relu
        return ops

    def insert(self, rng):
        """Activate a bypassed module: zero the output projection, draw
        fresh offsets, unfreeze."""
        if self.active:
            raise StateError(f"{self.name}: already inserted")
        self.out_weight.data[...] = 0
        self.dx.data[...], self.dy.data[...] = _draw_offsets(
            rng, self.shift_channels, self.dx.dtype)
        self.active = True

    def clamp_offsets(self):
        if self.clamp_bound is not None:
            for d in (self.dx, self.dy):
                np.clip(d.data, -self.clamp_bound, self.clamp_bound, out=d.data)

    def state(self):
        learned = ("in_weight", "gate_weight", "out_weight", "norm_scale", "norm_offset",
                   "dx", "dy")
        return [(n, getattr(self, n)) for n in learned] + [
            ("norm.running_mean", self.running_mean), ("norm.running_var", self.running_var)]


def fsm_oracle(p, module, mode="train"):
    """Direct evaluation of the induced convolution of an active module.

    Materializes the full position-dependent kernel
    ``w[c,k,c'](x,y) = out_weight[c,k] * in_weight[k,c'] * gate[k](x,y)``
    and contracts it against the input maps resampled at each offset by
    ``bilinear_sample``, one pixel at a time. Quadratic in channels and
    interpreted per pixel; intended for small tensors as a correctness
    reference only. Running statistics are left untouched.
    """
    pv = p.data if isinstance(p, Tensor) else np.asarray(p)
    b, c, h, w = pv.shape
    k = module.shift_channels
    gate = ca_forward(Tensor(pv), module.gate_weight, module.ca_variant).data

    # input maps resampled at every offset, one scalar bilinear sample per
    # pixel so that the fast path's translation kernel is not involved:
    # (B, K, C', H, W)
    dx, dy = module.dx.data, module.dy.data
    p_shift = np.empty((b, k, c, h, w), dtype=pv.dtype)
    for i, j, d, y, x in np.ndindex(p_shift.shape):
        p_shift[i, j, d, y, x] = ad.bilinear_sample(pv[i, d], x - dx[j], y - dy[j])

    kernel = np.einsum("ck,kd,bkhw->bckdhw", module.out_weight.data,
                       module.in_weight.data, gate)
    pre = pv + np.einsum("bckdhw,bkdhw->bchw", kernel, p_shift)

    normed = ad.batch_norm(Tensor(pre), module.norm_scale, module.norm_offset,
                           module.running_mean.copy(), module.running_var.copy(),
                           mode)
    return ad.relu(normed)


def fsm_param_count(channels, shift_channels):
    """Learnable-parameter counts (norm and biases excluded) for covering
    K window positions: this module versus single layers of active or
    deformable convolution with C input and output channels."""
    c, k = channels, shift_channels
    return {
        "fsm": 3 * k * c + 2 * k,
        "active_conv": k * c * c + 2 * k,
        "deformable_conv": k * c * c + 2 * k * c,
    }

