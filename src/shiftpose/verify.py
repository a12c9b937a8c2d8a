"""Stock verification suites: the seeded gradient-check battery and the
factored-vs-explicit equivalence trials.

Both are exposed on the command line and reused by the acceptance tests.
Gradient-check cases are drawn in double precision and filtered to sit
away from non-smooth points (offset fractions inside [0.12, 0.88], relu
pre-activations at least 0.05 from zero), per the harness contract.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from . import fsm
from .gradcheck import finite_diff_gradcheck
from .network import Bottleneck, ConvBlock

__all__ = ["gradcheck_suite", "oracle_trials"]

_ORACLE_TOLERANCE = 1e-6


def _push_from_integer(values, margin=0.12):
    """Move each value's fractional part into [margin, 1 - margin]."""
    frac = values - np.floor(values)
    out = values.copy()
    out[frac < margin] += margin - frac[frac < margin] + 0.01
    out[frac > 1 - margin] -= frac[frac > 1 - margin] - (1 - margin) + 0.01
    return out


def _rand_offsets(rng, k):
    dx = _push_from_integer(rng.uniform(-2.5, 2.5, k))
    dy = _push_from_integer(rng.uniform(-2.5, 2.5, k))
    return dx, dy


def _module_holding(c, k, values):
    """An active double-precision module whose learnables hold ``values``,
    given in the order in_weight, gate_weight, out_weight, dx, dy, then
    optionally norm_scale, norm_offset; returns it and those parameters.
    Its own initial draws come from a separate generator, so a case's
    stream holds exactly the case's draws."""
    module = fsm.FeatureShiftModule(c, k, np.random.default_rng(0), np.float64)
    slots = [module.in_weight, module.gate_weight, module.out_weight, module.dx,
             module.dy, module.norm_scale, module.norm_offset][:len(values)]
    for slot, value in zip(slots, values):
        slot.data[...] = value
    return module, slots


def _case_conv1x1(rng):
    b, c, k = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
    h, w = rng.integers(2, 6), rng.integers(2, 6)
    x = ad.tensor(rng.standard_normal((b, c, h, w)), requires_grad=True)
    weight = ad.Parameter(rng.standard_normal((k, c)))
    bias = ad.Parameter(rng.standard_normal(k))
    return lambda x, w_, b_: ad.conv1x1(x, w_, b_), [x, weight, bias]


def _case_shift(rng):
    b, k = rng.integers(1, 3), rng.integers(1, 4)
    h, w = rng.integers(4, 7), rng.integers(4, 7)
    maps = ad.tensor(rng.standard_normal((b, k, h, w)), requires_grad=True)
    dx, dy = map(ad.Parameter, _rand_offsets(rng, k))
    return lambda m, a, b_: fsm.shift(m, a, b_), [maps, dx, dy]


def _case_ca(rng):
    b, c, k = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
    h, w = rng.integers(3, 6), rng.integers(3, 6)
    p = ad.tensor(rng.standard_normal((b, c, h, w)), requires_grad=True)
    weight = ad.Parameter(rng.standard_normal((k, c)))
    return fsm.ca_forward, [p, weight]


def _case_fsm(rng):
    b, c, k = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
    h, w = rng.integers(4, 7), rng.integers(4, 7)
    p = ad.tensor(rng.standard_normal((b, c, h, w)), requires_grad=True)
    values = [rng.standard_normal((k, c)) * 0.7 for _ in range(2)]
    values += [rng.standard_normal((c, k)) * 0.7, *_rand_offsets(rng, k),
               rng.uniform(0.7, 1.3, c), rng.uniform(0.3, 0.8, c)]
    module, params = _module_holding(int(c), int(k), values)
    return lambda p_, *_: module.forward(p_, "train"), [p] + params


def _case_bottleneck(rng):
    c_in = int(rng.integers(2, 4))
    mid = 2
    c_out = int(rng.integers(2, 4))
    stride = int(rng.integers(1, 3))
    h, w = int(rng.integers(6, 8)), int(rng.integers(6, 8))
    layer = Bottleneck(c_in, mid, c_out, stride=stride, rng=rng, dtype=np.float64)
    # wide activations and boosted kernels keep the group statistics away
    # from the ill-conditioned small-variance regime finite differences
    # cannot handle; norm offsets pushed positive clear the relu kink
    x = ad.tensor(2.0 * rng.standard_normal((1, c_in, h, w)), requires_grad=True)
    params = []
    for name, p in layer.state():
        if not isinstance(p, ad.Parameter):
            continue
        if name.endswith(".weight"):
            p.data *= 3.0
        if name.endswith("norm.offset"):
            p.data += rng.uniform(0.3, 0.7, p.shape)
        params.append(p)

    def run(x_, *_):
        return layer.forward(x_, "train")

    return run, [x] + params


def _case_head(rng):
    # a keypoint head: fewer outputs than inputs at stride 1, so conv2d
    # projects first and sums its taps
    c_in = int(rng.integers(3, 6))
    k = int(rng.integers(1, c_in))
    b, h, w = int(rng.integers(1, 3)), int(rng.integers(4, 7)), int(rng.integers(4, 7))
    layer = ConvBlock(c_in, k, 3, padding=1, norm="bn", rng=rng, dtype=np.float64)
    x = ad.tensor(rng.standard_normal((b, c_in, h, w)), requires_grad=True)
    # boosted kernels keep the batch variances clear of the 1/sigma regime
    layer.weight.data *= 3.0
    params = [p for _, p in layer.state() if isinstance(p, ad.Parameter)]

    def run(x_, *_):
        return layer.forward(x_, "train")

    return run, [x] + params


# (op name, smooth cases to check, case builder) for the battery, in run order
_BATTERY = (
    ("conv1x1", 20, _case_conv1x1),
    ("shift", 20, _case_shift),
    ("ca-sigmoid", 10, _case_ca),
    ("fsm", 20, _case_fsm),
    ("bottleneck", 20, _case_bottleneck),
    ("head", 20, _case_head),
)

_RELU_MARGIN = 0.05
_VAR_FLOOR = 0.8


def _is_smooth_case(fn, inputs):
    """Accept only cases where finite differences are trustworthy: relu
    inputs clear of the kink and normalization variances away from the
    ill-conditioned 1/sigma regime."""
    with ad.trace_smoothness() as trace:
        out = fn(*inputs)
    if not np.isfinite(out.data).all():
        return False
    return (all(m > _RELU_MARGIN for m in trace["relu"])
            and all(v > _VAR_FLOOR for v in trace["var"]))


def gradcheck_suite():
    """Run the seeded battery at ``finite_diff_gradcheck``'s step and
    tolerance; yields (op name, seed, report).

    Each op's seeds count up from 0 until its quota of smooth cases is
    met; cases whose random draw lands on a relu kink are skipped, never
    silently passed.
    """
    for op_name, quota, build in _BATTERY:
        seed = 0
        produced = 0
        while produced < quota:
            rng = np.random.default_rng((zlib.crc32(op_name.encode()) + seed) % (2 ** 63))
            seed += 1
            fn, inputs = build(rng)
            if not _is_smooth_case(fn, inputs):
                continue
            report = finite_diff_gradcheck(fn, inputs, seed=seed)
            produced += 1
            yield op_name, seed - 1, report


def oracle_trials(trials=20):
    """Random small-shape comparisons of the factored forward against the
    explicit induced-convolution evaluation, trial ``i`` drawn with seed
    100 + i; returns (results, all_pass) where results rows are (seed,
    mode, rel_error), each passing below ``_ORACLE_TOLERANCE``."""
    results = []
    all_pass = True
    for trial in range(trials):
        seed = 100 + trial
        rng = np.random.default_rng(seed)
        b = int(rng.integers(1, 3))
        c = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        h, w = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        values = [rng.standard_normal((k, c)) * np.sqrt(2.0 / c) for _ in range(2)]
        values.append(rng.standard_normal((c, k)) * np.sqrt(2.0 / k))
        rng.uniform(-1.0, 1.0, 2 * k)  # initial offsets the trials replace
        values += [rng.uniform(-2.5, 2.5, k), rng.uniform(-2.5, 2.5, k)]
        module, _ = _module_holding(c, k, values)
        p = ad.tensor(rng.standard_normal((b, c, h, w)))
        for mode in ("train", "eval"):
            fast = module.forward(p, mode).data
            slow = fsm.fsm_oracle(p, module, mode).data
            rel = float(np.abs(fast - slow).max() / max(np.abs(slow).max(), 1e-12))
            results.append((seed, mode, rel))
            all_pass &= rel < _ORACLE_TOLERANCE
    return results, all_pass
