"""Tensor substrate: forward semantics, analytic backwards, Adam."""

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from shiftpose import autodiff as ad
from shiftpose import verify
from shiftpose.errors import ConfigError, DimensionError, StateError
from shiftpose.gradcheck import finite_diff_gradcheck
from shiftpose.optim import Adam, adam_step


def rand(shape, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def strided_copy(a):
    """The values of a rank-4 ``a`` as a non-contiguous view: stored
    channels-last, transposed back to (B, C, H, W)."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


class TestConv1x1:
    def test_identity_weights(self):
        x = ad.tensor(rand((1, 2, 3, 3), 1))
        w = ad.Parameter(np.eye(2))
        out = ad.conv1x1(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_channel_sum(self):
        x = ad.tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]],
                                 [[10.0, 20.0], [30.0, 40.0]]]]))
        w = ad.Parameter(np.array([[1.0, 1.0]]))
        out = ad.conv1x1(x, w)
        np.testing.assert_array_equal(out.data, [[[[11.0, 22.0], [33.0, 44.0]]]])

    def test_bias(self):
        x = ad.tensor(np.zeros((1, 1, 2, 2)))
        w = ad.Parameter(np.ones((3, 1)))
        b = ad.Parameter(np.array([1.0, 2.0, 3.0]))
        out = ad.conv1x1(x, w, b)
        assert out.data[0, :, 0, 0].tolist() == [1.0, 2.0, 3.0]

    def test_gradcheck(self):
        x = ad.tensor(rand((2, 3, 5, 6), 2), requires_grad=True)
        w = ad.Parameter(rand((4, 3), 3))
        b = ad.Parameter(rand(4, 4))
        report = finite_diff_gradcheck(lambda *t: ad.conv1x1(*t), [x, w, b])
        assert report.passed, str(report)

    def test_shape_error_names_axis(self):
        x = ad.tensor(np.zeros((1, 3, 2, 2)))
        w = ad.Parameter(np.zeros((4, 2)))
        with pytest.raises(DimensionError, match="channels"):
            ad.conv1x1(x, w)

    @pytest.mark.parametrize("strided", [False, True])
    def test_matches_einsum_reference(self, strided):
        x = rand((2, 3, 5, 4), 6)
        x = ad.tensor(strided_copy(x) if strided else x, requires_grad=True)
        w = ad.Parameter(rand((4, 3), 7))
        b = ad.Parameter(rand(4, 8))
        out = ad.conv1x1(x, w, b)
        g = rand(out.shape, 9)
        out.backward(g)
        ref = (np.einsum("kc,bchw->bkhw", w.data, x.data) + b.data[None, :, None, None],
               np.einsum("kc,bkhw->bchw", w.data, g),
               np.einsum("bkhw,bchw->kc", g, x.data),
               g.sum(axis=(0, 2, 3)))
        for got, want in zip((out.data, x.grad, w.grad, b.grad), ref):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("strided", [False, True])
    def test_equals_conv2d_1x1_bit_for_bit(self, strided):
        # one core runs both: the same bits, forward and backward
        for dtype in (np.float32, np.float64):
            x = rand((2, 5, 7, 6), 10, dtype)
            x = ad.tensor(strided_copy(x) if strided else x, requires_grad=True)
            w = ad.Parameter(rand((4, 5), 11, dtype))
            b = ad.Parameter(rand(4, 12, dtype))
            pointwise = ad.conv1x1(x, w, b)
            w4 = ad.Parameter(w.data[:, :, None, None])
            spatial = ad.conv2d(x, w4, bias=b)
            g = rand(pointwise.shape, 13, dtype)
            got = [pointwise.data] + ad.grad(pointwise, [x, w, b], g)
            want = [spatial.data] + ad.grad(spatial, [x, w4, b], g)
            want[2] = want[2].reshape(w.shape)
            for a, e in zip(got, want):
                assert a.dtype == e.dtype and a.tobytes() == e.tobytes()

    def test_linearity_exact(self):
        rng = np.random.default_rng(5)
        w = ad.Parameter(rng.standard_normal((3, 4)))
        x = ad.tensor(rng.standard_normal((2, 4, 3, 3)))
        y = ad.tensor(rng.standard_normal((2, 4, 3, 3)))
        a, b = 0.37, -1.21
        combo = ad.conv1x1(ad.tensor(a * x.data + b * y.data), w).data
        split = a * ad.conv1x1(x, w).data + b * ad.conv1x1(y, w).data
        np.testing.assert_allclose(combo, split, rtol=0, atol=1e-12)


@pytest.mark.usefixtures("split_every_product")
class TestConv1x1Split(TestConv1x1):
    """The conv1x1 tests with every product split in two halves."""


class TestBilinearSample:
    def test_integer_grid_point(self):
        m = rand((4, 5), 7)
        assert ad.bilinear_sample(m, 3, 2) == m[2][3]

    def test_center_of_four(self):
        assert ad.bilinear_sample(np.array([[0.0, 1.0], [2.0, 3.0]]), 0.5, 0.5) == 1.5

    def test_fully_out_of_view(self):
        m = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert ad.bilinear_sample(m, -5.0, 0.0) == 0.0

    def test_continuity(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((6, 6))
        value_range = m.max() - min(m.min(), 0.0)
        for _ in range(200):
            x, y = rng.uniform(-1.0, 6.0, 2)
            delta = rng.uniform(0.0, 1.0)
            jump = abs(ad.bilinear_sample(m, x + delta, y) - ad.bilinear_sample(m, x, y))
            assert jump <= delta * value_range + 1e-12


def normalize_reference(x, gamma, beta, g, view, axes, stats=None, eps=ad.EPS):
    """Output, the three gradients and (mean, var) of gamma * xhat + beta
    from the textbook formula: mean and biased variance over ``axes`` of
    ``x`` reshaped to ``view``, or the fixed ``stats``; without ``stats``
    the input gradient runs through the statistics."""
    xv = x.reshape(view)
    if stats is None:
        mean = xv.mean(axis=axes, keepdims=True)
        var = xv.var(axis=axes, keepdims=True)
    else:
        mean, var = stats
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = ((xv - mean) * inv_std).reshape(x.shape)
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    gxhat = (g * gamma[None, :, None, None]).reshape(view)
    if stats is None:
        xhatv = xhat.reshape(view)
        n = xhatv.size // inv_std.size
        s1 = gxhat.sum(axis=axes, keepdims=True)
        s2 = (gxhat * xhatv).sum(axis=axes, keepdims=True)
        gx = (gxhat - s1 / n - xhatv * s2 / n) * inv_std
    else:
        gx = gxhat * inv_std
    return (out, gx.reshape(x.shape), (g * xhat).sum(axis=(0, 2, 3)),
            g.sum(axis=(0, 2, 3))), (mean, var)


class TestNormalization:
    def test_eval_batchnorm_near_identity(self):
        x = ad.tensor(rand((2, 3, 4, 4), 8))
        gamma = ad.Parameter(np.ones(3))
        beta = ad.Parameter(np.zeros(3))
        out = ad.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), "eval")
        np.testing.assert_allclose(out.data, x.data, atol=1e-4)

    def test_groupnorm_constant_map_zeros(self):
        x = ad.tensor(np.full((1, 4, 3, 3), 7.0))
        gamma = ad.Parameter(np.ones(4))
        beta = ad.Parameter(np.zeros(4))
        out = ad.group_norm(x, gamma, beta, groups=1)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-7)

    def test_groupnorm_groups_must_divide(self):
        x = ad.tensor(np.zeros((1, 6, 2, 2)))
        p = ad.Parameter(np.ones(6))
        with pytest.raises(ConfigError, match="groups"):
            ad.group_norm(x, p, p, groups=4)

    def test_batchnorm_train_gradcheck(self):
        x = ad.tensor(rand((3, 2, 3, 3), 9), requires_grad=True)
        gamma = ad.Parameter(np.array([1.1, 0.9]))
        beta = ad.Parameter(np.array([0.2, -0.1]))

        def run(x_, g_, b_):
            return ad.batch_norm(x_, g_, b_, np.zeros(2), np.ones(2), "train")

        report = finite_diff_gradcheck(run, [x, gamma, beta])
        assert report.passed, str(report)

    def test_groupnorm_gradcheck(self):
        x = ad.tensor(rand((2, 4, 3, 3), 10), requires_grad=True)
        gamma = ad.Parameter(np.full(4, 1.2))
        beta = ad.Parameter(np.full(4, 0.1))
        report = finite_diff_gradcheck(
            lambda *t: ad.group_norm(*t, groups=2), [x, gamma, beta])
        assert report.passed, str(report)

    def test_batchnorm_eval_gradcheck(self):
        x = ad.tensor(rand((3, 2, 3, 3), 20), requires_grad=True)
        gamma = ad.Parameter(np.array([1.1, 0.9]))
        beta = ad.Parameter(np.array([0.2, -0.1]))

        def run(x_, g_, b_):
            return ad.batch_norm(x_, g_, b_, np.array([0.3, -0.2]),
                                 np.array([0.8, 1.5]), "eval")

        report = finite_diff_gradcheck(run, [x, gamma, beta])
        assert report.passed, str(report)

    @pytest.mark.parametrize("case", ["bn-train", "bn-eval", "gn-1", "gn-2", "gn-4"])
    def test_matches_the_textbook_formula(self, case):
        x = rand((3, 4, 5, 6), 30) * 2.0 + 3.0
        gamma, beta = rand(4, 31), rand(4, 32)
        g = rand(x.shape, 33)
        running = (rand(4, 34), np.exp(rand(4, 35)))
        tx, tg, tb = (ad.tensor(x, requires_grad=True), ad.Parameter(gamma),
                      ad.Parameter(beta))
        rm, rv = (r.copy() for r in running)
        if case.startswith("gn"):
            groups = int(case[3:])
            out = ad.group_norm(tx, tg, tb, groups)
            view, axes, stats = (3, groups, 4 // groups, 5, 6), (2, 3, 4), None
        else:
            mode = case[3:]
            out = ad.batch_norm(tx, tg, tb, rm, rv, mode, momentum=0.25)
            view, axes = x.shape, (0, 2, 3)
            stats = (None if mode == "train"
                     else tuple(r[None, :, None, None] for r in running))
        out.backward(g)
        want, (mean, var) = normalize_reference(x, gamma, beta, g, view, axes, stats)
        for got, ref in zip((out.data, tx.grad, tg.grad, tb.grad), want):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
        if case == "bn-train":
            np.testing.assert_allclose(rm, running[0] + 0.25 * (mean.ravel() - running[0]),
                                       rtol=1e-12)
            np.testing.assert_allclose(rv, running[1] + 0.25 * (var.ravel() - running[1]),
                                       rtol=1e-12)

    def test_running_stats_update(self):
        x = ad.tensor(np.full((1, 1, 2, 2), 10.0))
        rm, rv = np.zeros(1), np.ones(1)
        ad.batch_norm(x, ad.Parameter(np.ones(1)), ad.Parameter(np.zeros(1)),
                      rm, rv, "train", momentum=0.1)
        assert rm[0] == pytest.approx(1.0)
        assert rv[0] == pytest.approx(0.9)


@pytest.mark.usefixtures("split_every_product")
class TestNormalizationSplit(TestNormalization):
    """The normalization tests with every op split in two halves."""


class TestActivations:
    def test_relu(self):
        out = ad.relu(ad.tensor(np.array([[[[-1.0, 0.0, 2.0]]]])))
        np.testing.assert_array_equal(out.data, [[[[0.0, 0.0, 2.0]]]])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.tensor(np.zeros((1, 1, 1, 1)))).data[0, 0, 0, 0] == 0.5

    @pytest.mark.parametrize("op", [ad.relu, ad.sigmoid])
    def test_gradcheck(self, op):
        x = ad.tensor(rand((2, 2, 3, 3), 12) + 0.31, requires_grad=True)
        report = finite_diff_gradcheck(op, [x])
        assert report.passed, str(report)


@pytest.mark.usefixtures("split_every_product")
class TestActivationsSplit(TestActivations):
    """The activation tests with every op split in two halves."""


class TestSplitAgainstWhole:
    """Each op that runs as ``_halves`` of its channels (or channel
    groups) gives the bytes of the whole op, output and every gradient, on
    cuts that fall oddly."""

    @staticmethod
    def _run(op, x):
        t = ad.tensor(x, requires_grad=True)
        c = x.shape[1]
        params = [ad.Parameter(rand(c, 41)), ad.Parameter(rand(c, 42))]
        running = [rand(c, 43), np.exp(rand(c, 44))]
        with ad.trace_smoothness() as trace:
            if op == "gn":
                out = ad.group_norm(t, *params, groups=3)
            elif op.startswith("bn"):
                out = ad.batch_norm(t, *params, *running, op[3:])
            else:
                params = []
                out = ad.max_pool2d(t, 3, 2, 1) if op == "pool" else ad.sigmoid(t)
        g = rand(out.shape, 45)
        return [out.data, *ad.grad(out, [t, *params], g), *running], trace["var"]

    # the number of units cut at its middle, forward and backward: group
    # norm cuts 6 channels after the first of 3 groups, and a batch norm
    # of fewer than 4 channels runs whole (a one-channel half would sum
    # its batch in another order)
    @pytest.mark.parametrize("op,shape,units", [
        ("gn", (1, 6, 5, 7), 3), ("gn", (3, 6, 5, 7), 3),
        ("bn-train", (1, 5, 5, 7), 5), ("bn-train", (3, 5, 5, 7), 5),
        ("bn-train", (9, 5, 4, 3), 5), ("bn-train", (9, 2, 4, 3), None),
        ("bn-eval", (1, 5, 5, 7), 5), ("bn-eval", (3, 5, 5, 7), 5),
        ("bn-eval", (9, 2, 4, 3), None),
        ("pool", (1, 5, 7, 8), 5), ("pool", (3, 5, 7, 8), 5),
        ("sigmoid", (1, 5, 4, 3), 5), ("sigmoid", (3, 5, 4, 3), 5),
    ])
    def test_split_gives_the_bytes_of_the_whole(self, monkeypatch, split_every_product,
                                                op, shape, units):
        x = rand(shape, 40) * 2.0 + 1.0
        if op == "pool":
            # integers, so most windows tie, and a NaN on each side of the cut
            x = np.round(x)
            x[:, 1, 2, 3] = x[:, 3, 4, 4] = np.nan
        cut = []
        halves = ad._halves
        monkeypatch.setattr(ad, "_halves",
                            lambda fn, n, work: (cut.append(n), halves(fn, n, work)))
        split, split_var = self._run(op, x)
        assert cut == ([] if units is None else [units, units])
        monkeypatch.setattr(ad, "_SPLIT_WORK", math.inf)
        whole, whole_var = self._run(op, x)
        for a, b in zip(split, whole, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # one variance minimum per call, the whole op's
        assert split_var == whole_var
        assert len(whole_var) == (0 if op in ("pool", "sigmoid") else 1)


def conv2d_reference(x, w, b, g, stride, padding):
    """Output and the three gradients of a conv2d from the 6-axis einsum
    over a strided window view; the input gradient scatters through
    ``np.add.at`` on the windows of an index map."""
    kh, kw = w.shape[2:]
    h, wd = x.shape[2:]
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x, pad)

    def windows(a):  # (B, C, Ho, Wo, kh, kw)
        view = np.lib.stride_tricks.sliding_window_view(a, (kh, kw), axis=(2, 3))
        return view[:, :, ::stride, ::stride]

    cols = windows(xp)
    out = np.einsum("kcij,bchwij->bkhw", w, cols) + b[None, :, None, None]
    gw = np.einsum("bkhw,bchwij->kcij", g, cols)
    gxp = np.zeros(xp.size)
    np.add.at(gxp, windows(np.arange(xp.size).reshape(xp.shape)),
              np.einsum("kcij,bkhw->bchwij", w, g))
    gx = gxp.reshape(xp.shape)[:, :, padding:padding + h, padding:padding + wd]
    return out, gx, gw, g.sum(axis=(0, 2, 3))


class TestPoolAndConv2d:
    @staticmethod
    def _check_against_reference(x, kernel, stride, padding, out_channels=4):
        x = ad.tensor(x, requires_grad=True)
        w = ad.Parameter(rand((out_channels, x.shape[1], kernel, kernel), 22))
        b = ad.Parameter(rand(out_channels, 23))
        out = ad.conv2d(x, w, stride=stride, padding=padding, bias=b)
        g = rand(out.shape, 24)
        out.backward(g)
        ref = conv2d_reference(x.data, w.data, b.data, g, stride, padding)
        for got, want in zip((out.data, x.grad, w.grad, b.grad), ref):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel", [1, 3, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 3])
    def test_conv2d_matches_einsum_reference(self, kernel, stride, padding):
        self._check_against_reference(rand((2, 3, 9, 8), 21), kernel, stride, padding)

    @pytest.mark.parametrize("kernel", [1, 3, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 3])
    def test_conv2d_strided_input_matches_einsum_reference(self, kernel, stride, padding):
        x = strided_copy(rand((2, 3, 9, 8), 21))
        assert not x.flags.c_contiguous
        self._check_against_reference(x, kernel, stride, padding)

    # the input gradient's stride phases: stride 3, a kernel of 2 at
    # stride 3 (a phase with no taps), and C > K (5 to 1, like the head);
    # at stride 1, C > K projects first and sums the taps, with the output
    # gradient padded (kernel - 1 > padding) or cropped (kernel - 1 < padding)
    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("kernel,stride,padding,channels,out_channels", [
        (3, 3, 0, 3, 4), (3, 3, 1, 3, 4), (7, 3, 3, 3, 4),
        (2, 3, 0, 3, 4), (2, 3, 1, 3, 4),
        (3, 1, 1, 5, 1), (3, 2, 1, 5, 1), (2, 3, 1, 5, 1), (7, 2, 3, 5, 1),
        (2, 1, 0, 5, 2), (2, 1, 1, 5, 1), (2, 1, 3, 5, 2),
        (3, 1, 0, 5, 2), (3, 1, 1, 5, 4), (3, 1, 3, 5, 1),
        (7, 1, 0, 5, 1), (7, 1, 1, 5, 2), (7, 1, 3, 5, 4),
    ])
    def test_conv2d_phases_match_einsum_reference(self, kernel, stride, padding, channels,
                                                  out_channels, strided):
        x = rand((2, channels, 9, 8), 21)
        if strided:
            x = strided_copy(x)
            assert not x.flags.c_contiguous
        self._check_against_reference(x, kernel, stride, padding, out_channels)

    @pytest.mark.parametrize("padding", [0, 1])
    def test_maxpool_constant_map_sends_gradient_to_first_cell(self, padding):
        # every cell ties, so each window's gradient lands on its first
        # in-bounds cell in row-major order
        x = ad.tensor(np.full((1, 2, 7, 7), 3.0), requires_grad=True)
        out = ad.max_pool2d(x, kernel=3, stride=2, padding=padding)
        g = rand(out.shape, 25)
        out.backward(g)
        expect = np.zeros(x.shape)
        for r in range(out.shape[2]):
            for c in range(out.shape[3]):
                expect[:, :, max(2 * r - padding, 0), max(2 * c - padding, 0)] += g[:, :, r, c]
        np.testing.assert_array_equal(x.grad, expect)


    def test_maxpool_nan_in_a_later_window_cell_reaches_the_output(self):
        # (1, 1) is the last cell of window (0, 0), a middle cell of
        # windows (0, 1) and (1, 0), and the first cell of window (1, 1)
        vals = np.arange(16.0).reshape(1, 1, 4, 4)
        vals[0, 0, 1, 1] = np.nan
        x = ad.tensor(vals, requires_grad=True)
        out = ad.max_pool2d(x, kernel=3, stride=2, padding=1)
        assert np.isnan(out.data).all()
        out.backward(np.ones(out.shape))
        expect = np.zeros(x.shape)
        expect[0, 0, 1, 1] = 4.0
        np.testing.assert_array_equal(x.grad, expect)

    @staticmethod
    def _maxpool_reference(x, g, kernel, stride, padding):
        # np.argmax picks the first maximum, and the first NaN in a window
        h, w = x.shape[2:]
        pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
        xp = np.pad(x, pad, constant_values=np.finfo(x.dtype).min)
        windows = np.lib.stride_tricks.sliding_window_view(
            xp, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
        flat = windows.reshape(windows.shape[:4] + (-1,))
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        i, j = np.divmod(arg, kernel)
        b, c, r, q = np.indices(arg.shape)
        gxp = np.zeros_like(xp)
        np.add.at(gxp, (b, c, r * stride + i, q * stride + j), g)
        return out, gxp[:, :, padding:padding + h, padding:padding + w]

    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("nan", [False, True])
    def test_maxpool_matches_an_argmax_reference(self, kernel, padding, stride, nan):
        rng = np.random.default_rng(26)
        # small integers, so most windows tie
        x = rng.integers(-2, 3, (2, 3, 7, 8)).astype(np.float64)
        if nan:
            x[rng.random(x.shape) < 0.08] = np.nan
        t = ad.tensor(x, requires_grad=True)
        out = ad.max_pool2d(t, kernel, stride, padding)
        # integers, so a cell that wins several windows sums them exactly
        g = rng.integers(1, 9, out.shape).astype(np.float64)
        out.backward(g)
        want, want_grad = self._maxpool_reference(x, g, kernel, stride, padding)
        assert np.isnan(want).any() == nan
        np.testing.assert_array_equal(out.data, want)
        np.testing.assert_array_equal(t.grad, want_grad)

    def test_maxpool_shape_and_values(self):
        x = ad.tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = ad.max_pool2d(x, kernel=3, stride=2, padding=1)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool_gradcheck(self):
        # spread values so no two window entries tie within the step
        rng = np.random.default_rng(13)
        vals = rng.permutation(36).reshape(1, 1, 6, 6) * 1.0
        x = ad.tensor(vals, requires_grad=True)
        report = finite_diff_gradcheck(lambda t: ad.max_pool2d(t, 3, 2, 1), [x])
        assert report.passed, str(report)

    def test_conv2d_builds_no_gradient_for_a_constant_input(self, monkeypatch):
        build, builds = ad._conv_input_grad, []

        def counted_build(*args):
            builds.append(1)
            return build(*args)

        node, built = ad._conv_node, []

        def recorded_node(op, x, weight, bias, out, grads):
            def recorded_grads(g, need_input):
                gw, gx = grads(g, need_input)
                built.append(gx is not None)
                return gw, gx
            return node(op, x, weight, bias, out, recorded_grads)

        monkeypatch.setattr(ad, "_conv_input_grad", counted_build)
        monkeypatch.setattr(ad, "_conv_node", recorded_node)
        # (K, C, stride): the im2col form, then the projected form (K < C)
        for k, c, stride in ((4, 3, 2), (2, 5, 1)):
            weight_grads = []
            for requires_grad in (True, False):
                x = ad.tensor(rand((2, c, 9, 8), 21), requires_grad=requires_grad)
                w = ad.Parameter(rand((k, c, 3, 3), 22))
                out = ad.conv2d(x, w, stride=stride, padding=1)
                out.backward(rand(out.shape, 24))
                weight_grads.append(w.grad)
            np.testing.assert_array_equal(weight_grads[0], weight_grads[1])
        # each form builds its input gradient in _conv_input_grad, once,
        # and only for the input that requires one
        assert builds == [1, 1]
        assert built == [True, False, True, False]

    def test_conv2d_with_fewer_outputs_never_gathers_its_input(self, monkeypatch):
        gather, gathered = ad._patches, []

        def recorded_gather(op, x, *args):
            gathered.append(x.shape[1])
            return gather(op, x, *args)

        monkeypatch.setattr(ad, "_patches", recorded_gather)
        # K < C at stride 1: only the K-channel output gradient is gathered
        x = ad.tensor(rand((2, 6, 9, 8), 21), requires_grad=True)
        out = ad.conv2d(x, ad.Parameter(rand((2, 6, 3, 3), 22)), padding=1)
        out.backward(rand(out.shape, 24))
        assert gathered == [2]
        # K >= C gathers its C-channel input in the forward
        gathered.clear()
        ad.conv2d(x, ad.Parameter(rand((6, 6, 3, 3), 22)), padding=1)
        assert gathered == [6]

    @pytest.mark.parametrize("k,c", [(4, 3), (2, 6)], ids=["gathered", "projected"])
    def test_stride1_input_gradient_gathers_only_the_input_cells(self, monkeypatch, k, c):
        gather, gathered = ad._patches, []

        def recorded_gather(*args):
            cols = gather(*args)
            gathered.append(cols.shape)
            return cols

        monkeypatch.setattr(ad, "_patches", recorded_gather)
        x = ad.tensor(rand((2, c, 9, 8), 25), requires_grad=True)
        out = ad.conv2d(x, ad.Parameter(rand((k, c, 3, 3), 26)), padding=1)
        gathered.clear()
        ad.grad(out, [x], rand(out.shape, 27))
        # one gather of the output gradient, at the 9x8 input cells, not
        # at the 11x10 padded ones
        assert gathered == [(2, k, 3, 3, 9, 8)]

    def test_conv2d_stride_halves_odd_sizes(self):
        x = ad.tensor(np.zeros((1, 1, 7, 9)))
        w = ad.Parameter(np.zeros((1, 1, 3, 3)))
        out = ad.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 1, 4, 5)

    def test_conv2d_gradcheck(self):
        x = ad.tensor(rand((2, 2, 5, 5), 14), requires_grad=True)
        w = ad.Parameter(rand((3, 2, 3, 3), 15))
        b = ad.Parameter(rand(3, 16))
        report = finite_diff_gradcheck(
            lambda *t: ad.conv2d(*t[:2], stride=2, padding=1, bias=t[2]), [x, w, b])
        assert report.passed, str(report)

    def test_upsample_gradcheck(self):
        x = ad.tensor(rand((1, 2, 3, 3), 17), requires_grad=True)
        report = finite_diff_gradcheck(ad.upsample_nearest2x, [x])
        assert report.passed, str(report)


@pytest.mark.usefixtures("split_every_product")
class TestPoolAndConv2dSplit(TestPoolAndConv2d):
    """The conv2d (and max-pool) tests with every product split in two
    halves, so that the einsum oracles catch a misplaced half."""


class TestHalves:
    def test_small_work_runs_whole_and_large_work_at_the_middle(self, monkeypatch):
        monkeypatch.setattr(ad, "_CORES", 1)
        calls = []
        ad._halves(lambda lo, hi: calls.append((lo, hi)), 7, ad._SPLIT_WORK - 1)
        ad._halves(lambda lo, hi: calls.append((lo, hi)), 7, ad._SPLIT_WORK)
        ad._halves(lambda lo, hi: calls.append((lo, hi)), 1, ad._SPLIT_WORK)
        assert calls == [(0, 7), (0, 3), (3, 7), (0, 1)]

    def test_a_failing_caller_half_returns_after_the_worker(self, split_every_product):
        done = []

        def fn(lo, hi):
            if lo == 0:
                time.sleep(0.05)
                done.append(lo)
            else:
                raise MemoryError("caller half")

        with pytest.raises(MemoryError, match="caller half"):
            ad._halves(fn, 4, 0)
        assert done == [0]

    def test_a_worker_error_reraises_in_the_caller(self, split_every_product):
        def fn(lo, hi):
            if lo == 0:
                raise ValueError("worker half")

        with pytest.raises(ValueError, match="worker half"):
            ad._halves(fn, 4, 0)

    def test_callers_on_several_threads_share_the_worker(self, split_every_product):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((8, 16)), rng.standard_normal((3, 16, 40))
        want = ad._matmul(a, b)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                got = list(callers.map(lambda _: ad._matmul(a, b), range(64), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(g.tobytes() == want.tobytes() for g in got)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_the_worker_half_runs_under_the_callers_errstate(self, split_every_product):
        # inf * 0 is invalid in the first column only: the worker's half
        a = np.full((2, 3), np.inf)
        b = np.array([[0.0, 1.0]] * 3)
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                ad._matmul(a, b)
        with np.errstate(invalid="ignore"):
            out = ad._matmul(a, b)
        assert np.isnan(out[:, 0]).all() and np.isposinf(out[:, 1]).all()


class TestAdam:
    def test_first_step_magnitude(self):
        p = ad.Parameter(np.zeros(3))
        m, v = np.zeros(3), np.zeros(3)
        adam_step(p.data, np.ones(3), m, v, t=1, lr=0.1)
        np.testing.assert_allclose(np.abs(p.data), 0.1, rtol=1e-6)

    def test_zero_gradient_no_change(self):
        p = ad.Parameter(np.array([1.0, -2.0]))
        before = p.data.copy()
        m, v = np.zeros(2), np.zeros(2)
        adam_step(p.data, np.zeros(2), m, v, t=1, lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_descends_quadratic(self):
        theta = ad.Parameter(np.array([1.0]))
        opt = Adam()
        opt.add_group("g", [("theta", theta)])
        values = [float(theta.data[0] ** 2)]
        for _ in range(2):
            theta.grad[...] = 2.0 * theta.data
            opt.step({"g": 0.1})
            values.append(float(theta.data[0] ** 2))
        assert values[1] < values[0] and values[2] < values[1]


    def test_group_params_view_the_flat_buffers(self):
        a, b = ad.Parameter(np.ones((2, 3))), ad.Parameter(np.arange(4.0))
        opt = Adam()
        opt.add_group("g", [("a", a), ("b", b)])
        group = opt.groups["g"]
        for p in (a, b):
            assert np.shares_memory(p.data, group["value"])
            assert np.shares_memory(p.grad, group["grad"])
        np.testing.assert_array_equal(b.data, np.arange(4.0))
        a.grad[...], b.grad[...] = 1.0, -1.0
        opt.step({"g": 0.1})
        np.testing.assert_allclose(a.data, 1.0 - 0.1, rtol=1e-6)
        np.testing.assert_allclose(b.data, np.arange(4.0) + 0.1, rtol=1e-6)
        opt.zero_grad()
        assert not a.grad.any() and not b.grad.any()

    def test_parameter_held_by_another_group_refused(self):
        shared, other = ad.Parameter(np.ones(2)), ad.Parameter(np.ones(3))
        opt = Adam()
        opt.add_group("first", [("shared", shared)])
        with pytest.raises(ValueError, match="again: already held by optimizer group 'first'"):
            opt.add_group("second", [("other", other), ("again", shared)])
        assert list(opt.groups) == ["first"]
        assert not np.shares_memory(other.data, opt.groups["first"]["value"])
        with pytest.raises(ValueError, match="twice: already held"):
            opt.add_group("third", [("once", other), ("twice", other)])

    def test_group_mixing_dtypes_refused(self):
        opt = Adam()
        with pytest.raises(ValueError, match="mixes dtypes"):
            opt.add_group("g", [("a", ad.Parameter(np.ones(2, np.float32))),
                                ("b", ad.Parameter(np.ones(2, np.float64)))])
        assert not opt.groups


class TestBackwardMechanics:
    def test_repeat_backward_bitwise_identical(self):
        rng = np.random.default_rng(18)
        x = ad.tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        w = ad.Parameter(rng.standard_normal((3, 3)))
        y = ad.relu(ad.conv1x1(x, w))
        y.backward(np.ones(y.shape))
        g1 = (x.grad.copy(), w.grad.copy())
        x.grad = None
        w.grad[...] = 0
        y.backward(np.ones(y.shape))
        assert np.array_equal(g1[0], x.grad) and np.array_equal(g1[1], w.grad)

    def test_corrupted_backward_fails_gradcheck(self):
        # negative control: an op whose backward doubles the true gradient
        def broken_double(x):
            out = ad.Tensor(2.0 * x.data, requires_grad=True, _parents=(x,),
                            _backward=lambda g: ((x, 4.0 * g),))
            return out

        x = ad.tensor(rand((1, 1, 2, 2), 19), requires_grad=True)
        report = finite_diff_gradcheck(broken_double, [x])
        assert not report.passed

    def test_backward_from_a_root_that_requires_no_gradient_raises(self):
        w = ad.Parameter(np.ones((2, 2)))
        w.grad[...] = 5.0
        y = ad.conv1x1(ad.tensor(np.ones((1, 2, 2, 2))), ad.tensor(w.data))
        with pytest.raises(StateError, match="requires no gradient"):
            y.backward(np.ones(y.shape))
        with pytest.raises(StateError, match="requires no gradient"):
            ad.mse_loss(y, np.zeros(y.shape)).backward()
        assert (w.grad == 5.0).all()

    def test_nonscalar_backward_requires_seed(self):
        x = ad.tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        y = ad.relu(x)
        with pytest.raises(ValueError):
            y.backward()

    def test_mse_loss_value_and_grad(self):
        pred = ad.tensor(np.array([[[[1.0, 2.0]]]]), requires_grad=True)
        loss = ad.mse_loss(pred, np.array([[[[0.0, 0.0]]]]))
        assert float(loss.data) == pytest.approx(2.5)
        (g,) = ad.grad(loss, [pred])
        np.testing.assert_allclose(g, [[[[1.0, 2.0]]]])


class TestGrad:
    @pytest.mark.parametrize("case, build", [pytest.param(op, build, id=op)
                                             for op, _, build in verify._BATTERY])
    def test_equals_backward_bit_for_bit(self, case, build):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            fn, inputs = build(rng)
            out = fn(*inputs)
            proj = rng.standard_normal(out.shape)
            got = ad.grad(out, inputs, proj)
            for t in inputs:
                if isinstance(t, ad.Parameter):
                    t.grad[...] = 0
                else:
                    t.grad = None
            out.backward(proj)
            for t, g in zip(inputs, got):
                assert g.dtype == t.grad.dtype
                assert g.tobytes() == t.grad.tobytes(), (case, seed)

    def test_a_tensor_the_root_does_not_depend_on_gets_zeros(self):
        x = ad.tensor(rand((1, 2, 3, 3), 30), requires_grad=True)
        other = ad.tensor(rand((1, 2, 2, 2), 31), requires_grad=True)
        y = ad.relu(x)
        gx, gother = ad.grad(y, [x, other], np.ones(y.shape))
        np.testing.assert_array_equal(gx, x.data > 0)
        assert gother.shape == other.shape and not gother.any()

    def test_reads_an_interior_gradient_and_writes_no_grad(self):
        x = ad.tensor(rand((2, 3, 4, 4), 32))
        w = ad.Parameter(rand((3, 3), 33))
        w.grad[...] = 5.0
        y = ad.conv1x1(x, w)
        z = ad.relu(y)
        (gy,) = ad.grad(z, [y], np.ones(z.shape))
        np.testing.assert_array_equal(gy, (y.data > 0).astype(y.dtype))
        assert y.grad is None and z.grad is None and (w.grad == 5.0).all()

    def test_the_same_tensor_reached_twice_sums_both_paths(self):
        x = ad.tensor(rand((1, 1, 2, 2), 34), requires_grad=True)
        y = ad.relu(x)
        z = ad.mul(y, y)
        gx, gy = ad.grad(z, [x, y], np.ones(z.shape))
        np.testing.assert_array_equal(gy, 2.0 * y.data)
        np.testing.assert_array_equal(gx, 2.0 * y.data * (x.data > 0))
