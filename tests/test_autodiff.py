"""Tensor substrate: forward semantics, analytic backwards, Adam."""

import numpy as np
import pytest

from shiftpose import autodiff as ad
from shiftpose.errors import ConfigError, DimensionError
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

    def test_linearity_exact(self):
        rng = np.random.default_rng(5)
        w = ad.Parameter(rng.standard_normal((3, 4)))
        x = ad.tensor(rng.standard_normal((2, 4, 3, 3)))
        y = ad.tensor(rng.standard_normal((2, 4, 3, 3)))
        a, b = 0.37, -1.21
        combo = ad.conv1x1(ad.tensor(a * x.data + b * y.data), w).data
        split = a * ad.conv1x1(x, w).data + b * ad.conv1x1(y, w).data
        np.testing.assert_allclose(combo, split, rtol=0, atol=1e-12)


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

    def test_running_stats_update(self):
        x = ad.tensor(np.full((1, 1, 2, 2), 10.0))
        rm, rv = np.zeros(1), np.ones(1)
        ad.batch_norm(x, ad.Parameter(np.ones(1)), ad.Parameter(np.zeros(1)),
                      rm, rv, "train", momentum=0.1)
        assert rm[0] == pytest.approx(1.0)
        assert rv[0] == pytest.approx(0.9)


class TestActivations:
    def test_relu(self):
        out = ad.relu(ad.tensor(np.array([[[[-1.0, 0.0, 2.0]]]])))
        np.testing.assert_array_equal(out.data, [[[[0.0, 0.0, 2.0]]]])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.tensor(np.zeros((1, 1, 1, 1)))).data[0, 0, 0, 0] == 0.5

    def test_softplus_at_zero(self):
        val = ad.softplus(ad.tensor(np.zeros((1, 1, 1, 1)))).data[0, 0, 0, 0]
        assert val == pytest.approx(np.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("op", [ad.relu, ad.sigmoid, ad.softplus])
    def test_gradcheck(self, op):
        x = ad.tensor(rand((2, 2, 3, 3), 12) + 0.31, requires_grad=True)
        report = finite_diff_gradcheck(op, [x])
        assert report.passed, str(report)


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
    def _check_against_reference(x, kernel, stride, padding):
        x = ad.tensor(x, requires_grad=True)
        w = ad.Parameter(rand((4, 3, kernel, kernel), 22))
        b = ad.Parameter(rand(4, 23))
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
        opt.add_group("g", [("theta", theta)], lr=0.1)
        values = [float(theta.data[0] ** 2)]
        for _ in range(2):
            theta.grad[...] = 2.0 * theta.data
            opt.step()
            values.append(float(theta.data[0] ** 2))
        assert values[1] < values[0] and values[2] < values[1]


class TestBackwardMechanics:
    def test_repeat_backward_bitwise_identical(self):
        rng = np.random.default_rng(18)
        x = ad.tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        w = ad.Parameter(rng.standard_normal((3, 3)))
        loss = ad.sum_all(ad.relu(ad.conv1x1(x, w)))
        x.zero_grad(); w.zero_grad()
        loss.backward()
        g1 = (x.grad.copy(), w.grad.copy())
        x.zero_grad(); w.zero_grad()
        loss.backward()
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

    def test_nonscalar_backward_requires_seed(self):
        x = ad.tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        y = ad.relu(x)
        with pytest.raises(ValueError):
            y.backward()

    def test_mse_loss_value_and_grad(self):
        pred = ad.tensor(np.array([[[[1.0, 2.0]]]]), requires_grad=True)
        loss = ad.mse_loss(pred, np.array([[[[0.0, 0.0]]]]))
        assert float(loss.data) == pytest.approx(2.5)
        pred.zero_grad()
        loss.backward()
        np.testing.assert_allclose(pred.grad, [[[[1.0, 2.0]]]])
