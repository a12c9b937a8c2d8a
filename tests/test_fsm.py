"""Shifting, correlation attention, module assembly, oracle, costs."""

import hashlib

import numpy as np
import pytest

from shiftpose import autodiff as ad
from shiftpose import fsm
from shiftpose.errors import DimensionError, StateError
from shiftpose.gradcheck import finite_diff_gradcheck


def tmap(values):
    return ad.tensor(np.asarray(values, dtype=np.float64)[None, None])


def module_with_branch(c, k, rng=0):
    """Active double-precision module with eval-identity norm and a random
    output projection, drawn after the module's own draws."""
    rng = np.random.default_rng(rng)
    module = fsm.FeatureShiftModule(c, k, rng, np.float64)
    module.out_weight.data[...] = rng.standard_normal((c, k)) * np.sqrt(2.0 / k)
    return module


def mixed_offsets(rng, k, size):
    """Per-channel offsets drawn from three kinds: fractional, integral
    (either sign, zero included) and fully out of view (|d| > size)."""
    kind = rng.integers(0, 3, k)
    fractional = rng.uniform(-3.0, 3.0, k)
    integral = rng.integers(-3, 4, k).astype(np.float64)
    out_of_view = rng.choice([-1.0, 1.0], k) * (size + rng.uniform(0.1, 2.0, k))
    return np.choose(kind, [fractional, integral, out_of_view])


class TestShiftForward:
    def test_matches_scalar_sampler_at_every_pixel(self):
        rng = np.random.default_rng(19)
        b, k, h, w = 2, 24, 5, 7
        maps = rng.standard_normal((b, k, h, w))
        dx, dy = mixed_offsets(rng, k, w), mixed_offsets(rng, k, h)
        for d, size in ((dx, w), (dy, h)):
            assert (d != np.round(d)).any() and (d == np.round(d)).any()
            assert (d < 0).any() and (np.abs(d) > size).any()
        out = fsm.shift(ad.tensor(maps), ad.Parameter(dx), ad.Parameter(dy)).data
        expect = [[[[ad.bilinear_sample(maps[i, c], x - dx[c], y - dy[c])
                     for x in range(w)] for y in range(h)]
                   for c in range(k)] for i in range(b)]
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12)

    def test_integer_shift_is_translation_with_zero_fill(self):
        out = fsm.shift(tmap([[1.0, 2.0], [3.0, 4.0]]),
                        ad.Parameter(np.array([1.0])), ad.Parameter(np.array([0.0])))
        np.testing.assert_array_equal(out.data[0, 0], [[0.0, 1.0], [0.0, 3.0]])

    def test_fractional_shift_hand_values(self):
        out = fsm.shift(tmap([[1.0, 2.0], [3.0, 4.0]]),
                        ad.Parameter(np.array([0.5])), ad.Parameter(np.array([0.0])))
        np.testing.assert_allclose(out.data[0, 0], [[0.5, 1.5], [1.5, 3.5]])

    def test_zero_offsets_identity_bitexact(self):
        rng = np.random.default_rng(0)
        maps = ad.tensor(rng.standard_normal((2, 3, 5, 4)))
        out = fsm.shift(maps, ad.Parameter(np.zeros(3)), ad.Parameter(np.zeros(3)))
        assert np.array_equal(out.data, maps.data)

    def test_channel_count_mismatch(self):
        with pytest.raises(DimensionError, match="offsets"):
            fsm.shift(ad.tensor(np.zeros((1, 2, 3, 3))),
                      ad.Parameter(np.zeros(3)), ad.Parameter(np.zeros(3)))

    def test_composition_with_integer_leg_is_exact(self):
        # translation composes exactly whenever one leg is integral:
        # integer translation is lossless so no double resampling occurs
        rng = np.random.default_rng(1)
        maps = ad.tensor(rng.standard_normal((1, 1, 9, 9)))
        one = lambda v: (ad.Parameter(np.array([v])), ad.Parameter(np.zeros(1)))
        interior = (slice(None), slice(None), slice(3, -3), slice(3, -3))
        for a, b in ((2.0, 0.7), (0.7, 2.0), (1.0, -1.3)):
            composed = fsm.shift(fsm.shift(maps, *one(a)), *one(b)).data
            direct = fsm.shift(maps, *one(a + b)).data
            np.testing.assert_allclose(composed[interior], direct[interior],
                                       atol=1e-12)

    def test_composition_fractional_on_locally_affine_maps(self):
        # two fractional resamples equal one summed resample exactly when
        # the map is locally affine (bilinear interpolation is exact there)
        ys, xs = np.meshgrid(np.arange(9.0), np.arange(9.0), indexing="ij")
        ramp = ad.tensor((0.7 * xs - 1.3 * ys + 2.0)[None, None])
        one = lambda v: (ad.Parameter(np.array([v])), ad.Parameter(np.zeros(1)))
        a, b = 0.6, 0.7
        composed = fsm.shift(fsm.shift(ramp, *one(a)), *one(b)).data
        direct = fsm.shift(ramp, *one(a + b)).data
        interior = (slice(None), slice(None), slice(3, -3), slice(3, -3))
        np.testing.assert_allclose(composed[interior], direct[interior], atol=1e-9)


@pytest.mark.usefixtures("split_every_product")
class TestShiftForwardSplit(TestShiftForward):
    """The forward tests with shift's passes split in two channel halves."""


def translate_axis_by_adjacent_runs(maps, d, axis, difference=False):
    """``fsm._translate_axis`` without the grouping: channels stay in
    order and each run of adjacent channels sharing ``o`` gets its own
    pair of slice updates."""
    n = maps.shape[axis]
    m = -np.asarray(d, dtype=np.float64)
    o = np.floor(m)
    f = (m - o).astype(maps.dtype)
    o = o.astype(np.int64)
    lead = (slice(None),) * (axis - 2)

    def view(a, channels, lo, hi):
        return a[(slice(None), channels) + lead + (slice(lo, hi),)]

    out = np.zeros_like(maps)
    cuts = (np.flatnonzero(np.diff(o)) + 1).tolist()
    for k0, k1 in zip([0] + cuts, cuts + [len(o)]):
        ch = slice(k0, k1)
        fk = f[ch].reshape(-1, 1, 1)
        taps = (-1, 1) if difference else (1 - fk, fk)
        for t, wgt in zip((int(o[k0]), int(o[k0]) + 1), taps):
            lo, hi = max(0, -t), min(n, n - t)
            if lo < hi:
                dst = view(out, ch, lo, hi)
                dst += wgt * view(maps, ch, lo + t, hi + t)
    return out


class TestTranslateAxis:
    @pytest.mark.parametrize("pattern", ["equal", "alternating", "spread", "single"])
    @pytest.mark.parametrize("difference", [False, True])
    @pytest.mark.parametrize("axis", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grouped_runs_equal_adjacent_runs_bitwise(self, pattern, difference, axis,
                                                      dtype):
        rng = np.random.default_rng(41)
        k = 1 if pattern == "single" else 16
        d = {"equal": np.full(k, 0.3),
             "alternating": np.where(np.arange(k) % 2, -1.4, 0.6),
             "spread": rng.uniform(-8.0, 8.0, k),
             "single": rng.uniform(-2.0, 2.0, k)}[pattern]
        maps = rng.standard_normal((2, k, 9, 11)).astype(dtype)
        got = fsm._translate_axis(maps, d, axis, difference)
        want = translate_axis_by_adjacent_runs(maps, d, axis, difference)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


class TestShiftBackward:
    def test_integer_offset_ones_upstream(self):
        maps = tmap([[1.0, 2.0], [3.0, 4.0]])
        maps.requires_grad = True
        dx, dy = ad.Parameter(np.array([1.0])), ad.Parameter(np.array([0.0]))
        out = fsm.shift(maps, dx, dy)
        (g,) = ad.grad(out, [maps], np.ones_like(out.data))
        # source pixels still in view received the upstream; the column
        # pushed out of view got nothing
        np.testing.assert_array_equal(g[0, 0], [[1.0, 0.0], [1.0, 0.0]])

    def test_map_gradient_is_the_adjoint_shift(self):
        rng = np.random.default_rng(20)
        maps = ad.tensor(rng.standard_normal((2, 24, 6, 5)), requires_grad=True)
        dx, dy = mixed_offsets(rng, 24, 5), mixed_offsets(rng, 24, 6)
        g = rng.standard_normal(maps.shape)
        out = fsm.shift(maps, ad.Parameter(dx), ad.Parameter(dy))
        (maps_grad,) = ad.grad(out, [maps], g)
        # the y pass, then the x pass, with negated offsets
        adjoint = fsm._translate_axis(fsm._translate_axis(g, -dy, 2), -dx, 3)
        np.testing.assert_array_equal(maps_grad, adjoint)
        np.testing.assert_allclose(np.vdot(out.data, g), np.vdot(maps.data, adjoint),
                                   rtol=1e-13)

    def test_constant_map_interior_offset_grads_are_zero(self):
        maps = ad.tensor(np.full((1, 1, 5, 5), 3.0), requires_grad=True)
        dx = ad.Parameter(np.array([0.4]))
        dy = ad.Parameter(np.array([0.3]))
        out = fsm.shift(maps, dx, dy)
        seed = np.zeros_like(out.data)
        seed[0, 0, 2, 2] = 1.0  # all four corners strictly inside
        gdx, gdy = ad.grad(out, [dx, dy], seed)
        assert gdx[0] == 0.0 and gdy[0] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_offset_gradients_sum_in_channel_major_order(self, dtype):
        """At B > 1 the offset gradients' bits depend on the order their
        per-channel sums walk (B, H, W): the einsum over operands laid out
        (K, B, H, W), as the translation passes lay out their results."""
        rng = np.random.default_rng(8)
        b, k, h, w = 3, 5, 6, 7
        maps, g = (rng.standard_normal((b, k, h, w)).astype(dtype) for _ in range(2))
        dx, dy = (rng.uniform(-2.0, 2.0, k).astype(dtype) for _ in range(2))
        offsets = [ad.Parameter(dx), ad.Parameter(dy)]
        gdx, gdy = ad.grad(fsm.shift(ad.tensor(maps), *offsets), offsets, g)

        def translated(src, d, axis, difference):
            dst = np.empty((k, b, h, w), dtype).transpose(1, 0, 2, 3)
            return fsm._translate_axis(src, d, axis, difference, out=dst)

        g_y = translated(g, -dy, 2, False)
        d_gx = translated(maps, dx, 3, True)
        d_gy = translated(translated(maps, dx, 3, False), dy, 2, True)
        assert gdx.tobytes() == (-np.einsum("bkhw,bkhw->k", g_y, d_gx)).tobytes()
        assert gdy.tobytes() == (-np.einsum("bkhw,bkhw->k", g, d_gy)).tobytes()

    def test_forward_and_map_gradient_bytes_are_pinned(self):
        """Integer, fractional and out-of-view offsets in float32. Every
        step is an elementwise multiply or add, a gather or a scatter, so
        the bytes are the same on any machine."""
        rng = np.random.default_rng(21)
        maps = ad.tensor(rng.standard_normal((2, 6, 9, 11)).astype(np.float32),
                         requires_grad=True)
        dx = ad.Parameter(np.array([-3.25, -0.5, 0, 0.75, 2, 7.5], np.float32))
        dy = ad.Parameter(np.array([1.5, -2.25, 0.25, 0, -12, 3], np.float32))
        g = rng.standard_normal(maps.shape).astype(np.float32)
        out = fsm.shift(maps, dx, dy)
        (maps_grad,) = ad.grad(out, [maps], g)
        # laid out (K, B, H, W): a batch step is one map, a channel step two
        assert out.data.strides == (9 * 11 * 4, 2 * 9 * 11 * 4, 11 * 4, 4)
        assert hashlib.sha256(out.data.tobytes()).hexdigest() == (
            "7a15dc1f2be7d38f58ebde6ee185f498ce1d47cdf4f4cf7ebf1b40cbd222fc08")
        assert hashlib.sha256(maps_grad.tobytes()).hexdigest() == (
            "ffcddee05ece7d5fbaff718ffd9c9fc1e4b6e47b51ea8a1419178a7d349a4d08")

    def test_offset_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        maps = ad.tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        dx = ad.Parameter(np.array([0.37, -1.48, 2.21]))
        dy = ad.Parameter(np.array([-0.63, 0.29, 1.57]))
        report = finite_diff_gradcheck(lambda *t: fsm.shift(*t), [maps, dx, dy])
        assert report.passed, str(report)


@pytest.mark.usefixtures("split_every_product")
class TestShiftBackwardSplit(TestShiftBackward):
    """The backward tests with shift's passes split in two channel halves."""


class TestCorrelationAttention:
    def test_zero_gate_weight_sigmoid_is_half(self):
        p = ad.tensor(np.random.default_rng(4).standard_normal((1, 2, 3, 3)))
        gate = fsm.ca_forward(p, ad.Parameter(np.zeros((4, 2))))
        np.testing.assert_array_equal(gate.data, np.full((1, 4, 3, 3), 0.5))

    def test_sigmoid_values_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(6)
        p = ad.tensor(rng.standard_normal((2, 3, 4, 4)))
        w = ad.Parameter(rng.standard_normal((5, 3)))
        gate = fsm.ca_forward(p, w).data
        assert (gate > 0.0).all() and (gate < 1.0).all()

    def test_gradcheck(self):
        rng = np.random.default_rng(7)
        p = ad.tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        w = ad.Parameter(rng.standard_normal((3, 2)))
        report = finite_diff_gradcheck(fsm.ca_forward, [p, w])
        assert report.passed, str(report)


class TestModuleForward:
    def test_dead_branch_reduces_to_relu(self):
        rng = np.random.default_rng(8)
        module = module_with_branch(3, 4, rng=8)
        module.out_weight.data[...] = 0.0
        p = ad.tensor(rng.standard_normal((2, 3, 4, 4)))
        out = module.forward(p, mode="eval")
        np.testing.assert_allclose(out.data, np.maximum(p.data, 0.0), atol=1e-4)

    def test_hand_evaluated_chain(self):
        # K=1, C=1, unit projections, constant 0.5 gate, offset (1, 0)
        module = module_with_branch(1, 1)
        module.in_weight.data[...] = 1.0
        module.out_weight.data[...] = 1.0
        module.gate_weight.data[...] = 0.0
        module.dx.data[...] = 1.0
        module.dy.data[...] = 0.0

        out = module.forward(tmap([[0.0, 2.0], [0.0, 4.0]]), mode="eval")
        np.testing.assert_allclose(out.data[0, 0], [[0.0, 2.0], [0.0, 4.0]], atol=1e-4)

        out = module.forward(tmap([[1.0, 2.0], [3.0, 4.0]]), mode="eval")
        np.testing.assert_allclose(out.data[0, 0], [[1.0, 2.5], [3.0, 5.5]], atol=1e-4)

    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        module = module_with_branch(3, 4, rng=9)
        module.dx.data[...] = rng.uniform(-2, 2, 4)
        module.dy.data[...] = rng.uniform(-2, 2, 4)
        p = ad.tensor(rng.standard_normal((1, 3, 6, 5)))
        fast = module.forward(p, mode="train").data
        slow = fsm.fsm_oracle(p, module, mode="train").data
        np.testing.assert_allclose(fast, slow, rtol=1e-6, atol=1e-9)

    def test_the_module_fuses_its_relu_and_the_oracle_does_not(self, monkeypatch):
        # so the oracle check compares the fused pass with the composed ops
        relu, calls = ad.relu, []
        monkeypatch.setattr(ad, "relu", lambda t: calls.append(t) or relu(t))
        module = module_with_branch(2, 2, rng=9)
        p = ad.tensor(np.random.default_rng(9).standard_normal((1, 2, 4, 4)))
        module.forward(p, mode="eval")
        assert calls == []
        fsm.fsm_oracle(p, module, mode="eval")
        assert len(calls) == 1

    def test_full_gradcheck_including_offsets(self):
        rng = np.random.default_rng(10)
        c, k = 2, 3
        p = ad.tensor(rng.standard_normal((2, c, 5, 5)), requires_grad=True)
        module = module_with_branch(c, k, rng)
        module.dx.data[...] = [0.31, -1.42, 1.27]
        module.dy.data[...] = [-0.56, 0.44, 2.18]
        inputs = [p] + [t for _, t in module.state() if isinstance(t, ad.Parameter)]
        report = finite_diff_gradcheck(lambda p_, *_: module.forward(p_, "train"),
                                       inputs)
        assert report.passed, str(report)
        # offsets must carry real signal, not vacuous zeros
        out = module.forward(p, "train")
        (gdx,) = ad.grad(out, [module.dx], rng.standard_normal(out.shape))
        assert np.abs(gdx).max() > 0

    def test_channel_mismatch(self):
        module = module_with_branch(3, 2)
        with pytest.raises(DimensionError, match="channels"):
            module.forward(ad.tensor(np.zeros((1, 4, 3, 3))))


class TestBranches:
    """``branches`` reads a taped forward's branch tensors off its output."""

    @staticmethod
    def _taped():
        rng = np.random.default_rng(12)
        module = module_with_branch(3, 4, rng=12)
        p = ad.tensor(rng.standard_normal((2, 3, 5, 6)), requires_grad=True)
        return module, p, module.forward(p, mode="eval")

    def test_returns_the_tensors_the_module_consumed(self):
        module, p, out = self._taped()
        b = module.branches(out)
        assert b.keys() == {"pre_shift", "post_shift", "attention", "nonlocal"}
        assert b["pre_shift"].data.tobytes() == (
            ad.conv1x1(p, module.in_weight).data.tobytes())
        assert b["post_shift"].data.tobytes() == (
            fsm.shift(b["pre_shift"], module.dx, module.dy).data.tobytes())
        assert b["attention"].data.tobytes() == (
            fsm.ca_forward(p, module.gate_weight).data.tobytes())
        gated = ad.mul(b["attention"], b["post_shift"])
        assert b["nonlocal"].data.tobytes() == (
            ad.conv1x1(gated, module.out_weight).data.tobytes())
        assert all(t._backward is not None for t in b.values())

    def test_untaped_output_raises(self):
        module, p, _ = self._taped()
        with ad._recording(False):
            out = module.forward(p, mode="eval")
        with pytest.raises(StateError, match="no tape"):
            module.branches(out)

    def test_bypassed_module_raises(self):
        module, p, out = self._taped()
        module.active = False
        with pytest.raises(StateError, match="bypassed"):
            module.branches(out)

    def test_another_modules_output_raises(self):
        module, p, _ = self._taped()
        other = module_with_branch(3, 4, rng=13)
        with pytest.raises(StateError, match="another module"):
            module.branches(other.forward(p, mode="eval"))


class TestOracle:
    def test_zero_out_weight_is_relu_norm(self):
        rng = np.random.default_rng(11)
        module = module_with_branch(2, 3, rng=11)
        module.out_weight.data[...] = 0.0
        p = ad.tensor(rng.standard_normal((1, 2, 4, 4)))
        out = fsm.fsm_oracle(p, module, mode="eval")
        np.testing.assert_allclose(out.data, np.maximum(p.data, 0.0), atol=1e-4)

    def test_constant_gate_reduces_to_translated_rank1_conv(self):
        # w_f = 0 makes the sigmoid gate exactly 1/2 everywhere, so the
        # induced kernel is the rank-1 outer product halved, applied at a
        # pure integer translation
        rng = np.random.default_rng(12)
        c = 3
        module = module_with_branch(c, 1, rng=12)
        module.gate_weight.data[...] = 0.0
        module.dx.data[...] = 2.0
        module.dy.data[...] = -1.0
        pv = rng.standard_normal((1, c, 6, 6))
        shifted = fsm.shift(ad.tensor(pv), ad.tensor(np.full(c, 2.0)),
                            ad.tensor(np.full(c, -1.0))).data
        rank1 = np.einsum("ck,kd,bdhw->bchw",
                          module.out_weight.data, module.in_weight.data, shifted)
        expect = pv + 0.5 * rank1
        out = fsm.fsm_oracle(ad.tensor(pv), module, mode="eval")
        np.testing.assert_allclose(out.data, np.maximum(expect, 0.0), atol=1e-4)

    def test_equivalence_sweep(self):
        from shiftpose.verify import oracle_trials

        results, ok = oracle_trials(trials=8)
        assert ok, results

    def test_sweep_detects_a_wrong_translation_kernel(self, monkeypatch):
        from shiftpose.verify import oracle_trials

        translate = fsm._translate_axis

        def first_channel_offset(maps, d, axis, difference=False, out=None, acc=None):
            d = np.asarray(d)
            return translate(maps, np.full_like(d, d[0]), axis, difference, out, acc)

        monkeypatch.setattr(fsm, "_translate_axis", first_channel_offset)
        results, ok = oracle_trials(trials=8)
        assert not ok, results


class TestGateProperty:
    def test_zeroing_gate_removes_channel_contribution(self):
        rng = np.random.default_rng(13)
        c, k = 3, 4
        module = module_with_branch(c, k, rng=13)
        p = ad.tensor(rng.standard_normal((1, c, 5, 5)))
        pre = fsm.shift(ad.conv1x1(p, module.in_weight),
                        module.dx, module.dy).data
        gate = fsm.ca_forward(p, module.gate_weight).data.copy()
        kk, y, x = 2, 3, 1
        gate_mod = gate.copy()
        gate_mod[0, kk, y, x] = 0.0
        contrib = module.out_weight.data[:, kk, None, None] * (gate_mod[0, kk] * pre[0, kk])
        assert np.abs(contrib[:, y, x]).max() == 0.0
        # untouched positions keep the exact same gated values
        gated, gated_mod = gate * pre, gate_mod * pre
        mask = np.ones_like(gated, dtype=bool)
        mask[0, kk, y, x] = False
        assert np.array_equal(gated[mask], gated_mod[mask])


class TestParamCount:
    def test_paper_scale_counts(self):
        assert fsm.fsm_param_count(64, 256)["fsm"] == 49_664
        assert fsm.fsm_param_count(1, 1) == {
            "fsm": 5, "active_conv": 3, "deformable_conv": 3}
        big = fsm.fsm_param_count(256, 512)
        assert big["fsm"] == 394_240
        assert big["active_conv"] == 33_555_456

    def test_matches_slot_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            c = int(rng.integers(1, 40))
            k = int(rng.integers(1, 40))
            module = fsm.FeatureShiftModule(c, k, rng=rng)
            slots = (module.in_weight.size + module.gate_weight.size
                     + module.out_weight.size + module.dx.size
                     + module.dy.size)
            assert slots == fsm.fsm_param_count(c, k)["fsm"]


class TestOffsetTable:
    def test_round_trip_float32_exact(self):
        from shiftpose.analysis import export_offsets
        from shiftpose.network import NetworkGraph

        rng = np.random.default_rng(15)
        module = fsm.FeatureShiftModule(2, 6, rng=rng)
        module.dx.data[...] = rng.uniform(-9, 9, 6)
        module.dy.data[...] = rng.uniform(-9, 9, 6)
        graph = NetworkGraph((2, 4, 4))
        graph.add("fsm1", module)
        header, *lines = export_offsets(graph).splitlines()
        assert header == "module_id,k,dx,dy"
        rows = [line.split(",") for line in lines]
        assert [r[0] for r in rows] == ["fsm1"] * 6
        assert [int(r[1]) for r in rows] == list(range(6))
        back_dx = np.array([float(r[2]) for r in rows], dtype=np.float32)
        back_dy = np.array([float(r[3]) for r in rows], dtype=np.float32)
        assert np.array_equal(back_dx, module.dx.data)
        assert np.array_equal(back_dy, module.dy.data)


class TestBypassAndInsertion:
    def test_bypass_is_exact_identity(self):
        module = fsm.FeatureShiftModule(3, 4, active=False)
        p = ad.tensor(np.random.default_rng(16).standard_normal((1, 3, 4, 4)))
        assert module.forward(p, "train") is p

    def test_bypassed_module_holds_the_bytes_of_an_active_one(self):
        # so inserting a module is setting ``active``, and draws nothing
        modules = [fsm.FeatureShiftModule(2, 3, np.random.default_rng(17), active=a)
                   for a in (False, True)]
        bypassed, active = ([(n, (v.data if isinstance(v, ad.Parameter) else v).tobytes())
                             for n, v in m.state()] for m in modules)
        assert bypassed == active
        assert not modules[1].out_weight.data.any()

    def test_fresh_offsets_within_init_range(self):
        module = fsm.FeatureShiftModule(2, 64, rng=np.random.default_rng(18))
        for arr in (module.dx.data, module.dy.data):
            assert np.abs(arr).max() <= fsm.OFFSET_INIT_RANGE
