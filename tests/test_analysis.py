"""Keypoint-offset scores, receptive-field probes, offset export."""

import hashlib

import numpy as np
import pytest

from shiftpose import analysis as ana
from shiftpose import autodiff as ad
from shiftpose import network as net
from shiftpose.errors import ConfigError
from shiftpose.fsm import FeatureShiftModule, OFFSET_INIT_RANGE
from shiftpose.network import ConvBlock, NetworkGraph


def single_fsm_graph(c=2, k=5, keypoints=1, hw=(8, 8), seed=0, offsets=None):
    """Input -> shifting module -> pointwise head, eval-identity norm."""
    rng = np.random.default_rng(seed)
    g = NetworkGraph((c, hw[0], hw[1]), dtype=np.float64)
    module = FeatureShiftModule(c, k, rng, np.float64, active=True)
    module.out_weight.data[...] = rng.standard_normal((c, k)) * 0.4
    if offsets is not None:
        module.dx.data[...] = offsets[0]
        module.dy.data[...] = offsets[1]
    g.add("fsm1", module)
    g.add("head", ConvBlock(c, keypoints, 1, bias=True, rng=rng, dtype=np.float64))
    return g, module


def batch(c=2, hw=(8, 8), b=2, seed=1):
    return np.random.default_rng(seed).standard_normal((b, c) + hw)


class TestKeypointOffsetScores:
    def test_single_path_model_scores_one_channel(self):
        g, module = single_fsm_graph(seed=2)
        wired = 3
        module.out_weight.data[...] = 0.0
        module.out_weight.data[:, wired] = 1.0
        scores = ana.keypoint_offset_scores(g, batch(seed=3), "fsm1")
        assert scores.shape == (1, 5)
        assert scores[0, wired] == 1.0
        others = np.delete(scores[0], wired)
        np.testing.assert_array_equal(others, 0.0)

    def test_severed_branch_scores_all_zero(self):
        g, module = single_fsm_graph(seed=4)
        module.out_weight.data[...] = 0.0
        scores = ana.keypoint_offset_scores(g, batch(seed=5), "fsm1")
        np.testing.assert_array_equal(scores, 0.0)

    def test_invariant_to_positive_head_rescale(self):
        g, _ = single_fsm_graph(seed=6)
        images = batch(seed=7)
        before = ana.keypoint_offset_scores(g, images, "fsm1").copy()
        head = dict(g.node("head").layer.state())
        head["weight"].data *= 3.7
        head["bias"].data *= 3.7
        after = ana.keypoint_offset_scores(g, images, "fsm1")
        np.testing.assert_allclose(after, before, rtol=1e-9)

    def test_deterministic_for_fixed_model_and_batch(self):
        g, _ = single_fsm_graph(seed=8)
        images = batch(seed=9)
        a = ana.keypoint_offset_scores(g, images, "fsm1")
        b = ana.keypoint_offset_scores(g, images, "fsm1")
        assert np.array_equal(a, b)

    def test_degenerate_all_zero_predictions_warn(self):
        g, module = single_fsm_graph(seed=10)
        module.out_weight.data[...] = 0.0
        head = dict(g.node("head").layer.state())
        head["weight"].data[...] = 0.0
        head["bias"].data[...] = 0.0
        with pytest.warns(UserWarning, match="all-zero"):
            scores = ana.keypoint_offset_scores(g, batch(seed=11), "fsm1")
        np.testing.assert_array_equal(scores, 0.0)

    def test_normalized_column_max_is_one(self):
        g, _ = single_fsm_graph(c=3, k=4, keypoints=2, seed=12)
        scores = ana.keypoint_offset_scores(g, batch(c=3, seed=13), "fsm1")
        assert scores.min() >= 0.0
        col_max = scores.max(axis=0)
        np.testing.assert_allclose(col_max[col_max > 0], 1.0)


class TestReadOnly:
    @staticmethod
    def _graph():
        g = net.build_toy_fsm_net((16, 16), 1, 2, 4, 8, fsm_active=True,
                                  rng=np.random.default_rng(40))
        module = g.node("fsm1").layer
        module.out_weight.data[...] = np.random.default_rng(41).standard_normal(
            module.out_weight.shape) * 0.3
        return g, module

    @staticmethod
    def _tape(module, outputs):
        seen, stack = {}, list(module.branches(outputs["fsm1"]).values())
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen[id(t)] = t
                stack.extend(t._parents)
        return [t for t in seen.values() if not isinstance(t, ad.Parameter)]

    @pytest.mark.parametrize("analysis", ["kp-scores", "erf"])
    def test_leaves_every_gradient_buffer_as_it_was(self, analysis, kept_outputs):
        g, module = self._graph()
        params = [p for node in g.nodes for _, p in node.layer.state()
                  if isinstance(p, ad.Parameter)]
        for i, p in enumerate(params):
            p.grad[...] = 0.25 + i
        before = [p.grad.tobytes() for p in params]
        images = np.random.default_rng(42).standard_normal((2, 1, 16, 16))
        outputs = kept_outputs(g)
        if analysis == "kp-scores":
            assert ana.keypoint_offset_scores(g, images, "fsm1").any()
        else:
            assert ana.erf_map(g, images, "fsm1", 1, (2, 1)).any()
        assert [p.grad.tobytes() for p in params] == before
        (outs,) = outputs
        tape = self._tape(module, outs)
        assert any(t._backward is not None for t in tape)
        assert all(t.grad is None for t in tape)

    def test_kp_scores_build_no_gradient_upstream_of_the_module(self, monkeypatch):
        build, shapes = ad._conv_input_grad, []

        def recorded_build(g, weight, x_shape, *args):
            shapes.append(tuple(x_shape))
            return build(g, weight, x_shape, *args)

        monkeypatch.setattr(ad, "_conv_input_grad", recorded_build)
        g, _ = self._graph()
        images = np.random.default_rng(43).standard_normal((2, 1, 16, 16))
        ana.keypoint_offset_scores(g, images, "fsm1")
        assert shapes
        assert (2, 1, 16, 16) not in shapes and (2, 4, 8, 8) not in shapes


class TestPinnedBytes:
    """The analyses' bytes on the toy net with a live branch, pinned by
    sha256. A conv's sums run through BLAS, so another BLAS build may
    order them differently and change the last bits."""

    @staticmethod
    def _graph_and_images():
        g, _ = TestReadOnly._graph()
        return g, np.random.default_rng(42).standard_normal((2, 1, 16, 16))

    @staticmethod
    def _digest(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    def test_kp_scores(self):
        g, images = self._graph_and_images()
        assert self._digest(ana.keypoint_offset_scores(g, images, "fsm1")) == (
            "c7e5c3aa138ea5010d3886aadb4f99823c3d610d2f55216d5e06f6b00ab7db63")

    @pytest.mark.parametrize("layer, digest", [
        ("fsm1", "67a9bb3abe8de2f0298e50b4ead1c68c1c55377be7409ac38377706bd675a6a8"),
        ("stem2", "c2077429be29467b8a802b628738aeb40f6e23c0512d3d315b6c975640d58137")])
    def test_erf(self, layer, digest):
        g, images = self._graph_and_images()
        assert self._digest(ana.erf_map(g, images, layer, 1, (2, 1))) == digest


class TestContributionCounts:
    def _scores(self):
        g, _ = single_fsm_graph(c=2, k=6, seed=14)
        return ana.keypoint_offset_scores(g, batch(seed=15), "fsm1")

    def test_threshold_zero_counts_every_channel(self):
        scores = self._scores()
        assert scores.max() > 0
        np.testing.assert_array_equal(ana.contribution_counts(scores, 0.0), [6])

    def test_threshold_above_one_counts_nothing(self):
        np.testing.assert_array_equal(
            ana.contribution_counts(self._scores(), 1.01), [0])

    def test_single_path_counts_exactly_one(self):
        g, module = single_fsm_graph(seed=16)
        module.out_weight.data[...] = 0.0
        module.out_weight.data[:, 2] = 1.0
        scores = ana.keypoint_offset_scores(g, batch(seed=17), "fsm1")
        np.testing.assert_array_equal(ana.contribution_counts(scores, 0.5), [1])


class TestErfMap:
    def test_pointwise_conv_layer_has_single_pixel_erf(self):
        rng = np.random.default_rng(18)
        g = NetworkGraph((2, 6, 6), dtype=np.float64)
        g.add("proj", ConvBlock(2, 3, 1, rng=rng, dtype=np.float64))
        emap = ana.erf_map(g, batch(hw=(6, 6), b=1, seed=19), "proj", 1, (2, 3))
        assert emap[3, 2] > 0.0
        mask = np.ones((6, 6), dtype=bool)
        mask[3, 2] = False
        np.testing.assert_array_equal(emap[mask], 0.0)

    def test_shift_moves_erf_mass_by_the_offset(self):
        d = 3
        g, module = single_fsm_graph(c=1, k=1, hw=(9, 9), seed=20,
                                     offsets=([float(d)], [0.0]))
        module.gate_weight.data[...] = 0.0  # constant gate, single path
        module.out_weight.data[...] = 1.0
        module.in_weight.data[...] = 1.0
        seed_xy = (5, 4)
        emap = ana.erf_map(g, batch(c=1, hw=(9, 9), b=1, seed=21), "fsm1", 0, seed_xy)
        peak_y, peak_x = np.unravel_index(emap.argmax(), emap.shape)
        assert (peak_x, peak_y) == (seed_xy[0] - d, seed_xy[1])

    def test_leaves_a_passed_tensor_as_it_was(self):
        g, _ = single_fsm_graph(seed=28)
        image = ad.tensor(batch(b=1, seed=29))
        ana.erf_map(g, image, "fsm1", 0, (2, 2))
        assert image.requires_grad is False and image.grad is None

    def test_subnormal_pixels_read_as_zero(self):
        g, _ = single_fsm_graph(seed=30)
        image = batch(b=1, seed=31)
        image[0, :, 2:5, 3] = 1e-310
        zeroed = np.where(np.abs(image) < 1e-300, 0.0, image)
        got = ana.erf_map(g, image, "fsm1", 0, (3, 3))
        want = ana.erf_map(g, zeroed, "fsm1", 0, (3, 3))
        assert got.tobytes() == want.tobytes()

    def test_zero_weight_model_erf_is_zero(self):
        g, module = single_fsm_graph(c=1, k=2, hw=(6, 6), seed=22)
        module.out_weight.data[...] = 0.0
        module.in_weight.data[...] = 0.0
        module.gate_weight.data[...] = 0.0
        emap = ana.erf_map(g, batch(c=1, hw=(6, 6), b=1, seed=23), "fsm1", 0, (1, 1))
        np.testing.assert_array_equal(emap, 0.0)

    def test_support_within_analytic_receptive_field(self):
        # non-local map reads input through gate (local) and a single
        # shifted channel: support = seed plus seed-offset with bilinear halo
        dx, dy = 2.6, -1.3
        g, module = single_fsm_graph(c=1, k=1, hw=(10, 10), seed=24,
                                     offsets=([dx], [dy]))
        sx, sy = 6, 5
        emap = ana.erf_map(g, batch(c=1, hw=(10, 10), b=1, seed=25), "fsm1", 0,
                           (sx, sy))
        allowed = np.zeros((10, 10), dtype=bool)
        allowed[sy, sx] = True  # attention path
        for yy in (int(np.floor(sy - dy)), int(np.floor(sy - dy)) + 1):
            for xx in (int(np.floor(sx - dx)), int(np.floor(sx - dx)) + 1):
                if 0 <= yy < 10 and 0 <= xx < 10:
                    allowed[yy, xx] = True
        np.testing.assert_array_equal(emap[~allowed], 0.0)

    def test_out_of_bounds_position_rejected(self):
        g, _ = single_fsm_graph(seed=26)
        with pytest.raises(ConfigError, match="position"):
            ana.erf_map(g, batch(b=1, seed=27), "fsm1", 0, (99, 0))
        with pytest.raises(ConfigError, match="channel"):
            ana.erf_map(g, batch(b=1, seed=27), "fsm1", 17, (1, 1))


class TestOffsetAndEnergyExport:
    def test_fresh_model_offsets_within_init_range(self):
        g = net.build_toy_fsm_net((16, 16), 1, 1, 6, 8, fsm_active=True,
                                  rng=np.random.default_rng(28))
        lines = ana.export_offsets(g).splitlines()
        assert lines[0] == "module_id,k,dx,dy"
        for line in lines[1:]:
            dx, dy = map(float, line.split(",")[2:])
            assert abs(dx) <= OFFSET_INIT_RANGE and abs(dy) <= OFFSET_INIT_RANGE

    def test_export_covers_every_module_and_channel(self):
        g = net.build_3block3fsm((32, 32), 4, 1, fsm_active=True,
                                 rng=np.random.default_rng(29))
        lines = ana.export_offsets(g).splitlines()
        assert lines[0] == "module_id,k,dx,dy"
        rows = [line.split(",") for line in lines[1:]]
        assert {r[0] for r in rows} == {"fsm1", "fsm2", "fsm3"}
        assert len(rows) == 12
