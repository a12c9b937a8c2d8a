"""Cue/target generation, heatmap codec, augmentation."""

import numpy as np
import pytest

from shiftpose.errors import ConfigError, GenerationError
from shiftpose import synthdata as sd


def accuracy_of_local_oracle(spec, n=64, radius=1.5):
    rng = np.random.default_rng(spec.seed)
    hits = 0
    for _ in range(n):
        s = sd.generate_sample(spec, rng)
        guess = sd.matched_filter_locate(s.image, spec.blob_sigma)
        hits += np.linalg.norm(guess - s.keypoints[0]) <= radius
    return hits / n


class TestGeneration:
    def test_local_oracle_is_perfect_without_distractors(self):
        spec = sd.SynthSpec(image_size=(32, 32), displacement=(10.0, 0.0),
                            distractors=0, noise_std=0.0, seed=0)
        assert accuracy_of_local_oracle(spec) == 1.0

    def test_local_oracle_is_chance_level_with_distractors(self):
        for d in (2, 3):
            spec = sd.SynthSpec(image_size=(32, 32), displacement=(10.0, 0.0),
                                distractors=d, noise_std=0.0, seed=1)
            acc = accuracy_of_local_oracle(spec, n=96)
            assert acc <= 1.0 / (1 + d) + 0.1, (d, acc)

    def test_same_seed_bit_identical_streams(self):
        spec = sd.SynthSpec(distractors=2, noise_std=0.05, count=12, seed=7)
        a = sd.generate_dataset(spec)
        b = sd.generate_dataset(spec)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image, sb.image)
            assert np.array_equal(sa.keypoints, sb.keypoints)

    def test_target_sits_at_cue_plus_displacement(self):
        spec = sd.SynthSpec(image_size=(32, 32), displacement=(7.0, -4.0), seed=3)
        s = sd.generate_sample(spec, np.random.default_rng(3))
        np.testing.assert_allclose(s.keypoints[0], s.cue + [7.0, -4.0])

    def test_infeasible_placement_raises(self):
        spec = sd.SynthSpec(image_size=(16, 16), displacement=(6.0, 0.0),
                            distractors=50, seed=0)
        with pytest.raises(GenerationError, match="retries|room"):
            sd.generate_sample(spec, np.random.default_rng(0))

    def test_displacement_larger_than_image_raises(self):
        spec = sd.SynthSpec(image_size=(16, 16), displacement=(15.5, 0.0))
        with pytest.raises(GenerationError):
            sd.generate_sample(spec, np.random.default_rng(0))


class TestHeatmaps:
    def test_peak_value_one_at_grid_keypoint(self):
        maps = sd.heatmap_target([(3.0, 2.0)], (6, 6), sigma=1.0)
        assert maps[0, 2, 3] == 1.0
        assert maps[0].max() == 1.0

    def test_decode_roundtrip_nearest_cell(self):
        kps = [(3.2, 2.4), (0.0, 5.0)]
        maps = sd.heatmap_target(kps, (6, 7), sigma=0.8)
        decoded = sd.decode_heatmap(maps)
        np.testing.assert_array_equal(decoded, [[3.0, 2.0], [0.0, 5.0]])

    def test_tie_break_lowest_row_then_column(self):
        maps = np.zeros((1, 4, 4))
        maps[0, 1, 2] = maps[0, 2, 1] = 1.0  # identical maxima
        np.testing.assert_array_equal(sd.decode_heatmap(maps)[0], [2.0, 1.0])

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            sd.heatmap_target([(1.0, 1.0)], (4, 4), sigma=0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_targets_equal_a_per_sample_loop_byte_for_byte(self, dtype):
        spec = sd.SynthSpec(count=6, seed=4, heatmap_sigma=1.2)
        samples = sd.augment_sample(sd.generate_dataset(spec), sd.AugmentRanges(),
                                    np.random.default_rng(2))
        samples[1].heatmap_sigma = 0.7
        got = sd.heatmap_targets(samples, (1, 16, 12), 64, dtype)
        want = np.stack([sd.heatmap_target(s.keypoints / 4, (16, 12), s.heatmap_sigma, dtype)
                         for s in samples])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_targets_refuse_a_keypoint_count_unlike_the_head(self):
        samples = sd.generate_dataset(sd.SynthSpec(count=2, seed=3))
        assert sd.heatmap_targets(samples, (1, 8, 8), 32).shape == (2, 1, 8, 8)
        with pytest.raises(ConfigError, match="network.keypoints"):
            sd.heatmap_targets(samples, (3, 8, 8), 32)


class TestAugmentation:
    def _sample(self, seed=5):
        spec = sd.SynthSpec(image_size=(24, 24), displacement=(6.0, 3.0), seed=seed)
        return sd.generate_sample(spec, np.random.default_rng(seed))

    def test_identity_draw_leaves_sample_unchanged(self):
        s = self._sample()
        ranges = sd.AugmentRanges(rotation_deg=0.0, scale=(1.0, 1.0), shift_frac=0.0)
        [out] = sd.augment_sample([s], ranges, np.random.default_rng(0))
        np.testing.assert_allclose(out.image, s.image, atol=1e-6)
        np.testing.assert_allclose(out.keypoints, s.keypoints, atol=1e-9)

    def test_pure_translation_moves_keypoints_exactly(self):
        w = 24
        mat = sd._affine_about_center(0.0, 1.0, (0.05 * w, 0.0), (24, w))
        pts = np.array([[3.0, 4.0], [10.5, 17.25]])
        moved = sd.apply_affine_to_points(mat, pts)
        np.testing.assert_allclose(moved, pts + [0.05 * w, 0.0], atol=1e-12)

    def test_rotation_roundtrip_on_points(self):
        fwd = sd._affine_about_center(np.deg2rad(30.0), 1.0, (0.0, 0.0), (24, 24))
        back = sd._affine_about_center(np.deg2rad(-30.0), 1.0, (0.0, 0.0), (24, 24))
        pts = np.random.default_rng(6).uniform(0, 23, (5, 2))
        round_trip = sd.apply_affine_to_points(back, sd.apply_affine_to_points(fwd, pts))
        np.testing.assert_allclose(round_trip, pts, atol=1e-9)

    def test_keypoints_get_exactly_the_image_affine(self):
        s = self._sample()
        ranges = sd.AugmentRanges()
        [out] = sd.augment_sample([s], ranges, np.random.default_rng(9))
        # replay the identical draws to reconstruct the affine
        rng = np.random.default_rng(9)
        angle = np.deg2rad(rng.uniform(-30.0, 30.0))
        scl = rng.uniform(0.75, 1.25)
        shift = (rng.uniform(-0.05, 0.05) * 24, rng.uniform(-0.05, 0.05) * 24)
        mat = sd._affine_about_center(angle, scl, shift, (24, 24))
        np.testing.assert_array_equal(
            out.keypoints, sd.apply_affine_to_points(mat, s.keypoints))
        np.testing.assert_array_equal(
            out.image, sd.bilinear_warp(s.image, sd._invert_affine(mat)[None]))

    def test_batch_matches_one_sample_calls(self):
        # one batched call draws and warps exactly as N one-sample calls
        spec = sd.SynthSpec(image_size=(24, 24), displacement=(6.0, 3.0),
                            distractors=1, count=16, seed=4)
        samples = sd.generate_dataset(spec)
        batch_rng, single_rng = np.random.default_rng(8), np.random.default_rng(8)
        batched = sd.augment_sample(samples, sd.AugmentRanges(), batch_rng)
        singles = [sd.augment_sample([s], sd.AugmentRanges(), single_rng)[0]
                   for s in samples]
        assert len(batched) == len(singles) == 16
        for a, b in zip(batched, singles):
            for field in ("image", "keypoints"):
                x, y = getattr(a, field), getattr(b, field)
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes(), field
            assert a.cue is None and b.cue is None
        assert batch_rng.random() == single_rng.random()

    def test_translation_warp_matches_shift_kernel(self):
        # the affine warp and the shifting kernel share one sampling
        # convention: a pure translation gives the same image
        from shiftpose import autodiff as ad
        from shiftpose.fsm import shift

        image = np.random.default_rng(12).standard_normal((3, 9, 11))
        for dx, dy in ((1.3, -0.6), (-2.0, 3.0), (0.25, 0.0), (12.5, -1.5)):
            inverse = np.array([[1.0, 0.0, -dx], [0.0, 1.0, -dy]])
            shifted = shift(ad.tensor(image[None]), ad.tensor(np.full(3, dx)),
                            ad.tensor(np.full(3, dy))).data[0]
            np.testing.assert_allclose(sd.bilinear_warp(image[None], inverse[None])[0],
                                       shifted, rtol=0, atol=1e-12)

    def test_training_targets_follow_moved_keypoints(self):
        from shiftpose.network import build_toy_fsm_net
        from shiftpose.training import TrainConfig, Trainer

        s = self._sample()
        [out] = sd.augment_sample([s], sd.AugmentRanges(), np.random.default_rng(10))
        graph = build_toy_fsm_net((24, 24))
        trainer = Trainer(graph, TrainConfig(), [s])
        head = graph.shape_of(graph.main_head)
        expect = sd.heatmap_target(out.keypoints / 4, head[1:], s.heatmap_sigma,
                                   graph.dtype)
        np.testing.assert_array_equal(trainer._targets_for([out], head)[0], expect)
