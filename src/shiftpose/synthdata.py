"""Synthetic long-range-dependency task, augmentation, and heatmap codecs.

Each generated image carries one *cue* blob and one *target* blob placed
at ``cue + displacement``, plus optional distractor blobs that look
exactly like the target. Ground truth marks only the cued target, so a
purely local detector cannot beat choosing among the identical blobs at
random; solving the task requires integrating the cue's position across
the displacement distance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, GenerationError

__all__ = [
    "SynthSpec", "SynthSample", "AugmentRanges", "generate_dataset",
    "generate_sample", "augment_sample", "heatmap_target", "heatmap_targets",
    "decode_heatmap",
    "matched_filter_locate", "bilinear_warp",
]

CUE_AMPLITUDE = 0.5     # weaker than targets so it never wins a local argmax
TARGET_AMPLITUDE = 1.0
PLACEMENT_RETRIES = 200


@dataclass
class SynthSpec:
    image_size: tuple = (32, 32)
    displacement: tuple = (10.0, 0.0)   # target sits at cue + displacement
    blob_sigma: float = 1.2
    distractors: int = 0
    noise_std: float = 0.0
    count: int = 256
    seed: int = 0
    heatmap_sigma: float = 1.0


@dataclass
class SynthSample:
    image: np.ndarray             # (1, C, H, W)
    keypoints: np.ndarray         # (M, 2) as (x, y) in image pixels
    heatmap_sigma: float = 1.0
    cue: np.ndarray = None        # (2,) cue position, kept for diagnostics;
                                  # None after augmentation


@dataclass
class AugmentRanges:
    rotation_deg: float = 30.0
    scale: tuple = (0.75, 1.25)
    shift_frac: float = 0.05


def _place(rng, lo_x, hi_x, lo_y, hi_y, taken, min_sep):
    for _ in range(PLACEMENT_RETRIES):
        x = rng.uniform(lo_x, hi_x)
        y = rng.uniform(lo_y, hi_y)
        if all((x - tx) ** 2 + (y - ty) ** 2 >= min_sep ** 2 for tx, ty in taken):
            return np.array([x, y])
    raise GenerationError(
        f"no feasible blob position after {PLACEMENT_RETRIES} retries "
        f"(image too crowded for {len(taken) + 1} blobs at separation {min_sep:.1f})")


def generate_sample(spec, rng, dtype=np.float32):
    """One cue/target/distractor image with its single keypoint."""
    h, w = spec.image_size
    dx, dy = spec.displacement
    margin = max(2.0, 2.5 * spec.blob_sigma)
    min_sep = max(5.0, 4.0 * spec.blob_sigma)

    # cue range such that cue + displacement stays inside the margin box
    lo_x = margin + max(0.0, -dx)
    hi_x = w - 1 - margin - max(0.0, dx)
    lo_y = margin + max(0.0, -dy)
    hi_y = h - 1 - margin - max(0.0, dy)
    if lo_x >= hi_x or lo_y >= hi_y:
        raise GenerationError(
            f"displacement ({dx},{dy}) leaves no room in a {h}x{w} image")
    cue = _place(rng, lo_x, hi_x, lo_y, hi_y, [], min_sep)
    target = cue + np.array([dx, dy])

    centers = [cue, target]
    amplitudes = [CUE_AMPLITUDE, TARGET_AMPLITUDE]
    taken = [tuple(cue), tuple(target)]
    for _ in range(spec.distractors):
        p = _place(rng, margin, w - 1 - margin, margin, h - 1 - margin,
                   taken, min_sep)
        taken.append(tuple(p))
        centers.append(p)
        amplitudes.append(TARGET_AMPLITUDE)

    img = (np.array(amplitudes)[:, None, None]
           * heatmap_target(centers, (h, w), spec.blob_sigma, np.float64)).sum(axis=0)
    if spec.noise_std > 0:
        img = img + rng.normal(0.0, spec.noise_std, img.shape)
    return SynthSample(
        image=img[None, None].astype(dtype),
        keypoints=target[None, :].astype(np.float64),
        heatmap_sigma=spec.heatmap_sigma,
        cue=cue,
    )


def generate_dataset(spec, dtype=np.float32):
    """Materialize ``spec.count`` samples; the same spec always produces a
    bit-identical list."""
    rng = np.random.default_rng(spec.seed)
    return [generate_sample(spec, rng, dtype) for _ in range(spec.count)]


# ---------------------------------------------------------------------------
# heatmap codec
# ---------------------------------------------------------------------------

def heatmap_target(keypoints, map_size, sigma, dtype=np.float32):
    """Per-keypoint Gaussian score maps with peak value 1 at the keypoint:
    (M, h, w) for (M, 2) ``keypoints``. Leading axes batch: (N, M, 2)
    keypoints with a scalar or (N,) ``sigma`` give (N, M, h, w) from one
    grid and one ``np.exp``."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if not (sigma > 0).all():
        raise ValueError("heatmap sigma must be positive")
    h, w = map_size
    kp = np.asarray(keypoints, dtype=np.float64)
    cx, cy = kp[..., 0, None, None], kp[..., 1, None, None]
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    var2 = 2.0 * sigma.reshape(sigma.shape + (1, 1, 1)) ** 2
    return np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / var2).astype(dtype, copy=False)


def heatmap_targets(samples, head_shape, input_height, dtype=np.float32):
    """Targets of ``samples`` at a head's (M, h, w) output shape, stacked to
    (N, M, h, w) by one ``heatmap_target`` call. This is the one map from
    image pixels to heatmap pixels: keypoints scale by the head's height
    over the input height. A sample whose keypoint count is not the
    head's channel count M is refused."""
    m, hh, hw = head_shape
    for i, s in enumerate(samples):
        if len(s.keypoints) != m:
            raise ConfigError("network.keypoints",
                              f"the head has {m} channels, but sample {i} has "
                              f"{len(s.keypoints)} keypoint(s)")
    keypoints = np.array([s.keypoints for s in samples], dtype=np.float64).reshape(-1, m, 2)
    sigmas = [s.heatmap_sigma for s in samples]
    return heatmap_target(keypoints / (input_height / hh), (hh, hw), sigmas, dtype)


def decode_heatmap(maps):
    """Argmax decode of (M, H, W) or (B, M, H, W) maps to (x, y) positions.

    Ties resolve to the lowest row, then lowest column (row-major argmax).
    """
    arr = np.asarray(maps)
    squeeze = arr.ndim == 3
    if squeeze:
        arr = arr[None]
    b, m, h, w = arr.shape
    flat = arr.reshape(b, m, h * w).argmax(axis=2)
    ys, xs = np.divmod(flat, w)
    out = np.stack([xs, ys], axis=2).astype(np.float64)
    return out[0] if squeeze else out


def matched_filter_locate(image, blob_sigma):
    """Local 3x3 matched-filter argmax: the strongest purely local cue.

    Serves as the reference local detector: perfect when the target is the
    only full-amplitude blob, chance-level among identical distractors.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 4:
        img = img[0, 0]
    elif img.ndim == 3:
        img = img[0]
    kernel = heatmap_target([(1, 1)], (3, 3), blob_sigma, np.float64)[0]
    kernel /= kernel.sum()
    h, w = img.shape
    padded = np.pad(img, 1)
    resp = np.zeros_like(img)
    for i in range(3):
        for j in range(3):
            resp += kernel[i, j] * padded[i:i + h, j:j + w]
    idx = resp.argmax()
    y, x = divmod(idx, w)
    return np.array([x, y], dtype=np.float64)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def bilinear_warp(images, inverse_matrices):
    """Warp (N, C, H, W) images with zero fill, image ``n`` through the 2x3
    inverse map ``inverse_matrices[n]`` of an (N, 2, 3) stack: output pixel
    (x, y) samples the input at ``inverse_matrices[n] @ (x, y, 1)``.

    The images sit in a two-cell zero border, and each axis's corner-0
    coordinate is clamped once to [-2, size]: a corner out of view, and its
    neighbour, then land in the border, so the four corner gathers need no
    validity mask and share one flat index.
    """
    n, c, h, w = images.shape
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)[:, None]
    m = inverse_matrices[:, :, :, None, None]
    sx = m[:, 0, 0] * xs + m[:, 0, 1] * ys
    sx += m[:, 0, 2]
    sy = m[:, 1, 0] * xs + m[:, 1, 1] * ys
    sy += m[:, 1, 2]
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = (sx - x0).astype(images.dtype)
    fy = (sy - y0).astype(images.dtype)
    # channels last, one row per pixel of the bordered images, so that one
    # gather of (N, H, W) row indices reads every channel
    ph, pw = h + 4, w + 4
    padded = np.zeros((n, ph, pw, c), dtype=images.dtype)
    padded[:, 2:-2, 2:-2] = images.transpose(0, 2, 3, 1)
    flat = padded.reshape(-1, c)
    # the top-left corner's row; float arithmetic on these integers is exact
    idx = np.clip(y0, -2, h, out=y0)
    idx *= pw
    idx += np.clip(x0, -2, w, out=x0)
    idx += np.arange(n)[:, None, None] * (ph * pw) + (2 * pw + 2)
    idx = idx.astype(np.intp)
    wx, wy = (1 - fx, fx), (1 - fy, fy)
    out = np.zeros((n, h, w, c), dtype=images.dtype)
    for ddy in (0, 1):
        for ddx in (0, 1):
            corner = np.take(flat[ddy * pw + ddx:], idx, axis=0)
            out += (wy[ddy] * wx[ddx])[..., None] * corner
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def _affine_about_center(angle_rad, scl, shift, size):
    """Forward 2x3 maps rotating by ``angle_rad`` and scaling by ``scl``
    about the center of an (H, W) image, then shifting by ``shift`` (x, y).
    Scalar angle and scale with a (2,) shift give one (2, 3) map; (N,)
    arrays with an (N, 2) shift give an (N, 2, 3) stack."""
    h, w = size
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    cos, sin = np.cos(angle_rad), np.sin(angle_rad)
    lin = np.asarray(scl)[..., None, None] * np.stack(
        [np.stack([cos, -sin], axis=-1), np.stack([sin, cos], axis=-1)], axis=-2)
    trans = np.array([cx, cy]) + shift - lin @ np.array([cx, cy])
    return np.concatenate([lin, trans[..., None]], axis=-1)


def _invert_affine(mat):
    """Inverse of a (..., 2, 3) affine map, of the same shape."""
    inv_lin = np.linalg.inv(mat[..., :2])
    return np.concatenate([inv_lin, -inv_lin @ mat[..., 2:]], axis=-1)


def apply_affine_to_points(mat, points):
    """(M, 2) points through one 2x3 map, or (N, M, 2) points through an
    (N, 2, 3) stack, set ``n`` through map ``n``."""
    pts = np.asarray(points, dtype=np.float64)
    return pts @ np.swapaxes(mat[..., :2], -1, -2) + mat[..., None, :, 2]


def augment_sample(samples, ranges, rng):
    """Random rotation/scale/shift of each sample about the image center;
    returns the augmented samples in order.

    One ``rng.uniform`` call draws an (N, 4) array: per sample, in order,
    the rotation, scale, x shift and y shift, so the stream matches N
    successive one-sample calls. All images are inverse-warp resampled
    in one :func:`bilinear_warp` call, and the stacked keypoints go
    through their samples' own affines in one :func:`apply_affine_to_points`
    call. Augmented samples carry no cue (``cue=None``).
    """
    _, _, h, w = samples[0].image.shape
    rot, frac = ranges.rotation_deg, ranges.shift_frac
    draws = rng.uniform([-rot, ranges.scale[0], -frac, -frac],
                        [rot, ranges.scale[1], frac, frac], size=(len(samples), 4))
    mats = _affine_about_center(np.deg2rad(draws[:, 0]), draws[:, 1],
                                draws[:, 2:] * (w, h), (h, w))
    images = bilinear_warp(np.concatenate([s.image for s in samples]),
                           _invert_affine(mats))
    keypoints = apply_affine_to_points(mats, np.stack([s.keypoints for s in samples]))
    return [replace(s, image=image[None], keypoints=kp, cue=None)
            for s, image, kp in zip(samples, images, keypoints)]
