"""Diagnostics over a trained graph.

All procedures here are read-only over a frozen model: they run an
eval-mode forward pass, seed a gradient somewhere (the keypoint loss, or
a unit at one position of a shifting module's non-local maps), and ask
``autodiff.grad`` for the one gradient they read (the module's post-shift
maps, or the input), which writes no ``grad``. An eval forward records a
tape only for an input that requires a gradient, so both pass the
network a fresh input leaf that does (``_input_leaf``).
"""

from __future__ import annotations

import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .fsm import FeatureShiftModule

__all__ = ["keypoint_offset_scores", "contribution_counts", "erf_map", "export_offsets",
           "csv_text"]


def _node(graph, module_id):
    try:
        return graph.node(module_id)
    except ConfigError as exc:
        raise ConfigError("analysis.module_id", str(exc)) from None


def _fsm_module(graph, module_id):
    module = _node(graph, module_id).layer
    if not isinstance(module, FeatureShiftModule):
        raise ConfigError("analysis.module_id",
                          f"layer {module_id!r} is not a shifting module")
    if not module.active:
        raise ConfigError("analysis.module_id",
                          f"shifting module {module_id!r} is bypassed")
    return module


def _input_leaf(graph, images):
    """``images`` (an array or a ``Tensor``) as a fresh input leaf that
    requires a gradient, so the eval forward records its tape and the
    caller's tensor is left as it was."""
    data = images.data if isinstance(images, Tensor) else images
    return Tensor(graph.input_array(data), requires_grad=True)


def keypoint_offset_scores(graph, images, module_id):
    """Scores between keypoint categories and shifting channels, as an
    (M keypoints, K shifting channels) array of values >= 0.

    For each keypoint channel m: copy the predictions, zero the value at
    the per-sample peak of channel m, take the MSE between the modified
    copy and the live predictions, and back-propagate it to the chosen
    module's post-shifting maps. The per-channel spatial average of the
    gradient magnitudes fills row m. Rows are finally normalized within
    each shifting channel by its maximum magnitude, so the maximum over
    keypoints within a channel is 1 when the channel has any signal. The
    network runs in eval mode.
    """
    module = _fsm_module(graph, module_id)
    heads, _ = graph.forward(_input_leaf(graph, images), mode="eval")
    pred = heads["main"]
    post_shift = module.cache["post_shift"]
    m_channels = pred.shape[1]
    k = post_shift.shape[1]

    base = pred.data.copy()
    if not base.any():
        warnings.warn("all-zero predictions: keypoint-offset scores degenerate to zero")
    scores = np.zeros((m_channels, k), dtype=np.float64)
    samples = np.arange(base.shape[0])
    for m in range(m_channels):
        modified = base.copy()
        peaks = base[:, m].reshape(len(samples), -1).argmax(axis=1)
        modified[(samples, m) + np.unravel_index(peaks, base.shape[2:])] = 0.0
        (g,) = ad.grad(ad.mse_loss(pred, modified), [post_shift])
        scores[m] = np.abs(g).mean(axis=(0, 2, 3))

    col = scores.max(axis=0)
    nonzero = col > 0
    scores[:, nonzero] /= col[nonzero]
    return scores


def contribution_counts(scores, threshold=0.5):
    """Per keypoint, how many shifting channels score at or above the
    threshold (0.5 keeps the most relevant offsets while preserving
    statistically useful counts)."""
    return (scores >= threshold).sum(axis=1)


def erf_map(graph, image, module_id, channel, position):
    """Effective receptive field of one seeded position: the (H, W)
    squared-gradient footprint on the input.

    For a shifting module the seed lands on its non-local maps (the output
    of its final pointwise convolution); for any other layer id, on that
    layer's output. A unit gradient there is back-propagated to the
    network input and the squared sum across input channels returned.
    The network runs in eval mode.
    """
    node = _node(graph, module_id)
    image = _input_leaf(graph, image)
    _, outputs = graph.forward(image, mode="eval")
    if isinstance(node.layer, FeatureShiftModule):
        nonlocal_maps = _fsm_module(graph, module_id).cache["nonlocal"]
    else:
        nonlocal_maps = outputs[module_id]
    x, y = position
    _, k, h, w = nonlocal_maps.shape
    if not (0 <= channel < k):
        raise ConfigError("analysis.channel",
                          f"{channel} outside non-local map channels [0,{k})")
    if not (0 <= x < w and 0 <= y < h):
        raise ConfigError("analysis.position",
                          f"({x},{y}) outside non-local map {h}x{w}")
    seed = np.zeros_like(nonlocal_maps.data)
    seed[0, channel, y, x] = 1.0
    (g,) = ad.grad(nonlocal_maps, [image], seed)
    return (g[0].astype(np.float64) ** 2).sum(axis=0)


def export_offsets(graph):
    """Offset table over every shifting module: a ``module_id,k,dx,dy``
    header, then one row per shifting channel in graph order."""
    rows = [(name, i, dx, dy) for name, module in graph.fsm_layers()
            for i, (dx, dy) in enumerate(zip(module.dx.data, module.dy.data))]
    if not rows:
        raise ConfigError("analysis.offsets", "graph contains no shifting modules")
    return csv_text(("module_id", "k", "dx", "dy"), rows)


def csv_text(header, rows):
    """A comma-separated table: the header line, then one line per row.
    Floats, numpy floats included, print with 9 significant digits
    (lossless for float32); any other value prints as ``str``."""
    def cell(value):
        return f"{value:.9g}" if isinstance(value, (float, np.floating)) else str(value)

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])
