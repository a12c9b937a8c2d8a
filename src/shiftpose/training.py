"""Desk-scale training loop: Adam groups, schedules, delayed insertion.

Everything is a deterministic function of (config, seed): one generator
draws the batch indices and the augmentation, and nothing else (insertion
draws nothing), so checkpoints restore mid-run bit-exactly.

Defaults mirror the reference regime (base lr 5e-4, offsets at 1e-3
decaying 10% per epoch, batch 16, insertion after 6000 iterations);
``TrainConfig.desk_scale`` rescales the iteration-based milestones for
short synthetic runs while preserving their proportions.

Building a ``Trainer`` makes glibc's malloc keep the memory a step frees,
so later steps reuse its pages instead of faulting them in again.
"""

from __future__ import annotations

import ctypes
import platform
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .analysis import csv_text, export_offsets
from .errors import ConfigError, NumericError
from .fsm import FeatureShiftModule
from .optim import Adam
from .synthdata import AugmentRanges, augment_sample, heatmap_targets

__all__ = [
    "LrDecay", "TrainConfig", "base_lr_schedule", "offset_lr_schedule", "Trainer",
]

_FSM_GROUPS = ("fsm_weights", "offsets")

# mallopt parameters (glibc's malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_heap_retained = False


@dataclass
class LrDecay:
    after_iter: int = 300_000
    factor: float = 0.5
    every: int = 30_000


@dataclass
class TrainConfig:
    base_lr: float = 5e-4
    offset_lr: float = 1e-3
    offset_decay_per_epoch: float = 0.10
    batch_size: int = 16
    insertion_iteration: int = 6000
    iterations: int = 8000
    lr_decay: LrDecay = field(default_factory=LrDecay)
    augment: bool = True
    augment_ranges: AugmentRanges = field(default_factory=AugmentRanges)
    seed: int = 0

    def validate(self):
        # each test is written so that NaN fails it
        if not self.base_lr > 0:
            raise ConfigError("trainer.base_lr", "must be positive")
        if not self.offset_lr > 0:
            raise ConfigError("trainer.offset_lr", "must be positive")
        if not 0.0 < self.offset_decay_per_epoch < 1.0:
            raise ConfigError("trainer.offset_decay_per_epoch", "must lie in (0,1)")
        if self.batch_size < 1:
            raise ConfigError("trainer.batch_size", "must be at least 1")
        low, high = self.augment_ranges.scale
        if not 0.0 < low <= high:
            raise ConfigError("trainer.augment_ranges.scale",
                              f"({low:g}, {high:g}) must satisfy 0 < low <= high")
        return self

    @classmethod
    def desk_scale(cls, iterations=2000, **overrides):
        """Short-run config keeping the reference proportions: insertion at
        7.5% of the run, halving decay over the last quarter."""
        cfg = cls(
            iterations=iterations,
            insertion_iteration=max(1, int(round(0.075 * iterations))),
            lr_decay=LrDecay(after_iter=int(round(0.75 * iterations)),
                             factor=0.5,
                             every=max(1, int(round(0.075 * iterations)))),
        )
        return replace(cfg, **overrides).validate()


def base_lr_schedule(iteration, config):
    """Backbone lr as a pure function of the iteration: constant, then
    multiplied by ``factor`` every ``every`` iterations."""
    d = config.lr_decay
    if iteration < d.after_iter:
        return config.base_lr
    steps = (iteration - d.after_iter) // d.every + 1
    return config.base_lr * (d.factor ** steps)


def offset_lr_schedule(epoch, config):
    """Offset lr: initial value decayed by the configured fraction per epoch."""
    return config.offset_lr * (1.0 - config.offset_decay_per_epoch) ** epoch


def _retain_heap():
    """Once per process, on glibc: serve arrays up to 32 MiB (the most
    glibc's own dynamic mmap threshold reaches on 64-bit) from the heap,
    and trim the heap top only past 1 GiB. The mmap threshold goes first: setting either value
    fixes it, and alone the trim threshold would leave every array over
    128 KiB mapped and unmapped on each step. Elsewhere, or when a call is
    refused, the allocator keeps its defaults."""
    global _heap_retained
    if _heap_retained:
        return
    _heap_retained = True
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 1 << 30)):
        if mallopt(param, value) != 1:
            return


def _parameter_groups(graph):
    """Every ``<node>.<slot>`` parameter filed under its optimizer group,
    in graph order: a shifting module's ``dx`` and ``dy`` under
    ``offsets``, its other slots under ``fsm_weights``, and every other
    layer's parameters under ``backbone``."""
    groups = {"backbone": [], "fsm_weights": [], "offsets": []}
    for node in graph.nodes:
        fsm = isinstance(node.layer, FeatureShiftModule)
        for slot, p in node.layer.state():
            if isinstance(p, ad.Parameter):
                group = "backbone" if not fsm else \
                    "offsets" if slot in ("dx", "dy") else "fsm_weights"
                groups[group].append((f"{node.name}.{slot}", p))
    return groups


class Trainer:
    """Drives a graph over a materialized synthetic dataset.

    The single ``rng`` draws only each iteration's batch indices, then its
    augmentation, which makes a checkpointed resume replay the exact
    remaining stream. Insertion sets each bypassed module ``active``, in
    graph order, and registers the module groups; it draws nothing.

    Construction also tells glibc's malloc, for the whole process and only
    on glibc, to keep freed memory (``_retain_heap``). A step frees its
    forward, backward and optimizer temporaries, and the next one allocates
    the same sizes: by default glibc hands those pages back and the step
    faults them in again (measured on the benchmark's ``mid-train`` and
    ``toy-train``). The process now keeps its per-step peak instead of
    returning it, so peak RSS does not move.
    """

    def __init__(self, graph, config, dataset, eval_dataset=None):
        config.validate()
        _retain_heap()
        self.graph = graph
        self.config = config
        self.dataset = dataset
        self.eval_dataset = eval_dataset if eval_dataset is not None else dataset
        self.rng = np.random.default_rng(config.seed)
        self.iteration = 0
        self.metrics = []
        self.offset_snapshots = []
        self.iters_per_epoch = max(1, len(dataset) // config.batch_size)

        self.optimizer = Adam()
        modules = [m for _, m in graph.fsm_layers()]
        active = modules and all(m.active for m in modules)
        self._add_groups(("backbone",) + (_FSM_GROUPS if active else ()))

    def _add_groups(self, names):
        groups = _parameter_groups(self.graph)
        for name in names:
            self.optimizer.add_group(name, groups[name])

    # -- data ---------------------------------------------------------------

    def _targets_for(self, samples, head_shape):
        return heatmap_targets(samples, head_shape, self.graph.input_shape[1],
                               self.graph.dtype)

    def _draw_batch(self):
        idx = self.rng.integers(0, len(self.dataset), self.config.batch_size)
        samples = [self.dataset[i] for i in idx]
        if self.config.augment:
            samples = augment_sample(samples, self.config.augment_ranges, self.rng)
        images = np.concatenate([s.image for s in samples], axis=0)
        return images, samples

    # -- stepping -----------------------------------------------------------

    def epoch(self):
        return self.iteration // self.iters_per_epoch

    def _losses(self, heads, samples):
        return {name: ad.mse_loss(pred, self._targets_for(samples, pred.shape[1:]))
                for name, pred in heads.items()}

    def step(self):
        """One optimizer step; returns the per-head loss values."""
        cfg = self.config
        # each group's rate: the module weights follow the backbone
        base = base_lr_schedule(self.iteration, cfg)
        rates = {"backbone": base, "fsm_weights": base,
                 "offsets": offset_lr_schedule(self.epoch(), cfg)}
        if self.iteration >= cfg.insertion_iteration:
            bypassed = [m for _, m in self.graph.fsm_layers() if not m.active]
            for module in bypassed:
                module.active = True
            if bypassed:
                self._add_groups(_FSM_GROUPS)

        images, samples = self._draw_batch()
        heads, outputs = self.graph.forward(images, mode="train")
        losses = self._losses(heads, samples)
        total = losses["main"]
        for name, loss in losses.items():
            if name != "main":
                total = ad.add(total, loss)

        if not np.isfinite(total.data):
            for node in self.graph.nodes:
                if not np.isfinite(outputs[node.name].data).all():
                    raise NumericError(f"iteration {self.iteration}: "
                                       f"non-finite output at layer {node.name!r}")
            raise NumericError(
                f"iteration {self.iteration}: non-finite loss with finite layer outputs")

        self.optimizer.zero_grad()
        total.backward()
        self._check_gradients()
        self.optimizer.step(rates)
        for _, module in self.graph.fsm_layers():
            if module.active:
                module.clamp_offsets()

        values = {name: float(l.data) for name, l in losses.items()}
        self.metrics.append({
            "iteration": self.iteration,
            **{f"loss_{n}": values[n]
               for n in ["main"] + sorted(n for n in values if n != "main")},
            "base_lr": rates["backbone"],
            "offset_lr": rates["offsets"],
        })
        self.iteration += 1
        return values

    def _check_gradients(self):
        """Raise :class:`NumericError` naming the first parameter, in graph
        order, whose gradient holds a non-finite value, before any
        parameter or moment moves; each group's flat buffer is checked once."""
        groups = self.optimizer.groups.values()
        if all(np.isfinite(group["grad"]).all() for group in groups):
            return
        held = {id(e["param"]) for group in groups for e in group["entries"]}
        for name, p in self.graph.named_parameters():
            if id(p) in held and not np.isfinite(p.grad).all():
                raise NumericError(f"iteration {self.iteration}: "
                                   f"non-finite gradient at parameter {name!r}")

    def run(self):
        """Step to ``config.iterations``, snapshotting the offset table at
        each epoch end; returns the final eval loss."""
        while self.iteration < self.config.iterations:
            epoch_before = self.epoch()
            self.step()
            if self.epoch() != epoch_before:
                self.offset_snapshots.append(
                    (epoch_before, export_offsets(self.graph)))
        return self.evaluate()

    def evaluate(self):
        """Mean main-head loss over the eval set, eval mode, no augmentation."""
        data = self.eval_dataset
        cfg = self.config
        total = 0.0
        for start in range(0, len(data), cfg.batch_size):
            chunk = data[start:start + cfg.batch_size]
            images = np.concatenate([s.image for s in chunk], axis=0)
            heads, _ = self.graph.forward(images, mode="eval")
            target = self._targets_for(chunk, heads["main"].shape[1:])
            total += float(ad.mse_loss(heads["main"], target).data) * len(chunk)
        return total / max(len(data), 1)

    def metrics_csv(self):
        """Comma-separated log with one column per metrics key, empty where
        a row has no value."""
        keys = list(dict.fromkeys(k for row in self.metrics for k in row))
        return csv_text(keys, [[row.get(k, "") for k in keys] for row in self.metrics])
