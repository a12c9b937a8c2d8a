"""Desk-scale training loop: Adam groups, schedules, delayed insertion.

Everything is a deterministic function of (config, seed): one generator
drives data order, augmentation draws, and the offset re-initialization
at insertion time, so checkpoints restore mid-run bit-exactly.

Defaults mirror the reference regime (base lr 5e-4, offsets at 1e-3
decaying 10% per epoch, batch 16, insertion after 6000 iterations);
``TrainConfig.desk_scale`` rescales the iteration-based milestones for
short synthetic runs while preserving their proportions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .errors import NumericError, StateError
from .optim import Adam
from .synthdata import AugmentRanges, augment_sample, heatmap_targets

__all__ = [
    "LrDecay", "TrainConfig", "base_lr_schedule", "offset_lr_schedule",
    "insert_fsm_modules", "Trainer", "TrainResult",
]


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
        from .errors import ConfigError
        if self.base_lr <= 0:
            raise ConfigError("trainer.base_lr", "must be positive")
        if self.offset_lr <= 0:
            raise ConfigError("trainer.offset_lr", "must be positive")
        if not 0.0 < self.offset_decay_per_epoch < 1.0:
            raise ConfigError("trainer.offset_decay_per_epoch", "must lie in (0,1)")
        if self.batch_size < 1:
            raise ConfigError("trainer.batch_size", "must be at least 1")
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


def insert_fsm_modules(graph, rng, optimizer=None, offset_lr=None, weight_lr=None):
    """Activate every bypassed shifting module (zeroed output projection,
    fresh offsets) and, when an optimizer is given, register two new
    groups: module weights at the backbone rate and offsets at their own."""
    modules = [(name, m) for name, m in graph.fsm_layers() if not m.active]
    if not modules:
        raise StateError("no bypassed shifting modules left to insert")
    for _, m in modules:
        m.insert(rng)
    if optimizer is not None:
        _add_fsm_groups(optimizer, modules, weight_lr, offset_lr)
    return [name for name, _ in modules]


def _add_fsm_groups(optimizer, modules, weight_lr, offset_lr):
    """Register the ``fsm_weights`` and ``offsets`` groups over the given
    (node name, module) pairs; slots are named ``<node>.<param>``."""
    weights, offsets = [], []
    for name, m in modules:
        weights += [(f"{name}.{n}", p) for n, p in m.weight_parameters()]
        offsets += [(f"{name}.{n}", p) for n, p in m.offset_parameters()]
    optimizer.add_group("fsm_weights", weights, weight_lr)
    optimizer.add_group("offsets", offsets, offset_lr)


@dataclass
class TrainResult:
    iterations_run: int
    metrics: list                  # one mapping per step, keyed as the CSV columns
    final_eval_loss: float
    offset_snapshots: list         # (epoch, table text)


class Trainer:
    """Drives a graph over a materialized synthetic dataset.

    The single ``rng`` is consumed in a fixed per-iteration order (batch
    indices, then augmentation draws, plus insertion at its iteration),
    which makes a checkpointed resume replay the exact remaining stream.
    """

    def __init__(self, graph, config, dataset, eval_dataset=None):
        config.validate()
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
        self.optimizer.add_group("backbone", graph.backbone_parameters(),
                                 config.base_lr)
        active = [(n, m) for n, m in graph.fsm_layers() if m.active]
        if active:
            _add_fsm_groups(self.optimizer, active, config.base_lr, config.offset_lr)

    # -- data ---------------------------------------------------------------

    def _head_shapes(self):
        shapes = {"main": self.graph.shape_of(self.graph.main_head)}
        for node in self.graph.nodes:
            if node.is_head:
                shapes[node.name] = node.out_shape
        return shapes

    def _targets_for(self, samples, head_shape):
        return heatmap_targets(samples, head_shape, self.graph.input_shape[1],
                               self.graph.dtype)

    def _draw_batch(self):
        idx = self.rng.integers(0, len(self.dataset), self.config.batch_size)
        samples = [self.dataset[i] for i in idx]
        if self.config.augment:
            samples = [augment_sample(s, self.config.augment_ranges, self.rng)
                       for s in samples]
        images = np.concatenate([s.image for s in samples], axis=0)
        return images, samples

    # -- stepping -----------------------------------------------------------

    def epoch(self):
        return self.iteration // self.iters_per_epoch

    def _losses(self, heads, samples):
        shapes = self._head_shapes()
        losses = {}
        for name, pred in heads.items():
            target = self._targets_for(samples, shapes[name])
            losses[name] = ad.mse_loss(pred, target)
        return losses

    def step(self):
        """One optimizer step; returns the per-head loss values."""
        cfg = self.config
        if self.iteration == cfg.insertion_iteration and \
                any(not m.active for _, m in self.graph.fsm_layers()):
            insert_fsm_modules(self.graph, self.rng, self.optimizer,
                               offset_lr=offset_lr_schedule(self.epoch(), cfg),
                               weight_lr=base_lr_schedule(self.iteration, cfg))

        self.optimizer.set_lr("backbone", base_lr_schedule(self.iteration, cfg))
        if "fsm_weights" in self.optimizer.groups:
            self.optimizer.set_lr("fsm_weights", base_lr_schedule(self.iteration, cfg))
            self.optimizer.set_lr("offsets", offset_lr_schedule(self.epoch(), cfg))

        images, samples = self._draw_batch()
        heads, _ = self.graph.forward(images, mode="train")
        losses = self._losses(heads, samples)
        total = losses["main"]
        for name, loss in losses.items():
            if name != "main":
                total = ad.add(total, loss)

        if not np.isfinite(total.data):
            # replay the same batch with per-layer checks to name the culprit
            try:
                self.graph.forward(images, mode="train", check_finite=True)
            except NumericError as exc:
                raise NumericError(
                    f"iteration {self.iteration}: {exc}") from None
            raise NumericError(
                f"iteration {self.iteration}: non-finite loss with finite layer outputs")

        self.optimizer.zero_grad()
        total.backward()
        self.optimizer.step()
        for _, module in self.graph.fsm_layers():
            if module.active:
                module.clamp_offsets()

        values = {name: float(l.data) for name, l in losses.items()}
        self.metrics.append({
            "iteration": self.iteration,
            **{f"loss_{n}": values[n]
               for n in ["main"] + sorted(n for n in values if n != "main")},
            "base_lr": base_lr_schedule(self.iteration, cfg),
            "offset_lr": offset_lr_schedule(self.epoch(), cfg),
        })
        self.iteration += 1
        return values

    def run(self):
        while self.iteration < self.config.iterations:
            epoch_before = self.epoch()
            self.step()
            if self.epoch() != epoch_before:
                self.offset_snapshots.append(
                    (epoch_before, self.offset_table()))
        final_eval = self.evaluate()
        return TrainResult(self.iteration, self.metrics, final_eval,
                           self.offset_snapshots)

    def offset_table(self):
        from .analysis import export_offsets

        return export_offsets(self.graph)

    def evaluate(self):
        """Mean main-head loss over the eval set, eval mode, no augmentation."""
        data = self.eval_dataset
        cfg = self.config
        total, batches = 0.0, 0
        for start in range(0, len(data), cfg.batch_size):
            chunk = data[start:start + cfg.batch_size]
            images = np.concatenate([s.image for s in chunk], axis=0)
            heads, _ = self.graph.forward(images, mode="eval")
            target = self._targets_for(chunk, self._head_shapes()["main"])
            total += float(ad.mse_loss(heads["main"], target).data)
            batches += 1
        return total / max(batches, 1)

    def metrics_csv(self):
        """Comma-separated log with one column per metrics key; floats print
        with 9 significant digits."""
        def cell(row, key):
            value = row.get(key, "")
            return f"{value:.9g}" if isinstance(value, float) else str(value)

        keys = list(dict.fromkeys(k for row in self.metrics for k in row))
        lines = [",".join(keys)] + [",".join(cell(row, k) for k in keys)
                                    for row in self.metrics]
        return "\n".join(lines) + "\n"
