"""Run configuration: a structured key-value document covering the
network, dataset, trainer, and analysis options.

Parsing is strict: unknown keys are rejected with their full dotted
path, and every field has a documented default (see DEFAULTS below and
the README's configuration table).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError
from .fsm import CA_SIGMOID, CA_SOFTPLUS
from .synthdata import AugmentRanges, SynthSpec
from .training import LrDecay, TrainConfig

__all__ = ["NetworkSpec", "AnalysisOptions", "RunConfig",
           "parse_run_config", "load_run_config", "run_config_to_dict",
           "build_network", "build_datasets"]


@dataclass
class NetworkSpec:
    builder: str = "toy"                # toy | 3block3fsm | fpn
    input_size: tuple = (32, 32)
    shift_channels: int = 8
    keypoints: int = 1
    ca_variant: str = CA_SIGMOID
    in_channels: int = 1                # toy builder only
    width: int = 16                     # toy builder only
    base_channels: int = 8              # fpn builder only
    fsm_active: bool = False            # start bypassed for delayed insertion
    esp: tuple = ()
    seed: int = 0


@dataclass
class AnalysisOptions:
    module_id: str = "fsm1"
    channel: int = 0
    position: tuple = (4, 4)
    threshold: float = 0.5


@dataclass
class RunConfig:
    network: NetworkSpec = field(default_factory=NetworkSpec)
    dataset: SynthSpec = field(default_factory=SynthSpec)
    trainer: TrainConfig = field(default_factory=TrainConfig)
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    eval_count: int = 64


def _section(doc, name, allowed):
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(name, "must be a mapping")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{name}.{key}", "unknown key")
    return section


def _num(section, path, key, default, kind=float, low=None, high=None):
    value = section.get(key, default)
    try:
        value = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}") from None
    if low is not None and value < low:
        raise ConfigError(f"{path}.{key}", f"must be >= {low}")
    if high is not None and value > high:
        raise ConfigError(f"{path}.{key}", f"must be <= {high}")
    return value


def _pair(section, path, key, default, kind=float):
    value = section.get(key, default)
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}.{key}", "expected a pair [a, b]")
    return (kind(value[0]), kind(value[1]))


def parse_run_config(doc):
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a mapping")
    for key in doc:
        if key not in ("network", "dataset", "trainer", "analysis", "eval_count"):
            raise ConfigError(key, "unknown key")

    net = _section(doc, "network", {
        "builder", "input_size", "shift_channels", "keypoints", "ca_variant",
        "in_channels", "width", "base_channels", "fsm_active", "esp", "seed"})
    builder = net.get("builder", "toy")
    if builder not in ("toy", "3block3fsm", "fpn"):
        raise ConfigError("network.builder", f"unknown builder {builder!r}")
    ca = net.get("ca_variant", CA_SIGMOID)
    if ca not in (CA_SIGMOID, CA_SOFTPLUS):
        raise ConfigError("network.ca_variant",
                          f"must be {CA_SIGMOID!r} or {CA_SOFTPLUS!r}")
    esp = net.get("esp", [])
    if not isinstance(esp, (list, tuple)):
        raise ConfigError("network.esp", "expected a list of layer names")
    network = NetworkSpec(
        builder=builder,
        input_size=_pair(net, "network", "input_size", (32, 32), int),
        shift_channels=_num(net, "network", "shift_channels", 8, int, low=1),
        keypoints=_num(net, "network", "keypoints", 1, int, low=1),
        ca_variant=ca,
        in_channels=_num(net, "network", "in_channels", 1, int, low=1),
        width=_num(net, "network", "width", 16, int, low=4),
        base_channels=_num(net, "network", "base_channels", 8, int, low=4),
        fsm_active=bool(net.get("fsm_active", False)),
        esp=tuple(esp),
        seed=_num(net, "network", "seed", 0, int),
    )

    ds = _section(doc, "dataset", {
        "image_size", "displacement", "blob_sigma", "distractors", "noise_std",
        "count", "seed", "heatmap_downscale", "heatmap_sigma"})
    dataset = SynthSpec(
        image_size=_pair(ds, "dataset", "image_size", network.input_size, int),
        displacement=_pair(ds, "dataset", "displacement", (10.0, 0.0)),
        blob_sigma=_num(ds, "dataset", "blob_sigma", 1.2, float, low=0.3),
        distractors=_num(ds, "dataset", "distractors", 0, int, low=0),
        noise_std=_num(ds, "dataset", "noise_std", 0.0, float, low=0.0),
        count=_num(ds, "dataset", "count", 256, int, low=1),
        seed=_num(ds, "dataset", "seed", 0, int),
        heatmap_downscale=_num(ds, "dataset", "heatmap_downscale", 4, int, low=1),
        heatmap_sigma=_num(ds, "dataset", "heatmap_sigma", 1.0, float, low=0.1),
    )

    tr = _section(doc, "trainer", {
        "base_lr", "offset_lr", "offset_decay_per_epoch", "batch_size",
        "insertion_iteration", "iterations", "lr_decay", "augment",
        "augment_ranges", "seed"})
    decay_doc = tr.get("lr_decay", {})
    if not isinstance(decay_doc, dict):
        raise ConfigError("trainer.lr_decay", "must be a mapping")
    for key in decay_doc:
        if key not in ("after_iter", "factor", "every"):
            raise ConfigError(f"trainer.lr_decay.{key}", "unknown key")
    decay = LrDecay(
        after_iter=_num(decay_doc, "trainer.lr_decay", "after_iter", 300_000, int, low=0),
        factor=_num(decay_doc, "trainer.lr_decay", "factor", 0.5, float, low=0.0, high=1.0),
        every=_num(decay_doc, "trainer.lr_decay", "every", 30_000, int, low=1),
    )
    aug_doc = tr.get("augment_ranges", {})
    if not isinstance(aug_doc, dict):
        raise ConfigError("trainer.augment_ranges", "must be a mapping")
    for key in aug_doc:
        if key not in ("rotation_deg", "scale", "shift_frac"):
            raise ConfigError(f"trainer.augment_ranges.{key}", "unknown key")
    ranges = AugmentRanges(
        rotation_deg=_num(aug_doc, "trainer.augment_ranges", "rotation_deg",
                          30.0, float, low=0.0),
        scale=_pair(aug_doc, "trainer.augment_ranges", "scale", (0.75, 1.25)),
        shift_frac=_num(aug_doc, "trainer.augment_ranges", "shift_frac",
                        0.05, float, low=0.0),
    )
    trainer = TrainConfig(
        base_lr=_num(tr, "trainer", "base_lr", 5e-4, float),
        offset_lr=_num(tr, "trainer", "offset_lr", 1e-3, float),
        offset_decay_per_epoch=_num(tr, "trainer", "offset_decay_per_epoch",
                                    0.10, float),
        batch_size=_num(tr, "trainer", "batch_size", 16, int, low=1),
        insertion_iteration=_num(tr, "trainer", "insertion_iteration", 6000,
                                 int, low=0),
        iterations=_num(tr, "trainer", "iterations", 8000, int, low=0),
        lr_decay=decay,
        augment=bool(tr.get("augment", True)),
        augment_ranges=ranges,
        seed=_num(tr, "trainer", "seed", 0, int),
    ).validate()

    an = _section(doc, "analysis", {"module_id", "channel", "position", "threshold"})
    analysis = AnalysisOptions(
        module_id=str(an.get("module_id", "fsm1")),
        channel=_num(an, "analysis", "channel", 0, int, low=0),
        position=_pair(an, "analysis", "position", (4, 4), int),
        threshold=_num(an, "analysis", "threshold", 0.5, float),
    )
    eval_count = _num(doc, "config", "eval_count", 64, int, low=1)
    return RunConfig(network, dataset, trainer, analysis, eval_count)


def load_run_config(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from None
    return parse_run_config(doc)


def run_config_to_dict(cfg):
    """Plain-dict form of every dataclass field, tuples as lists (embedded
    into checkpoints for resume/eval); ``parse_run_config`` inverts it."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, (tuple, list)):
            return [plain(v) for v in value]
        return value

    return plain(asdict(cfg))


def build_network(cfg, dtype=np.float32):
    from . import network as net

    spec = cfg.network
    rng = np.random.default_rng(spec.seed)
    if spec.builder == "3block3fsm":
        graph = net.build_3block3fsm(spec.input_size, spec.shift_channels,
                                     spec.keypoints, spec.ca_variant,
                                     fsm_active=spec.fsm_active, rng=rng,
                                     dtype=dtype)
    elif spec.builder == "toy":
        graph = net.build_toy_fsm_net(spec.input_size, spec.in_channels,
                                      spec.keypoints, spec.shift_channels,
                                      spec.width, spec.ca_variant,
                                      fsm_active=spec.fsm_active, rng=rng,
                                      dtype=dtype)
    elif spec.builder == "fpn":
        graph = net.build_fpn_ssn(spec.input_size, spec.keypoints,
                                  spec.base_channels, spec.shift_channels,
                                  ca_variant=spec.ca_variant,
                                  fsm_active=spec.fsm_active, rng=rng,
                                  dtype=dtype)
    else:
        raise ConfigError("network.builder", f"unknown builder {spec.builder!r}")
    for layer_name in spec.esp:
        net.attach_esp(graph, layer_name, spec.keypoints)
    return graph


def build_datasets(cfg, dtype=np.float32):
    """Training set from the dataset spec; a disjoint eval set from the
    same distribution (seed offset by 1000)."""
    from dataclasses import replace

    from .synthdata import generate_dataset

    train = generate_dataset(cfg.dataset, dtype)
    eval_spec = replace(cfg.dataset, count=cfg.eval_count,
                        seed=cfg.dataset.seed + 1000)
    return train, generate_dataset(eval_spec, dtype)
