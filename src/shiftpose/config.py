"""Run configuration: a structured key-value document covering the
network, dataset, trainer, and analysis options.

The dataclasses below are the schema and hold the defaults; ``LIMITS``
adds the bounds and choices their types cannot express. Parsing is
strict: an unknown key or a bad value raises ``ConfigError`` naming its
full dotted path. Graph specs are read by the same reader (``_read``,
``_value``) against the network's own limits.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .errors import ConfigError
from .synthdata import SynthSpec, generate_dataset
from .training import TrainConfig

__all__ = ["NetworkSpec", "AnalysisOptions", "RunConfig",
           "parse_run_config", "load_run_config", "build_network",
           "build_datasets"]


@dataclass
class NetworkSpec:
    builder: str = "toy"                # toy | 3block3fsm | fpn
    input_size: tuple = (32, 32)
    shift_channels: int = 8
    keypoints: int = 1
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


# By dotted field path: inclusive (low, high) bounds, or a string's choices.
LIMITS = {
    "network.builder": ("toy", "3block3fsm", "fpn"),
    "network.input_size": (1, None),
    "network.shift_channels": (1, None),
    "network.keypoints": (1, None),
    "network.in_channels": (1, None),
    "network.width": (4, None),
    "network.base_channels": (4, None),
    "dataset.image_size": (1, None),
    "dataset.blob_sigma": (0.3, None),
    "dataset.distractors": (0, None),
    "dataset.noise_std": (0.0, None),
    "dataset.count": (1, None),
    "dataset.heatmap_sigma": (0.1, None),
    "trainer.batch_size": (1, None),
    "trainer.insertion_iteration": (0, None),
    "trainer.iterations": (0, None),
    "trainer.lr_decay.after_iter": (0, None),
    "trainer.lr_decay.factor": (0.0, 1.0),
    "trainer.lr_decay.every": (1, None),
    "trainer.augment_ranges.rotation_deg": (0.0, None),
    "trainer.augment_ranges.shift_frac": (0.0, None),
    "analysis.channel": (0, None),
    "eval_count": (1, None),
}


# A field's annotation -> the JSON values it takes: a bool is no int, and
# an int is a float
_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


def _value(kind, value, path, limits, default=MISSING):
    """``value`` read as a field annotated ``kind`` whose default is
    ``default``. A ``tuple`` is a list of the default's length and element
    types (of strings, any length, when the default is empty); a ``str``
    whose default is None also takes None. Each scalar must fall within
    ``limits[path]``: inclusive (low, high) bounds, or a string's choices."""
    if kind == "tuple":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, "expected a list")
        if default and len(value) != len(default):
            raise ConfigError(path, f"expected a list of {len(default)} values")
        return tuple(_value(type(d).__name__, v, path, limits, d)
                     for d, v in zip(default or [""] * len(value), value))
    if not (value is None and default is None and kind == "str"):
        if isinstance(value, bool) != (kind == "bool") \
                or not isinstance(value, _TYPES[kind]):
            raise ConfigError(path, "expected true or false" if kind == "bool"
                              else f"expected {kind}")
        if kind == "float":
            # refuses NaN and infinity, which json.load reads, and an int
            # that no float can hold
            if not abs(value) <= sys.float_info.max:
                raise ConfigError(path, "must be finite")
            value = float(value)
    limit = limits.get(path)
    if kind == "str":
        if limit and value not in limit:
            raise ConfigError(path, f"must be one of {', '.join(map(str, limit))}")
    elif limit:
        low, high = limit
        if low is not None and value < low:
            raise ConfigError(path, f"must be >= {low}")
        if high is not None and value > high:
            raise ConfigError(path, f"must be <= {high}")
    return value


def _read(cls, doc, path, limits=LIMITS, **init):
    """Dataclass ``cls`` from a mapping whose keys name its fields: a
    nested dataclass from a nested mapping, any other field by ``_value``
    from its annotation and default, and an absent field takes its
    default. ``init`` passes the class's init-only arguments."""
    if not isinstance(doc, dict):
        raise ConfigError(path or "config", "must be a mapping")
    flds = fields(cls)
    names = [f.name for f in flds]
    for key in doc:
        if key not in names:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    values = {}
    for f in flds:
        if f.name in doc:
            where = f"{path}.{f.name}" if path else f.name
            values[f.name] = (
                _read(f.default_factory, doc[f.name], where, limits)
                if is_dataclass(f.default_factory) else
                _value(getattr(f.type, "__name__", f.type), doc[f.name], where,
                       limits, f.default))
    return cls(**values, **init)


def parse_run_config(doc):
    """``RunConfig`` from a plain document; every absent field takes its
    dataclass default, except that ``dataset.image_size`` follows
    ``network.input_size``."""
    cfg = _read(RunConfig, doc, "")
    if "image_size" not in doc.get("dataset", {}):
        cfg.dataset.image_size = cfg.network.input_size
    cfg.trainer.validate()
    return cfg


def load_run_config(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise ConfigError("config", f"invalid JSON: {exc}") from None
    return parse_run_config(doc)


def build_network(cfg):
    from . import network as net

    spec = cfg.network
    rng = np.random.default_rng(spec.seed)
    try:
        if spec.builder == "3block3fsm":
            graph = net.build_3block3fsm(spec.input_size, spec.shift_channels,
                                         spec.keypoints, fsm_active=spec.fsm_active,
                                         rng=rng)
        elif spec.builder == "toy":
            graph = net.build_toy_fsm_net(spec.input_size, spec.in_channels,
                                          spec.keypoints, spec.shift_channels,
                                          spec.width, fsm_active=spec.fsm_active,
                                          rng=rng)
        elif spec.builder == "fpn":
            graph = net.build_fpn_ssn(spec.input_size, spec.keypoints,
                                      spec.base_channels, spec.shift_channels,
                                      fsm_active=spec.fsm_active, rng=rng)
        else:
            raise ConfigError("network.builder", f"unknown builder {spec.builder!r}")
    except ConfigError as exc:
        # a group norm refuses a width that the builder's width field set
        if exc.key_path != "norm.groups":
            raise
        width = {"toy": "network.width", "fpn": "network.base_channels"}[spec.builder]
        raise ConfigError(width, str(exc)) from None
    for layer_name in spec.esp:
        try:
            net.attach_esp(graph, layer_name, spec.keypoints)
        except ConfigError as exc:  # an unknown or repeated layer
            raise ConfigError("network.esp", str(exc)) from None
    return graph


def build_datasets(cfg):
    """Training set from the dataset spec; a disjoint eval set from the
    same distribution (seed offset by 1000)."""
    train = generate_dataset(cfg.dataset)
    eval_spec = replace(cfg.dataset, count=cfg.eval_count,
                        seed=cfg.dataset.seed + 1000)
    return train, generate_dataset(eval_spec)
