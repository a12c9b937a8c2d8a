"""Run configuration: serialisation round trip and strict parsing."""

import dataclasses
import json

import pytest

from shiftpose.config import (LIMITS, AnalysisOptions, NetworkSpec, RunConfig,
                              parse_run_config)
from shiftpose.errors import ConfigError
from shiftpose.synthdata import AugmentRanges, SynthSpec
from shiftpose.training import LrDecay, TrainConfig


def non_default_config():
    return RunConfig(
        network=NetworkSpec(builder="fpn", input_size=(64, 96), shift_channels=12,
                            keypoints=3, in_channels=3,
                            width=24, base_channels=6, fsm_active=True,
                            esp=("s1_block3", "s2_block4"), seed=4),
        dataset=SynthSpec(image_size=(64, 96), displacement=(6.5, -2.0),
                          blob_sigma=1.5, distractors=2, noise_std=0.05, count=40,
                          seed=7, heatmap_sigma=1.5),
        trainer=TrainConfig(base_lr=1e-3, offset_lr=2e-3, offset_decay_per_epoch=0.2,
                            batch_size=4, insertion_iteration=10, iterations=50,
                            lr_decay=LrDecay(after_iter=30, factor=0.25, every=5),
                            augment=False,
                            augment_ranges=AugmentRanges(rotation_deg=10.0,
                                                         scale=(0.9, 1.1),
                                                         shift_frac=0.1),
                            seed=3),
        analysis=AnalysisOptions(module_id="s1_fsm1", channel=2, position=(3, 5),
                                 threshold=0.25),
        eval_count=12)


@pytest.mark.parametrize("make", [RunConfig, non_default_config])
def test_parse_inverts_to_dict(make):
    cfg = make()
    doc = dataclasses.asdict(cfg)
    assert parse_run_config(doc) == cfg
    # checkpoints embed the dict as JSON
    assert parse_run_config(json.loads(json.dumps(doc))) == cfg


def test_non_default_config_differs_in_every_section():
    cfg, default = non_default_config(), RunConfig()
    for section in ("network", "dataset", "trainer", "analysis", "eval_count"):
        assert getattr(cfg, section) != getattr(default, section), section
    assert cfg.trainer.lr_decay != default.trainer.lr_decay
    assert cfg.trainer.augment_ranges != default.trainer.augment_ranges


def _rejected(doc, path):
    with pytest.raises(ConfigError) as info:
        parse_run_config(doc)
    assert info.value.key_path.endswith(path)
    return info.value


def _nested(path, value):
    """The document that sets one dotted field path to ``value``."""
    *sections, leaf = path.split(".")
    doc = {leaf: value}
    for name in reversed(sections):
        doc = {name: doc}
    return doc


@pytest.mark.parametrize("path", ["colour", "network.widht", "trainer.lr_decay.rate",
                                  "trainer.augment_ranges.flip"])
def test_unknown_key_rejected_at_every_depth(path):
    assert str(_rejected(_nested(path, 1), path)).endswith("unknown key")


@pytest.mark.parametrize("path", ["network", "dataset", "trainer", "analysis",
                                  "trainer.lr_decay", "trainer.augment_ranges"])
@pytest.mark.parametrize("value", [[], 3, "x"])
def test_section_must_be_a_mapping(path, value):
    _rejected(_nested(path, value), path)


@pytest.mark.parametrize("doc", [[], "network", None])
def test_top_level_must_be_a_mapping(doc):
    _rejected(doc, "config")


# (dotted path, the bound itself, a value just past it)
BOUND_CASES = [
    ("network.input_size", (1, 1), (1, 0)),
    ("network.shift_channels", 1, 0),
    ("network.keypoints", 1, 0),
    ("network.in_channels", 1, 0),
    ("network.width", 4, 3),
    ("network.base_channels", 4, 3),
    ("dataset.image_size", (1, 1), (-4, 32)),
    ("dataset.blob_sigma", 0.3, 0.29),
    ("dataset.distractors", 0, -1),
    ("dataset.noise_std", 0.0, -0.01),
    ("dataset.count", 1, 0),
    ("dataset.heatmap_sigma", 0.1, 0.09),
    ("trainer.batch_size", 1, 0),
    ("trainer.insertion_iteration", 0, -1),
    ("trainer.iterations", 0, -1),
    ("trainer.lr_decay.after_iter", 0, -1),
    ("trainer.lr_decay.factor", 0.0, -0.01),
    ("trainer.lr_decay.factor", 1.0, 1.01),
    ("trainer.lr_decay.every", 1, 0),
    ("trainer.augment_ranges.rotation_deg", 0.0, -0.01),
    ("trainer.augment_ranges.shift_frac", 0.0, -0.01),
    ("analysis.channel", 0, -1),
    ("eval_count", 1, 0),
]


@pytest.mark.parametrize("path,bound,past", BOUND_CASES)
def test_bounds_are_inclusive(path, bound, past):
    cfg = parse_run_config(_nested(path, bound))
    value = cfg
    for name in path.split("."):
        value = getattr(value, name)
    assert value == bound
    assert "must be" in str(_rejected(_nested(path, past), path))


@pytest.mark.parametrize("path", ["network.builder"])
def test_unknown_choice_rejected(path):
    _rejected(_nested(path, "resnet"), path)


@pytest.mark.parametrize("path", ["network.input_size", "dataset.displacement",
                                  "trainer.augment_ranges.scale", "analysis.position"])
@pytest.mark.parametrize("value", [[32, 32, 1], [32], 32, "32x32"])
def test_pair_needs_exactly_two_values(path, value):
    _rejected(_nested(path, value), path)


@pytest.mark.parametrize("value", [[0.0, 0.0], [1.25, 0.75], [-0.5, 1.0]])
def test_augment_scale_must_be_positive_and_ordered(value):
    assert "0 < low <= high" in str(
        _rejected(_nested("trainer.augment_ranges.scale", value),
                  "trainer.augment_ranges.scale"))


@pytest.mark.parametrize("value", ["stem", 3, {"stem": 1}])
def test_esp_must_be_a_list(value):
    _rejected({"network": {"esp": value}}, "network.esp")


def test_image_size_follows_input_size_only_when_absent():
    net = {"input_size": [64, 48]}
    assert parse_run_config({"network": net}).dataset.image_size == (64, 48)
    cfg = parse_run_config({"network": net, "dataset": {"image_size": [32, 40]}})
    assert (cfg.network.input_size, cfg.dataset.image_size) == ((64, 48), (32, 40))


@pytest.mark.parametrize("path,value", [
    ("network.fsm_active", "false"),
    ("network.fsm_active", 0),
    ("trainer.augment", "no"),
    ("network.input_size", [32, "x"]),
    ("dataset.displacement", [1.0, None]),
    ("network.shift_channels", 3.7),
    ("network.keypoints", True),
    ("trainer.base_lr", True),
    ("analysis.module_id", 3),
    ("network.esp", [{"a": 1}]),
])
def test_wrong_type_rejected_with_its_path(path, value):
    _rejected(_nested(path, value), path)


@pytest.mark.parametrize("path,value", [
    ("dataset.blob_sigma", float("nan")),
    ("dataset.noise_std", float("inf")),
    ("trainer.lr_decay.factor", float("nan")),
    ("trainer.base_lr", float("nan")),
    ("trainer.offset_lr", float("-inf")),
    ("dataset.displacement", [float("inf"), 0.0]),
    pytest.param("trainer.base_lr", 10 ** 400, id="trainer.base_lr-int-past-float"),
])
def test_non_finite_float_rejected(path, value):
    # json.load reads the NaN and Infinity literals as these floats, and
    # an integer literal of any size as an int
    assert "must be finite" in str(_rejected(_nested(path, value), path))


@pytest.mark.parametrize("field", ["base_lr", "offset_lr"])
def test_non_finite_rate_refused_by_validate(field):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: float("nan")}).validate()


def test_limits_name_real_fields_and_are_all_pinned():
    for path in LIMITS:
        value = RunConfig()
        for name in path.split("."):
            assert name in {f.name for f in dataclasses.fields(value)}, path
            value = getattr(value, name)
    numeric = {path for path, limit in LIMITS.items() if not isinstance(limit[0], str)}
    assert numeric == {path for path, _, _ in BOUND_CASES}
