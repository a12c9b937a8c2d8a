"""Run configuration: serialisation round trip."""

import json

import pytest

from shiftpose.config import (AnalysisOptions, NetworkSpec, RunConfig,
                              parse_run_config, run_config_to_dict)
from shiftpose.fsm import CA_SOFTPLUS
from shiftpose.synthdata import AugmentRanges, SynthSpec
from shiftpose.training import LrDecay, TrainConfig


def non_default_config():
    return RunConfig(
        network=NetworkSpec(builder="fpn", input_size=(64, 96), shift_channels=12,
                            keypoints=3, ca_variant=CA_SOFTPLUS, in_channels=3,
                            width=24, base_channels=6, fsm_active=True,
                            esp=("s1_block3", "s2_block4"), seed=4),
        dataset=SynthSpec(image_size=(64, 96), displacement=(6.5, -2.0),
                          blob_sigma=1.5, distractors=2, noise_std=0.05, count=40,
                          seed=7, heatmap_downscale=2, heatmap_sigma=1.5),
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
    doc = run_config_to_dict(cfg)
    assert parse_run_config(doc) == cfg
    # checkpoints embed the dict as JSON
    assert parse_run_config(json.loads(json.dumps(doc))) == cfg


def test_non_default_config_differs_in_every_section():
    cfg, default = non_default_config(), RunConfig()
    for section in ("network", "dataset", "trainer", "analysis", "eval_count"):
        assert getattr(cfg, section) != getattr(default, section), section
    assert cfg.trainer.lr_decay != default.trainer.lr_decay
    assert cfg.trainer.augment_ranges != default.trainer.augment_ranges
