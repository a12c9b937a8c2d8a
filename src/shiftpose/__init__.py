"""Differentiable feature-map shifting with correlation attention, plus
the small interleaved pose network, a desk-scale trainer, and analysis
tools built on a numpy reverse-mode tape."""

from .autodiff import (Parameter, Tensor, bilinear_sample, conv1x1, conv2d,
                       tensor)
from .errors import (CheckpointError, ConfigError, DimensionError,
                     GenerationError, NumericError, ShiftPoseError, StateError)
from .fsm import (CA_SIGMOID, CA_SOFTPLUS, FeatureShiftModule, ca_forward,
                  fsm_oracle, fsm_param_count, shift)
from .gradcheck import finite_diff_gradcheck
from .network import (NetworkGraph, attach_esp, build_3block3fsm,
                      build_fpn_ssn, build_toy_fsm_net, count_flops, count_params)
from .optim import Adam, adam_step
from .synthdata import (AugmentRanges, SynthSample, SynthSpec, augment_sample,
                        decode_heatmap, generate_dataset, heatmap_target)
from .training import (TrainConfig, Trainer, base_lr_schedule,
                       insert_fsm_modules, offset_lr_schedule)

__version__ = "0.1.0"
