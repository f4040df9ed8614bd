"""Mixup-style training with interpolated classifiers.

Instead of interpolating one-hot labels, each mixed sample is paired with a
classifier vector interpolated from the original class weights, and a batch
is optimized contrastively along both axes of its sample-by-classifier score
matrix. Standard mixup, regmixup, and remix baselines, a small exactly
differentiated feedforward model, dataset tooling, and a config-driven
training harness round out the package.
"""

from .data import Dataset, DatasetFileError, load_cifar, longtail_subsample, standardize, stratified_subsample, synth_blobs
from .harness import (
    ConfigError,
    CurveTable,
    DatasetSpec,
    EvalMetrics,
    GradcheckReport,
    MixConfig,
    ModelSpec,
    NonFiniteError,
    RunReport,
    TrainConfig,
    TrainSpec,
    analyze_interpolation,
    batch_loss_and_grads,
    build_dataset_pair,
    dataset_spec_from_dict,
    evaluate,
    gradcheck,
    train,
    train_config_from_dict,
)
from .losses import (
    LossResult,
    MixedScoreMatrix,
    build_mixed_classifier,
    grad_w_cc,
    grad_w_ci,
    grad_w_mixup,
    loss_cc,
    loss_ci,
    loss_ic_joint,
    loss_mixup_ce,
    mixed_scores,
)
from .mixing import AXES, METHODS, ClassHistogram, MixBatch, mix_batch, one_hot, regmixup_compose, remix_label_ratio
from .model import (
    DenseLayer,
    ForwardCache,
    ModelParams,
    backward,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from .numerics import RngState, matrix, plan_epoch, softmax_log_z

__version__ = "0.1.0"
