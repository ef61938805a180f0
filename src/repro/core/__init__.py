"""TEVoT core: features, model, baselines, evaluation, pipeline."""

from .baselines import DelayBasedModel, TERBasedModel, make_tevot_nh
from .evaluation import (
    ModelAccuracies,
    SweepResult,
    evaluate_models,
    prediction_accuracy,
)
from .features import (
    FEATURE_SPEC_VERSION,
    FeatureSpec,
    build_feature_matrix,
    build_training_set,
    feature_row,
    operand_bits,
    stream_bits,
)
from .model import TEVoT, default_regressor, load_model, save_model
from .pipeline import (
    ExperimentResult,
    experiment_impl,
    publish_models,
    train_models,
)

__all__ = [
    "DelayBasedModel",
    "ExperimentResult",
    "FEATURE_SPEC_VERSION",
    "FeatureSpec",
    "ModelAccuracies",
    "SweepResult",
    "TERBasedModel",
    "TEVoT",
    "build_feature_matrix",
    "build_training_set",
    "default_regressor",
    "evaluate_models",
    "experiment_impl",
    "feature_row",
    "load_model",
    "make_tevot_nh",
    "operand_bits",
    "prediction_accuracy",
    "publish_models",
    "save_model",
    "stream_bits",
    "train_models",
]
