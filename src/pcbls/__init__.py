"""Paced-curriculum label smoothing toolkit.

Soft-label generation (uniform, spatially varying, fused), curriculum
smoothing schedules, confidence-paced sample/pixel introduction, a
deterministic training loop for small hand-differentiated models,
calibration metrics, and a corruption-robustness harness.
"""

from .calibration import CalibrationReport, TemperatureModel, apply_temperature, ece, fit_temperature
from .corruption import SEVERITY_TABLE, CorruptionSpec, corrupt, corrupt_dataset
from .models import ModelSpec
from .pacing import PacePlan, SampleBank, active_count, active_mask, pace_parameter, ranks
from .schedules import SmoothingSchedule
from .soft_labels import svls, uls, uls_svls
from .trainer import EpochRecord, TrainConfig, TrainResult, train, train_baseline

__version__ = "0.1.0"

__all__ = [
    "CalibrationReport",
    "CorruptionSpec",
    "EpochRecord",
    "ModelSpec",
    "PacePlan",
    "SEVERITY_TABLE",
    "SampleBank",
    "SmoothingSchedule",
    "TemperatureModel",
    "TrainConfig",
    "TrainResult",
    "active_count",
    "active_mask",
    "apply_temperature",
    "corrupt",
    "corrupt_dataset",
    "ece",
    "fit_temperature",
    "pace_parameter",
    "ranks",
    "svls",
    "train",
    "train_baseline",
    "uls",
    "uls_svls",
]
