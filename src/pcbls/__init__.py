"""Paced-curriculum label smoothing toolkit.

Soft-label generation (uniform, spatially varying, fused), curriculum
smoothing schedules, confidence-paced sample/pixel introduction, a
deterministic training loop for small hand-differentiated models,
calibration metrics, and a corruption-robustness harness.
"""

from .calibration import CalibrationReport, TemperatureModel, apply_temperature, ece, fit_temperature
from .corruption import SEVERITY_TABLE, corrupt_dataset
from .models import ModelSpec
from .pacing import PacePlan, SampleBank, active_count, active_mask, pace_parameter, ranks
from .schedules import SmoothingSchedule
from .soft_labels import uls
from .trainer import EpochRecord, TrainConfig, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "CalibrationReport",
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
    "corrupt_dataset",
    "ece",
    "fit_temperature",
    "pace_parameter",
    "ranks",
    "train",
    "uls",
]
