"""Calibration: ECE with equal-width bins, NLL, temperature scaling.

Bin membership for a confidence c with B bins is min(B-1, floor(c*B)):
equal-width bins, left-closed, with the top bin right-closed so c = 1.0
lands in bin B-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import softmax

DEFAULT_BINS = 10
_LOG_CLAMP = 1e-12

# golden-section search window for the temperature, in log space
_T_LO, _T_HI = 0.05, 20.0
_T_TOL = 1e-4
# a fitted temperature this close to a window edge, in log space, is pinned there
_PIN_TOL = 1e-3


@dataclass(frozen=True)
class CalibrationReport:
    ece: float
    bins: int
    bin_confidence: np.ndarray  # mean confidence per bin (0 where empty)
    bin_accuracy: np.ndarray  # accuracy per bin (0 where empty)
    bin_count: np.ndarray  # samples per bin


@dataclass(frozen=True)
class TemperatureModel:
    temperature: float

    def __post_init__(self) -> None:
        if not (self.temperature > 0):
            raise ValueError("temperature must be positive")

    @property
    def pinned(self) -> bool:
        """Whether T sits at an edge of the search window, where the fit
        stopped on the bound rather than at the NLL minimum."""
        log_t = math.log(self.temperature)
        return min(abs(log_t - math.log(_T_LO)), abs(log_t - math.log(_T_HI))) < _PIN_TOL


def bin_index(confidence: np.ndarray, bins: int) -> np.ndarray:
    c = np.asarray(confidence, dtype=np.float64)
    return np.minimum((c * bins).astype(np.int64), bins - 1)


def ece(confidences: np.ndarray, correct: np.ndarray, bins: int = DEFAULT_BINS) -> CalibrationReport:
    """Expected calibration error: bin-weighted |accuracy - confidence| gap."""
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if confidences.shape != correct.shape or confidences.ndim != 1:
        raise ValueError("confidences and correctness flags must be aligned 1-D")
    if bins < 1:
        raise ValueError("need at least one bin")
    if not np.all(np.isfinite(confidences)):
        raise ValueError("confidences must be finite (got NaN or inf)")
    if np.any(confidences < 0) or np.any(confidences > 1):
        raise ValueError("confidences must lie in [0, 1]")
    n = len(confidences)
    idx = bin_index(confidences, bins)
    count = np.bincount(idx, minlength=bins).astype(np.int64)
    conf_sum = np.bincount(idx, weights=confidences, minlength=bins)
    acc_sum = np.bincount(idx, weights=correct.astype(np.float64), minlength=bins)
    nonzero = count > 0
    mean_conf = np.where(nonzero, conf_sum / np.maximum(count, 1), 0.0)
    mean_acc = np.where(nonzero, acc_sum / np.maximum(count, 1), 0.0)
    value = float((count[nonzero] / n * np.abs(mean_acc - mean_conf)[nonzero]).sum())
    return CalibrationReport(
        ece=value,
        bins=bins,
        bin_confidence=mean_conf,
        bin_accuracy=mean_acc,
        bin_count=count,
    )


def nll(logits: np.ndarray, labels: np.ndarray, temperature: float = 1.0) -> float:
    """Mean negative log-likelihood of the true class (probs clamped at 1e-12)."""
    probs = apply_temperature(logits, temperature)
    p_true = probs[np.arange(len(labels)), np.asarray(labels)]
    return float(-np.log(np.maximum(p_true, _LOG_CLAMP)).mean())


def apply_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(logits / T); argmax is unchanged for every T > 0."""
    if not (temperature > 0):
        raise ValueError("temperature must be positive")
    return softmax(np.asarray(logits, dtype=np.float64) / temperature, axis=-1)


def fit_temperature(logits: np.ndarray, labels: np.ndarray) -> TemperatureModel:
    """Golden-section search for the NLL-minimizing temperature.

    Searches log T over [log 0.05, log 20]; the mean NLL is unimodal in
    1/T, hence in log T, so the search converges to the interval optimum.
    T = 1 lies inside the window, and a final guard keeps the fitted NLL
    from ever exceeding the T = 1 value.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0] or logits.shape[0] == 0:
        raise ValueError("need a non-empty aligned validation set")

    def objective(log_t: float) -> float:
        return nll(logits, labels, float(np.exp(log_t)))

    lo, hi = np.log(_T_LO), np.log(_T_HI)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > _T_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    log_t = (a + b) / 2.0
    t = float(np.exp(log_t))
    if objective(log_t) > nll(logits, labels, 1.0):
        t = 1.0
    return TemperatureModel(temperature=t)
