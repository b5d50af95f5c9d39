"""Confidence-paced sample/pixel introduction.

A frozen baseline model scores every training sample (a SampleBank, sorted
easy-to-hard; a segmentation frame by the foreground mean of its pixels'
scores, one reduction over the whole stack) or pixel (an (N,H,W) pixel
bank). One rule paces both: each epoch trains on the active_count units of
the bank ranked most confident, where the initial fraction lambda grows by
mu = (1-lambda)/(e_all*epochs) per epoch of the run until the epoch fraction
e_all is reached, after which everything is active. Units are only ever added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# absorbs float representation error before the floor; activation counts are
# intended to be exact when (lambda + mu*e)*n is mathematically integral
_COUNT_EPS = 1e-9

BANK_SOURCES = ("plain", "temperature_scaled", "label_smoothed")


def pace_parameter(lam: float, e_all: float, epochs: int) -> float:
    """Fraction of additional harder samples introduced per epoch."""
    PacePlan(lam, e_all)  # refuses a share outside (0, 1]
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    return (1.0 - lam) / (e_all * epochs)


@dataclass(frozen=True)
class PacePlan:
    """The initial share ``lam`` of the units and the share ``e_all`` of the
    run's epochs after which all of them train, each in (0, 1]."""

    lam: float
    e_all: float

    def __post_init__(self) -> None:
        for name, share in (("initial", self.lam), ("epoch", self.e_all)):
            if not 0.0 < share <= 1.0:
                raise ValueError(f"{name} ratio must lie in (0, 1], got {share}")

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "e_all": self.e_all}


def active_count(plan: PacePlan, epoch: int, epochs: int, n: int) -> int:
    """How many of the ``n`` easiest units train at ``epoch`` of ``epochs``:
    floor((lam + mu*e) * n), clamped to [1, n]; once epoch reaches
    e_all*epochs everything is active.
    """
    if not (0 <= epoch < epochs):
        raise ValueError(f"epoch {epoch} outside [0, {epochs})")
    if epoch >= plan.e_all * epochs:
        return n
    raw = (plan.lam + pace_parameter(plan.lam, plan.e_all, epochs) * epoch) * n
    return int(min(n, max(1, int(np.floor(raw + _COUNT_EPS)))))


@dataclass(frozen=True)
class SampleBank:
    """(sample_id, confidence) pairs sorted easy-to-hard.

    Ties keep ascending id order (stable sort), so bank construction is
    independent of input ordering up to tie groups.
    """

    sample_ids: np.ndarray  # int64, unique
    scores: np.ndarray  # float64, non-increasing
    source: str = "plain"

    def __post_init__(self) -> None:
        if self.source not in BANK_SOURCES:
            raise ValueError(f"unknown bank source {self.source!r}")
        if self.sample_ids.shape != self.scores.shape or self.sample_ids.ndim != 1:
            raise ValueError("ids and scores must be aligned 1-D arrays")
        # a set of Python ints, not np.unique: that imports numpy.ma (+1.6 MB
        # resident) the first time a process builds or loads a bank
        seen = set()
        for sid in self.sample_ids.tolist():
            if sid in seen:
                raise ValueError(f"sample ids must be unique (id {sid} repeats)")
            seen.add(sid)
        if not np.all(np.isfinite(self.scores)):
            bad = self.sample_ids[np.argmin(np.isfinite(self.scores))]
            raise ValueError(f"bank scores must be finite (sample id {bad})")
        if np.any(np.diff(self.scores) > 0):
            raise ValueError("scores must be non-increasing")

    def __len__(self) -> int:
        return len(self.sample_ids)


def _sorted_bank(ids: np.ndarray, scores: np.ndarray, source: str) -> SampleBank:
    order = np.argsort(-scores, kind="stable")
    return SampleBank(
        sample_ids=np.asarray(ids, dtype=np.int64)[order],
        scores=np.asarray(scores, dtype=np.float64)[order],
        source=source,
    )


def build_bank_multiclass(
    probs: np.ndarray, labels: np.ndarray, source: str = "plain"
) -> SampleBank:
    """Score each sample by the predicted probability of its true class."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape[0] != labels.shape[0]:
        raise ValueError("probs and labels length mismatch")
    scores = probs[np.arange(len(labels)), labels]
    return _sorted_bank(np.arange(len(labels)), scores, source)


def build_bank_multilabel(
    probs: np.ndarray, labels: np.ndarray, source: str = "plain"
) -> SampleBank:
    """Score by the mean predicted probability over the positive labels.

    A sample with no positive label falls back to the mean over all labels
    (a low value for a confident model, so empty frames rank hard).
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if probs.shape != labels.shape:
        raise ValueError("probs and labels shape mismatch")
    n_pos = labels.sum(axis=1)
    scores = np.where(
        n_pos > 0,
        (probs * labels).sum(axis=1) / np.maximum(n_pos, 1),
        probs.mean(axis=1),
    )
    return _sorted_bank(np.arange(len(scores)), scores, source)


def build_bank_segmentation(true_probs: np.ndarray, labelmaps: np.ndarray, source: str = "plain") -> SampleBank:
    """Score frames by mean true-class probability over foreground (nonzero) pixels.

    ``true_probs`` is each pixel's true-class probability, (N,H,W) as
    build_pixel_bank gathers it. Frames without any foreground pixel carry no
    learning value for the foreground classes and score exactly 0.
    """
    true_probs = np.asarray(true_probs, dtype=np.float64)
    fg = np.asarray(labelmaps) != 0
    if fg.ndim != 3 or true_probs.shape != fg.shape:
        raise ValueError(f"true-class maps {true_probs.shape} vs label maps {fg.shape}")
    scores = true_probs.sum(axis=(1, 2), where=fg) / np.maximum(fg.sum(axis=(1, 2)), 1)
    return _sorted_bank(np.arange(len(scores)), scores, source)


def build_pixel_bank(probmaps: np.ndarray, labelmaps: np.ndarray) -> np.ndarray:
    """Per-pixel true-class probabilities: (N,H,W,K) and (N,H,W) -> (N,H,W) float64."""
    probmaps = np.asarray(probmaps, dtype=np.float64)
    labelmaps = np.asarray(labelmaps)
    if labelmaps.ndim != 3 or probmaps.shape[:-1] != labelmaps.shape:
        raise ValueError(f"prob maps {probmaps.shape} vs label maps {labelmaps.shape}")
    return np.take_along_axis(probmaps, labelmaps[..., None], axis=-1)[..., 0]


def ranks(bank: SampleBank | np.ndarray) -> np.ndarray:
    """Every unit's rank in ``bank``, 0 = most confident; a run takes it once.

    A SampleBank's ids must be 0..len(bank)-1; its ranks are indexed by
    sample id, and a sample's rank is its position in the bank, so ties keep
    the bank's (file) order. An (N,H,W) pixel bank's ranks are shaped like
    it and come from one stable sort of the whole bank, so ties go by
    (sample, pixel) position.
    """
    if isinstance(bank, SampleBank):
        order, shape = bank.sample_ids, (len(bank),)
        outside = (order < 0) | (order >= len(bank))
        if outside.any():
            raise ValueError(f"bank sample id {order[outside.argmax()]} outside the training set [0, {len(bank)})")
    else:
        scores = np.asarray(bank, dtype=np.float64)
        if not np.all(np.isfinite(scores)):
            raise ValueError("pixel bank scores must be finite")
        order, shape = np.argsort(-scores.ravel(), kind="stable"), scores.shape
    out = np.empty(order.size, dtype=np.int64)
    out[order] = np.arange(order.size)
    return out.reshape(shape)


def active_mask(ranks: np.ndarray, plan: PacePlan, epoch: int, epochs: int) -> np.ndarray:
    """Which units train at ``epoch`` of ``epochs``: a boolean array shaped
    like ``ranks``, true for the active_count of ``ranks.size`` units ranked
    most confident. ``np.flatnonzero`` of a sample mask gives the active ids
    in ascending order; a pixel mask is the epoch's (N,H,W) loss masks."""
    return ranks < active_count(plan, epoch, epochs, ranks.size)
