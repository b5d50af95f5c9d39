"""Task metrics: accuracy, mean average precision, IoU/Dice.

IoU/Dice accumulate intersection/union over the whole evaluation set before
dividing (dataset-level per-class totals, not per-frame averages).
"""

from __future__ import annotations

import numpy as np


def accuracy(predicted: np.ndarray, labels: np.ndarray) -> float:
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    if predicted.shape != labels.shape:
        raise ValueError("length mismatch")
    if predicted.size == 0:
        raise ValueError("empty evaluation set")
    # the count over the size is the mean of the hits, correctly rounded alike
    return np.count_nonzero(predicted == labels) / predicted.size


def average_precision(scores: np.ndarray, positives: np.ndarray) -> float:
    """All-points AP: mean over positive ranks of precision at that rank.

    Ranking is by descending score with ties broken by ascending sample
    index (stable sort).
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.shape != positives.shape:
        raise ValueError("length mismatch")
    if not positives.any():
        raise ValueError("average precision undefined without positives")
    order = np.argsort(-scores, kind="stable")
    hits = positives[order]
    ranks = np.arange(1, len(hits) + 1)
    cum_pos = np.cumsum(hits)
    return float((cum_pos[hits] / ranks[hits]).mean())


def mean_average_precision(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[float, list[int]]:
    """Mean of per-label APs; labels with zero positives are skipped.

    scores/labels: (N, L). Returns (map, skipped label indices).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ValueError("scores and labels must be aligned (N, L) arrays")
    aps = []
    skipped = []
    for j in range(labels.shape[1]):
        if labels[:, j].any():
            aps.append(average_precision(scores[:, j], labels[:, j]))
        else:
            skipped.append(j)
    if not aps:
        raise ValueError("no label has a positive example")
    return float(np.mean(aps)), skipped


def iou_dice(
    predicted_maps: np.ndarray,
    gt_maps: np.ndarray,
    num_classes: int,
    background: int = 0,
) -> tuple[dict[int, float], float, float]:
    """Dataset-level per-foreground-class IoU, mean IoU and mean Dice.

    Both inputs are (N,H,W) integer maps with values in [0, num_classes).
    A class absent from both prediction and ground truth everywhere is
    excluded from the means. Returns (per-class IoU, mean IoU, mean Dice).
    """
    pred = np.asarray(predicted_maps)
    gt = np.asarray(gt_maps)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if pred.dtype.kind not in "biu" or gt.dtype.kind not in "biu":
        raise ValueError(f"label maps must hold integers, got {pred.dtype} and {gt.dtype}")
    if pred.size and (min(pred.min(), gt.min()) < 0 or max(pred.max(), gt.max()) >= num_classes):
        raise ValueError(f"label map entry outside [0, {num_classes})")
    # confusion matrix: row = ground truth, column = prediction
    cells = gt.astype(np.int64).ravel() * num_classes + pred.astype(np.int64).ravel()
    confusion = np.bincount(cells, minlength=num_classes * num_classes).reshape(num_classes, num_classes)
    inter = np.diag(confusion)
    both = confusion.sum(axis=0) + confusion.sum(axis=1)
    keep = (both > 0) & (np.arange(num_classes) != background)
    if not keep.any():
        raise ValueError("no foreground class present in predictions or ground truth")
    ious = inter[keep] / (both[keep] - inter[keep])
    dices = 2.0 * inter[keep] / both[keep]
    per_class = {int(c): float(v) for c, v in zip(np.flatnonzero(keep), ious)}
    return per_class, float(np.mean(ious)), float(np.mean(dices))


def brier(probs: np.ndarray, labels: np.ndarray) -> float:
    """Multi-class Brier score: mean over samples of ||p - onehot||^2."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ValueError("probs and labels misaligned")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("probs rows must sum to 1")
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(labels)), labels] = 1.0
    return float(((probs - onehot) ** 2).sum(axis=1).mean())
