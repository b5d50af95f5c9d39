"""Soft-target losses and their gradients w.r.t. logits.

Each loss returns (scalar, dlogits) where the scalar is the mean over the
reduced population (samples, pixels, or labels) and dlogits already carries
the 1/count factor, so chaining through a model's input-gradient gives the
gradient of the returned scalar directly.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import sigmoid, softmax_log_softmax

_TARGET_TOL = 1e-6


def soft_ce(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross entropy against a soft target distribution.

    logits/targets: (..., K); loss is the mean of -sum(t * log_softmax(z))
    over the leading axes, gradient is (softmax(z) - t) / n_leading.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ValueError(f"shape mismatch: {logits.shape} vs {targets.shape}")
    sums = targets.sum(axis=-1)
    if (np.abs(sums - 1.0) > _TARGET_TOL).any() or (targets < -1e-12).any():
        raise ValueError("targets must be distributions over the last axis")
    n = max(1, math.prod(logits.shape[:-1]))
    dlogits, logp = softmax_log_softmax(logits)
    loss = float(-(targets * logp).sum() / n)
    dlogits -= targets
    dlogits /= n
    return loss, dlogits


def masked_pixel_ce(
    logit_maps: np.ndarray, target_maps: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Per-pixel soft cross entropy averaged over the included pixels.

    logit/target maps: (..., H, W, K); mask: (..., H, W) of {0,1}. Excluded
    pixels contribute neither loss nor gradient; an all-excluded batch is
    the declared degenerate case (0.0, zero gradient).
    """
    logit_maps = np.asarray(logit_maps, dtype=np.float64)
    target_maps = np.asarray(target_maps, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if logit_maps.shape != target_maps.shape:
        raise ValueError(f"shape mismatch: {logit_maps.shape} vs {target_maps.shape}")
    if mask.shape != logit_maps.shape[:-1]:
        raise ValueError(f"mask shape {mask.shape} does not match maps {logit_maps.shape[:-1]}")
    if not ((mask == 0.0) | (mask == 1.0)).all():
        raise ValueError("mask must be binary")
    count = mask.sum()
    if count == 0:
        return 0.0, np.zeros_like(logit_maps)
    dlogits, logp = softmax_log_softmax(logit_maps)
    per_pixel = -(target_maps * logp).sum(axis=-1)
    loss = float((per_pixel * mask).sum() / count)
    dlogits -= target_maps
    dlogits *= mask[..., None]
    dlogits /= count
    return loss, dlogits


def soft_bce(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Binary cross entropy per label against smoothed targets in [0,1].

    Mean over every (sample, label) element: t*softplus(-z) + (1-t)*softplus(z),
    the stable form of -[t log s(z) + (1-t) log(1-s(z))].
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ValueError(f"shape mismatch: {logits.shape} vs {targets.shape}")
    if (targets < 0.0).any() or (targets > 1.0).any():
        raise ValueError("targets must lie in [0, 1]")
    n = max(1, logits.size)
    loss = float((targets * np.logaddexp(0.0, -logits) + (1.0 - targets) * np.logaddexp(0.0, logits)).sum() / n)
    dlogits = (sigmoid(logits) - targets) / n
    return loss, dlogits
