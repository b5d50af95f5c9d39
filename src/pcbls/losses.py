"""Soft-target losses and their gradients w.r.t. logits.

Each loss returns (scalar, dlogits) where the scalar is the mean over the
reduced population (samples, pixels, or labels) and dlogits already carries
the 1/count factor, so chaining through a model's input-gradient gives the
gradient of the returned scalar directly.

Every loss is a public check (``check_soft_ce``, ``check_soft_bce``,
``check_masked_pixel_ce``: its inputs as float64 arrays for logits of
``shape``, after every check the loss makes of them) and a private core
that only does the arithmetic (``_soft_ce``, ``_soft_bce``,
``_masked_pixel_ce``). The trainer's task table (``trainer.TASKS``) names
each task's check and core. A check holds row by row (or pixel by pixel),
so a trainer checks a whole epoch of targets once and runs the core on
slices of it.

The pixel loss takes its per-pixel max, softmax sum and target-weighted
sum one class column at a time, K-1 elementwise calls over (N,H,W)
arrays, because a reduction along the short last axis pays a per-pixel
dispatch: a max over 4 classes of a 4x16x16 batch takes 46 us as a
reduction, 8 us as columns, and an exp of the same values 5 us (2-vCPU
VM, NumPy 2.4.6). NumPy adds a contiguous axis shorter than 8 in sequence, so for
K <= 7 classes the column sums are byte-equal to ``sum(axis=-1)``; from 8
classes on the reduction adds in pairwise blocks and the last bits may
differ (at most 1e-18 on dlogits of magnitude 1e-3 at 8 to 16 classes).
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import sigmoid, softmax_log_softmax

_TARGET_TOL = 1e-6


def _targets(shape: tuple[int, ...], targets: np.ndarray) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.float64)
    if tuple(shape) != targets.shape:
        raise ValueError(f"shape mismatch: {tuple(shape)} vs {targets.shape}")
    return targets


# fmin/fmax skip NaN as the elementwise comparisons do, and the initial
# value makes an empty array pass
def check_soft_ce(shape: tuple[int, ...], targets: np.ndarray) -> np.ndarray:
    """Distributions over the last axis."""
    targets = _targets(shape, targets)
    # a tolerance test needs no pairwise order: one matrix-vector product
    # gives the row sums several times faster than sum(axis=-1)
    deviation = np.abs(targets @ np.ones(targets.shape[-1]) - 1.0)
    if (
        np.fmax.reduce(deviation, axis=None, initial=0.0) > _TARGET_TOL
        or np.fmin.reduce(targets, axis=None, initial=0.0) < -1e-12
    ):
        raise ValueError("targets must be distributions over the last axis")
    return targets


def check_soft_bce(shape: tuple[int, ...], targets: np.ndarray) -> np.ndarray:
    """Values in [0, 1]."""
    targets = _targets(shape, targets)
    if np.fmin.reduce(targets, axis=None, initial=0.0) < 0.0 or np.fmax.reduce(targets, axis=None, initial=1.0) > 1.0:
        raise ValueError("targets must lie in [0, 1]")
    return targets


def check_masked_pixel_ce(shape: tuple[int, ...], targets: np.ndarray, mask=None) -> tuple[np.ndarray, np.ndarray]:
    """(..., K) maps and a binary (...) mask; no mask is the all-ones one."""
    targets = _targets(shape, targets)
    mask = np.ones(targets.shape[:-1]) if mask is None else np.asarray(mask, dtype=np.float64)
    if mask.shape != targets.shape[:-1]:
        raise ValueError(f"mask shape {mask.shape} does not match maps {targets.shape[:-1]}")
    if not ((mask == 0.0) | (mask == 1.0)).all():
        raise ValueError("mask must be binary")
    return targets, mask


def _soft_ce(logits, targets):
    """Cross entropy against soft (..., K) targets: the mean over the leading
    axes of -sum(t * log_softmax(z)); dlogits = (softmax(z) - t) / n."""
    n = max(1, math.prod(logits.shape[:-1]))
    dlogits, logp = softmax_log_softmax(logits)
    logp *= targets
    loss = float(-np.add.reduce(logp, axis=None) / n)
    dlogits -= targets
    dlogits /= n
    return loss, dlogits


def _masked_pixel_ce(logit_maps, target_maps, mask):
    """Per-pixel soft cross entropy of (..., H, W, K) maps averaged over the
    pixels a (..., H, W) {0,1} mask includes; excluded pixels give neither
    loss nor gradient, and an all-excluded batch gives (0.0, zeros)."""
    count = mask.sum()
    if count == 0:
        return 0.0, np.zeros_like(logit_maps)
    # softmax and log_softmax over the short class axis, its max and sums
    # taken one class column at a time (see the module docstring)
    shifted = logit_maps - _columns(np.maximum, logit_maps)[..., None]
    dlogits = np.exp(shifted)
    total = _columns(np.add, dlogits)
    dlogits /= total[..., None]
    shifted -= np.log(total, out=total)[..., None]
    shifted *= target_maps
    per_pixel = np.negative(_columns(np.add, shifted))
    loss = float((per_pixel * mask).sum() / count)
    dlogits -= target_maps
    dlogits *= mask[..., None]
    dlogits /= count
    return loss, dlogits


def _columns(ufunc, a):
    """``ufunc`` folded over the last axis of ``a``, one elementwise call per
    column in column order, into a new (...) array."""
    out = a[..., 0].copy()
    for c in range(1, a.shape[-1]):
        ufunc(out, a[..., c], out=out)
    return out


def _soft_bce(logits, targets):
    """Binary cross entropy per label against targets in [0, 1], the mean over
    every element of t*softplus(-z) + (1-t)*softplus(z)."""
    n = max(1, logits.size)
    loss = float((targets * np.logaddexp(0.0, -logits) + (1.0 - targets) * np.logaddexp(0.0, logits)).sum() / n)
    dlogits = (sigmoid(logits) - targets) / n
    return loss, dlogits
