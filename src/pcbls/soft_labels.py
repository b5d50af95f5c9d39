"""Soft targets from hard labels.

Three generators:
  * uniform smoothing of a class index (classification),
  * Gaussian-blurred one-hot channel maps (segmentation boundaries),
  * the fused form: uniform smoothing per pixel, then the blur.
The fused order matters: smoothing happens before the convolution.

Segmentation targets take a label map (H,W) or a stack (..., H, W) and go
through one path, ``segmentation_targets``: one broadcast one-hot, the
uniform smoothing, then one ``conv2d_same`` over every class map of every
frame: SVLS is its epsilon = 0 case with a positive sigma, the fused form
its epsilon > 0 case. The closed form ``(1-eps)*SVLS + eps/K`` and a
separable kernel would agree only to rounding, so neither is used.
"""

from __future__ import annotations

import numpy as np

from .numerics import conv2d_same, gaussian_kernel2d

DEFAULT_KERNEL_SIZE = 3


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 <= epsilon < 1.0):
        raise ValueError(f"smoothing factor must lie in [0, 1), got {epsilon}")


def uls(class_index: int, num_classes: int, epsilon: float) -> np.ndarray:
    """Uniformly smoothed target: true class (1-eps)+eps/K, others eps/K."""
    _check_epsilon(epsilon)
    if not (0 <= class_index < num_classes):
        raise ValueError(f"class index {class_index} out of range [0, {num_classes})")
    probs = np.full(num_classes, epsilon / num_classes)
    probs[class_index] += 1.0 - epsilon
    return probs


def uls_matrix(labels: np.ndarray, num_classes: int, epsilon: float) -> np.ndarray:
    """Row-per-sample version of uls; labels: (N,) ints -> (N, K)."""
    _check_epsilon(epsilon)
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range")
    n = labels.shape[0]
    out = np.full((n, num_classes), epsilon / num_classes)
    # each true-class cell is eps/K + (1-eps), assigned through flat indices
    out.reshape(-1)[np.arange(0, n * num_classes, num_classes) + labels] = epsilon / num_classes + (1.0 - epsilon)
    return out


def smooth_binary(targets: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-label smoothing for multi-label targets: t -> t(1-eps) + eps/2.

    Each label is treated as its own 2-class problem, so the rule is the
    uniform smoothing formula with K=2 applied independently per label.
    """
    _check_epsilon(epsilon)
    targets = np.asarray(targets, dtype=np.float64)
    return targets * (1.0 - epsilon) + epsilon / 2.0


def one_hot_maps(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Label map (H,W) or stack (..., H, W) of ints -> channels (..., H, W, K) of {0.0, 1.0}."""
    labels = np.asarray(labels)
    if labels.ndim < 2:
        raise ValueError(f"label map must be at least 2-D, got shape {labels.shape}")
    if labels.dtype.kind not in "biu":
        raise ValueError(f"label map must hold integers, got {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label map entry out of range")
    return (labels[..., None] == np.arange(num_classes)).astype(np.float64)


def segmentation_targets(
    labels: np.ndarray,
    num_classes: int,
    epsilon: float = 0.0,
    sigma: float | None = None,
    k: int = DEFAULT_KERNEL_SIZE,
) -> np.ndarray:
    """Per-pixel soft targets (..., H, W, K) of a label map or stack (..., H, W).

    epsilon 0 means no uniform smoothing; sigma None (or 0) means no spatial
    blur, and a negative or non-finite sigma is refused. All class maps of
    all frames go through one ``conv2d_same``: only pixels within (k-1)/2 of
    a class boundary move, and replicate padding keeps every pixel a
    distribution.
    """
    _check_epsilon(epsilon)
    if sigma is not None and not (np.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and at least 0, got {sigma}")
    maps = one_hot_maps(labels, num_classes)
    if epsilon > 0.0:
        maps *= 1.0 - epsilon
        maps += epsilon / num_classes
    if sigma is None or sigma == 0.0:
        return maps
    blurred = conv2d_same(np.moveaxis(maps, -1, -3), gaussian_kernel2d(k, sigma))
    # C order, like the unblurred maps, so later reductions see one layout
    return np.ascontiguousarray(np.moveaxis(blurred, -3, -1))
