"""Dense-array math shared by the rest of the package.

Arrays are float64 throughout; image bytes are converted to [0,1] reals at
ingestion so the exactness gates in the tests are meaningful.

Whole-set image passes (``models.forward`` of tiny_fcn, the segmentation
soft targets and the pixel-bank scores of ``trainer``) run over
``frame_chunks``: consecutive slices of whole frames, as many as fit in
CHUNK_PIXELS pixels and at least one. Each of them computes every frame on
its own, so the chunks change how much memory a pass holds at once, not
its bytes.
"""

from __future__ import annotations

import numpy as np

# pixels per chunk of a whole-set image pass: 16 frames of 16x16
CHUNK_PIXELS = 4096


def frame_chunks(n: int, h: int, w: int) -> list[slice]:
    """Consecutive slices over n frames of h*w pixels, each holding as many
    whole frames as fit in CHUNK_PIXELS, and at least one."""
    step = max(1, CHUNK_PIXELS // max(1, h * w))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def _fill_border(p: np.ndarray, c: int) -> np.ndarray:
    """Copy into each of the c border rows and columns of the padded maps p
    (..., H+2c, W+2c, C) the edge of the interior it pads, as
    np.pad(mode="edge") would, and return p."""
    h, w = p.shape[-3] - 2 * c, p.shape[-2] - 2 * c
    p[..., :c, c : c + w, :] = p[..., c : c + 1, c : c + w, :]
    p[..., c + h :, c : c + w, :] = p[..., c + h - 1 : c + h, c : c + w, :]
    p[..., :c, :] = p[..., c : c + 1, :]
    p[..., c + w :, :] = p[..., c + w - 1 : c + w, :]
    return p


def gaussian_kernel2d(k: int, sigma: float) -> np.ndarray:
    """Normalized k-by-k Gaussian kernel (sum 1; the 1/(2*pi*sigma^2)
    prefactor cancels under normalization).

    k must be odd; offsets are measured from the center cell.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {k}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    c = k // 2
    d = np.arange(k, dtype=np.float64) - c
    sq = d[:, None] ** 2 + d[None, :] ** 2
    weights = np.exp(-sq / (2.0 * sigma * sigma))
    return weights / weights.sum()


def conv2d_same(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """2-D cross-correlation with replicate (clamp-to-border) padding.

    ``arr`` is a map (H,W) or a stack of maps (..., H, W); only the last two
    axes are padded and convolved. ``kernel`` is one (k,k) kernel for every
    map, or per-map kernels (..., k, k) whose leading axes broadcast against
    those of ``arr``. Each map gets the same shift-add sums, in the same
    order, as it would alone.

    Replicate padding keeps per-pixel probability mass intact at borders:
    a sum-1 kernel applied channel-wise to maps that sum to 1 per pixel
    yields maps that still sum to 1 per pixel.
    """
    arr = np.asarray(arr, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if arr.ndim < 2:
        raise ValueError(f"expected a 2-D map, got shape {arr.shape}")
    if kernel.ndim < 2 or kernel.shape[-1] != kernel.shape[-2] or kernel.shape[-1] % 2 == 0:
        raise ValueError(f"kernel must be square with odd size, got shape {kernel.shape}")
    k = kernel.shape[-1]
    c = k // 2
    h, w = arr.shape[-2:]
    padded = np.empty(arr.shape[:-2] + (h + 2 * c, w + 2 * c))
    padded[..., c : c + h, c : c + w] = arr
    _fill_border(padded[..., None], c)  # the maps' edges, as np.pad(mode="edge")
    # per-map kernel taps broadcast as (..., 1, 1) over the map axes
    taps = kernel[..., None, None]
    out = np.zeros(np.broadcast_shapes(arr.shape, taps.shape[:-4] + (1, 1)))
    for i in range(k):
        for j in range(k):
            out += taps[..., i, j, :, :] * padded[..., i : i + h, j : j + w]
    return out


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-stabilized softmax along ``axis``."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax_log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(softmax, log_softmax) over the last axis from a single ``exp``.

    Both divide or log the same row sum, so each output equals its
    separate function bit for bit.
    """
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    e /= total
    shifted -= np.log(total, out=total)
    return e, shifted


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
