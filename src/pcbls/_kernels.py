"""Glass-blur pixel swaps, the one inherently sequential loop in the package.

Each swap reads pixels that earlier swaps may have moved, so the loop does
not vectorise. It is JIT-compiled with numba when ``import numba`` succeeds
(``pip install pcbls[jit]``) and runs as plain numpy otherwise; both paths
give identical bytes.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit
except ImportError:
    njit = None

USE_NUMBA = njit is not None


def glass_swaps_np(img: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sequential local pixel swaps; offsets: (iters,H,W,2) in [-d,d]."""
    out = img.copy()
    h, w = out.shape[:2]
    iters = offsets.shape[0]
    for it in range(iters):
        for y in range(h):
            for x in range(w):
                yy = min(max(y + int(offsets[it, y, x, 0]), 0), h - 1)
                xx = min(max(x + int(offsets[it, y, x, 1]), 0), w - 1)
                tmp = out[y, x].copy()
                out[y, x] = out[yy, xx]
                out[yy, xx] = tmp
    return out


if USE_NUMBA:

    @njit(cache=True)
    def _glass_swaps_nb(img, offsets):
        out = img.copy()
        h = out.shape[0]
        w = out.shape[1]
        ch = out.shape[2]
        iters = offsets.shape[0]
        for it in range(iters):
            for y in range(h):
                for x in range(w):
                    yy = y + offsets[it, y, x, 0]
                    if yy < 0:
                        yy = 0
                    elif yy >= h:
                        yy = h - 1
                    xx = x + offsets[it, y, x, 1]
                    if xx < 0:
                        xx = 0
                    elif xx >= w:
                        xx = w - 1
                    for c in range(ch):
                        tmp = out[y, x, c]
                        out[y, x, c] = out[yy, xx, c]
                        out[yy, xx, c] = tmp
        return out

    def _swaps(img3, offsets):
        return _glass_swaps_nb(np.ascontiguousarray(img3), np.ascontiguousarray(offsets))

else:
    _swaps = glass_swaps_np


def glass_swaps(img: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """glass_swaps_np on an (H,W) or (H,W,C) image, compiled when numba is present."""
    img3 = img[:, :, None] if img.ndim == 2 else img
    out = _swaps(img3, offsets)
    return out[:, :, 0] if img.ndim == 2 else out
