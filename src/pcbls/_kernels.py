"""Glass-blur pixel swaps, the one inherently sequential loop in the package.

Each swap reads pixels that earlier swaps may have moved, so the loop over
(round, y, x) does not vectorise. The images of a batch are independent,
though: they share the batch axis N of an (N,H,W,C) stack, and the numpy
path makes each (round, y, x) swap in all N images at once with fancy
indexing. The loop is JIT-compiled with numba when ``import numba``
succeeds (``pip install pcbls[jit]``) and runs as plain numpy otherwise;
both paths give identical bytes.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit
except ImportError:
    njit = None

USE_NUMBA = njit is not None


def glass_swaps_np(imgs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sequential local pixel swaps of an (N,H,W,C) batch.

    offsets: (N,rounds,H,W,2) in [-d,d]; image n sees only offsets[n], in
    the same (round, y, x) order as if it were swapped alone.
    """
    n, h, w, c = imgs.shape
    out = imgs.reshape(n, h * w, c).copy()
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    # flat index of the swap partner, laid out (rounds, H*W, N) so each
    # step reads one contiguous row
    partner = np.clip(ys + offsets[..., 0], 0, h - 1) * w + np.clip(xs + offsets[..., 1], 0, w - 1)
    partner = np.ascontiguousarray(partner.reshape(n, -1, h * w).transpose(1, 2, 0))
    batch = np.arange(n)
    for rnd in partner:
        for p, q in enumerate(rnd):
            tmp = out[:, p].copy()
            out[:, p] = out[batch, q]
            out[batch, q] = tmp
    return out.reshape(n, h, w, c)


if USE_NUMBA:

    @njit(cache=True)
    def _glass_swaps_nb(imgs, offsets):
        out = imgs.copy()
        h = out.shape[1]
        w = out.shape[2]
        ch = out.shape[3]
        iters = offsets.shape[1]
        for n in range(out.shape[0]):
            for it in range(iters):
                for y in range(h):
                    for x in range(w):
                        yy = y + offsets[n, it, y, x, 0]
                        if yy < 0:
                            yy = 0
                        elif yy >= h:
                            yy = h - 1
                        xx = x + offsets[n, it, y, x, 1]
                        if xx < 0:
                            xx = 0
                        elif xx >= w:
                            xx = w - 1
                        for c in range(ch):
                            tmp = out[n, y, x, c]
                            out[n, y, x, c] = out[n, yy, xx, c]
                            out[n, yy, xx, c] = tmp
        return out

    def glass_swaps(imgs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """glass_swaps_np, compiled."""
        return _glass_swaps_nb(np.ascontiguousarray(imgs), np.ascontiguousarray(offsets))

else:
    glass_swaps = glass_swaps_np
