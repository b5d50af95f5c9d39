"""Glass-blur pixel swaps, the one inherently sequential loop in the package.

Each swap reads pixels that earlier swaps may have moved, so the loop over
(round, y, x) does not vectorise. The images of a batch are independent,
though: they share the batch axis N of an (N,H,W,C) stack, and each
(round, y, x) swap is made in all N images at once with fancy indexing.
"""

from __future__ import annotations

import numpy as np

# No JIT path is left; the flag stays for readers of the run manifest.
USE_NUMBA = False


def glass_swaps(imgs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
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
