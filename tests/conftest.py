"""Shared reference oracles kept independent of the library code paths."""

import numpy as np
import pytest


def ref_conv2d_replicate(src, kernel):
    """Triple-loop replicate-padded cross-correlation."""
    h, w = src.shape
    k = kernel.shape[0]
    c = k // 2
    out = np.zeros_like(src, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(k):
                for j in range(k):
                    yy = min(max(y + i - c, 0), h - 1)
                    xx = min(max(x + j - c, 0), w - 1)
                    acc += kernel[i, j] * src[yy, xx]
            out[y, x] = acc
    return out


def _clipped_index(n, offset):
    return np.clip(np.arange(n) + offset, 0, n - 1)


def ref_fcn_conv_forward(x, w, b):
    """Per-image replicate-padded conv: x (H,W,Cin), w (Cout,Cin,k,k), b (Cout,) -> (H,W,Cout)."""
    h, wd, _ = x.shape
    cout, _, k, _ = w.shape
    c = k // 2
    out = np.broadcast_to(b, (h, wd, cout)).copy()
    for i in range(k):
        ri = _clipped_index(h, i - c)
        for j in range(k):
            cj = _clipped_index(wd, j - c)
            out += x[ri[:, None], cj[None, :], :] @ w[:, :, i, j].T
    return out


def ref_fcn_conv_backward(x, w, dout):
    """Gradients of ref_fcn_conv_forward w.r.t. input, weights and bias."""
    h, wd, _ = x.shape
    k = w.shape[2]
    c = k // 2
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for i in range(k):
        ri = _clipped_index(h, i - c)
        for j in range(k):
            cj = _clipped_index(wd, j - c)
            shifted = x[ri[:, None], cj[None, :], :]
            dw[:, :, i, j] = np.einsum("yxo,yxi->oi", dout, shifted)
            np.add.at(dx, (ri[:, None], cj[None, :]), dout @ w[:, :, i, j])
    return dx, dw, dout.sum(axis=(0, 1))


def ref_gaussian_kernel(k, sigma):
    c = k // 2
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            out[i, j] = np.exp(-((i - c) ** 2 + (j - c) ** 2) / (2.0 * sigma**2))
    return out / out.sum()


def fd_gradient(f, params, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += h
        dn = params.copy()
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def grad_rel_error(analytic, numeric):
    return np.linalg.norm(analytic - numeric) / (
        np.linalg.norm(analytic) + np.linalg.norm(numeric) + 1e-300
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
