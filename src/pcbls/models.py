"""Small differentiable predictors with hand-derived gradients.

Three architectures over a flat float64 parameter vector:

  linear_softmax  dims (D, K)            logits = x W^T + b
  mlp             dims (D, H, K)         one tanh hidden layer
  tiny_fcn        dims (Cin, c1, c2, K)  three 3x3 convs (replicate padding,
                                         tanh between, linear last), no
                                         pooling, so spatial dims survive

The convs run on the whole (N,H,W,C) batch at once: one GEMM per kernel
tap over an edge-padded copy of the input.

backward() propagates a dL/dlogits array (produced by a loss in
``losses``) to the flat parameter gradient. It receives the weight tensors
that the forward pass unpacked and the activations it computed, so it
neither unpacks the parameters again nor recomputes anything; combined
with the losses' 1/count scaling this yields the gradient of the mean
loss. loss_and_grad() runs one forward and one backward; loss() is the
same forward and loss without the backward, for finite-difference probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import prod

import numpy as np

from . import losses
from .seeding import rng_for

ARCHITECTURES = ("linear_softmax", "mlp", "tiny_fcn")
FCN_KERNEL = 3


@dataclass(frozen=True)
class ModelSpec:
    architecture: str
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        want = {"linear_softmax": 2, "mlp": 3, "tiny_fcn": 4}[self.architecture]
        if len(self.dims) != want:
            raise ValueError(f"{self.architecture} needs {want} dims, got {self.dims}")
        if any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")

    def shapes(self) -> list[tuple[int, ...]]:
        """Per-tensor shapes in flat-vector order (weight, bias alternating)."""
        if self.architecture == "linear_softmax":
            d, k = self.dims
            return [(k, d), (k,)]
        if self.architecture == "mlp":
            d, h, k = self.dims
            return [(h, d), (h,), (k, h), (k,)]
        cin, c1, c2, k = self.dims
        f = FCN_KERNEL
        return [(c1, cin, f, f), (c1,), (c2, c1, f, f), (c2,), (k, c2, f, f), (k,)]

    def param_count(self) -> int:
        return _layout(self)[0][-1]


@lru_cache(maxsize=None)
def _layout(spec: ModelSpec) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(offsets, shapes) of the flat vector's tensors; offsets[-1] is the total."""
    shapes = tuple(spec.shapes())
    offsets = tuple(accumulate((prod(s) for s in shapes), initial=0))
    return offsets, shapes


def unpack(spec: ModelSpec, params: np.ndarray) -> list[np.ndarray]:
    params = np.asarray(params, dtype=np.float64)
    offsets, shapes = _layout(spec)
    if params.shape != (offsets[-1],):
        raise ValueError(f"expected {offsets[-1]} parameters, got {params.shape}")
    return [params[a:b].reshape(s) for a, b, s in zip(offsets, offsets[1:], shapes)]


def pack(tensors: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([t.ravel() for t in tensors])


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Uniform [-s, s] per tensor with s = 1/sqrt(fan_in), seeded."""
    rng = rng_for(seed, "init", spec.architecture)
    tensors = []
    for shape in spec.shapes():
        if len(shape) == 1:
            fan_in = tensors[-1].shape[1] if tensors[-1].ndim == 2 else int(
                np.prod(tensors[-1].shape[1:])
            )
        elif len(shape) == 2:
            fan_in = shape[1]
        else:
            fan_in = int(np.prod(shape[1:]))
        s = 1.0 / np.sqrt(fan_in)
        tensors.append(rng.uniform(-s, s, size=shape))
    return pack(tensors)


def _check_inputs(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if spec.architecture == "tiny_fcn":
        if x.ndim != 4 or x.shape[3] != spec.dims[0]:
            raise ValueError(
                f"tiny_fcn expects (N,H,W,{spec.dims[0]}) inputs, got {x.shape}"
            )
    else:
        if x.ndim != 2 or x.shape[1] != spec.dims[0]:
            raise ValueError(
                f"{spec.architecture} expects (N,{spec.dims[0]}) inputs, got {x.shape}"
            )
    return x


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Replicate-padded 'same' conv of a batch: x (N,H,W,Cin), w (Cout,Cin,k,k),
    b (Cout,) -> (N,H,W,Cout); one GEMM per kernel tap."""
    n, h, wd, _ = x.shape
    cout, _, k, _ = w.shape
    c = k // 2
    xp = np.pad(x, ((0, 0), (c, c), (c, c), (0, 0)), mode="edge")
    out = np.broadcast_to(b, (n, h, wd, cout)).copy()
    for i in range(k):
        for j in range(k):
            out += xp[:, i : i + h, j : j + wd] @ w[:, :, i, j].T
    return out


def _conv_backward(
    x: np.ndarray, w: np.ndarray, dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of _conv_forward with respect to x, w and b, summed over N."""
    _, h, wd, cin = x.shape
    cout, _, k, _ = w.shape
    c = k // 2
    xp = np.pad(x, ((0, 0), (c, c), (c, c), (0, 0)), mode="edge")
    dxp = np.zeros_like(xp)
    dw = np.empty_like(w)
    flat = dout.reshape(-1, cout)
    for i in range(k):
        for j in range(k):
            dw[:, :, i, j] = flat.T @ xp[:, i : i + h, j : j + wd].reshape(-1, cin)
            dxp[:, i : i + h, j : j + wd] += dout @ w[:, :, i, j]
    # each pad row/column replicates a border one, so its gradient lands there
    dxp[:, c] += dxp[:, :c].sum(axis=1)
    dxp[:, c + h - 1] += dxp[:, c + h :].sum(axis=1)
    dxp[:, :, c] += dxp[:, :, :c].sum(axis=2)
    dxp[:, :, c + wd - 1] += dxp[:, :, c + wd :].sum(axis=2)
    return dxp[:, c : c + h, c : c + wd], dw, flat.sum(axis=0)


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Logits plus what backward() needs: the unpacked tensors and the activations."""
    x = _check_inputs(spec, x)
    t = unpack(spec, params)
    if spec.architecture == "linear_softmax":
        w, b = t
        return x @ w.T + b, t, (x,)
    if spec.architecture == "mlp":
        w1, b1, w2, b2 = t
        h = np.tanh(x @ w1.T + b1)
        return h @ w2.T + b2, t, (x, h)
    w1, b1, w2, b2, w3, b3 = t
    h1 = np.tanh(_conv_forward(x, w1, b1))
    h2 = np.tanh(_conv_forward(h1, w2, b2))
    return _conv_forward(h2, w3, b3), t, (x, h1, h2)


def forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batch logits: (N,K) for the vector models, (N,H,W,K) for tiny_fcn."""
    return _forward(spec, params, x)[0]


def backward(
    spec: ModelSpec, tensors: list[np.ndarray], acts: tuple, dlogits: np.ndarray
) -> np.ndarray:
    """Flat parameter gradient for a given dL/dlogits.

    ``tensors`` and ``acts`` are the unpacked weight tensors and the
    activations of the forward pass that produced the logits (the second
    and third items of ``_forward``); nothing is unpacked or recomputed.
    """
    want = acts[-1].shape[:-1] + (spec.dims[-1],)
    if dlogits.shape != want:
        raise ValueError(f"dlogits shape {dlogits.shape} != logits {want}")
    if spec.architecture == "linear_softmax":
        (x,) = acts
        return pack([dlogits.T @ x, dlogits.sum(axis=0)])
    if spec.architecture == "mlp":
        w1, b1, w2, b2 = tensors
        x, h = acts
        dw2 = dlogits.T @ h
        db2 = dlogits.sum(axis=0)
        da = (dlogits @ w2) * (1.0 - h * h)
        return pack([da.T @ x, da.sum(axis=0), dw2, db2])
    w1, b1, w2, b2, w3, b3 = tensors
    x, h1, h2 = acts
    dh2, dw3, db3 = _conv_backward(h2, w3, dlogits)
    dh1, dw2, db2 = _conv_backward(h1, w2, dh2 * (1.0 - h2 * h2))
    _, dw1, db1 = _conv_backward(x, w1, dh1 * (1.0 - h1 * h1))
    return pack([dw1, db1, dw2, db2, dw3, db3])


def _loss(spec, params, x, targets, loss_kind, mask):
    """(mean loss, dL/dlogits, tensors, activations) from one forward pass."""
    logits, tensors, acts = _forward(spec, params, x)
    if loss_kind == "soft_ce":
        return (*losses.soft_ce(logits, targets), tensors, acts)
    if loss_kind == "soft_bce":
        return (*losses.soft_bce(logits, targets), tensors, acts)
    if loss_kind == "masked_pixel_ce":
        if logits.ndim != 4:
            raise ValueError("masked_pixel_ce needs per-pixel logits (use tiny_fcn)")
        if mask is None:
            mask = np.ones(logits.shape[:-1])
        return (*losses.masked_pixel_ce(logits, targets, mask), tensors, acts)
    raise ValueError(f"unknown loss kind {loss_kind!r}")


def loss(
    spec: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    targets: np.ndarray,
    loss_kind: str,
    mask: np.ndarray | None = None,
) -> float:
    """Mean loss over the batch, as loss_and_grad computes it, without the gradient."""
    return _loss(spec, params, x, targets, loss_kind, mask)[0]


def loss_and_grad(
    spec: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    targets: np.ndarray,
    loss_kind: str,
    mask: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean loss over the batch plus its exact parameter gradient.

    loss_kind: 'soft_ce' | 'soft_bce' | 'masked_pixel_ce'; the last one
    requires tiny_fcn-shaped logits and a (N,H,W) mask (all-ones if None).
    """
    value, dlogits, tensors, acts = _loss(spec, params, x, targets, loss_kind, mask)
    return value, backward(spec, tensors, acts, dlogits)
