"""Small differentiable predictors with hand-derived gradients.

Three architectures over a flat float64 parameter vector:

  linear_softmax  dims (D, K)            logits = x W^T + b
  mlp             dims (D, H, K)         one tanh hidden layer
  tiny_fcn        dims (Cin, c1, c2, K)  three 3x3 convs (replicate padding,
                                         tanh between, linear last), no
                                         pooling, so spatial dims survive

The convs run on the whole (N,H,W,C) batch at once, over contiguous tap
matrices ((k,k,Cin,Cout) for the forward, (k,k,Cout,Cin) for the input
gradient), because a strided w[:, :, i, j] keeps NumPy off its BLAS path
and costs about 3x per tap on 16x16 maps. The forward runs one GEMM per
kernel tap over an edge-padded input, and keeps each conv's padded input
(x, h1, h2, each padded as np.pad(mode="edge") would, by copying borders)
in place of the plain activation, so the backward reads the same buffers
and never pads. The backward has two layouts:

  weight gradient  the k*k tap windows of the padded input are copied once
                   into one (k,k,N*H*W,Cin) stack, and one batched matmul
                   of the (Cout,N*H*W) gradient with it writes all k*k
                   (Cout,Cin) tap blocks of dw
  input gradient   a correlation of the gradient zero-padded by k-1: on the
                   flat rows of that padded grid each tap is one 2-D GEMM
                   on a contiguous block shifted by whole rows and columns,
                   added tap by tap in (i, j) order into one contiguous
                   buffer; the pad rows and columns then fold onto the
                   borders they replicate

Each tap's dot products and the order of the sums over taps are those of
per-tap loops; only the GEMM shapes that BLAS sees change.

Bit domain: on maps of at least two rows and two columns, with at most 15
channels per conv, at least two input channels on each conv whose input
gradient is taken, and at most 7 classes, a training step is byte-equal
to the strided per-tap products and the class-axis reductions of the
oracles in tests/conftest.py. On single-row or single-column maps, at 16
or more channels, and in the input gradient of a conv with one input
channel, BLAS takes another kernel; at 8 or more classes the pixel loss
sums in another order (see ``losses``). The last bits may then differ,
within 1e-15 of the largest magnitude. A run replays bit for bit from its
seed either way.

backward() propagates a dL/dlogits array (produced by a loss in
``losses``) to the parameter gradient, writing every weight and bias
gradient straight into the tensor views of a flat gradient buffer. It
receives the weight tensors and the activations of the forward pass, so it
neither unpacks the parameters again nor recomputes anything; combined
with the losses' 1/count scaling this yields the gradient of the mean
loss. The input gradient of the first layer is never computed.

loss_and_grad() is the checked entry point: check_batch(), then one
forward, loss and backward. A trainer that owns persistent parameter and
gradient views and has checked a whole epoch's arrays calls the unchecked
step loss_and_grad_into() on each batch; loss_and_grad() is that same step
on a new gradient. loss() is the same forward and loss without the
backward, for finite-difference probes.

The vector models call BLAS and the ufunc reductions directly: every
2-D GEMM is ndarray.dot, which calls the same cblas_dgemm as matmul
(equal bytes) without the dispatch of matmul or of np.dot's
__array_function__ check, and the bias gradients are np.add.reduce(...,
axis=0, out=) into the gradient views, which skips the Python wrapper
behind ndarray.sum. At a 32-sample batch a step is a few dozen calls of
1-4 us each, so dispatch, not arithmetic, sets its time. Biases stay
separate adds and the bias gradients stay reductions: folding either into
a GEMM (or a GEMV) would change the bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import prod

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import losses
from .seeding import rng_for

# each architecture's count of dims (its layer widths), in checkpoint tag order
ARCH_NDIMS = {"linear_softmax": 2, "mlp": 3, "tiny_fcn": 4}
ARCHITECTURES = tuple(ARCH_NDIMS)
FCN_KERNEL = 3
_PAD = FCN_KERNEL // 2  # edge rows and columns padded onto each side of a conv's input


@dataclass(frozen=True)
class ModelSpec:
    architecture: str
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        want = ARCH_NDIMS[self.architecture]
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


def check_batch(
    spec: ModelSpec,
    x: np.ndarray,
    targets: np.ndarray,
    loss_kind: str,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(x, targets, mask) as float64 arrays after every check loss_and_grad makes.

    A masked_pixel_ce batch without a mask gets the all-ones mask. Each
    check holds sample by sample, so checking a whole epoch's stacked
    arrays once covers every batch sliced from them.
    """
    x = _check_inputs(spec, x)
    if loss_kind == "masked_pixel_ce":
        if spec.architecture != "tiny_fcn":
            raise ValueError("masked_pixel_ce needs per-pixel logits (use tiny_fcn)")
        if mask is None:
            mask = np.ones(x.shape[:-1])
    targets, mask = losses.check(loss_kind, x.shape[:-1] + (spec.dims[-1],), targets, mask)
    return x, targets, mask


def _conv_forward(xp: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """'Same' conv of an edge-padded batch: xp (N,H+k-1,W+k-1,Cin), w
    (Cout,Cin,k,k), b (Cout,) -> (N,H,W,Cout); one GEMM per kernel tap on
    the contiguous (Cin,Cout) tap matrices."""
    cout, _, k, _ = w.shape
    n, h, wd = xp.shape[0], xp.shape[1] - k + 1, xp.shape[2] - k + 1
    taps = np.ascontiguousarray(w.transpose(2, 3, 1, 0))
    out = np.broadcast_to(b, (n, h, wd, cout)).copy()
    for i in range(k):
        for j in range(k):
            out += xp[:, i : i + h, j : j + wd] @ taps[i, j]
    return out


def _fill_border(p: np.ndarray, c: int) -> np.ndarray:
    """Copy into each of the c border rows and columns of the padded maps p
    (N,H+2c,W+2c,C) the edge of the interior it pads, as np.pad(mode="edge")
    would, and return p."""
    h, w = p.shape[1] - 2 * c, p.shape[2] - 2 * c
    p[:, :c, c : c + w] = p[:, c : c + 1, c : c + w]
    p[:, c + h :, c : c + w] = p[:, c + h - 1 : c + h, c : c + w]
    p[:, :, :c] = p[:, :, c : c + 1]
    p[:, :, c + w :] = p[:, :, c + w - 1 : c + w]
    return p


def _edge_padded(x: np.ndarray, c: int) -> np.ndarray:
    """np.pad(x, c, mode="edge") over the map axes of (N,H,W,C)."""
    n, h, w, ch = x.shape
    p = np.empty((n, h + 2 * c, w + 2 * c, ch))
    p[:, c : c + h, c : c + w] = x
    return _fill_border(p, c)


def _tanh_padded(a: np.ndarray, c: int) -> np.ndarray:
    """np.pad(np.tanh(a), c, mode="edge") over the map axes of (N,H,W,C):
    tanh goes straight into the interior, then the border copies its edge."""
    n, h, w, ch = a.shape
    p = np.empty((n, h + 2 * c, w + 2 * c, ch))
    np.tanh(a, out=p[:, c : c + h, c : c + w])
    return _fill_border(p, c)


def _conv_weight_grad(xp: np.ndarray, dout: np.ndarray, dw: np.ndarray, db: np.ndarray) -> None:
    """Write the weight and bias gradients of _conv_forward(xp, w, b),
    summed over N, into dw and db: the k*k tap windows of xp are copied
    once into one contiguous (k,k,N*H*W,Cin) stack, and one batched GEMM
    against the flat (N*H*W,Cout) gradient gives every tap's (Cout,Cin)
    block."""
    n, h, wd, cout = dout.shape
    _, cin, k, _ = dw.shape
    s0, s1, s2, s3 = xp.strides
    windows = as_strided(xp, (k, k, n, h, wd, cin), (s1, s2, s0, s1, s2, s3), writeable=False)
    patches = np.ascontiguousarray(windows).reshape(k, k, n * h * wd, cin)
    flat = dout.reshape(-1, cout)
    np.matmul(flat.T, patches, out=dw.transpose(2, 3, 0, 1))
    np.add.reduce(flat, axis=0, out=db)


def _conv_input_grad(w: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Gradient of _conv_forward with respect to the unpadded input.

    The gradient of the padded input is a correlation of dout, zero-padded
    by k-1 on each side, with the flipped taps. On the flat rows of that
    zero-padded grid, tap (i, j) reads a contiguous block shifted by
    (k-1-i) rows and (k-1-j) columns, so each tap is one 2-D GEMM on the
    contiguous (Cout,Cin) tap matrix, added in (i, j) order into one
    contiguous buffer. The last k-1 rows and columns of each map in that
    buffer lie outside the padded input and are never read.
    """
    n, h, wd, cout = dout.shape
    _, cin, k, _ = w.shape
    c, p = k // 2, k - 1
    hp, wp = h + 2 * p, wd + 2 * p
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    padded = np.zeros((n, hp, wp, cout))
    padded[:, p : p + h, p : p + wd] = dout
    flat = padded.reshape(-1, cout)
    rows = len(flat) - (p * wp + p)  # the largest shift still reads inside flat
    grid = np.zeros((n * hp * wp, cin))
    acc, product = grid[:rows], np.empty((rows, cin))
    for i in range(k):
        for j in range(k):
            shift = (p - i) * wp + (p - j)
            np.matmul(flat[shift : shift + rows], taps[i, j], out=product)
            acc += product
    dxp = grid.reshape(n, hp, wp, cin)[:, : h + 2 * c, : wd + 2 * c]
    # each pad row/column replicates a border one, so its gradient lands there
    dxp[:, c] += dxp[:, :c].sum(axis=1)
    dxp[:, c + h - 1] += dxp[:, c + h :].sum(axis=1)
    dxp[:, :, c] += dxp[:, :, :c].sum(axis=2)
    dxp[:, :, c + wd - 1] += dxp[:, :, c + wd :].sum(axis=2)
    return dxp[:, c : c + h, c : c + wd]


def _logits(spec: ModelSpec, tensors: list[np.ndarray], x: np.ndarray):
    """Logits of a checked batch plus the activations backward() needs.

    tiny_fcn keeps each conv's edge-padded input (the padded x, h1 and h2)
    in place of the plain activations, so the backward never re-pads.
    """
    if spec.architecture == "linear_softmax":
        w, b = tensors
        logits = x.dot(w.T)
        logits += b
        return logits, (x,)
    if spec.architecture == "mlp":
        w1, b1, w2, b2 = tensors
        h = x.dot(w1.T)
        h += b1
        np.tanh(h, out=h)
        logits = h.dot(w2.T)
        logits += b2
        return logits, (x, h)
    w1, b1, w2, b2, w3, b3 = tensors
    xp = _edge_padded(x, _PAD)
    h1p = _tanh_padded(_conv_forward(xp, w1, b1), _PAD)
    h2p = _tanh_padded(_conv_forward(h1p, w2, b2), _PAD)
    return _conv_forward(h2p, w3, b3), (xp, h1p, h2p)


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Logits plus what backward() needs: the unpacked tensors and the activations."""
    x = _check_inputs(spec, x)
    tensors = unpack(spec, params)
    logits, acts = _logits(spec, tensors, x)
    return logits, tensors, acts


def forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batch logits: (N,K) for the vector models, (N,H,W,K) for tiny_fcn."""
    return _forward(spec, params, x)[0]


def backward(
    spec: ModelSpec,
    tensors: list[np.ndarray],
    acts: tuple,
    dlogits: np.ndarray,
    grads: list[np.ndarray],
) -> None:
    """Write the parameter gradient for a given dL/dlogits into ``grads``.

    ``tensors`` and ``acts`` are the unpacked weight tensors and the
    activations of the forward pass that produced the logits (the second
    and third items of ``_forward``); nothing is unpacked or recomputed.
    ``grads`` are the tensor views of a flat gradient buffer, as ``unpack``
    gives them; every element of them is overwritten.
    """
    want = acts[-1].shape[:-1] + (spec.dims[-1],)
    if spec.architecture == "tiny_fcn":  # the activations are padded maps
        want = (want[0], want[1] - 2 * _PAD, want[2] - 2 * _PAD, want[3])
    if dlogits.shape != want:
        raise ValueError(f"dlogits shape {dlogits.shape} != logits {want}")
    if spec.architecture == "linear_softmax":
        (x,) = acts
        dw, db = grads
        dlogits.T.dot(x, out=dw)
        np.add.reduce(dlogits, axis=0, out=db)
        return
    if spec.architecture == "mlp":
        w1, b1, w2, b2 = tensors
        x, h = acts
        dw1, db1, dw2, db2 = grads
        dlogits.T.dot(h, out=dw2)
        np.add.reduce(dlogits, axis=0, out=db2)
        dtanh = h * h
        np.subtract(1.0, dtanh, out=dtanh)
        da = dlogits.dot(w2)
        da *= dtanh
        da.T.dot(x, out=dw1)
        np.add.reduce(da, axis=0, out=db1)
        return
    w1, b1, w2, b2, w3, b3 = tensors
    xp, h1p, h2p = acts
    dw1, db1, dw2, db2, dw3, db3 = grads
    _, h, wd, _ = dlogits.shape
    h1 = h1p[:, _PAD : _PAD + h, _PAD : _PAD + wd]
    h2 = h2p[:, _PAD : _PAD + h, _PAD : _PAD + wd]
    # each tanh derivative 1 - h*h is built in one temporary, which then
    # takes the input gradient's product (the same bits as dx * (1 - h*h))
    _conv_weight_grad(h2p, dlogits, dw3, db3)
    da2 = h2 * h2
    np.subtract(1.0, da2, out=da2)
    da2 *= _conv_input_grad(w3, dlogits)
    _conv_weight_grad(h1p, da2, dw2, db2)
    da1 = h1 * h1
    np.subtract(1.0, da1, out=da1)
    da1 *= _conv_input_grad(w2, da2)
    # the input gradient of the first conv is never used
    _conv_weight_grad(xp, da1, dw1, db1)


def loss(
    spec: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    targets: np.ndarray,
    loss_kind: str,
    mask: np.ndarray | None = None,
) -> float:
    """Mean loss over the batch, as loss_and_grad computes it, without the gradient."""
    x, targets, mask = check_batch(spec, x, targets, loss_kind, mask)
    logits, _ = _logits(spec, unpack(spec, params), x)
    return losses._value_and_grad(loss_kind, logits, targets, mask)[0]


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
    This is check_batch followed by loss_and_grad_into on a new gradient.
    """
    x, targets, mask = check_batch(spec, x, targets, loss_kind, mask)
    grad = np.empty(spec.param_count())
    value = loss_and_grad_into(spec, unpack(spec, params), unpack(spec, grad), x, targets, loss_kind, mask)
    return value, grad


def loss_and_grad_into(
    spec: ModelSpec,
    tensors: list[np.ndarray],
    grads: list[np.ndarray],
    x: np.ndarray,
    targets: np.ndarray,
    loss_kind: str,
    mask: np.ndarray | None = None,
) -> float:
    """One training step's forward, loss and backward, checking nothing.

    ``tensors`` and ``grads`` are the tensor views of a flat parameter and
    a flat gradient buffer; every gradient element is overwritten. The
    batch must have passed check_batch (a slice of a checked stack has).
    Returns the mean loss.
    """
    logits, acts = _logits(spec, tensors, x)
    value, dlogits = losses._value_and_grad(loss_kind, logits, targets, mask)
    backward(spec, tensors, acts, dlogits, grads)
    return value
