"""Small differentiable predictors with hand-derived gradients.

Three architectures over a flat float64 parameter vector, each a stack of
affine layers, one per consecutive pair of its dims, with tanh between
them and the last layer linear:

  linear_softmax  dims (D, K)            logits = x W^T + b
  mlp             dims (D, H, K)         one tanh hidden layer
  tiny_fcn        dims (Cin, c1, c2, K)  three 3x3 convs (replicate padding),
                                         no pooling, so spatial dims survive

The vector models read each sample of an (N, ...) batch flattened to its D
values, tiny_fcn an (N,H,W,Cin) batch; ``spec_for`` derives the dims from it.

One loop runs the layers forward and, last to first, backward; the one
thing an architecture chooses is its layer kind: dense (the two vector
models) or conv (tiny_fcn). Each layer's weight has shape (out, in,
*kernel) and its bias (out,).

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

forward() runs tiny_fcn over ``numerics.frame_chunks`` of its batch (as
many whole frames as fit in 4 096 pixels, at least one) and writes each
chunk's logits into one output, so a whole-set pass (validation, banks,
eval) holds one chunk's activations at a time. Each tap is one GEMM per
map row, so every frame's logits are its own and the bytes do not depend
on the chunk. The vector models stay one call: a GEMM's last bits can
depend on its row count (on OpenBLAS 0.3.31, x86-64, chunking a.dot(w.T)
changed the bytes of 32 of 84 (rows, shape, chunk) cases, by up to
4.3e-14), and their activations are a few floats per sample.

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

A training step is loss_and_grad_into() on a batch whose inputs passed
check_inputs() and whose targets passed their task's check (a slice of an
epoch's checked stack has): one forward, the loss core that the caller
passes (a task's ``loss`` in ``trainer.TASKS``) and one backward into the
persistent gradient views the caller owns.

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
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .numerics import _fill_border, frame_chunks
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
        """Per-tensor shapes in flat-vector order: (out, in, *kernel), (out,)
        per layer."""
        kernel = _KINDS[self.architecture].kernel
        return [s for n, m in zip(self.dims, self.dims[1:]) for s in ((m, n, *kernel), (m,))]

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
        if len(shape) > 1:  # a weight; its bias, next, shares its fan-in
            s = 1.0 / np.sqrt(prod(shape[1:]))
        tensors.append(rng.uniform(-s, s, size=shape))
    return pack(tensors)


def spec_for(architecture: str, input_shape: tuple, hidden: int, channels: list[int], classes: int) -> ModelSpec:
    """The ModelSpec of ``architecture`` for a batch of ``input_shape`` and
    ``classes`` outputs; its hidden widths are ``hidden`` for mlp and the two
    ``channels`` for tiny_fcn."""
    if architecture not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {architecture!r}")
    kind = _KINDS[architecture]
    shape = kind.read(input_shape)
    if len(shape) != len(kind.axes) + 1:
        raise ValueError(f"{architecture} expects ({','.join(kind.axes)},C) inputs, got {shape}")
    widths = {"linear_softmax": (), "mlp": (hidden,), "tiny_fcn": tuple(channels)}[architecture]
    return ModelSpec(architecture, (shape[-1], *widths, classes))


def check_inputs(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    """``x`` as the float64 batch the model reads (for dense, a reshape: the
    same bytes), or a ValueError naming the layout it expects."""
    x = np.asarray(x, dtype=np.float64)
    kind = _KINDS[spec.architecture]
    x = x.reshape(kind.read(x.shape))
    if x.ndim != len(kind.axes) + 1 or x.shape[-1] != spec.dims[0]:
        raise ValueError(f"{spec.architecture} expects ({','.join(kind.axes)},{spec.dims[0]}) inputs, got {x.shape}")
    return x


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


def _dense_affine(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    z = a.dot(w.T)
    z += b
    return z


def _dense_weight_grad(a: np.ndarray, dz: np.ndarray, dw: np.ndarray, db: np.ndarray) -> None:
    dz.T.dot(a, out=dw)
    np.add.reduce(dz, axis=0, out=db)


# A layer kind: the operations of one kind of layer, where a is a layer's
# input as _logits keeps it in acts.
#   kernel       a weight's axes after (out, in)
#   axes         the input axes before the channel axis
#   read         a batch's shape -> the shape the first layer reads it as
#   first        x -> the first layer's input a
#   affine       (a, w, b) -> z
#   tanh         z -> tanh(z), as the next layer's input a
#   plain        a -> its plain (unpadded) values
#   weight_grad  (a, dz, dw, db): write the weight and bias gradients
#   input_grad   (w, dz) -> the gradient of the plain values of a
_DENSE = SimpleNamespace(
    kernel=(), axes=("N",), first=lambda x: x, affine=_dense_affine, tanh=lambda z: np.tanh(z, out=z),
    plain=lambda a: a, weight_grad=_dense_weight_grad, input_grad=lambda w, dz: dz.dot(w),
    read=lambda shape: (shape[0], prod(shape[1:])) if len(shape) > 2 else shape,  # each sample flattened
)
# conv layers keep their inputs edge-padded, so the backward never re-pads
_CONV = SimpleNamespace(
    kernel=(FCN_KERNEL, FCN_KERNEL), axes=("N", "H", "W"), first=lambda x: _edge_padded(x, _PAD),
    affine=_conv_forward, tanh=lambda z: _tanh_padded(z, _PAD), plain=lambda a: a[:, _PAD:-_PAD, _PAD:-_PAD],
    weight_grad=_conv_weight_grad, input_grad=_conv_input_grad, read=lambda shape: shape,
)
_KINDS = {"linear_softmax": _DENSE, "mlp": _DENSE, "tiny_fcn": _CONV}


def _logits(spec: ModelSpec, tensors: list[np.ndarray], x: np.ndarray):
    """Logits of a checked batch plus the activations backward() needs: each
    layer's input (x, then the tanh of each hidden layer's output).

    tiny_fcn keeps each conv's edge-padded input (the padded x, h1 and h2)
    in place of the plain activations, so the backward never re-pads.
    """
    kind = _KINDS[spec.architecture]
    a = kind.first(x)
    acts = [a]
    last = len(tensors) - 2  # the last layer's weight
    for i in range(0, last, 2):
        a = kind.tanh(kind.affine(a, tensors[i], tensors[i + 1]))
        acts.append(a)
    return kind.affine(a, tensors[last], tensors[last + 1]), tuple(acts)


def forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batch logits: (N,K) for the vector models, (N,H,W,K) for tiny_fcn.

    tiny_fcn runs over ``numerics.frame_chunks`` of the batch, each chunk's
    logits written into one output, so the activations of one chunk are
    alive at a time; a batch of one chunk is one pass. The vector models
    are one pass at any size.
    """
    x = check_inputs(spec, x)
    tensors = unpack(spec, params)
    chunks = frame_chunks(*x.shape[:3]) if spec.architecture == "tiny_fcn" else []
    if len(chunks) < 2:
        return _logits(spec, tensors, x)[0]
    out = np.empty(x.shape[:-1] + (spec.dims[-1],))
    for s in chunks:
        out[s] = _logits(spec, tensors, x[s])[0]
    return out


def backward(
    spec: ModelSpec,
    tensors: list[np.ndarray],
    acts: tuple,
    dlogits: np.ndarray,
    grads: list[np.ndarray],
) -> None:
    """Write the parameter gradient for a given dL/dlogits into ``grads``.

    ``tensors`` and ``acts`` are the unpacked weight tensors and the
    activations of the forward pass that produced the logits (``unpack``'s
    views and the second item of ``_logits``); nothing is unpacked or
    recomputed.
    ``grads`` are the tensor views of a flat gradient buffer, as ``unpack``
    gives them; every element of them is overwritten.
    """
    kind = _KINDS[spec.architecture]
    want = kind.plain(acts[-1]).shape[:-1] + (spec.dims[-1],)
    if dlogits.shape != want:
        raise ValueError(f"dlogits shape {dlogits.shape} != logits {want}")
    dz = dlogits
    for i in reversed(range(len(acts))):
        kind.weight_grad(acts[i], dz, grads[2 * i], grads[2 * i + 1])
        if i:  # the input gradient of the first layer is never used
            # the tanh derivative 1 - a*a is built in one temporary, which then
            # takes the product with the input gradient (the same bits either way)
            a = kind.plain(acts[i])
            dtanh = a * a
            np.subtract(1.0, dtanh, out=dtanh)
            dtanh *= kind.input_grad(tensors[2 * i], dz)
            dz = dtanh


def loss_and_grad_into(
    spec: ModelSpec,
    tensors: list[np.ndarray],
    grads: list[np.ndarray],
    x: np.ndarray,
    targets: np.ndarray,
    loss,
    mask: np.ndarray | None = None,
) -> float:
    """One training step's forward, loss and backward, checking nothing.

    ``tensors`` and ``grads`` are the tensor views of a flat parameter and
    a flat gradient buffer; every gradient element is overwritten. The
    batch must have passed check_inputs and its task's check.
    ``loss(logits, targets, mask)`` returns the mean loss and dL/dlogits.
    Returns the mean loss.
    """
    logits, acts = _logits(spec, tensors, x)
    value, dlogits = loss(logits, targets, mask)
    backward(spec, tensors, acts, dlogits, grads)
    return value
