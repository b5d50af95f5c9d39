"""Shared reference oracles kept independent of the library code paths."""

import numpy as np
import pytest

from pcbls import losses, models, pacing, soft_labels
from pcbls.numerics import log_softmax, softmax
from pcbls.seeding import rng_for


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


def _ref_batch_targets(cfg, targets, k, eps, sigma):
    """Soft targets of one batch, built from that batch's hard targets."""
    if cfg.task == "multiclass":
        return soft_labels.uls_matrix(targets, k, eps)
    if cfg.task == "multilabel":
        return soft_labels.smooth_binary(targets, eps)
    return np.stack(
        [soft_labels.segmentation_targets(t, k, epsilon=eps, sigma=sigma, k=cfg.svls_kernel) for t in targets]
    )


def _ref_loss(task, logits, targets, mask):
    """(loss, dlogits) with softmax and log_softmax each taking their own exp."""
    if task == "multilabel":
        return losses.soft_bce(logits, targets)
    if task == "multiclass":
        n = max(1, int(np.prod(logits.shape[:-1])))
        loss = float(-(targets * log_softmax(logits, axis=-1)).sum() / n)
        return loss, (softmax(logits, axis=-1) - targets) / n
    if mask is None:
        mask = np.ones(logits.shape[:-1])
    count = mask.sum()
    if count == 0:
        return 0.0, np.zeros_like(logits)
    per_pixel = -(targets * log_softmax(logits, axis=-1)).sum(axis=-1)
    loss = float((per_pixel * mask).sum() / count)
    return loss, (softmax(logits, axis=-1) - targets) * mask[..., None] / count


class RefOptimizer:
    """SGD with momentum or Adam, building new state arrays on every step."""

    def __init__(self, cfg, n_params):
        self.cfg = cfg
        self.velocity = np.zeros(n_params)
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, params, grad, lr):
        if self.cfg.optimizer == "sgd":
            update = grad + self.cfg.weight_decay * params
            self.velocity = self.cfg.momentum * self.velocity + update
            return params - lr * self.velocity
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.m = b1 * self.m + (1 - b1) * grad
        self.v = b2 * self.v + (1 - b2) * grad * grad
        mh = self.m / (1 - b1**self.t)
        vh = self.v / (1 - b2**self.t)
        return params - lr * mh / (np.sqrt(vh) + eps)


def ref_train(cfg, inputs, targets, num_classes, bank=None, pixel_bank=None, instrument_epochs=frozenset()):
    """Reference curriculum loop: soft targets rebuilt for every batch.

    Returns (final params, train loss per epoch, gradient contributions of
    the instrumented epochs), the quantities ``trainer.train`` must match
    bit for bit.
    """
    n = len(inputs)
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets)
    params = models.init_params(cfg.model, cfg.seed)
    opt = RefOptimizer(cfg, params.size)

    def loss_and_grad(p, x, soft, mask):
        logits, tensors, acts = models._forward(cfg.model, p, x)
        loss, dlogits = _ref_loss(cfg.task, logits, soft, mask)
        return loss, models.backward(cfg.model, tensors, acts, dlogits)

    train_losses, contributions = [], {}
    for epoch in range(cfg.epochs):
        eps = cfg.uls_schedule.value_at(epoch) if cfg.uls_schedule else 0.0
        sigma = cfg.svls_schedule.value_at(epoch) if cfg.svls_schedule else None
        lr = cfg.lr * (cfg.lr_decay_factor if epoch >= cfg.decay_epoch() else 1.0)
        ids = np.arange(n)
        if cfg.pace is not None and cfg.granularity == "sample":
            ids = np.sort(pacing.active_set(bank, cfg.pace, epoch))
        masks = None
        if cfg.pace is not None and cfg.granularity == "pixel":
            masks = np.stack(pacing.pixel_mask_at(pixel_bank, cfg.pace, epoch)).astype(np.float64)
        shuffled = ids[rng_for(cfg.seed, "shuffle", epoch).permutation(len(ids))]
        if epoch in instrument_epochs:
            contributions[epoch] = np.zeros(n)
        total, seen = 0.0, 0
        for start in range(0, len(shuffled), cfg.batch_size):
            batch = shuffled[start : start + cfg.batch_size]
            x = inputs[batch]
            soft = _ref_batch_targets(cfg, targets[batch], num_classes, eps, sigma)
            mask = masks[batch] if masks is not None else None
            loss, grad = loss_and_grad(params, x, soft, mask)
            if epoch in instrument_epochs:
                for j, sid in enumerate(batch):
                    m = mask[j : j + 1] if mask is not None else None
                    _, g = loss_and_grad(params, x[j : j + 1], soft[j : j + 1], m)
                    contributions[epoch][sid] += float(np.linalg.norm(g))
            params = opt.step(params, grad, lr)
            total += loss * len(batch)
            seen += len(batch)
        train_losses.append(total / seen)
    return params, train_losses, contributions


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
