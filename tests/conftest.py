"""Shared reference oracles kept independent of the library code paths."""

from pathlib import Path

import numpy as np
import pytest

from pcbls import losses, models, pacing, soft_labels, trainer
from pcbls.corruption import _DCT8, _JPEG_Q, KINDS, SEVERITY_TABLE, _disk_kernel
from pcbls.numerics import gaussian_kernel2d, log_softmax, softmax
from pcbls.seeding import derive_seed, rng_for


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


def ref_conv2d_same(arr, kernel):
    """Shift-add replicate-padded cross-correlation of one 2-D map."""
    k = kernel.shape[0]
    h, w = arr.shape
    padded = np.pad(arr, k // 2, mode="edge")
    out = np.zeros_like(arr)
    for i in range(k):
        for j in range(k):
            out += kernel[i, j] * padded[i : i + h, j : j + w]
    return out


def ref_line_kernel(length, angle):
    """Motion-blur kernel splatted one sample and one tap at a time."""
    if length <= 1:
        return np.ones((1, 1))
    half = (length - 1) / 2.0
    kernel = np.zeros((length, length))
    c = length // 2
    for t in np.linspace(-half, half, 8 * length + 1):
        y = c + t * np.sin(angle)
        x = c + t * np.cos(angle)
        y0, x0 = int(np.floor(y)), int(np.floor(x))
        fy, fx = y - y0, x - x0
        for dy, wy in ((0, 1 - fy), (1, fy)):
            for dx, wx in ((0, 1 - fx), (1, fx)):
                yy, xx = y0 + dy, x0 + dx
                if 0 <= yy < length and 0 <= xx < length:
                    kernel[yy, xx] += wy * wx
    return kernel / kernel.sum()


def ref_glass_swaps(img, offsets):
    """Sequential local pixel swaps of one (H,W,C) image; offsets (iters,H,W,2)."""
    out = img.copy()
    h, w = out.shape[:2]
    for it in range(offsets.shape[0]):
        for y in range(h):
            for x in range(w):
                yy = min(max(y + int(offsets[it, y, x, 0]), 0), h - 1)
                xx = min(max(x + int(offsets[it, y, x, 1]), 0), w - 1)
                tmp = out[y, x].copy()
                out[y, x] = out[yy, xx]
                out[yy, xx] = tmp
    return out


def _ref_bilinear_resize(img, out_h, out_w):
    h, w, _ = img.shape
    if (out_h, out_w) == (h, w):
        return img.copy()
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    top = img[y0[:, None], x0[None, :]] * (1 - wx) + img[y0[:, None], x1[None, :]] * wx
    bot = img[y1[:, None], x0[None, :]] * (1 - wx) + img[y1[:, None], x1[None, :]] * wx
    return top * (1 - wy) + bot * wy


def _ref_conv_channels(img, kernel):
    out = np.empty_like(img)
    for c in range(img.shape[2]):
        out[:, :, c] = ref_conv2d_same(img[:, :, c], kernel)
    return out


def _ref_haze_field(h, w, rng):
    grid = rng.uniform(0.0, 1.0, size=(max(2, min(8, h)), max(2, min(8, w)), 1))
    field = _ref_bilinear_resize(grid, h, w)[:, :, 0]
    lo, hi = field.min(), field.max()
    if hi > lo:
        field = (field - lo) / (hi - lo)
    return field


def _ref_block_reduce_mean(img, factor):
    h, w, c = img.shape
    edges_y = np.arange(0, h, factor)
    edges_x = np.arange(0, w, factor)
    sums = np.add.reduceat(np.add.reduceat(img, edges_y, axis=0), edges_x, axis=1)
    ny = np.diff(np.append(edges_y, h))
    nx = np.diff(np.append(edges_x, w))
    return sums / (ny[:, None, None] * nx[None, :, None])


def _ref_jpeg_like(img, scale):
    h, w, c = img.shape
    ph = (8 - h % 8) % 8
    pw = (8 - w % 8) % 8
    padded = np.pad(img, ((0, ph), (0, pw), (0, 0)), mode="edge")
    hh, ww, _ = padded.shape
    blocks = padded.reshape(hh // 8, 8, ww // 8, 8, c).transpose(0, 2, 4, 1, 3)
    coef = _DCT8 @ blocks @ _DCT8.T
    if scale > 0:
        step = scale * _JPEG_Q / 255.0
        coef = np.round(coef / step) * step
    rec = _DCT8.T @ coef @ _DCT8
    out = rec.transpose(0, 3, 1, 4, 2).reshape(hh, ww, c)
    return out[:h, :w]


def ref_corrupt_with_params(image, kind, params, rng):
    """One (H,W) or (H,W,C) image at a time: the per-image corruption that
    batches must match."""
    img = np.asarray(image, dtype=np.float64)
    squeeze = img.ndim == 2
    if squeeze:
        img = img[:, :, None]
    if np.any(img < -1e-9) or np.any(img > 1 + 1e-9):
        raise ValueError("image values must lie in [0, 1]")
    h, w, c = img.shape
    if kind == "gaussian_noise":
        out = img + rng.normal(0.0, 1.0, size=img.shape) * params
    elif kind == "shot_noise":
        out = img + rng.normal(0.0, 1.0, size=img.shape) * np.sqrt(img / params)
    elif kind == "impulse_noise":
        out = img.copy()
        n_hit = int(round(params * h * w))
        if n_hit > 0:
            flat = rng.choice(h * w, size=n_hit, replace=False)
            values = rng.integers(0, 2, size=n_hit).astype(np.float64)
            out.reshape(-1, c)[flat] = values[:, None]
    elif kind == "defocus_blur":
        out = _ref_conv_channels(img, _disk_kernel(int(params)))
    elif kind == "glass_blur":
        max_shift, rounds = params
        if rounds <= 0 or max_shift <= 0:
            out = img.copy()
        else:
            offsets = rng.integers(-max_shift, max_shift + 1, size=(rounds, h, w, 2))
            out = ref_glass_swaps(img, offsets.astype(np.int64))
    elif kind == "motion_blur":
        angle = rng.uniform(0.0, np.pi)
        out = _ref_conv_channels(img, ref_line_kernel(int(params), angle))
    elif kind == "zoom_blur":
        steps, max_zoom = params
        acc = np.zeros_like(img)
        for f in np.linspace(1.0, max_zoom, int(steps)):
            ch = max(1, int(round(h / f)))
            cw = max(1, int(round(w / f)))
            top = (h - ch) // 2
            left = (w - cw) // 2
            acc += _ref_bilinear_resize(img[top : top + ch, left : left + cw], h, w)
        out = acc / int(steps)
    elif kind == "fog":
        haze = _ref_haze_field(h, w, rng)[:, :, None]
        out = (1.0 - params) * img + params * haze
    elif kind == "brightness":
        out = img + params
    elif kind == "contrast":
        mean = img.mean()
        out = mean + (img - mean) * params
    elif kind == "pixelate":
        factor = int(params)
        if factor <= 1:
            out = img.copy()
        else:
            small = _ref_block_reduce_mean(img, factor)
            out = np.repeat(np.repeat(small, factor, axis=0), factor, axis=1)[:h, :w]
    elif kind == "jpeg_like":
        out = _ref_jpeg_like(img, params)
    else:
        raise ValueError(f"unknown corruption kind {kind!r}")
    out = np.clip(out, 0.0, 1.0)
    return out[:, :, 0] if squeeze else out


def ref_corrupt_dataset(images, kinds, severities, base_seed, out_dir, image_ids=None):
    """Per-image corrupt-and-write loop with plain file writes; returns the
    manifest rows that ``corrupt_dataset`` must return."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids = list(range(len(images))) if image_ids is None else list(image_ids)
    rows = []
    for kind in kinds:
        for severity in severities:
            for img_id, img in zip(ids, images):
                rel = f"{kind}_s{severity}_{img_id:06d}.{'ppm' if np.ndim(img) == 3 else 'pgm'}"
                seed = derive_seed(base_seed, "corrupt", KINDS.index(kind), severity, img_id)
                params = SEVERITY_TABLE[kind][severity - 1]
                out = ref_corrupt_with_params(img, kind, params, np.random.default_rng(seed))
                magic = "P6" if out.ndim == 3 else "P5"
                header = f"{magic}\n{out.shape[1]} {out.shape[0]}\n255\n".encode()
                (out_dir / rel).write_bytes(header + np.clip(np.rint(out * 255.0), 0, 255).astype(np.uint8).tobytes())
                rows.append((img_id, kind, severity, rel))
    lines = ["orig_id,kind,severity,path"] + [",".join(str(v) for v in r) for r in rows]
    (out_dir / "manifest.csv").write_text("\n".join(lines) + "\n")
    return rows


def _ref_one_hot_maps(labels, num_classes):
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"label map must be 2-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label map entry out of range")
    out = np.zeros(labels.shape + (num_classes,))
    h, w = labels.shape
    out[np.arange(h)[:, None], np.arange(w)[None, :], labels] = 1.0
    return out


def ref_svls_by_class(labels, num_classes, sigma, k=3):
    """SVLS of one (H,W) map, one ``conv2d_same`` per class map."""
    kernel = gaussian_kernel2d(k, sigma)
    maps = _ref_one_hot_maps(labels, num_classes)
    out = np.empty_like(maps)
    for c in range(num_classes):
        out[:, :, c] = ref_conv2d_same(maps[:, :, c], kernel)
    return out


def ref_uls_svls_by_class(labels, num_classes, epsilon, sigma, k=3):
    """Uniform smoothing, then SVLS, of one (H,W) map, one class map at a time."""
    if not (0.0 <= epsilon < 1.0):
        raise ValueError(f"smoothing factor must lie in [0, 1), got {epsilon}")
    kernel = gaussian_kernel2d(k, sigma)
    maps = _ref_one_hot_maps(labels, num_classes)
    maps = maps * (1.0 - epsilon) + epsilon / num_classes
    out = np.empty_like(maps)
    for c in range(num_classes):
        out[:, :, c] = ref_conv2d_same(maps[:, :, c], kernel)
    return out


def ref_segmentation_targets(labels, num_classes, epsilon=0.0, sigma=None, k=3):
    """Soft targets of one (H,W) label map under any smoothing combination."""
    if sigma is not None and sigma > 0.0:
        if epsilon > 0.0:
            return ref_uls_svls_by_class(labels, num_classes, epsilon, sigma, k)
        return ref_svls_by_class(labels, num_classes, sigma, k)
    maps = _ref_one_hot_maps(labels, num_classes)
    if epsilon > 0.0:
        maps = maps * (1.0 - epsilon) + epsilon / num_classes
    return maps


def ref_pixel_masks(pixel_bank, plan, epoch, epochs):
    """Per-epoch masks from a fresh sort of every pixel of a list of maps."""
    total = sum(m.size for m in pixel_bank)
    count = pacing.active_count(plan, epoch, epochs, total)
    flat = np.concatenate([m.ravel().astype(np.float64) for m in pixel_bank])
    keep = np.zeros(total, dtype=bool)
    keep[np.argsort(-flat, kind="stable")[:count]] = True
    masks = []
    pos = 0
    for m in pixel_bank:
        masks.append(keep[pos : pos + m.size].reshape(m.shape))
        pos += m.size
    return masks


def ref_bank_segmentation(probmaps, labelmaps, background=0, source="plain"):
    """A segmentation sample bank frame by frame: each frame's mean
    true-class probability over its foreground pixels (0 with none), from
    its own (H,W,K) probability map, then a stable sort by falling score."""
    if len(probmaps) != len(labelmaps):
        raise ValueError("probmaps and labelmaps length mismatch")
    scores = np.zeros(len(probmaps))
    for i, (pm, lm) in enumerate(zip(probmaps, labelmaps)):
        pm = np.asarray(pm, dtype=np.float64)
        lm = np.asarray(lm)
        if pm.shape[:2] != lm.shape:
            raise ValueError(f"frame {i}: prob map {pm.shape} vs label map {lm.shape}")
        fg = lm != background
        if not fg.any():
            continue
        true_prob = np.take_along_axis(pm, lm[:, :, None], axis=2)[:, :, 0]
        scores[i] = true_prob[fg].mean()
    order = np.argsort(-scores, kind="stable")
    return pacing.SampleBank(sample_ids=np.arange(len(scores))[order], scores=scores[order], source=source)


def ref_iou_dice(predicted_maps, gt_maps, num_classes, background=0):
    """Per-frame, per-class intersection and totals, then the IoU/Dice means."""
    if len(predicted_maps) != len(gt_maps):
        raise ValueError("prediction and ground-truth counts differ")
    inter = np.zeros(num_classes, dtype=np.int64)
    pred_tot = np.zeros(num_classes, dtype=np.int64)
    gt_tot = np.zeros(num_classes, dtype=np.int64)
    for pm, gm in zip(predicted_maps, gt_maps):
        pm = np.asarray(pm)
        gm = np.asarray(gm)
        if pm.shape != gm.shape:
            raise ValueError(f"shape mismatch: {pm.shape} vs {gm.shape}")
        for c in range(num_classes):
            p = pm == c
            g = gm == c
            inter[c] += int((p & g).sum())
            pred_tot[c] += int(p.sum())
            gt_tot[c] += int(g.sum())
    per_class = {}
    dices = []
    for c in range(num_classes):
        if c == background:
            continue
        union = pred_tot[c] + gt_tot[c] - inter[c]
        if pred_tot[c] + gt_tot[c] == 0:
            continue
        per_class[c] = float(inter[c] / union)
        dices.append(2.0 * inter[c] / (pred_tot[c] + gt_tot[c]))
    if not per_class:
        raise ValueError("no foreground class present in predictions or ground truth")
    return per_class, float(np.mean(list(per_class.values()))), float(np.mean(dices))


def _ref_batch_targets(cfg, targets, k, eps, sigma):
    """Soft targets of one batch, built frame by frame from that batch's hard targets."""
    if cfg.task == "multiclass":
        return soft_labels.uls_matrix(targets, k, eps)
    if cfg.task == "multilabel":
        return soft_labels.smooth_binary(targets, eps)
    return np.stack([ref_segmentation_targets(t, k, epsilon=eps, sigma=sigma, k=cfg.svls_kernel) for t in targets])


def _ref_loss(task, logits, targets, mask):
    """(loss, dlogits) with softmax and log_softmax each taking their own exp."""
    if task == "multilabel":
        return losses._soft_bce(logits, targets)
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


def task_loss(task, logits, targets, mask=None):
    """(mean loss, dL/dlogits) of ``task``'s loss in the trainer's task
    table, after the task's check of its inputs."""
    entry = trainer.TASKS[task]
    logits = np.asarray(logits, dtype=np.float64)
    targets, mask = entry.check(logits.shape, targets, mask)
    return entry.loss(logits, targets, mask)


def checked_batch(spec, x, targets, task, mask=None):
    """(x, targets, mask) of one batch after the trainer's checks:
    ``models.check_inputs``, then ``task``'s check for the model's logits."""
    x = models.check_inputs(spec, x)
    return (x, *trainer.TASKS[task].check(x.shape[:-1] + (spec.dims[-1],), targets, mask))


def checked_step(spec, params, x, targets, task, mask=None):
    """(mean loss, flat gradient) of the trainer's step on one batch:
    ``checked_batch``, then ``models.loss_and_grad_into`` with ``task``'s
    loss, into a new gradient."""
    x, targets, mask = checked_batch(spec, x, targets, task, mask)
    grad = np.empty(spec.param_count())
    tensors, grads = models.unpack(spec, params), models.unpack(spec, grad)
    return models.loss_and_grad_into(spec, tensors, grads, x, targets, trainer.TASKS[task].loss, mask), grad


def _ref_pad(x, c):
    return np.pad(x, ((0, 0), (c, c), (c, c), (0, 0)), mode="edge")


def ref_batched_conv_forward(x, w, b):
    """Batched replicate-padded conv that pads its own input: one GEMM per tap."""
    n, h, wd, _ = x.shape
    cout, _, k, _ = w.shape
    xp = _ref_pad(x, k // 2)
    out = np.broadcast_to(b, (n, h, wd, cout)).copy()
    for i in range(k):
        for j in range(k):
            out += xp[:, i : i + h, j : j + wd] @ w[:, :, i, j].T
    return out


def ref_batched_conv_backward(x, w, dout):
    """(dx, dw, db) of ref_batched_conv_forward, re-padding x and allocating every gradient."""
    _, h, wd, cin = x.shape
    cout, _, k, _ = w.shape
    c = k // 2
    xp = _ref_pad(x, c)
    dxp = np.zeros_like(xp)
    dw = np.empty_like(w)
    flat = dout.reshape(-1, cout)
    for i in range(k):
        for j in range(k):
            dw[:, :, i, j] = flat.T @ xp[:, i : i + h, j : j + wd].reshape(-1, cin)
            dxp[:, i : i + h, j : j + wd] += dout @ w[:, :, i, j]
    dxp[:, c] += dxp[:, :c].sum(axis=1)
    dxp[:, c + h - 1] += dxp[:, c + h :].sum(axis=1)
    dxp[:, :, c] += dxp[:, :, :c].sum(axis=2)
    dxp[:, :, c + wd - 1] += dxp[:, :, c + wd :].sum(axis=2)
    return dxp[:, c : c + h, c : c + wd], dw, flat.sum(axis=0)


def ref_forward(spec, params, x):
    """(logits, tensors, plain activations), each conv padding its own input."""
    t = models.unpack(spec, params)
    x = np.asarray(x, dtype=np.float64)
    if spec.architecture == "linear_softmax":
        w, b = t
        return x @ w.T + b, t, (x,)
    if spec.architecture == "mlp":
        w1, b1, w2, b2 = t
        h = np.tanh(x @ w1.T + b1)
        return h @ w2.T + b2, t, (x, h)
    w1, b1, w2, b2, w3, b3 = t
    h1 = np.tanh(ref_batched_conv_forward(x, w1, b1))
    h2 = np.tanh(ref_batched_conv_forward(h1, w2, b2))
    return ref_batched_conv_forward(h2, w3, b3), t, (x, h1, h2)


def ref_backward(spec, tensors, acts, dlogits):
    """Flat gradient for ref_forward's activations: every tensor gradient
    allocated, then concatenated."""
    if spec.architecture == "linear_softmax":
        (x,) = acts
        return np.concatenate([(dlogits.T @ x).ravel(), dlogits.sum(axis=0)])
    if spec.architecture == "mlp":
        _, _, w2, _ = tensors
        x, h = acts
        da = (dlogits @ w2) * (1.0 - h * h)
        parts = [da.T @ x, da.sum(axis=0), dlogits.T @ h, dlogits.sum(axis=0)]
        return np.concatenate([p.ravel() for p in parts])
    w1, _, w2, _, w3, _ = tensors
    x, h1, h2 = acts
    dh2, dw3, db3 = ref_batched_conv_backward(h2, w3, dlogits)
    dh1, dw2, db2 = ref_batched_conv_backward(h1, w2, dh2 * (1.0 - h2 * h2))
    _, dw1, db1 = ref_batched_conv_backward(x, w1, dh1 * (1.0 - h1 * h1))
    return np.concatenate([p.ravel() for p in (dw1, db1, dw2, db2, dw3, db3)])


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


def ref_train(cfg, inputs, targets, num_classes, bank=None):
    """Reference curriculum loop: soft targets rebuilt for every batch, frame
    by frame, the active sample ids re-sorted and the pixel masks re-sorted
    every epoch. ``bank`` is a SampleBank or an (N,H,W) pixel bank, as for
    ``trainer.train``.

    Returns (final params, train loss per epoch), the quantities
    ``trainer.train`` must match bit for bit.
    """
    n = len(inputs)
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets)
    params = models.init_params(cfg.model, cfg.seed)
    opt = RefOptimizer(cfg, params.size)

    def loss_and_grad(p, x, soft, mask):
        logits, tensors, acts = ref_forward(cfg.model, p, x)
        loss, dlogits = _ref_loss(cfg.task, logits, soft, mask)
        return loss, ref_backward(cfg.model, tensors, acts, dlogits)

    train_losses = []
    for epoch in range(cfg.epochs):
        eps = cfg.uls_schedule.value_at(epoch) if cfg.uls_schedule else 0.0
        sigma = cfg.svls_schedule.value_at(epoch) if cfg.svls_schedule else None
        lr = cfg.lr * (cfg.lr_decay_factor if epoch >= cfg.decay_epoch() else 1.0)
        ids = np.arange(n)
        masks = None
        if cfg.pace is not None and isinstance(bank, pacing.SampleBank):
            ids = np.sort(bank.sample_ids[: pacing.active_count(cfg.pace, epoch, cfg.epochs, n)])
        elif cfg.pace is not None:
            masks = np.stack(ref_pixel_masks(list(bank), cfg.pace, epoch, cfg.epochs)).astype(np.float64)
        shuffled = ids[rng_for(cfg.seed, "shuffle", epoch).permutation(len(ids))]
        total, seen = 0.0, 0
        for start in range(0, len(shuffled), cfg.batch_size):
            batch = shuffled[start : start + cfg.batch_size]
            x = inputs[batch]
            soft = _ref_batch_targets(cfg, targets[batch], num_classes, eps, sigma)
            mask = masks[batch] if masks is not None else None
            loss, grad = loss_and_grad(params, x, soft, mask)
            params = opt.step(params, grad, lr)
            total += loss * len(batch)
            seen += len(batch)
        train_losses.append(total / seen)
    return params, train_losses


def record_epoch_ids(monkeypatch, inputs):
    """Patch the training step and the per-epoch validation so that a
    ``trainer.train`` run on ``inputs`` records which samples each epoch's
    steps saw.

    Each row of a step's batch is mapped back to its sample id by its bytes
    (so the rows of ``inputs`` must differ); the validation at the end of an
    epoch closes that epoch's list. Returns the list of per-epoch id lists,
    filled as the run goes.
    """
    rows = np.asarray(inputs, dtype=np.float64)
    ids = {row.tobytes(): i for i, row in enumerate(rows)}
    assert len(ids) == len(rows), "sample rows must differ"
    epochs, seen = [], []
    step, evaluate = models.loss_and_grad_into, trainer.evaluate

    def recording_step(spec, tensors, grads, x, *args):
        seen.extend(ids[row.tobytes()] for row in x)
        return step(spec, tensors, grads, x, *args)

    def closing_evaluate(*args):
        epochs.append(seen.copy())
        seen.clear()
        return evaluate(*args)

    monkeypatch.setattr(models, "loss_and_grad_into", recording_step)
    monkeypatch.setattr(trainer, "evaluate", closing_evaluate)
    return epochs


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
