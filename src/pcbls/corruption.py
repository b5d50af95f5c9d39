"""Deterministic image corruptions across 12 kinds and severity levels 1-5.

The severity parameter tables are this package's own constants, not a
published table. What holds, and is tested (test_strictly_monotone_strength),
is that each kind's parameter rows grow in strength from severity 1 to 5.
What does not hold is that one image moves further as severity rises: its
mean |corrupt - clean| can fall. On 20 uniform random 1x32 rows it fell for
7 of the 12 kinds, among them glass_blur (19 rows), pixelate (15) and
impulse_noise (9). Images are float arrays in [0,1], shape (H,W) or
(H,W,C); outputs are always clipped back to [0,1].

``corrupt_batch`` is the one implementation: it corrupts an (N,H,W,C)
stack at one (kind, severity) parameter row, with one generator per image,
and ``corrupt`` is its N=1 case. ``corrupt_dataset`` takes one (N,H,W) or
(N,H,W,3) stack and runs one batch per (kind, severity) over it, seeding
image i from (base seed, kind, severity, i), so a file's bytes do not depend
on which other images share its batch.

jpeg_like is a DCT-quantization approximation of JPEG's loss profile, not
a standards-conforming codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import glass_swaps
# save_image stays bound here: the benchmark's tracer test wraps it under this module
from .fileio import _write_files, encode_images, save_csv, save_image  # noqa: F401
from .numerics import conv2d_same
from .seeding import derive_seed, fold_seed

KINDS = (
    "gaussian_noise",
    "shot_noise",
    "impulse_noise",
    "defocus_blur",
    "glass_blur",
    "motion_blur",
    "zoom_blur",
    "fog",
    "brightness",
    "contrast",
    "pixelate",
    "jpeg_like",
)

# five parameter rows per kind, severity 1..5; each row is a stronger
# parameter than the one before, though one image's mean |corrupt - clean|
# can still fall as severity rises (see the module docstring)
SEVERITY_TABLE: dict[str, list] = {
    "gaussian_noise": [0.08, 0.12, 0.18, 0.26, 0.38],  # noise sigma
    "shot_noise": [60.0, 25.0, 12.0, 5.0, 3.0],  # photon count (lower = noisier)
    "impulse_noise": [0.03, 0.06, 0.09, 0.17, 0.27],  # hit fraction
    "defocus_blur": [1, 2, 3, 4, 6],  # disk radius
    "glass_blur": [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)],  # (max shift, rounds)
    "motion_blur": [3, 5, 7, 9, 11],  # line length
    "zoom_blur": [(4, 1.08), (5, 1.12), (6, 1.16), (7, 1.22), (8, 1.28)],  # (steps, max zoom)
    "fog": [0.15, 0.25, 0.35, 0.45, 0.55],  # haze blend weight
    "brightness": [0.1, 0.2, 0.3, 0.4, 0.5],  # additive shift
    "contrast": [0.55, 0.40, 0.30, 0.20, 0.10],  # scale about the mean (lower = flatter)
    "pixelate": [2, 3, 4, 6, 8],  # box-downsample factor
    "jpeg_like": [0.5, 1.0, 1.5, 2.5, 4.0],  # quantization-table scale
}

# standard luminance quantization steps, used as relative coefficient weights
_JPEG_Q = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_plan([self.kind], [self.severity])

    def params(self):
        return SEVERITY_TABLE[self.kind][self.severity - 1]


def _as_hwc(image: np.ndarray) -> tuple[np.ndarray, bool]:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        return image[:, :, None], True
    if image.ndim == 3:
        return image, False
    raise ValueError(f"expected (H,W) or (H,W,C) image, got shape {image.shape}")


def _bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Pixel-center-aligned bilinear resampling of (..., H, W, C) arrays."""
    h, w, _ = img.shape[-3:]
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
    y0, y1, x0, x1 = y0[:, None], y1[:, None], x0[None, :], x1[None, :]
    top = img[..., y0, x0, :] * (1 - wx) + img[..., y0, x1, :] * wx
    bot = img[..., y1, x0, :] * (1 - wx) + img[..., y1, x1, :] * wx
    return top * (1 - wy) + bot * wy


def _conv_channels(imgs: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Each channel map of (N,H,W,C) images through ``conv2d_same``; kernel
    is one (k,k) kernel, or one per image (N,k,k)."""
    maps = np.moveaxis(imgs, -1, 1)  # (N,C,H,W)
    if kernel.ndim == 3:
        kernel = kernel[:, None]
    return np.moveaxis(conv2d_same(maps, kernel), 1, -1)


def _disk_kernel(radius: int) -> np.ndarray:
    if radius <= 0:
        return np.ones((1, 1))
    d = np.arange(-radius, radius + 1)
    mask = (d[:, None] ** 2 + d[None, :] ** 2) <= radius**2
    kernel = mask.astype(np.float64)
    return kernel / kernel.sum()


def _line_kernel(length: int, angle: float) -> np.ndarray:
    """Bilinear splat of 8*length+1 samples along a centred line.

    ``np.add.at`` adds the taps unbuffered, sample by sample and in the
    (dy, dx) order (0,0), (0,1), (1,0), (1,1), so each cell sums its
    weights in a fixed order.
    """
    if length <= 1:
        return np.ones((1, 1))
    half = (length - 1) / 2.0
    c = length // 2
    t = np.linspace(-half, half, 8 * length + 1)
    y = c + t * np.sin(angle)
    x = c + t * np.cos(angle)
    y0, x0 = np.floor(y), np.floor(x)
    fy, fx = y - y0, x - x0
    yy = (y0[:, None] + np.array([0, 0, 1, 1])).astype(np.int64).ravel()
    xx = (x0[:, None] + np.array([0, 1, 0, 1])).astype(np.int64).ravel()
    wy = np.stack([1 - fy, 1 - fy, fy, fy], axis=1).ravel()
    wx = np.stack([1 - fx, fx, 1 - fx, fx], axis=1).ravel()
    inside = (yy >= 0) & (yy < length) & (xx >= 0) & (xx < length)
    kernel = np.zeros((length, length))
    np.add.at(kernel, (yy[inside], xx[inside]), (wy * wx)[inside])
    return kernel / kernel.sum()


def _haze_fields(h: int, w: int, rngs) -> np.ndarray:
    """(N,H,W) haze, each image's coarse grid drawn from its own generator
    and stretched to [0,1] unless it is flat."""
    coarse_h = max(2, min(8, h))
    coarse_w = max(2, min(8, w))
    grids = np.stack([rng.uniform(0.0, 1.0, size=(coarse_h, coarse_w, 1)) for rng in rngs])
    field = _bilinear_resize(grids, h, w)[..., 0]
    lo = field.min(axis=(1, 2), keepdims=True)
    hi = field.max(axis=(1, 2), keepdims=True)
    varies = hi > lo
    return np.where(varies, (field - lo) / np.where(varies, hi - lo, 1.0), field)


def _block_reduce_mean(img: np.ndarray, factor: int) -> np.ndarray:
    h, w, _ = img.shape[-3:]
    edges_y = np.arange(0, h, factor)
    edges_x = np.arange(0, w, factor)
    sums = np.add.reduceat(np.add.reduceat(img, edges_y, axis=-3), edges_x, axis=-2)
    ny = np.diff(np.append(edges_y, h))
    nx = np.diff(np.append(edges_x, w))
    return sums / (ny[:, None, None] * nx[None, :, None])


def _dct_matrix(n: int = 8) -> np.ndarray:
    i = np.arange(n)
    m = np.cos(np.pi * (2 * i[None, :] + 1) * i[:, None] / (2 * n)) * np.sqrt(2.0 / n)
    m[0, :] = np.sqrt(1.0 / n)
    return m


_DCT8 = _dct_matrix(8)


def _jpeg_like(imgs: np.ndarray, scale: float) -> np.ndarray:
    """Quantise the 8x8 block DCT of (N,H,W,C) images, edge-padded to whole
    blocks; every block is its own small matrix product."""
    n, h, w, c = imgs.shape
    ph = (8 - h % 8) % 8
    pw = (8 - w % 8) % 8
    padded = np.pad(imgs, ((0, 0), (0, ph), (0, pw), (0, 0)), mode="edge")
    _, hh, ww, _ = padded.shape
    blocks = padded.reshape(n, hh // 8, 8, ww // 8, 8, c).transpose(0, 1, 3, 5, 2, 4)
    coef = _DCT8 @ blocks @ _DCT8.T
    if scale > 0:
        step = scale * _JPEG_Q / 255.0
        coef = np.round(coef / step) * step
    rec = _DCT8.T @ coef @ _DCT8
    out = rec.transpose(0, 1, 4, 2, 5, 3).reshape(n, hh, ww, c)
    return out[:, :h, :w]


def corrupt_batch(imgs: np.ndarray, kind: str, params, rngs) -> np.ndarray:
    """Apply ``kind`` at explicit parameters to (N,H,W,C) images in [0,1].

    Image n draws only from ``rngs[n]``, in the order it would alone, and
    comes out as it would alone: the batch changes how often the arithmetic
    is dispatched, not its result. Returns (N,H,W,C), clipped to [0,1].
    """
    imgs = np.asarray(imgs, dtype=np.float64)
    if imgs.ndim != 4 or len(rngs) != len(imgs):
        raise ValueError(f"expected (N,H,W,C) images and N generators, got {imgs.shape} and {len(rngs)}")
    if (imgs < -1e-9).any() or (imgs > 1 + 1e-9).any():
        raise ValueError("image values must lie in [0, 1]")
    n, h, w, c = imgs.shape

    if kind in ("gaussian_noise", "shot_noise"):
        noise = np.stack([rng.normal(0.0, 1.0, size=(h, w, c)) for rng in rngs])
        scale = params if kind == "gaussian_noise" else np.sqrt(imgs / params)
        out = imgs + noise * scale
    elif kind == "impulse_noise":
        out = imgs.copy()
        n_hit = int(round(params * h * w))
        if n_hit > 0:
            hits = [(rng.choice(h * w, size=n_hit, replace=False), rng.integers(0, 2, size=n_hit)) for rng in rngs]
            flat = np.stack([f for f, _ in hits])
            values = np.stack([v for _, v in hits]).astype(np.float64)
            out.reshape(n, h * w, c)[np.arange(n)[:, None], flat] = values[..., None]
    elif kind == "defocus_blur":
        out = _conv_channels(imgs, _disk_kernel(int(params)))
    elif kind == "glass_blur":
        max_shift, rounds = params
        if rounds <= 0 or max_shift <= 0:
            out = imgs.copy()
        else:
            offsets = np.stack([rng.integers(-max_shift, max_shift + 1, size=(rounds, h, w, 2)) for rng in rngs])
            out = glass_swaps(imgs, offsets.astype(np.int64))
    elif kind == "motion_blur":
        kernels = np.stack([_line_kernel(int(params), rng.uniform(0.0, np.pi)) for rng in rngs])
        out = _conv_channels(imgs, kernels)
    elif kind == "zoom_blur":
        steps, max_zoom = params
        acc = np.zeros_like(imgs)
        for f in np.linspace(1.0, max_zoom, int(steps)):
            ch = max(1, int(round(h / f)))
            cw = max(1, int(round(w / f)))
            top = (h - ch) // 2
            left = (w - cw) // 2
            acc += _bilinear_resize(imgs[:, top : top + ch, left : left + cw], h, w)
        out = acc / int(steps)
    elif kind == "fog":
        haze = _haze_fields(h, w, rngs)[..., None]
        out = (1.0 - params) * imgs + params * haze
    elif kind == "brightness":
        out = imgs + params
    elif kind == "contrast":
        # the flat mean a lone image gets; numpy does not promise that a
        # mean over axes (1, 2, 3) sums in the same order
        mean = np.array([img.mean() for img in imgs])[:, None, None, None]
        out = mean + (imgs - mean) * params
    elif kind == "pixelate":
        factor = int(params)
        if factor <= 1:
            out = imgs.copy()
        else:
            small = _block_reduce_mean(imgs, factor)
            out = np.repeat(np.repeat(small, factor, axis=1), factor, axis=2)[:, :h, :w]
    elif kind == "jpeg_like":
        out = _jpeg_like(imgs, params)
    else:
        raise ValueError(f"unknown corruption kind {kind!r}")

    return np.clip(out, 0.0, 1.0)


def corrupt(image: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """Deterministic corruption of one (H,W) or (H,W,C) image: a pure
    function of (image, spec)."""
    img, squeeze = _as_hwc(image)
    out = corrupt_batch(img[None], spec.kind, spec.params(), [np.random.default_rng(spec.seed)])[0]
    return out[:, :, 0] if squeeze else out


def _kind_seed(base_seed: int, kind: str, severity: int) -> int:
    """The seed shared by one (kind, severity); ``fold_seed`` adds an image id."""
    return derive_seed(base_seed, "corrupt", KINDS.index(kind), severity)


def image_seed(base_seed: int, kind: str, severity: int, image_id: int) -> int:
    return fold_seed(_kind_seed(base_seed, kind, severity), image_id)


def check_plan(kinds: list[str], severities: list[int]) -> None:
    """Refuse a list of kinds or severities that names an unknown kind, a
    severity that is not an integer in 1..5, or any value twice: each would
    write mislabelled or duplicate files. The error names the value."""
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown corruption kind {kind!r}")
    for severity in severities:
        if isinstance(severity, bool) or not isinstance(severity, (int, np.integer)) or not 1 <= severity <= 5:
            raise ValueError(f"severity {severity!r} outside 1..5")
    for name, values in (("kinds", kinds), ("severities", severities)):
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"{name} lists {v!r} more than once")


def corrupt_dataset(
    images: np.ndarray,
    kinds: list[str],
    severities: list[int],
    base_seed: int,
    out_dir: str | Path,
) -> list[tuple[int, str, int, str]]:
    """Write every (image, kind, severity) corruption of an (N,H,W) or
    (N,H,W,3) stack plus a manifest CSV.

    Image i's id is i, and its seed derives from (base seed, kind, severity,
    i), so every file is a pure function of its own image and key. Each
    (kind, severity) runs as one ``corrupt_batch`` over the stack and goes
    to the file writer as one batch; the manifest lists the files in (kind,
    severity, image) order. The plan is checked (``check_plan``) before any
    file is written. Returns the manifest rows (orig_id, kind, severity,
    path).
    """
    images = np.asarray(images, dtype=np.float64)
    check_plan(kinds, severities)
    out_dir = Path(out_dir)
    stack = images.reshape(images.shape[:3] + (-1,))
    ext = "ppm" if images.ndim == 4 else "pgm"

    rows = []

    def cells():
        for kind in kinds:
            for severity in severities:
                key = _kind_seed(base_seed, kind, severity)
                rngs = [np.random.default_rng(fold_seed(key, i)) for i in range(len(images))]
                out = corrupt_batch(stack, kind, SEVERITY_TABLE[kind][severity - 1], rngs)
                names = [f"{kind}_s{severity}_{i:06d}.{ext}" for i in range(len(images))]
                rows.extend((i, kind, severity, name) for i, name in enumerate(names))
                yield zip(names, encode_images(out.reshape(images.shape)))

    _write_files(out_dir, cells())
    save_csv(out_dir / "manifest.csv", ["orig_id", "kind", "severity", "path"], [list(r) for r in rows])
    return rows


def robustness_report(
    evaluate,
    manifest_rows: list[tuple[int, str, int, str]],
    images_by_path,
    labels: np.ndarray,
    clean_accuracy: float,
) -> tuple[list[str], list[list]]:
    """Accuracy per corruption kind averaged over severities.

    ``labels`` holds the class of each image id. ``evaluate`` maps the
    stacked images of one (kind, severity) cell to predicted class indices.
    Returns (header, rows): one row per kind with the five severity
    accuracies and their mean, plus a final clean-accuracy row.
    """
    by_kind_sev: dict[str, dict[int, list[tuple[int, str]]]] = {}
    for orig_id, kind, severity, path in manifest_rows:
        by_kind_sev.setdefault(kind, {}).setdefault(int(severity), []).append((int(orig_id), path))

    header = ["kind", "sev1", "sev2", "sev3", "sev4", "sev5", "mean"]
    rows: list[list] = []
    for kind in sorted(by_kind_sev):
        sev_map = by_kind_sev[kind]
        missing = sorted(set(range(1, 6)) - set(sev_map))
        if missing:
            raise ValueError(f"kind {kind}: missing severities {missing}")
        accs = []
        for severity in range(1, 6):
            entries = sev_map[severity]
            preds = np.asarray(evaluate(np.stack([images_by_path(p) for _, p in entries])))
            accs.append(float((preds == np.take(labels, [i for i, _ in entries])).mean()))
        rows.append([kind] + [f"{a:.6f}" for a in accs] + [f"{np.mean(accs):.6f}"])
    rows.append(["clean", "", "", "", "", "", f"{clean_accuracy:.6f}"])
    return header, rows
