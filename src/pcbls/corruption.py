"""Deterministic image corruptions across 12 kinds and severity levels 1-5.

The severity parameter tables are this package's own constants; the
contract is that corruption strength is strictly monotone in severity, not
that any particular published table is reproduced. Images are float arrays
in [0,1], shape (H,W) or (H,W,C); outputs are always clipped back to [0,1].

jpeg_like is a DCT-quantization approximation of JPEG's loss profile, not
a standards-conforming codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import glass_swaps
from .fileio import save_csv, save_image
from .numerics import conv2d_same
from .seeding import derive_seed

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

# five parameter rows per kind, severity 1..5; strength strictly increases
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
        if self.kind not in KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if not (1 <= self.severity <= 5):
            raise ValueError(f"severity must be 1..5, got {self.severity}")

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
    """Pixel-center-aligned bilinear resampling of an (H,W,C) array."""
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


def _conv_channels(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    out = np.empty_like(img)
    for c in range(img.shape[2]):
        out[:, :, c] = conv2d_same(img[:, :, c], kernel)
    return out


def _disk_kernel(radius: int) -> np.ndarray:
    if radius <= 0:
        return np.ones((1, 1))
    d = np.arange(-radius, radius + 1)
    mask = (d[:, None] ** 2 + d[None, :] ** 2) <= radius**2
    kernel = mask.astype(np.float64)
    return kernel / kernel.sum()


def _line_kernel(length: int, angle: float) -> np.ndarray:
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


def _haze_field(h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    coarse_h = max(2, min(8, h))
    coarse_w = max(2, min(8, w))
    grid = rng.uniform(0.0, 1.0, size=(coarse_h, coarse_w, 1))
    field = _bilinear_resize(grid, h, w)[:, :, 0]
    lo, hi = field.min(), field.max()
    if hi > lo:
        field = (field - lo) / (hi - lo)
    return field


def _block_reduce_mean(img: np.ndarray, factor: int) -> np.ndarray:
    h, w, c = img.shape
    edges_y = np.arange(0, h, factor)
    edges_x = np.arange(0, w, factor)
    sums = np.add.reduceat(np.add.reduceat(img, edges_y, axis=0), edges_x, axis=1)
    ny = np.diff(np.append(edges_y, h))
    nx = np.diff(np.append(edges_x, w))
    return sums / (ny[:, None, None] * nx[None, :, None])


def _dct_matrix(n: int = 8) -> np.ndarray:
    i = np.arange(n)
    m = np.cos(np.pi * (2 * i[None, :] + 1) * i[:, None] / (2 * n)) * np.sqrt(2.0 / n)
    m[0, :] = np.sqrt(1.0 / n)
    return m


_DCT8 = _dct_matrix(8)


def _jpeg_like(img: np.ndarray, scale: float) -> np.ndarray:
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


def corrupt_with_params(image: np.ndarray, kind: str, params, rng: np.random.Generator) -> np.ndarray:
    """Apply ``kind`` at explicit parameters; drives both the severity table
    and the zero-strength identity checks."""
    img, squeeze = _as_hwc(image)
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
        out = _conv_channels(img, _disk_kernel(int(params)))
    elif kind == "glass_blur":
        max_shift, rounds = params
        if rounds <= 0 or max_shift <= 0:
            out = img.copy()
        else:
            offsets = rng.integers(-max_shift, max_shift + 1, size=(rounds, h, w, 2))
            out = glass_swaps(img, offsets.astype(np.int64))
    elif kind == "motion_blur":
        angle = rng.uniform(0.0, np.pi)
        out = _conv_channels(img, _line_kernel(int(params), angle))
    elif kind == "zoom_blur":
        steps, max_zoom = params
        acc = np.zeros_like(img)
        for f in np.linspace(1.0, max_zoom, int(steps)):
            ch = max(1, int(round(h / f)))
            cw = max(1, int(round(w / f)))
            top = (h - ch) // 2
            left = (w - cw) // 2
            acc += _bilinear_resize(img[top : top + ch, left : left + cw], h, w)
        out = acc / int(steps)
    elif kind == "fog":
        haze = _haze_field(h, w, rng)[:, :, None]
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
            small = _block_reduce_mean(img, factor)
            out = np.repeat(np.repeat(small, factor, axis=0), factor, axis=1)[:h, :w]
    elif kind == "jpeg_like":
        out = _jpeg_like(img, params)
    else:
        raise ValueError(f"unknown corruption kind {kind!r}")

    out = np.clip(out, 0.0, 1.0)
    return out[:, :, 0] if squeeze else out


def corrupt(image: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """Deterministic corruption: a pure function of (image, spec)."""
    rng = np.random.default_rng(spec.seed)
    return corrupt_with_params(image, spec.kind, spec.params(), rng)


def image_seed(base_seed: int, kind: str, severity: int, image_id: int) -> int:
    return derive_seed(base_seed, "corrupt", KINDS.index(kind), severity, image_id)


def corrupt_dataset(
    images: list[np.ndarray],
    kinds: list[str],
    severities: list[int],
    base_seed: int,
    out_dir: str | Path,
    image_ids: list[int] | None = None,
) -> list[tuple[int, str, int, str]]:
    """Write every (image, kind, severity) corruption plus a manifest CSV.

    Per-image seeds derive from (base seed, kind, severity, image id), so
    every file is a pure function of its own image and key. Returns the
    manifest rows (orig_id, kind, severity, path).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids = list(range(len(images))) if image_ids is None else list(image_ids)
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown corruption kind {kind!r}")

    rows = []
    for kind in kinds:
        for severity in severities:
            for img_id, img in zip(ids, images):
                rel = f"{kind}_s{severity}_{img_id:06d}.{'ppm' if np.ndim(img) == 3 else 'pgm'}"
                spec = CorruptionSpec(kind=kind, severity=severity, seed=image_seed(base_seed, kind, severity, img_id))
                save_image(out_dir / rel, corrupt(img, spec))
                rows.append((img_id, kind, severity, rel))

    save_csv(out_dir / "manifest.csv", ["orig_id", "kind", "severity", "path"], [list(r) for r in rows])
    return rows


def robustness_report(
    evaluate,
    manifest_rows: list[tuple[int, str, int, str]],
    images_by_path,
    labels_by_id: dict[int, int],
    clean_accuracy: float,
) -> tuple[list[str], list[list]]:
    """Accuracy per corruption kind averaged over severities.

    ``evaluate`` maps a list of images to predicted class indices. Returns
    (header, rows): one row per kind with the five severity accuracies and
    their mean, plus a final clean-accuracy row.
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
            imgs = [images_by_path(p) for _, p in entries]
            preds = np.asarray(evaluate(imgs))
            truth = np.asarray([labels_by_id[i] for i, _ in entries])
            accs.append(float((preds == truth).mean()))
        rows.append([kind] + [f"{a:.6f}" for a in accs] + [f"{np.mean(accs):.6f}"])
    rows.append(["clean", "", "", "", "", "", f"{clean_accuracy:.6f}"])
    return header, rows
