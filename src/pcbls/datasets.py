"""Synthetic dataset generators and the CIFAR-10 binary reader.

Generators are pure functions of their seeds and replay exactly. Feature
values live in [0,1] so the corruption transforms apply to vector datasets
as 1-row grayscale images, and every bank rule has signal to work with:
blob labels carry optional flip noise, the multi-label generator plants
all-negative samples, and the segmentation generator plants frames with no
foreground.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fileio import (
    FormatError,
    _load_table,
    _write_files,
    check_inside,
    encode_images,
    load_image,
    load_json,
    save_csv,
    save_json,
)
from .seeding import rng_for

TASKS = ("multiclass", "multilabel", "segmentation")

CIFAR_RECORD = 3073  # 1 label byte + 3 channels * 32 * 32 pixel bytes


@dataclass
class LabeledDataset:
    task: str
    inputs: np.ndarray  # (N,D) features or (N,H,W,C) images
    targets: np.ndarray  # (N,) ints | (N,L) {0,1} | (N,H,W) int maps
    num_classes: int
    split: str = "train"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets length mismatch")

    def __len__(self) -> int:
        return len(self.inputs)


def gen_blobs(
    num_classes: int,
    per_class: int,
    dim: int = 16,
    spread: float = 0.06,
    label_noise_rate: float = 0.0,
    seed: int = 0,
    split: str = "train",
) -> LabeledDataset:
    """Seeded Gaussian clusters in [0,1]^dim with optional label flips.

    Cluster centers are drawn once from the seed's "centers" stream, so
    train/val sets generated with the same seed share geometry while their
    point draws differ by split.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1 or dim < 1:
        raise ValueError("per_class and dim must be positive")
    if not (0.0 <= label_noise_rate < 1.0):
        raise ValueError("label noise rate must lie in [0, 1)")
    centers = rng_for(seed, "blobs", "centers").uniform(0.15, 0.85, size=(num_classes, dim))
    rng = rng_for(seed, "blobs", split)
    n = num_classes * per_class
    labels = np.repeat(np.arange(num_classes), per_class)
    points = centers[labels] + rng.normal(0.0, spread, size=(n, dim))
    points = np.clip(points, 0.0, 1.0)
    true_labels = labels.copy()
    if label_noise_rate > 0:
        n_flip = int(round(label_noise_rate * n))
        flip_idx = rng.choice(n, size=n_flip, replace=False)
        offsets = rng.integers(1, num_classes, size=n_flip)
        labels = labels.copy()
        labels[flip_idx] = (labels[flip_idx] + offsets) % num_classes
    perm = rng.permutation(n)
    return LabeledDataset(
        task="multiclass",
        inputs=points[perm],
        targets=labels[perm],
        num_classes=num_classes,
        split=split,
        meta={"true_targets": true_labels[perm], "dim": dim},
    )


def gen_multilabel(
    num_labels: int,
    n: int,
    dim: int = 16,
    seed: int = 0,
    split: str = "train",
) -> LabeledDataset:
    """Per-label linear concepts over [0,1]^dim features.

    Every 25th sample is pulled toward the feature-space center, which sits
    on the negative side of every concept, so datasets with n >= 50 always
    contain all-negative samples (the empty-frame bank rule needs them).
    """
    if num_labels < 2 or n < 1 or dim < 1:
        raise ValueError("invalid generator parameters")
    crng = rng_for(seed, "multilabel", "concepts")
    w = crng.normal(0.0, 1.0, size=(num_labels, dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    margin = 0.18
    rng = rng_for(seed, "multilabel", split)
    x = np.clip(rng.uniform(0.0, 1.0, size=(n, dim)), 0.0, 1.0)
    center = np.full(dim, 0.5)
    for i in range(0, n, 25):
        x[i] = center + (x[i] - center) * 0.05
    scores = (x - center) @ w.T
    y = (scores > margin).astype(np.int64)
    return LabeledDataset(
        task="multilabel",
        inputs=x,
        targets=y,
        num_classes=num_labels,
        split=split,
        meta={"dim": dim},
    )


def gen_shapes_seg(
    height: int,
    width: int,
    num_foreground: int,
    n: int,
    seed: int = 0,
    split: str = "train",
) -> LabeledDataset:
    """Seeded rectangles and disks on a noisy background.

    Label maps use 0 for background and 1..num_foreground for the shape
    classes; every 20th frame is rendered empty so segmentation banks see
    zero-score frames.
    """
    if height < 16 or width < 16:
        raise ValueError("frames must be at least 16x16")
    if num_foreground < 1 or n < 1:
        raise ValueError("invalid generator parameters")
    rng = rng_for(seed, "shapes", split)
    k = num_foreground + 1
    images = np.zeros((n, height, width, 3))
    labels = np.zeros((n, height, width), dtype=np.int64)
    # one characteristic color per class, spread over hue-ish axes
    colors = rng_for(seed, "shapes", "colors").uniform(0.3, 1.0, size=(num_foreground, 3))
    yy = np.arange(height)[:, None]
    xx = np.arange(width)[None, :]
    for i in range(n):
        img = rng.uniform(0.0, 0.15, size=(height, width, 3))
        lab = np.zeros((height, width), dtype=np.int64)
        if i % 20 != 0:
            for c in range(1, k):
                if rng.uniform() < 0.3:
                    continue
                cy = rng.integers(2, height - 2)
                cx = rng.integers(2, width - 2)
                size = rng.integers(3, max(4, min(height, width) // 3))
                if rng.uniform() < 0.5:
                    mask = (np.abs(yy - cy) <= size // 2) & (np.abs(xx - cx) <= size // 2)
                else:
                    mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= (size // 2) ** 2
                lab[mask] = c
                shade = rng.uniform(0.7, 1.0)
                img[mask] = colors[c - 1] * shade
        images[i] = np.clip(img, 0.0, 1.0)
        labels[i] = lab
    return LabeledDataset(
        task="segmentation",
        inputs=images,
        targets=labels,
        num_classes=k,
        split=split,
        meta={"background": 0},
    )


def load_cifar10(path: str | Path) -> LabeledDataset:
    """Read CIFAR-10 binary batches: 3073-byte records, label byte then
    32x32 R, G, B planes; pixels scaled to [0,1].

    ``path`` may be one .bin file or a directory of them (sorted order).
    """
    path = Path(path)
    files = sorted(path.glob("*.bin")) if path.is_dir() else [path]
    if path.is_dir() and not files:
        raise FormatError(f"{path}: no .bin files found")
    all_images = []
    all_labels = []
    for f in files:
        raw = np.frombuffer(f.read_bytes(), dtype=np.uint8)
        if raw.size % CIFAR_RECORD != 0:
            raise FormatError(
                f"{f}: length {raw.size} is not a multiple of {CIFAR_RECORD}"
            )
        records = raw.reshape(-1, CIFAR_RECORD)
        labels = records[:, 0].astype(np.int64)
        if labels.size and labels.max() > 9:
            raise FormatError(f"{f}: label byte {labels.max()} out of range 0-9")
        pixels = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
        all_images.append(pixels.astype(np.float64) / 255.0)
        all_labels.append(labels)
    images = (
        np.concatenate(all_images) if all_images else np.zeros((0, 32, 32, 3))
    )
    labels = np.concatenate(all_labels) if all_labels else np.zeros(0, dtype=np.int64)
    return LabeledDataset(
        task="multiclass",
        inputs=images,
        targets=labels,
        num_classes=10,
        split="train",
        meta={"source": str(path)},
    )


def as_images(inputs: np.ndarray) -> np.ndarray:
    """Feature vectors (N,D) as one-row grayscale images (N,1,D); image
    stacks (N,H,W) and (N,H,W,C) come back unchanged."""
    inputs = np.asarray(inputs)
    return inputs[:, None, :] if inputs.ndim == 2 else inputs


def save_image_dataset(ds: LabeledDataset, directory: str | Path) -> None:
    """Materialize a multiclass dataset as PGM/PPM files plus labels.csv.

    Vector inputs are stored as 1-row grayscale images; byte quantization
    applies (the on-disk copy is the [0,1] float rounded to 1/255 steps).
    """
    if ds.task != "multiclass":
        raise ValueError("only multiclass datasets materialize to image directories")
    directory = Path(directory)
    images = as_images(ds.inputs)
    ext = "ppm" if images.ndim == 4 else "pgm"
    names = [f"{i:06d}.{ext}" for i in range(len(images))]
    _write_files(directory, [zip(names, encode_images(images))])
    rows = [[i, int(label), name] for i, (label, name) in enumerate(zip(ds.targets, names))]
    save_csv(directory / "labels.csv", ["id", "label", "path"], rows)
    save_json(
        directory / "meta.json",
        {"task": ds.task, "num_classes": ds.num_classes, "split": ds.split},
    )


def load_image_dataset(directory: str | Path) -> LabeledDataset:
    """Read a directory that save_image_dataset wrote. Both index files are
    checked before any image is read: meta.json must be an object with task
    "multiclass" and a positive integer num_classes, and each labels.csv row
    must hold an id, an integer label in [0, num_classes) and a relative path
    inside the directory; every image must have the first one's shape. A
    malformed file raises FormatError naming it (and the labels.csv line)."""
    directory = Path(directory)
    meta_path, labels_path = directory / "meta.json", directory / "labels.csv"
    try:
        meta = load_json(meta_path)
    except ValueError as e:
        raise FormatError(f"{meta_path}: {e}") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{meta_path}: expected a JSON object, got {meta!r}")
    num_classes, task = meta.get("num_classes"), meta.get("task")
    if isinstance(num_classes, bool) or not isinstance(num_classes, int) or num_classes < 1:
        raise FormatError(f"{meta_path}: num_classes must be a positive integer, got {num_classes!r}")
    if task != "multiclass":
        raise FormatError(f"{meta_path}: task must be 'multiclass' (one label per image), got {task!r}")
    rows = _load_table(labels_path, ["id", "label", "path"], lambda row: _label_row(row, num_classes))
    labels, names = [label for label, _ in rows], [name for _, name in rows]
    images = []
    for line, name in enumerate(names, start=2):
        img = load_image(directory / name)
        if images and img.shape != images[0].shape:
            raise FormatError(
                f"{directory / name} ({labels_path} line {line}): image shape {img.shape}, "
                f"but {names[0]} has shape {images[0].shape}"
            )
        images.append(img)
    inputs = np.stack(images) if images else np.zeros((0, 1, 1))
    return LabeledDataset(
        task=task,
        inputs=inputs,
        targets=np.asarray(labels, dtype=np.int64),
        num_classes=num_classes,
        split=meta.get("split", "train"),
    )


def _label_row(row: list[str], num_classes: int) -> tuple[int, str]:
    _, label, name = row
    try:
        label = int(label)
    except ValueError:
        raise ValueError(f"label {label!r} is not an integer") from None
    if not (0 <= label < num_classes):
        raise ValueError(f"label {label} outside [0, {num_classes})")
    check_inside(name, "the dataset directory")
    return label, name


def split_dataset(
    ds: LabeledDataset, val_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Disjoint, exhaustive train/val partition by seeded permutation."""
    if not (0.0 < val_fraction < 1.0):
        raise ValueError("val fraction must lie in (0, 1)")
    n = len(ds)
    perm = rng_for(seed, "split").permutation(n)
    n_val = max(1, int(round(val_fraction * n)))
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])

    def take(idx: np.ndarray, split: str) -> LabeledDataset:
        meta = dict(ds.meta)
        if "true_targets" in meta:
            meta["true_targets"] = meta["true_targets"][idx]
        return LabeledDataset(
            task=ds.task,
            inputs=ds.inputs[idx],
            targets=ds.targets[idx],
            num_classes=ds.num_classes,
            split=split,
            meta=meta,
        )

    return take(train_idx, "train"), take(val_idx, "val")
