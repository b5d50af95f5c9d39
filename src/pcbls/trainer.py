"""The paced-curriculum training loop.

Each epoch: look up the smoothing factor(s) for this epoch, take the bank's
active mask (over ranks taken once: the active sample ids, or every frame's
pixel masks), gather the inputs, soft targets and masks of a seeded shuffle
of the active ids once, check them once, and step the optimizer over
consecutive slices of that shuffle; the mask's count is the epoch's
active_count, paced over the run's epochs and the bank's units. Identical
(config, data, seed) replays bit-for-bit: shuffles are keyed by (seed,
epoch), batches run in shuffle order, and validation never sees smoothing
or pacing.

Every choice that depends on the task (the batch check and the loss, the
soft targets, the probability map, the validation metrics, the sample-bank
score and the default architecture) is one entry of ``TASKS``, which a run
takes once.

A run owns one flat parameter buffer and one flat gradient buffer, each
unpacked into tensor views once. A step writes the gradient views
(models.loss_and_grad_into) and the optimizer updates the parameters and
its own state in place. The first non-finite step loss stops the run
with NonFiniteLoss, naming the epoch and the batch; parameters that are
not all finite at the end of an epoch (a non-finite gradient behind a
finite loss) stop it with NonFiniteParameters, naming the epoch.

Whole-set image passes run in frame chunks (``numerics.frame_chunks``: as
many whole frames as fit in 4 096 pixels, at least one), each chunk written
into one preallocated output: the validation and bank forwards
(``models.forward`` chunks tiny_fcn), each epoch's segmentation soft
targets, and both segmentation banks' one scoring pass, the softmax and
gather of each pixel's true-class probability (``_true_class_probs``).
Every frame is computed on its own, so the bytes do not depend on the chunk.
Class and multi-label targets and the dense models stay one call: their rows
are a few floats a sample, and a dense GEMM's last bits can depend on its
row count (see ``models``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import losses, models, pacing, soft_labels
from .calibration import apply_temperature
from .fileio import format_float
from .metrics import accuracy, iou_dice, mean_average_precision
from .models import ModelSpec
from .numerics import frame_chunks, sigmoid
from .pacing import PacePlan, SampleBank
from .schedules import SmoothingSchedule
from .seeding import derive_seed, fold_seed

OPTIMIZERS = ("sgd", "adam")


@dataclass(frozen=True)
class TrainConfig:
    task: str  # a key of TASKS
    model: ModelSpec
    epochs: int
    batch_size: int = 32
    optimizer: str = "sgd"
    lr: float = 5e-3
    momentum: float = 0.9
    weight_decay: float = 5e-3
    lr_decay_factor: float = 0.1
    seed: int = 0
    uls_schedule: SmoothingSchedule | None = None
    svls_schedule: SmoothingSchedule | None = None
    svls_kernel: int = soft_labels.DEFAULT_KERNEL_SIZE
    pace: PacePlan | None = None

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("lr", "momentum", "weight_decay", "lr_decay_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        # a task's loss reads logits of the layout its default architecture gives
        arch, default = self.model.architecture, TASKS[self.task].arch
        got, want = (",".join(models._KINDS[a].axes) for a in (arch, default))
        if got != want:
            raise ValueError(
                f"task {self.task!r} needs ({want},K) logits as {default} gives; arch {arch!r} gives ({got},K)"
            )
        if self.svls_schedule is not None and self.task != "segmentation":
            raise ValueError("a spatial smoothing schedule requires the segmentation task")
        check_schedule("schedule", self.uls_schedule, self.epochs)
        check_schedule("svls_schedule", self.svls_schedule, self.epochs)

    def decay_epoch(self) -> int:
        return int(0.75 * self.epochs)


def check_schedule(key: str, schedule: SmoothingSchedule | None, epochs: int) -> None:
    """Refuse, naming its config ``key``, a schedule that leaves its domain in
    ``epochs`` epochs: [0, 1) for the ULS factor, at least 0 for the SVLS sigma."""
    for epoch in range(epochs if schedule is not None else 0):
        value = schedule.value_at(epoch)
        if key == "schedule" and not 0.0 <= value < 1.0:
            raise ValueError(f"schedule: smoothing factor {value!r} at epoch {epoch} is outside [0, 1)")
        if key == "svls_schedule" and not value >= 0.0:
            raise ValueError(f"svls_schedule: sigma {value!r} at epoch {epoch} is below 0")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    active_count: int
    eps: float
    sigma: float | None
    train_loss: float
    val_metrics: dict[str, float]


@dataclass
class TrainResult:
    params: np.ndarray
    records: list[EpochRecord]


class NonFiniteLoss(ArithmeticError):
    """A training step produced a non-finite loss; training stops there."""

    def __init__(self, epoch: int, batch: int, loss: float):
        super().__init__(f"non-finite training loss {loss!r} in epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


class NonFiniteParameters(ArithmeticError):
    """An epoch's steps left a non-finite parameter although every step loss
    was finite; training stops after that epoch."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite parameters after epoch {epoch} (every step loss was finite)")
        self.epoch = epoch


class _Optimizer:
    """SGD with momentum or Adam, updating the caller's flat ``params`` in place.

    SGD's momentum and weight decay, and the learning rate the trainer
    passes, are 0-d arrays: a ufunc call with one skips the promotion of a
    Python float (an SGD step on 1 320 parameters took 4.6 instead of
    5.6 us on a 2-vCPU x86 VM with numpy 2.4). The values, and so the
    bits, are the same.
    """

    def __init__(self, cfg: TrainConfig, n_params: int):
        self.sgd = cfg.optimizer == "sgd"
        self.momentum, self.weight_decay = np.asarray(cfg.momentum), np.asarray(cfg.weight_decay)
        self.scratch = np.empty(n_params)
        if self.sgd:
            self.velocity = np.zeros(n_params)
        else:
            self.m = np.zeros(n_params)
            self.v = np.zeros(n_params)
            self.vh = np.empty(n_params)
            self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float | np.ndarray) -> None:
        """One update of ``params`` in place; ``grad`` is not written. ``lr``
        is a float or a 0-d array of one.

        Same operands in the same order as the out-of-place update
        ``params - lr * v`` with ``v = momentum * v + (grad + wd * params)``
        (SGD) or ``params - lr * mh / (sqrt(vh) + eps)`` (Adam).
        """
        tmp = self.scratch
        if self.sgd:
            self.velocity *= self.momentum
            np.multiply(params, self.weight_decay, out=tmp)
            tmp += grad
            self.velocity += tmp
            np.multiply(self.velocity, lr, out=tmp)
            params -= tmp
            return
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.m *= b1
        np.multiply(grad, 1 - b1, out=tmp)
        self.m += tmp
        self.v *= b2
        np.multiply(grad, 1 - b2, out=tmp)
        tmp *= grad
        self.v += tmp
        np.divide(self.v, 1 - b2**self.t, out=self.vh)
        np.sqrt(self.vh, out=self.vh)
        self.vh += eps
        np.divide(self.m, 1 - b1**self.t, out=tmp)
        tmp *= lr
        tmp /= self.vh
        params -= tmp


def _segmentation_targets(cfg: TrainConfig, targets: np.ndarray, k: int, eps: float, sigma: float | None):
    """An (N,H,W) stack of label maps through ``segmentation_targets`` one
    frame chunk at a time (``numerics.frame_chunks``), each chunk written
    into one preallocated (N,H,W,K) output, even when there is only one: the
    one-hot, smoothed and padded maps of one chunk are alive at a time, so
    the memory a build holds beyond its output does not grow with N. Every
    map's targets are its own, so the bytes do not depend on the chunk.
    """
    targets = np.asarray(targets)
    if targets.ndim != 3:  # not a stack of maps; the task's check refuses it next
        return soft_labels.segmentation_targets(targets, k, epsilon=eps, sigma=sigma, k=cfg.svls_kernel)
    out = np.empty(targets.shape + (k,))
    for s in frame_chunks(*targets.shape):
        out[s] = soft_labels.segmentation_targets(targets[s], k, epsilon=eps, sigma=sigma, k=cfg.svls_kernel)
    return out


def _true_class_probs(probs, logits: np.ndarray, targets, dtype) -> np.ndarray:
    """Each pixel's true-class probability under ``probs``, the task's map at
    the bank's temperature, cast into one (N,H,W) ``dtype`` array as astype
    rounds. Map and gather go a frame chunk at a time, so the (N,H,W,K)
    probabilities never exist at once."""
    targets = np.asarray(targets)
    if targets.ndim != 3 or targets.shape != logits.shape[:-1]:
        raise ValueError(f"prob maps {logits.shape} vs label maps {targets.shape}")
    out = np.empty(targets.shape, dtype=dtype)
    for s in frame_chunks(*targets.shape):
        out[s] = pacing.build_pixel_bank(probs(logits[s]), targets[s])
    return out


def _map_metrics(logits, targets, k):
    """Mean average precision, and the labels with no positive that it skipped."""
    value, skipped = mean_average_precision(sigmoid(logits), targets)
    return (value,), {"skipped_labels": ";".join(map(str, skipped))}


def _iou_metrics(logits, targets, k):
    _, miou, mdice = iou_dice(np.argmax(logits, axis=-1), targets, k)
    return (miou, mdice), {}


# The task table: every choice a run makes by its task. A run takes its
# entry once, before its first epoch. Each callable looks up the functions it
# runs by name when it is called and holds no reference taken at import, so
# that a module attribute replaced after import (a tracer's wrapper, a test's
# patch) is what runs.
#   check         (logits shape, targets, mask) -> (targets, mask), checked, as float64
#   loss          (logits, targets, mask) -> (mean loss, dL/dlogits), on checked inputs
#   soft_targets  (cfg, hard targets, K, eps, sigma) -> soft targets, one per hard target
#   probs         (logits, temperature) -> probabilities
#   metrics       (logits, targets, K) -> (values of columns, extra eval rows by name)
#   columns       its validation metrics as metrics.csv names them
#   bank          (probs at the bank's temperature, logits, targets, source) -> its SampleBank
#   arch          its default architecture
TASKS = {
    "multiclass": SimpleNamespace(
        check=lambda shape, targets, mask: (losses.check_soft_ce(shape, targets), None),
        loss=lambda logits, targets, mask: losses._soft_ce(logits, targets),
        soft_targets=lambda cfg, targets, k, eps, sigma: soft_labels.uls_matrix(targets, k, eps),
        probs=lambda logits, t: apply_temperature(logits, t),
        metrics=lambda logits, targets, k: ((accuracy(logits.argmax(axis=1), targets),), {}),
        columns=("val_accuracy",),
        bank=lambda probs, logits, targets, source: pacing.build_bank_multiclass(probs(logits), targets, source=source),
        arch="mlp",
    ),
    "multilabel": SimpleNamespace(
        check=lambda shape, targets, mask: (losses.check_soft_bce(shape, targets), None),
        loss=lambda logits, targets, mask: losses._soft_bce(logits, targets),
        soft_targets=lambda cfg, targets, k, eps, sigma: soft_labels.smooth_binary(targets, eps),
        probs=lambda logits, t: sigmoid(logits / t),
        metrics=_map_metrics,
        columns=("val_map",),
        bank=lambda probs, logits, targets, source: pacing.build_bank_multilabel(probs(logits), targets, source=source),
        arch="mlp",
    ),
    "segmentation": SimpleNamespace(
        check=lambda shape, targets, mask: losses.check_masked_pixel_ce(shape, targets, mask),
        loss=lambda logits, targets, mask: losses._masked_pixel_ce(logits, targets, mask),
        soft_targets=_segmentation_targets,
        probs=lambda logits, t: apply_temperature(logits, t),
        metrics=_iou_metrics,
        columns=("val_miou", "val_mdice"),
        bank=lambda probs, logits, targets, source: pacing.build_bank_segmentation(
            _true_class_probs(probs, logits, targets, np.float64), targets, source=source
        ),
        arch="tiny_fcn",
    ),
}


def evaluate(cfg: TrainConfig, params: np.ndarray, inputs, targets, num_classes: int) -> dict[str, float]:
    """Validation metrics on raw (unsmoothed, unpaced) data, by column name."""
    logits = models.forward(cfg.model, params, np.asarray(inputs, dtype=np.float64))
    task = TASKS[cfg.task]
    return dict(zip(task.columns, task.metrics(logits, targets, num_classes)[0]))


def train(
    cfg: TrainConfig,
    train_inputs: np.ndarray,
    train_targets: np.ndarray,
    val_inputs: np.ndarray,
    val_targets: np.ndarray,
    num_classes: int,
    bank: SampleBank | np.ndarray | None = None,
) -> TrainResult:
    """Run the full curriculum loop and return final parameters + records.

    A pace plan paces the units of ``bank``, whose type is the granularity:
    a SampleBank paces samples, an (N,H,W) pixel bank (segmentation only)
    pixels, one unit per training sample or label-map pixel. With no
    schedules and no pace plan this is a plain cross-entropy trainer; a
    constant-0 schedule reproduces it exactly because the smoothing formula
    at factor 0 returns the one-hot target bit-for-bit.
    """
    n = len(train_inputs)
    if n == 0 or len(val_inputs) == 0:
        raise ValueError("training and validation sets must be non-empty")
    ranks = None
    pixel = cfg.pace is not None and not isinstance(bank, SampleBank)
    if cfg.pace is not None:
        if bank is None:
            raise ValueError("pacing requires a bank: a SampleBank or an (N,H,W) pixel bank")
        if pixel and cfg.task != "segmentation":
            raise ValueError("pixel-wise pacing requires the segmentation task")
        ranks = pacing.ranks(bank)
        want = np.shape(train_targets) if pixel else (n,)  # a unit per sample, or per label-map pixel
        if ranks.shape != want:
            raise ValueError(f"bank of shape {ranks.shape} does not match the training set's {want}")

    train_inputs = np.asarray(train_inputs, dtype=np.float64)
    train_targets = np.asarray(train_targets)
    val_inputs = np.asarray(val_inputs, dtype=np.float64)
    # the run's only parameter and gradient buffers, unpacked into tensor
    # views once; every step writes the gradient views and updates params
    params = models.init_params(cfg.model, cfg.seed)
    grad = np.empty_like(params)
    tensors, grads = models.unpack(cfg.model, params), models.unpack(cfg.model, grad)
    opt = _Optimizer(cfg, params.size)
    spec, task = cfg.model, TASKS[cfg.task]
    loss = task.loss
    # derive_seed(seed, "shuffle", epoch), with the shared prefix folded once
    shuffle_key = derive_seed(cfg.seed, "shuffle")

    records: list[EpochRecord] = []
    for epoch in range(cfg.epochs):
        eps = cfg.uls_schedule.value_at(epoch) if cfg.uls_schedule else 0.0
        sigma = cfg.svls_schedule.value_at(epoch) if cfg.svls_schedule else None
        lr = np.asarray(cfg.lr * (cfg.lr_decay_factor if epoch >= cfg.decay_epoch() else 1.0))

        ids, count = np.arange(n), n
        if ranks is not None:
            active = pacing.active_mask(ranks, cfg.pace, epoch, cfg.epochs)
            count = int(np.count_nonzero(active))
            if not pixel:
                ids = np.flatnonzero(active)  # ascending
        order = np.random.default_rng(fold_seed(shuffle_key, epoch)).permutation(len(ids))
        shuffled = ids[order]

        # the epoch's inputs, targets and masks in shuffle order, checked
        # once: each batch is a slice of them
        masks = active[shuffled].astype(np.float64) if pixel else None
        soft = task.soft_targets(cfg, train_targets[shuffled], num_classes, eps, sigma)
        # np.take copies whole rows faster than fancy indexing, same bytes
        xs = models.check_inputs(spec, np.take(train_inputs, shuffled, axis=0))
        soft, masks = task.check(xs.shape[:-1] + (spec.dims[-1],), soft, masks)

        total_loss = 0.0
        size, batch_size = len(shuffled), cfg.batch_size
        for batch, start in enumerate(range(0, size, batch_size)):
            stop = min(start + batch_size, size)
            mask = masks[start:stop] if masks is not None else None
            value = models.loss_and_grad_into(spec, tensors, grads, xs[start:stop], soft[start:stop], loss, mask)
            if not math.isfinite(value):
                raise NonFiniteLoss(epoch, batch, value)
            opt.step(params, grad, lr)
            total_loss += value * (stop - start)
        # the next epoch builds its own arrays: hold one epoch's at a time
        del xs, soft, masks, mask
        if not np.isfinite(params).all():
            raise NonFiniteParameters(epoch)

        record = EpochRecord(
            epoch=epoch,
            active_count=count,
            eps=eps,
            sigma=sigma,
            train_loss=total_loss / size,
            val_metrics=evaluate(cfg, params, val_inputs, val_targets, num_classes),
        )
        records.append(record)

    return TrainResult(params=params, records=records)


def score_training_set(
    spec: ModelSpec,
    task: str,
    params: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    variant: str = "plain",
    temperature: float = 1.0,
) -> SampleBank:
    """Freeze a trained ``task`` model and build its confidence bank."""
    logits = models.forward(spec, params, np.asarray(inputs, dtype=np.float64))
    source = {"plain": "plain", "ts": "temperature_scaled", "ls": "label_smoothed"}[variant]
    entry = TASKS[task]
    return entry.bank(lambda z: entry.probs(z, temperature), logits, targets, source)


def score_pixel_bank(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The frozen model's (N,H,W) float32 pixel bank: each pixel's
    true-class probability, from the pass a segmentation sample bank
    scores its frames with."""
    logits = models.forward(spec, params, np.asarray(inputs, dtype=np.float64))
    probs = TASKS["segmentation"].probs
    return _true_class_probs(lambda z: probs(z, 1.0), logits, targets, np.float32)


def records_to_csv(task: str, records: list[EpochRecord]) -> tuple[list[str], list[list[str]]]:
    """Metrics-log rows; float cells use shortest round-trip formatting so a
    replayed run produces a byte-identical file."""
    columns = TASKS[task].columns
    header = ["epoch", "active_count", "eps", "sigma", "train_loss", *columns]
    rows = []
    for r in records:
        row = [
            str(r.epoch),
            str(r.active_count),
            format_float(r.eps),
            "" if r.sigma is None else format_float(r.sigma),
            format_float(r.train_loss),
        ]
        row += [format_float(r.val_metrics[m]) for m in columns]
        rows.append(row)
    return header, rows
