"""Per-layer metrics of pcbls, one layer per module, from a traced pass.

Every public function of every ``pcbls`` module is wrapped where its
callers look it up (``tracer_for`` / ``Tracer.install``), including the
names a module imported from another one (``trainer.iou_dice``,
``cli.fit_temperature``, ``corruption.save_image``, ``corruption.glass_swaps``).
Span names are ``<module>.<function>`` with the leading underscore of
``_kernels`` dropped, so metric names start with a letter.

``busy_s`` is wall time inside the wrapped call, summed over threads;
``self_s`` is ``busy_s`` minus the time of its direct child spans. Counts
(``calls``, bytes, MACs) repeat exactly from pass to pass. MACs are
computed from the call shapes, not measured.

``schedules.SmoothingSchedule.value_at`` is a method returning one float per
epoch; it is not timed.

Which end-to-end ``wall_s`` each layer should move (no change predicted on
the other workloads):

  seg_pixel_paced   kernels.fcn_conv_*, models.backward.busy_s,
                    models.forward.calls per step, soft_labels.busy_s,
                    numerics.conv2d_same.calls, pacing.pixel_mask_at.busy_s,
                    metrics.iou_dice.busy_s (stage rate: train_samples_per_s)
  cls_curriculum    models.unpack.*, trainer.train.self_s,
                    calibration.fit_temperature.busy_s
  robustness_io     corruption.corrupt.<kind>.busy_s, worker_busy_share,
                    fileio.atomic_write_bytes.busy_s, fileio.save_image.busy_s
                    (corrupt_images_per_s); fileio.load_image.busy_s,
                    corruption.robustness_report.busy_s (eval_images_per_s)
"""

from __future__ import annotations

import inspect
import math
import os
import sys
from collections import defaultdict

import spans

# Called once per byte of every derived seed; a span per call would cost more
# than the work it times and would inflate the busy time of its callers.
UNTRACED = frozenset({"seeding.splitmix64"})

# a fitted temperature this close (in log space) to the search window's edge
# counts as pinned; the golden-section search stops at an interval of 1e-4
PIN_TOL = 1e-3

CORRUPTION_KINDS = (
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


def pcbls_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "pcbls" or name.startswith("pcbls.")]


def traced_functions(modules) -> dict:
    """Public functions defined in ``modules``, mapped to their span names.

    A function bound to several names in its own module (``_kernels`` binds
    ``fcn_conv_forward = fcn_conv_forward_np`` without numba) takes the
    shortest one.
    """
    names: dict = {}
    for module in modules:
        short = module.__name__.split(".", 1)[-1].lstrip("_")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            if name in UNTRACED:
                continue
            if obj not in names or len(name) < len(names[obj]):
                names[obj] = name
    return names


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _conv_macs(factor: int):
    def observe(args, kwargs, result):
        x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "w")
        h, wd, cin = x.shape
        cout, _, k, _ = w.shape
        return {"macs": factor * h * wd * cin * cout * k * k}

    return observe


def _pinned(calibration):
    edges = (math.log(calibration._T_LO), math.log(calibration._T_HI))

    def observe(args, kwargs, result):
        t = math.log(result.temperature)
        return {"pinned": int(min(abs(t - e) for e in edges) < PIN_TOL)}

    return observe


def observers(calibration) -> dict:
    return {
        "cli.main": lambda a, k, r: {"failed": int(r != 0)},
        "corruption.corrupt": lambda a, k, r: {"kind": _arg(a, k, 1, "spec").kind},
        "kernels.fcn_conv_forward": _conv_macs(1),
        # input and weight gradients each cost one forward's MACs
        "kernels.fcn_conv_backward": _conv_macs(2),
        "fileio.atomic_write_bytes": lambda a, k, r: {"bytes": len(_arg(a, k, 1, "data"))},
        "fileio.load_image": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
        "pacing.pixel_mask_at": lambda a, k, r: {
            "on": sum(int(m.sum()) for m in r),
            "total": sum(m.size for m in r),
        },
        "calibration.fit_temperature": _pinned(calibration),
    }


def tracer_for_pcbls() -> tuple[spans.Tracer, list, dict]:
    """A tracer, the loaded pcbls modules and the functions to wrap in them."""
    modules = pcbls_modules()
    by_name = {m.__name__: m for m in modules}
    tracer = spans.Tracer(observers(by_name["pcbls.calibration"]))
    return tracer, modules, traced_functions(modules)


class Summary:
    """Per-name totals over the spans of one traced pass."""

    def __init__(self, span_list: list[spans.Span]):
        self.spans = span_list
        selfs = spans.self_times(span_list)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[tuple[str, str], float] = defaultdict(float)
        for s in span_list:
            names = [s.name]
            if s.extra and "kind" in s.extra:
                names.append(f"{s.name}.{s.extra['kind']}")
            for n in names:
                self.calls[n] += 1
                self.busy_s[n] += s.duration
                self.self_s[n] += selfs[id(s)]
            for key, value in (s.extra or {}).items():
                if key != "kind":
                    self.extra[(s.name, key)] += value

    def n(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def busy(self, *names: str) -> float:
        return sum(self.busy_s.get(n, 0.0) for n in names)

    def count(self, name: str, key: str) -> float:
        return self.extra.get((name, key), 0.0)

    def bytes_written_under(self, parent: str) -> int:
        return sum(
            s.extra["bytes"]
            for s in self.spans
            if s.name == "fileio.atomic_write_bytes" and s.parent is not None and s.parent.name == parent
        )

    def pixel_active_share(self) -> float:
        total = self.count("pacing.pixel_mask_at", "total")
        return self.count("pacing.pixel_mask_at", "on") / total if total else 0.0

    def worker_busy_share(self) -> float:
        """Busy time of the corruption workers over (workers x driver wall).

        Worker spans are the top-level spans of other threads inside a
        ``corrupt_dataset`` span; when the driver runs its jobs on its own
        thread, its direct children are the work and there is one worker.
        """
        busy = capacity = 0.0
        for d in self.spans:
            if d.name != "corruption.corrupt_dataset":
                continue
            threads = set()
            work = 0.0
            for s in self.spans:
                if s.parent is None and s.thread != d.thread and d.start <= s.start and s.end <= d.end:
                    threads.add(s.thread)
                    work += s.duration
            if not threads:
                work = sum(s.duration for s in self.spans if s.parent is d)
            busy += work
            capacity += max(1, len(threads)) * d.duration
        return busy / capacity if capacity else 0.0


_LOSSES = ("losses.soft_ce", "losses.soft_bce", "losses.masked_pixel_ce")
_SOFT_LABELS = ("soft_labels.uls_matrix", "soft_labels.smooth_binary", "soft_labels.segmentation_targets")
_BANK_BUILDERS = (
    "pacing.build_bank_multiclass",
    "pacing.build_bank_multilabel",
    "pacing.build_bank_segmentation",
    "pacing.build_pixel_bank",
)
_BANK_FILES = ("fileio.save_bank", "fileio.load_bank", "fileio.save_pixel_bank", "fileio.load_pixel_bank")


def _calls(*names):
    return lambda s: s.n(*names)


def _busy(*names):
    return lambda s: s.busy(*names)


# (metric name, unit, value from a Summary) in BENCHMARK.json order
PER_LAYER = [
    ("cli.main.calls", "count", _calls("cli.main")),
    ("cli.main.busy_s", "s", _busy("cli.main")),
    ("cli.main.failed", "count", lambda s: s.count("cli.main", "failed") + s.count("cli.main", "raised")),
    ("datasets.gen_blobs.busy_s", "s", _busy("datasets.gen_blobs")),
    ("datasets.gen_shapes_seg.busy_s", "s", _busy("datasets.gen_shapes_seg")),
    ("trainer.train.busy_s", "s", _busy("trainer.train")),
    ("trainer.train.self_s", "s", lambda s: s.self_s.get("trainer.train", 0.0)),
    ("trainer.evaluate.calls", "count", _calls("trainer.evaluate")),
    ("trainer.evaluate.busy_s", "s", _busy("trainer.evaluate")),
    ("trainer.score_training_set.busy_s", "s", _busy("trainer.score_training_set")),
    ("trainer.score_pixel_bank.busy_s", "s", _busy("trainer.score_pixel_bank")),
    ("models.loss_and_grad.calls", "count", _calls("models.loss_and_grad")),
    ("models.loss_and_grad.busy_s", "s", _busy("models.loss_and_grad")),
    ("models.forward.calls", "count", _calls("models.forward")),
    ("models.forward.busy_s", "s", _busy("models.forward")),
    ("models.backward.busy_s", "s", _busy("models.backward")),
    ("models.unpack.calls", "count", _calls("models.unpack")),
    ("models.unpack.busy_s", "s", _busy("models.unpack")),
    ("losses.calls", "count", _calls(*_LOSSES)),
    ("losses.busy_s", "s", _busy(*_LOSSES)),
    ("soft_labels.calls", "count", _calls(*_SOFT_LABELS)),
    ("soft_labels.busy_s", "s", _busy(*_SOFT_LABELS)),
    ("numerics.conv2d_same.calls", "count", _calls("numerics.conv2d_same")),
    ("numerics.conv2d_same.busy_s", "s", _busy("numerics.conv2d_same")),
    ("kernels.fcn_conv_forward.calls", "count", _calls("kernels.fcn_conv_forward")),
    ("kernels.fcn_conv_forward.busy_s", "s", _busy("kernels.fcn_conv_forward")),
    ("kernels.fcn_conv_backward.calls", "count", _calls("kernels.fcn_conv_backward")),
    ("kernels.fcn_conv_backward.busy_s", "s", _busy("kernels.fcn_conv_backward")),
    (
        "kernels.fcn_conv.macs",
        "MAC",
        lambda s: s.count("kernels.fcn_conv_forward", "macs") + s.count("kernels.fcn_conv_backward", "macs"),
    ),
    ("kernels.glass_swaps.calls", "count", _calls("kernels.glass_swaps")),
    ("kernels.glass_swaps.busy_s", "s", _busy("kernels.glass_swaps")),
    ("pacing.active_set.busy_s", "s", _busy("pacing.active_set")),
    ("pacing.pixel_mask_at.calls", "count", _calls("pacing.pixel_mask_at")),
    ("pacing.pixel_mask_at.busy_s", "s", _busy("pacing.pixel_mask_at")),
    ("pacing.build_bank.busy_s", "s", _busy(*_BANK_BUILDERS)),
    ("pacing.pixel_active_share", "fraction", Summary.pixel_active_share),
    ("metrics.iou_dice.busy_s", "s", _busy("metrics.iou_dice")),
    ("metrics.accuracy.busy_s", "s", _busy("metrics.accuracy")),
    ("calibration.fit_temperature.calls", "count", _calls("calibration.fit_temperature")),
    ("calibration.fit_temperature.busy_s", "s", _busy("calibration.fit_temperature")),
    ("calibration.fit_temperature.pinned", "count", lambda s: s.count("calibration.fit_temperature", "pinned")),
    ("calibration.ece.busy_s", "s", _busy("calibration.ece")),
    ("corruption.corrupt.calls", "count", _calls("corruption.corrupt")),
    *(
        (f"corruption.corrupt.{kind}.busy_s", "s", _busy(f"corruption.corrupt.{kind}"))
        for kind in CORRUPTION_KINDS
    ),
    ("corruption.corrupt_dataset.busy_s", "s", _busy("corruption.corrupt_dataset")),
    ("corruption.worker_busy_share", "fraction", Summary.worker_busy_share),
    ("corruption.robustness_report.busy_s", "s", _busy("corruption.robustness_report")),
    ("fileio.atomic_write_bytes.calls", "count", _calls("fileio.atomic_write_bytes")),
    ("fileio.atomic_write_bytes.busy_s", "s", _busy("fileio.atomic_write_bytes")),
    ("fileio.save_image.busy_s", "s", _busy("fileio.save_image")),
    ("fileio.save_image.bytes", "bytes", lambda s: s.bytes_written_under("fileio.save_image")),
    ("fileio.load_image.calls", "count", _calls("fileio.load_image")),
    ("fileio.load_image.busy_s", "s", _busy("fileio.load_image")),
    ("fileio.load_image.bytes", "bytes", lambda s: s.count("fileio.load_image", "bytes")),
    ("fileio.checkpoint.busy_s", "s", _busy("fileio.save_checkpoint", "fileio.load_checkpoint")),
    ("fileio.bank.busy_s", "s", _busy(*_BANK_FILES)),
]


def layer_metrics(span_list: list[spans.Span]) -> dict[str, float]:
    summary = Summary(span_list)
    return {name: float(fn(summary)) for name, _, fn in PER_LAYER}
