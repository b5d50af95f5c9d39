"""Command-line front end.

Subcommands: train, bank, corrupt, eval, calibrate, report. Every run hangs
off one --seed; a preset (workflow_cls, tool_cls, segmentation, anti,
random, linear, ls: the PRESETS table) is a config layer that supplies
defaults, a JSON config file can override them, and explicit flags win over
both. The fully resolved configuration is persisted next to each run's
outputs so any run can be replayed exactly.

Exit codes: 0 success, 1 runtime failure, 2 configuration/validation error,
3 training stopped at a non-finite loss (the message names the epoch and
the batch) or at non-finite parameters after an epoch (it names the epoch).
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys
from pathlib import Path

import numpy as np

from . import corruption, datasets, fileio, models, trainer
from .calibration import apply_temperature, ece, fit_temperature, nll
from .fileio import FormatError, format_float
from .metrics import accuracy, brier, iou_dice, mean_average_precision
from .numerics import sigmoid
from .pacing import PacePlan
from .schedules import SmoothingSchedule
from .seeding import derive_seed
from .trainer import TrainConfig


class ConfigError(ValueError):
    """User-facing configuration/validation problem (exit code 2)."""


# ---------------------------------------------------------------------------
# config resolution


# Every config key, declared once as key -> (type, default). A type is float
# (any number), int (an integer, or a float that is integral), str, [t, t]
# (a JSON list of two t) or a nested table (a JSON object with its own keys).
# A key whose default is None may be null. _REQUIRED marks a key that has no
# default. A _DERIVED key is recomputed by every run from the data, so a
# value given for it (as a replayed resolved_config.json gives) is dropped.
_REQUIRED = object()
_DERIVED = object()

_SCHEDULE = {
    "kind": (str, _REQUIRED),
    "init": (float, 0.0),
    "rate": (float, 0.0),
    "floor": (float, 0.0),
    "cap": (float, 0.5),
    "range": ([float, float], [0.0, 0.5]),
    "seed": (int, 0),
}

_PACE = {"lambda": (float, _REQUIRED), "e_all": (float, 0.4), "epochs": (_DERIVED, None), "n": (_DERIVED, None)}

# the fields of each dataset besides its name, by data.name
_DATA = {
    "blobs": {
        "classes": (int, 8), "per_class": (int, 125), "per_class_val": (int, 40), "dim": (int, 16),
        "spread": (float, 0.06), "label_noise": (float, 0.2),
    },
    "multilabel": {"labels": (int, 8), "n": (int, 600), "n_val": (int, 250), "dim": (int, 16)},
    "shapes": {"height": (int, 24), "width": (int, 24), "foreground": (int, 3), "n": (int, 60), "n_val": (int, 20)},
    "cifar10": {"path": (str, _REQUIRED), "val_fraction": (float, 0.1)},
    "dir": {"path": (str, _REQUIRED), "val_fraction": (float, 0.2)},
}

_CONFIG = {
    "task": (str, None),  # None: the dataset's task
    "arch": (str, None),
    "hidden": (int, 32),
    "channels": ([int, int], [8, 8]),
    "epochs": (int, 20),
    "batch_size": (int, 32),
    "optimizer": (str, "sgd"),
    "lr": (float, 5e-3),
    "momentum": (float, 0.9),
    "weight_decay": (float, 5e-3),
    "lr_decay_factor": (float, 0.1),
    "schedule": (_SCHEDULE, None),
    "svls_schedule": (_SCHEDULE, None),
    "svls_kernel": (int, 3),
    "pace": (_PACE, None),
    "bank": (str, None),
    "granularity": (str, None),  # None: train takes the bank's (see _train_bank), bank builds a sample bank
    "data": (_DATA, {"name": "blobs"}),
    "seed": (int, 0),
    "model_dims": (_DERIVED, None),
}

# Named config layers, in the config-file dialect, for the paper's setups
# and the ablation schedules. A preset's "pace" plan is held back until
# --pace applies it.
PRESETS = {
    "workflow_cls": {
        "task": "multiclass", "optimizer": "sgd", "lr": 5e-3, "momentum": 0.9, "weight_decay": 5e-3,
        "lr_decay_factor": 0.1, "schedule": {"kind": "exponential", "init": 0.5, "rate": 0.9},
        "pace": {"lambda": 0.6, "e_all": 0.4},
    },
    "tool_cls": {
        "task": "multilabel", "optimizer": "adam", "lr": 1e-4,
        "schedule": {"kind": "exponential", "init": 0.5, "rate": 0.9}, "pace": {"lambda": 0.6, "e_all": 0.4},
    },
    "segmentation": {
        "task": "segmentation", "optimizer": "adam", "lr": 1e-4,
        "schedule": {"kind": "exponential", "init": 0.6, "rate": 0.9},
        "svls_schedule": {"kind": "exponential", "init": 0.9, "rate": 0.5}, "svls_kernel": 3,
        "pace": {"lambda": 0.8, "e_all": 0.4},
    },
    "anti": {"schedule": {"kind": "anti", "init": 0.005, "rate": 1.1, "cap": 0.5}},
    "random": {"schedule": {"kind": "random", "range": [0.0, 0.5], "seed": 0}},
    "linear": {"schedule": {"kind": "linear", "init": 0.5, "rate": 0.015}},
    "ls": {"schedule": {"kind": "constant", "init": 0.1}},
}

_TYPE_NAMES = {float: "number", int: "integer", str: "string"}

_DEFAULT_ARCH = {"multiclass": "mlp", "multilabel": "mlp", "segmentation": "tiny_fcn"}


def _defaults(table: dict) -> dict:
    """The keys of ``table`` that have a default, each at its own copy."""
    return {
        key: default.copy() if isinstance(default, (list, dict)) else default
        for key, (kind, default) in table.items()
        if kind is not _DERIVED and default is not _REQUIRED
    }


def _typed(value, kind, path: str):
    """``value`` as a ``kind`` of the table. Booleans are refused by name (a
    JSON true is a Python int), and an int is taken from an integral float."""
    if isinstance(kind, list):
        if not isinstance(value, list) or len(value) != len(kind):
            raise ConfigError(f"{path} must be a list of two {_TYPE_NAMES[kind[0]]}s, got {value!r}")
        return [_typed(v, k, path) for v, k in zip(value, kind)]
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{path} must be {'an' if kind is int else 'a'} {_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _merge(into: dict, layer: dict, table: dict, source: str, path: str = "") -> None:
    """Merge one layer of settings (a preset, a config file, the flags) into
    ``into`` through ``table``. A key unknown at any depth is refused by its
    dotted path, and each value is coerced to its declared type. A JSON
    object replaces the one below it, filled with its table's defaults;
    ``data`` is updated instead when it names the same dataset or none, and
    its fields are checked once all layers are in (see resolve_config)."""
    for key, value in layer.items():
        if key not in table:
            near = difflib.get_close_matches(key, table, n=1)
            hint = f" (did you mean {path + near[0]!r}?)" if near else ""
            raise ConfigError(f"{source}: unknown config key {path + key!r}{hint}")
        kind, default = table[key]
        if kind is _DERIVED:
            continue
        if value is None and default is None:
            into[key] = None
        elif not isinstance(kind, dict):
            into[key] = _typed(value, kind, path + key)
        elif not isinstance(value, dict):
            raise ConfigError(f"{source}: {path + key!r} must be a JSON object, got {value!r}")
        elif kind is _DATA:
            below = into[key]
            same = value.get("name", below["name"]) == below["name"]
            into[key] = {**below, **value} if same else {"name": value["name"], **value}
        else:
            into[key] = _defaults(kind)
            _merge(into[key], value, kind, source, f"{path}{key}.")
    for key, (kind, default) in table.items():
        if default is _REQUIRED and key not in into:
            _typed(None, kind, path + key)


def _read_config_file(path) -> dict:
    """A --config file or a run's resolved_config.json: a JSON object, or a
    ConfigError naming the file."""
    try:
        obj = fileio.load_json(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return obj


def resolve_config(args) -> dict:
    """preset < config file < CLI flags, each layer merged through _CONFIG,
    into one dict that holds every top-level key with a value of its type.

    A ``data`` object that names no dataset sets fields of the dataset named
    last, even when a later layer names another one; a later layer that
    names its dataset wins where it sets the same field."""
    cfg = _defaults(_CONFIG)
    nameless = {}  # data fields whose last layer named no dataset

    def merge(layer: dict, source: str) -> None:
        data = layer.get("data")
        if isinstance(data, dict):
            if "name" in data:
                for key in data:
                    nameless.pop(key, None)
            else:
                nameless.update(data)
        _merge(cfg, layer, _CONFIG, source)

    held_pace = None  # the preset's pace plan, applied by --pace
    preset = getattr(args, "preset", None)
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (known: {', '.join(PRESETS)})")
        layer = dict(PRESETS[preset])
        held_pace = layer.pop("pace", None)
        merge(layer, f"preset {preset!r}")
    if getattr(args, "config", None):
        merge(_read_config_file(args.config), args.config)
    flags = {key: getattr(args, key, None) for key in ("epochs", "batch_size", "seed", "bank", "arch", "granularity")}
    if getattr(args, "data", None):
        flags["data"] = _parse_data_spec(args.data)
    pace, lam, e_all = cfg["pace"], getattr(args, "pace_lambda", None), getattr(args, "pace_e_all", None)
    if lam is not None:
        pace = {**(pace or {}), "lambda": lam}
    elif getattr(args, "pace", False) and pace is None:
        if held_pace is None:
            raise ConfigError("--pace needs a preset that defines a pace plan, or --pace-lambda")
        pace = held_pace
    if e_all is not None:
        if pace is None:
            raise ConfigError(
                "--pace-e-all needs a pace plan: --pace with a preset that defines one, --pace-lambda or a config 'pace'"
            )
        pace = {**pace, "e_all": e_all}
    flags["pace"] = pace
    merge({key: value for key, value in flags.items() if value is not None}, "flags")
    # the data fields are checked against the dataset named last: a --data of
    # another dataset replaces the fields given with a dataset name
    data = {**cfg["data"], **nameless}
    name = _typed(data["name"], str, "data.name")
    if name not in _DATA:
        raise ConfigError(f"unknown data source {name!r}")
    cfg["data"] = {}
    _merge(cfg["data"], data, {"name": (str, _REQUIRED), **_DATA[name]}, getattr(args, "config", None), "data.")
    return cfg


def _parse_data_spec(spec: str) -> dict:
    """--data NAME for a generated dataset, NAME:PATH for one read from files."""
    name, colon, path = spec.partition(":")
    if name not in _DATA or bool(colon) != ("path" in _DATA[name]):
        raise ConfigError(f"unknown data spec {spec!r} (try blobs, multilabel, shapes, cifar10:<path>, dir:<path>)")
    return {"name": name, "path": path} if colon else {"name": name}


def resolve_dataset(cfg: dict):
    """The (train, val) datasets of a resolved config. A config ``task``
    (None: the dataset's) that is not the dataset's task is refused."""
    train_ds, val_ds = _datasets(cfg)
    if cfg["task"] not in (None, train_ds.task):
        raise ConfigError(
            f"task {cfg['task']!r} does not match the {cfg['data']['name']} dataset, whose task is {train_ds.task!r}"
        )
    return train_ds, val_ds


def _datasets(cfg: dict):
    """The (train, val) datasets of cfg["data"]; a data field that it does
    not give takes its _DATA default."""
    name = cfg["data"]["name"]
    data = {**_defaults(_DATA[name]), **cfg["data"]}
    data_seed = derive_seed(cfg["seed"], "data")
    if name == "blobs":
        train_ds = datasets.gen_blobs(
            data["classes"], data["per_class"], data["dim"], data["spread"],
            data["label_noise"], seed=data_seed, split="train",
        )
        val_ds = datasets.gen_blobs(
            data["classes"], data["per_class_val"], data["dim"], data["spread"],
            0.0, seed=data_seed, split="val",
        )
        return train_ds, val_ds
    if name == "multilabel":
        train_ds = datasets.gen_multilabel(data["labels"], data["n"], data["dim"], seed=data_seed, split="train")
        val_ds = datasets.gen_multilabel(data["labels"], data["n_val"], data["dim"], seed=data_seed, split="val")
        return train_ds, val_ds
    if name == "shapes":
        train_ds = datasets.gen_shapes_seg(
            data["height"], data["width"], data["foreground"], data["n"], seed=data_seed, split="train"
        )
        val_ds = datasets.gen_shapes_seg(
            data["height"], data["width"], data["foreground"], data["n_val"], seed=data_seed, split="val"
        )
        return train_ds, val_ds
    if name == "cifar10":
        try:
            ds = datasets.load_cifar10(data["path"])
        except (OSError, FormatError) as e:
            raise ConfigError(f"cannot load CIFAR-10 from {data['path']}: {e}") from e
    else:
        try:
            ds = datasets.load_image_dataset(data["path"])
        except (OSError, FormatError) as e:
            raise ConfigError(f"cannot load dataset dir {data['path']}: {e}") from e
    return datasets.split_dataset(ds, data["val_fraction"], derive_seed(cfg["seed"], "split"))


def _features(arch: str, inputs: np.ndarray) -> np.ndarray:
    if arch == "tiny_fcn":
        return inputs
    if inputs.ndim > 2:
        return inputs.reshape(len(inputs), -1)
    return inputs


def build_train_config(cfg: dict, train_ds) -> TrainConfig:
    task = cfg["task"]
    arch = cfg["arch"] or _DEFAULT_ARCH[task]
    inputs = _features(arch, train_ds.inputs)
    if arch == "tiny_fcn":
        spec = models.ModelSpec("tiny_fcn", (train_ds.inputs.shape[3], *cfg["channels"], train_ds.num_classes))
    elif arch == "mlp":
        spec = models.ModelSpec("mlp", (inputs.shape[1], cfg["hidden"], train_ds.num_classes))
    elif arch == "linear_softmax":
        spec = models.ModelSpec("linear_softmax", (inputs.shape[1], train_ds.num_classes))
    else:
        raise ConfigError(f"unknown architecture {arch!r}")
    pace = None
    if cfg["pace"] is not None:
        n = train_ds.targets.size if cfg["granularity"] == "pixel" else len(train_ds)
        pace = PacePlan(lam=cfg["pace"]["lambda"], e_all=cfg["pace"]["e_all"], epochs=cfg["epochs"], n=n)
    return TrainConfig(
        task=task,
        model=spec,
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        optimizer=cfg["optimizer"],
        lr=cfg["lr"],
        momentum=cfg["momentum"],
        weight_decay=cfg["weight_decay"],
        lr_decay_factor=cfg["lr_decay_factor"],
        seed=cfg["seed"],
        uls_schedule=_schedule(cfg, "schedule"),
        svls_schedule=_schedule(cfg, "svls_schedule"),
        svls_kernel=cfg["svls_kernel"],
        pace=pace,
    )


def _schedule(cfg: dict, key: str) -> SmoothingSchedule | None:
    """The schedule under ``key``, with a value it refuses named by that key."""
    if cfg[key] is None:
        return None
    try:
        return SmoothingSchedule.from_dict(cfg[key])
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from e


def _resolved_dict(cfg: dict, tc: TrainConfig) -> dict:
    out = dict(cfg)
    out["arch"] = tc.model.architecture
    out["model_dims"] = list(tc.model.dims)
    out["pace"] = tc.pace.to_dict() if tc.pace else None
    out["schedule"] = tc.uls_schedule.to_dict() if tc.uls_schedule else None
    out["svls_schedule"] = tc.svls_schedule.to_dict() if tc.svls_schedule else None
    return out


# ---------------------------------------------------------------------------
# subcommands


def _out_dir(path: str) -> Path:
    """The --out directory a command writes its files into; refused before
    any work when it names an existing entry that is not a directory."""
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"--out {out} is an existing file, not a directory")
    return out


def _out_file(path: str) -> Path:
    """The twin of _out_dir for a command that writes one file: an --out
    that names an existing directory is refused before any work."""
    if Path(path).is_dir():
        raise ConfigError(f"--out {path} is an existing directory, not a file")
    return Path(path)


def _train_bank(cfg: dict):
    """A paced run's bank as what it is (a directory is an (N,H,W) pixel
    bank, a file a SampleBank), or None. It sets cfg["granularity"] (sample
    with no bank); a given value that differs is refused, naming both."""
    path = None if cfg["bank"] is None else Path(cfg["bank"])
    if cfg["pace"] is None and path is not None:
        raise ConfigError(
            f"bank {path} is given but no pace plan is active: "
            "add --pace with a preset that defines one, --pace-lambda or a config 'pace'"
        )
    if cfg["pace"] is not None and path is None:
        raise ConfigError("pacing is enabled but no --bank was given")
    if path is not None and not path.exists():
        raise ConfigError(f"bank file not found: {path}")
    implied = "pixel" if path is not None and path.is_dir() else "sample"
    if cfg["granularity"] not in (None, implied):
        of = f"the bank {path}" if path is not None else "a run without a bank"
        raise ConfigError(f"granularity {cfg['granularity']!r} contradicts {of}, whose granularity is {implied!r}")
    cfg["granularity"] = implied
    if path is not None:
        return fileio.load_pixel_bank(path) if implied == "pixel" else fileio.load_bank(path)


def cmd_train(args) -> int:
    out_dir = _out_dir(args.out or "run")
    cfg = resolve_config(args)
    train_ds, val_ds = resolve_dataset(cfg)
    cfg["task"] = train_ds.task
    bank = _train_bank(cfg)
    tc = build_train_config(cfg, train_ds)
    x_train = _features(tc.model.architecture, train_ds.inputs)
    x_val = _features(tc.model.architecture, val_ds.inputs)
    result = trainer.train(tc, x_train, train_ds.targets, x_val, val_ds.targets, train_ds.num_classes, bank=bank)
    out_dir.mkdir(parents=True, exist_ok=True)
    header, rows = trainer.records_to_csv(tc.task, result.records)
    fileio.save_csv(out_dir / "metrics.csv", header, rows)
    fileio.save_checkpoint(out_dir / "checkpoint.pckpt", tc.model, result.params, tc.epochs)
    fileio.save_json(out_dir / "resolved_config.json", _resolved_dict(cfg, tc))
    final = result.records[-1]
    metrics = " ".join(f"{k}={v:.4f}" for k, v in final.val_metrics.items())
    print(f"trained {tc.epochs} epochs; final {metrics}; outputs in {out_dir}")
    return 0


def _load_checkpoint_run(cfg: dict, checkpoint: str):
    """What bank, eval and calibrate score: the resolved config's (train, val)
    datasets, the checkpoint's spec and params (missing or malformed: exit
    2) and each dataset's features, checked to fit the model."""
    train_ds, val_ds = resolve_dataset(cfg)
    path = Path(checkpoint)
    if not path.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    spec, params, _ = fileio.load_checkpoint(path)
    x_train = _features(spec.architecture, train_ds.inputs)
    x_val = _features(spec.architecture, val_ds.inputs)
    try:
        classes = models.forward(spec, np.zeros(spec.param_count()), x_val[:1]).shape[-1]
    except ValueError as e:
        raise ConfigError(f"checkpoint does not fit this dataset: {e}") from e
    if classes != val_ds.num_classes:
        raise ConfigError(f"checkpoint predicts {classes} classes but dataset has {val_ds.num_classes}")
    return train_ds, val_ds, spec, params, x_train, x_val


def cmd_bank(args) -> int:
    cfg = resolve_config(args)
    granularity = cfg["granularity"] or "sample"
    if granularity not in ("sample", "pixel"):
        raise ConfigError(f"granularity must be 'sample' or 'pixel', got {granularity!r}")
    (_out_dir if granularity == "pixel" else _out_file)(args.out)
    train_ds, val_ds, spec, params, x_train, x_val = _load_checkpoint_run(cfg, args.checkpoint)
    temperature = 1.0
    if args.variant == "ts":
        if train_ds.task != "multiclass":
            raise ConfigError("temperature-scaled banks require the multiclass task")
        tm = fit_temperature(models.forward(spec, params, x_val), val_ds.targets)
        _warn_if_pinned(tm)
        temperature = tm.temperature
    if granularity == "pixel":
        if train_ds.task != "segmentation":
            raise ConfigError("pixel banks require the segmentation task")
        maps = trainer.score_pixel_bank(spec, params, x_train, train_ds.targets)
        fileio.save_pixel_bank(args.out, maps)
        print(f"wrote pixel bank for {len(maps)} samples to {args.out}")
        return 0
    bank = trainer.score_training_set(
        spec, train_ds.task, params, x_train, train_ds.targets, variant=args.variant, temperature=temperature
    )
    fileio.save_bank(args.out, bank)
    extra = f" (T={temperature:.4f})" if args.variant == "ts" else ""
    print(f"wrote {len(bank)}-sample bank ({bank.source}){extra} to {args.out}")
    return 0


def _corruption_lists(args) -> tuple[list[str], list[int]]:
    """--kinds and --severities as lists: known, in range and each named once."""
    kinds = list(corruption.KINDS) if args.kinds == "all" else [k for k in args.kinds.split(",") if k]
    if not kinds:
        raise ConfigError("--kinds names no corruption kind")
    severities = []
    for s in args.severities.split(","):
        try:
            severities.append(int(s))
        except ValueError:
            raise ConfigError(f"--severities: {s!r} is not an integer") from None
    corruption.check_plan(kinds, severities)
    return kinds, severities


def cmd_corrupt(args) -> int:
    cfg = resolve_config(args)
    kinds, severities = _corruption_lists(args)
    out_dir = _out_dir(args.out or "corrupted")
    _, val_ds = resolve_dataset(cfg)
    rows = corruption.corrupt_dataset(
        datasets.as_images(val_ds.inputs), kinds, severities, derive_seed(cfg["seed"], "corruption"), out_dir
    )
    fileio.save_csv(
        out_dir / "labels.csv", ["id", "label"],
        [[i, int(val_ds.targets[i])] for i in range(len(val_ds))] if val_ds.task == "multiclass" else [],
    )
    print(f"wrote {len(rows)} corrupted images + manifest to {out_dir}")
    return 0


def _manifest_row(r: list[str], n_val: int) -> tuple[int, str, int, str]:
    orig_id, kind, severity, path = r
    try:
        orig_id, severity = int(orig_id), int(severity)
    except ValueError:
        raise ValueError("orig_id and severity must be integers") from None
    if not (0 <= orig_id < n_val):
        raise ValueError(f"orig_id {orig_id} is not one of the {n_val} validation images")
    corruption.check_plan([kind], [severity])
    fileio.check_inside(path, "the manifest's directory")
    return orig_id, kind, severity, path


def _read_manifest(path: Path, n_val: int) -> list[tuple[int, str, int, str]]:
    """The rows of a corruption manifest, each checked before any image is
    read: an orig_id among the n_val validation images, a known kind, a
    severity in 1..5 and a relative path inside the manifest's directory. A
    bad row fails with its line number."""
    return fileio._load_table(path, ["orig_id", "kind", "severity", "path"], lambda r: _manifest_row(r, n_val))


def cmd_eval(args) -> int:
    out = _out_file(args.out or "eval.csv")
    _, val_ds, spec, params, _, x_val = _load_checkpoint_run(resolve_config(args), args.checkpoint)
    if args.manifest:
        if val_ds.task != "multiclass":
            raise ConfigError("robustness evaluation requires a multiclass dataset")
        manifest_path = Path(args.manifest)
        if not manifest_path.exists():
            raise ConfigError(f"manifest not found: {manifest_path}")
        rows = _read_manifest(manifest_path, len(val_ds))
        base = os.fspath(manifest_path.parent)
        want = datasets.as_images(val_ds.inputs).shape[1:]  # the shape cmd_corrupt wrote

        def where(path):
            line = next(i for i, r in enumerate(rows, start=2) if r[3] == path)
            return f"{manifest_path} line {line} ({path})"

        def load_row_image(path):
            try:
                img = fileio.load_image(os.path.join(base, path))
            except OSError as e:
                raise ConfigError(f"{where(path)}: cannot read the image: {e.strerror}") from e
            if img.shape != want:
                raise ConfigError(f"{where(path)}: image shape {img.shape}, but the validation images are {want}")
            return img

        def evaluate_images(images):
            return np.argmax(models.forward(spec, params, _features(spec.architecture, images)), axis=1)

        clean_preds = np.argmax(models.forward(spec, params, x_val), axis=1)
        clean_acc = accuracy(clean_preds, val_ds.targets)
        header, table = corruption.robustness_report(
            evaluate_images, rows, load_row_image, val_ds.targets, clean_acc
        )
        fileio.save_csv(out, header, table)
        print(f"robustness table ({len(table) - 1} kinds) written to {out}")
        return 0
    logits = models.forward(spec, params, x_val)
    if val_ds.task == "multiclass":
        rows = [["val_accuracy", format_float(accuracy(np.argmax(logits, axis=1), val_ds.targets))]]
    elif val_ds.task == "multilabel":
        value, skipped = mean_average_precision(sigmoid(logits), val_ds.targets)
        rows = [["val_map", format_float(value)], ["skipped_labels", ";".join(map(str, skipped))]]
    else:
        preds = np.argmax(logits, axis=-1)
        _, miou, mdice = iou_dice(preds, val_ds.targets, val_ds.num_classes)
        rows = [["val_miou", format_float(miou)], ["val_mdice", format_float(mdice)]]
    fileio.save_csv(out, ["metric", "value"], rows)
    print(f"metrics written to {out}")
    return 0


def _warn_if_pinned(tm) -> None:
    if tm.pinned:
        print(
            f"warning: fitted T={tm.temperature:.6f} is pinned at the edge of the "
            "temperature search window; the validation NLL may keep falling beyond it",
            file=sys.stderr,
        )


def cmd_calibrate(args) -> int:
    out_dir = _out_dir(args.out or "calibration")
    _, val_ds, spec, params, _, x_val = _load_checkpoint_run(resolve_config(args), args.checkpoint)
    if val_ds.task != "multiclass":
        raise ConfigError("calibration requires a multiclass dataset")
    logits = models.forward(spec, params, x_val)
    tm = fit_temperature(logits, val_ds.targets)
    probs = apply_temperature(logits, 1.0)
    confidences = probs.max(axis=1)
    correct = np.argmax(logits, axis=1) == np.asarray(val_ds.targets)
    report = ece(
        confidences, correct, bins=args.bins,
        brier_score=brier(probs, val_ds.targets),
        nll_score=nll(logits, val_ds.targets, 1.0),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _warn_if_pinned(tm)
    fileio.save_json(
        out_dir / "temperature.json",
        {
            "temperature": tm.temperature,
            "nll_at_1": nll(logits, val_ds.targets, 1.0),
            "nll_fitted": nll(logits, val_ds.targets, tm.temperature),
            "pinned": tm.pinned,
        },
    )
    rows = [["summary", format_float(report.ece), format_float(report.brier), format_float(report.nll), ""]]
    for b in range(report.bins):
        rows.append(
            [
                f"bin{b}",
                format_float(report.bin_confidence[b]),
                format_float(report.bin_accuracy[b]),
                "",
                str(int(report.bin_count[b])),
            ]
        )
    fileio.save_csv(out_dir / "calibration.csv", ["row", "ece_or_conf", "brier_or_acc", "nll", "count"], rows)
    print(f"fitted T={tm.temperature:.4f}; ECE={report.ece:.6f}; outputs in {out_dir}")
    return 0


_REPORT_METRICS = ["val_accuracy", "val_map", "val_miou", "val_mdice", "train_loss"]


def cmd_report(args) -> int:
    out = _out_file(args.out or "report.csv")
    header = ["run", "task", "epochs"] + _REPORT_METRICS
    out_rows = []
    for run_dir in args.runs:
        run = Path(run_dir)
        metrics_path = run / "metrics.csv"
        if not metrics_path.exists():
            raise ConfigError(f"no metrics.csv in {run}")
        mh, mrows = fileio.load_csv(metrics_path)
        if not mrows:
            raise ConfigError(f"{metrics_path}: no epochs recorded")
        final = dict(zip(mh, mrows[-1]))
        task = "?"
        cfg_path = run / "resolved_config.json"
        if cfg_path.exists():
            task = _read_config_file(cfg_path).get("task", "?")
        row = [str(run), task, str(len(mrows))]
        for metric in _REPORT_METRICS:
            row.append(final.get(metric, "NA") or "NA")
        out_rows.append(row)
    fileio.save_csv(out, header, out_rows)
    print(f"comparison table for {len(out_rows)} runs written to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, out_required: bool = False) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="base seed for all derived randomness")
    p.add_argument("--out", required=out_required, help="output file or directory")
    p.add_argument("--preset", help=f"named config layer: {', '.join(PRESETS)}")
    p.add_argument("--data", help="dataset spec: blobs | multilabel | shapes | cifar10:<path> | dir:<path>")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcbls", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model (baseline, curriculum, or paced)")
    _add_common(p)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--arch", choices=list(models.ARCHITECTURES))
    p.add_argument("--bank", help="sample-bank CSV or pixel-bank directory; the bank sets the pacing granularity")
    p.add_argument("--pace", action="store_true", help="enable the preset's pace plan")
    p.add_argument("--pace-lambda", dest="pace_lambda", type=float, help="initial active fraction of a pace plan")
    p.add_argument("--pace-e-all", dest="pace_e_all", type=float, help="epoch fraction of the active pace plan")

    p = sub.add_parser("bank", help="score a training set with a frozen checkpoint")
    _add_common(p, out_required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--variant", choices=["plain", "ts", "ls"], default="plain")
    p.add_argument(
        "--granularity", choices=["sample", "pixel"],
        help="sample-bank CSV or pixel-bank dir; default: the config's granularity, else sample",
    )

    p = sub.add_parser("corrupt", help="corrupt a dataset's validation images")
    _add_common(p)
    p.add_argument("--kinds", default="all", help="comma list of kinds, or 'all'")
    p.add_argument("--severities", default="1,2,3,4,5")

    p = sub.add_parser("eval", help="evaluate a checkpoint on clean or corrupted data")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", help="corruption manifest for a robustness table")

    p = sub.add_parser("calibrate", help="fit a temperature + calibration report")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bins", type=int, default=10)

    p = sub.add_parser("report", help="comparison table across run directories")
    p.add_argument("runs", nargs="+")
    p.add_argument("--out")

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # one parser per process (a build takes 1.5-2 ms); the command is looked
    # up by name on each call, so a cmd_* replaced after the build still runs
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (trainer.NonFiniteLoss, trainer.NonFiniteParameters) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:  # ConfigError and FormatError among them
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
