"""The config layer: every config key and preset, and how a run resolves them.

This module declares each key once with its type, its default and, for a
ranged number or a name, its domain (``_CONFIG`` and its nested tables),
and the named layers (``PRESETS``). It merges preset < config file < flags
into one checked dict (``resolve_config``), loads the data that dict names
(``resolve_dataset``) and builds the run's ``TrainConfig``.
``pcbls.cli`` owns argv and the commands; a ``ConfigError`` exits 2 there.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

from . import datasets, fileio, models, schedules
from .fileio import FormatError
from .pacing import PacePlan
from .schedules import SmoothingSchedule
from .seeding import derive_seed
from .trainer import OPTIMIZERS, TASKS, TrainConfig, check_schedule


class ConfigError(ValueError):
    """User-facing configuration/validation problem (exit code 2)."""


# Every config key, declared once as key -> (type, default). A type is float
# (any number), int (an integer, or a float that is integral), str, a tuple
# of the strings a name may be, a _Range of float or int (a number in a
# domain), [t, t] (a JSON list of two t) or a nested table (a JSON object
# with its own keys).
# A key whose default is None may be null. _REQUIRED marks a key that has no
# default. A value given for a _DERIVED key is dropped: every run recomputes
# model_dims from the data, and a pace plan's epochs and n, which the run and
# the bank give, are only in resolved configs written when a plan held them.
_REQUIRED = object()
_DERIVED = object()


@dataclass(frozen=True)
class _Range:
    """A number type of the tables whose values must also be finite and lie
    in a domain: at least ``lo`` (above it when ``above``), below ``hi`` (at
    most ``hi`` when ``closed``) when one is given, and odd when ``odd``.
    Its str() is the domain as the errors and README give it."""

    kind: type
    lo: float
    hi: float | None = None
    above: bool = False
    closed: bool = False
    odd: bool = False

    def __str__(self) -> str:
        odd = "odd and " if self.odd else ""
        if self.hi is not None:
            return f"{odd}in {'(' if self.above else '['}{self.lo}, {self.hi}{']' if self.closed else ')'}"
        return f"{odd}{'above' if self.above else 'at least'} {self.lo}"

    def admits(self, value) -> bool:
        return (
            (value > self.lo if self.above else value >= self.lo)
            and (self.hi is None or (value <= self.hi if self.closed else value < self.hi))
            and (not self.odd or value % 2 == 1)
        )


_POSITIVE = _Range(int, 1)
_FRACTION = _Range(float, 0, 1, above=True)
_SHARE = _Range(float, 0, 1, above=True, closed=True)  # a pace plan's fractions, 1 included

# the defaults the tables share with the dataclasses a run is built from
_TRAIN = {f.name: f.default for f in fields(TrainConfig)}
_SMOOTH = {f.name: f.default for f in fields(SmoothingSchedule)}

_SCHEDULE = {
    "kind": (schedules.KINDS, _REQUIRED),
    "init": (float, _SMOOTH["init"]),
    "rate": (float, _SMOOTH["rate"]),
    "floor": (float, _SMOOTH["floor"]),
    "cap": (float, _SMOOTH["cap"]),
    "range": ([float, float], [_SMOOTH["range_lo"], _SMOOTH["range_hi"]]),
    "seed": (int, _SMOOTH["seed"]),
}

_PACE = {"lambda": (_SHARE, _REQUIRED), "e_all": (_SHARE, 0.4), "epochs": (_DERIVED, None), "n": (_DERIVED, None)}

# the fields of each dataset besides its name, by data.name
_DATA = {
    "blobs": {
        "classes": (_Range(int, 2), 8), "per_class": (_POSITIVE, 125), "per_class_val": (_POSITIVE, 40),
        "dim": (_POSITIVE, 16), "spread": (_Range(float, 0), 0.06), "label_noise": (_Range(float, 0, 1), 0.2),
    },
    "multilabel": {
        "labels": (_Range(int, 2), 8), "n": (_POSITIVE, 600), "n_val": (_POSITIVE, 250), "dim": (_POSITIVE, 16),
    },
    "shapes": {
        "height": (_Range(int, 16), 24), "width": (_Range(int, 16), 24), "foreground": (_POSITIVE, 3),
        "n": (_POSITIVE, 60), "n_val": (_POSITIVE, 20),
    },
    "cifar10": {"path": (str, _REQUIRED), "val_fraction": (_FRACTION, 0.1)},
    "dir": {"path": (str, _REQUIRED), "val_fraction": (_FRACTION, 0.2)},
}

_CONFIG = {
    "task": (tuple(TASKS), None),  # None: the dataset's task
    "arch": (models.ARCHITECTURES, None),
    "hidden": (_POSITIVE, 32),
    "channels": ([_POSITIVE, _POSITIVE], [8, 8]),
    "epochs": (_POSITIVE, 20),
    "batch_size": (_POSITIVE, _TRAIN["batch_size"]),
    "optimizer": (OPTIMIZERS, _TRAIN["optimizer"]),
    "lr": (_Range(float, 0, above=True), _TRAIN["lr"]),
    "momentum": (_Range(float, 0, 1), _TRAIN["momentum"]),
    "weight_decay": (_Range(float, 0), _TRAIN["weight_decay"]),
    "lr_decay_factor": (_Range(float, 0, above=True), _TRAIN["lr_decay_factor"]),
    "schedule": (_SCHEDULE, None),
    "svls_schedule": (_SCHEDULE, None),
    "svls_kernel": (_Range(int, 1, odd=True), _TRAIN["svls_kernel"]),
    "pace": (_PACE, None),
    "bank": (str, None),
    "granularity": (("sample", "pixel"), None),  # None: train takes the bank's (_train_bank), bank a sample
    "data": (_DATA, {"name": "blobs"}),
    "seed": (int, _TRAIN["seed"]),
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


def _defaults(table: dict) -> dict:
    """The keys of ``table`` that have a default, each at its own copy."""
    return {
        key: default.copy() if isinstance(default, (list, dict)) else default
        for key, (kind, default) in table.items()
        if kind is not _DERIVED and default is not _REQUIRED
    }


def _typed(value, kind, path: str):
    """``value`` as a ``kind`` of the table. Booleans are refused by name (a
    JSON true is a Python int), an int is taken from an integral float, and
    a tuple or a _Range refuses a value outside its domain."""
    if isinstance(kind, tuple):
        if _typed(value, str, path) not in kind:
            raise ConfigError(f"{path} must be one of {', '.join(kind)}, got {value!r}")
        return value
    if isinstance(kind, _Range):
        value = _typed(value, kind.kind, path)
        if kind.kind is float and not math.isfinite(value):
            raise ConfigError(f"{path} must be finite, got {value!r}")
        if not kind.admits(value):
            raise ConfigError(f"{path} must be {kind}, got {value!r}")
        return value
    if isinstance(kind, list):
        if not isinstance(value, list) or len(value) != len(kind):
            each = kind[0].kind if isinstance(kind[0], _Range) else kind[0]
            raise ConfigError(f"{path} must be a list of two {_TYPE_NAMES[each]}s, got {value!r}")
        return [_typed(v, k, path) for v, k in zip(value, kind)]
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{path} must be {'an' if kind is int else 'a'} {_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _merge(into: dict, layer: dict, table: dict, path: str = "") -> None:
    """Merge one layer of settings (a preset, a config file, the flags) into
    ``into`` through ``table``. A key unknown at any depth is refused by its
    dotted path, each value is coerced to its declared type, and the caller
    names the layer in the error (``_layer``). A JSON object replaces the one
    below it, filled with its table's defaults; ``data`` is updated instead
    when it names the same dataset or none, and its fields are checked once
    all layers are in (see resolve_config)."""
    for key, value in layer.items():
        if key not in table:
            import difflib  # here, not at module level: only this error path uses it

            near = difflib.get_close_matches(key, table, n=1)
            hint = f" (did you mean {path + near[0]!r}?)" if near else ""
            raise ConfigError(f"unknown config key {path + key!r}{hint}")
        kind, default = table[key]
        if kind is _DERIVED:
            continue
        if value is None and default is None:
            into[key] = None
        elif not isinstance(kind, dict):
            into[key] = _typed(value, kind, path + key)
        elif not isinstance(value, dict):
            raise ConfigError(f"{path + key!r} must be a JSON object, got {value!r}")
        elif kind is _DATA:
            below = into[key]
            same = value.get("name", below["name"]) == below["name"]
            into[key] = {**below, **value} if same else {"name": value["name"], **value}
        else:
            into[key] = _defaults(kind)
            _merge(into[key], value, kind, f"{path}{key}.")
    for key, (kind, default) in table.items():
        if default is _REQUIRED and key not in into:
            _typed(None, kind, path + key)


@contextmanager
def _layer(source: str):
    """Prefix a ConfigError raised inside with the layer whose value it
    refuses: a preset, a config file or the flags."""
    try:
        yield
    except ConfigError as e:
        raise ConfigError(f"{source}: {e}") from None


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
    set_by = {}  # the layer that set each schedule key and epochs last

    def merge(layer: dict, source: str) -> None:
        set_by.update((key, source) for key in ("schedule", "svls_schedule", "epochs") if key in layer)
        data = layer.get("data")
        if isinstance(data, dict):
            if "name" in data:
                for key in data:
                    nameless.pop(key, None)
            else:
                nameless.update(data)
        with _layer(source):
            _merge(cfg, layer, _CONFIG)

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
    # one layer gave each schedule whole; the epochs it is checked over may be another's
    for key in ("schedule", "svls_schedule"):
        source = set_by.get(key)
        with _layer(source):
            schedule = _schedule(cfg, key)
            try:
                check_schedule(key, schedule, cfg["epochs"])
            except ValueError as e:
                by = set_by.get("epochs", source)
                raise ConfigError(e if by == source else f"{e} (epochs {cfg['epochs']} from {by})") from None
    # the data fields are checked against the dataset named last: a --data of
    # another dataset replaces the fields given with a dataset name
    data = {**cfg["data"], **nameless}
    with _layer(getattr(args, "config", None) or "flags"):
        name = _typed(data["name"], tuple(_DATA), "data.name")
        cfg["data"] = {}
        _merge(cfg["data"], data, {"name": (str, _REQUIRED), **_DATA[name]}, "data.")
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
    load = datasets.load_cifar10 if name == "cifar10" else datasets.load_image_dataset
    try:
        ds = load(data["path"])
    except (OSError, FormatError) as e:
        what = "CIFAR-10 from" if name == "cifar10" else "dataset dir"
        raise ConfigError(f"cannot load {what} {data['path']}: {e}") from e
    return datasets.split_dataset(ds, data["val_fraction"], derive_seed(cfg["seed"], "split"))


def build_train_config(cfg: dict, train_ds) -> TrainConfig:
    task = cfg["task"]
    arch = cfg["arch"] or TASKS[task].arch
    spec = models.spec_for(arch, train_ds.inputs.shape, cfg["hidden"], cfg["channels"], train_ds.num_classes)
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
        pace=PacePlan(lam=cfg["pace"]["lambda"], e_all=cfg["pace"]["e_all"]) if cfg["pace"] else None,
    )


def _schedule(cfg: dict, key: str) -> SmoothingSchedule | None:
    """The schedule under ``key``, with a value it refuses named by that key."""
    if cfg[key] is None:
        return None
    fields = dict(cfg[key])
    fields["range_lo"], fields["range_hi"] = fields.pop("range")
    try:
        return SmoothingSchedule(**fields)
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

