"""Command-line front end.

Subcommands: train, bank, corrupt, eval, calibrate, report. Every run hangs
off one --seed; a preset (workflow_cls, tool_cls, segmentation, anti,
random, linear, ls: the PRESETS table) is a config layer that supplies
defaults, a JSON config file can override them, and explicit flags win over
both. The fully resolved configuration is persisted next to each run's
outputs so any run can be replayed exactly.

This module owns argv and the commands; each ``cmd_*`` resolves its settings
and data through ``pcbls.config``, which owns every config key and preset
(``resolve_config``, ``resolve_dataset``, ``PRESETS`` and ``ConfigError`` are
bound here too).

Exit codes: 0 success, 1 runtime failure, 2 configuration/validation error,
3 training stopped at a non-finite loss (the message names the epoch and
the batch) or at non-finite parameters after an epoch (it names the epoch).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import config, corruption, datasets, fileio, models, trainer
from .calibration import apply_temperature, ece, fit_temperature, nll
from .config import PRESETS, ConfigError, resolve_config, resolve_dataset
from .fileio import FormatError, format_float
from .metrics import accuracy, brier
from .seeding import derive_seed


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


def cmd_train(args) -> int:
    out_dir = _out_dir(args.out or "run")
    cfg = resolve_config(args)
    train_ds, val_ds = resolve_dataset(cfg)
    cfg["task"] = train_ds.task
    tc = config.build_train_config(cfg, train_ds)
    bank = config._train_bank(cfg)
    result = trainer.train(
        tc, train_ds.inputs, train_ds.targets, val_ds.inputs, val_ds.targets, train_ds.num_classes, bank=bank
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    header, rows = trainer.records_to_csv(tc.task, result.records)
    fileio.save_csv(out_dir / "metrics.csv", header, rows)
    fileio.save_checkpoint(out_dir / "checkpoint.pckpt", tc.model, result.params, tc.epochs)
    fileio.save_json(out_dir / "resolved_config.json", config._resolved_dict(cfg, tc))
    final = result.records[-1]
    metrics = " ".join(f"{k}={v:.4f}" for k, v in final.val_metrics.items())
    print(f"trained {tc.epochs} epochs; final {metrics}; outputs in {out_dir}")
    return 0


def _load_checkpoint(checkpoint: str, val_ds):
    """The spec and params that bank, eval and calibrate score with (missing
    or malformed: exit 2), checked to fit the validation inputs and classes;
    each command refuses a task it cannot score before this."""
    path = Path(checkpoint)
    if not path.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    spec, params, _ = fileio.load_checkpoint(path)
    try:
        models.check_inputs(spec, val_ds.inputs[:1])
    except ValueError as e:
        raise ConfigError(f"checkpoint does not fit this dataset: {e}") from e
    if spec.dims[-1] != val_ds.num_classes:
        raise ConfigError(f"checkpoint predicts {spec.dims[-1]} classes but dataset has {val_ds.num_classes}")
    return spec, params


def cmd_bank(args) -> int:
    cfg = resolve_config(args)
    granularity = cfg["granularity"] or "sample"
    (_out_dir if granularity == "pixel" else _out_file)(args.out)
    train_ds, val_ds = resolve_dataset(cfg)
    if args.variant == "ts" and train_ds.task != "multiclass":
        raise ConfigError("temperature-scaled banks require the multiclass task")
    if granularity == "pixel" and train_ds.task != "segmentation":
        raise ConfigError("pixel banks require the segmentation task")
    spec, params = _load_checkpoint(args.checkpoint, val_ds)
    temperature = 1.0
    if args.variant == "ts":
        tm = fit_temperature(models.forward(spec, params, val_ds.inputs), val_ds.targets)
        _warn_if_pinned(tm)
        temperature = tm.temperature
    if granularity == "pixel":
        maps = trainer.score_pixel_bank(spec, params, train_ds.inputs, train_ds.targets)
        fileio.save_pixel_bank(args.out, maps)
        print(f"wrote pixel bank for {len(maps)} samples to {args.out}")
        return 0
    bank = trainer.score_training_set(
        spec, train_ds.task, params, train_ds.inputs, train_ds.targets, variant=args.variant, temperature=temperature
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
    spatial = [kind for kind in kinds if corruption.DOMAINS[kind] == "spatial"]
    if spatial and val_ds.inputs.ndim == 2:  # feature vectors, corrupted as one-row images
        print(
            f"warning: {', '.join(spatial)} move or mix neighbouring pixels, but these images are rows of "
            "feature vectors, whose neighbouring values are unrelated features",
            file=sys.stderr,
        )
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


def _read_manifest(path: Path, n_val: int) -> tuple[list[tuple[int, str, int, str]], list[int]]:
    """The rows of a corruption manifest and their lines, each row checked
    before any image is read: an orig_id among the n_val validation images,
    a known kind, a severity in 1..5 and a relative path inside the
    manifest's directory. A bad row fails with its line number, and a
    (orig_id, kind, severity) listed twice with both."""
    rows, lines = fileio._load_table(path, ["orig_id", "kind", "severity", "path"], lambda r: _manifest_row(r, n_val))
    first: dict[tuple[int, str, int], int] = {}
    for (orig_id, kind, severity, _), line in zip(rows, lines):
        seen = first.setdefault((orig_id, kind, severity), line)
        if seen != line:
            raise FormatError(
                f"{path} lines {seen} and {line}: orig_id {orig_id}, kind {kind}, severity {severity} listed twice"
            )
    return rows, lines


def cmd_eval(args) -> int:
    out = _out_file(args.out or "eval.csv")
    _, val_ds = resolve_dataset(resolve_config(args))
    if args.manifest and val_ds.task != "multiclass":
        raise ConfigError("robustness evaluation requires a multiclass dataset")
    spec, params = _load_checkpoint(args.checkpoint, val_ds)
    logits = models.forward(spec, params, val_ds.inputs)
    if args.manifest:
        manifest_path = Path(args.manifest)
        if not manifest_path.exists():
            raise ConfigError(f"manifest not found: {manifest_path}")
        rows, lines = _read_manifest(manifest_path, len(val_ds))
        want = datasets.as_images(val_ds.inputs).shape[1:]  # the shape cmd_corrupt wrote

        def predict(cell):
            names, cell_lines = [rows[i][3] for i in cell], [lines[i] for i in cell]
            images = fileio._load_stack(fileio.load_image, manifest_path.parent, names, want, manifest_path, cell_lines)
            return np.argmax(models.forward(spec, params, images), axis=1)

        clean_acc = accuracy(np.argmax(logits, axis=1), val_ds.targets)
        header, table = corruption.robustness_report(predict, rows, val_ds.targets, clean_acc)
        fileio.save_csv(out, header, table)
        print(f"robustness table ({len(table) - 1} kinds) written to {out}")
        return 0
    task = trainer.TASKS[val_ds.task]
    values, extra = task.metrics(logits, val_ds.targets, val_ds.num_classes)
    rows = [[name, format_float(value)] for name, value in zip(task.columns, values)]
    rows += [[name, text] for name, text in extra.items()]
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
    if args.bins < 1:
        raise ConfigError(f"--bins must be at least 1, got {args.bins}")
    out_dir = _out_dir(args.out or "calibration")
    _, val_ds = resolve_dataset(resolve_config(args))
    if val_ds.task != "multiclass":
        raise ConfigError("calibration requires a multiclass dataset")
    spec, params = _load_checkpoint(args.checkpoint, val_ds)
    logits = models.forward(spec, params, val_ds.inputs)
    tm = fit_temperature(logits, val_ds.targets)
    probs = apply_temperature(logits, 1.0)
    correct = np.argmax(logits, axis=1) == np.asarray(val_ds.targets)
    report = ece(probs.max(axis=1), correct, bins=args.bins)
    nll_at_1 = nll(logits, val_ds.targets, 1.0)
    out_dir.mkdir(parents=True, exist_ok=True)
    _warn_if_pinned(tm)
    fileio.save_json(
        out_dir / "temperature.json",
        {
            "temperature": tm.temperature,
            "nll_at_1": nll_at_1,
            "nll_fitted": nll(logits, val_ds.targets, tm.temperature),
            "pinned": tm.pinned,
        },
    )
    rows = [["summary", *map(format_float, (report.ece, brier(probs, val_ds.targets), nll_at_1)), ""]]
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


_REPORT_METRICS = [*(column for task in trainer.TASKS.values() for column in task.columns), "train_loss"]


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
            task = config._read_config_file(cfg_path).get("task", "?")
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
    p.add_argument("--granularity", help="sample (a bank CSV) or pixel (a pixel-bank dir); default: the config's")

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process (a build takes 1.5-2 ms), held in the cache so
    that main() sets no module attribute."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    # the command is looked up by name on each call, so a cmd_* replaced
    # after the parser was built still runs
    args = _parser().parse_args(argv)
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
