"""The three workloads: CLI steps, output checks and quality numbers.

Each workload is the README's CLI workflow, driven in-process through
``pcbls.cli.main(argv)``. Inputs reach the program only as arguments and
``--config`` files made from the workload seed; every dataset override goes
through the config file, because ``--data`` replaces the config's whole
``data`` dict. All paths are relative to the run's working directory, so
two passes of one seed write byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean
from types import SimpleNamespace
from typing import Callable

from layers import CORRUPTION_KINDS, PIN_TOL

# Gaussian clusters wide enough that no seed's baseline reaches accuracy 1.0
# (spread 0.35 in 32 dimensions gave 0.84-0.94 over seeds 0-59; the default
# 0.06 saturates). In 32 dimensions the distances between the random cluster
# centres vary less from seed to seed than in 16, and so does the accuracy.
BLOBS = {
    "name": "blobs",
    "classes": 8,
    "per_class": 125,
    "per_class_val": 40,
    "dim": 32,
    "spread": 0.35,
    "label_noise": 0.2,
}
# 16x16 frames keep a pass near 8 s, so a run's median has three or four passes
SHAPES = {"name": "shapes", "height": 16, "width": 16, "foreground": 3, "n": 60, "n_val": 20}
N_TRAIN = BLOBS["classes"] * BLOBS["per_class"]
N_VAL = BLOBS["classes"] * BLOBS["per_class_val"]
SEVERITIES = 5


@dataclass
class Step:
    """One CLI call of a pass, with the checks and work count of its outputs."""

    argv: list[str]
    stage: str  # train | bank | calibrate | corrupt | eval
    check: Callable[[], list[str]]  # problems found in the outputs
    items: Callable[[], int] = lambda: 0  # work items the call completed


@dataclass
class Record:
    step: Step
    rc: int
    seconds: float
    stderr: str
    problems: list[str] = field(default_factory=list)
    items: int = 0

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


def _rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, list(reader)


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _guard(fn: Callable[[], list[str]]) -> Callable[[], list[str]]:
    """Turn a missing or unparsable output into a reported problem."""

    def run() -> list[str]:
        try:
            return fn()
        except (OSError, ValueError, KeyError, IndexError) as e:
            return [f"{type(e).__name__}: {e}"]

    return run


def check_metrics_csv(run_dir: str, epochs: int, metric_columns: list[str]) -> list[str]:
    header, rows = _rows(f"{run_dir}/metrics.csv")
    want = ["epoch", "active_count", "eps", "sigma", "train_loss"] + metric_columns
    problems = []
    if header != want:
        problems.append(f"{run_dir}/metrics.csv header {header}")
    if [r[0] for r in rows] != [str(e) for e in range(epochs)]:
        problems.append(f"{run_dir}/metrics.csv has {len(rows)} rows, want one per epoch ({epochs})")
    for r in rows:
        cells = [c for i, c in enumerate(r) if not (header[i:i + 1] == ["sigma"] and c == "")]
        if not all(_finite(c) for c in cells):
            problems.append(f"{run_dir}/metrics.csv non-finite row {r}")
            break
    for name in ("checkpoint.pckpt", "resolved_config.json"):
        if not Path(run_dir, name).is_file():
            problems.append(f"{run_dir}/{name} missing")
    return problems


def check_sample_bank(path: str, n: int) -> list[str]:
    header, rows = _rows(path)
    if header != ["sample_id", "score", "source"]:
        return [f"{path} header {header}"]
    ids = [int(r[0]) for r in rows]
    problems = []
    if len(ids) != n or set(ids) != set(range(n)):
        problems.append(f"{path}: {len(ids)} rows, {len(set(ids))} unique ids, want ids 0..{n - 1}")
    if not all(_finite(r[1]) for r in rows):
        problems.append(f"{path}: non-finite score")
    return problems


def check_pixel_bank(directory: str, n: int, h: int, w: int) -> list[str]:
    files = sorted(Path(directory).glob("*.pcbl"))
    if [f.name for f in files] != [f"{i:06d}.pcbl" for i in range(n)]:
        return [f"{directory}: {len(files)} sidecars, want {n} with ids 0..{n - 1}"]
    bad = [f.name for f in files if f.stat().st_size != 12 + 4 * h * w or f.read_bytes()[:4] != b"PCBL"]
    return [f"{directory}: malformed sidecars {bad[:3]}"] if bad else []


def check_calibration(out_dir: str) -> list[str]:
    header, rows = _rows(f"{out_dir}/calibration.csv")
    temps = json.loads(Path(out_dir, "temperature.json").read_text())
    problems = []
    if header[:4] != ["row", "ece_or_conf", "brier_or_acc", "nll"] or rows[0][0] != "summary":
        problems.append(f"{out_dir}/calibration.csv layout {header}")
    elif not all(_finite(c) for c in rows[0][1:4]):
        problems.append(f"{out_dir}/calibration.csv non-finite summary {rows[0]}")
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in temps.values()):
        problems.append(f"{out_dir}/temperature.json {temps}")
    return problems


def _pgm_shape(path: Path) -> tuple[int, int] | None:
    """(height, width) of a well-formed binary PGM whose payload matches it."""
    data = path.read_bytes()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        return None
    w, h = (int(v) for v in parts[1].split())
    return (h, w) if len(parts[3]) == h * w else None


def check_manifest(out_dir: str, n: int, shape: tuple[int, int]) -> list[str]:
    header, rows = _rows(f"{out_dir}/manifest.csv")
    if header != ["orig_id", "kind", "severity", "path"]:
        return [f"{out_dir}/manifest.csv header {header}"]
    want = {(i, k, s) for k in CORRUPTION_KINDS for s in range(1, SEVERITIES + 1) for i in range(n)}
    got = {(int(r[0]), r[1], int(r[2])) for r in rows}
    problems = []
    if len(rows) != len(want) or got != want:
        problems.append(f"{out_dir}/manifest.csv: {len(rows)} rows, want {len(want)} (12 kinds x 5 x {n})")
    bad = [r[3] for r in rows if _pgm_shape(Path(out_dir, r[3])) != shape]
    if bad:
        problems.append(f"{len(bad)} images do not load back at {shape}, e.g. {bad[0]}")
    _, labels = _rows(f"{out_dir}/labels.csv")
    if len(labels) != n:
        problems.append(f"{out_dir}/labels.csv has {len(labels)} rows, want {n}")
    return problems


def check_robustness_table(path: str) -> list[str]:
    header, rows = _rows(path)
    if header != ["kind", "sev1", "sev2", "sev3", "sev4", "sev5", "mean"]:
        return [f"{path} header {header}"]
    problems = []
    if sorted(r[0] for r in rows) != sorted(CORRUPTION_KINDS + ("clean",)):
        problems.append(f"{path}: rows {[r[0] for r in rows]}, want 12 kinds + clean")
    if not all(0.0 <= float(c) <= 1.0 for r in rows for c in r[1:] if c != ""):
        problems.append(f"{path}: accuracy outside [0, 1]")
    return problems


def _final(run_dir: str, column: str) -> float:
    header, rows = _rows(f"{run_dir}/metrics.csv")
    return float(rows[-1][header.index(column)])


def _train_items(run_dir: str, frames_per_epoch: int | None = None) -> Callable[[], int]:
    """Samples forwarded and backwarded: the active count per epoch for
    sample pacing, every frame per epoch for pixel pacing."""

    def items() -> int:
        header, rows = _rows(f"{run_dir}/metrics.csv")
        if frames_per_epoch is not None:
            return frames_per_epoch * len(rows)
        return sum(int(r[header.index("active_count")]) for r in rows)

    return items


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed

    def configs(self) -> dict[str, dict]:
        """Config files to write, by file name."""
        return {}

    def inputs(self) -> dict[str, tuple[list[int], int, int]]:
        """Config file name -> (seeds the steps run it with, train size, val size)."""
        return {}

    def generate_inputs(self, pcbls) -> list[str]:
        """Generate every dataset the steps will use, the way the CLI does,
        and report those of the wrong size."""
        problems = []
        for config, (seeds, n_train, n_val) in self.inputs().items():
            for s in seeds:
                cfg = pcbls.cli.resolve_config(SimpleNamespace(config=config, seed=s))
                train, val = pcbls.cli.resolve_dataset(cfg)
                if (len(train.targets), len(val.targets)) != (n_train, n_val):
                    problems.append(
                        f"{config} seed {s}: {len(train.targets)}/{len(val.targets)} samples, want {n_train}/{n_val}"
                    )
        return problems

    def fixture_steps(self) -> list[Step]:
        """Untimed steps of set-up."""
        return []

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def quality(self, pcbls) -> tuple[dict[str, float], dict]:
        """(quality numbers, per-run quality table) read from a pass's outputs."""
        raise NotImplementedError


def stage_rates(records: list[Record]) -> dict[str, float]:
    """Work items per second of the train, corrupt and eval calls; 0 where a
    workload makes no such call."""
    out = {}
    for metric, stage in (
        ("train_samples_per_s", "train"),
        ("corrupt_images_per_s", "corrupt"),
        ("eval_images_per_s", "eval"),
    ):
        rs = [r for r in records if r.step.stage == stage]
        seconds = sum(r.seconds for r in rs)
        out[metric] = sum(r.items for r in rs) / seconds if seconds else 0.0
    return out


class ClsCurriculum(Workload):
    name = "cls_curriculum"
    why = "vector path: many small SGD steps (mlp, soft CE, ULS, sample pacing, calibration); no conv and no image I/O"
    INNER_SEEDS = 4
    EPOCHS = 50
    METHODS = ("baseline", "cbls", "pcbls", "ls")

    def seeds(self) -> list[int]:
        return [self.INNER_SEEDS * self.seed + i for i in range(self.INNER_SEEDS)]

    def configs(self):
        return {"cls.json": {"data": BLOBS}}

    def inputs(self):
        return {"cls.json": (self.seeds(), N_TRAIN, N_VAL)}

    def steps(self):
        out = []
        for s in self.seeds():
            common = ["--config", "cls.json", "--seed", str(s)]
            train = common + ["--epochs", str(self.EPOCHS)]
            d = f"pass/s{s}"
            flags = {
                "baseline": [],
                "cbls": ["--preset", "workflow_cls"],
                "pcbls": ["--preset", "workflow_cls", "--pace", "--bank", f"{d}/bank.csv"],
                "ls": ["--preset", "ls"],
            }
            for method in self.METHODS:
                run_dir = f"{d}/{method}"
                out.append(
                    Step(
                        ["train", *flags[method], *train, "--out", run_dir],
                        "train",
                        _guard(lambda r=run_dir: check_metrics_csv(r, self.EPOCHS, ["val_accuracy"])),
                        _train_items(run_dir),
                    )
                )
                if method == "baseline":
                    out.append(
                        Step(
                            ["bank", *common, "--checkpoint", f"{run_dir}/checkpoint.pckpt", "--out", f"{d}/bank.csv"],
                            "bank",
                            _guard(lambda p=f"{d}/bank.csv": check_sample_bank(p, N_TRAIN)),
                        )
                    )
            for method in self.METHODS:
                cal = f"{d}/{method}/calibration"
                out.append(
                    Step(
                        ["calibrate", *common, "--checkpoint", f"{d}/{method}/checkpoint.pckpt", "--out", cal],
                        "calibrate",
                        _guard(lambda c=cal: check_calibration(c)),
                    )
                )
        return out

    def quality(self, pcbls):
        edges = (math.log(pcbls.calibration._T_LO), math.log(pcbls.calibration._T_HI))
        table = {}
        for s in self.seeds():
            for method in self.METHODS:
                run_dir = f"pass/s{s}/{method}"
                _, rows = _rows(f"{run_dir}/calibration/calibration.csv")
                t = json.loads(Path(run_dir, "calibration", "temperature.json").read_text())["temperature"]
                table[f"{method}/seed{s}"] = {
                    "accuracy": _final(run_dir, "val_accuracy"),
                    "ece": float(rows[0][1]),
                    "nll": float(rows[0][3]),
                    "temperature": t,
                    "pinned": min(abs(math.log(t) - e) for e in edges) < PIN_TOL,
                }
        numbers = {
            "val_accuracy": mean(v["accuracy"] for v in table.values()),
            "val_ece": mean(v["ece"] for v in table.values()),
            "val_nll": mean(v["nll"] for v in table.values()),
        }
        numbers["val_quality"] = numbers["val_accuracy"]
        return numbers, table


class SegPixelPaced(Workload):
    name = "seg_pixel_paced"
    why = "image path: tiny_fcn conv forward/backward, SVLS targets, per-pixel pacing and IoU on shapes"
    EPOCHS = 12
    # Adam at 1e-2 on batches of 4 so the FCN learns within 12 epochs; the
    # segmentation preset's 1e-4 on batches of 32 predicts all background.
    OPTIM = {"optimizer": "adam", "lr": 0.01, "batch_size": 4}

    def configs(self):
        return {"seg.json": {"data": SHAPES, **self.OPTIM}}

    def inputs(self):
        return {"seg.json": ([self.seed], SHAPES["n"], SHAPES["n_val"])}

    def steps(self):
        common = ["--config", "seg.json", "--seed", str(self.seed)]
        train = common + ["--epochs", str(self.EPOCHS)]
        cols = ["val_miou", "val_mdice"]
        n, h, w = SHAPES["n"], SHAPES["height"], SHAPES["width"]
        return [
            Step(
                ["train", *train, "--out", "pass/baseline"],
                "train",
                _guard(lambda: check_metrics_csv("pass/baseline", self.EPOCHS, cols)),
                _train_items("pass/baseline"),
            ),
            Step(
                ["bank", *common, "--checkpoint", "pass/baseline/checkpoint.pckpt", "--granularity", "pixel",
                 "--out", "pass/pixel_bank"],
                "bank",
                _guard(lambda: check_pixel_bank("pass/pixel_bank", n, h, w)),
            ),
            Step(
                ["train", "--preset", "segmentation", *train, "--pace", "--bank", "pass/pixel_bank",
                 "--out", "pass/paced"],
                "train",
                _guard(lambda: check_metrics_csv("pass/paced", self.EPOCHS, cols)),
                _train_items("pass/paced", frames_per_epoch=n),
            ),
        ]

    def quality(self, pcbls):
        # balanced foreground/background pixel accuracy of the paced model on
        # the validation frames: the mean of the share of background pixels
        # predicted as background and of shape pixels predicted as any shape.
        # About 9 in 10 pixels are background, so plain pixel accuracy scores
        # a model that predicts only background near 0.9; this scores it 0.5.
        # The per-class recall and mIoU swing with the seed (a class whose
        # colour is close to another's is learnt in some seeds, not others).
        cfg = pcbls.cli.resolve_config(SimpleNamespace(config="seg.json", seed=self.seed))
        _, val = pcbls.cli.resolve_dataset(cfg)
        spec, params, _ = pcbls.fileio.load_checkpoint("pass/paced/checkpoint.pckpt")
        preds = pcbls.models.forward(spec, params, val.inputs).argmax(axis=-1)
        shape = val.targets > 0
        table = {
            run: {"miou": _final(f"pass/{run}", "val_miou"), "mdice": _final(f"pass/{run}", "val_mdice")}
            for run in ("baseline", "paced")
        }
        table["paced"]["background_recall"] = float((preds[~shape] == 0).mean())
        table["paced"]["shape_recall"] = float((preds[shape] > 0).mean())
        table["paced"]["class_recall"] = [
            float((preds[val.targets == c] == c).mean()) for c in range(SHAPES["foreground"] + 1)
        ]
        balanced = (table["paced"]["background_recall"] + table["paced"]["shape_recall"]) / 2
        numbers = {"val_miou": table["paced"]["miou"], "val_quality": balanced}
        return numbers, table


class RobustnessIO(Workload):
    name = "robustness_io"
    why = "corruption and file I/O: 12 kinds x 5 severities x 320 images written as PGM, then read back and scored"
    EPOCHS = 50
    # Four datasets of 80 validation images each: as many images as one set
    # of 320, but the mean corrupted accuracy depends less on the cluster
    # layout of one seed (its standard deviation over workload seeds 101-110
    # fell from 0.045 to 0.013 of the mean).
    INNER_SEEDS = 4
    DATA = {**BLOBS, "per_class_val": 10}
    N_VAL = DATA["classes"] * DATA["per_class_val"]

    def seeds(self) -> list[int]:
        return [self.INNER_SEEDS * self.seed + i for i in range(self.INNER_SEEDS)]

    def configs(self):
        return {"rob.json": {"data": self.DATA}}

    def inputs(self):
        return {"rob.json": (self.seeds(), N_TRAIN, self.N_VAL)}

    def _common(self, s: int) -> list[str]:
        return ["--config", "rob.json", "--seed", str(s)]

    def fixture_steps(self):
        return [
            Step(
                ["train", *self._common(s), "--epochs", str(self.EPOCHS), "--out", f"fixture/s{s}"],
                "train",
                _guard(lambda d=f"fixture/s{s}": check_metrics_csv(d, self.EPOCHS, ["val_accuracy"])),
            )
            for s in self.seeds()
        ]

    def steps(self):
        images = len(CORRUPTION_KINDS) * SEVERITIES * self.N_VAL
        out = []
        for s in self.seeds():
            d = f"pass/s{s}"
            out += [
                Step(
                    ["corrupt", *self._common(s), "--kinds", "all", "--out", f"{d}/corrupted"],
                    "corrupt",
                    _guard(lambda d=d: check_manifest(f"{d}/corrupted", self.N_VAL, (1, self.DATA["dim"]))),
                    lambda: images,
                ),
                Step(
                    ["eval", *self._common(s), "--checkpoint", f"fixture/s{s}/checkpoint.pckpt",
                     "--manifest", f"{d}/corrupted/manifest.csv", "--out", f"{d}/robustness.csv"],
                    "eval",
                    _guard(lambda d=d: check_robustness_table(f"{d}/robustness.csv")),
                    lambda: images,
                ),
            ]
        return out

    def quality(self, pcbls):
        table = {}
        for s in self.seeds():
            header, rows = _rows(f"pass/s{s}/robustness.csv")
            table[f"seed{s}"] = {r[0]: {k: float(c) for k, c in zip(header[1:], r[1:]) if c != ""} for r in rows}
        clean = mean(t["clean"]["mean"] for t in table.values())
        mca = mean(v["mean"] for t in table.values() for kind, v in t.items() if kind != "clean")
        # the corrupted accuracy itself, in the units of the clean one: a
        # model that loses accuracy everywhere loses it here too
        numbers = {"val_accuracy": clean, "mean_corrupted_accuracy": mca, "val_quality": mca}
        return numbers, table


WORKLOADS = {w.name: w for w in (ClsCurriculum, SegPixelPaced, RobustnessIO)}

# quality numbers reported as per-layer metrics, 0 where the workload has none
QUALITY_METRICS = ("val_accuracy", "val_ece", "val_nll", "val_miou", "mean_corrupted_accuracy")
