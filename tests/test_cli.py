import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pcbls import cli
from pcbls.calibration import apply_temperature, nll
from pcbls.cli import PRESETS, ConfigError, main, resolve_config
from pcbls.datasets import LabeledDataset, gen_blobs, gen_shapes_seg, save_image_dataset
from pcbls.fileio import load_bank, load_checkpoint, load_csv, load_pixel_bank, save_json, save_pixel_bank
from pcbls.metrics import brier
from pcbls.models import ModelSpec, forward
from pcbls.pacing import PacePlan
from pcbls.seeding import derive_seed
from pcbls.trainer import TASKS, TrainConfig, train

from conftest import ref_corrupt_dataset


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def small_data_args():
    # tiny blob dataset keeps CLI runs fast
    return ["--data", "blobs", "--config", None]


def _write_small_config(tmp_path, **extra):
    cfg = {
        "data": {"name": "blobs", "classes": 3, "per_class": 20, "per_class_val": 10, "dim": 6},
        "epochs": 3,
        "hidden": 8,
    }
    cfg.update(extra)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


# a config value of the wrong JSON type, and the message that names its key
WRONG_TYPES = [
    ({"lr": "x"}, "lr must be a number, got 'x'"),
    ({"lr": None}, "lr must be a number, got None"),
    ({"momentum": {"value": 0.9}}, "momentum must be a number, got {'value': 0.9}"),
    ({"weight_decay": False}, "weight_decay must be a number, got False"),
    ({"lr_decay_factor": "0.1"}, "lr_decay_factor must be a number, got '0.1'"),
    ({"epochs": [3]}, "epochs must be an integer, got [3]"),
    ({"epochs": True}, "epochs must be an integer, got True"),
    ({"batch_size": None}, "batch_size must be an integer, got None"),
    ({"hidden": "32"}, "hidden must be an integer, got '32'"),
    ({"channels": "88"}, "channels must be a list of two integers, got '88'"),
    ({"channels": [8, "8"]}, "channels must be an integer, got '8'"),
    ({"svls_kernel": 3.5}, "svls_kernel must be an integer, got 3.5"),
    ({"pace": {"lambda": "x"}}, "pace.lambda must be a number, got 'x'"),
    ({"pace": {"lambda": 0.5, "e_all": None}}, "pace.e_all must be a number, got None"),
    ({"data": {"name": "blobs", "classes": "x"}}, "data.classes must be an integer, got 'x'"),
    ({"data": {"name": "blobs", "spread": [0.1]}}, "data.spread must be a number, got [0.1]"),
    ({"data": {"name": "shapes", "n": 2.5}}, "data.n must be an integer, got 2.5"),
    ({"data": {"name": "cifar10"}}, "data.path must be a string, got None"),
    ({"data": {"name": ["blobs"]}}, "data.name must be a string, got ['blobs']"),
    ({"schedule": {"kind": "constant", "init": "0.3"}}, "schedule.init must be a number, got '0.3'"),
    ({"svls_schedule": {"kind": "exponential", "init": 0.5, "rate": True}}, "svls_schedule.rate must be a number, got True"),
    ({"pace": {"lambda": 0.5, "e_all": "x"}}, "pace.e_all must be a number, got 'x'"),
    ({"data": {"name": "cifar10", "path": "b.bin", "val_fraction": "x"}}, "data.val_fraction must be a number, got 'x'"),
    ({"optimizer": 3}, "optimizer must be a string, got 3"),
]

# a config value outside its key's range, and the message that names the key
# and the range; the range is checked before any data is generated
OUT_OF_RANGE = [
    ({"hidden": 0}, "hidden must be at least 1, got 0"),
    ({"channels": [8, 0]}, "channels must be at least 1, got 0"),
    ({"epochs": 0}, "epochs must be at least 1, got 0"),
    ({"batch_size": -4}, "batch_size must be at least 1, got -4"),
    ({"svls_kernel": 2}, "svls_kernel must be odd and at least 1, got 2"),
    ({"svls_kernel": -1}, "svls_kernel must be odd and at least 1, got -1"),
    ({"lr": -1}, "lr must be above 0, got -1.0"),
    ({"lr": 0}, "lr must be above 0, got 0.0"),
    ({"lr": float("inf")}, "lr must be finite, got inf"),
    ({"momentum": 5}, "momentum must be in [0, 1), got 5.0"),
    ({"momentum": 1}, "momentum must be in [0, 1), got 1.0"),
    ({"momentum": -0.1}, "momentum must be in [0, 1), got -0.1"),
    ({"weight_decay": -0.5}, "weight_decay must be at least 0, got -0.5"),
    ({"data": {"name": "blobs", "spread": -1}}, "data.spread must be at least 0, got -1.0"),
    ({"data": {"name": "blobs", "spread": float("nan")}}, "data.spread must be finite, got nan"),
    ({"lr_decay_factor": -1}, "lr_decay_factor must be above 0, got -1.0"),
    ({"lr_decay_factor": 0}, "lr_decay_factor must be above 0, got 0.0"),
    ({"lr_decay_factor": float("nan")}, "lr_decay_factor must be finite, got nan"),
    ({"optimizer": "rmsprop"}, "optimizer must be one of sgd, adam, got 'rmsprop'"),
    ({"arch": "resnet"}, "arch must be one of linear_softmax, mlp, tiny_fcn, got 'resnet'"),
    ({"task": "captioning"}, "task must be one of multiclass, multilabel, segmentation, got 'captioning'"),
    ({"granularity": "voxel"}, "granularity must be one of sample, pixel, got 'voxel'"),
    ({"pace": {"lambda": 2}}, "pace.lambda must be in (0, 1], got 2.0"),
    ({"pace": {"lambda": 0}}, "pace.lambda must be in (0, 1], got 0.0"),
    ({"pace": {"lambda": float("nan")}}, "pace.lambda must be finite, got nan"),
    ({"pace": {"lambda": 0.5, "e_all": 0}}, "pace.e_all must be in (0, 1], got 0.0"),
    ({"pace": {"lambda": 0.5, "e_all": 1.5}}, "pace.e_all must be in (0, 1], got 1.5"),
]

# a data field outside the range its generator or loader enforces, and the
# message that names it before that generator or loader runs
_LOADERS = {
    "blobs": "gen_blobs", "multilabel": "gen_multilabel", "shapes": "gen_shapes_seg",
    "cifar10": "load_cifar10", "dir": "load_image_dataset",
}
DATA_OUT_OF_RANGE = [
    ({"name": "blobs", "classes": 1}, "data.classes must be at least 2, got 1"),
    ({"name": "blobs", "per_class": 0}, "data.per_class must be at least 1, got 0"),
    ({"name": "blobs", "per_class_val": 0}, "data.per_class_val must be at least 1, got 0"),
    ({"name": "blobs", "dim": 0}, "data.dim must be at least 1, got 0"),
    ({"name": "blobs", "label_noise": 1}, "data.label_noise must be in [0, 1), got 1.0"),
    ({"name": "blobs", "label_noise": -0.1}, "data.label_noise must be in [0, 1), got -0.1"),
    ({"name": "multilabel", "labels": 1}, "data.labels must be at least 2, got 1"),
    ({"name": "multilabel", "n": 0}, "data.n must be at least 1, got 0"),
    ({"name": "multilabel", "n_val": 0}, "data.n_val must be at least 1, got 0"),
    ({"name": "multilabel", "dim": 0}, "data.dim must be at least 1, got 0"),
    ({"name": "shapes", "height": 15}, "data.height must be at least 16, got 15"),
    ({"name": "shapes", "width": 8}, "data.width must be at least 16, got 8"),
    ({"name": "shapes", "foreground": 0}, "data.foreground must be at least 1, got 0"),
    ({"name": "shapes", "n": 0}, "data.n must be at least 1, got 0"),
    ({"name": "shapes", "n_val": 0}, "data.n_val must be at least 1, got 0"),
    ({"name": "cifar10", "path": "batch.bin", "val_fraction": 0}, "data.val_fraction must be in (0, 1), got 0.0"),
    ({"name": "cifar10", "path": "batch.bin", "val_fraction": 1}, "data.val_fraction must be in (0, 1), got 1.0"),
    ({"name": "dir", "path": "d", "val_fraction": 1.5}, "data.val_fraction must be in (0, 1), got 1.5"),
]

# a ULS schedule whose factor leaves [0, 1) at some epoch of the run, and
# the message that names the key and that epoch
SCHEDULES_OUT_OF_RANGE = [
    ({"kind": "anti", "init": 0.5, "rate": 1.5, "cap": 2}, "schedule: smoothing factor 1.125 at epoch 2 is outside [0, 1)"),
    ({"kind": "linear", "init": 0.5, "rate": 0.25, "floor": -1}, "schedule: smoothing factor -0.25 at epoch 3 is outside [0, 1)"),
    ({"kind": "constant", "init": 1}, "schedule: smoothing factor 1.0 at epoch 0 is outside [0, 1)"),
    ({"kind": "random", "range": [1, 1.5]}, " at epoch 0 is outside [0, 1)"),
]

# a misspelt config key at any depth, by its dotted path, and the key it is close to
UNKNOWN_KEYS = [
    ({"epoch": 3}, "epoch", "epochs"),
    ({"data": {"name": "blobs", "clases": 3}}, "data.clases", "data.classes"),
    ({"schedule": {"kind": "linear", "init": 0.5, "rate": 0.1, "flor": 0.2}}, "schedule.flor", "schedule.floor"),
    ({"svls_schedule": {"kind": "exponential", "init": 0.5, "rat": 0.5}}, "svls_schedule.rat", "svls_schedule.rate"),
    ({"pace": {"lambda": 0.5, "e_al": 0.2}}, "pace.e_al", "pace.e_all"),
]

_SHAPES = {"name": "shapes", "height": 16, "width": 16, "foreground": 2, "n": 8, "n_val": 4}

# every preset on a dataset of its task; two of them paced, by a sample bank
# and by a pixel bank
REPLAYS = [
    ("workflow_cls", {}, None),
    ("workflow_cls", {}, "sample"),
    ("tool_cls", {"data": {"name": "multilabel", "labels": 3, "n": 40, "n_val": 20, "dim": 6}}, None),
    ("segmentation", {"data": _SHAPES, "channels": [4, 4]}, "pixel"),
    ("anti", {}, None),
    ("random", {}, None),
    ("linear", {}, None),
    ("ls", {}, None),
]


class TestTrain:
    def test_writes_outputs(self, tmp_path):
        cfg = _write_small_config(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 0
        assert (out / "checkpoint.pckpt").exists()
        assert (out / "resolved_config.json").exists()
        header, rows = load_csv(out / "metrics.csv")
        assert len(rows) == 3
        assert header[:5] == ["epoch", "active_count", "eps", "sigma", "train_loss"]

    def test_preset_applied(self, tmp_path):
        cfg = _write_small_config(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--preset", "workflow_cls", "--seed", 1, "--out", out]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["schedule"]["init"] == 0.5
        assert resolved["schedule"]["rate"] == 0.9
        _, rows = load_csv(out / "metrics.csv")
        assert rows[0][2] == "0.5"

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_preset_resolves_as_its_config_file(self, tmp_path, name):
        # a preset is a config layer whose pace plan waits for --pace
        layer = {key: value for key, value in PRESETS[name].items() if key != "pace"}
        path = tmp_path / "layer.json"
        path.write_text(json.dumps(layer))
        assert resolve_config(SimpleNamespace(preset=name)) == resolve_config(SimpleNamespace(config=str(path)))
        if "pace" in PRESETS[name]:
            paced = resolve_config(SimpleNamespace(preset=name, pace=True))
            assert paced == {**resolve_config(SimpleNamespace(preset=name)), "pace": PRESETS[name]["pace"]}
        else:
            with pytest.raises(ConfigError, match="--pace needs a preset that defines a pace plan"):
                resolve_config(SimpleNamespace(preset=name, pace=True))

    def test_presets_are_named_in_the_docstring_and_the_help(self, capsys):
        with pytest.raises(SystemExit):
            run(["train", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for name in PRESETS:
            assert name in cli.__doc__ and name in help_text

    def test_missing_bank_is_config_error(self, tmp_path, capsys):
        cfg = _write_small_config(tmp_path)
        rc = run(
            ["train", "--config", cfg, "--seed", 1, "--out", tmp_path / "r",
             "--pace-lambda", 0.5, "--bank", tmp_path / "missing_bank.csv"]
        )
        assert rc == 2
        assert "missing_bank.csv" in capsys.readouterr().err

    def test_pace_without_bank_is_config_error(self, tmp_path):
        cfg = _write_small_config(tmp_path)
        assert run(["train", "--config", cfg, "--seed", 1, "--out", tmp_path / "r", "--pace-lambda", 0.5]) == 2

    def test_rerun_identical_csv(self, tmp_path):
        cfg = _write_small_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["train", "--config", cfg, "--seed", 5, "--out", a]) == 0
        assert run(["train", "--config", cfg, "--seed", 5, "--out", b]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "checkpoint.pckpt").read_bytes() == (b / "checkpoint.pckpt").read_bytes()

    def test_bad_data_spec(self, tmp_path):
        assert run(["train", "--data", "nonsense", "--seed", 1, "--out", tmp_path / "r"]) == 2

    def test_resolved_config_replays_run(self, tmp_path):
        for preset, extra, bank in REPLAYS:
            case = tmp_path / (preset + (f"+{bank}_bank" if bank else ""))
            case.mkdir()
            cfg = _write_small_config(case, **extra)
            flags = ["--preset", preset]
            if bank:
                base, bank_path = case / "base", case / "bank"
                assert run(["train", "--config", cfg, "--seed", 9, "--out", base]) == 0
                assert run(
                    ["bank", "--config", cfg, "--seed", 9, "--checkpoint", base / "checkpoint.pckpt",
                     "--granularity", bank, "--out", bank_path]
                ) == 0
                flags += ["--pace", "--bank", bank_path]
            first, replay = case / "first", case / "replay"
            assert run(["train", "--config", cfg, *flags, "--seed", 9, "--out", first]) == 0, case.name
            pace = json.loads((first / "resolved_config.json").read_text())["pace"]
            assert (pace is not None) == bool(bank), case.name
            assert run(["train", "--config", first / "resolved_config.json", "--out", replay]) == 0, case.name
            assert (first / "metrics.csv").read_bytes() == (replay / "metrics.csv").read_bytes(), case.name
            assert (first / "checkpoint.pckpt").read_bytes() == (replay / "checkpoint.pckpt").read_bytes(), case.name

    @pytest.mark.parametrize(
        "preset, extra, bank", [r for r in REPLAYS if r[2]], ids=[f"{r[0]}+{r[2]}_bank" for r in REPLAYS if r[2]]
    )
    def test_resolved_config_with_the_pace_plans_former_epochs_and_n_replays(self, tmp_path, preset, extra, bank):
        # a resolved_config.json written when the pace plan also held the
        # run's epochs and the bank's unit count
        cfg = _write_small_config(tmp_path, **extra)
        base, bank_path, first, replay = (tmp_path / name for name in ("base", "bank", "first", "replay"))
        assert run(["train", "--config", cfg, "--seed", 9, "--out", base]) == 0
        assert run(
            ["bank", "--config", cfg, "--seed", 9, "--checkpoint", base / "checkpoint.pckpt",
             "--granularity", bank, "--out", bank_path]
        ) == 0
        assert run(["train", "--config", cfg, "--preset", preset, "--pace", "--bank", bank_path, "--seed", 9,
                    "--out", first]) == 0
        resolved = json.loads((first / "resolved_config.json").read_text())
        assert resolved["pace"].keys() == {"lambda", "e_all"}
        units = load_pixel_bank(bank_path).size if bank == "pixel" else len(load_bank(bank_path))
        resolved["pace"].update(epochs=resolved["epochs"], n=units)
        former = tmp_path / "former.json"
        save_json(former, resolved)
        assert run(["train", "--config", former, "--out", replay]) == 0
        assert (first / "metrics.csv").read_bytes() == (replay / "metrics.csv").read_bytes()
        assert (first / "checkpoint.pckpt").read_bytes() == (replay / "checkpoint.pckpt").read_bytes()

    def test_data_flag_naming_the_config_dataset_keeps_its_fields(self, tmp_path):
        cfg = _write_small_config(tmp_path)
        out = tmp_path / "r"
        assert run(["train", "--config", cfg, "--data", "blobs", "--seed", 1, "--out", out]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["data"] == {"name": "blobs", "classes": 3, "per_class": 20, "per_class_val": 10, "dim": 6}
        spec, _, _ = load_checkpoint(out / "checkpoint.pckpt")
        assert spec.dims == (6, 8, 3)

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        for extra, key, near in UNKNOWN_KEYS:
            cfg = _write_small_config(tmp_path, **extra)
            out = tmp_path / "r"
            assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 2, key
            err = capsys.readouterr().err
            assert f"unknown config key '{key}' (did you mean '{near}'?)" in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "flags, extra, message",
        [
            (["--preset", "workflow_cls", "--pace-e-all", 0.2], {}, "--pace-e-all needs a pace plan"),
            (["--pace-e-all", 0.2], {}, "--pace-e-all needs a pace plan"),
            (["--bank", "b.csv"], {}, "bank b.csv is given but no pace plan is active"),
            (["--preset", "workflow_cls", "--bank", "b.csv"], {}, "bank b.csv is given but no pace plan is active"),
            ([], {"bank": "b.csv"}, "bank b.csv is given but no pace plan is active"),
        ],
        ids=["preset_e_all", "e_all", "bank_flag", "preset_bank_flag", "config_bank"],
    )
    def test_pace_setting_without_a_pace_plan_is_config_error(self, tmp_path, capsys, flags, extra, message):
        cfg = _write_small_config(tmp_path, **extra)
        out = tmp_path / "r"
        assert run(["train", "--config", cfg, *flags, "--seed", 1, "--out", out]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, extra, message",
        [
            (["--preset", "tool_cls"], {}, "task 'multilabel' does not match the blobs dataset, whose task is 'multiclass'"),
            ([], {"task": "segmentation"}, "task 'segmentation' does not match the blobs dataset, whose task is 'multiclass'"),
            (["--preset", "workflow_cls", "--data", "shapes"], {},
             "task 'multiclass' does not match the shapes dataset, whose task is 'segmentation'"),
        ],
        ids=["preset", "config", "data_flag"],
    )
    def test_task_the_dataset_contradicts_is_config_error(self, tmp_path, capsys, flags, extra, message):
        cfg = _write_small_config(tmp_path, **extra)
        out = tmp_path / "r"
        assert run(["train", "--config", cfg, *flags, "--seed", 1, "--out", out]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_task_no_layer_sets_is_the_datasets(self, tmp_path):
        data = {"name": "multilabel", "labels": 3, "n": 40, "n_val": 20, "dim": 6}
        cfg = _write_small_config(tmp_path, data=data)
        out = tmp_path / "r"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 0
        assert json.loads((out / "resolved_config.json").read_text())["task"] == "multilabel"
        assert run(["bank", "--config", cfg, "--seed", 1, "--checkpoint", out / "checkpoint.pckpt",
                    "--out", tmp_path / "bank.csv"]) == 0

    def test_nameless_data_field_unknown_to_the_named_dataset_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "data": {"val_fraction": 0.5}}))
        out = tmp_path / "r"
        assert run(["train", "--config", cfg, "--data", "shapes", "--seed", 1, "--out", out]) == 2
        assert f"error: {cfg}: unknown config key 'data.val_fraction'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_data_is_config_error(self, tmp_path, capsys):
        cfg = _write_small_config(tmp_path, data="shapes")
        out = tmp_path / "r"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "'data' must be a JSON object" in err
        assert not out.exists()

    def test_nan_learning_rate_is_config_error(self, tmp_path, capsys):
        # JSON NaN parses to a float that passes every comparison
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"lr": NaN, "epochs": 2}')
        out = tmp_path / "run"
        assert run(["train", "--data", "blobs", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert "lr must be finite, got nan" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("extra,message", WRONG_TYPES, ids=[json.dumps(e) for e, _ in WRONG_TYPES])
    def test_config_value_of_wrong_type_names_the_key(self, tmp_path, capsys, extra, message):
        cfg = _write_small_config(tmp_path, **extra)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("extra,message", OUT_OF_RANGE, ids=[json.dumps(e) for e, _ in OUT_OF_RANGE])
    def test_config_value_out_of_range_names_the_key_before_data(self, tmp_path, capsys, monkeypatch, extra, message):
        def generate(*args, **kwargs):
            raise AssertionError("data generated before the range check")

        monkeypatch.setattr("pcbls.datasets.gen_blobs", generate)
        cfg = _write_small_config(tmp_path, **extra)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("data,message", DATA_OUT_OF_RANGE, ids=[json.dumps(d) for d, _ in DATA_OUT_OF_RANGE])
    def test_data_field_out_of_range_names_the_key_before_data(self, tmp_path, capsys, monkeypatch, data, message):
        def generate(*args, **kwargs):
            raise AssertionError("data generated before the range check")

        monkeypatch.setattr(f"pcbls.datasets.{_LOADERS[data['name']]}", generate)
        cfg = _write_small_config(tmp_path, data=data)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "schedule,message", SCHEDULES_OUT_OF_RANGE, ids=[json.dumps(s) for s, _ in SCHEDULES_OUT_OF_RANGE]
    )
    def test_schedule_out_of_range_is_refused_before_training(self, tmp_path, capsys, monkeypatch, schedule, message):
        def train_(*args, **kwargs):
            raise AssertionError("trained before the schedule check")

        monkeypatch.setattr("pcbls.trainer.train", train_)
        cfg = _write_small_config(tmp_path, schedule=schedule, epochs=5)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: schedule: smoothing factor " in err and message in err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "key, message",
        [
            ("schedule", "schedule: smoothing factor -0.25 at epoch 3 is outside [0, 1)"),
            ("svls_schedule", "svls_schedule: sigma -0.25 at epoch 3 is below 0"),
        ],
        ids=["schedule", "svls_schedule"],
    )
    @pytest.mark.parametrize("epochs_from", ["flags", "file"])
    def test_refused_schedule_names_its_layer_and_that_of_epochs(
        self, tmp_path, capsys, monkeypatch, key, message, epochs_from
    ):
        def generate(*args, **kwargs):
            raise AssertionError("data generated before the schedule check")

        monkeypatch.setattr("pcbls.datasets.gen_shapes_seg", generate)
        schedule = {"kind": "linear", "init": 0.5, "rate": 0.25, "floor": -1}
        cfg = _write_shapes_config(tmp_path, **{key: schedule}, epochs=4 if epochs_from == "file" else 1)
        flags = ["--epochs", 4] if epochs_from == "flags" else []
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, *flags, "--seed", 1, "--out", out]) == 2
        given = " (epochs 4 from flags)" if epochs_from == "flags" else ""
        assert capsys.readouterr().err == f"error: {cfg}: {message}{given}\n"
        assert not out.exists()

    def test_value_at_the_edge_of_its_range_trains(self, tmp_path):
        cfg = _write_small_config(tmp_path, epochs=1, batch_size=1, hidden=1, momentum=0, weight_decay=0)
        assert run(["train", "--config", cfg, "--seed", 1, "--out", tmp_path / "run"]) == 0

    @pytest.mark.parametrize("seed,message", [(None, "got None"), ("x", "got 'x'"), (1.5, "got 1.5")])
    def test_config_seed_of_wrong_type_names_the_key(self, tmp_path, capsys, seed, message):
        cfg = _write_small_config(tmp_path, seed=seed)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--out", out]) == 2
        assert f"error: {cfg}: seed must be an integer, {message}" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_flag_and_preset_values_name_their_layer(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert run(["train", "--data", "blobs", "--epochs", 0, "--seed", 1, "--out", out]) == 2
        assert capsys.readouterr().err == "error: flags: epochs must be at least 1, got 0\n"
        monkeypatch.setitem(PRESETS, "bad", {"lr": -1})
        assert run(["train", "--preset", "bad", "--data", "blobs", "--seed", 1, "--out", out]) == 2
        assert capsys.readouterr().err == "error: preset 'bad': lr must be above 0, got -1.0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--pace-lambda", "nan"], "flags: pace.lambda must be finite, got nan"),
            (["--pace-lambda", 2], "flags: pace.lambda must be in (0, 1], got 2.0"),
            (["--pace-lambda", 0.5, "--pace-e-all", 0], "flags: pace.e_all must be in (0, 1], got 0.0"),
        ],
        ids=["lambda_nan", "lambda_2", "e_all_0"],
    )
    def test_pace_flag_out_of_range_names_the_key_before_data(self, tmp_path, capsys, monkeypatch, flags, message):
        def generate(*args, **kwargs):
            raise AssertionError("data generated before the range check")

        monkeypatch.setattr("pcbls.datasets.gen_blobs", generate)
        out = tmp_path / "run"
        assert run(["train", "--data", "blobs", *flags, "--seed", 1, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_pace_fractions_of_one_are_legal(self):
        args = SimpleNamespace(data="blobs", pace_lambda=1.0, pace_e_all=1.0)
        assert resolve_config(args)["pace"] == {"lambda": 1.0, "e_all": 1.0}

    @pytest.mark.parametrize("key", ["schedule", "svls_schedule"])
    def test_refused_schedule_names_its_layer(self, tmp_path, capsys, monkeypatch, key):
        cfg = tmp_path / "e.json"
        cfg.write_text(json.dumps({key: {"kind": "exponential", "init": 0.5, "rate": 2}}))
        out = tmp_path / "run"
        assert run(["train", "--preset", "segmentation", "--config", cfg, "--data", "shapes", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {key}: exponential schedule needs 0 < rate < 1\n"
        monkeypatch.setitem(PRESETS, "bad", {key: {"kind": "anti", "init": 0.1, "rate": 0.5}})
        assert run(["train", "--preset", "bad", "--data", "shapes", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: preset 'bad': {key}: anti schedule needs rate > 1\n"
        assert not out.exists()

    def test_schedules_from_two_layers_train(self, tmp_path):
        # the preset gives the ULS schedule and the config file the SVLS one
        svls = {"kind": "linear", "init": 1.0, "rate": 0.25}
        cfg = _write_small_config(tmp_path, data=_SHAPES, channels=[2, 2], epochs=2, svls_schedule=svls)
        out = tmp_path / "run"
        assert run(["train", "--preset", "segmentation", "--config", cfg, "--seed", 1, "--out", out]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["schedule"] == {"kind": "exponential", "init": 0.6, "rate": 0.9, "floor": 0.0}
        assert resolved["svls_schedule"] == {**svls, "floor": 0.0}

    def test_integral_float_config_value_is_an_integer(self, tmp_path):
        cfg = _write_small_config(tmp_path, epochs=2.0, batch_size=16.0)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 0
        assert len(load_csv(out / "metrics.csv")[1]) == 2

    def test_non_finite_loss_exits_3_naming_epoch_and_batch(self, tmp_path, capsys):
        # a finite learning rate that overflows the parameters after one step
        cfg = tmp_path / "huge.json"
        cfg.write_text('{"lr": 1e300, "epochs": 2}')
        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            assert run(["train", "--data", "blobs", "--config", cfg, "--seed", 1, "--out", out]) == 3
        assert "non-finite training loss nan in epoch 0, batch " in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_non_finite_parameters_exit_3_naming_the_epoch(self, tmp_path, capsys, monkeypatch):
        # a step that leaves a NaN gradient behind a finite loss
        from pcbls import models

        real_step = models.loss_and_grad_into

        def nan_gradient_step(spec, tensors, grads, *args):
            real_step(spec, tensors, grads, *args)
            grads[-1][0] = np.nan
            return 0.5

        monkeypatch.setattr(models, "loss_and_grad_into", nan_gradient_step)
        cfg = _write_small_config(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 3
        assert "non-finite parameters after epoch 0" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_cifar10_data_spec(self, tmp_path):
        from pcbls.datasets import CIFAR_RECORD

        records = []
        for i in range(30):
            pattern = ((np.arange(CIFAR_RECORD - 1) + 13 * i) % 256).astype(np.uint8)
            records.append(bytes([i % 10]) + pattern.tobytes())
        bin_path = tmp_path / "batch.bin"
        bin_path.write_bytes(b"".join(records))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "hidden": 4, "data": {"val_fraction": 0.2}}))
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--data", f"cifar10:{bin_path}", "--seed", 1, "--out", out]) == 0
        header, rows = load_csv(out / "metrics.csv")
        assert len(rows) == 2
        # the config's nameless 0.2 split holds for the dataset --data names:
        # 6 of the 30 records go to validation, 24 train in each epoch
        assert [r[header.index("active_count")] for r in rows] == ["24", "24"]
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["data"] == {"name": "cifar10", "path": str(bin_path), "val_fraction": 0.2}
        spec, _, _ = load_checkpoint(out / "checkpoint.pckpt")
        assert spec.dims == (3072, 4, 10)


class TestBankCommand:
    def _trained(self, tmp_path):
        cfg = _write_small_config(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 0
        return cfg, out / "checkpoint.pckpt"

    def test_bank_row_count_and_order(self, tmp_path):
        cfg, ckpt = self._trained(tmp_path)
        bank_path = tmp_path / "bank.csv"
        assert run(["bank", "--config", cfg, "--seed", 1, "--checkpoint", ckpt, "--out", bank_path]) == 0
        bank = load_bank(bank_path)
        assert len(bank) == 60  # 3 classes x 20
        assert all(a >= b for a, b in zip(bank.scores, bank.scores[1:]))
        assert bank.source == "plain"

    def test_ts_bank_same_ids_different_scores(self, tmp_path):
        cfg, ckpt = self._trained(tmp_path)
        plain_path = tmp_path / "plain.csv"
        ts_path = tmp_path / "ts.csv"
        assert run(["bank", "--config", cfg, "--seed", 1, "--checkpoint", ckpt, "--out", plain_path]) == 0
        assert run(["bank", "--config", cfg, "--seed", 1, "--checkpoint", ckpt, "--variant", "ts", "--out", ts_path]) == 0
        plain, ts = load_bank(plain_path), load_bank(ts_path)
        assert ts.source == "temperature_scaled"
        assert set(plain.sample_ids.tolist()) == set(ts.sample_ids.tolist())

    def test_ts_bank_warns_when_temperature_is_pinned(self, tmp_path, capsys):
        # the default blobs baseline fits T at the window's lower edge
        out = tmp_path / "baseline"
        assert run(["train", "--data", "blobs", "--seed", 1, "--out", out]) == 0
        bank_path = tmp_path / "ts.csv"
        capsys.readouterr()
        assert run(
            ["bank", "--data", "blobs", "--seed", 1, "--checkpoint", out / "checkpoint.pckpt",
             "--variant", "ts", "--out", bank_path]
        ) == 0
        captured = capsys.readouterr()
        assert "warning: fitted T=0.050002 is pinned" in captured.err
        assert "(T=0.0500)" in captured.out
        assert load_bank(bank_path).source == "temperature_scaled"

    def test_ts_bank_at_unpinned_temperature_does_not_warn(self, tmp_path, capsys):
        cfg, ckpt = self._trained(tmp_path)
        capsys.readouterr()
        assert run(
            ["bank", "--config", cfg, "--seed", 1, "--checkpoint", ckpt, "--variant", "ts", "--out", tmp_path / "ts.csv"]
        ) == 0
        assert "warning" not in capsys.readouterr().err

    def test_paced_training_with_real_bank(self, tmp_path):
        cfg, ckpt = self._trained(tmp_path)
        bank_path = tmp_path / "bank.csv"
        assert run(["bank", "--config", cfg, "--seed", 1, "--checkpoint", ckpt, "--out", bank_path]) == 0
        out = tmp_path / "paced"
        assert run(
            ["train", "--config", cfg, "--seed", 1, "--out", out,
             "--pace-lambda", 0.5, "--pace-e-all", 0.5, "--bank", bank_path]
        ) == 0
        _, rows = load_csv(out / "metrics.csv")
        assert [int(r[1]) for r in rows] == [30, 50, 60]

    def test_pace_e_all_applies_to_the_preset_plan(self, tmp_path):
        # one config file, naming the bank, serves the bank, paced train and eval runs
        _, ckpt = self._trained(tmp_path)
        bank_path = tmp_path / "bank.csv"
        cfg = _write_small_config(tmp_path, bank=str(bank_path))
        assert run(["bank", "--config", cfg, "--seed", 1, "--checkpoint", ckpt, "--out", bank_path]) == 0
        out = tmp_path / "paced"
        assert run(
            ["train", "--config", cfg, "--preset", "workflow_cls", "--pace", "--pace-e-all", 0.5,
             "--seed", 1, "--out", out]
        ) == 0
        _, rows = load_csv(out / "metrics.csv")
        assert [int(r[1]) for r in rows] == [36, 52, 60]  # lambda 0.6 of 60, all active from epoch 1.5
        assert json.loads((out / "resolved_config.json").read_text())["pace"]["e_all"] == 0.5
        assert run(["eval", "--config", cfg, "--seed", 1, "--checkpoint", ckpt, "--out", tmp_path / "e.csv"]) == 0

    def _paced_run_with_edited_bank(self, tmp_path, edit):
        cfg, ckpt = self._trained(tmp_path)
        bank_path = tmp_path / "bank.csv"
        assert run(["bank", "--config", cfg, "--seed", 1, "--checkpoint", ckpt, "--out", bank_path]) == 0
        lines = bank_path.read_text().splitlines()
        bank_path.write_text("\n".join(lines[:1] + [edit(i, line) for i, line in enumerate(lines[1:])]) + "\n")
        out = tmp_path / "paced"
        code = run(
            ["train", "--config", cfg, "--seed", 1, "--out", out,
             "--pace-lambda", 0.5, "--pace-e-all", 0.5, "--bank", bank_path]
        )
        return code, out

    def test_nan_bank_score_is_rejected(self, tmp_path, capsys):
        def nan_score(i, line):
            sid, _, source = line.split(",")
            return f"{sid},nan,{source}" if i == 5 else line

        code, out = self._paced_run_with_edited_bank(tmp_path, nan_score)
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "index, row, problem",
        [
            (1, "7,0.5", "line 3 ['7', '0.5']: expected the 3 fields sample_id,score,source"),
            (5, "5,nan,plain", "line 7 ['5', 'nan', 'plain']: score 'nan' is not finite"),
            (0, "x,0.5,plain", "line 2 ['x', '0.5', 'plain']: invalid literal for int()"),
            (
                3, "99999999999999999999,0.5,plain",
                "line 5 ['99999999999999999999', '0.5', 'plain']: sample id 99999999999999999999 is outside int64",
            ),
        ],
        ids=["short_row", "nan_score", "id_not_integer", "id_outside_int64"],
    )
    def test_malformed_bank_row_names_the_file_and_line(self, tmp_path, capsys, index, row, problem):
        code, out = self._paced_run_with_edited_bank(tmp_path, lambda i, line: row if i == index else line)
        assert code == 2
        assert f"error: {tmp_path / 'bank.csv'} {problem}" in capsys.readouterr().err
        assert not out.exists()

    def test_bank_that_repeats_an_id_names_the_file_and_the_id(self, tmp_path, capsys):
        ids = []

        def repeat(i, line):
            sid, rest = line.split(",", 1)
            ids.append(sid)
            return f"{ids[2]},{rest}" if i == 5 else line  # the third row's id again

        code, out = self._paced_run_with_edited_bank(tmp_path, repeat)
        assert code == 2
        assert f"error: {tmp_path / 'bank.csv'}: sample ids must be unique (id {ids[2]} repeats)" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_bank_rows_after_a_quoted_line_break_name_their_own_line(self, tmp_path, capsys):
        def edit(i, line):
            sid, score, source = line.split(",")
            if i == 1:  # float() takes the trailing line break, so this row loads
                return f'{sid},"{score}\n",{source}'
            return f"{sid},nan,{source}" if i == 5 else line

        code, out = self._paced_run_with_edited_bank(tmp_path, edit)
        assert code == 2
        sid = (tmp_path / "bank.csv").read_text().splitlines()[7].split(",")[0]
        assert f"error: {tmp_path / 'bank.csv'} line 8 ['{sid}', 'nan', 'plain']: score 'nan' is not finite" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_bank_ids_past_the_training_set_are_rejected(self, tmp_path, capsys):
        shifted = []

        def shift_id(i, line):
            sid, rest = line.split(",", 1)
            shifted.append(int(sid) + 1000)
            return f"{shifted[-1]},{rest}"

        code, out = self._paced_run_with_edited_bank(tmp_path, shift_id)
        assert code == 2
        err = capsys.readouterr().err
        assert f"bank sample id {shifted[0]} outside the training set [0, 60)" in err
        assert not (out / "metrics.csv").exists()

    def test_ls_variant_bank(self, tmp_path):
        # smoothed model trained with the constant-0.1 preset, then banked as ls
        cfg = _write_small_config(tmp_path)
        out = tmp_path / "ls_run"
        assert run(["train", "--config", cfg, "--preset", "ls", "--seed", 1, "--out", out]) == 0
        bank_path = tmp_path / "ls_bank.csv"
        assert run(
            ["bank", "--config", cfg, "--seed", 1, "--checkpoint", out / "checkpoint.pckpt",
             "--variant", "ls", "--out", bank_path]
        ) == 0
        assert load_bank(bank_path).source == "label_smoothed"


class TestCorruptEvalCalibrateReport:
    def _trained(self, tmp_path):
        cfg = _write_small_config(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 0
        return cfg, out

    def test_corrupt_then_eval_manifest(self, tmp_path):
        cfg, out = self._trained(tmp_path)
        corr = tmp_path / "corr"
        assert run(["corrupt", "--config", cfg, "--seed", 1, "--kinds", "gaussian_noise,fog", "--out", corr]) == 0
        header, rows = load_csv(corr / "manifest.csv")
        assert len(rows) == 30 * 2 * 5  # 30 val samples x 2 kinds x 5 severities
        rob = tmp_path / "rob.csv"
        assert run(
            ["eval", "--config", cfg, "--seed", 1, "--checkpoint", out / "checkpoint.pckpt",
             "--manifest", corr / "manifest.csv", "--out", rob]
        ) == 0
        rheader, rrows = load_csv(rob)
        assert rheader == ["kind", "sev1", "sev2", "sev3", "sev4", "sev5", "mean"]
        assert [r[0] for r in rrows] == ["fog", "gaussian_noise", "clean"]

    def test_corrupt_replay_identical(self, tmp_path):
        cfg, _ = self._trained(tmp_path)
        a, b = tmp_path / "ca", tmp_path / "cb"
        assert run(["corrupt", "--config", cfg, "--seed", 2, "--kinds", "pixelate", "--out", a]) == 0
        assert run(["corrupt", "--config", cfg, "--seed", 2, "--kinds", "pixelate", "--out", b]) == 0
        for f in sorted(Path(a).glob("*.pgm")):
            assert f.read_bytes() == (Path(b) / f.name).read_bytes()

    @pytest.mark.parametrize(
        "spatial", ["defocus_blur", "glass_blur", "motion_blur", "zoom_blur", "pixelate", "jpeg_like"]
    )
    def test_corrupt_warns_once_of_spatial_kinds_on_vectors(self, tmp_path, capsys, spatial):
        cfg = _write_small_config(tmp_path)
        out = tmp_path / "corr"
        assert run(["corrupt", "--config", cfg, "--seed", 1, "--kinds", f"fog,{spatial}", "--severities", 1,
                    "--out", out]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"warning: {spatial} move or mix neighbouring pixels")
        assert "feature vectors" in err[0] and "fog" not in err[0]
        assert run(["corrupt", "--config", cfg, "--seed", 1, "--kinds", "fog,brightness", "--severities", 1,
                    "--out", tmp_path / "pointwise"]) == 0
        assert capsys.readouterr().err == ""

    def test_corrupt_does_not_warn_on_images(self, tmp_path, capsys):
        cfg = _write_small_config(tmp_path, data=_SHAPES)
        assert run(["corrupt", "--config", cfg, "--seed", 1, "--severities", 1, "--out", tmp_path / "corr"]) == 0
        assert capsys.readouterr().err == ""

    def test_corrupt_rgb_files_equal_per_image_oracle(self, tmp_path):
        corr, ref = tmp_path / "corr", tmp_path / "ref"
        assert run(["corrupt", "--data", "shapes", "--seed", 1, "--severities", "1,5", "--out", corr]) == 0
        _, val_ds = cli.resolve_dataset(resolve_config(SimpleNamespace(data="shapes", seed=1)))
        ref_corrupt_dataset(list(val_ds.inputs), list(cli.corruption.KINDS), [1, 5], derive_seed(1, "corruption"), ref)
        names = sorted(p.name for p in ref.iterdir())
        assert len(names) == 12 * 2 * len(val_ds) + 1 and names[0].endswith(".ppm")
        for name in names:
            assert (corr / name).read_bytes() == (ref / name).read_bytes(), name

    def test_eval_clean(self, tmp_path):
        cfg, out = self._trained(tmp_path)
        dest = tmp_path / "metrics_eval.csv"
        assert run(["eval", "--config", cfg, "--seed", 1, "--checkpoint", out / "checkpoint.pckpt", "--out", dest]) == 0
        header, rows = load_csv(dest)
        assert rows[0][0] == "val_accuracy"
        assert 0.0 <= float(rows[0][1]) <= 1.0

    def test_calibrate_outputs(self, tmp_path):
        cfg, out = self._trained(tmp_path)
        calib = tmp_path / "calib"
        assert run(["calibrate", "--config", cfg, "--seed", 1, "--checkpoint", out / "checkpoint.pckpt", "--out", calib]) == 0
        t = json.loads((calib / "temperature.json").read_text())
        assert t["nll_fitted"] <= t["nll_at_1"] + 1e-9
        header, rows = load_csv(calib / "calibration.csv")
        assert rows[0][0] == "summary"
        assert len(rows) == 1 + 10  # summary + one row per bin
        # the summary's Brier and NLL cells are those of the checkpoint's validation logits
        _, val_ds = cli.resolve_dataset(resolve_config(SimpleNamespace(config=str(cfg), seed=1)))
        spec, params, _ = load_checkpoint(out / "checkpoint.pckpt")
        logits = forward(spec, params, val_ds.inputs)
        assert float(rows[0][2]) == brier(apply_temperature(logits, 1.0), val_ds.targets)
        assert float(rows[0][3]) == nll(logits, val_ds.targets) == t["nll_at_1"]

    def test_report_of_an_undecodable_metrics_csv_names_the_file(self, tmp_path, capsys):
        metrics = tmp_path / "run" / "metrics.csv"
        metrics.parent.mkdir()
        metrics.write_bytes(b"epoch,train_loss\n0,\xff\n")
        out = tmp_path / "report.csv"
        assert run(["report", metrics.parent, "--out", out]) == 2
        assert f"error: {metrics}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bins", [0, -3])
    def test_calibrate_bins_below_one_names_the_flag_before_any_work(self, tmp_path, capsys, bins):
        calib = tmp_path / "calib"
        argv = ["calibrate", "--data", "blobs", "--checkpoint", tmp_path / "none.pckpt", "--out", calib]
        assert run([*argv, "--bins", bins]) == 2
        assert capsys.readouterr().err == f"error: --bins must be at least 1, got {bins}\n"
        assert not calib.exists()

    def test_calibrate_warns_when_temperature_is_pinned(self, tmp_path, capsys):
        # the default blobs baseline fits T at the window's lower edge
        out = tmp_path / "baseline"
        assert run(["train", "--data", "blobs", "--seed", 1, "--out", out]) == 0
        calib = tmp_path / "calib"
        capsys.readouterr()
        assert run(["calibrate", "--data", "blobs", "--seed", 1, "--checkpoint", out / "checkpoint.pckpt", "--out", calib]) == 0
        assert "warning: fitted T=0.050002 is pinned" in capsys.readouterr().err
        assert json.loads((calib / "temperature.json").read_text())["pinned"] is True

    def test_calibrate_records_unpinned_temperature(self, tmp_path, capsys):
        cfg, out = self._trained(tmp_path)
        calib = tmp_path / "calib"
        capsys.readouterr()
        assert run(["calibrate", "--config", cfg, "--seed", 1, "--checkpoint", out / "checkpoint.pckpt", "--out", calib]) == 0
        t = json.loads((calib / "temperature.json").read_text())
        assert t["pinned"] is False and "warning" not in capsys.readouterr().err

    def test_report_rows_and_na(self, tmp_path):
        cfg, out = self._trained(tmp_path)
        report = tmp_path / "report.csv"
        assert run(["report", out, "--out", report]) == 0
        header, rows = load_csv(report)
        # every task's validation columns in table order, then the training loss
        columns = [c for task in TASKS.values() for c in task.columns]
        assert header == ["run", "task", "epochs", *columns, "train_loss"]
        assert columns == ["val_accuracy", "val_map", "val_miou", "val_mdice"]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["task"] == "multiclass"
        assert row["epochs"] == "3"  # the number of epochs run, not the last 0-based index
        assert row["val_map"] == "NA" and row["val_miou"] == "NA"
        assert row["val_accuracy"] not in ("", "NA")

    def test_report_row_of_a_run_directory_with_a_comma_reads_back(self, tmp_path):
        _, out = self._trained(tmp_path)
        named = out.rename(tmp_path / "a,b")
        report = tmp_path / "report.csv"
        assert run(["report", named, "--out", report]) == 0
        header, rows = load_csv(report)
        assert len(header) == 8 and [len(r) for r in rows] == [8]
        assert rows[0][:3] == [str(named), "multiclass", "3"]

    def test_report_column_order_stable(self, tmp_path):
        cfg, out = self._trained(tmp_path)
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run(["report", out, "--out", r1]) == 0
        assert run(["report", out, "--out", r2]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_report_missing_run_dir(self, tmp_path):
        assert run(["report", tmp_path / "ghost", "--out", tmp_path / "r.csv"]) == 2

    @pytest.mark.parametrize(
        "text, problem",
        [("[1, 2]", "config must be a JSON object"), ("nope", "cannot read config")],
        ids=["not_an_object", "not_json"],
    )
    def test_report_of_malformed_resolved_config_is_config_error(self, tmp_path, capsys, text, problem):
        _, out = self._trained(tmp_path)
        (out / "resolved_config.json").write_text(text)
        report = tmp_path / "report.csv"
        assert run(["report", out, "--out", report]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and str(out / "resolved_config.json") in err and problem in err
        assert not report.exists()


class TestSegmentationPipeline:
    def test_pixel_bank_flow(self, tmp_path):
        cfg = tmp_path / "seg.json"
        cfg.write_text(
            json.dumps(
                {
                    "data": {"name": "shapes", "height": 16, "width": 16, "foreground": 2, "n": 8, "n_val": 4},
                    "epochs": 2,
                    "task": "segmentation",
                    "optimizer": "adam",
                    "lr": 1e-3,
                    "channels": [4, 4],
                }
            )
        )
        base = tmp_path / "base"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", base]) == 0
        pix = tmp_path / "pixbank"
        assert run(
            ["bank", "--config", cfg, "--seed", 1, "--checkpoint", base / "checkpoint.pckpt",
             "--granularity", "pixel", "--out", pix]
        ) == 0
        assert len(list(Path(pix).glob("*.pcbl"))) == 8
        paced = tmp_path / "paced"
        assert run(
            ["train", "--config", cfg, "--seed", 1, "--out", paced, "--preset", "segmentation",
             "--pace", "--bank", pix,
             "--epochs", 2, "--batch-size", 4]
        ) == 0
        header, rows = load_csv(paced / "metrics.csv")
        assert header[-2:] == ["val_miou", "val_mdice"]
        assert rows[0][3] == "0.9"  # sigma column carries the spatial factor

    def test_segmentation_eval(self, tmp_path):
        cfg = tmp_path / "seg.json"
        cfg.write_text(
            json.dumps(
                {
                    "data": {"name": "shapes", "height": 16, "width": 16, "foreground": 2, "n": 8, "n_val": 4},
                    "epochs": 1,
                    "task": "segmentation",
                    "optimizer": "adam",
                    "lr": 1e-3,
                    "channels": [4, 4],
                }
            )
        )
        out = tmp_path / "seg_run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 0
        dest = tmp_path / "seg_eval.csv"
        assert run(["eval", "--config", cfg, "--seed", 1, "--checkpoint", out / "checkpoint.pckpt", "--out", dest]) == 0
        _, rows = load_csv(dest)
        assert rows[0][0] == "val_miou" and rows[1][0] == "val_mdice"


def _write_shapes_config(tmp_path, **extra):
    cfg = {
        "data": {"name": "shapes", "height": 16, "width": 16, "foreground": 2, "n": 8, "n_val": 4},
        "epochs": 1,
        "task": "segmentation",
        "optimizer": "adam",
        "lr": 1e-3,
        "channels": [4, 4],
    }
    cfg.update(extra)
    p = tmp_path / "seg.json"
    p.write_text(json.dumps(cfg))
    return p


class TestSegmentationChecks:
    def test_pixel_bank_of_other_frame_shape_is_config_error(self, tmp_path, capsys):
        # 4 sidecars of 32x16 hold as many pixels as the 8 training frames of
        # 16x16, so only a shape check tells them apart
        cfg = _write_shapes_config(tmp_path)
        pix = tmp_path / "pixbank"
        save_pixel_bank(pix, np.random.default_rng(0).uniform(size=(4, 32, 16)).astype(np.float32))
        out = tmp_path / "paced"
        assert run(
            ["train", "--config", cfg, "--seed", 1, "--out", out, "--preset", "segmentation",
             "--pace", "--bank", pix]
        ) == 2
        err = capsys.readouterr().err
        assert "(4, 32, 16)" in err and "(8, 16, 16)" in err
        assert not (out / "metrics.csv").exists()

    def test_pixel_bank_with_mixed_frame_shapes_is_config_error(self, tmp_path, capsys):
        cfg = _write_shapes_config(tmp_path)
        pix = tmp_path / "pixbank"
        save_pixel_bank(pix, [np.zeros((16, 16), np.float32)] * 6 + [np.zeros((8, 32), np.float32)] * 2)
        assert run(
            ["train", "--config", cfg, "--seed", 1, "--out", tmp_path / "paced", "--preset", "segmentation",
             "--pace", "--bank", pix]
        ) == 2
        assert "000006.pcbl: shape (8, 32), but 000000.pcbl has shape (16, 16)" in capsys.readouterr().err

    def test_pixel_bank_sidecar_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        cfg = _write_shapes_config(tmp_path)
        pix = tmp_path / "pixbank"
        save_pixel_bank(pix, np.zeros((8, 16, 16), np.float32))
        (pix / "000003.pcbl").unlink()
        (pix / "000003.pcbl").mkdir()
        out = tmp_path / "paced"
        assert run(
            ["train", "--config", cfg, "--seed", 1, "--out", out, "--preset", "segmentation", "--pace", "--bank", pix]
        ) == 2
        assert f"error: {pix / '000003.pcbl'}: cannot read the file: Is a directory" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda pix: (pix / "000003.pcbl").unlink(), "sidecar 000003.pcbl is missing"),
            (lambda pix: (pix / "zz_copy.pcbl").write_bytes((pix / "000000.pcbl").read_bytes()),
             "unexpected file zz_copy.pcbl: sidecars are named 000000.pcbl, 000001.pcbl, ..."),
        ],
        ids=["gap", "stray"],
    )
    def test_pixel_bank_with_a_gap_or_a_stray_sidecar_is_config_error(self, tmp_path, capsys, edit, message):
        cfg = _write_shapes_config(tmp_path)
        pix = tmp_path / "pixbank"
        save_pixel_bank(pix, np.zeros((8, 16, 16), np.float32))
        edit(pix)
        out = tmp_path / "paced"
        assert run(
            ["train", "--config", cfg, "--seed", 1, "--out", out, "--preset", "segmentation", "--pace", "--bank", pix]
        ) == 2
        assert capsys.readouterr().err == f"error: {pix}: {message}\n"
        assert not out.exists()

    def test_nan_spatial_schedule_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"svls_schedule": {"kind": "constant", "init": NaN}, "epochs": 2}')
        out = tmp_path / "run"
        assert run(["train", "--data", "shapes", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert "svls_schedule: init must be finite, got nan" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_even_svls_kernel_is_refused_before_data(self, tmp_path, capsys, monkeypatch):
        def generate(*args, **kwargs):
            raise AssertionError("data generated before the range check")

        monkeypatch.setattr("pcbls.datasets.gen_shapes_seg", generate)
        cfg = _write_shapes_config(tmp_path, svls_kernel=2, svls_schedule={"kind": "constant", "init": 0.5})
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert f"error: {cfg}: svls_kernel must be odd and at least 1, got 2" in capsys.readouterr().err
        assert not out.exists()

    def test_smoothing_factor_out_of_range_is_config_error(self, tmp_path, capsys):
        cfg = _write_shapes_config(tmp_path, schedule={"kind": "constant", "init": 1.5})
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert f"error: {cfg}: schedule: smoothing factor 1.5 at epoch 0 is outside [0, 1)" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "schedule,message",
        [
            ({"kind": "linear", "init": 0.5, "rate": 0.25, "floor": -1}, "sigma -0.25 at epoch 3 is below 0"),
            ({"kind": "random", "range": [-0.5, 0.5], "seed": 0}, "sigma -0.4625917357742887 at epoch 2 is below 0"),
        ],
        ids=["linear", "random"],
    )
    def test_spatial_schedule_below_zero_is_refused_before_training(
        self, tmp_path, capsys, monkeypatch, schedule, message
    ):
        # every epoch's sigma is checked before the run trains or writes a file
        def train_(*args, **kwargs):
            raise AssertionError("trained before the spatial schedule check")

        monkeypatch.setattr("pcbls.trainer.train", train_)
        cfg = _write_shapes_config(tmp_path, svls_schedule=schedule, epochs=4)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: svls_schedule: sigma ") and message in err
        assert not out.exists()


class TestBankGranularity:
    """The bank decides the pacing granularity: a directory is a pixel bank,
    a file a sample bank, and no bank means sample."""

    def test_pixel_bank_dir_without_a_preset_trains_as_the_trainer_does(self, tmp_path):
        cfg = _write_shapes_config(tmp_path, epochs=2)
        maps = np.random.default_rng(3).uniform(size=(8, 16, 16)).astype(np.float32)
        pix = tmp_path / "pixbank"
        save_pixel_bank(pix, maps)
        out = tmp_path / "paced"
        assert run(
            ["train", "--data", "shapes", "--config", cfg, "--seed", 1, "--out", out,
             "--pace", "--pace-lambda", 0.5, "--bank", pix]
        ) == 0
        seed = derive_seed(1, "data")
        tr = gen_shapes_seg(16, 16, 2, 8, seed=seed, split="train")
        va = gen_shapes_seg(16, 16, 2, 4, seed=seed, split="val")
        tc = TrainConfig(
            task="segmentation", model=ModelSpec("tiny_fcn", (3, 4, 4, 3)), epochs=2,
            optimizer="adam", lr=1e-3, seed=1, pace=PacePlan(0.5, 0.4),
        )
        result = train(tc, tr.inputs, tr.targets, va.inputs, va.targets, 3, bank=maps)
        _, params, _ = load_checkpoint(out / "checkpoint.pckpt")
        assert params.tobytes() == result.params.tobytes()
        _, rows = load_csv(out / "metrics.csv")
        assert [int(r[1]) for r in rows] == [r.active_count for r in result.records] == [1024, 2048]
        assert json.loads((out / "resolved_config.json").read_text())["granularity"] == "pixel"

    @pytest.mark.parametrize("given", ["sample"])
    def test_granularity_the_pixel_bank_contradicts_is_config_error(self, tmp_path, capsys, given):
        cfg = _write_shapes_config(tmp_path, granularity=given)
        pix = tmp_path / "pixbank"
        save_pixel_bank(pix, np.full((8, 16, 16), 0.5, dtype=np.float32))
        out = tmp_path / "paced"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out, "--pace-lambda", 0.5, "--bank", pix]) == 2
        assert f"granularity {given!r} contradicts the bank {pix}, whose granularity is 'pixel'" in capsys.readouterr().err
        assert not out.exists()

    def test_granularity_the_sample_bank_contradicts_is_config_error(self, tmp_path, capsys):
        cfg = _write_small_config(tmp_path, granularity="pixel")
        bank = tmp_path / "bank.csv"
        bank.write_text("sample_id,score,source\n" + "".join(f"{i},0.5,plain\n" for i in range(60)))
        out = tmp_path / "paced"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out, "--pace-lambda", 0.5, "--bank", bank]) == 2
        assert f"granularity 'pixel' contradicts the bank {bank}, whose granularity is 'sample'" in capsys.readouterr().err
        assert not out.exists()

    def test_pixel_granularity_without_a_bank_is_config_error(self, tmp_path, capsys):
        cfg = _write_shapes_config(tmp_path, granularity="pixel")
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert "granularity 'pixel' contradicts a run without a bank, whose granularity is 'sample'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_bank_builds_the_granularity_of_its_config(self, tmp_path):
        assert run(["train", "--config", _write_shapes_config(tmp_path), "--seed", 1, "--out", tmp_path / "base"]) == 0
        # a train run without a bank refuses "pixel"; the bank command takes it
        cfg = _write_shapes_config(tmp_path, granularity="pixel")
        flags = ["bank", "--config", cfg, "--seed", 1, "--checkpoint", tmp_path / "base" / "checkpoint.pckpt"]
        assert run([*flags, "--out", tmp_path / "pix"]) == 0
        assert sorted(p.name for p in (tmp_path / "pix").iterdir()) == [f"{i:06d}.pcbl" for i in range(8)]
        # the flag is the layer above the config
        assert run([*flags, "--granularity", "sample", "--out", tmp_path / "bank.csv"]) == 0
        assert len(load_bank(tmp_path / "bank.csv")) == 8

    def test_bank_out_is_checked_against_the_config_granularity(self, tmp_path, capsys):
        cfg = _write_shapes_config(tmp_path, granularity="pixel")
        taken = tmp_path / "taken"
        taken.write_text("keep")
        assert run(["bank", "--config", cfg, "--seed", 1, "--checkpoint", tmp_path / "none.pckpt", "--out", taken]) == 2
        assert f"--out {taken} is an existing file, not a directory" in capsys.readouterr().err
        assert taken.read_text() == "keep"

    def test_bank_of_an_unknown_config_granularity_is_config_error(self, tmp_path, capsys):
        # refused before the checkpoint, which does not exist, is looked for
        cfg = _write_shapes_config(tmp_path, granularity="voxel")
        out = tmp_path / "bank"
        assert run(["bank", "--config", cfg, "--seed", 1, "--checkpoint", tmp_path / "none.pckpt", "--out", out]) == 2
        assert f"error: {cfg}: granularity must be one of sample, pixel, got 'voxel'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("data, shape", [("blobs", (1000, 16)), ("multilabel", (600, 16))])
    def test_tiny_fcn_on_vector_data_is_config_error(self, tmp_path, capsys, data, shape):
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--arch", "tiny_fcn", "--seed", 1, "--epochs", 1, "--out", out]) == 2
        assert f"error: tiny_fcn expects (N,H,W,C) inputs, got {shape}" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_fcn_checkpoint_on_vector_data_is_config_error(self, tmp_path, capsys):
        run_dir = tmp_path / "seg_run"
        assert run(["train", "--config", _write_shapes_config(tmp_path), "--seed", 1, "--out", run_dir]) == 0
        dest = tmp_path / "eval.csv"
        assert run(["eval", "--data", "blobs", "--seed", 1, "--checkpoint", run_dir / "checkpoint.pckpt", "--out", dest]) == 2
        err = capsys.readouterr().err
        assert "error: checkpoint does not fit this dataset: tiny_fcn expects (N,H,W,3) inputs, got (1, 16)" in err
        assert not dest.exists()

    def test_bank_of_another_task_is_refused_before_anything_is_loaded_or_fitted(self, tmp_path, capsys, monkeypatch):
        cfg = _write_small_config(tmp_path)
        base = tmp_path / "base"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", base]) == 0
        calls = []
        load = cli.fileio.load_checkpoint
        monkeypatch.setattr(cli.fileio, "load_checkpoint", lambda path: calls.append("load_checkpoint") or load(path))
        monkeypatch.setattr(cli, "fit_temperature", lambda *args: calls.append("fit_temperature"))
        capsys.readouterr()
        out = tmp_path / "pix"
        assert run(
            ["bank", "--config", cfg, "--seed", 1, "--checkpoint", base / "checkpoint.pckpt",
             "--variant", "ts", "--granularity", "pixel", "--out", out]
        ) == 2
        assert capsys.readouterr().err == "error: pixel banks require the segmentation task\n"
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            (["bank", "--variant", "ts"], "temperature-scaled banks require the multiclass task"),
            (["eval", "--manifest", "manifest.csv"], "robustness evaluation requires a multiclass dataset"),
            (["calibrate"], "calibration requires a multiclass dataset"),
        ],
        ids=["ts_bank", "eval_manifest", "calibrate"],
    )
    def test_multiclass_commands_refuse_segmentation_before_the_checkpoint(self, tmp_path, capsys, command, message):
        # the checkpoint does not exist: the task is refused before it is looked for
        cfg = _write_shapes_config(tmp_path)
        out = tmp_path / "out"
        assert run([*command, "--config", cfg, "--seed", 1, "--checkpoint", tmp_path / "none.pckpt", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["segmentation_mlp", "multiclass_tiny_fcn"])
    def test_architecture_of_another_logit_layout_is_refused_before_the_first_epoch(
        self, tmp_path, capsys, monkeypatch, case
    ):
        def train(*args, **kwargs):
            raise AssertionError("trained before the architecture check")

        monkeypatch.setattr(cli.trainer, "train", train)
        if case == "segmentation_mlp":
            data, arch = ["--config", _write_shapes_config(tmp_path)], "mlp"
            message = "task 'segmentation' needs (N,H,W,K) logits as tiny_fcn gives; arch 'mlp' gives (N,K)"
        else:
            # RGB images, which tiny_fcn reads, of a multiclass dataset
            images = np.random.default_rng(0).uniform(size=(20, 4, 4, 3))
            save_image_dataset(LabeledDataset("multiclass", images, np.arange(20) % 3, 3), tmp_path / "data")
            data, arch = ["--data", f"dir:{tmp_path / 'data'}"], "tiny_fcn"
            message = "task 'multiclass' needs (N,K) logits as mlp gives; arch 'tiny_fcn' gives (N,H,W,K)"
        out = tmp_path / "run"
        assert run(["train", *data, "--arch", arch, "--epochs", 1, "--seed", 1, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("granularity", ["pixel", "sample"])
    def test_architecture_of_a_paced_run_is_refused_before_its_bank_is_read(
        self, tmp_path, capsys, monkeypatch, granularity
    ):
        def load(path):
            raise AssertionError(f"bank {path} read before the architecture check")

        monkeypatch.setattr(cli.fileio, "load_pixel_bank", load)
        monkeypatch.setattr(cli.fileio, "load_bank", load)
        if granularity == "pixel":
            bank = tmp_path / "pixbank"
            save_pixel_bank(bank, np.full((8, 16, 16), 0.5, dtype=np.float32))
        else:
            bank = tmp_path / "bank.csv"
            bank.write_text("sample_id,score,source\n" + "".join(f"{i},0.5,plain\n" for i in range(8)))
        out = tmp_path / "run"
        assert run(
            ["train", "--config", _write_shapes_config(tmp_path), "--arch", "mlp", "--pace-lambda", 0.5,
             "--bank", bank, "--seed", 1, "--out", out]
        ) == 2
        assert capsys.readouterr().err == (
            "error: task 'segmentation' needs (N,H,W,K) logits as tiny_fcn gives; arch 'mlp' gives (N,K)\n"
        )
        assert not out.exists()

    def test_pixel_bank_on_blobs_is_config_error(self, tmp_path, capsys):
        cfg = _write_small_config(tmp_path)
        pix = tmp_path / "pixbank"
        save_pixel_bank(pix, np.full((60, 2, 2), 0.5, dtype=np.float32))
        out = tmp_path / "paced"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out, "--pace-lambda", 0.5, "--bank", pix]) == 2
        assert "pixel-wise pacing requires the segmentation task" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def corrupted_run(tmp_path_factory):
    """A trained checkpoint and its fog corruptions, shared by the checks below."""
    tmp_path = tmp_path_factory.mktemp("corrupted_run")
    cfg = _write_small_config(tmp_path)
    out = tmp_path / "run"
    assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 0
    corr = tmp_path / "corr"
    assert run(["corrupt", "--config", cfg, "--seed", 1, "--kinds", "fog", "--out", corr]) == 0
    return cfg, out / "checkpoint.pckpt", corr


class TestEvalManifestChecks:
    """A bad manifest row fails with exit 2 and names the row's line."""

    def _eval_edited(self, corrupted_run, name, line3):
        cfg, ckpt, corr = corrupted_run
        lines = (corr / "manifest.csv").read_text().splitlines()
        lines[2] = line3
        manifest = corr / f"manifest_{name}.csv"
        manifest.write_text("\n".join(lines) + "\n", errors="surrogateescape")
        return run(["eval", "--config", cfg, "--seed", 1, "--checkpoint", ckpt,
                    "--manifest", manifest, "--out", corr.parent / f"{name}.csv"])

    @pytest.mark.parametrize(
        "name, line3, problem",
        [
            ("short_row", "1,fog", "4 fields"),
            ("id_outside_val", "1000,fog,1,fog_s1_000001.pgm", "orig_id 1000"),
            ("missing_image", "1,fog,1,fog_s1_999999.pgm", "cannot read"),
            ("escaping_path", "1,fog,1,../../etc/passwd", "leaves the manifest"),
            ("unknown_kind", "1,bogus,1,fog_s1_000001.pgm", "unknown corruption kind 'bogus'"),
        ],
    )
    def test_bad_row_is_config_error(self, corrupted_run, capsys, name, line3, problem):
        assert self._eval_edited(corrupted_run, name, line3) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and problem in err
        assert not (corrupted_run[2].parent / f"{name}.csv").exists()

    @pytest.mark.parametrize(
        "name, line3, problem",
        [
            ("undecodable", "1,fog,1,fog_s1_\udcff.pgm", "'utf-8' codec can't decode byte 0xff"),
            ("oversized", "1,fog,1," + "x" * 131073, "field larger than field limit (131072)"),
        ],
        ids=["undecodable", "oversized"],
    )
    def test_unreadable_manifest_names_the_file(self, corrupted_run, capsys, name, line3, problem):
        # the line goes through surrogateescape, so the bad byte reaches the file
        assert self._eval_edited(corrupted_run, name, line3) == 2
        manifest = corrupted_run[2] / f"manifest_{name}.csv"
        assert f"error: {manifest}: {problem}" in capsys.readouterr().err
        assert not (corrupted_run[2].parent / f"{name}.csv").exists()

    @pytest.mark.parametrize(
        "line4, problem",
        [
            ("1000,fog,1,fog_s1_000001.pgm", "line 4 ['1000', 'fog', '1', 'fog_s1_000001.pgm']: orig_id 1000"),
            ("1,fog,1,fog_s1_999999.pgm", "line 4 (fog_s1_999999.pgm): cannot read the file"),
        ],
        ids=["bad_row", "missing_image"],
    )
    def test_rows_after_a_quoted_line_break_name_their_own_line(self, corrupted_run, capsys, line4, problem):
        cfg, ckpt, corr = corrupted_run
        lines = (corr / "manifest.csv").read_text().splitlines()
        orig_id, rest = lines[1].split(",", 1)
        # int() takes the trailing line break, so the first row spans lines 2 and 3
        lines[1:3] = [f'"{orig_id}\n",{rest}', line4]
        manifest = corr / "manifest_spanning.csv"
        manifest.write_text("\n".join(lines) + "\n")
        out = corr.parent / "spanning.csv"
        assert run(["eval", "--config", cfg, "--seed", 1, "--checkpoint", ckpt,
                    "--manifest", manifest, "--out", out]) == 2
        assert f"error: {manifest} {problem}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_cell_image_listed_twice_is_config_error(self, corrupted_run, capsys):
        # a repeated image would count twice in its cell's accuracy
        cfg, ckpt, corr = corrupted_run
        lines = (corr / "manifest.csv").read_text().splitlines()
        manifest = corr / "manifest_twice.csv"
        manifest.write_text("\n".join(lines + [lines[3]]) + "\n")
        out = corr.parent / "twice.csv"
        assert run(["eval", "--config", cfg, "--seed", 1, "--checkpoint", ckpt,
                    "--manifest", manifest, "--out", out]) == 2
        orig_id, kind, severity, _ = lines[3].split(",")
        assert (
            f"error: {manifest} lines 4 and {len(lines) + 1}: "
            f"orig_id {orig_id}, kind {kind}, severity {severity} listed twice"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_image_of_another_shape_is_config_error(self, corrupted_run, capsys):
        corr = corrupted_run[2]
        # as many pixels as a (1, 6) validation vector, so a reshape would accept it
        (corr / "odd_shape.pgm").write_bytes(b"P5\n3 2\n255\n" + bytes(6))
        assert self._eval_edited(corrupted_run, "odd_shape", "1,fog,1,odd_shape.pgm") == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "(2, 3)" in err and "(1, 6)" in err

    def test_image_with_a_bad_header_names_the_manifest_line(self, corrupted_run, capsys):
        corr = corrupted_run[2]
        (corr / "bad_header.pgm").write_bytes(b"P5\n6")
        assert self._eval_edited(corrupted_run, "bad_header", "1,fog,1,bad_header.pgm") == 2
        manifest = corr / "manifest_bad_header.csv"
        assert f"error: {manifest} line 3 (bad_header.pgm): bad or truncated header" in capsys.readouterr().err
        assert not (corr.parent / "bad_header.csv").exists()


class TestCheckpointLoader:
    """bank, eval and calibrate load a checkpoint alike: one that is missing,
    malformed or does not fit the dataset exits 2, naming the problem."""

    @pytest.mark.parametrize("command", ["bank", "eval", "calibrate"])
    @pytest.mark.parametrize(
        "data, problem",
        [
            ({"classes": 5, "per_class": 10, "per_class_val": 5, "dim": 6}, "checkpoint predicts 3 classes but dataset has 5"),
            ({"classes": 3, "per_class": 10, "per_class_val": 5, "dim": 7}, "checkpoint does not fit this dataset"),
        ],
        ids=["classes", "width"],
    )
    def test_checkpoint_that_does_not_fit_is_config_error(self, corrupted_run, tmp_path, capsys, command, data, problem):
        _, ckpt, _ = corrupted_run
        cfg = _write_small_config(tmp_path, data={"name": "blobs", **data})
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--seed", 1, "--checkpoint", ckpt, "--out", out]) == 2
        assert f"error: {problem}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bank", "eval", "calibrate"])
    @pytest.mark.parametrize(
        "content, problem", [(None, "checkpoint not found"), (b"PCKPT", "not a checkpoint (bad magic)")],
        ids=["missing", "malformed"],
    )
    def test_missing_or_malformed_checkpoint_is_config_error(self, tmp_path, capsys, command, content, problem):
        cfg = _write_small_config(tmp_path)
        ckpt = tmp_path / "c.pckpt"
        if content is not None:
            ckpt.write_bytes(content)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--seed", 1, "--checkpoint", ckpt, "--out", out]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "data",
        [
            {"name": "blobs", "classes": 3, "per_class": 20, "per_class_val": 10, "dim": 6},
            {"name": "multilabel", "labels": 3, "n": 40, "n_val": 20, "dim": 6},
            {"name": "shapes", "height": 16, "width": 16, "foreground": 2, "n": 8, "n_val": 4},
        ],
        ids=["multiclass", "multilabel", "segmentation"],
    )
    def test_eval_metrics_equal_the_last_epoch_of_training(self, tmp_path, data):
        cfg = _write_small_config(tmp_path, data=data)
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 0
        dest = tmp_path / "eval.csv"
        assert run(["eval", "--config", cfg, "--seed", 1, "--checkpoint", out / "checkpoint.pckpt", "--out", dest]) == 0
        header, rows = load_csv(out / "metrics.csv")
        last = dict(zip(header, rows[-1]))
        metrics = [(name, value) for name, value in load_csv(dest)[1] if name != "skipped_labels"]
        assert metrics and all(last[name] == value for name, value in metrics)

    def test_eval_of_a_multilabel_checkpoint_writes_the_map_rows(self, tmp_path):
        cfg = _write_small_config(tmp_path, data={"name": "multilabel", "labels": 3, "n": 40, "n_val": 20, "dim": 6})
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--seed", 1, "--out", out]) == 0
        dest = tmp_path / "eval.csv"
        assert run(["eval", "--config", cfg, "--seed", 1, "--checkpoint", out / "checkpoint.pckpt", "--out", dest]) == 0
        header, rows = load_csv(dest)
        assert header == ["metric", "value"]
        assert [r[0] for r in rows] == ["val_map", "skipped_labels"]
        assert 0.0 <= float(rows[0][1]) <= 1.0


class TestDirDataset:
    """A malformed dir: dataset exits 2 through "cannot load dataset dir",
    naming the file (and the labels.csv line) before any image is read."""

    @pytest.mark.parametrize(
        "meta, line3, problem",
        [
            ([1, 2], None, "meta.json: expected a JSON object, got [1, 2]"),
            ({"task": "multiclass"}, None, "meta.json: num_classes must be a positive integer, got None"),
            ({"task": "multiclass", "num_classes": "3"}, None, "meta.json: num_classes must be a positive integer"),
            ({"task": "regression", "num_classes": 3}, None, "meta.json: task must be 'multiclass'"),
            (None, "1,1", "labels.csv line 3 ['1', '1']: expected the 3 fields id,label,path"),
            (None, "1,x,000001.pgm", "labels.csv line 3 ['1', 'x', '000001.pgm']: label 'x' is not an integer"),
            (None, "1,3,000001.pgm", "labels.csv line 3 ['1', '3', '000001.pgm']: label 3 outside [0, 3)"),
            (None, "1,1,../outside.pgm", "labels.csv line 3 ['1', '1', '../outside.pgm']: path '../outside.pgm' leaves"),
        ],
        ids=["meta_not_object", "no_num_classes", "num_classes_not_integer", "unknown_task",
             "short_row", "label_not_integer", "label_out_of_range", "path_leaves_the_directory"],
    )
    def test_malformed_dataset_is_config_error(self, tmp_path, capsys, meta, line3, problem):
        d = tmp_path / "data"
        save_image_dataset(gen_blobs(3, 10, dim=8, seed=0), d)
        # a readable image outside the directory, which a path must not reach
        (tmp_path / "outside.pgm").write_bytes((d / "000001.pgm").read_bytes())
        if meta is not None:
            (d / "meta.json").write_text(json.dumps(meta))
        if line3 is not None:
            lines = (d / "labels.csv").read_text().splitlines()
            lines[2] = line3
            (d / "labels.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert run(["train", "--data", f"dir:{d}", "--epochs", 1, "--seed", 1, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot load dataset dir {d}: {d}" in err and problem in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line3, problem",
        [
            (b"1,1,\xff.pgm", "'utf-8' codec can't decode byte 0xff"),
            (b"1,1," + b"x" * 131073, "field larger than field limit (131072)"),
        ],
        ids=["undecodable", "oversized"],
    )
    def test_unreadable_labels_csv_names_the_file(self, tmp_path, capsys, line3, problem):
        d = tmp_path / "data"
        save_image_dataset(gen_blobs(3, 10, dim=8, seed=0), d)
        lines = (d / "labels.csv").read_bytes().splitlines()
        lines[2] = line3
        (d / "labels.csv").write_bytes(b"\n".join(lines) + b"\n")
        out = tmp_path / "run"
        assert run(["train", "--data", f"dir:{d}", "--epochs", 1, "--seed", 1, "--out", out]) == 2
        assert f"error: cannot load dataset dir {d}: {d / 'labels.csv'}: {problem}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda img: img.unlink(), "cannot read the file: No such file or directory"),
            (lambda img: img.write_bytes(img.read_bytes()[:-1]), "expected 8 pixel bytes, found 7"),
        ],
        ids=["missing", "truncated"],
    )
    def test_unreadable_image_names_the_labels_csv_line(self, tmp_path, capsys, edit, problem):
        d = tmp_path / "data"
        save_image_dataset(gen_blobs(3, 10, dim=8, seed=0), d)
        edit(d / "000004.pgm")
        out = tmp_path / "run"
        assert run(["train", "--data", f"dir:{d}", "--epochs", 1, "--seed", 1, "--out", out]) == 2
        assert f"error: cannot load dataset dir {d}: {d / 'labels.csv'} line 6 (000004.pgm): {problem}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_an_image_after_a_quoted_line_break_names_its_own_line(self, tmp_path, capsys):
        d = tmp_path / "data"
        save_image_dataset(gen_blobs(3, 10, dim=8, seed=0), d)
        lines = (d / "labels.csv").read_text().splitlines()
        sample_id, rest = lines[1].split(",", 1)
        lines[1] = f'"{sample_id}\nzero",{rest}'  # the id is not read, so this row loads
        (d / "labels.csv").write_text("\n".join(lines) + "\n")
        (d / "000004.pgm").unlink()
        out = tmp_path / "run"
        assert run(["train", "--data", f"dir:{d}", "--epochs", 1, "--seed", 1, "--out", out]) == 2
        assert f"{d / 'labels.csv'} line 7 (000004.pgm): cannot read the file" in capsys.readouterr().err
        assert not out.exists()

    def test_labels_csv_without_images_is_config_error(self, tmp_path, capsys):
        d = tmp_path / "data"
        save_image_dataset(gen_blobs(3, 10, dim=8, seed=0), d)
        (d / "labels.csv").write_text("id,label,path\n")
        out = tmp_path / "run"
        assert run(["train", "--data", f"dir:{d}", "--epochs", 1, "--seed", 1, "--out", out]) == 2
        assert f"error: cannot load dataset dir {d}: {d / 'labels.csv'}: no sample files" in capsys.readouterr().err
        assert not out.exists()

    def test_well_formed_dataset_trains(self, tmp_path):
        d = tmp_path / "data"
        save_image_dataset(gen_blobs(3, 10, dim=8, seed=0), d)
        out = tmp_path / "run"
        assert run(["train", "--data", f"dir:{d}", "--epochs", 1, "--seed", 1, "--out", out]) == 0
        assert load_checkpoint(out / "checkpoint.pckpt")[0].dims == (8, 32, 3)


class TestCorruptFlagChecks:
    @pytest.mark.parametrize(
        "flags, problem",
        [
            (["--kinds", ""], "--kinds"),
            (["--kinds", "fog,fog"], "'fog' more than once"),
            (["--kinds", "fog", "--severities", "1,2,1"], "1 more than once"),
            (["--kinds", "fog", "--severities", "1,x"], "--severities: 'x'"),
        ],
    )
    def test_bad_flags_are_config_errors(self, tmp_path, capsys, flags, problem):
        cfg = _write_small_config(tmp_path)
        out = tmp_path / "corr"
        assert run(["corrupt", "--config", cfg, "--seed", 1, *flags, "--out", out]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()


class TestOutChecks:
    """Every --out is checked before any work. A command that writes a
    directory (train, corrupt, a pixel bank, calibrate) exits 2 on an existing
    file there; one that writes a file (eval, a sample bank, report) exits 2
    on an existing directory. Both name --out and the path."""

    @pytest.mark.parametrize("command", ["corrupt", "pixel_bank"])
    def test_out_that_is_an_existing_file_is_config_error(self, tmp_path, capsys, command):
        cfg = _write_small_config(tmp_path, epochs=1)
        flags = ["--config", cfg, "--seed", 1]
        if command == "pixel_bank":
            assert run(["train", *flags, "--out", tmp_path / "run"]) == 0
            # checked before the task, which a blobs run fails for pixel banks
            flags = ["bank", *flags, "--granularity", "pixel", "--checkpoint", tmp_path / "run" / "checkpoint.pckpt"]
        else:
            flags = ["corrupt", *flags]
        taken = tmp_path / "taken"
        taken.write_text("keep")
        assert run([*flags, "--out", taken]) == 2
        assert f"--out {taken} is an existing file, not a directory" in capsys.readouterr().err
        assert taken.read_text() == "keep"


    @pytest.fixture
    def no_work(self, monkeypatch):
        """Fails any command that gets as far as loading a dataset, a
        checkpoint or a run's metrics: an --out refusal must come first.
        Resolving the config comes before it, because bank takes from the
        config the granularity that decides whether --out is a file."""

        def work(*args, **kwargs):
            raise AssertionError("work started before the --out check")

        monkeypatch.setattr(cli, "resolve_dataset", work)
        monkeypatch.setattr(cli.fileio, "load_checkpoint", work)
        monkeypatch.setattr(cli.fileio, "load_csv", work)

    @pytest.mark.parametrize("command", ["train", "calibrate"])
    def test_directory_out_that_is_an_existing_file_is_config_error(self, tmp_path, capsys, no_work, command):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        flags = ["--checkpoint", tmp_path / "ckpt.pckpt"] if command == "calibrate" else []
        assert run([command, "--data", "blobs", "--seed", 1, *flags, "--out", taken]) == 2
        assert f"--out {taken} is an existing file, not a directory" in capsys.readouterr().err
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("command", ["eval", "sample_bank", "report"])
    def test_file_out_that_is_an_existing_directory_is_config_error(self, tmp_path, capsys, no_work, command):
        taken = tmp_path / "taken"
        taken.mkdir()
        flags = {
            "eval": ["eval", "--data", "blobs", "--checkpoint", tmp_path / "ckpt.pckpt"],
            "sample_bank": ["bank", "--data", "blobs", "--checkpoint", tmp_path / "ckpt.pckpt"],
            "report": ["report", tmp_path / "run"],
        }[command]
        assert run([*flags, "--out", taken]) == 2
        assert f"--out {taken} is an existing directory, not a file" in capsys.readouterr().err
        assert list(taken.iterdir()) == []

    def test_bank_without_out_is_refused_before_scoring(self, tmp_path, capsys, no_work):
        with pytest.raises(SystemExit) as exit_info:
            run(["bank", "--data", "blobs", "--seed", 1, "--checkpoint", tmp_path / "ckpt.pckpt"])
        assert exit_info.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err


class TestParserReuse:
    def test_one_parser_serves_every_call_and_keeps_no_values(self, monkeypatch, tmp_path):
        from pcbls import cli

        builds, seen = [], []
        build = cli.build_parser
        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        # a command replaced after the parser was built still runs
        assert run(["report", tmp_path / "ghost", "--out", tmp_path / "r.csv"]) == 2
        monkeypatch.setattr(cli, "cmd_report", lambda args: seen.append((args.runs, args.out)) or 0)
        assert run(["report", "a", "b", "--out", "x.csv"]) == 0
        assert run(["report", "c"]) == 0
        assert builds == [1]
        assert seen == [(["a", "b"], "x.csv"), (["c"], None)]
        cli._parser.cache_clear()  # drop the parser built through the counting stub

    def test_main_leaves_every_module_attribute_as_it_found_it(self, tmp_path):
        from pcbls import cli

        cli._parser.cache_clear()  # the first call builds the parser
        before = dict(vars(cli))
        assert run(["report", tmp_path / "ghost", "--out", tmp_path / "r.csv"]) == 2
        assert run(["report", tmp_path / "ghost"]) == 2
        after = vars(cli)
        assert after.keys() == before.keys()
        assert [k for k, v in before.items() if after[k] is not v] == []
