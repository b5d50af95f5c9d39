"""What the end-to-end benchmark (``e2ebench/``) needs of the program.

The benchmark's files are frozen between benchmark changes, so these tests
read them as they are: every CLI call a workload makes must parse, and every
``pcbls`` name the benchmark reads must exist. A change to ``src/`` that
would fail every benchmark run fails here first.
"""

import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

E2EBENCH = Path(__file__).resolve().parent.parent / "e2ebench"
sys.path.insert(0, str(E2EBENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import pcbls  # noqa: E402
from pcbls import cli, fileio  # noqa: E402

# (module, attribute) the benchmark reads: the workloads' set-up and quality
# numbers, the run manifest and the tracer test in e2ebench/test_e2ebench.py
READS = [
    ("cli", "main"),
    ("cli", "resolve_config"),
    ("cli", "resolve_dataset"),
    ("cli", "fit_temperature"),
    ("calibration", "_T_LO"),
    ("calibration", "_T_HI"),
    ("fileio", "load_checkpoint"),
    ("models", "forward"),
    ("trainer", "iou_dice"),
    ("corruption", "save_image"),
    ("corruption", "glass_swaps"),
    ("_kernels", "USE_NUMBA"),
]


def _steps(seed):
    for name, workload in sorted(workloads.WORKLOADS.items()):
        w = workload(seed)
        for step in w.fixture_steps() + w.steps():
            yield name, step


@pytest.mark.parametrize("seed", [0, 1])
def test_every_workload_argv_parses(seed):
    parser = cli.build_parser()
    steps = list(_steps(seed))
    assert {name for name, _ in steps} == set(workloads.WORKLOADS)
    for name, step in steps:
        try:
            args = parser.parse_args(step.argv)
        except SystemExit:
            pytest.fail(f"{name}: the parser refuses {step.argv}")
        assert callable(getattr(cli, f"cmd_{args.command}", None)), (name, step.argv)


def test_benchmark_reads_exist():
    for module, attr in READS:
        assert hasattr(getattr(pcbls, module), attr), f"pcbls.{module}.{attr}"


def test_run_manifest_reads_the_program():
    manifest = run.manifest(pcbls, Namespace(workload="cls_curriculum", seed=1, seconds=0.0, trace=0))
    assert manifest["use_numba"] == bool(pcbls._kernels.USE_NUMBA)
    assert manifest["workload"] == "cls_curriculum" and manifest["seed"] == 1


def test_workload_inputs_generate_at_their_sizes(tmp_path, monkeypatch):
    # the set-up resolves each workload's config files through the CLI
    monkeypatch.chdir(tmp_path)
    for workload in workloads.WORKLOADS.values():
        w = workload(1)
        for name, cfg in w.configs().items():
            Path(name).write_text(json.dumps(cfg, sort_keys=True))
        assert w.generate_inputs(pcbls) == [], w.name


def test_traced_eval_reads_each_manifest_image_through_load_image(tmp_path):
    # robustness_io's fileio.load_image.* metrics count the spans of the
    # wrapper the tracer installs, so eval must look load_image up at call time
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"name": "blobs", "classes": 3, "per_class": 10, "per_class_val": 4, "dim": 6},
                               "epochs": 1, "hidden": 4}))
    common = ["--config", str(cfg), "--seed", "1"]
    assert cli.main(["train", *common, "--out", str(tmp_path / "run")]) == 0
    assert cli.main(["corrupt", *common, "--kinds", "fog,pixelate", "--out", str(tmp_path / "corr")]) == 0
    tracer, modules, functions = layers.tracer_for_pcbls()
    tracer.install(modules, functions)
    try:
        code = cli.main(["eval", *common, "--checkpoint", str(tmp_path / "run" / "checkpoint.pckpt"),
                         "--manifest", str(tmp_path / "corr" / "manifest.csv"), "--out", str(tmp_path / "rob.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    _, rows = fileio.load_csv(tmp_path / "corr" / "manifest.csv")
    assert len(rows) == 2 * 5 * 12
    assert sum(s.name == "fileio.load_image" for s in tracer.spans) == len(rows)


@pytest.mark.parametrize(
    "cfg, steps",
    [
        # 30 samples in batches of 8: 4 steps an epoch
        ({"data": {"name": "blobs", "classes": 3, "per_class": 10, "per_class_val": 4, "dim": 6},
          "hidden": 4, "batch_size": 8}, 8),
        # 8 frames in batches of 4: 2 steps an epoch
        ({"data": {"name": "shapes", "height": 16, "width": 16, "foreground": 2, "n": 8, "n_val": 2},
          "task": "segmentation", "channels": [3, 3], "batch_size": 4}, 4),
    ],
    ids=["mlp", "tiny_fcn"],
)
def test_traced_train_runs_one_backward_per_step(tmp_path, cfg, steps):
    # models.backward.busy_s is the backward's one per-layer metric: it reads
    # 0 unless each training step calls backward through the module global
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "epochs": 2}))
    tracer, modules, functions = layers.tracer_for_pcbls()
    tracer.install(modules, functions)
    try:
        code = cli.main(["train", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "run")])
    finally:
        tracer.uninstall()
    assert code == 0
    step_spans = [s for s in tracer.spans if s.name == "models.loss_and_grad_into"]
    backward_spans = [s for s in tracer.spans if s.name == "models.backward"]
    assert len(step_spans) == len(backward_spans) == steps
    assert [s.parent for s in backward_spans] == step_spans
    # models.loss_and_grad.* and losses.* read 0: no function of those names is left to trace
    assert not {"models.loss_and_grad", *layers._LOSSES} & set(functions.values())


# The per-layer metrics of layers.PER_LAYER read from spans that are non-zero
# on some workload (e2ebench/run.py --trace 1 --seconds 0 --seed 1). A rename
# in src/, or a caller that keeps a reference the tracer cannot replace,
# turns one of them to 0; the tiny flow below runs the code behind each.
NONZERO_METRICS = [
    "cli.main.calls", "cli.main.busy_s",
    "datasets.gen_blobs.busy_s", "datasets.gen_shapes_seg.busy_s",
    "trainer.train.busy_s", "trainer.train.self_s", "trainer.evaluate.calls", "trainer.evaluate.busy_s",
    "trainer.score_training_set.busy_s", "trainer.score_pixel_bank.busy_s",
    "models.forward.calls", "models.forward.busy_s", "models.backward.busy_s",
    "models.unpack.calls", "models.unpack.busy_s",
    "soft_labels.calls", "soft_labels.busy_s", "numerics.conv2d_same.calls", "numerics.conv2d_same.busy_s",
    "kernels.glass_swaps.calls", "kernels.glass_swaps.busy_s", "pacing.build_bank.busy_s",
    "metrics.iou_dice.busy_s", "metrics.accuracy.busy_s",
    "calibration.fit_temperature.calls", "calibration.fit_temperature.busy_s", "calibration.ece.busy_s",
    "corruption.corrupt_dataset.busy_s", "corruption.robustness_report.busy_s",
    "fileio.atomic_write_bytes.calls", "fileio.atomic_write_bytes.busy_s",
    "fileio.load_image.calls", "fileio.load_image.busy_s", "fileio.load_image.bytes",
    "fileio.checkpoint.busy_s", "fileio.bank.busy_s",
]
# the spans behind the metrics above that sum several functions, each of
# which some workload calls
SUMMED_SPANS = [
    "soft_labels.uls_matrix", "soft_labels.segmentation_targets", "pacing.build_bank_multiclass",
    "pacing.build_pixel_bank", "fileio.save_checkpoint", "fileio.load_checkpoint", "fileio.save_bank",
    "fileio.load_bank", "fileio.save_pixel_bank", "fileio.load_pixel_bank",
]


def test_traced_flow_moves_every_metric_the_workloads_move(tmp_path):
    blobs = tmp_path / "blobs.json"
    blobs.write_text(json.dumps({"data": {"name": "blobs", "classes": 3, "per_class": 10, "per_class_val": 4,
                                          "dim": 6}, "epochs": 2, "hidden": 4, "batch_size": 8}))
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps({"data": {"name": "shapes", "height": 16, "width": 16, "foreground": 2, "n": 4,
                                           "n_val": 2}, "task": "segmentation", "channels": [3, 3], "epochs": 2,
                                  "batch_size": 4, "svls_schedule": {"kind": "constant", "init": 0.5}}))
    b, s = ["--config", blobs, "--seed", 1], ["--config", shapes, "--seed", 1]
    pace = ["--pace-lambda", 0.5]
    steps = [
        ["train", *b, "--out", tmp_path / "base"],
        ["bank", *b, "--checkpoint", tmp_path / "base" / "checkpoint.pckpt", "--out", tmp_path / "bank.csv"],
        ["train", *b, *pace, "--bank", tmp_path / "bank.csv", "--out", tmp_path / "paced"],
        ["calibrate", *b, "--checkpoint", tmp_path / "paced" / "checkpoint.pckpt", "--out", tmp_path / "calib"],
        ["train", *s, "--out", tmp_path / "seg"],
        ["bank", *s, "--checkpoint", tmp_path / "seg" / "checkpoint.pckpt", "--granularity", "pixel",
         "--out", tmp_path / "pixels"],
        ["train", *s, *pace, "--bank", tmp_path / "pixels", "--out", tmp_path / "seg_paced"],
        ["corrupt", *b, "--kinds", "glass_blur,defocus_blur", "--out", tmp_path / "corr"],
        ["eval", *b, "--checkpoint", tmp_path / "paced" / "checkpoint.pckpt",
         "--manifest", tmp_path / "corr" / "manifest.csv", "--out", tmp_path / "rob.csv"],
    ]
    tracer, modules, functions = layers.tracer_for_pcbls()
    tracer.install(modules, functions)
    try:
        codes = [cli.main([str(a) for a in step]) for step in steps]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(steps)
    metrics = layers.layer_metrics(tracer.spans)
    assert [name for name in NONZERO_METRICS if not metrics[name]] == []
    called = {span.name for span in tracer.spans}
    assert [name for name in SUMMED_SPANS if name not in called] == []
