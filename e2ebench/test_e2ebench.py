"""Tests of the benchmark's own machinery.

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import sys
import types
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def make(name, start, end, parent=None, thread=0):
    s = spans.Span(name, start, parent, thread)
    s.end = end
    return s


def test_self_time_subtracts_direct_children_only():
    root = make("root", 0.0, 10.0)
    a = make("a", 1.0, 4.0, root)
    b = make("b", 6.0, 7.0, root)
    grandchild = make("g", 2.0, 3.0, a)
    selfs = spans.self_times([root, a, b, grandchild])
    assert selfs[id(root)] == pytest.approx(6.0)
    assert selfs[id(a)] == pytest.approx(2.0)
    assert selfs[id(b)] == pytest.approx(1.0)
    assert selfs[id(grandchild)] == pytest.approx(1.0)


def test_tracer_nests_spans_and_restores_attributes():
    module = types.ModuleType("m")

    def inner():
        return 1

    def outer():
        return module.inner() + 1

    module.inner, module.outer = inner, outer
    tracer = spans.Tracer({"m.outer": lambda a, k, r: {"result": r}})
    assert tracer.install([module], {inner: "m.inner", outer: "m.outer"}) == 2
    try:
        assert module.outer() == 2
    finally:
        tracer.uninstall()
    assert module.inner is inner and module.outer is outer
    first, second = sorted(tracer.spans, key=lambda s: s.start)
    assert (first.name, second.name) == ("m.outer", "m.inner")
    assert second.parent is first and first.extra == {"result": 2}


class Tiny(workloads.Workload):
    """A one-step workload that trains for two epochs."""

    name = "tiny"
    why = "machinery test"
    argv = ["train", "--data", "blobs", "--seed", "3", "--epochs", "2", "--out", "pass/run"]

    def steps(self):
        return [
            workloads.Step(
                list(self.argv),
                "train",
                lambda: workloads.check_metrics_csv("pass/run", 2, ["val_accuracy"]),
                workloads._train_items("pass/run"),
            )
        ]

    def quality(self, pcbls):
        return {"val_quality": workloads._final("pass/run", "val_accuracy")}, {}


class Broken(Tiny):
    argv = ["train", "--data", "blobs", "--epochs", "0", "--out", "pass/run"]


class WrongInputs(Tiny):
    """Expects datasets of another size than the config makes."""

    def configs(self):
        return {"t.json": {"data": {"name": "blobs"}}}

    def inputs(self):
        return {"t.json": ([3], 1, 1)}


def _attributes(modules):
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_traced_pass_restores_every_wrapped_attribute(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pcbls = run.fresh_pcbls()
    before = _attributes(layers.pcbls_modules())
    tracer, modules, functions = layers.tracer_for_pcbls()
    tracer.install(modules, functions)
    try:
        # names that callers imported from another module are wrapped as well
        for module, attr in (
            (pcbls.trainer, "iou_dice"),
            (pcbls.cli, "fit_temperature"),
            (pcbls.corruption, "save_image"),
            (pcbls.corruption, "glass_swaps"),
            (pcbls.models, "forward"),
        ):
            assert getattr(module, attr) is not before[(module.__name__, attr)], attr
    finally:
        tracer.uninstall()
    after = _attributes(layers.pcbls_modules())
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    traced = run.run_pass(Tiny(0), pcbls, trace=True)
    assert _attributes(layers.pcbls_modules()) == before
    untraced = run.run_pass(Tiny(0), pcbls, trace=False)
    assert "layers" not in untraced
    assert traced["failed"] == untraced["failed"] == 0
    assert traced["digest"] == untraced["digest"]
    counts = traced["layers"]
    assert counts["cli.main.calls"] == 1 and counts["cli.main.failed"] == 0
    assert counts["trainer.evaluate.calls"] == 2
    assert counts["models.loss_and_grad.calls"] > 0 and counts["kernels.fcn_conv_forward.calls"] == 0
    assert counts["trainer.train.self_s"] < counts["trainer.train.busy_s"]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_names_match_benchmark_json(tmp_path, monkeypatch, trace):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "tiny", Tiny)
    args = Namespace(workload="tiny", seed=3, seconds=0.0, trace=trace)
    result, report = run.measure(args, SPEC)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(v["unit"] == m["unit"] for v, m in zip(result["metrics"].values(), wanted))
    assert len(report["digests"]) == 1


def test_failed_step_makes_the_result_incorrect(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "broken", Broken)
    result, report = run.measure(Namespace(workload="broken", seed=0, seconds=0.0, trace=0), SPEC)
    assert not result["correct"]
    assert result["failed"] == 2  # one per pass
    assert report["passes"][0]["steps"][0]["rc"] == 2


def test_benchmark_json_lists_the_workloads_and_layers():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    per_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert per_layer[: len(layers.PER_LAYER)] == [(name, unit) for name, unit, _ in layers.PER_LAYER]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_wrong_input_size_makes_the_result_incorrect(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "wrong", WrongInputs)
    result, report = run.measure(Namespace(workload="wrong", seed=0, seconds=0.0, trace=0), SPEC)
    assert not result["correct"]
    assert result["failed"] == run.SETUPS  # one per set-up
    assert report["input_problems"] and "want 1/1" in report["input_problems"][0]
