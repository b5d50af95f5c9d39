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

import run  # noqa: E402
import workloads  # noqa: E402

import pcbls  # noqa: E402
from pcbls import cli  # noqa: E402

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
