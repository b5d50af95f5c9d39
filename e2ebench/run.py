#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pcbls CLI workflow.

    python3 e2ebench/run.py --workload cls_curriculum --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``pcbls`` from ``src/``.
One process, in-process calls of ``pcbls.cli.main(argv)``; the only extra
threads are the corruption driver's own pool (``PCBLS_THREADS`` is left as
found and recorded).

Set-up (fresh import of pcbls, config files, generation and check of the
input datasets, untimed fixtures) runs ``SETUPS`` times and ``setup_s`` is
its median. Then timed passes of the
workload's CLI steps repeat until ``--seconds`` would be exceeded (at least
two); every pass checks its outputs and hashes them, and the hashes of all
passes must agree. A pass's time is the sum over its steps of each step's
median time over the passes.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs untraced passes for half of ``--seconds``, then passes
with every public pcbls function wrapped (see ``layers.py``), and prints the
per-layer metrics: medians over traced passes, plus the workload's stage
rates from the untraced passes and ``trace.overhead_s`` (traced pass time
minus untraced pass time).

The line before the last holds a report: run manifest, per-pass times,
output digests and the quality table. The last line is the result. The exit
code is 0 when every step and check passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
from workloads import QUALITY_METRICS, WORKLOADS, Record, stage_rates  # noqa: E402

SETUPS = 3
WORK_DIR = ".e2ebench-work"


def fresh_pcbls():
    """Import pcbls anew, so that each set-up pays the import."""
    for name in [m for m in sys.modules if m == "pcbls" or m.startswith("pcbls.")]:
        del sys.modules[name]
    importlib.import_module("pcbls.cli")
    pcbls = sys.modules["pcbls"]
    if Path(pcbls.__file__).resolve().parent != SRC / "pcbls":
        raise RuntimeError(f"imported pcbls from {pcbls.__file__}, not from {SRC}")
    return pcbls


def call(pcbls, step) -> Record:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pcbls.cli.main(step.argv)
    except SystemExit as e:  # argparse rejects the arguments
        rc = e.code if isinstance(e.code, int) else 1
    return Record(step, rc, time.perf_counter() - start, err.getvalue().strip())


def checked(records: list[Record]) -> list[Record]:
    for r in records:
        if r.rc == 0:
            r.problems = r.step.check()
        if not r.failed:
            r.items = r.step.items()
    return records


def typical_pass(passes: list[dict]) -> list[Record]:
    """Each step with its median time over ``passes``.

    On a shared machine the speed drifts within a run; a median per step
    follows it more closely than the median of whole passes.
    """
    return [
        Record(rs[0].step, 0, median(r.seconds for r in rs), "", items=rs[0].items)
        for rs in zip(*(p["records"] for p in passes))
    ]


def set_up(workload) -> tuple[float, object, list[str], list[Record]]:
    """Import pcbls, write the config files, generate and check the inputs,
    and run the untimed fixture steps."""
    start = time.perf_counter()
    pcbls = fresh_pcbls()
    for name, cfg in workload.configs().items():
        Path(name).write_text(json.dumps(cfg, sort_keys=True))
    input_problems = workload.generate_inputs(pcbls)
    shutil.rmtree("fixture", ignore_errors=True)
    records = [call(pcbls, step) for step in workload.fixture_steps()]
    return time.perf_counter() - start, pcbls, input_problems, checked(records)


def digest(directory: str) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        h.update(path.as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(workload, pcbls, trace: bool) -> dict:
    shutil.rmtree("pass", ignore_errors=True)
    steps = workload.steps()
    tracer = None
    if trace:
        tracer, modules, functions = layers.tracer_for_pcbls()
        tracer.install(modules, functions)
    try:
        start = time.perf_counter()
        records = [call(pcbls, step) for step in steps]
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    checked(records)
    ok = not any(r.failed for r in records)
    quality, table = workload.quality(pcbls) if ok else ({}, {})
    out = {
        "traced": trace,
        "wall_s": wall,
        "records": records,
        "steps": [
            {"argv": " ".join(r.step.argv), "rc": r.rc, "seconds": r.seconds, "problems": r.problems,
             **({"stderr": r.stderr} if r.rc else {})}
            for r in records
        ],
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "digest": digest("pass"),
        "quality": quality,
        "quality_table": table,
    }
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer.spans)
    shutil.rmtree("pass", ignore_errors=True)
    return out


def run_passes(workload, pcbls, seconds: float, trace: bool) -> list[dict]:
    passes: list[dict] = []
    start = time.perf_counter()

    def more(until: float, minimum: int, phase: list[dict]) -> bool:
        if len(phase) < minimum:
            return True
        typical = median(p["wall_s"] for p in phase)
        return time.perf_counter() - start + typical <= until

    phases = [(seconds / 2, 1, False), (seconds, 1, True)] if trace else [(seconds, 2, False)]
    for until, minimum, traced in phases:
        phase: list[dict] = []
        while more(until, minimum, phase):
            phase.append(run_pass(workload, pcbls, traced))
        passes += phase
    return passes


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def manifest(pcbls, args) -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "use_numba": bool(pcbls._kernels.USE_NUMBA),
        "env": {k: os.environ.get(k) for k in ("PCBLS_THREADS", "PCBLS_NO_NUMBA")},
        "git_sha": git_sha(ROOT),
        "platform": platform.platform(),
    }


def measure(args, spec: dict) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload](args.seed)
    setups = []
    input_problems: list[list[str]] = []
    fixture_records: list[Record] = []
    for _ in range(SETUPS):
        seconds, pcbls, problems, records = set_up(workload)
        setups.append(seconds)
        input_problems.append(problems)
        fixture_records += records
    passes = run_passes(workload, pcbls, args.seconds, bool(args.trace))

    digests = sorted({p["digest"] for p in passes})
    traced = [p for p in passes if p["traced"]]
    counts_repeat = len({json.dumps(counts(p["layers"]), sort_keys=True) for p in traced}) <= 1
    # one operation per input check and CLI step, plus the comparison of the
    # passes' digests and, on a traced run, that of their per-layer counts
    attempted = len(setups) + len(fixture_records) + sum(p["attempted"] for p in passes) + 1 + bool(traced)
    failed = (
        sum(bool(problems) for problems in input_problems)
        + sum(r.failed for r in fixture_records)
        + sum(p["failed"] for p in passes)
        + (len(digests) != 1)
        + (not counts_repeat)
    )
    ok = failed == 0
    untraced = typical_pass([p for p in passes if not p["traced"]])
    quality = passes[-1]["quality"]
    overhead = None
    if traced:
        overhead = sum(r.seconds for r in typical_pass(traced)) - sum(r.seconds for r in untraced)

    if args.trace:
        values = {name: median(p["layers"][name] for p in traced) for name, _, _ in layers.PER_LAYER}
        values.update(stage_rates(untraced))
        values.update({name: quality.get(name, 0.0) for name in QUALITY_METRICS})
        values["trace.overhead_s"] = overhead
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": median(setups),
            "wall_s": sum(r.seconds for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "val_quality": quality.get("val_quality", 0.0),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}

    report = {
        "manifest": {**manifest(pcbls, args), "tracing_overhead_s": overhead},
        "why": workload.why,
        "setup_s": setups,
        "input_problems": sorted({p for problems in input_problems for p in problems}),
        "fixture_steps": [{"argv": " ".join(r.step.argv), "rc": r.rc, "problems": r.problems} for r in fixture_records],
        "passes": [{k: v for k, v in p.items() if k not in ("records", "quality_table", "layers")} for p in passes],
        "digests": digests,
        "quality_table": passes[-1]["quality_table"],
        "layer_counts_repeat": counts_repeat,
        "notes": ["schedules.SmoothingSchedule.value_at is not timed: one float per epoch"],
    }
    return result, report


def counts(layer_values: dict) -> dict:
    """The per-layer values that must repeat exactly from pass to pass."""
    return {k: v for k, v in layer_values.items() if not k.endswith("_s") and not k.endswith("_share")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pcbls").is_dir():
        parser.error(f"no pcbls sources in {SRC}: run from the root of a pcbls checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work_root = ROOT / WORK_DIR
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        result, report = measure(args, spec)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
