"""The classification workflow loads only the library code it runs.

``numpy.ma`` (about 1.6 MB resident, which ``np.unique`` imports on first
use) and ``difflib`` (needed only by the unknown-key error) once stayed
loaded for a whole run. A fresh interpreter runs the workflow through
``cli.main`` and then lists the modules it holds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# never loaded by a run that gives valid input
UNUSED = ("numpy.ma", "difflib")

WORKFLOW = """
import json, sys
from pcbls import cli

common = ["--config", "c.json", "--seed", "1"]
steps = [
    ["train", *common, "--out", "base"],
    ["bank", *common, "--checkpoint", "base/checkpoint.pckpt", "--out", "bank.csv"],
    ["train", *common, "--preset", "workflow_cls", "--pace", "--bank", "bank.csv", "--out", "paced"],
    ["calibrate", *common, "--checkpoint", "paced/checkpoint.pckpt", "--out", "cal.json"],
    ["corrupt", *common, "--kinds", "gaussian_noise", "--out", "cor"],
    ["eval", *common, "--checkpoint", "paced/checkpoint.pckpt", "--manifest", "cor/manifest.csv", "--out", "rob.csv"],
    ["report", "base", "paced", "--out", "report.csv"],
]
codes = [cli.main(step) for step in steps]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_classification_workflow_loads_no_unused_library(tmp_path):
    config = {"data": {"name": "blobs", "classes": 3, "per_class": 20, "per_class_val": 10, "dim": 6}, "epochs": 3}
    (tmp_path / "c.json").write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", WORKFLOW], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 7, done.stderr
    assert [name for name in UNUSED if name in result["modules"]] == []
