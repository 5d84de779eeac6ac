"""The benchmark harness still runs against the package.

The bench wraps package names (`bench/workloads.py::ENTRY_POINTS`) and
reads `Dataset` attributes, so a refactor that drops one of them fails
here, not only when the benchmark is next run. Both checks run in a
temporary directory, where the bench writes its `.bench_out/`. Its
`src` and `BENCHMARK.json` link to the checkout's: `bench/run.py` reads
both from its working directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def run_in(cwd, *args):
    for name in ("src", "BENCHMARK.json"):
        (cwd / name).symlink_to(REPO / name)
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def test_bench_unit_tests_pass(tmp_path):
    done = run_in(tmp_path, "-m", "unittest", "discover", "-s", REPO / "bench")
    assert done.returncode == 0, done.stderr[-2000:]


# A traced run fails if a wrapped name never fires: the sweeps' (`evaluate.cross_validate`,
# `evaluate.train_svm`, ...) as well as the bedside frame path's.
@pytest.mark.parametrize("workload", ["bedside-stream", "scale-sweep"])
def test_traced_run_is_correct(tmp_path, workload):
    done = run_in(tmp_path, REPO / "bench" / "run.py", "--workload", workload,
                  "--seconds", 0, "--trace", 1)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
