"""Smoke runs of scripts/run_sweeps.py and scripts/run_robustness.py on tiny inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

from thermal_sense.cli import run

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=600)


def test_run_sweeps(tmp_path):
    # 8 per class leaves 8 training rows per fold, enough for the k-NN grid's k=7
    out = tmp_path / "out"
    done = run_script("run_sweeps.py", "--out-dir", out, "--n-per-class", 8, "--folds", 2,
                      "--nn-epochs", 1)
    assert done.returncode == 0, done.stderr
    for family, size in (("svm-kernels", 4), ("knn-grid", 8), ("nn-widths", 11)):
        rows = json.loads((out / f"sweep_{family}.json").read_text())["results"]["rows"]
        assert len(rows) == size
        assert all(len(row["cv"]["folds"]) == 2 for row in rows)
        lines = (out / f"sweep_{family}.csv").read_text().splitlines()
        assert lines[0] == "config,accuracy_mean,accuracy_std"
        assert len(lines) == size + 1
    # the same results as the sweep command on the same data, seed and folds
    report = tmp_path / "knn.json"
    assert run(["sweep", "--data", str(out / "main.csv"), "--folds", "2", "--seed", "7",
                "--family", "knn-grid", "--report", str(report)]) == 0
    assert (json.loads(report.read_text())["results"]
            == json.loads((out / "sweep_knn-grid.json").read_text())["results"])


def test_run_sweeps_input_error_exits_2(tmp_path):
    # 6 per class leaves 6 training rows per fold: the k-NN grid's k=7 is out of range
    done = run_script("run_sweeps.py", "--out-dir", tmp_path / "out", "--n-per-class", 6,
                      "--folds", 2, "--nn-epochs", 1)
    assert done.returncode == 2
    assert done.stderr == "error: k=7 out of range for 6 training samples\n"


def test_run_robustness_input_error_exits_2(tmp_path):
    # the output directory's parent is a file, so it cannot be created
    (tmp_path / "file").write_text("")
    done = run_script("run_robustness.py", "--out-dir", tmp_path / "file" / "out",
                      "--n-per-class", 6, "--n-per-cell", 3)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_run_robustness(tmp_path):
    out = tmp_path / "out"
    done = run_script("run_robustness.py", "--out-dir", out, "--n-per-class", 6,
                      "--n-per-cell", 3)
    assert done.returncode == 0, done.stderr
    for name in ("svm_linear", "knn_1", "nn_128"):
        results = json.loads((out / f"robustness_{name}.json").read_text())["results"]
        assert set(results["by_condition"]) == {
            "hot_room", "water_bottle", "duvet_0", "duvet_5", "duvet_10"}
        lines = (out / f"robustness_{name}.csv").read_text().splitlines()
        assert lines[0] == "condition,n,accuracy,sensitivity,specificity"
        assert lines[1].startswith("overall,18,")
        assert len(lines) == 7


def test_run_robustness_matches_the_cli(tmp_path):
    # each classifier's results are those of `train` and `eval --by-condition` on the same data
    out = tmp_path / "out"
    done = run_script("run_robustness.py", "--out-dir", out, "--n-per-class", 6,
                      "--n-per-cell", 3)
    assert done.returncode == 0, done.stderr
    for name, flags in (("svm_linear", ["--model", "svm", "--kernel", "linear"]),
                        ("knn_1", ["--model", "knn", "--k", "1", "--weighting", "uniform"]),
                        ("nn_128", ["--model", "nn", "--hidden", "128"])):
        model, report = tmp_path / f"{name}.model", tmp_path / f"{name}.json"
        assert run(["train", "--data", str(out / "main.csv"), "--seed", "7", *flags,
                    "--out", str(model)]) == 0
        assert run(["eval", "--model", str(model), "--data", str(out / "variational.csv"),
                    "--by-condition", "--report", str(report)]) == 0
        assert (json.loads(report.read_text())["results"]
                == json.loads((out / f"robustness_{name}.json").read_text())["results"])
