"""Golden SHA-256 digests of CLI outputs at fixed seeds.

A refactor that claims unchanged behaviour must leave every digest as it
is. The pipeline runs once, with relative paths inside a temporary
working directory, so the configuration that each report embeds does not
depend on where the tests run.

`PYTHONPATH=src python tests/test_golden.py` runs the same pipeline and
prints the digests the current code gives, for a deliberate re-record.
One test runs it so on two BLAS threads: every digest must hold whatever
the thread count.
"""

import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from thermal_sense.cli import run

TRAIN = ("--data", "train.csv", "--seed", "7")
CV = ("--data", "main.csv", "--folds", "5", "--seed", "7")
MODELS = {
    "svm": ("--model", "svm", "--kernel", "rbf"),
    "knn": ("--model", "knn", "--k", "3", "--weighting", "distance"),
    "nn": ("--model", "nn", "--hidden", "4", "--epochs", "20"),
}

PIPELINE = [
    ("simulate", "main", "--n-per-class", "15", "--seed", "7", "--out", "main.csv"),
    ("simulate", "variational", "--n-per-cell", "6", "--seed", "9", "--out", "var.csv"),
    ("split", "--data", "main.csv", "--test-fraction", "0.2", "--seed", "1",
     "--train-out", "train.csv", "--test-out", "test.csv"),
]
for _kind, _flags in MODELS.items():
    PIPELINE += [
        ("train", *TRAIN, *_flags, "--out", f"{_kind}.model"),
        ("cv", *CV, *_flags, "--report", f"cv_{_kind}.json"),
        ("eval", "--model", f"{_kind}.model", "--data", "var.csv", "--by-condition",
         "--report", f"eval_{_kind}.json", "--emit-plot-data", f"eval_{_kind}.csv"),
        ("predict", "--model", f"{_kind}.model", "--data", "var.csv",
         "--out", f"predict_{_kind}.csv"),
    ]
for _family in ("svm-kernels", "knn-grid"):
    PIPELINE.append(("sweep", *CV, "--family", _family, "--report", f"sweep_{_family}.json",
                     "--emit-plot-data", f"sweep_{_family}.csv"))
PIPELINE.append(("monitor", "--input", "trace.csv", "--out", "events.csv", "--bed-id", "bed3",
                 "--long-absence-min", "2", "--window-hours", "1", "--max-exits", "2"))

# Stays in bed, leaves three times (the last one long), with fractional
# timestamps and single-frame glitches the debounce must absorb.
TRACE_LABELS = ("person " * 6 + "no_person " * 4 + "person " * 5 + "no_person person "
                + "no_person " * 5 + "person " * 4 + "no_person " * 16 + "person " * 4).split()

GOLDEN = {
    "cv_knn.json": "d2fad0a2060e6977711a77b82e297514a863d7a2f41b9d968b2bfc803cc73217",
    "cv_nn.json": "1a090e0774cfe11778ced5d74b81826a0082e93329eda17d4a1d3ce3e83a80d1",
    "cv_svm.json": "75e8a43d853355445b595c87524dfc0aa4781357ae953d92784a43ca331fd892",
    "eval_knn.csv": "ca9374d66d8b43f5f0a0b14e5e3b786b76df72d54a6dfd1d57f19de940c843e9",
    "eval_knn.json": "6754234aa90e01c39ab5e2803fcf42057aad43a4648a4995e6103e269f79b918",
    "eval_nn.csv": "121e8435230ec7f03d67843298773c6144c470242636c0b85bb4401d7b9288f1",
    "eval_nn.json": "d52f1c133c2c0d049ca6ffbe255553c75a971a218407c820d3c504fb3fad1b2c",
    "eval_svm.csv": "ddb3893b81cacef097fb0afeba226a31b42a8caa6f930153886f2c855c9846a7",
    "eval_svm.json": "c2272e62e07db25888567935e7f93730448d9bbe1200270b3097d15b4283bd10",
    "events.csv": "c6056078980fef48c459c79400b6897a10ada3c9e351cce3cd30134e39d6c6c3",
    "knn.model": "f3bca5e540344910d57f8a0e6533171dd5ba6af315eea3ff063a9e18b7c168f2",
    "main.csv": "b705505a013ca0ef99ea0f87e8e839881e775b2bcf6560477f8e01ffb39bb242",
    "nn.model": "a3eb2c51868557a4803236bf0d66b0b98c44ddde31394885e84e4489f83545f7",
    "predict_knn.csv": "94ecdf157faa7cf0c9c2d7adb93d41b873e693c9d934f023e04dfa68546585cc",
    "predict_nn.csv": "b7803525704658f8b1f4505193011a7492dedf4b606329a19f82a6d12ec900ca",
    "predict_svm.csv": "fcb59560d7467f9e455c18e4e006250c48e832818a95a2e675233ca1f628eae1",
    "svm.model": "09350f14f8ebd58a07c9ed9604eeae1f3f8ee30a092a388ab4f9a56b7c068146",
    "sweep_knn-grid.csv": "cabc1bedb0ffe01cfdef0d68049499d822fbba52b5d1dc9f1220ef7be5dbe350",
    "sweep_knn-grid.json": "7ab924dbc268482c05ace2d67bdd607618157552a6661ec2a0fc9d30ffbbdad9",
    "sweep_svm-kernels.csv": "e619e65f36c96f5583778cc5dae4fc589d386b689b9accea246c4b9116a64b91",
    "sweep_svm-kernels.json": "f1153f4f9fdbdfeb1a33dfed79ff7c873271962812cee362d76e15464b86c2a9",
    "test.csv": "a1eb519204fa51d4c5c56871111d7a3fed8e17f6393c7198a9644ef3a80406f9",
    "train.csv": "e2e63e8c4f0545143d3ae01c0114c075ef9ddfa7fa52a5790f694a586933c518",
    "var.csv": "4cd6f84e105442bf7780ead576d008385f24202f5dc4fecf0d821a869eed305e",
}


def run_pipeline(workdir: Path) -> None:
    """Run PIPELINE inside workdir, writing the monitor's input trace first."""
    rows = [f"{i * 12.5!r},{label}" for i, label in enumerate(TRACE_LABELS)]
    (workdir / "trace.csv").write_text("timestamp,label\n" + "\n".join(rows) + "\n")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in PIPELINE:
            assert run(list(argv)) == 0, argv
    finally:
        os.chdir(cwd)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    run_pipeline(workdir)
    return workdir


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    assert digest(outputs / name) == GOLDEN[name]


def test_monitor_fires_every_event_kind(outputs):
    kinds = {line.split(",")[1] for line in (outputs / "events.csv").read_text().splitlines()}
    assert kinds == {"bed_exit", "return", "frequent_exits"}


def test_digests_independent_of_blas_threads():
    # This file run as a script, in a process whose BLAS runs on two threads.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env,
                          timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == sorted(GOLDEN)
    assert [line for line in lines if line.endswith(" changed")] == []


if __name__ == "__main__":
    # Print the current digests as `name digest` lines, `changed` marking
    # those that differ from GOLDEN, so a deliberate re-record is mechanical.
    # The CLI's own messages go to stderr.
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(sys.stderr):
            run_pipeline(Path(tmp))
        for name in sorted(GOLDEN):
            value = digest(Path(tmp) / name)
            print(name, value, *(["changed"] if value != GOLDEN[name] else []))
