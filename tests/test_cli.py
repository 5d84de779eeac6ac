import hashlib

import pytest

from thermal_sense import evaluate
from thermal_sense.classifiers.nn import TrainingParams
from thermal_sense.cli import run
from thermal_sense.evaluate import KnnSpec, NnSpec
from thermal_sense.persist import load_dataset, load_report

P3 = ["--seed", "3"]


def cli(*args):
    return run([str(a) for a in args])


@pytest.fixture
def main_csv(tmp_path):
    path = tmp_path / "main.csv"
    assert cli("simulate", "main", "--n-per-class", 15, "--seed", 7, "--out", path) == 0
    return path


class TestSimulate:
    def test_main_line_count(self, tmp_path):
        out = tmp_path / "m.csv"
        assert cli("simulate", "main", "--n-per-class", 240, "--seed", 7, "--out", out) == 0
        lines = out.read_text().rstrip("\n").split("\n")
        assert len(lines) == 481  # header + 480 samples

    def test_variational(self, tmp_path):
        out = tmp_path / "v.csv"
        assert cli("simulate", "variational", "--n-per-cell", 6, "--seed", 2, "--out", out) == 0
        assert len(load_dataset(out)) == 36

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli("simulate", "main", "--n-per-class", 10, "--seed", 5, "--out", a)
        cli("simulate", "main", "--n-per-class", 10, "--seed", 5, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_params_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("noise_sigma = 0.0\n")
        out = tmp_path / "m.csv"
        assert cli("simulate", "main", "--n-per-class", 4, "--seed", 1,
                   "--out", out, "--params", cfg) == 0

    def test_bad_params_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("bogus = 1\n")
        out = tmp_path / "m.csv"
        assert cli("simulate", "main", "--n-per-class", 4, "--seed", 1,
                   "--out", out, "--params", cfg) == 2


class TestSplit:
    def test_split_counts(self, main_csv, tmp_path):
        tr, te = tmp_path / "tr.csv", tmp_path / "te.csv"
        assert cli("split", "--data", main_csv, "--test-fraction", 0.2, "--seed", 1,
                   "--train-out", tr, "--test-out", te) == 0
        assert len(load_dataset(tr)) == 24
        assert len(load_dataset(te)) == 6


class TestCv:
    def test_report_contents(self, main_csv, tmp_path):
        report_path = tmp_path / "cv.json"
        assert cli("cv", "--data", main_csv, "--folds", 5, "--seed", 7,
                   "--model", "knn", "--k", 1, "--report", report_path) == 0
        report = load_report(report_path)
        assert report["tool"] == "thermal-sense"
        assert report["version"]
        assert report["config"]["model"] == "knn"
        assert report["config"]["seed"] == 7
        assert len(report["results"]["folds"]) == 5
        assert 0.0 <= report["results"]["accuracy_mean"] <= 1.0

    def test_byte_identical_reports(self, main_csv, tmp_path):
        report_path = tmp_path / "cv.json"
        args = ("cv", "--data", main_csv, "--folds", 5, "--seed", 7,
                "--model", "svm", "--kernel", "linear", "--report", report_path)
        assert cli(*args) == 0
        first = report_path.read_bytes()
        assert cli(*args) == 0
        assert report_path.read_bytes() == first

    def test_nn_cv(self, main_csv, tmp_path):
        report_path = tmp_path / "cv.json"
        assert cli("cv", "--data", main_csv, "--folds", 5, "--seed", 7, "--model", "nn",
                   "--hidden", 4, "--epochs", 20, "--report", report_path) == 0

    def test_missing_seed_is_usage_error(self, main_csv, tmp_path):
        assert cli("cv", "--data", main_csv, "--model", "knn",
                   "--report", tmp_path / "r.json") == 1

    def test_report_file_is_optional(self, main_csv):
        assert cli("cv", "--data", main_csv, "--folds", 5, "--seed", 7,
                   "--model", "knn", "--k", 1) == 0


class TestSweep:
    def test_knn_grid(self, main_csv, tmp_path):
        report_path = tmp_path / "s.json"
        plot_path = tmp_path / "plot.csv"
        assert cli("sweep", "--data", main_csv, "--folds", 5, "--seed", 7,
                   "--family", "knn-grid", "--report", report_path,
                   "--emit-plot-data", plot_path) == 0
        report = load_report(report_path)
        assert len(report["results"]["rows"]) == 8
        plot_lines = plot_path.read_text().rstrip("\n").split("\n")
        assert plot_lines[0] == "config,accuracy_mean,accuracy_std"
        assert len(plot_lines) == 9

    @pytest.mark.parametrize("family", ["svm-kernels", "knn-grid"])
    def test_report_independent_of_thread_count(self, main_csv, tmp_path, monkeypatch, family):
        report, plot = tmp_path / "s.json", tmp_path / "s.csv"
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("THERMAL_SENSE_THREADS", threads)
            assert cli("sweep", "--data", main_csv, "--folds", 5, "--seed", 7,
                       "--family", family, "--report", report, "--emit-plot-data", plot) == 0
            outputs.append((report.read_bytes(), plot.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_diverging_nn_exits_3(self, main_csv, monkeypatch, capsys):
        diverging = NnSpec(8, TrainingParams(1e12, 8, 50))
        monkeypatch.setattr(evaluate, "sweep_specs", lambda family: (KnnSpec(1), diverging))
        assert cli("sweep", "--data", main_csv, "--folds", 5, "--seed", 7,
                   "--family", "nn-widths") == 3
        assert capsys.readouterr().err.startswith("error: loss diverged at epoch ")

    @pytest.mark.parametrize("value", ["abc", "0", "-1", ""])
    def test_bad_thread_count_is_usage_error(self, main_csv, monkeypatch, capsys, value):
        monkeypatch.setenv("THERMAL_SENSE_THREADS", value)
        assert cli("sweep", "--data", main_csv, "--folds", 5, "--seed", 7,
                   "--family", "knn-grid") == 1
        assert "THERMAL_SENSE_THREADS" in capsys.readouterr().err


class TestTrainEvalPredict:
    def test_full_round(self, main_csv, tmp_path):
        model_path = tmp_path / "m.model"
        assert cli("train", "--data", main_csv, "--seed", 7, "--model", "svm",
                   "--kernel", "linear", "--out", model_path) == 0

        var_path = tmp_path / "var.csv"
        assert cli("simulate", "variational", "--n-per-cell", 6, "--seed", 9,
                   "--out", var_path) == 0

        report_path = tmp_path / "eval.json"
        plot_path = tmp_path / "cond.csv"
        assert cli("eval", "--model", model_path, "--data", var_path, "--by-condition",
                   "--report", report_path, "--emit-plot-data", plot_path) == 0
        report = load_report(report_path)
        assert "overall" in report["results"]
        assert "hot_room" in report["results"]["by_condition"]
        lines = plot_path.read_text().rstrip("\n").split("\n")
        assert lines[0] == "condition,n,accuracy,sensitivity,specificity"
        assert lines[1].startswith("overall,36,")

        preds_path = tmp_path / "p.csv"
        assert cli("predict", "--model", model_path, "--data", var_path,
                   "--out", preds_path) == 0
        lines = preds_path.read_text().rstrip("\n").split("\n")
        assert lines[0] == "index,label"
        assert len(lines) == 37

    def test_model_determinism(self, main_csv, tmp_path):
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        for out in (a, b):
            assert cli("train", "--data", main_csv, "--seed", 7, "--model", "nn",
                       "--hidden", 4, "--epochs", 20, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nn_model_golden_bytes(self, main_csv, tmp_path):
        out = tmp_path / "nn.model"
        assert cli("train", "--data", main_csv, "--seed", 7, "--model", "nn",
                   "--hidden", 4, "--epochs", 20, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e8f2af357e133848168861e6446ea588bf186593a73bf3b36db2aac140f80c6c")


    @pytest.mark.parametrize("lineno, edit", [(9, "feature-mean"), (13, "w1")])
    def test_eval_rejects_bad_nn_model_file(self, main_csv, tmp_path, capsys, lineno, edit):
        model = tmp_path / "nn.model"
        assert cli("train", "--data", main_csv, "--seed", 7, "--model", "nn",
                   "--hidden", 4, "--epochs", 2, "--out", model) == 0
        lines = model.read_text().split("\n")
        assert lines[lineno - 1].startswith(edit + ":")
        lines[lineno - 1] = lines[lineno - 1].rsplit(" ", 1)[0]
        model.write_text("\n".join(lines))
        capsys.readouterr()
        assert cli("eval", "--model", model, "--data", main_csv) == 2
        assert f"{model}:{lineno}: " in capsys.readouterr().err


def _drop_last(line):
    return line.rsplit(" ", 1)[0]


def _narrow_knn(lines):
    return lines[:5] + ["n-features: 63"] + [_drop_last(line) for line in lines[6:]]


def _narrow_svm(lines):
    return (lines[:9] + ["n-features: 63"]
            + [_drop_last(line) for line in lines[10:]])


def _narrow_nn(lines):
    # feature mean and scale lose their last value, w1 its last row
    return (lines[:7] + ["n-features: 63"] + [_drop_last(line) for line in lines[8:10]]
            + lines[10:12 + 63] + lines[12 + 64:])


def _set_token(lineno, index, value):
    def edit(lines):
        tokens = lines[lineno - 1].split(" ")
        tokens[index] = value
        return lines[:lineno - 1] + [" ".join(tokens)] + lines[lineno:]
    return edit


class TestModelFileChecks:
    """A model file whose labels or width break the model's invariants exits 2 with file:line."""

    @pytest.mark.parametrize("kind, edit, lineno", [
        ("knn", _set_token(7, 0, "7"), 7),
        ("knn", _set_token(8, 0, "1.9"), 8),
        ("svm", _set_token(13, 1, "2.0"), 13),
        ("knn", _narrow_knn, 6),
        ("svm", _narrow_svm, 10),
        ("nn", _narrow_nn, 8),
    ], ids=["knn-label-7", "knn-label-1.9", "svm-label-2", "knn-width-63", "svm-width-63",
            "nn-width-63"])
    def test_eval_rejects_model_file(self, main_csv, tmp_path, capsys, kind, edit, lineno):
        model = tmp_path / f"{kind}.model"
        flags = ("--hidden", 4, "--epochs", 2) if kind == "nn" else ()
        assert cli("train", "--data", main_csv, "--seed", 7, "--model", kind, *flags,
                   "--out", model) == 0
        lines = edit(model.read_text().rstrip("\n").split("\n"))
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli("eval", "--model", model, "--data", main_csv) == 2
        assert capsys.readouterr().err.startswith(f"error: {model}:{lineno}: ")


    @pytest.mark.parametrize("lineno, text", [
        (3, "kernel: cubic"), (4, "degree: 0"), (4, "degree: 2.5"), (5, "gamma: nan"),
        (5, "gamma: inf"), (6, "coef0: nan"), (7, "c: nan"), (7, "c: 0"),
    ])
    def test_eval_rejects_bad_svm_header(self, main_csv, tmp_path, capsys, lineno, text):
        model = tmp_path / "svm.model"
        assert cli("train", "--data", main_csv, "--seed", 7, "--model", "svm", "--kernel", "rbf",
                   "--out", model) == 0
        lines = model.read_text().rstrip("\n").split("\n")
        key, value = text.split(": ")
        assert lines[lineno - 1].startswith(key + ":")
        lines[lineno - 1] = text
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli("eval", "--model", model, "--data", main_csv) == 2
        assert capsys.readouterr().err.startswith(f"error: {model}:{lineno}: bad {key} {value!r}")


class TestMonitorCommand:
    def test_replay(self, tmp_path):
        trace = tmp_path / "trace.csv"
        rows = ["timestamp,label"]
        t = 0
        for _ in range(5):
            rows.append(f"{t},person")
            t += 30
        for _ in range(80):
            rows.append(f"{t},no_person")
            t += 30
        for _ in range(5):
            rows.append(f"{t},person")
            t += 30
        trace.write_text("\n".join(rows) + "\n")
        out = tmp_path / "events.csv"
        assert cli("monitor", "--input", trace, "--out", out,
                   "--long-absence-min", 15, "--bed-id", "bed7") == 0
        lines = out.read_text().rstrip("\n").split("\n")
        assert [line.split(",")[1] for line in lines] == ["bed_exit", "return"]
        assert all(line.endswith(",bed7") for line in lines)

    def test_bad_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,label\nnoon,person\n")
        assert cli("monitor", "--input", trace, "--out", tmp_path / "e.csv") == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp(self, tmp_path, capsys, bad):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"timestamp,label\n0,person\n{bad},person\n5,person\n")
        assert cli("monitor", "--input", trace, "--out", tmp_path / "e.csv") == 2
        assert f"{trace}:3: " in capsys.readouterr().err

    def test_non_monotonic_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,label\n10,person\n10,person\n")
        assert cli("monitor", "--input", trace, "--out", tmp_path / "e.csv") == 2

    @pytest.mark.parametrize("rows, lineno, message", [
        ("0,person\n5,persn\n", 3, "unknown label 'persn'"),
        ("0,person\n5,person\n3,person\n", 4, "timestamp 3.0 not after previous 5.0"),
        ("10,person\n10,person\n", 3, "timestamp 10.0 not after previous 10.0"),
    ])
    def test_trace_errors_name_the_line(self, tmp_path, capsys, rows, lineno, message):
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,label\n" + rows)
        assert cli("monitor", "--input", trace, "--out", tmp_path / "e.csv") == 2
        assert f"error: {trace}:{lineno}: {message}\n" == capsys.readouterr().err


    @pytest.mark.parametrize("flag, value", [
        ("--debounce-frames", 0), ("--debounce-frames", -3), ("--max-exits", -1),
        ("--long-absence-min", -5), ("--long-absence-min", "nan"), ("--window-hours", -1),
    ])
    def test_invalid_config_exits_2(self, tmp_path, capsys, flag, value):
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,label\n0,person\n30,no_person\n")
        out = tmp_path / "e.csv"
        assert cli("monitor", "--input", trace, "--out", out, flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert cli("bogus") == 1

    def test_unknown_flag(self, tmp_path):
        assert cli("simulate", "main", "--seed", 1, "--out", tmp_path / "x.csv",
                   "--frobnicate") == 1

    def test_help_exits_zero(self):
        assert cli("--help") == 0

    def test_missing_data_file(self, tmp_path):
        assert cli("cv", "--data", tmp_path / "nope.csv", "--seed", 1,
                   "--model", "knn", "--report", tmp_path / "r.json") == 2

    def test_malformed_data_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("look,ma,no,header\n")
        assert cli("cv", "--data", bad, "--seed", 1, "--model", "knn",
                   "--report", tmp_path / "r.json") == 2

    def test_training_failure_exit_code(self, main_csv, tmp_path):
        assert cli("train", "--data", main_csv, "--seed", 1, "--model", "svm",
                   "--max-iter", 1, "--out", tmp_path / "m.model") == 3

    def test_no_stray_temp_files(self, main_csv, tmp_path):
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
