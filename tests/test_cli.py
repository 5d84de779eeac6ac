import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermal_sense import evaluate
from thermal_sense.classifiers.nn import TrainingParams
from thermal_sense.cli import _read_trace, build_parser, run
from thermal_sense.core import Label
from thermal_sense.errors import DataFormatError
from thermal_sense.evaluate import KnnSpec, NnSpec
from thermal_sense.monitor import MonitorConfig
from thermal_sense.persist import load_dataset
from thermal_sense.simulate import (DEFAULT_SIM_PARAMS, generate_main, generate_variational,
                                    load_sim_params)

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

    @pytest.mark.parametrize("text, lineno, message", [
        ("room_lo = nan", 2, "room_lo must be finite, got nan"),
        ("room_lo = inf", 2, "room_lo must be finite, got inf"),
        ("bottle_radius_lo = nan", 2, "bottle_radius_lo must be finite, got nan"),
        ("duvet_tau_min = nan", 2, "duvet_tau_min must be finite, got nan"),
        ("person_orient_deg = 1e308", 2,
         "the range of person_orient_deg has width inf, not finite and >= 0"),
        ("room_hi = 1e308\nroom_lo = -1e308", 3,
         "the range of room_lo and room_hi has width inf, not finite and >= 0"),
        ("room_lo = 22.0", 2,
         "the range of room_lo and room_hi has width -1.0, not finite and >= 0"),
        ("duvet_f0 = 2", 2, "duvet_f0: f0 2.0 outside (0, 1]"),
        ("duvet_tau_min = 0", 2,
         "duvet_tau_min: tau_min must be finite and positive, got 0.0"),
        ("bottle_temp_c = 50", 2, "bottle_temp_c: point source at 50.0 exceeds 45 C"),
        ("room_lo = 10", 2, "room_lo: room temperature 10.0 outside [15, 35]"),
        ("hot_room_hi = 36", 2, "hot_room_hi: room temperature 36.0 outside [15, 35]"),
        ("skin_hi = 40", 2, "skin_hi: skin temperature 40.0 outside [28, 37]"),
        ("person_semi_a_lo = 0", 2,
         "person_semi_a_lo: semi_axes[0] must be finite and positive, got 0.0"),
        ("noise_sigma = -0.1", 2, "noise_sigma: noise sigma -0.1 outside [0, 80]"),
        ("noise_sigma = 0.05\nduvet_f0 = 0.5\nbottle_radius_lo = -0.1\nskin_lo = 20", 4,
         "bottle_radius_lo: radius must be finite and >= 0, got -0.1"),
        ("noise_sigma = 1e308", 2, "noise_sigma: noise sigma 1e+308 outside [0, 80]"),
        ("person_row_lo = 0\nperson_row_hi = 0.5", 3, "a person at (0.0, 2.2) with semi-axes "
         "(2.9, 1.4) and orientation 0 degrees extends outside the 8x8 grid"),
        ("person_orient_deg = 90\nperson_semi_b_lo = 0.5\nperson_semi_a_lo = 2.0", 4,
         "a person at (2.6, 2.2) with semi-axes (2.9, 1.4) and orientation 90 degrees "
         "extends outside the 8x8 grid"),
    ], ids=["room-nan", "room-inf", "bottle-nan", "tau-nan", "orient-wide", "room-wide",
            "room-reversed", "duvet-f0", "duvet-tau", "bottle-hot", "room-cold", "hot-room-hot",
            "skin-hot", "semi-axis-zero", "noise-negative", "first-bad-line", "noise-huge",
            "person-off-grid", "person-turned-off-grid"])
    def test_undrawable_params_exit_2(self, tmp_path, capsys, text, lineno, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"# overrides\n{text}\n")
        out = tmp_path / "v.csv"
        assert cli("simulate", "variational", "--n-per-cell", 3, "--seed", 1,
                   "--out", out, "--params", cfg) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{lineno}: {message}\n"
        assert not out.exists()

    def test_bottle_too_far_to_warm_a_pixel_renders_silently(self, tmp_path, capsys):
        # the bottle's squared distance overflows to inf, which warms no pixel
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("bottle_row_lo = -1e300\nbottle_row_hi = -1e299\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli("simulate", "variational", "--n-per-cell", 3, "--seed", 1,
                       "--out", tmp_path / "v.csv", "--params", cfg) == 0
        assert capsys.readouterr().err == ""


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
        report = json.loads(report_path.read_text())
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
        report = json.loads(report_path.read_text())
        assert len(report["results"]["rows"]) == 8
        plot_lines = plot_path.read_text().rstrip("\n").split("\n")
        assert plot_lines[0] == "config,accuracy_mean,accuracy_std"
        assert len(plot_lines) == 9

    def test_diverging_nn_exits_3(self, main_csv, monkeypatch, capsys):
        diverging = NnSpec(8, TrainingParams(1e12, 8, 50))
        monkeypatch.setattr(evaluate, "sweep_specs", lambda family: (KnnSpec(1), diverging))
        assert cli("sweep", "--data", main_csv, "--folds", 5, "--seed", 7,
                   "--family", "nn-widths") == 3
        assert capsys.readouterr().err.startswith("error: loss diverged at epoch ")


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
        report = json.loads(report_path.read_text())
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
            "08856ca48a70052b47a4caae97fc6119f5d6bba62c134be417416209cffbbd26")


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

    @pytest.mark.parametrize("bed_id", ["a,b\nc", "a,b", "a\rb", "a\nb"])
    def test_bed_id_that_would_split_a_record_exits_2(self, tmp_path, capsys, bed_id):
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,label\n0,person\n30,no_person\n")
        out = tmp_path / "e.csv"
        assert cli("monitor", "--input", trace, "--out", out, "--bed-id", bed_id) == 2
        assert capsys.readouterr().err == (
            f"error: --bed-id must not contain ',', CR or LF, got {bed_id!r}\n")
        assert not out.exists()

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


    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_lines_end_at_newline_only(self, tmp_path, capsys, sep):
        # str.splitlines would end line 2 at `sep` and blame line 3
        trace = tmp_path / "trace.csv"
        trace.write_text(f"timestamp,label\n0,person{sep}\n30,persn\n", encoding="utf-8")
        assert cli("monitor", "--input", trace, "--out", tmp_path / "e.csv") == 2
        assert capsys.readouterr().err == f"error: {trace}:2: unknown label {'person' + sep!r}\n"

    def test_crlf_trace_loads(self, tmp_path):
        rows = "timestamp,label\n0,person\n30,no_person\n"
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(rows.encode())
        crlf.write_bytes(rows.replace("\n", "\r\n").encode())
        assert _read_trace(crlf) == _read_trace(lf) == [(0.0, Label.PERSON),
                                                        (30.0, Label.NO_PERSON)]

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


    def test_flag_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["monitor", "--input", "t.csv", "--out", "e.csv"])
        assert MonitorConfig(args.debounce_frames, args.long_absence_min * 60.0,
                             args.window_hours * 3600.0, args.max_exits) == MonitorConfig()


class TestCrlfDataset:
    def test_cv_on_a_crlf_dataset_exits_2(self, main_csv, tmp_path, capsys):
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(main_csv.read_bytes().replace(b"\n", b"\r\n"))
        capsys.readouterr()
        assert cli("cv", "--data", crlf, "--seed", 1, "--model", "knn") == 2
        assert capsys.readouterr().err == f"error: {crlf}: CR line endings are not accepted\n"


class TestNonUtf8Input:
    """Every file a command reads fails with exit 2 and `file:line`, not a traceback."""

    @pytest.mark.parametrize("args", [
        ["simulate", "main", "--seed", 1, "--out", "OUT", "--params", "BAD"],
        ["split", "--data", "BAD", "--seed", 1, "--train-out", "OUT", "--test-out", "OUT2"],
        ["cv", "--data", "BAD", "--seed", 1, "--model", "knn"],
        ["sweep", "--data", "BAD", "--seed", 1, "--family", "knn-grid"],
        ["train", "--data", "BAD", "--seed", 1, "--model", "knn", "--out", "OUT"],
        ["eval", "--model", "BAD", "--data", "DATA"],
        ["eval", "--model", "MODEL", "--data", "BAD"],
        ["predict", "--model", "BAD", "--data", "DATA", "--out", "OUT"],
        ["predict", "--model", "MODEL", "--data", "BAD", "--out", "OUT"],
        ["monitor", "--input", "BAD", "--out", "OUT"],
    ], ids=lambda args: f"{args[0]}-{args[args.index('BAD') - 1].lstrip('-')}")
    def test_exits_2_naming_the_line(self, main_csv, tmp_path, capsys, args):
        bad = tmp_path / "bad.txt"
        bad.write_bytes("timestamp,label\n1.0,pers\xe9on\n".encode("latin-1"))
        model = tmp_path / "m.model"
        assert cli("train", "--data", main_csv, "--seed", 1, "--model", "knn", "--out", model) == 0
        paths = {"BAD": bad, "DATA": main_csv, "MODEL": model,
                 "OUT": tmp_path / "out", "OUT2": tmp_path / "out2"}
        capsys.readouterr()
        assert cli(*(paths.get(a, a) for a in args)) == 2
        assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 text\n"


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "nan", "tol must be finite and positive, got nan"),
        ("--tol", "-1", "tol must be finite and positive, got -1.0"),
        ("--max-iter", "0", "max_iter must be at least 1, got 0"),
    ], ids=["tol-nan", "tol-negative", "max-iter-0"])
    def test_bad_svm_solver_setting_exits_2(self, main_csv, tmp_path, capsys, flag, value,
                                            message):
        # rejected before training: the SMO would run to its pair-update cap first
        assert cli("train", "--data", main_csv, "--seed", 1, "--model", "svm", flag, value,
                   "--out", tmp_path / "m.model") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "m.model").exists()

    def test_folds_above_a_class_count_exit_2(self, main_csv, capsys):
        assert cli("cv", "--data", main_csv, "--folds", 16, "--seed", 1, "--model", "knn") == 2
        assert capsys.readouterr().err == (
            "error: class no_person has 15 samples, fewer than 16 folds\n")

    def test_split_of_one_class_exits_2(self, main_csv, tmp_path, capsys):
        one_class = tmp_path / "person.csv"
        lines = main_csv.read_text().split("\n")
        one_class.write_text("\n".join(line for line in lines if ",no_person," not in line))
        assert cli("split", "--data", one_class, "--seed", 1, "--train-out", tmp_path / "tr.csv",
                   "--test-out", tmp_path / "te.csv") == 2
        assert capsys.readouterr().err == "error: class no_person has no samples\n"
        assert not (tmp_path / "tr.csv").exists()

    def test_newer_model_format_exits_2(self, main_csv, tmp_path, capsys):
        model = tmp_path / "m.model"
        assert cli("train", "--data", main_csv, "--seed", 1, "--model", "knn", "--out", model) == 0
        model.write_text(model.read_text().replace("format-version: 1", "format-version: 2", 1))
        capsys.readouterr()
        assert cli("predict", "--model", model, "--data", main_csv,
                   "--out", tmp_path / "p.csv") == 2
        assert capsys.readouterr().err == (
            f"error: {model}:1: format-version 2 is newer than supported (1)\n")

    def test_no_stray_temp_files(self, main_csv, tmp_path):
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


_TRACE = ("timestamp,label", "0,person", "30,person", "60.5,no_person", "90,no_person",
          "120,person")
_TRACE_TOKENS = st.sampled_from([
    "", " 30", "30 ", "-1", "0", "60.5", "1e400", "-inf", "nan", "1_0", "0x10", "\u0663", "2e1",
    "person", "no_person", "Person", "ghost", "timestamp", "label",
])


@st.composite
def mutated_trace(draw):
    """A valid timestamp,label trace with a few fields set, edited or cut, or lines inserted."""
    lines = list(_TRACE)
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        fields = lines[row].split(",")
        i = draw(st.integers(0, len(fields) - 1))
        op = draw(st.sampled_from(["set", "digit", "cut", "line"]))
        if op == "set":
            fields[i] = draw(_TRACE_TOKENS | st.floats().map(repr))
        elif op == "digit":
            at = draw(st.integers(0, len(fields[i])))
            char = draw(st.sampled_from("0123456789.-e,_ x\u0663"))
            fields[i] = fields[i][:at] + char + fields[i][at + 1:]
        elif op == "cut":
            del fields[i]
        else:
            lines.insert(row, draw(st.sampled_from(["", lines[row], lines[-1]])))
            continue
        lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


_SIM_KEYS = [f.name for f in dataclasses.fields(DEFAULT_SIM_PARAMS)]
_SIM_VALUES = st.one_of(
    st.floats(-1.0, 9.0).map(lambda v: repr(round(v, 2))),  # near the grid's edges
    st.floats().map(repr),
    st.sampled_from(["0", "-0.0", "90", "80", "80.5", "1e308", "-1e308", "1e-320", "nan", "inf",
                     "warm", ""]),
)


@st.composite
def mutated_sim_params(draw):
    """Every parameter at its default, then a few values set or swapped, or lines edited."""
    lines = [f"{key} = {getattr(DEFAULT_SIM_PARAMS, key)!r}" for key in _SIM_KEYS]
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.integers(0, len(lines) - 1))
        key, _, value = lines[row].partition(" = ")
        op = draw(st.sampled_from(["set", "set", "set", "swap", "key", "line"]))
        if op == "set":
            value = draw(_SIM_VALUES)
        elif op == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            other_key, _, other_value = lines[other].partition(" = ")
            lines[other] = f"{other_key} = {value}"
            value = other_value
        elif op == "key":
            key = draw(st.sampled_from(_SIM_KEYS + ["walls", ""]))
        else:
            lines.insert(row, draw(st.sampled_from(["", "# note", key, lines[row]])))
            continue
        lines[row] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def _exits_2_with_one_line(*args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli(*args)
    return code == 2 and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestReaderFuzz:
    """A mutated trace or simulator-params file loads with its invariants intact, or fails
    naming `file:line`, and the CLI then exits 2 with one error line."""

    @settings(max_examples=300)
    @given(text=mutated_trace())
    def test_trace(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz_trace.csv"
        path.write_text(text, encoding="utf-8")
        try:
            trace = _read_trace(path)
        except DataFormatError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
            assert _exits_2_with_one_line("monitor", "--input", path,
                                          "--out", path.with_suffix(".out"))
        else:
            times = [ts for ts, _ in trace]
            assert all(map(math.isfinite, times))
            assert all(a < b for a, b in zip(times, times[1:]))

    @settings(max_examples=300)
    @given(text=mutated_sim_params(), seed=st.integers(0, 2**32))
    def test_sim_params(self, tmp_path_factory, text, seed):
        path = tmp_path_factory.getbasetemp() / "fuzz_sim.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            params = load_sim_params(path)
        except DataFormatError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
            assert _exits_2_with_one_line("simulate", "main", "--n-per-class", 1, "--seed", 1,
                                          "--out", path.with_suffix(".csv"), "--params", path)
        else:  # every scene the ranges can draw renders
            generate_main(1, seed, params)
            generate_variational(3, seed, params)
