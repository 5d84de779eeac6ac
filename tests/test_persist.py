import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermal_sense.classifiers.kernels import KernelSpec
from thermal_sense.classifiers.nn import TrainingParams
from thermal_sense.core import CONDITIONS, Dataset, Label, make_folds
from thermal_sense.errors import DataFormatError, FormatVersionError
from thermal_sense.evaluate import KnnSpec, NnSpec, SvmSpec, predictor
from thermal_sense.persist import (
    CSV_HEADER,
    dataset_from_csv,
    dataset_to_csv,
    load_dataset,
    load_fold_plan,
    load_model,
    load_report,
    model_to_text,
    report_to_text,
    save_dataset,
    save_fold_plan,
    save_model,
    save_report,
)
from thermal_sense.simulate import generate_main

from conftest import balanced_dataset, dataset_from_arrays

quarter_temps = st.integers(80, 400).map(lambda q: q / 4.0)
sample_strategy = st.tuples(
    st.lists(quarter_temps, min_size=64, max_size=64),
    st.sampled_from(list(Label)),
    st.integers(0, len(CONDITIONS) - 1),
)


class TestDatasetFormat:
    def test_round_trip_bytes(self, tmp_path):
        ds = generate_main(20, 7)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        first = path.read_bytes()
        save_dataset(load_dataset(path), path)
        assert path.read_bytes() == first

    @settings(max_examples=30)
    @given(st.lists(sample_strategy, min_size=1, max_size=8))
    def test_round_trip_random_datasets(self, samples):
        x, y, codes = zip(*samples)
        ds = Dataset(x, y, codes, "x")
        text = dataset_to_csv(ds)
        again = dataset_from_csv(text, "x")
        assert again.x.tolist() == ds.x.tolist()
        assert again.y.tolist() == ds.y.tolist()
        assert again.conditions.tolist() == ds.conditions.tolist()
        assert dataset_to_csv(again) == text

    def test_header_shape(self):
        assert CSV_HEADER.startswith("p00,p01")
        assert CSV_HEADER.endswith("p76,p77,label,condition")

    def test_truncated_line_names_line_number(self, tmp_path):
        ds = generate_main(3, 1)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        lines = path.read_text().split("\n")
        lines[2] = ",".join(lines[2].split(",")[:63])
        path.write_text("\n".join(lines))
        with pytest.raises(DataFormatError, match=":3:"):
            load_dataset(path)

    def test_rejects_bad_label(self, tmp_path):
        ds = generate_main(2, 1)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        text = path.read_text().replace("person", "ghost", 1)
        path.write_text(text)
        with pytest.raises(DataFormatError, match="label"):
            load_dataset(path)

    def test_rejects_loose_decimal_format(self):
        row = ",".join(["20.0"] + ["20.00"] * 63 + ["person", "baseline"])
        with pytest.raises(DataFormatError, match="p00"):
            dataset_from_csv(CSV_HEADER + "\n" + row + "\n", "x")

    @pytest.mark.parametrize("token", ["\u00b20.00", "\uff12\uff10.00", "20.\u0662\u0665"])
    def test_rejects_non_ascii_digits(self, token):
        row = ",".join(["20.00", token] + ["20.00"] * 62 + ["person", "baseline"])
        with pytest.raises(DataFormatError, match=r"^<memory>:2: field p01: malformed"):
            dataset_from_csv(CSV_HEADER + "\n" + row + "\n", "x")

    def test_rejects_out_of_range_value(self):
        row = ",".join(["19.75"] + ["20.00"] * 63 + ["person", "baseline"])
        with pytest.raises(DataFormatError, match="quarter degree"):
            dataset_from_csv(CSV_HEADER + "\n" + row + "\n", "x")

    def test_rejects_off_grid_values(self):
        # 20.1 is no sensor value: the writer refuses it, the reader refuses 20.10
        ds = dataset_from_arrays(np.full((1, 64), 20.1), [1])
        with pytest.raises(DataFormatError,
                           match=r"^sample 0 field p00: 20.1 is not a quarter degree"):
            dataset_to_csv(ds)
        row = ",".join(["20.00"] * 9 + ["20.10"] * 55 + ["person", "baseline"])
        with pytest.raises(DataFormatError,
                           match=r"^<memory>:2: field p11: 20.10 is not a quarter degree"):
            dataset_from_csv(CSV_HEADER + "\n" + row + "\n", "x")

    def test_rejects_missing_trailing_newline(self):
        row = ",".join(["20.00"] * 64 + ["person", "baseline"])
        with pytest.raises(DataFormatError, match="newline"):
            dataset_from_csv(CSV_HEADER + "\n" + row, "x")

    def test_writer_rejects_non_frame_features(self):
        ds = dataset_from_arrays(np.zeros((2, 64)), [0, 1])
        with pytest.raises(DataFormatError):
            dataset_to_csv(ds)


class TestFoldPlanFormat:
    def test_round_trip(self, tmp_path):
        plan = make_folds(balanced_dataset(10), 5, 3)
        path = tmp_path / "plan.txt"
        save_fold_plan(plan, path)
        assert load_fold_plan(path) == plan

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("format-version: 9\nartifact: fold-plan\nnum-folds: 2\nassignment: 0 1\n")
        with pytest.raises(FormatVersionError):
            load_fold_plan(path)

    def test_wrong_artifact(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("format-version: 1\nartifact: model\n")
        with pytest.raises(DataFormatError):
            load_fold_plan(path)

    @pytest.mark.parametrize("lineno, text", [(3, "num-folds: x"), (4, "assignment: 0 one")])
    def test_bad_header_names_line(self, tmp_path, lineno, text):
        lines = ["format-version: 1", "artifact: fold-plan", "num-folds: 2", "assignment: 0 1"]
        lines[lineno - 1] = text
        path = tmp_path / "plan.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=f"^{path}:{lineno}: bad "):
            load_fold_plan(path)


class TestModelFormat:
    @pytest.fixture
    def train_ds(self, rng):
        x = np.vstack([rng.normal(32, 1, (12, 64)), rng.normal(21, 1, (12, 64))])
        return dataset_from_arrays(x, [1] * 12 + [0] * 12)

    @pytest.mark.parametrize(
        "spec",
        [
            KnnSpec(3, "distance"),
            SvmSpec(KernelSpec("rbf")),
            SvmSpec(KernelSpec("poly", coef0=1.0)),
            NnSpec(6, TrainingParams(0.05, 8, 20)),
        ],
        ids=["knn", "svm-rbf", "svm-poly", "nn"],
    )
    def test_round_trip_identical_predictions(self, spec, train_ds, tmp_path, rng):
        model = spec.train_model(train_ds, 5)
        path = tmp_path / "m.txt"
        save_model(model, path)
        loaded = load_model(path)
        probes = rng.normal(25, 6, (1000, 64))
        assert np.array_equal(predictor(model)(probes), predictor(loaded)(probes))
        # canonical text: saving the loaded model reproduces the bytes
        assert model_to_text(loaded) == path.read_text()

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("format-version: 99\nmodel-kind: knn\n")
        with pytest.raises(FormatVersionError):
            load_model(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("format-version: 1\nmodel-kind: forest\n")
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_payload_length_mismatch(self, tmp_path, train_ds):
        model = KnnSpec(1).train_model(train_ds, 0)
        path = tmp_path / "m.txt"
        save_model(model, path)
        text = path.read_text().rstrip("\n").split("\n")
        path.write_text("\n".join(text[:-1]) + "\n")
        with pytest.raises(DataFormatError):
            load_model(path)


class TestModelHeaders:
    """An unparsable header field names its file and line."""

    @pytest.mark.parametrize("spec, lineno, text", [
        (KnnSpec(1), 3, "k: one"),
        (KnnSpec(1), 5, "n-samples: 2.5"),
        (KnnSpec(1), 6, "n-features: ?"),
        (SvmSpec(KernelSpec("linear")), 4, "degree: three"),
        (SvmSpec(KernelSpec("linear")), 5, "gamma: auto"),
        (SvmSpec(KernelSpec("linear")), 7, "c: big"),
        (SvmSpec(KernelSpec("linear")), 9, "n-support: 1e3"),
        (NnSpec(3, TrainingParams(0.05, 4, 2)), 3, "hidden: wide"),
        (NnSpec(3, TrainingParams(0.05, 4, 2)), 4, "learning-rate: fast"),
        (NnSpec(3, TrainingParams(0.05, 4, 2)), 7, "seed: 0x7"),
    ], ids=["knn-k", "knn-n-samples", "knn-n-features", "svm-degree", "svm-gamma", "svm-c",
            "svm-n-support", "nn-hidden", "nn-learning-rate", "nn-seed"])
    def test_bad_field_names_line(self, tmp_path, rng, spec, lineno, text):
        x = np.vstack([rng.normal(32, 1, (6, 64)), rng.normal(21, 1, (6, 64))])
        model = spec.train_model(dataset_from_arrays(x, [1] * 6 + [0] * 6), 1)
        lines = model_to_text(model).rstrip("\n").split("\n")
        key = text.split(":")[0]
        assert lines[lineno - 1].startswith(key + ":")
        lines[lineno - 1] = text
        path = tmp_path / "m.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=f"^{path}:{lineno}: bad {key} "):
            load_model(path)


class TestNnModelFile:
    """Every length in an NN model file is checked at load, with file:line."""

    @pytest.fixture
    def lines(self, tmp_path, rng):
        x = np.vstack([rng.normal(32, 1, (6, 64)), rng.normal(21, 1, (6, 64))])
        model = NnSpec(3, TrainingParams(0.05, 4, 2)).train_model(
            dataset_from_arrays(x, [1] * 6 + [0] * 6), 1)
        return model_to_text(model).rstrip("\n").split("\n")

    @pytest.mark.parametrize("lineno, key", [
        (9, "feature-mean"), (10, "feature-scale"), (11, "b1"), (12, "b2"),
        (13, "w1"), (76, "w1"), (77, "w2"), (79, "w2"),
    ])
    @pytest.mark.parametrize("edit", ["drop", "extra"])
    def test_wrong_length_names_line(self, tmp_path, lines, lineno, key, edit):
        assert lines[lineno - 1].startswith(key + ":")
        if edit == "drop":
            lines[lineno - 1] = lines[lineno - 1].rsplit(" ", 1)[0]
        else:
            lines[lineno - 1] += " 0.5"
        path = tmp_path / "m.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=f"^{path}:{lineno}: expected"):
            load_model(path)

    @pytest.mark.parametrize("lineno, text", [
        (3, "hidden: 0"), (3, "hidden: -2"), (8, "n-features: 0")])
    def test_bad_widths_name_line(self, tmp_path, lines, lineno, text):
        lines[lineno - 1] = text
        path = tmp_path / "m.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=f"^{path}:{lineno}: "):
            load_model(path)


class TestReportFormat:
    def test_round_trip_bytes(self, tmp_path):
        report = {
            "tool": "thermal-sense",
            "version": "0.1.0",
            "command": "cv",
            "config": {"seed": 7},
            "results": {"accuracy_mean": 0.975, "folds": [{"tp": 5}]},
        }
        path = tmp_path / "r.json"
        save_report(report, path)
        first = path.read_bytes()
        save_report(load_report(path), path)
        assert path.read_bytes() == first

    def test_text_is_canonical(self):
        a = report_to_text({"b": 1, "a": 2})
        b = report_to_text({"a": 2, "b": 1})
        assert a == b

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"format-version": 2}')
        with pytest.raises(FormatVersionError):
            load_report(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{nope")
        with pytest.raises(DataFormatError):
            load_report(path)
