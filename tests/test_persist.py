import functools
import json
import math
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermal_sense.classifiers.kernels import KERNEL_KINDS, KernelSpec
from thermal_sense.classifiers.knn import KnnModel
from thermal_sense.classifiers.nn import NnModel, TrainingParams
from thermal_sense.classifiers.svm import SvmModel
from thermal_sense.core import CONDITIONS, Dataset, Label
from thermal_sense.errors import DataFormatError
from thermal_sense.evaluate import KnnSpec, NnSpec, SvmSpec, predictor
from thermal_sense.persist import (
    CSV_HEADER,
    atomic_write_text,
    dataset_from_csv,
    dataset_to_csv,
    load_dataset,
    load_model,
    model_to_text,
    read_lines,
    read_text,
    report_to_text,
    save_dataset,
    save_model,
    save_report,
)
from thermal_sense.simulate import generate_main, load_sim_params

from conftest import dataset_from_arrays
from oracles import walk_dataset_csv

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
        ds = Dataset(x, y, codes)
        text = dataset_to_csv(ds)
        again = dataset_from_csv(text)
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
            dataset_from_csv(CSV_HEADER + "\n" + row + "\n")

    @pytest.mark.parametrize("token", ["\u00b20.00", "\uff12\uff10.00", "20.\u0662\u0665"])
    def test_rejects_non_ascii_digits(self, token):
        row = ",".join(["20.00", token] + ["20.00"] * 62 + ["person", "baseline"])
        with pytest.raises(DataFormatError, match=r"^<memory>:2: field p01: malformed"):
            dataset_from_csv(CSV_HEADER + "\n" + row + "\n")

    def test_rejects_out_of_range_value(self):
        row = ",".join(["19.75"] + ["20.00"] * 63 + ["person", "baseline"])
        with pytest.raises(DataFormatError, match="quarter degree"):
            dataset_from_csv(CSV_HEADER + "\n" + row + "\n")

    def test_rejects_off_grid_values(self):
        # 20.1 is no sensor value: the writer refuses it, the reader refuses 20.10
        ds = dataset_from_arrays(np.full((1, 64), 20.1), [1])
        with pytest.raises(DataFormatError,
                           match=r"^sample 0 field p00: 20.1 is not a quarter degree"):
            dataset_to_csv(ds)
        row = ",".join(["20.00"] * 9 + ["20.10"] * 55 + ["person", "baseline"])
        with pytest.raises(DataFormatError,
                           match=r"^<memory>:2: field p11: 20.10 is not a quarter degree"):
            dataset_from_csv(CSV_HEADER + "\n" + row + "\n")

    @pytest.mark.parametrize("range_row, malformed_row", [(3, 7), (7, 3)])
    def test_earliest_bad_row_wins(self, range_row, malformed_row):
        rows = [["20.00"] * 64 + ["person", "baseline"] for _ in range(8)]
        rows[range_row - 1][5] = "100.25"
        rows[malformed_row - 1][2] = "20.5"
        text = "\n".join([CSV_HEADER] + [",".join(row) for row in rows]) + "\n"
        expected = {
            3: "<memory>:4: field p05: 100.25 is not a quarter degree in [20, 100]",
            7: "<memory>:4: field p02: malformed temperature '20.5'",
        }[range_row]
        with pytest.raises(DataFormatError) as info:
            dataset_from_csv(text)
        assert str(info.value) == expected
        with pytest.raises(DataFormatError) as info:
            walk_dataset_csv(text)
        assert str(info.value) == expected

    def test_rejects_missing_trailing_newline(self):
        row = ",".join(["20.00"] * 64 + ["person", "baseline"])
        with pytest.raises(DataFormatError, match="newline"):
            dataset_from_csv(CSV_HEADER + "\n" + row)

    def test_writer_rejects_non_frame_features(self):
        ds = dataset_from_arrays(np.zeros((2, 64)), [0, 1])
        with pytest.raises(DataFormatError):
            dataset_to_csv(ds)

    def test_writer_bytes_for_every_quarter_degree(self):
        x = 20.0 + 0.25 * np.resize(np.arange(321), (6, 64))
        ds = Dataset(x, [0, 1, 1, 0, 1, 0], range(6))
        rows = [",".join(["%.2f" % v for v in row] + [Label(label).to_text(), tag.value])
                for row, label, tag in zip(x.tolist(), ds.y.tolist(), CONDITIONS)]
        assert dataset_to_csv(ds) == "\n".join([CSV_HEADER] + rows) + "\n"


def _csv_base_lines():
    # Every label and condition, and both ends of the temperature range.
    x = 20.0 + 0.25 * ((np.arange(6)[:, None] * 53 + np.arange(64) * 5) % 321)
    ds = Dataset(x, [0, 1, 1, 0, 1, 0], range(6))
    return tuple(dataset_to_csv(ds).rstrip("\n").split("\n"))


_CSV_TOKENS = st.sampled_from([
    "19.75", "20.00", "100.00", "100.25", "20.10", "20.1", "20.5", "0020.00", "9" * 400 + ".00",
    "", " 20.00", "+20.00", "-20.00", "2e1", "inf", "nan", "20.", ".25",
    "\u00b20.00", "\uff12\uff10.00", "20.\u0662\u0665",
    "person", "no_person", "Person", "ghost", "baseline", "duvet_0", "DUVET_0", "cold",
])


@st.composite
def mutated_csv(draw):
    """Valid dataset CSV text with a few tokens swapped, edited, cut or replaced."""
    lines = list(_csv_base_lines())
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.integers(1, len(lines) - 1))
        fields = lines[row].split(",")
        last = len(fields) - 1
        i = draw(st.one_of(st.integers(0, last), st.sampled_from([last - 1, last])))
        op = draw(st.sampled_from(["swap", "digit", "cut", "set", "line"]))
        if op == "swap":
            j = draw(st.integers(0, last))
            fields[i], fields[j] = fields[j], fields[i]
        elif op == "digit":
            at = draw(st.integers(0, len(fields[i])))
            char = draw(st.sampled_from("0123456789.,_ x\u0663\u00b2\uff13"))
            fields[i] = fields[i][:at] + char + fields[i][at + 1:]
        elif op == "cut":
            del fields[i]
        elif op == "set":
            fields[i] = draw(_CSV_TOKENS)
        else:
            lines.insert(row, draw(st.sampled_from(["", lines[row], lines[-1] + ",x"])))
            continue
        lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


class TestDatasetCsvFuzz:
    """The whole-row reader against the field-by-field walk: same arrays or same message."""

    @settings(max_examples=400)
    @given(text=mutated_csv())
    def test_matches_field_walk(self, text):
        try:
            expected = walk_dataset_csv(text)
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as info:
                dataset_from_csv(text)
            assert str(info.value) == str(exc)
        else:
            ds = dataset_from_csv(text)
            for got, want in zip((ds.x, ds.y, ds.conditions), expected):
                assert got.tolist() == want.tolist()


class TestNonUtf8Files:
    @pytest.mark.parametrize("load", [load_dataset, load_model, load_sim_params])
    def test_every_reader_names_the_line(self, tmp_path, load):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"format-version: 1\n\xff\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:2: not UTF-8 text$"):
            load(path)

    @pytest.mark.parametrize("data, line", [
        (b"\xff", 1),
        (b"ok\n\n\nok \xc3", 4),  # a truncated two-byte sequence at the end
        ("\u00e9\n\u20ac\r\n".encode() + b"a\x80b\n", 3),  # multi-byte text before it
        (b"a\r\n" * 5000 + b"\xed\xa0\x80", 5001),  # a UTF-16 surrogate
        (b"a\rb\r\r\n\n\xff", 5),  # a lone \r and a \r\n each end one line
    ])
    def test_line_is_one_plus_the_newlines_before_the_byte(self, tmp_path, data, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(DataFormatError, match=f":{line}: not UTF-8 text$"):
            read_text(path)

    def test_utf8_text_reads_as_before(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_bytes("a\r\n\u00e9\rb\n".encode())
        assert read_text(path) == "a\r\n\u00e9\rb\n"
        assert read_lines(path) == path.read_text(encoding="utf-8").split("\n")[:-1]

    def test_sim_params_line_counts_a_lone_cr(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_bytes(b"room_lo = 20\rroom_lo = \xff\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:2: not UTF-8 text$"):
            load_sim_params(path)


class TestWrittenFileMode:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_mode_is_the_one_open_would_create(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "out.txt", "text\n")
            (tmp_path / "ref.txt").write_text("")  # open(path, "w")
        finally:
            os.umask(old)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("out.txt", "ref.txt")]
        assert modes == [0o666 & ~umask] * 2
        assert (tmp_path / "out.txt").read_text() == "text\n"


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
        with pytest.raises(DataFormatError, match=":1: format-version 99 is newer than supported"):
            load_model(path)

    @pytest.mark.parametrize("version", ["0", "-7"])
    def test_version_below_one_rejected(self, tmp_path, version):
        path = tmp_path / "m.txt"
        path.write_text(f"format-version: {version}\nmodel-kind: knn\n")
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(info.value) == (f"{path}:1: bad format-version {version!r}: "
                                   f"format-version must be at least 1, got {int(version)}")

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("format-version: 1\nmodel-kind: forest\n")
        with pytest.raises(DataFormatError):
            load_model(path)

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_lines_end_at_newline_only(self, tmp_path, train_ds, sep):
        # str.splitlines would end line 2 at `sep` and blame line 3
        lines = model_to_text(KnnSpec(1).train_model(train_ds, 0)).split("\n")
        lines[1] += sep
        path = tmp_path / "k.model"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}:2: unknown model kind {'knn' + sep!r}"

    @pytest.mark.parametrize("spec", [KnnSpec(3), SvmSpec(KernelSpec("rbf")),
                                      NnSpec(4, TrainingParams(0.05, 8, 2))],
                             ids=["knn", "svm", "nn"])
    def test_crlf_model_loads(self, tmp_path, train_ds, spec):
        text = model_to_text(spec.train_model(train_ds, 0))
        path = tmp_path / "m.model"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert model_to_text(load_model(path)) == text

    def test_payload_length_mismatch(self, tmp_path, train_ds):
        model = KnnSpec(1).train_model(train_ds, 0)
        path = tmp_path / "m.txt"
        save_model(model, path)
        text = path.read_text().rstrip("\n").split("\n")
        path.write_text("\n".join(text[:-1]) + "\n")
        with pytest.raises(DataFormatError):
            load_model(path)


SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308,
                  -1e308, 1.7976931348623157e308, 0.1, -25.25, 1 / 3, 100.0, 1e16)


def per_value_lines(rows):
    """Reference payload text: repr of each value, one row per line."""
    return [" ".join(repr(float(v)) for v in row) for row in rows]


class TestModelPayloadText:
    """Payload lines are each value's repr, whatever the values repeat."""

    @pytest.fixture
    def values(self, rng):
        return lambda shape: rng.choice(SPECIAL_VALUES, shape)

    def assert_payload(self, model, header_lines, want, tmp_path):
        text = model_to_text(model)
        assert text.split("\n")[header_lines:-1] == want
        path = tmp_path / "m.model"
        save_model(model, path)
        assert model_to_text(load_model(path)) == text == path.read_text()

    def test_knn(self, values, rng, tmp_path):
        # 600 rows are three blocks of the writer
        x, y = values((600, 64)), rng.integers(0, 2, 600)
        want = [f"{label} {line}" for label, line in zip(y.tolist(), per_value_lines(x))]
        self.assert_payload(KnnModel(Dataset(x, y), 1, "uniform"), 6, want, tmp_path)

    def test_svm(self, values, tmp_path):
        x = values((4, 64))
        alpha, y = np.array([0.25, 5e-324, 0.25, 5e-324]), np.array([1.0, -1.0, -1.0, 1.0])
        model = SvmModel(KernelSpec("linear"), 1.0, values(64), np.full(64, 0.5), x,
                         alpha, y, -0.0)
        want = per_value_lines(np.column_stack([alpha, y, x]))
        self.assert_payload(model, 12, want, tmp_path)

    def test_nn(self, values, tmp_path):
        w1, w2 = values((64, 3)), values((3, 2))
        model = NnModel(3, w1, values(3), w2, values(2), values(64), np.full(64, 2.0),
                        TrainingParams(), 0)
        want = ([f"w1: {line}" for line in per_value_lines(w1)]
                + [f"w2: {line}" for line in per_value_lines(w2)])
        self.assert_payload(model, 12, want, tmp_path)


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


def _svm_lines(kind="poly"):
    x = np.vstack([np.full((3, 64), 30.0), np.full((3, 64), 21.0)])
    x[:, 0] += np.arange(6)
    model = SvmSpec(KernelSpec(kind, coef0=1.0)).train_model(
        dataset_from_arrays(x, [1] * 3 + [0] * 3), 0)
    return model_to_text(model).rstrip("\n").split("\n")


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestModelInvariants:
    """A field that breaks a model constructor's invariant names its file and line."""

    @pytest.mark.parametrize("lineno, text", [
        (3, "kernel: cubic"), (4, "degree: 0"), (4, "degree: -3"),
        (5, "gamma: nan"), (5, "gamma: inf"), (5, "gamma: 0.0"), (5, "gamma: -0.5"),
        (5, "gamma: none"), (6, "coef0: nan"), (6, "coef0: -inf"),
        (7, "c: nan"), (7, "c: inf"), (7, "c: 0.0"), (7, "c: -1.0"), (8, "bias: nan"),
    ])
    def test_svm_header(self, tmp_path, lineno, text):
        lines = _svm_lines()
        key, value = text.split(": ")
        assert lines[lineno - 1].startswith(key + ":")
        lines[lineno - 1] = text
        path = _write(tmp_path / "m.txt", lines)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:{lineno}: "
                                                  f"bad {key} {re.escape(repr(value))}"):
            load_model(path)

    @pytest.mark.parametrize("value", ["0.0", "-1.0"])
    def test_svm_feature_scale(self, tmp_path, value):
        lines = _svm_lines()
        key, *scales = lines[11].split(" ")
        assert key == "feature-scale:"
        scales[3] = value
        lines[11] = " ".join([key] + scales)
        path = _write(tmp_path / "m.txt", lines)
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(info.value) == (
            f"{path}:12: bad feature-scale {' '.join(scales)!r}: "
            f"feature scale 3 must be finite and positive, got {value}")

    def test_linear_kernel_may_leave_gamma_unresolved(self, tmp_path):
        lines = _svm_lines("linear")
        assert lines[4] == "gamma: none"
        assert load_model(_write(tmp_path / "m.txt", lines)).kernel.gamma is None

    def test_svm_alpha_above_c(self, tmp_path):
        lines = _svm_lines()
        lines[6] = "c: 1e-9"
        path = _write(tmp_path / "m.txt", lines)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:13: dual coefficient"):
            load_model(path)

    def test_svm_alpha_sum(self, tmp_path):
        lines = _svm_lines()
        tokens = lines[12].split(" ")
        tokens[0] = repr(float(tokens[0]) / 2)
        lines[12] = " ".join(tokens)
        path = _write(tmp_path / "m.txt", lines)
        with pytest.raises(DataFormatError,
                           match=f"^{re.escape(str(path))}:9: bad n-support .*sum\\(alpha"):
            load_model(path)

    @pytest.mark.parametrize("lineno, text, reason", [
        (3, "k: 5", "k=5 out of range for 2 training samples"),
        (3, "k: 0", "k must be at least 1, got 0"),
        (4, "weighting: cosine", None),
    ])
    def test_knn_header(self, tmp_path, lineno, text, reason):
        model = KnnSpec(1).train_model(dataset_from_arrays(np.zeros((2, 64)), [0, 1]), 0)
        lines = model_to_text(model).rstrip("\n").split("\n")
        lines[lineno - 1] = text
        path = _write(tmp_path / "m.txt", lines)
        key, value = text.split(": ")
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        expected = f"{path}:{lineno}: bad {key} {value!r}"
        assert str(info.value) == (expected if reason is None else f"{expected}: {reason}")


def assert_svm_invariants(model):
    """Every SvmModel/KernelSpec invariant, checked independently of the constructors."""
    spec = model.kernel
    assert spec.kind in KERNEL_KINDS
    assert isinstance(spec.degree, int) and not isinstance(spec.degree, bool)
    assert spec.degree >= 1
    if spec.gamma is None:
        assert spec.kind == "linear"
    else:
        assert math.isfinite(spec.gamma) and spec.gamma > 0
    assert math.isfinite(spec.coef0)
    assert math.isfinite(model.c) and model.c > 0
    assert math.isfinite(model.bias)
    n = len(model.support_alpha)
    assert model.support_x.shape == (n, 64) and model.support_y.shape == (n,)
    assert model.feature_mean.shape == model.feature_scale.shape == (64,)
    for values in (model.support_x, model.feature_mean, model.feature_scale):
        assert np.isfinite(values).all()
    assert np.isin(model.support_y, (-1.0, 1.0)).all()
    assert ((model.support_alpha >= 0) & (model.support_alpha <= model.c)).all()
    assert abs(float(model.support_alpha @ model.support_y)) <= 1e-8


@functools.cache
def _fuzz_base():
    return tuple(_svm_lines())


_field_values = st.one_of(
    st.text(),
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["none", "nan", "inf", "-inf", "0", "-0.0", "-1", "1e400", "1e-320",
                     "linear", "poly", "rbf", "sigmoid", "knn", "nn", "True", "2.5"]),
)


class TestSvmModelFuzz:
    """Any value in any SVM header field loads with the invariants intact or names file:line."""

    @pytest.mark.parametrize("index", range(12))
    @settings(max_examples=60, deadline=None)
    @given(value=_field_values)
    def test_header_field(self, tmp_path_factory, index, value):
        lines = list(_fuzz_base())
        key = lines[index].split(":")[0]
        lines[index] = f"{key}: {value}"
        path = _write(tmp_path_factory.getbasetemp() / f"fuzz{index}.txt", lines)
        try:
            model = load_model(path)
        except DataFormatError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
        else:
            assert_svm_invariants(model)


def assert_knn_invariants(model):
    """Every KnnModel invariant, checked independently of the constructor."""
    n = len(model.train_y)
    assert model.weighting in ("uniform", "distance")
    assert isinstance(model.k, int) and not isinstance(model.k, bool)
    assert 1 <= model.k <= n
    assert model.train_x.shape == (n, 64) and model.train_y.shape == (n,)
    assert np.isfinite(model.train_x).all()
    assert set(model.train_y.tolist()) <= {0, 1}


def assert_nn_invariants(model):
    """Every NnModel/TrainingParams invariant, checked independently of the constructors."""
    h, params = model.hidden, model.params
    assert isinstance(h, int) and 1 <= h <= 1024
    assert model.w1.shape == (64, h) and model.b1.shape == (h,)
    assert model.w2.shape == (h, 2) and model.b2.shape == (2,)
    assert model.feature_mean.shape == model.feature_scale.shape == (64,)
    for values in (model.w1, model.b1, model.w2, model.b2, model.feature_mean):
        assert np.isfinite(values).all()
    assert (np.isfinite(model.feature_scale) & (model.feature_scale > 0)).all()
    assert math.isfinite(params.learning_rate) and params.learning_rate > 0
    assert isinstance(params.batch_size, int) and params.batch_size >= 1
    assert isinstance(params.epochs, int) and params.epochs >= 1
    assert isinstance(model.seed, int)


class TestTableFuzz:
    """Any value in any header field of the k-NN and NN model files loads with the
    invariants intact or names file:line."""

    @pytest.mark.parametrize("kind, index", [("knn", i) for i in range(6)]
                             + [("nn", i) for i in range(12)])
    @settings(max_examples=60, deadline=None)
    @given(value=_field_values)
    def test_header_field(self, tmp_path_factory, kind, index, value):
        base, check = {
            "knn": (_knn_lines, assert_knn_invariants),
            "nn": (_nn_fuzz_base, assert_nn_invariants),
        }[kind]
        lines = list(base())
        key = lines[index].split(":")[0]
        lines[index] = f"{key}: {value}"
        path = _write(tmp_path_factory.getbasetemp() / f"fuzz-{kind}{index}.txt", lines)
        try:
            loaded = load_model(path)
        except DataFormatError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
        else:
            check(loaded)


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

    @pytest.mark.parametrize("lineno, text, reason", [
        (4, "learning-rate: nan", "learning rate must be finite and positive, got nan"),
        (4, "learning-rate: 0.0", "learning rate must be finite and positive, got 0.0"),
        (5, "batch-size: 0", "batch size must be at least 1, got 0"),
        (6, "epochs: -5", "epochs must be at least 1, got -5"),
    ])
    def test_bad_training_params_name_line(self, tmp_path, lines, lineno, text, reason):
        key, value = text.split(": ")
        assert lines[lineno - 1].startswith(key + ":")
        lines[lineno - 1] = text
        path = _write(tmp_path / "m.txt", lines)
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}:{lineno}: bad {key} {value!r}: {reason}"

    def test_feature_scale_must_be_positive(self, tmp_path, lines):
        assert lines[9].startswith("feature-scale:")
        lines[9] = "feature-scale: " + " ".join(["0.0"] * 64)
        path = _write(tmp_path / "m.txt", lines)
        with pytest.raises(DataFormatError,
                           match=f"^{re.escape(str(path))}:10: bad feature-scale .*: "
                                 "feature scale 0 must be finite and positive, got 0.0$"):
            load_model(path)

    @pytest.mark.parametrize("index, message", [
        (20, "76: expected 'w1: ...'"), (77, "79: expected 'w2: ...'"),
        (None, "80: unexpected line after the weights"),
    ], ids=["missing-w1", "missing-w2", "extra-line"])
    def test_weight_line_count_names_line(self, tmp_path, lines, index, message):
        if index is None:
            lines.append(lines[-1])
        else:
            del lines[index]
        path = _write(tmp_path / "m.txt", lines)
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}:{message}"

    @pytest.mark.parametrize("lineno, text", [
        (3, "hidden: 0"), (3, "hidden: -2"), (8, "n-features: 0")])
    def test_bad_widths_name_line(self, tmp_path, lines, lineno, text):
        lines[lineno - 1] = text
        path = tmp_path / "m.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=f"^{path}:{lineno}: "):
            load_model(path)

    def test_hidden_is_checked_before_later_fields(self, tmp_path, lines):
        lines[2], lines[6] = "hidden: 0", "seed: x"
        path = _write(tmp_path / "m.txt", lines)
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}:3: bad hidden '0': hidden must be in [1, 1024], got 0"


def _knn_lines():
    model = KnnSpec(1).train_model(dataset_from_arrays(np.zeros((2, 64)), [0, 1]), 0)
    return model_to_text(model).rstrip("\n").split("\n")


def _nn_lines():
    x = np.vstack([np.full((3, 64), 30.0), np.full((3, 64), 21.0)])
    x[:, 0] += np.arange(6)
    model = NnSpec(3, TrainingParams(0.05, 4, 2)).train_model(
        dataset_from_arrays(x, [1] * 3 + [0] * 3), 1)
    return model_to_text(model).rstrip("\n").split("\n")


@functools.cache
def _nn_fuzz_base():
    return tuple(_nn_lines())


def _edit_token(line, index, token):
    tokens = line.split(" ")
    tokens[index] = token
    return " ".join(tokens)


class TestNumberGrammar:
    """Model-file numbers are read only as str(int) and repr(float) print them."""

    @pytest.mark.parametrize("lines, lineno, edit, message", [
        (_knn_lines, 7, lambda t: _edit_token(t, 1, "2_5.0"), "bad numeric payload"),
        (_knn_lines, 7, lambda t: _edit_token(t, 2, "\u0662\u0665.0"), "bad numeric payload"),
        (_knn_lines, 8, lambda t: _edit_token(t, 3, "1E-05"), "bad numeric payload"),
        (_knn_lines, 8, lambda t: _edit_token(t, 0, "1_0"), "bad numeric payload"),
        (_knn_lines, 7, lambda t: t.replace(" ", "  ", 1), "bad numeric payload"),
        (_knn_lines, 3, lambda t: "k: 1\u0661", "bad k '1\u0661'"),
        (_knn_lines, 5, lambda t: "n-samples: 0_2", "bad n-samples '0_2'"),
        (_svm_lines, 4, lambda t: "degree: \u0663", "bad degree '\u0663'"),
        (_svm_lines, 6, lambda t: "coef0: 1.", "bad coef0 '1.'"),
        (_svm_lines, 7, lambda t: "c: 1_0.0", "bad c '1_0.0'"),
        (_svm_lines, 8, lambda t: "bias: +0.5", "bad bias '+0.5'"),
        (_svm_lines, 11, lambda t: _edit_token(t, 5, "\uff12.5"), "bad numeric payload"),
        (_svm_lines, 13, lambda t: _edit_token(t, 0, "0x1p-3"), "bad numeric payload"),
        (_nn_lines, 4, lambda t: "learning-rate: .05", "bad learning-rate '.05'"),
        (_nn_lines, 6, lambda t: "epochs: 2.0", "bad epochs '2.0'"),
        (_nn_lines, 13, lambda t: _edit_token(t, 1, "Infinity"), "bad numeric payload"),
    ], ids=["knn-underscore", "knn-arabic-indic", "knn-upper-e", "knn-label-underscore",
            "knn-double-space", "knn-k", "knn-n-samples", "svm-degree", "svm-coef0-dot",
            "svm-c", "svm-bias-plus", "svm-fullwidth-mean", "svm-hex-alpha", "nn-leading-dot",
            "nn-float-epochs", "nn-infinity"])
    def test_rejection_names_line(self, tmp_path, lines, lineno, edit, message):
        lines = list(lines())
        lines[lineno - 1] = edit(lines[lineno - 1])
        path = _write(tmp_path / "f.txt", lines)
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}:{lineno}: {message}"

    @pytest.mark.parametrize("edits, message", [
        ({13: (3, "2_5.0"), 14: (0, "2.0")}, "13: bad numeric payload"),
        ({13: (0, "2.0"), 14: (3, "2_5.0")}, "13: dual coefficient 2.0 outside [0, C]"),
        ({13: (1, "0.5"), 14: (0, "-1.0")}, "13: support label must be -1 or +1, got 0.5"),
        ({13: (3, "1e+999"), 14: (1, "0.5")}, "13: non-finite value in payload"),
        ({14: (3, "2_5.0")}, "14: bad numeric payload"),
        ({14: (5, "nan")}, "14: non-finite value in payload"),
        ({14: (66, "1.0")}, "14: expected 66 values, got 67"),
    ], ids=["bad-token-first", "alpha-first", "label-first", "overflow", "second-line", "nan",
            "count"])
    def test_earliest_bad_support_line_wins(self, tmp_path, edits, message):
        lines = _svm_lines()
        for lineno, (index, token) in edits.items():
            tokens = lines[lineno - 1].split(" ")
            tokens[index:index + 1] = [token]
            lines[lineno - 1] = " ".join(tokens)
        path = _write(tmp_path / "m.txt", lines)
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}:{message}"

    @pytest.mark.parametrize("lineno, index, token, message", [
        (8, 9, "1e+999", "non-finite value in payload"),
        (7, 0, "2", "label must be 0 or 1, got '2'"),
        (7, 0, "-0", "label must be 0 or 1, got '-0'"),
        (7, 0, "10", "label must be 0 or 1, got '10'"),
        (8, 0, "-1", "label must be 0 or 1, got '-1'"),
        (7, 0, "99999999999999999999", "label must be 0 or 1, got '99999999999999999999'"),
        (7, 0, "00", "bad numeric payload"),
        (8, 0, "1.0", "bad numeric payload"),
        (8, 0, "+1", "bad numeric payload"),
        (7, 0, "1e0", "bad numeric payload"),
    ])
    def test_sample_value_names_line(self, tmp_path, lineno, index, token, message):
        lines = _knn_lines()
        lines[lineno - 1] = _edit_token(lines[lineno - 1], index, token)
        path = _write(tmp_path / "m.txt", lines)
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}:{lineno}: {message}"

    @pytest.mark.parametrize("lines, lineno, blank", [
        (_svm_lines, 13, ""),
        (_svm_lines, 11, "feature-mean:"),
        (_nn_lines, 12, "b2:"),
        (_knn_lines, 7, ""),
    ], ids=["svm-support", "svm-feature-mean", "nn-b2", "knn-sample"])
    def test_blank_numeric_line_is_a_bad_payload(self, tmp_path, lines, lineno, blank):
        # every numeric line of the formats holds at least one value
        lines = list(lines())
        lines[lineno - 1] = blank
        path = _write(tmp_path / "m.txt", lines)
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}:{lineno}: bad numeric payload"

    def test_every_repr_form_round_trips(self, tmp_path):
        values = [0.0, -0.0, 0.1, -2.5, 1e-05, 0.0001, 1e+16, 1.5e+300, 5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e+308, 123456789.0]
        x = np.zeros((2, 64))
        x[0, :len(values)] = values
        model = KnnModel(Dataset(x, np.array([0, 1])), 1, "uniform")
        path = tmp_path / "m.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.train_x.tobytes() == x.tobytes()
        assert model_to_text(loaded) == path.read_text()


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
        assert json.loads(first)["format-version"] == 1
        save_report(json.loads(first), path)
        assert path.read_bytes() == first

    def test_text_is_canonical(self):
        a = report_to_text({"b": 1, "a": 2})
        b = report_to_text({"a": 2, "b": 1})
        assert a == b
