"""Bit-exact readers and writers for datasets, fold plans, models, reports.

Datasets are UTF-8 CSV with header `p00,...,p77,label,condition`, LF line
endings, temperatures printed with exactly two decimals (quarter degrees
need no more). Models and fold plans are versioned line-oriented text;
numeric payloads use the shortest round-trip decimal representation, so
a reloaded model reproduces the original's predictions bit for bit.
Reports are canonical JSON (sorted keys, two-space indent).

All writers go through an atomic temp-file + rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .classifiers.kernels import KernelSpec
from .classifiers.knn import KnnModel
from .classifiers.nn import MAX_HIDDEN, NnModel, TrainingParams
from .classifiers.svm import SvmModel
from .core import (
    CONDITIONS,
    GRID_SIZE,
    NUM_PIXELS,
    TEMP_MAX_C,
    TEMP_MIN_C,
    Dataset,
    FoldPlan,
    Label,
)
from .errors import DataFormatError, FormatVersionError

DATASET_FORMAT_VERSION = 1
FOLD_PLAN_FORMAT_VERSION = 1
MODEL_FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 1

_PIXEL_FIELDS = tuple(f"p{r}{c}" for r in range(GRID_SIZE) for c in range(GRID_SIZE))
CSV_HEADER = ",".join(_PIXEL_FIELDS + ("label", "condition"))
_LABELS = tuple(label.to_text() for label in Label)  # label i is written as _LABELS[i]
_CONDITION_CODES = {tag.value: code for code, tag in enumerate(CONDITIONS)}
# A CSV row: 64 temperatures with two decimals, then label and condition.
_ROW_FORMAT = ",".join(["%.2f"] * NUM_PIXELS + ["%s", "%s"])


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value: float) -> str:
    return repr(float(value))


def _floats_line(values) -> str:
    return " ".join(_fmt(v) for v in values)


def _parse_floats(text: str, path, lineno: int) -> np.ndarray:
    try:
        values = np.array([float(tok) for tok in text.split()], dtype=np.float64)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: bad numeric payload") from None
    if not np.all(np.isfinite(values)):
        raise DataFormatError(f"{path}:{lineno}: non-finite value in payload")
    return values


def _parse_row(text: str, n: int, path, lineno: int) -> np.ndarray:
    values = _parse_floats(text, path, lineno)
    if len(values) != n:
        raise DataFormatError(f"{path}:{lineno}: expected {n} values, got {len(values)}")
    return values


# --- datasets ----------------------------------------------------------

def dataset_to_csv(ds: Dataset) -> str:
    x = ds.x
    quarters = x * 4.0
    bad = (x < TEMP_MIN_C) | (x > TEMP_MAX_C) | (quarters != np.floor(quarters))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DataFormatError(
            f"sample {i} field {_PIXEL_FIELDS[j]}: "
            f"{float(x[i, j])!r} is not a quarter degree in [20, 100]"
        )
    lines = [CSV_HEADER]
    for row, label, code in zip(x.tolist(), ds.y.tolist(), ds.conditions.tolist()):
        lines.append(_ROW_FORMAT % (*row, _LABELS[label], CONDITIONS[code].value))
    return "\n".join(lines) + "\n"


def save_dataset(ds: Dataset, path) -> None:
    atomic_write_text(path, dataset_to_csv(ds))


def _parse_temperature(tok: str, path, lineno: int, field: str) -> float:
    # Writer emits exactly two decimals of ASCII digits; accept nothing looser.
    whole, dot, frac = tok.partition(".")
    if not (whole.isdigit() and dot and len(frac) == 2 and frac.isdigit() and tok.isascii()):
        raise DataFormatError(f"{path}:{lineno}: field {field}: malformed temperature {tok!r}")
    value = float(tok)
    if not (TEMP_MIN_C <= value <= TEMP_MAX_C) or not (value * 4).is_integer():
        raise DataFormatError(
            f"{path}:{lineno}: field {field}: {tok} is not a quarter degree in [20, 100]"
        )
    return value


def dataset_from_csv(text: str, name: str, path="<memory>") -> Dataset:
    if "\r" in text:
        raise DataFormatError(f"{path}: CR line endings are not accepted")
    if not text.endswith("\n"):
        raise DataFormatError(f"{path}: missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != CSV_HEADER:
        raise DataFormatError(f"{path}:1: bad or missing header")
    n = len(lines) - 1
    x = np.empty((n, NUM_PIXELS))
    y = np.empty(n, dtype=np.int64)
    codes = np.empty(n, dtype=np.int8)
    n_fields = NUM_PIXELS + 2
    for row, line in enumerate(lines[1:]):
        lineno = row + 2
        fields = line.split(",")
        if len(fields) != n_fields:
            raise DataFormatError(
                f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        x[row] = [_parse_temperature(tok, path, lineno, field)
                  for field, tok in zip(_PIXEL_FIELDS, fields)]
        label_text = fields[-2]
        if label_text not in _LABELS:
            raise DataFormatError(f"{path}:{lineno}: field label: unknown label {label_text!r}")
        y[row] = _LABELS.index(label_text)
        condition_text = fields[-1]
        if condition_text not in _CONDITION_CODES:
            raise DataFormatError(
                f"{path}:{lineno}: field condition: unknown condition {condition_text!r}"
            )
        codes[row] = _CONDITION_CODES[condition_text]
    return Dataset(x, y, codes, name)


def load_dataset(path, name: str | None = None) -> Dataset:
    text = Path(path).read_text(encoding="utf-8")
    return dataset_from_csv(text, name if name is not None else Path(path).stem, path)


# --- fold plans ---------------------------------------------------------

def save_fold_plan(plan: FoldPlan, path) -> None:
    text = (
        f"format-version: {FOLD_PLAN_FORMAT_VERSION}\n"
        "artifact: fold-plan\n"
        f"num-folds: {plan.num_folds}\n"
        f"assignment: {' '.join(str(a) for a in plan.assignment)}\n"
    )
    atomic_write_text(path, text)


def _read_header_line(lines: list[str], index: int, key: str, path) -> str:
    if index >= len(lines) or not lines[index].startswith(key + ":"):
        raise DataFormatError(f"{path}:{index + 1}: expected '{key}: ...'")
    return lines[index][len(key) + 1:].strip()


def _header_value(lines: list[str], index: int, key: str, path, parse=int):
    """The parsed value of header line `index` (`key: value`), or DataFormatError at that line."""
    raw = _read_header_line(lines, index, key, path)
    try:
        return parse(raw)
    except ValueError:
        raise DataFormatError(f"{path}:{index + 1}: bad {key} {raw!r}") from None


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split())


def _gamma(text: str) -> float | None:
    return None if text == "none" else float(text)


def _check_version(lines: list[str], supported: int, path) -> None:
    version = _header_value(lines, 0, "format-version", path)
    if version > supported:
        raise FormatVersionError(
            f"{path}: format-version {version} is newer than supported ({supported})"
        )


def load_fold_plan(path) -> FoldPlan:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    _check_version(lines, FOLD_PLAN_FORMAT_VERSION, path)
    if _read_header_line(lines, 1, "artifact", path) != "fold-plan":
        raise DataFormatError(f"{path}:2: not a fold-plan file")
    num_folds = _header_value(lines, 2, "num-folds", path)
    assignment = _header_value(lines, 3, "assignment", path, _ints)
    return FoldPlan(num_folds, assignment)


# --- models --------------------------------------------------------------

def save_model(model, path) -> None:
    atomic_write_text(path, model_to_text(model))


def model_to_text(model) -> str:
    if isinstance(model, KnnModel):
        return _knn_to_text(model)
    if isinstance(model, SvmModel):
        return _svm_to_text(model)
    if isinstance(model, NnModel):
        return _nn_to_text(model)
    raise DataFormatError(f"cannot serialize model of type {type(model).__name__}")


def _knn_to_text(model: KnnModel) -> str:
    lines = [
        f"format-version: {MODEL_FORMAT_VERSION}",
        "model-kind: knn",
        f"k: {model.k}",
        f"weighting: {model.weighting}",
        f"n-samples: {len(model.train_y)}",
        f"n-features: {model.train_x.shape[1]}",
    ]
    for label, row in zip(model.train_y, model.train_x):
        lines.append(f"{int(label)} {_floats_line(row)}")
    return "\n".join(lines) + "\n"


def _svm_to_text(model: SvmModel) -> str:
    k = model.kernel
    lines = [
        f"format-version: {MODEL_FORMAT_VERSION}",
        "model-kind: svm",
        f"kernel: {k.kind}",
        f"degree: {k.degree}",
        f"gamma: {_fmt(k.gamma) if k.gamma is not None else 'none'}",
        f"coef0: {_fmt(k.coef0)}",
        f"c: {_fmt(model.c)}",
        f"bias: {_fmt(model.bias)}",
        f"n-support: {len(model.support_alpha)}",
        f"n-features: {model.support_x.shape[1]}",
        f"feature-mean: {_floats_line(model.feature_mean)}",
        f"feature-scale: {_floats_line(model.feature_scale)}",
    ]
    for alpha, y, row in zip(model.support_alpha, model.support_y, model.support_x):
        lines.append(f"{_fmt(alpha)} {_fmt(y)} {_floats_line(row)}")
    return "\n".join(lines) + "\n"


def _nn_to_text(model: NnModel) -> str:
    lines = [
        f"format-version: {MODEL_FORMAT_VERSION}",
        "model-kind: nn",
        f"hidden: {model.hidden}",
        f"learning-rate: {_fmt(model.params.learning_rate)}",
        f"batch-size: {model.params.batch_size}",
        f"epochs: {model.params.epochs}",
        f"seed: {model.seed}",
        f"n-features: {model.w1.shape[0]}",
        f"feature-mean: {_floats_line(model.feature_mean)}",
        f"feature-scale: {_floats_line(model.feature_scale)}",
        f"b1: {_floats_line(model.b1)}",
        f"b2: {_floats_line(model.b2)}",
    ]
    for row in model.w1:
        lines.append(f"w1: {_floats_line(row)}")
    for row in model.w2:
        lines.append(f"w2: {_floats_line(row)}")
    return "\n".join(lines) + "\n"


def load_model(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    _check_version(lines, MODEL_FORMAT_VERSION, path)
    kind = _read_header_line(lines, 1, "model-kind", path)
    if kind == "knn":
        return _knn_from_lines(lines, path)
    if kind == "svm":
        return _svm_from_lines(lines, path)
    if kind == "nn":
        return _nn_from_lines(lines, path)
    raise DataFormatError(f"{path}:2: unknown model kind {kind!r}")


def _check_width(n_features: int, path, lineno: int) -> None:
    if n_features != NUM_PIXELS:
        raise DataFormatError(
            f"{path}:{lineno}: n-features must be {NUM_PIXELS}, got {n_features}")


def _knn_from_lines(lines: list[str], path) -> KnnModel:
    k = _header_value(lines, 2, "k", path)
    weighting = _read_header_line(lines, 3, "weighting", path)
    n_samples = _header_value(lines, 4, "n-samples", path)
    n_features = _header_value(lines, 5, "n-features", path)
    _check_width(n_features, path, 6)
    payload = lines[6:]
    if len(payload) != n_samples:
        raise DataFormatError(f"{path}: expected {n_samples} sample lines, got {len(payload)}")
    labels = np.empty(n_samples, dtype=np.int64)
    x = np.empty((n_samples, n_features), dtype=np.float64)
    for row_index, line in enumerate(payload):
        lineno = 7 + row_index
        values = _parse_row(line, n_features + 1, path, lineno)
        label = line.split(None, 1)[0]
        if label not in ("0", "1"):
            raise DataFormatError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
        labels[row_index] = int(label)
        x[row_index] = values[1:]
    return KnnModel(x, labels, k, weighting)


def _svm_from_lines(lines: list[str], path) -> SvmModel:
    kind = _read_header_line(lines, 2, "kernel", path)
    degree = _header_value(lines, 3, "degree", path)
    gamma = _header_value(lines, 4, "gamma", path, _gamma)
    coef0 = _header_value(lines, 5, "coef0", path, float)
    c = _header_value(lines, 6, "c", path, float)
    bias = _header_value(lines, 7, "bias", path, float)
    n_support = _header_value(lines, 8, "n-support", path)
    n_features = _header_value(lines, 9, "n-features", path)
    _check_width(n_features, path, 10)
    mean = _parse_row(_read_header_line(lines, 10, "feature-mean", path), n_features, path, 11)
    scale = _parse_row(_read_header_line(lines, 11, "feature-scale", path), n_features, path, 12)
    payload = lines[12:]
    if len(payload) != n_support:
        raise DataFormatError(f"{path}: expected {n_support} support lines, got {len(payload)}")
    alpha = np.empty(n_support)
    y = np.empty(n_support)
    x = np.empty((n_support, n_features))
    for row_index, line in enumerate(payload):
        lineno = 13 + row_index
        values = _parse_row(line, n_features + 2, path, lineno)
        if values[1] not in (-1.0, 1.0):
            raise DataFormatError(
                f"{path}:{lineno}: support label must be -1 or +1, got {float(values[1])!r}")
        alpha[row_index], y[row_index] = values[0], values[1]
        x[row_index] = values[2:]
    return SvmModel(KernelSpec(kind, degree, gamma, coef0), c, mean, scale, x, alpha, y, bias)


def _nn_from_lines(lines: list[str], path) -> NnModel:
    hidden = _header_value(lines, 2, "hidden", path)
    lr = _header_value(lines, 3, "learning-rate", path, float)
    batch = _header_value(lines, 4, "batch-size", path)
    epochs = _header_value(lines, 5, "epochs", path)
    seed = _header_value(lines, 6, "seed", path)
    n_features = _header_value(lines, 7, "n-features", path)
    if not 1 <= hidden <= MAX_HIDDEN:
        raise DataFormatError(f"{path}:3: hidden width {hidden} outside [1, {MAX_HIDDEN}]")
    _check_width(n_features, path, 8)
    mean = _parse_row(_read_header_line(lines, 8, "feature-mean", path), n_features, path, 9)
    scale = _parse_row(_read_header_line(lines, 9, "feature-scale", path), n_features, path, 10)
    b1 = _parse_row(_read_header_line(lines, 10, "b1", path), hidden, path, 11)
    b2 = _parse_row(_read_header_line(lines, 11, "b2", path), 2, path, 12)
    expected = n_features + hidden
    if len(lines) - 12 != expected:
        raise DataFormatError(f"{path}: expected {expected} weight lines, got {len(lines) - 12}")
    w1 = np.array([_parse_row(_read_header_line(lines, i, "w1", path), hidden, path, i + 1)
                   for i in range(12, 12 + n_features)])
    w2 = np.array([_parse_row(_read_header_line(lines, i, "w2", path), 2, path, i + 1)
                   for i in range(12 + n_features, 12 + expected)])
    return NnModel(hidden, w1, b1, w2, b2, mean, scale,
                   TrainingParams(lr, batch, epochs), seed)


# --- reports ---------------------------------------------------------------

def report_to_text(report: dict) -> str:
    payload = dict(report)
    payload.setdefault("format-version", REPORT_FORMAT_VERSION)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_report(report: dict, path) -> None:
    atomic_write_text(path, report_to_text(report))


def load_report(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: report must be a JSON object")
    version = payload.get("format-version")
    if not isinstance(version, int):
        raise DataFormatError(f"{path}: missing integer format-version")
    if version > REPORT_FORMAT_VERSION:
        raise FormatVersionError(
            f"{path}: format-version {version} is newer than supported ({REPORT_FORMAT_VERSION})"
        )
    return payload
