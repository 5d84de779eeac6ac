"""Bit-exact readers and writers for datasets, fold plans, models, reports.

Datasets are UTF-8 CSV with header `p00,...,p77,label,condition`, LF line
endings, temperatures printed with exactly two decimals (quarter degrees
need no more). Models and fold plans are versioned line-oriented text;
numeric payloads use the shortest round-trip decimal representation, so
a reloaded model reproduces the original's predictions bit for bit. The
readers accept numbers only as the writers print them: ASCII `str(int)`
and `repr(float)`, separated by single spaces.
Reports are canonical JSON (sorted keys, two-space indent).

All writers go through an atomic temp-file + rename.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .classifiers.kernels import KernelSpec
from .classifiers.knn import WEIGHTINGS, KnnModel
from .classifiers.nn import MAX_HIDDEN, NnModel, TrainingParams
from .classifiers.svm import SvmModel, check_c, check_scale
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
from .errors import ConfigError, DataFormatError, FormatVersionError, InvalidInputError

DATASET_FORMAT_VERSION = 1
FOLD_PLAN_FORMAT_VERSION = 1
MODEL_FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 1

_PIXEL_FIELDS = tuple(f"p{r}{c}" for r in range(GRID_SIZE) for c in range(GRID_SIZE))
CSV_HEADER = ",".join(_PIXEL_FIELDS + ("label", "condition"))
_LABELS = tuple(label.to_text() for label in Label)  # label i is written as _LABELS[i]
_CONDITION_CODES = {tag.value: code for code, tag in enumerate(CONDITIONS)}
# The rows the format admits, up to the range and quarter-degree checks.
_CSV_ROW = re.compile(",".join(
    [r"[0-9]+\.[0-9]{2}"] * NUM_PIXELS
    + ["(?:" + "|".join(map(re.escape, texts)) + ")"
       for texts in (_LABELS, _CONDITION_CODES)]))
# The text of each quarter degree in [20, 100], indexed by 4 * (t - 20).
_QUARTER_TEXTS = tuple("%.2f" % (TEMP_MIN_C + q / 4) for q in range(
    int(4 * (TEMP_MAX_C - TEMP_MIN_C)) + 1))

# Model-file and fold-plan numbers: str(int) and repr(float) in ASCII (an
# exponent may have one digit). inf and nan are read, so that the
# invariant they break names its line.
_INT = r"-?(?:0|[1-9][0-9]*)"
_FINITE = r"-?(?:(?:0|[1-9][0-9]*)\.[0-9]+|[1-9](?:\.[0-9]+)?e[+-][0-9]+)"
_FLOAT = rf"(?:{_FINITE}|-?inf|-?nan)"
_INT_TEXT = re.compile(_INT)
_FLOAT_TEXT = re.compile(_FLOAT)
_INTS_LINE = re.compile(f"(?:{_INT}(?: {_INT})*)?")
_FLOATS_LINE = re.compile(f"(?:{_FLOAT}(?: {_FLOAT})*)?")
_KNN_ROW = re.compile(f"{_INT}(?: {_FLOAT})*")  # the label, then the features
# Model values per block of `_floats_lines`.
_LINES_BLOCK = 1 << 14


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


def read_text(path) -> str:
    """A file's text, or DataFormatError naming the line of its first byte that is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # exc.start: an offset into the whole file
        line = Path(path).read_bytes().count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}:{line}: not UTF-8 text") from None


def _fmt(value: float) -> str:
    return repr(float(value))


def _floats_line(values: np.ndarray) -> str:
    return " ".join(map(repr, values.tolist()))


def _floats_lines(values: np.ndarray) -> list[str]:
    """`_floats_line` of each row of a 2-d array, formatting each distinct value once.

    Values are told apart by their bits, so 0.0 and -0.0 keep their own
    text. Rows are taken in blocks of about `_LINES_BLOCK` values, which
    bounds the working set of a large model.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    step = max(1, _LINES_BLOCK // max(1, bits.shape[1]))
    lines = []
    for start in range(0, len(bits), step):
        block = bits[start:start + step]
        distinct, inverse = np.unique(block, return_inverse=True)
        texts = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
        lines += [" ".join(row) for row in texts[inverse.reshape(block.shape)].tolist()]
    return lines


def _int(text: str) -> int:
    if _INT_TEXT.fullmatch(text) is None:
        raise ValueError(text)
    return int(text)


def _float(text: str) -> float:
    if _FLOAT_TEXT.fullmatch(text) is None:
        raise ValueError(text)
    return float(text)


def _ints(text: str) -> tuple[int, ...]:
    if _INTS_LINE.fullmatch(text) is None:
        raise ValueError(text)
    return tuple(map(int, text.split()))


def _parse_row(text: str, n: int, path, lineno: int,
               pattern: re.Pattern = _FLOATS_LINE) -> np.ndarray:
    """The n finite numbers of a payload line that matches `pattern`, or DataFormatError."""
    if pattern.fullmatch(text) is None:
        raise DataFormatError(f"{path}:{lineno}: bad numeric payload")
    values = np.array(text.split(), dtype=np.float64)
    if not np.isfinite(values).all():
        raise DataFormatError(f"{path}:{lineno}: non-finite value in payload")
    if len(values) != n:
        raise DataFormatError(f"{path}:{lineno}: expected {n} values, got {len(values)}")
    return values


def _payload_rows(payload: list[str], row: re.Pattern, width: int) -> tuple[np.ndarray, int]:
    """The leading payload lines that fully match `row`, parsed in one call, and their count."""
    n = next((i for i, line in enumerate(payload) if row.fullmatch(line) is None), len(payload))
    if n == 0:
        return np.empty((0, width)), 0
    return np.loadtxt(payload[:n], delimiter=" ", ndmin=2), n


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
    texts = _QUARTER_TEXTS.__getitem__
    lines = [CSV_HEADER]
    for row, label, code in zip((quarters - 4 * TEMP_MIN_C).astype(np.intp).tolist(),
                                ds.y.tolist(), ds.conditions.tolist()):
        lines.append(f"{','.join(map(texts, row))},{_LABELS[label]},{CONDITIONS[code].value}")
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


def _raise_row_error(line: str, path, lineno: int) -> None:
    """Raise the first error of a data row that fails a check, walking its fields in order."""
    fields = line.split(",")
    n_fields = NUM_PIXELS + 2
    if len(fields) != n_fields:
        raise DataFormatError(f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}")
    for field, tok in zip(_PIXEL_FIELDS, fields):
        _parse_temperature(tok, path, lineno, field)
    if fields[-2] not in _LABELS:
        raise DataFormatError(f"{path}:{lineno}: field label: unknown label {fields[-2]!r}")
    if fields[-1] not in _CONDITION_CODES:
        raise DataFormatError(
            f"{path}:{lineno}: field condition: unknown condition {fields[-1]!r}")
    raise AssertionError(f"{path}:{lineno}: row passes every field check")


def dataset_from_csv(text: str, name: str, path="<memory>") -> Dataset:
    """Parse dataset CSV text; a bad row fails with the message of its first bad field.

    Each row is matched against `_CSV_ROW` and parsed straight into the
    matrix; range and quarter-degree checks then run on the whole matrix.
    The earliest row that fails either is walked field by field to name
    the error, so messages do not depend on the fast path.
    """
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
    bad_row = n
    for row, line in enumerate(lines[1:]):
        if _CSV_ROW.fullmatch(line) is None:
            bad_row = row
            break
        fields = line.split(",")
        x[row] = fields[:NUM_PIXELS]
        y[row] = _LABELS.index(fields[-2])
        codes[row] = _CONDITION_CODES[fields[-1]]
    parsed = x[:bad_row]
    quarters = parsed * 4.0
    off_grid = ((parsed < TEMP_MIN_C) | (parsed > TEMP_MAX_C)
                | (quarters != np.floor(quarters))).any(axis=1)
    if off_grid.any():
        bad_row = int(off_grid.argmax())
    if bad_row < n:
        _raise_row_error(lines[bad_row + 1], path, bad_row + 2)
    return Dataset(x, y, codes, name)


def load_dataset(path, name: str | None = None) -> Dataset:
    text = read_text(path)
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


@contextmanager
def _bad_value(lines: list[str], index: int, key: str, path):
    """Report a ValueError raised in the block as a bad value on header line `index`.

    An InvalidInputError or ConfigError is an invariant of the object being
    built, so its message is kept as the reason.
    """
    try:
        yield
    except ValueError as exc:
        raw = _read_header_line(lines, index, key, path)
        reason = f": {exc}" if isinstance(exc, (InvalidInputError, ConfigError)) else ""
        raise DataFormatError(f"{path}:{index + 1}: bad {key} {raw!r}{reason}") from None


def _header_value(lines: list[str], index: int, key: str, path, parse=_int):
    """The parsed value of header line `index` (`key: value`), or DataFormatError at that line.

    `parse` may also check the value: whatever ValueError it raises names the line.
    """
    raw = _read_header_line(lines, index, key, path)
    with _bad_value(lines, index, key, path):
        return parse(raw)


def _gamma(text: str, kind: str) -> float | None:
    # Only a linear kernel may leave gamma unresolved in a trained model.
    return None if text == "none" and kind == "linear" else _float(text)


def _finite(text: str) -> float:
    value = _float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _weighting(text: str) -> str:
    if text not in WEIGHTINGS:
        raise ValueError(text)
    return text


def _check_version(lines: list[str], supported: int, path) -> None:
    version = _header_value(lines, 0, "format-version", path)
    if version > supported:
        raise FormatVersionError(
            f"{path}:1: format-version {version} is newer than supported ({supported})"
        )


def load_fold_plan(path) -> FoldPlan:
    lines = read_text(path).splitlines()
    _check_version(lines, FOLD_PLAN_FORMAT_VERSION, path)
    if _read_header_line(lines, 1, "artifact", path) != "fold-plan":
        raise DataFormatError(f"{path}:2: not a fold-plan file")
    # The plan is built once per field, so a value that breaks one of its
    # invariants names its own line.
    plan = _header_value(lines, 2, "num-folds", path, lambda t: FoldPlan(_int(t), ()))
    return _header_value(lines, 3, "assignment", path,
                         lambda t: FoldPlan(plan.num_folds, _ints(t)))


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
    for label, row in zip(model.train_y, _floats_lines(model.train_x)):
        lines.append(f"{int(label)} {row}")
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
    lines += _floats_lines(np.column_stack(
        [model.support_alpha, model.support_y, model.support_x]))
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
    lines += [f"w1: {row}" for row in _floats_lines(model.w1)]
    lines += [f"w2: {row}" for row in _floats_lines(model.w2)]
    return "\n".join(lines) + "\n"


def load_model(path):
    lines = read_text(path).splitlines()
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
    weighting = _header_value(lines, 3, "weighting", path, _weighting)
    n_samples = _header_value(lines, 4, "n-samples", path)
    n_features = _header_value(lines, 5, "n-features", path)
    _check_width(n_features, path, 6)
    payload = lines[6:]
    if len(payload) != n_samples:
        raise DataFormatError(f"{path}:5: expected {n_samples} sample lines, got {len(payload)}")
    # Rows are matched by one pattern and parsed in one call; the earliest
    # that fails it, or parses to a non-finite value ("1e+999"), is walked
    # for its message.
    pattern = re.compile(f"[01](?: {_FINITE}){{{n_features}}}")
    values, n_ok = _payload_rows(payload, pattern, n_features + 1)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        n_ok = int(finite.argmin())
    if n_ok < n_samples:
        lineno = 7 + n_ok
        _parse_row(payload[n_ok], n_features + 1, path, lineno, _KNN_ROW)
        label = payload[n_ok].split(" ", 1)[0]
        if label not in ("0", "1"):
            raise DataFormatError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
        raise AssertionError(f"{path}:{lineno}: sample line passes every check")
    with _bad_value(lines, 2, "k", path):  # k is checked against the row count
        return KnnModel(values[:, 1:], values[:, 0].astype(np.int64), k, weighting)


def _feature_scale(lines: list[str], index: int, n_features: int, path) -> np.ndarray:
    scale = _parse_row(_read_header_line(lines, index, "feature-scale", path),
                       n_features, path, index + 1)
    with _bad_value(lines, index, "feature-scale", path):
        check_scale(scale)
    return scale


def _svm_from_lines(lines: list[str], path) -> SvmModel:
    # The kernel is rebuilt as each of its fields is read, so a value that
    # breaks a KernelSpec invariant names its own line.
    spec = _header_value(lines, 2, "kernel", path, KernelSpec)
    spec = _header_value(lines, 3, "degree", path, lambda t: replace(spec, degree=_int(t)))
    spec = _header_value(lines, 4, "gamma", path,
                         lambda t: replace(spec, gamma=_gamma(t, spec.kind)))
    spec = _header_value(lines, 5, "coef0", path, lambda t: replace(spec, coef0=_float(t)))
    c = _header_value(lines, 6, "c", path, lambda t: check_c(_float(t)))
    bias = _header_value(lines, 7, "bias", path, _finite)
    n_support = _header_value(lines, 8, "n-support", path)
    n_features = _header_value(lines, 9, "n-features", path)
    _check_width(n_features, path, 10)
    mean = _parse_row(_read_header_line(lines, 10, "feature-mean", path), n_features, path, 11)
    scale = _feature_scale(lines, 11, n_features, path)
    payload = lines[12:]
    if len(payload) != n_support:
        raise DataFormatError(f"{path}:9: expected {n_support} support lines, got {len(payload)}")
    # As for k-NN rows; the earliest row that fails the pattern or a value
    # check is walked for its message.
    pattern = re.compile(f"{_FINITE}(?: {_FINITE}){{{n_features + 1}}}")
    values, n_ok = _payload_rows(payload, pattern, n_features + 2)
    alpha, y, x = (np.ascontiguousarray(v) for v in (values[:, 0], values[:, 1], values[:, 2:]))
    ok = (np.isfinite(values).all(axis=1) & np.isin(y, (-1.0, 1.0))
          & (0.0 <= alpha) & (alpha <= c))
    if not ok.all():
        n_ok = int(ok.argmin())
    if n_ok < n_support:
        lineno = 13 + n_ok
        row = _parse_row(payload[n_ok], n_features + 2, path, lineno)
        if row[1] not in (-1.0, 1.0):
            raise DataFormatError(
                f"{path}:{lineno}: support label must be -1 or +1, got {float(row[1])!r}")
        if not 0.0 <= row[0] <= c:
            raise DataFormatError(
                f"{path}:{lineno}: dual coefficient {float(row[0])!r} outside [0, C]")
        raise AssertionError(f"{path}:{lineno}: support line passes every check")
    # What is left to check, sum(alpha * y) = 0, spans the whole support set.
    with _bad_value(lines, 8, "n-support", path):
        return SvmModel(spec, c, mean, scale, x, alpha, y, bias)


def _nn_from_lines(lines: list[str], path) -> NnModel:
    hidden = _header_value(lines, 2, "hidden", path)
    # The training parameters are rebuilt as each field is read, so a value
    # that breaks one of their invariants names its own line.
    params = _header_value(lines, 3, "learning-rate", path,
                           lambda t: TrainingParams(learning_rate=_float(t)))
    params = _header_value(lines, 4, "batch-size", path,
                           lambda t: replace(params, batch_size=_int(t)))
    params = _header_value(lines, 5, "epochs", path, lambda t: replace(params, epochs=_int(t)))
    seed = _header_value(lines, 6, "seed", path)
    n_features = _header_value(lines, 7, "n-features", path)
    if not 1 <= hidden <= MAX_HIDDEN:
        raise DataFormatError(f"{path}:3: hidden width {hidden} outside [1, {MAX_HIDDEN}]")
    _check_width(n_features, path, 8)
    mean = _parse_row(_read_header_line(lines, 8, "feature-mean", path), n_features, path, 9)
    scale = _feature_scale(lines, 9, n_features, path)
    b1 = _parse_row(_read_header_line(lines, 10, "b1", path), hidden, path, 11)
    b2 = _parse_row(_read_header_line(lines, 11, "b2", path), 2, path, 12)
    # A missing weight line fails at the index where it is expected.
    w1 = np.array([_parse_row(_read_header_line(lines, i, "w1", path), hidden, path, i + 1)
                   for i in range(12, 12 + n_features)])
    end = 12 + n_features + hidden
    w2 = np.array([_parse_row(_read_header_line(lines, i, "w2", path), 2, path, i + 1)
                   for i in range(12 + n_features, end)])
    if len(lines) > end:
        raise DataFormatError(f"{path}:{end + 1}: unexpected line after the weights")
    return NnModel(hidden, w1, b1, w2, b2, mean, scale, params, seed)


# --- reports ---------------------------------------------------------------

def report_to_text(report: dict) -> str:
    payload = dict(report)
    payload.setdefault("format-version", REPORT_FORMAT_VERSION)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_report(report: dict, path) -> None:
    atomic_write_text(path, report_to_text(report))


def load_report(path) -> dict:
    try:
        payload = json.loads(read_text(path))
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
