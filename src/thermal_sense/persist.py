"""Bit-exact readers and writers for datasets and models; the report and plot-CSV formats.

Datasets are UTF-8 CSV with header `p00,...,p77,label,condition`, LF line
endings, temperatures printed with exactly two decimals (quarter degrees
need no more). Models are versioned line-oriented text; numeric payloads
use the shortest round-trip decimal representation, so a reloaded model
reproduces the original's predictions bit for bit. The readers accept
numbers only as the writers print them: ASCII `str(int)` and
`repr(float)`, separated by single spaces.
Reports are canonical JSON (sorted keys, two-space indent); their builders
and the plot-CSV builders read result attributes only.

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
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import __version__
from .classifiers.kernels import KernelSpec
from .classifiers.knn import WEIGHTINGS, KnnModel
from .classifiers.nn import MAX_HIDDEN, NnModel, TrainingParams
from .classifiers.svm import SvmModel, check_scale
from .core import (
    CONDITIONS,
    GRID_SIZE,
    NUM_PIXELS,
    TEMP_MAX_C,
    TEMP_MIN_C,
    Dataset,
    Label,
)
from .errors import DataFormatError, InvalidInputError, check_int, check_real

if TYPE_CHECKING:
    from .evaluate import CvResult, MetricsReport

TOOL_NAME = "thermal-sense"
MODEL_FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 1

_PIXEL_FIELDS = tuple(f"p{r}{c}" for r in range(GRID_SIZE) for c in range(GRID_SIZE))
CSV_HEADER = ",".join(_PIXEL_FIELDS + ("label", "condition"))
_LABELS = tuple(label.to_text() for label in Label)  # label i is written as _LABELS[i]
_CONDITION_CODES = {tag.value: code for code, tag in enumerate(CONDITIONS)}
# A temperature as the writer prints it: ASCII digits and exactly two decimals.
_TEMPERATURE = re.compile(r"[0-9]+\.[0-9]{2}")
# The rows the format admits, up to the `_off_grid` check.
_CSV_ROW = re.compile(",".join(
    [_TEMPERATURE.pattern] * NUM_PIXELS
    + ["(?:" + "|".join(map(re.escape, texts)) + ")"
       for texts in (_LABELS, _CONDITION_CODES)]))
# The text of each quarter degree in [20, 100], indexed by 4 * (t - 20).
_QUARTER_TEXTS = tuple("%.2f" % (TEMP_MIN_C + q / 4) for q in range(
    int(4 * (TEMP_MAX_C - TEMP_MIN_C)) + 1))

# Model-file numbers: str(int) and repr(float) in ASCII (an exponent may
# have one digit). inf and nan are read, so that the invariant they break
# names its line.
_INT = r"-?(?:0|[1-9][0-9]*)"
_FLOAT = r"-?(?:(?:0|[1-9][0-9]*)\.[0-9]+|[1-9](?:\.[0-9]+)?e[+-][0-9]+|inf|nan)"
_INT_TEXT = re.compile(_INT)
_FLOAT_TEXT = re.compile(_FLOAT)
_FLOATS_LINE = re.compile(f"{_FLOAT}(?: {_FLOAT})*")  # no float line of the formats is empty
_KNN_ROW = re.compile(f"{_INT}(?: {_FLOAT})*")  # the label, then the features
# Model values per block of `_floats_lines`.
_LINES_BLOCK = 1 << 14


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_text(path) -> str:
    r"""A file's text as written (no newline translation), or DataFormatError naming the
    line of its first byte that is not UTF-8, where `\r\n`, `\r` and `\n` each end a line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # exc.start: an offset into the whole file
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataFormatError(f"{path}:{line}: not UTF-8 text") from None


def read_lines(path) -> list[str]:
    r"""`read_text` with `\r\n` and `\r` taken as `\n`, split at `\n` only, not at `\x1c`
    or `\u2028` as `str.splitlines` would; a final newline ends the last line."""
    lines = read_text(path).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _fmt(value: float) -> str:
    return repr(float(value))


def _floats_lines(values: np.ndarray) -> list[str]:
    """Each row of a 2-d array as the `repr`s of its values joined by spaces.

    Each distinct value is formatted once. Values are told apart by their
    bits, so 0.0 and -0.0 keep their own text. Rows are taken in blocks of
    about `_LINES_BLOCK` values, which bounds the working set of a large model.
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


def _float(text: str, finite: bool = False) -> float:
    if _FLOAT_TEXT.fullmatch(text) is None or finite and not np.isfinite(float(text)):
        raise ValueError(text)
    return float(text)


def _text(lines: list[str], index: int, key: str) -> str:
    """The text after `key:` and its spaces on line `index` (from 0), or DataFormatError."""
    if index >= len(lines) or not lines[index].startswith(key + ":"):
        raise DataFormatError(f"expected '{key}: ...'")
    return lines[index][len(key) + 1:].strip(" ")


@contextmanager
def _at(path, lineno: int, key: str = "", lines: list[str] = ()):
    """Name a failure in the block at `path:lineno`, the line of header field `key` if any.

    A DataFormatError carries its whole reason. An InvalidInputError
    breaks an invariant of the object being built from the field, so it
    is the reason the field's text is bad; any other ValueError just marks
    the text bad.
    """
    try:
        yield
    except DataFormatError as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    except ValueError as exc:
        reason = f": {exc}" if isinstance(exc, InvalidInputError) else ""
        raise DataFormatError(
            f"{path}:{lineno}: bad {key} {_text(lines, lineno - 1, key)!r}{reason}") from None


# --- datasets ----------------------------------------------------------

def _off_grid(x):
    """Whether `x` (a number, or each entry of an array) is not a quarter degree in [20, 100]."""
    quarters = x * 4.0
    return (x < TEMP_MIN_C) | (x > TEMP_MAX_C) | (quarters != np.floor(quarters))


def dataset_to_csv(ds: Dataset) -> str:
    x = ds.x
    bad = _off_grid(x)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DataFormatError(
            f"sample {i} field {_PIXEL_FIELDS[j]}: "
            f"{float(x[i, j])!r} is not a quarter degree in [20, 100]"
        )
    texts = _QUARTER_TEXTS.__getitem__
    lines = [CSV_HEADER]
    for row, label, code in zip((x * 4.0 - 4 * TEMP_MIN_C).astype(np.intp).tolist(),
                                ds.y.tolist(), ds.conditions.tolist()):
        lines.append(f"{','.join(map(texts, row))},{_LABELS[label]},{CONDITIONS[code].value}")
    return "\n".join(lines) + "\n"


def save_dataset(ds: Dataset, path) -> None:
    atomic_write_text(path, dataset_to_csv(ds))


def _raise_row_error(line: str) -> None:
    """Raise the first error of a data row that fails a check, walking its fields in order."""
    fields = line.split(",")
    n_fields = NUM_PIXELS + 2
    if len(fields) != n_fields:
        raise DataFormatError(f"expected {n_fields} fields, got {len(fields)}")
    for field, tok in zip(_PIXEL_FIELDS, fields):
        if _TEMPERATURE.fullmatch(tok) is None:
            raise DataFormatError(f"field {field}: malformed temperature {tok!r}")
        if _off_grid(float(tok)):
            raise DataFormatError(f"field {field}: {tok} is not a quarter degree in [20, 100]")
    if fields[-2] not in _LABELS:
        raise DataFormatError(f"field label: unknown label {fields[-2]!r}")
    if fields[-1] not in _CONDITION_CODES:
        raise DataFormatError(f"field condition: unknown condition {fields[-1]!r}")
    raise AssertionError("row passes every field check")


def dataset_from_csv(text: str, path="<memory>") -> Dataset:
    """Parse dataset CSV text; a bad row fails with the message of its first bad field.

    The rows before the first that `_CSV_ROW` rejects are parsed into the
    matrix in one call; `_off_grid` then runs on the whole matrix.
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
    rows = lines[1:]
    bad_row = next((i for i, line in enumerate(rows) if _CSV_ROW.fullmatch(line) is None),
                   len(rows))
    x = (np.loadtxt(rows[:bad_row], delimiter=",", usecols=range(NUM_PIXELS), ndmin=2)
         if bad_row else np.empty((0, NUM_PIXELS)))
    off_grid = _off_grid(x).any(axis=1)
    if off_grid.any():
        bad_row = int(off_grid.argmax())
    if bad_row < len(rows):
        with _at(path, bad_row + 2):
            _raise_row_error(rows[bad_row])
    tails = [line.rsplit(",", 2) for line in rows]
    return Dataset(x, np.array([_LABELS.index(label) for _, label, _ in tails], dtype=np.int64),
                   np.array([_CONDITION_CODES[code] for _, _, code in tails], dtype=np.int8))


def load_dataset(path) -> Dataset:
    return dataset_from_csv(read_text(path), path)


# --- models ----------------------------------------------------------------
#
# A file is `format-version: N`, `model-kind: <kind>`, one `key: text` line per field of its
# format's table, then a payload. A field is (key, text of the model's value, parse(text,
# values read so far)); writer and reader walk the same table. A KernelSpec or TrainingParams
# is rebuilt field by field, so a value that breaks one of its invariants names its own line.

class _Format(NamedTuple):
    kind: str
    fields: tuple
    payload: Callable  # the model's payload lines
    # (payload lines, values by key, at) -> the model; `at(key)` names a failure at a field's
    # line, `at(i)` at payload line i.
    load: Callable


def _parse_row(text: str, n: int, pattern: re.Pattern = _FLOATS_LINE) -> np.ndarray:
    """The n finite numbers of a line that matches `pattern`, or DataFormatError."""
    if pattern.fullmatch(text) is None:
        raise DataFormatError("bad numeric payload")
    values = np.array(text.split(), dtype=np.float64)
    if not np.isfinite(values).all():
        raise DataFormatError("non-finite value in payload")
    if len(values) != n:
        raise DataFormatError(f"expected {n} values, got {len(values)}")
    return values


def _payload_rows(payload: list[str], count: str, noun: str, values: dict, at,
                  grammar: re.Pattern, width: int, checks: tuple) -> np.ndarray:
    """The `values[count]` payload rows, each `width` numbers, parsed in one call.

    `checks` holds (test, message) pairs: `test(rows)` tells which rows of
    a parsed matrix pass, and `message` is formatted with the failing
    row's values as `row` and its text's tokens as `tokens`. The rows
    that match `grammar` with `width` tokens are parsed together and every
    test runs on the matrix; the earliest failing line then fails with the
    message of `_parse_row` or else of its first failing check.
    """
    with at(count):
        if len(payload) != values[count]:
            raise DataFormatError(f"expected {values[count]} {noun} lines, got {len(payload)}")
    n = next((i for i, line in enumerate(payload)
              if grammar.fullmatch(line) is None or line.count(" ") != width - 1), len(payload))
    rows = np.loadtxt(payload[:n], delimiter=" ", ndmin=2) if n else np.empty((0, width))
    good = np.isfinite(rows).all(axis=1)  # the grammar admits "nan", and "1e+999" overflows
    for test, _ in checks:
        good &= test(rows)
    if not good.all():
        n = int(good.argmin())
    if n < len(payload):
        with at(n):
            row = _parse_row(payload[n], width, grammar)
            message = next(text for test, text in checks if not test(row[None])[0])
            raise DataFormatError(message.format(row=row.tolist(), tokens=payload[n].split(" ")))
    return rows


def _weighting(text: str) -> str:
    if text not in WEIGHTINGS:
        raise ValueError(text)
    return text


def _width(text: str) -> int:
    n_features = _int(text)
    if n_features != NUM_PIXELS:
        raise DataFormatError(f"n-features must be {NUM_PIXELS}, got {n_features}")
    return n_features


def _knn_load(payload: list[str], v: dict, at) -> KnnModel:
    # Of the texts `_INT` admits, only "0" and "1" parse to 0 or 1 with the sign bit clear.
    checks = ((lambda r: np.isin(r[:, 0], (0.0, 1.0)) & ~np.signbit(r[:, 0]),
               "label must be 0 or 1, got {tokens[0]!r}"),)
    rows = _payload_rows(payload, "n-samples", "sample", v, at, _KNN_ROW, v["n-features"] + 1,
                         checks)
    with at("k"):  # k is checked against the row count
        return KnnModel(rows[:, 1:], rows[:, 0].astype(np.int64), v["k"], v["weighting"])


def _svm_load(payload: list[str], v: dict, at) -> SvmModel:
    checks = ((lambda r: np.isin(r[:, 1], (-1.0, 1.0)),
               "support label must be -1 or +1, got {row[1]!r}"),
              (lambda r: (0.0 <= r[:, 0]) & (r[:, 0] <= v["c"]),
               "dual coefficient {row[0]!r} outside [0, C]"))
    rows = _payload_rows(payload, "n-support", "support", v, at, _FLOATS_LINE,
                         v["n-features"] + 2, checks)
    alpha, y, x = (np.ascontiguousarray(a) for a in (rows[:, 0], rows[:, 1], rows[:, 2:]))
    # What is left to check, sum(alpha * y) = 0, spans the whole support set.
    with at("n-support"):
        return SvmModel(v["coef0"], v["c"], v["feature-mean"], v["feature-scale"], x, alpha, y,
                        v["bias"])


def _nn_load(payload: list[str], v: dict, at) -> NnModel:
    n, hidden = v["n-features"], v["hidden"]

    def weights(i: int, key: str, width: int) -> np.ndarray:
        try:  # `at` is entered only on failure, so a good line pays for no context
            return _parse_row(_text(payload, i, key), width)
        except DataFormatError as exc:
            with at(i):  # a missing weight line fails at the index where it is expected
                raise exc

    w1 = np.array([weights(i, "w1", hidden) for i in range(n)])
    w2 = np.array([weights(i, "w2", 2) for i in range(n, n + hidden)])
    if len(payload) > n + hidden:
        with at(n + hidden):
            raise DataFormatError("unexpected line after the weights")
    return NnModel(hidden, w1, v["b1"], w2, v["b2"], v["feature-mean"], v["feature-scale"],
                   v["epochs"], v["seed"])


_STANDARDIZER = (
    ("n-features", lambda m: str(len(m.feature_mean)), lambda t, _: _width(t)),
    ("feature-mean", lambda m: _floats_lines(m.feature_mean[None])[0],
     lambda t, v: _parse_row(t, v["n-features"])),
    ("feature-scale", lambda m: _floats_lines(m.feature_scale[None])[0],
     lambda t, v: check_scale(_parse_row(t, v["n-features"]))),
)

_KNN = _Format("knn", (
    ("k", lambda m: str(m.k), lambda t, _: _int(t)),
    ("weighting", lambda m: m.weighting, lambda t, _: _weighting(t)),
    ("n-samples", lambda m: str(len(m.train_y)), lambda t, _: _int(t)),
    ("n-features", lambda m: str(m.train_x.shape[1]), lambda t, _: _width(t)),
), lambda m: [f"{int(label)} {row}" for label, row in zip(m.train_y, _floats_lines(m.train_x))],
    _knn_load)

_SVM = _Format("svm", (
    ("kernel", lambda m: m.kernel.kind, lambda t, _: KernelSpec(t)),
    ("degree", lambda m: str(m.kernel.degree),
     lambda t, v: replace(v["kernel"], degree=_int(t))),
    # Only a linear kernel may leave gamma unresolved in a trained model.
    ("gamma", lambda m: "none" if m.kernel.gamma is None else _fmt(m.kernel.gamma),
     lambda t, v: replace(v["degree"], gamma=None if (t, v["kernel"].kind) == ("none", "linear")
                          else _float(t))),
    ("coef0", lambda m: _fmt(m.kernel.coef0), lambda t, v: replace(v["gamma"], coef0=_float(t))),
    ("c", lambda m: _fmt(m.c), lambda t, _: check_real("C", _float(t))),
    ("bias", lambda m: _fmt(m.bias), lambda t, _: _float(t, finite=True)),
    ("n-support", lambda m: str(len(m.support_alpha)), lambda t, _: _int(t)),
) + _STANDARDIZER, lambda m: _floats_lines(np.column_stack(
    [m.support_alpha, m.support_y, m.support_x])), _svm_load)

_NN = _Format("nn", (
    ("hidden", lambda m: str(m.hidden), lambda t, _: check_int("hidden", _int(t), 1, MAX_HIDDEN)),
    ("learning-rate", lambda m: _fmt(m.params.learning_rate),
     lambda t, _: TrainingParams(learning_rate=_float(t))),
    ("batch-size", lambda m: str(m.params.batch_size),
     lambda t, v: replace(v["learning-rate"], batch_size=_int(t))),
    ("epochs", lambda m: str(m.params.epochs),
     lambda t, v: replace(v["batch-size"], epochs=_int(t))),
    ("seed", lambda m: str(m.seed), lambda t, _: _int(t)),
) + _STANDARDIZER + (
    ("b1", lambda m: _floats_lines(m.b1[None])[0], lambda t, v: _parse_row(t, v["hidden"])),
    ("b2", lambda m: _floats_lines(m.b2[None])[0], lambda t, _: _parse_row(t, 2)),
), lambda m: ([f"w1: {row}" for row in _floats_lines(m.w1)]
              + [f"w2: {row}" for row in _floats_lines(m.w2)]), _nn_load)

_MODELS = {KnnModel: _KNN, SvmModel: _SVM, NnModel: _NN}


def save_model(model, path) -> None:
    atomic_write_text(path, model_to_text(model))


def model_to_text(model) -> str:
    for kind, fmt in _MODELS.items():
        if isinstance(model, kind):
            lines = [f"format-version: {MODEL_FORMAT_VERSION}", f"model-kind: {fmt.kind}"]
            lines += [f"{key}: {text(model)}" for key, text, _ in fmt.fields]
            return "\n".join(lines + fmt.payload(model)) + "\n"
    raise DataFormatError(f"cannot serialize model of type {type(model).__name__}")


def load_model(path):
    """The model in a file of any of the `_MODELS` formats."""
    lines = read_lines(path)
    with _at(path, 1, "format-version", lines):
        version = _int(_text(lines, 0, "format-version"))
    if version > MODEL_FORMAT_VERSION:
        raise DataFormatError(f"{path}:1: format-version {version} is newer than supported "
                              f"({MODEL_FORMAT_VERSION})")
    with _at(path, 2):
        kind = _text(lines, 1, "model-kind")
        fmt = next((f for f in _MODELS.values() if f.kind == kind), None)
        if fmt is None:
            raise DataFormatError(f"unknown model kind {kind!r}")
    values = {}
    for lineno, (key, _, parse) in enumerate(fmt.fields, start=3):
        with _at(path, lineno, key, lines):
            values[key] = parse(_text(lines, lineno - 1, key), values)
    start = 3 + len(fmt.fields)  # the payload's first line number

    def at(where):
        if isinstance(where, str):  # `values` holds the fields in table order
            return _at(path, 3 + list(values).index(where), where, lines)
        return _at(path, start + where)

    return fmt.load(lines[start - 1:], values, at)


# --- reports ---------------------------------------------------------------

def build_report(command: str, config: dict, results: dict) -> dict:
    """A report: the tool and version, the command, its full configuration, its results."""
    return {"tool": TOOL_NAME, "version": __version__, "command": command, "config": config,
            "results": results}


def _metrics_dict(report: MetricsReport) -> dict:
    c = report.counts
    return {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn, "accuracy": report.accuracy,
            "sensitivity": report.sensitivity, "specificity": report.specificity}


def cv_results(result: CvResult) -> dict:
    return {
        "accuracy_mean": result.accuracy_mean,
        "accuracy_std": result.accuracy_std,
        "folds": [_metrics_dict(r) for r in result.fold_reports],
    }


def sweep_results(rows) -> dict:
    return {"rows": [{"label": row.label, "cv": cv_results(row.result)} for row in rows]}


def sweep_plot_csv(rows) -> str:
    lines = ["config,accuracy_mean,accuracy_std"]
    lines += [f"{row.label},{row.result.accuracy_mean!r},{row.result.accuracy_std!r}"
              for row in rows]
    return "\n".join(lines) + "\n"


def eval_results(overall: MetricsReport, by_condition: dict | None = None) -> dict:
    results: dict = {"overall": _metrics_dict(overall)}
    if by_condition is not None:
        results["by_condition"] = {tag.value: _metrics_dict(rep)
                                   for tag, rep in by_condition.items()}
    return results


def eval_plot_csv(overall: MetricsReport, by_condition: dict) -> str:
    def cell(value: float | None) -> str:
        return "" if value is None else repr(value)

    lines = ["condition,n,accuracy,sensitivity,specificity"]
    rows = [("overall", overall)] + [(tag.value, rep) for tag, rep in by_condition.items()]
    lines += [f"{name},{rep.counts.total},{rep.accuracy!r},{cell(rep.sensitivity)},"
              f"{cell(rep.specificity)}" for name, rep in rows]
    return "\n".join(lines) + "\n"


def report_to_text(report: dict) -> str:
    payload = dict(report)
    payload.setdefault("format-version", REPORT_FORMAT_VERSION)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_report(report: dict, path) -> None:
    atomic_write_text(path, report_to_text(report))
