"""Domain types and dataset plumbing: frames, datasets, splits, folds.

A frame is a read-only (8, 8) float64 array; a dataset holds n frames
flattened row-major into a read-only (n, 64) matrix, with one label and
one condition code per row. Temperatures follow the sensor contract:
every pixel the quantizer or the CSV reader yields lies in [20, 100]
degrees Celsius and is an exact multiple of 0.25, with midpoints
(x.125, x.375, ...) rounding up. The split/fold operations are pure
functions of (data, parameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, StratificationError

GRID_SIZE = 8
NUM_PIXELS = GRID_SIZE * GRID_SIZE
TEMP_MIN_C = 20.0
TEMP_MAX_C = 100.0


class Label(IntEnum):
    NO_PERSON = 0
    PERSON = 1

    def to_text(self) -> str:
        return "person" if self is Label.PERSON else "no_person"

    @classmethod
    def from_text(cls, text: str) -> "Label":
        if text == "person":
            return cls.PERSON
        if text == "no_person":
            return cls.NO_PERSON
        raise InvalidInputError(f"unknown label {text!r}")


class ConditionTag(str, Enum):
    BASELINE = "baseline"
    HOT_ROOM = "hot_room"
    WATER_BOTTLE = "water_bottle"
    DUVET_0 = "duvet_0"
    DUVET_5 = "duvet_5"
    DUVET_10 = "duvet_10"


# A dataset stores condition i as code i.
CONDITIONS = tuple(ConditionTag)


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def quantize(raw) -> np.ndarray:
    """Quantize an 8x8 array of Celsius floats to the sensor's output grid.

    Each pixel is rounded to the nearest quarter degree (midpoints round
    up) and clamped to [20, 100]. The frame returned is read-only.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.shape != (GRID_SIZE, GRID_SIZE):
        raise InvalidInputError(f"expected an 8x8 array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        r, c = np.argwhere(~np.isfinite(arr))[0]
        raise InvalidInputError(f"non-finite value at pixel ({r}, {c})")
    # np.clip's value on finite input, at less overhead
    frame = np.minimum(np.maximum(np.floor(arr * 4.0 + 0.5) / 4.0, TEMP_MIN_C), TEMP_MAX_C)
    frame.flags.writeable = False
    return frame


def flatten(frame: np.ndarray) -> np.ndarray:
    """Row-major flattening of a frame into the 64-value feature vector."""
    return frame.reshape(NUM_PIXELS)


def query_rows(xs, width: int) -> np.ndarray:
    """Classifier queries as a finite (n, width) float64 matrix, or InvalidInputError."""
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise InvalidInputError(f"expected query rows of {width} features, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("non-finite query value")
    return arr


class Sample(NamedTuple):
    """One dataset row, as `Dataset.samples` presents it."""

    features: np.ndarray
    label: Label
    condition: ConditionTag


@dataclass(frozen=True, eq=False)
class Dataset:
    """n feature vectors with their occupancy labels and condition codes.

    `x` is (n, 64) float64, `y` holds labels 0/1 and `conditions` indexes
    CONDITIONS (all BASELINE when omitted); all three are stored
    read-only. The constructor checks shape, finiteness, labels and codes
    only, so that synthetic feature vectors (toy problems, random test
    points) can flow through the classifiers. Range and quantization are
    enforced at the quantizer and the CSV boundary.
    """

    x: np.ndarray
    y: np.ndarray
    conditions: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self) -> None:
        x = _frozen(self.x, np.float64)
        if x.ndim != 2 or x.shape[1] != NUM_PIXELS:
            raise InvalidInputError(f"expected rows of {NUM_PIXELS} features, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise InvalidInputError("non-finite feature value")
        n = len(x)
        y = np.asarray(self.y)
        if y.shape != (n,) or not np.isin(y, (0, 1)).all():
            raise InvalidInputError(f"expected {n} labels, each 0 or 1")
        codes = np.zeros(n, np.int8) if self.conditions is None else np.asarray(self.conditions)
        if codes.shape != (n,) or not np.isin(codes, np.arange(len(CONDITIONS))).all():
            raise InvalidInputError(f"expected {n} condition codes below {len(CONDITIONS)}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", _frozen(y, np.int64))
        object.__setattr__(self, "conditions", _frozen(codes, np.int8))

    def __len__(self) -> int:
        return len(self.y)

    def feature_matrix(self) -> np.ndarray:
        """The same array as `x`."""
        return self.x

    @property
    def samples(self) -> tuple[Sample, ...]:
        """The rows as (features, label, condition) triples, built on each call."""
        return tuple(Sample(row, Label(label), CONDITIONS[code]) for row, label, code
                     in zip(self.x, self.y.tolist(), self.conditions.tolist()))

    def subset(self, indices, name: str | None = None) -> "Dataset":
        """The rows at `indices`, copied once and stored read-only.

        Rows of a checked dataset pass every row check, so only the index
        is checked: 1-d and of integers, not floats or booleans.
        """
        idx = np.asarray(indices)
        if idx.size == 0:
            idx = idx.astype(np.intp)  # np.asarray([]) is float64
        if idx.ndim != 1:
            raise InvalidInputError(f"expected a 1-d row index, got shape {idx.shape}")
        if idx.dtype.kind not in "iu":
            raise InvalidInputError(f"row indices must be integers, got dtype {idx.dtype}")
        out = object.__new__(Dataset)
        for field in ("x", "y", "conditions"):
            rows = getattr(self, field)[idx]
            rows.flags.writeable = False
            object.__setattr__(out, field, rows)
        object.__setattr__(out, "name", name if name is not None else self.name)
        return out


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic per-sample fold assignment for cross-validation."""

    num_folds: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_folds < 2:
            raise InvalidInputError("need at least 2 folds")
        for a in self.assignment:
            if not (0 <= a < self.num_folds):
                raise InvalidInputError(f"fold index {a} out of range")


def _round_half_up(x: Fraction) -> int:
    # floor(x + 1/2) in exact arithmetic
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def split_train_test(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/test split, deterministic in the seed.

    Per-class test counts are round(class_count * test_fraction) with
    half-up rounding done in exact arithmetic on the decimal value of
    the fraction. Sample order within each part follows the input order.
    """
    if not (0.0 < test_fraction < 1.0):
        raise InvalidInputError("test_fraction must be strictly between 0 and 1")
    frac = Fraction(str(test_fraction))
    rng = np.random.default_rng(seed)
    test = np.zeros(len(ds), dtype=bool)
    for label in Label:
        idx = np.flatnonzero(ds.y == label)
        if len(idx) == 0:
            raise StratificationError(f"class {label.to_text()} has no samples")
        n_test = _round_half_up(Fraction(len(idx)) * frac)
        test[idx[rng.permutation(len(idx))[:n_test]]] = True
    return (ds.subset(np.flatnonzero(~test), f"{ds.name}-train"),
            ds.subset(np.flatnonzero(test), f"{ds.name}-test"))


def make_folds(ds: Dataset, k: int, seed: int) -> FoldPlan:
    """Stratified k-fold assignment: per-class fold counts differ by at most 1."""
    if k < 2:
        raise InvalidInputError("k must be at least 2")
    rng = np.random.default_rng(seed)
    assignment = np.zeros(len(ds), dtype=np.int64)
    for label in Label:
        idx = np.flatnonzero(ds.y == label)
        if len(idx) < k:
            raise StratificationError(
                f"class {label.to_text()} has {len(idx)} samples, fewer than {k} folds"
            )
        assignment[idx[rng.permutation(len(idx))]] = np.arange(len(idx)) % k
    return FoldPlan(k, tuple(assignment.tolist()))
