"""Confusion counting, metrics, cross-validation harness and sweeps.

PERSON is the positive class: sensitivity = TP/(TP+FN) measures how well
occupied beds are detected, specificity = TN/(TN+FP) how well empty beds
are. Metrics whose denominator is zero are reported as None rather than
0 (single-class subsets occur in per-condition evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .classifiers.kernels import KernelSpec
from .classifiers.knn import KnnModel, predict_knn_batch, predict_knn_grid, train_knn
from .classifiers.nn import NnModel, TrainingParams, predict_nn_batch, train_nn
from .classifiers.svm import (DEFAULT_C, DEFAULT_TOL, MAX_PAIR_UPDATES, SvmModel,
                              predict_svm_batch, train_svm)
from .core import CONDITIONS, ConditionTag, Dataset, FoldPlan, Label
from .errors import InvalidInputError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise InvalidInputError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(predicted, truth) -> ConfusionCounts:
    """Counts with PERSON as the positive class, from two label sequences."""
    p = np.asarray(predicted) == Label.PERSON
    t = np.asarray(truth)
    if p.shape != t.shape:
        raise InvalidInputError("predicted and truth lengths differ")
    if len(p) == 0:
        raise InvalidInputError("cannot build confusion counts from zero samples")
    tp = int(np.count_nonzero(p & (t == Label.PERSON)))
    tn = int(np.count_nonzero(~p & (t == Label.NO_PERSON)))
    positives = int(np.count_nonzero(p))
    return ConfusionCounts(tp, positives - tp, tn, len(p) - positives - tn)


def accuracy(c: ConfusionCounts) -> float:
    if c.total == 0:
        raise InvalidInputError("accuracy undefined for zero samples")
    return (c.tp + c.tn) / c.total


def sensitivity(c: ConfusionCounts) -> float | None:
    return c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None


def specificity(c: ConfusionCounts) -> float | None:
    return c.tn / (c.tn + c.fp) if (c.tn + c.fp) > 0 else None


@dataclass(frozen=True)
class MetricsReport:
    counts: ConfusionCounts
    accuracy: float
    sensitivity: float | None
    specificity: float | None

    @classmethod
    def from_counts(cls, c: ConfusionCounts) -> "MetricsReport":
        return cls(c, accuracy(c), sensitivity(c), specificity(c))


@dataclass(frozen=True)
class CvResult:
    fold_reports: tuple[MetricsReport, ...]
    accuracy_mean: float
    accuracy_std: float

    @classmethod
    def from_reports(cls, reports) -> "CvResult":
        accs = np.array([r.accuracy for r in reports])
        return cls(tuple(reports), float(accs.mean()), float(accs.std()))


# --- classifier specs -------------------------------------------------

@dataclass(frozen=True)
class KnnSpec:
    k: int = 1
    weighting: str = "uniform"

    def label(self) -> str:
        return f"knn k={self.k} {self.weighting}"

    def train_model(self, train: Dataset, seed: int) -> KnnModel:
        return train_knn(train, self.k, self.weighting)


@dataclass(frozen=True)
class SvmSpec:
    kernel: KernelSpec = KernelSpec()
    c: float = DEFAULT_C
    tol: float = DEFAULT_TOL
    max_iter: int = MAX_PAIR_UPDATES

    def label(self) -> str:
        return f"svm {self.kernel.kind}"

    def train_model(self, train: Dataset, seed: int) -> SvmModel:
        return train_svm(train, self.kernel, self.c, self.tol, self.max_iter)


@dataclass(frozen=True)
class NnSpec:
    hidden: int = 128
    params: TrainingParams = field(default_factory=TrainingParams)

    def label(self) -> str:
        return f"nn h={self.hidden}"

    def train_model(self, train: Dataset, seed: int) -> NnModel:
        return train_nn(train, self.hidden, self.params, seed)


ClassifierSpec = KnnSpec | SvmSpec | NnSpec


def predictor(model):
    """Batch prediction closure (n, 64) -> (n,) int labels for any model kind."""
    if isinstance(model, KnnModel):
        return lambda xs: predict_knn_batch(model, xs)
    if isinstance(model, SvmModel):
        return lambda xs: predict_svm_batch(model, xs)
    if isinstance(model, NnModel):
        return lambda xs: predict_nn_batch(model, xs)
    raise InvalidInputError(f"unknown model type {type(model).__name__}")


def derive_seed(seed: int, index: int) -> int:
    """Stable per-fold / per-cell seed derivation."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


@dataclass(frozen=True)
class Trainer:
    """Binds a classifier spec to a base seed for cross-validation."""

    spec: ClassifierSpec
    seed: int = 0

    def fit(self, train: Dataset, fold_index: int):
        model = self.spec.train_model(train, derive_seed(self.seed, fold_index))
        return predictor(model)


def cross_validate(ds: Dataset, plan: FoldPlan, trainer) -> CvResult:
    """Train/evaluate once per fold; deterministic given plan and trainer seed."""
    if len(plan.assignment) != len(ds):
        raise InvalidInputError("fold plan does not match dataset size")
    assignment = np.array(plan.assignment)
    reports = []
    for f in range(plan.num_folds):
        test_mask = assignment == f
        train_idx = np.flatnonzero(~test_mask)
        test_idx = np.flatnonzero(test_mask)
        if len(test_idx) == 0:
            raise InvalidInputError(f"fold {f} is empty")
        if len(np.unique(ds.y[train_idx])) < 2:
            raise InvalidInputError(f"training portion for fold {f} is missing a class")
        predict = trainer.fit(ds.subset(train_idx), f)
        counts = confusion(predict(ds.x[test_idx]), ds.y[test_idx])
        reports.append(MetricsReport.from_counts(counts))
    return CvResult.from_reports(reports)


# --- parameter sweeps -------------------------------------------------

SWEEP_FAMILIES = ("svm-kernels", "knn-grid", "nn-widths")


@dataclass(frozen=True)
class SweepRow:
    label: str
    spec: ClassifierSpec
    result: CvResult


def sweep_specs(family: str) -> tuple[ClassifierSpec, ...]:
    if family == "svm-kernels":
        return tuple(SvmSpec(KernelSpec(kind)) for kind in ("linear", "poly", "rbf", "sigmoid"))
    if family == "knn-grid":
        return tuple(KnnSpec(k, w) for k in (1, 3, 5, 7) for w in ("uniform", "distance"))
    if family == "nn-widths":
        return tuple(NnSpec(2 ** i) for i in range(11))
    raise InvalidInputError(f"unknown sweep family {family!r}")


def sweep(ds: Dataset, plan: FoldPlan, family: str, seed: int = 0,
          specs: tuple[ClassifierSpec, ...] | None = None) -> tuple[SweepRow, ...]:
    """One CvResult per configuration, all sharing the same fold plan.

    Fold-major: one `cross_validate` drives the folds for the whole grid.
    Its trainer's predictor does a fold's grid work (see _fold_labels),
    records one report per spec and returns the first spec's labels, so
    each fold's training subset is built once and its k-NN models share
    one neighbour search. Each row equals
    cross_validate(ds, plan, Trainer(spec, derive_seed(seed, index))).

    Failures surface in fold order: of two specs failing in different
    folds, the one failing in the earlier fold raises; within a fold,
    the earlier spec's failure raises.
    """
    grid = specs if specs is not None else sweep_specs(family)
    if not grid:
        return ()
    seeds = [derive_seed(seed, index) for index in range(len(grid))]
    assignment = np.array(plan.assignment)
    reports: list[list[MetricsReport]] = [[] for _ in grid]

    def fit(train: Dataset, fold: int):
        def predict(xs) -> np.ndarray:
            labels = _fold_labels(grid, [derive_seed(s, fold) for s in seeds], train, xs)
            truth = ds.y[assignment == fold]
            for spec_reports, spec_labels in zip(reports, labels):
                spec_reports.append(MetricsReport.from_counts(confusion(spec_labels, truth)))
            return labels[0]
        return predict

    cross_validate(ds, plan, SimpleNamespace(fit=fit))
    return tuple(SweepRow(spec.label(), spec, CvResult.from_reports(spec_reports))
                 for spec, spec_reports in zip(grid, reports))


def _fold_labels(grid, seeds, train: Dataset, xs) -> list[np.ndarray]:
    """Train each spec of grid on train with its seed; return each one's labels for xs.

    The k-NN models on the first one's store (the same object: train_knn
    builds one per training set) are dropped once their (k, weighting)
    is noted, and vote on its one neighbour search. Any other model
    predicts as soon as it is trained.
    """
    labels: list = [None] * len(grid)
    shared, settings = None, {}  # the first k-NN model; index -> (k, weighting)
    for index, (spec, spec_seed) in enumerate(zip(grid, seeds)):
        model = spec.train_model(train, spec_seed)
        if isinstance(model, KnnModel) and (shared is None or model.rows is shared.rows):
            if shared is None:
                shared = model
            settings[index] = (model.k, model.weighting)
        else:
            labels[index] = predictor(model)(xs)
        del model  # before the next spec trains
    if shared is not None:
        grid_labels = predict_knn_grid(shared, xs, list(settings.values()))
        for index, knn_labels in zip(settings, grid_labels):
            labels[index] = knn_labels
    return labels


def evaluate_by_condition(model, ds: Dataset) -> tuple[MetricsReport, dict[ConditionTag, MetricsReport]]:
    """Metrics on the full set plus one report per condition present."""
    if len(ds) == 0:
        raise InvalidInputError("dataset is empty")
    preds = predictor(model)(ds.x)
    overall = MetricsReport.from_counts(confusion(preds, ds.y))
    by_condition: dict[ConditionTag, MetricsReport] = {}
    for code, tag in enumerate(CONDITIONS):
        rows = ds.conditions == code
        if rows.any():
            by_condition[tag] = MetricsReport.from_counts(confusion(preds[rows], ds.y[rows]))
    return overall, by_condition
