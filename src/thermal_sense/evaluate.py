"""Confusion counting, metrics, cross-validation harness and sweeps.

PERSON is the positive class: sensitivity = TP/(TP+FN) measures how well
occupied beds are detected, specificity = TN/(TN+FP) how well empty beds
are. Metrics whose denominator is zero are reported as None rather than
0 (single-class subsets occur in per-condition evaluation).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .classifiers.kernels import KernelSpec
from .classifiers.knn import KnnModel, predict_knn_batch, predict_knn_grid, train_knn
from .classifiers.nn import NnModel, TrainingParams, predict_nn_batch, train_nn
from .classifiers.svm import MAX_PAIR_UPDATES, SvmModel, check_c, predict_svm_batch, train_svm
from .core import CONDITIONS, ConditionTag, Dataset, FoldPlan, Label
from .errors import InvalidInputError, StratificationError


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
    kernel: KernelSpec = KernelSpec("linear")
    c: float = 1.0
    tol: float = 1e-3
    max_iter: int = MAX_PAIR_UPDATES

    def __post_init__(self) -> None:
        check_c(self.c)

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
            raise StratificationError(f"fold {f} is empty")
        if len(np.unique(ds.y[train_idx])) < 2:
            raise StratificationError(f"training portion for fold {f} is missing a class")
        predict = trainer.fit(ds.subset(train_idx, f"{ds.name}-fold{f}-train"), f)
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
          specs: tuple[ClassifierSpec, ...] | None = None,
          max_workers: int = 1) -> tuple[SweepRow, ...]:
    """One CvResult per configuration, all sharing the same fold plan.

    Fold-major: one `cross_validate` drives the folds for the whole grid
    (see _GridTrainer), so each fold's training subset is built once and
    its k-NN models share one neighbour search. Each row equals
    cross_validate(ds, plan, Trainer(spec, derive_seed(seed, index))),
    for any max_workers (the specs of a fold train on that many threads).

    Failures surface in fold order: of two specs failing in different
    folds, the one failing in the earlier fold raises; within a fold,
    the earlier spec's failure raises.
    """
    grid = specs if specs is not None else sweep_specs(family)
    if not grid:
        return ()
    with ThreadPoolExecutor(max_workers) if max_workers > 1 else nullcontext() as pool:
        trainer = _GridTrainer(grid, seed, ds.y, np.array(plan.assignment),
                               map if pool is None else pool.map)
        cross_validate(ds, plan, trainer)
    return tuple(SweepRow(spec.label(), spec, CvResult.from_reports(reports))
                 for spec, reports in zip(grid, trainer.reports))


class _GridTrainer:
    """A whole sweep grid as one trainer, so the grid's folds are cross_validate's.

    The predictor `fit` returns does the fold's work once it has the
    fold's test rows, so that each model predicts as soon as it is
    trained (see _predict_fold); it records one report per spec and
    returns the first spec's labels, so the cross-validation's own
    result is the first row's.
    """

    def __init__(self, grid, seed: int, y: np.ndarray, assignment: np.ndarray, map_fn):
        self.grid = grid
        self.seeds = [derive_seed(seed, index) for index in range(len(grid))]
        self.y = y
        self.assignment = assignment
        self.map = map_fn
        self.reports: list[list[MetricsReport]] = [[] for _ in grid]

    def fit(self, train: Dataset, fold: int):
        return lambda xs: self._predict_fold(train, fold, xs)

    def _predict_fold(self, train: Dataset, fold: int, xs) -> np.ndarray:
        """Train every spec on the fold and record its report on the test rows xs.

        A model other than k-NN predicts as soon as it is trained. The
        k-NN models on the first k-NN model's rows and labels vote on
        its one neighbour search with their own (k, weighting), noted as
        each is dropped, so only the first is held (with threads, also
        the models trained ahead of their turn); a k-NN model on other
        rows searches on its own.
        """
        def fit_one(index):
            model = self.grid[index].train_model(train, derive_seed(self.seeds[index], fold))
            return index, model if isinstance(model, KnnModel) else predictor(model)(xs)

        labels: list = [None] * len(self.grid)
        shared, settings = None, {}  # the first k-NN model; index -> (k, weighting)
        # (enumerate or zip would hold the last model in their reused result tuple)
        for index, out in self.map(fit_one, range(len(self.grid))):
            if not isinstance(out, KnnModel):
                labels[index] = out
            elif shared is None or (np.array_equal(out.rows, shared.rows)
                                    and np.array_equal(out.train_y, shared.train_y)):
                shared = out if shared is None else shared
                settings[index] = (out.k, out.weighting)
            else:
                labels[index] = predictor(out)(xs)
            del out  # before the next spec trains
        if shared is not None:
            grid_labels = predict_knn_grid(shared, xs, list(settings.values()))
            for index, knn_labels in zip(settings, grid_labels):
                labels[index] = knn_labels
        truth = self.y[self.assignment == fold]
        for reports, spec_labels in zip(self.reports, labels):
            reports.append(MetricsReport.from_counts(confusion(spec_labels, truth)))
        return labels[0]


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
