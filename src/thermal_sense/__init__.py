"""Bed-occupancy classification from 8x8 thermal frames.

Simulator for low-resolution thermal scenes, from-scratch classifiers
(SVM, k-NN, one-hidden-layer NN), a cross-validation/sweep harness, and
a bed-exit alerting state machine, all seeded and reproducible.
"""

__version__ = "0.1.0"

from .core import (
    ConditionTag,
    Dataset,
    FoldPlan,
    Label,
    flatten,
    make_folds,
    quantize,
    split_train_test,
)

__all__ = [
    "__version__",
    "ConditionTag",
    "Dataset",
    "FoldPlan",
    "Label",
    "flatten",
    "make_folds",
    "quantize",
    "split_train_test",
]
