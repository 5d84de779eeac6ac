"""k-nearest-neighbors on raw Celsius features (Euclidean distance).

Deterministic tie handling, documented once here:
  - equal distances: the neighbor with the lower stored index wins a slot;
  - tied votes (uniform counts or equal weight sums): NO_PERSON;
  - distance weighting with an exact match (d = 0): the majority label of
    the zero-distance neighbors wins outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import Dataset, Label, query_rows
from ..errors import InvalidInputError

WEIGHTINGS = ("uniform", "distance")


@dataclass(frozen=True, eq=False)
class KnnModel:
    train_x: np.ndarray  # (n, 64) stored verbatim
    train_y: np.ndarray  # (n,) 0/1
    k: int
    weighting: str

    def __post_init__(self) -> None:
        if not np.isin(self.train_y, (0, 1)).all():
            raise InvalidInputError("training labels must be 0 or 1")
        if self.weighting not in WEIGHTINGS:
            raise InvalidInputError(f"unknown weighting {self.weighting!r}")
        if not (1 <= self.k <= len(self.train_y)):
            raise InvalidInputError(
                f"k={self.k} out of range for {len(self.train_y)} training samples"
            )


def train_knn(train: Dataset, k: int, weighting: str = "uniform") -> KnnModel:
    return KnnModel(train.x, train.y, k, weighting)


def _vote(model: KnnModel, x: np.ndarray) -> int:
    d = np.sqrt(np.sum((model.train_x - x) ** 2, axis=1))
    order = np.argsort(d, kind="stable")[: model.k]
    labels = model.train_y[order]
    dists = d[order]

    if model.weighting == "distance":
        exact = dists == 0.0
        if exact.any():
            person = int(np.sum(labels[exact] == Label.PERSON))
            no_person = int(np.sum(exact)) - person
            return int(Label.PERSON if person > no_person else Label.NO_PERSON)
        weights = 1.0 / dists
    else:
        weights = np.ones_like(dists)

    person_w = float(np.sum(weights[labels == Label.PERSON]))
    no_person_w = float(np.sum(weights[labels == Label.NO_PERSON]))
    return int(Label.PERSON if person_w > no_person_w else Label.NO_PERSON)


def predict_knn_batch(model: KnnModel, xs: np.ndarray) -> np.ndarray:
    """(n, d) queries -> (n,) 0/1 labels; a single query is a batch of one."""
    return np.array([_vote(model, row) for row in query_rows(xs, model.train_x.shape[1])],
                    dtype=np.int64)
