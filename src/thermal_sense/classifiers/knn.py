"""k-nearest-neighbors on raw Celsius features (Euclidean distance).

Deterministic tie handling, documented once here:
  - equal distances: the neighbor with the lower stored index wins a slot;
  - tied votes (uniform counts or equal weight sums): NO_PERSON;
  - distance weighting with an exact match (d = 0): the majority label of
    the zero-distance neighbors wins outright.

Search is exact filter-and-refine. One matrix product per block of
queries gives approximate squared distances |q|^2 + |t|^2 - 2 q.t; every
row within a rounding margin of a query's k-th smallest approximate value
is a candidate, and only candidates get the exact per-row distance
sqrt(sum((t - q)^2)). The margin bounds the error of both forms, so the
true k nearest rows, all rows tied with the k-th included, are always
candidates: labels are those of a full sort of the exact distances.

A block's votes are array operations over its (m, k) neighbor labels and
distances, bit for bit the per-query vote; distance votes with k >= 8
stay per query (see _MASKED_SUM_K).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import Dataset, Label, query_rows
from ..errors import InvalidInputError

WEIGHTINGS = ("uniform", "distance")
PERSON, NO_PERSON = int(Label.PERSON), int(Label.NO_PERSON)

# Approximate-distance entries (queries x training rows) per query block;
# bounds the working set of a large batch.
BLOCK = 1 << 16
# Candidate margin per unit of |q|^2 + max|t|^2. Each distance form errs by
# at most 2*gamma_70 (about 1.6e-14) of that sum, and taking the square root
# merges only sums within a few ulps; 1e-12 covers all of it many times over.
_MARGIN = 1e-12
# Absolute margin floor: covers products and sums that underflow.
_MARGIN_FLOOR = np.finfo(np.float64).tiny
# numpy adds fewer than 8 terms left to right and more in pairwise blocks,
# so only below this k does a masked row sum (zeros for the other class)
# equal the sum of one class's compacted weights. Distance votes over more
# neighbors are taken one query at a time.
_MASKED_SUM_K = 8


@dataclass(frozen=True, eq=False)
class KnnModel:
    train_x: np.ndarray  # (n, 64), stored as a read-only float64 copy
    train_y: np.ndarray  # (n,) 0/1
    k: int
    weighting: str
    train_sq: np.ndarray = field(init=False, repr=False)  # squared row norms of train_x

    def __post_init__(self) -> None:
        if not np.isin(self.train_y, (0, 1)).all():
            raise InvalidInputError("training labels must be 0 or 1")
        if np.ndim(self.train_x) != 2 or len(self.train_x) != len(self.train_y):
            raise InvalidInputError(
                f"expected {len(self.train_y)} training rows, got shape {np.shape(self.train_x)}")
        if not np.isfinite(self.train_x).all():
            raise InvalidInputError("non-finite training feature value")
        if self.weighting not in WEIGHTINGS:
            raise InvalidInputError(f"unknown weighting {self.weighting!r}")
        if not (1 <= self.k <= len(self.train_y)):
            raise InvalidInputError(
                f"k={self.k} out of range for {len(self.train_y)} training samples"
            )
        x = np.array(self.train_x, dtype=np.float64, order="C")
        x.flags.writeable = False
        with np.errstate(over="ignore"):
            sq = np.einsum("ij,ij->i", x, x)
        object.__setattr__(self, "train_x", x)
        object.__setattr__(self, "train_sq", sq)


def train_knn(train: Dataset, k: int, weighting: str = "uniform") -> KnnModel:
    return KnnModel(train.x, train.y, k, weighting)


def _distance_vote(labels: np.ndarray, dists: np.ndarray) -> int:
    """One query's distance-weighted label from its k neighbors' labels (0/1) and distances."""
    exact = dists == 0.0
    if exact.any():
        person = int(np.count_nonzero(labels[exact]))
        return PERSON if person > int(np.count_nonzero(exact)) - person else NO_PERSON
    weights = 1.0 / dists
    person = labels == PERSON
    return PERSON if float(np.sum(weights[person])) > float(np.sum(weights[~person])) else NO_PERSON


def _votes(labels: np.ndarray, dists: np.ndarray, weighting: str) -> np.ndarray:
    """(m,) labels from the (m, k) labels (0/1) and distances of each query's neighbors."""
    person = labels == PERSON
    k = labels.shape[1]
    if weighting == "uniform":
        return np.where(2 * np.count_nonzero(person, axis=1) > k, PERSON, NO_PERSON)
    # A zero or subnormal distance weighs inf; a row with an exact match is
    # decided by the exact matches alone.
    with np.errstate(divide="ignore", over="ignore"):
        if k >= _MASKED_SUM_K:
            return np.array([_distance_vote(lab, d) for lab, d in zip(labels, dists)],
                            dtype=np.int64)
        weights = 1.0 / dists
    exact = dists == 0.0
    n_exact = np.count_nonzero(exact, axis=1)
    person_w = np.add.reduce(np.where(person, weights, 0.0), axis=1)
    other_w = np.add.reduce(np.where(person, 0.0, weights), axis=1)
    wins = np.where(n_exact > 0, 2 * np.count_nonzero(exact & person, axis=1) > n_exact,
                    person_w > other_w)
    return np.where(wins, PERSON, NO_PERSON)


def _nearest(model: KnnModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, k) indices and exact distances of each query's k nearest rows."""
    train_x, train_sq, k = model.train_x, model.train_sq, model.k
    with np.errstate(over="ignore", invalid="ignore"):  # overflow only widens the filter
        q_sq = np.einsum("ij,ij->i", q, q)
        approx = q @ train_x.T
        approx *= -2.0
        approx += train_sq
        approx += q_sq[:, None]
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        bound = kth + 2.0 * (_MARGIN * (q_sq + train_sq.max()) + _MARGIN_FLOOR)
    # The negated test admits NaN entries, and every row when the bound is
    # NaN or inf (overflowed squares).
    qi, ti = np.nonzero(~(approx > bound[:, None]))
    d = np.sqrt(np.sum((train_x[ti] - q[qi]) ** 2, axis=1))
    order = np.lexsort((ti, d, qi))  # by query, then distance, then stored index
    # Every query has at least k candidates; keep the first k of each.
    counts = np.bincount(qi, minlength=len(q))
    first = np.cumsum(counts) - counts
    top = order[first[:, None] + np.arange(k)]
    return ti[top], d[top]


def predict_knn_batch(model: KnnModel, xs: np.ndarray) -> np.ndarray:
    """(n, d) queries -> (n,) 0/1 labels; a single query is a batch of one."""
    queries = query_rows(xs, model.train_x.shape[1])
    step = max(1, BLOCK // len(model.train_x))
    out = np.empty(len(queries), dtype=np.int64)
    for start in range(0, len(queries), step):
        idx, dists = _nearest(model, queries[start:start + step])
        out[start:start + step] = _votes(model.train_y[idx], dists, model.weighting)
    return out
