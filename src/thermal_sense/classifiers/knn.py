"""k-nearest-neighbors on raw Celsius features (Euclidean distance).

Deterministic tie handling, documented once here:
  - equal distances: the neighbor with the lower stored index wins a slot;
  - tied votes (uniform counts or equal weight sums): NO_PERSON;
  - distance weighting with an exact match (d = 0): the majority label of
    the zero-distance neighbors wins outright.

Search is exact filter-and-refine. A model stores its rows and their
squared norms as one read-only C-contiguous (65, n) matrix
[t | |t|^2]^T, of which train_x is a view, and keeps its Dataset's
labels. KnnModel(train, k, weighting), the one constructor, builds the
store once per Dataset (Dataset.derived), and every model on that set
shares it. One matrix product of [-2q | 1] against it per block of
queries gives |t|^2 - 2 q.t, a query's squared distances less its
|q|^2: the same for every row of a query, so dropping it moves no
row's rank, and scaling by -2 is exact.
Every row within a rounding margin of a query's k-th smallest value
(the row minimum when k = 1) is a candidate. The margin bounds the
error of the product and of the exact distance sqrt(sum((t - q)^2)),
so the true k nearest rows, all rows tied with the k-th included, are
always candidates: labels are those of a full sort of the exact
distances. The margin holds only while nothing overflows; a query whose
|q|^2 + max|t|^2 is too large to rule that out keeps every row. So
exactly k candidates are the k nearest rows, and a uniform vote at that
k reads only their labels; if all of a block's candidates carry one
label, so do all its queries' k nearest rows, and every such vote is
that label. A block gets its candidates' exact distances (the refine)
only for a distance-weighted setting, a setting whose k is below the
search's, or a query with more than k candidates where the block's
candidates' labels differ. A single query is a block of one on the same
path. The neighbour lists at a smaller k are prefixes of those at a
larger one, so predict_knn_grid serves several (k, weighting) settings
on one set of rows from one search at their largest k; predict_knn_batch
is its one-setting case.

A block's votes are array operations over its (m, k) neighbor labels and
distances, bit for bit the per-query vote. The uniform vote compares
a row's label sum with k / 2, and a vote's truth value is its label
(PERSON is 1, NO_PERSON 0), so a uniform 1-NN votes its neighbour's
label; not so with distance weights, where a neighbour at distance inf
weighs 0 and the vote is NO_PERSON. Distance votes with k >= 8 stay per
query (see _MASKED_SUM_K).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from ..core import Dataset, Label, query_rows
from ..errors import InvalidInputError, check_int

WEIGHTINGS = ("uniform", "distance")
PERSON, NO_PERSON = int(Label.PERSON), int(Label.NO_PERSON)

# Approximate-distance entries (queries x training rows) per query block;
# bounds the working set of a large batch.
BLOCK = 1 << 16
# Candidate margin per unit of |q|^2 + max|t|^2. The 65-term product and the
# exact form each err by at most 3*gamma_70 (about 2.3e-14) of that sum, and
# taking the square root merges only sums within a few ulps; 1e-12 covers all
# of it many times over. Every square, product and partial sum of either
# form is at most twice that sum. The margin is computed from 4 times it,
# which overflows to inf, and so keeps every row of the query, before any of
# them can.
_MARGIN = 1e-12
# Absolute margin floor: covers products and sums that underflow.
_MARGIN_FLOOR = np.finfo(np.float64).tiny
# numpy adds fewer than 8 terms left to right and more in pairwise blocks,
# so only below this k does a masked row sum (zeros for the other class)
# equal the sum of one class's compacted weights. Distance votes over more
# neighbors are taken one query at a time.
_MASKED_SUM_K = 8


def _store(train: Dataset) -> dict:
    """KnnModel's search fields for a non-empty Dataset: a read-only copy of its rows."""
    n, width = train.x.shape
    rows = np.empty((width + 1, n))
    rows[:width] = train.x.T
    with np.errstate(over="ignore"):
        np.einsum("ji,ji->i", rows[:width], rows[:width], out=rows[width])
    rows.flags.writeable = False  # before the view, which inherits it
    return dict(train_x=rows[:width].T, train_y=train.y, rows=rows, sq_max=float(rows[width].max()))


@dataclass(frozen=True, eq=False)
class KnnModel:
    """k and weighting on the store of `train`, shared by its models. The setting is checked
    first, so a bad one builds no store; the Dataset has checked the rows and labels."""

    train: InitVar[Dataset]
    k: int
    weighting: str
    train_x: np.ndarray = field(init=False)  # (n, 64), a read-only view of `rows`
    train_y: np.ndarray = field(init=False)  # (n,) 0/1, the Dataset's read-only labels
    rows: np.ndarray = field(init=False, repr=False)  # (65, n) read-only [t | |t|^2]^T
    sq_max: float = field(init=False, repr=False)  # max |t|^2, inf if a row's overflows

    def __post_init__(self, train: Dataset) -> None:
        _check_setting(self.k, self.weighting, len(train))
        for name, value in train.derived(_store).items():
            object.__setattr__(self, name, value)


def _check_setting(k, weighting: str, n: int) -> None:
    if weighting not in WEIGHTINGS:
        raise InvalidInputError(f"unknown weighting {weighting!r}")
    if check_int("k", k, 1) > n:
        raise InvalidInputError(f"k={k} out of range for {n} training samples")


def train_knn(train: Dataset, k: int, weighting: str = "uniform") -> KnnModel:
    """KnnModel(train, k, weighting), under the name the evaluation layer trains by."""
    return KnnModel(train, k, weighting)


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
    k = labels.shape[1]
    if weighting == "uniform":  # labels are 0/1, so a row sum counts PERSON votes
        return np.greater(labels.sum(axis=1), k / 2).astype(np.int64)
    # A zero or subnormal distance weighs inf; a row with an exact match is
    # decided by the exact matches alone.
    with np.errstate(divide="ignore", over="ignore"):
        if k >= _MASKED_SUM_K:
            return np.array([_distance_vote(lab, d) for lab, d in zip(labels, dists)],
                            dtype=np.int64)
        weights = 1.0 / dists
    person = labels == PERSON
    exact = dists == 0.0
    n_exact = np.count_nonzero(exact, axis=1)
    person_w = np.add.reduce(np.where(person, weights, 0.0), axis=1)
    other_w = np.add.reduce(np.where(person, 0.0, weights), axis=1)
    wins = np.where(n_exact > 0, 2 * np.count_nonzero(exact & person, axis=1) > n_exact,
                    person_w > other_w)
    return wins.astype(np.int64)


# Overflow happens only in queries that keep every row. The decorator costs
# less than a guard (a norm or a max of the block) that rules it out first.
@np.errstate(over="ignore", invalid="ignore")
def _candidates(model: KnnModel, q: np.ndarray,
                k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(query, row) index pairs, by query, then row, that hold each query's k nearest rows."""
    rows, k = model.rows, model.k if k is None else k
    width = len(rows) - 1
    lhs = np.empty((len(q), width + 1))
    lhs[:, width] = 1.0
    neg2q = np.multiply(q, -2.0, out=lhs[:, :width])
    approx = lhs @ rows  # |t|^2 - 2 q.t, each query's distances less its |q|^2
    kth = (np.fmin.reduce(approx, axis=1) if k == 1
           else np.partition(approx, k - 1, axis=1)[:, k - 1])
    # |-2q|^2 = 4 |q|^2, so the margin is 2 * (_MARGIN * (|q|^2 + max|t|^2)
    # + _MARGIN_FLOOR). (On a block of one, operations that return a new
    # array cost less than in-place ones.)
    bound = kth + (np.vecdot(neg2q, neg2q)
                   + 4.0 * (model.sq_max + _MARGIN_FLOOR / _MARGIN)) * (0.5 * _MARGIN)
    # The negated test keeps every row, NaN entries included, of a query
    # whose margin is inf (its bound inf or NaN). nonzero lists the pairs
    # in C order: by query, then row.
    return (~(approx > bound[:, None])).nonzero()


def _nearest(model: KnnModel, q: np.ndarray,
             k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(m, k) indices and exact distances of each query's k nearest rows (k: the model's).

    The lists at a smaller k are prefixes of those at a larger one: both
    hold the true nearest rows in (exact distance, stored index) order,
    and the smaller k's candidates are a subset of the larger k's.
    """
    k = model.k if k is None else k
    return _refine(model, q, *_candidates(model, q, k), k)


def _refine(model: KnnModel, q: np.ndarray, qi: np.ndarray, ti: np.ndarray,
            k: int) -> tuple[np.ndarray, np.ndarray]:
    """_nearest from the candidates (qi, ti) of the queries q at k."""
    # Every query has at least k candidates; keep the first k of each.
    diff = model.train_x[ti] - q[qi]
    d = np.sqrt(np.add.reduce(np.square(diff, out=diff), axis=1))
    order = np.lexsort((ti, d, qi))  # by query, then distance, then stored index
    top = order[np.searchsorted(qi, np.arange(len(q)))[:, None] + np.arange(k)]
    return ti[top], d[top]


def predict_knn_grid(model: KnnModel, xs: np.ndarray, settings) -> np.ndarray:
    """(n, d) queries -> (len(settings), n) 0/1 labels, one row per (k, weighting).

    One neighbour search per block of queries, at the largest k of
    `settings`, serves every setting: each votes on its k-prefix of the
    neighbour lists (see _nearest), so its labels are those of a model
    trained with that k and weighting on the same rows.
    """
    if not settings:
        raise InvalidInputError("no (k, weighting) settings to predict")
    for k, weighting in settings:
        _check_setting(k, weighting, len(model.train_y))
    return np.array(_predict(model, xs, settings, max(k for k, _ in settings)))


def predict_knn_batch(model: KnnModel, xs: np.ndarray) -> np.ndarray:
    """(n, d) queries -> (n,) 0/1 labels; a single query is a batch of one."""
    return _predict(model, xs, ((model.k, model.weighting),), model.k)[0]


def _predict(model: KnnModel, xs: np.ndarray, settings, top: int) -> list[np.ndarray]:
    """predict_knn_grid's rows, for checked settings whose largest k is top."""
    queries = query_rows(xs, model.train_x.shape[1])
    # Only a distance vote or a shorter prefix reads the neighbours' order
    # and distances; a uniform vote at k = top reads just their labels.
    refine = any(k < top or weighting == "distance" for k, weighting in settings)
    step = max(1, BLOCK // len(model.train_y))
    blocks = []
    for start in range(0, max(len(queries), 1), step):  # an empty batch is one empty block
        q = queries[start:start + step]
        qi, ti = _candidates(model, q, top)
        m = len(q)
        if not refine:
            labels = model.train_y[ti]
            if len(ti) == m * top:  # exactly top each: the top nearest rows, in stored order
                if top > 1:  # at top = 1, each query's neighbour's label
                    labels = _votes(labels.reshape(m, top), None, "uniform")
                blocks.append([labels] * len(settings))
                continue
            if np.count_nonzero(labels) in (0, len(ti)):  # one label L: every vote is L
                blocks.append([np.full(m, labels[0])] * len(settings))
                continue
        idx, dists = _refine(model, q, qi, ti, top)
        labels = model.train_y[idx]
        blocks.append([_votes(labels[:, :k], dists[:, :k], weighting)
                       for k, weighting in settings])
    return blocks[0] if len(blocks) == 1 else [np.concatenate(rows) for rows in zip(*blocks)]
