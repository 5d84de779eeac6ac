"""One-hidden-layer network: ReLU hidden units, 2-way softmax output,
mini-batch gradient descent on mean cross-entropy.

Features are standardized with constants fitted on the training set and
stored in the model. Initialization is uniform scaled by fan-in, biases
start at zero, and both the initial weights and the epoch shuffles come
from the seed, so training is a pure function of (data, params, seed).

Flat parameter layout: w1 row-major, b1, w2 row-major, b2. Training
keeps the parameters in one flat buffer in this layout, with w1, b1, w2
and b2 as C-contiguous views into it, and the gradient in a second
buffer with the same layout, so an update is `grad *= lr; theta -= grad`.
nn_gradient returns the gradient in this layout, and flatten_weights /
replace_weights convert models to and from it.

A training step writes into arrays allocated once per fit, but performs
the same floating-point operations in the same order as the plain
forward/backward pass written out in _step, so the weights do not depend
on the buffering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import Dataset, Label, query_rows
from ..errors import ConfigError, InvalidInputError, TrainingError
from .svm import check_scale, standardize_fit

MAX_HIDDEN = 1024


@dataclass(frozen=True)
class TrainingParams:
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 500

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning rate must be finite and positive, got {self.learning_rate!r}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size!r}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs!r}")


@dataclass(frozen=True, eq=False)
class NnModel:
    hidden: int
    w1: np.ndarray  # (n_features, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, 2)
    b2: np.ndarray  # (2,)
    feature_mean: np.ndarray  # (n_features,)
    feature_scale: np.ndarray  # (n_features,)
    params: TrainingParams
    seed: int

    def __post_init__(self) -> None:
        if not (1 <= self.hidden <= MAX_HIDDEN):
            raise ConfigError(f"hidden width {self.hidden} outside [1, {MAX_HIDDEN}]")
        h = self.hidden
        d = self.w1.shape[0] if self.w1.ndim == 2 else -1
        shapes = (self.w1.shape, self.b1.shape, self.w2.shape, self.b2.shape,
                  self.feature_mean.shape, self.feature_scale.shape)
        if shapes != ((d, h), (h,), (h, 2), (2,), (d,), (d,)):
            raise InvalidInputError(
                f"shapes of w1, b1, w2, b2, feature mean and scale {shapes} "
                f"do not fit hidden width {h}")
        check_scale(self.feature_scale)


def _param_count(d: int, h: int) -> int:
    return d * h + h + h * 2 + 2


def _views(flat: np.ndarray, d: int, h: int) -> tuple[np.ndarray, ...]:
    """w1, b1, w2, b2 as C-contiguous views into a flat parameter buffer."""
    e1, e2, e3 = d * h, d * h + h, d * h + 3 * h
    return flat[:e1].reshape(d, h), flat[e1:e2], flat[e2:e3].reshape(h, 2), flat[e3:]


def _forward(model: NnModel, x_std: np.ndarray) -> np.ndarray:
    a1 = np.maximum(x_std @ model.w1 + model.b1, 0.0)
    return a1 @ model.w2 + model.b2


def _one_hot(y: np.ndarray) -> np.ndarray:
    onehot = np.zeros((len(y), 2))
    onehot[np.arange(len(y)), y] = 1.0
    return onehot


class _Workspace:
    """Scratch arrays for one forward/backward pass over `rows` samples."""

    def __init__(self, rows: int, hidden: int):
        self.z1 = np.empty((rows, hidden))
        self.a1 = np.empty((rows, hidden))
        self.relu = np.empty((rows, hidden), dtype=bool)
        self.d_a1 = np.empty((rows, hidden))
        self.d_logits = np.empty((rows, 2))
        self.row = np.empty((rows, 1))  # per-row max, then per-row sum


def _step(weights, grads, x: np.ndarray, onehot: np.ndarray, probs: np.ndarray,
          ws: _Workspace) -> None:
    """Forward and backward pass over one batch, in place.

    Fills `probs` (softmax output) and `grads` (views in the flat layout)
    with exactly the operations, in order, of

        z1 = x @ w1 + b1;  a1 = maximum(z1, 0);  logits = a1 @ w2 + b2
        e = exp(logits - logits.max(axis=1));  probs = e / e.sum(axis=1)
        d = (probs - onehot) / n
        gw2 = a1.T @ d;  gb2 = d.sum(axis=0);  d_a1 = d @ w2.T
        d_z1 = d_a1 * (z1 > 0);  gw1 = x.T @ d_z1;  gb1 = d_z1.sum(axis=0)

    The two-column row max and row sum are elementwise ops on the columns,
    bitwise equal to the axis-1 reductions.
    """
    w1, b1, w2, b2 = weights
    gw1, gb1, gw2, gb2 = grads
    z1, a1, relu, d_a1, d_logits, row = ws.z1, ws.a1, ws.relu, ws.d_a1, ws.d_logits, ws.row
    np.matmul(x, w1, out=z1)
    z1 += b1
    np.maximum(z1, 0.0, out=a1)
    np.matmul(a1, w2, out=probs)
    probs += b2
    p0, p1, r = probs[:, 0], probs[:, 1], row[:, 0]
    np.maximum(p0, p1, out=r)
    probs -= row
    np.exp(probs, out=probs)
    np.add(p0, p1, out=r)
    probs /= row
    np.subtract(probs, onehot, out=d_logits)
    d_logits /= len(x)
    np.matmul(a1.T, d_logits, out=gw2)
    np.add.reduce(d_logits, axis=0, out=gb2)
    np.matmul(d_logits, w2.T, out=d_a1)
    np.greater(z1, 0.0, out=relu)
    d_a1 *= relu
    np.matmul(x.T, d_a1, out=gw1)
    np.add.reduce(d_a1, axis=0, out=gb1)


def _mean_loss(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Mean cross-entropy from each row's true-class probability.

    That probability is the row sum of probs * onehot, written out over
    the two columns. A softmax row is in [0, 1] or NaN in both columns,
    so the other column adds an exact zero, or NaN to a NaN row.
    """
    p = probs[:, 0] * onehot[:, 0]
    p += probs[:, 1] * onehot[:, 1]
    p += 1e-300
    return float(-np.mean(np.log(p, out=p)))


def train_nn(train: Dataset, hidden: int, params: TrainingParams = TrainingParams(),
             seed: int = 0) -> NnModel:
    if not (1 <= hidden <= MAX_HIDDEN):
        raise ConfigError(f"hidden width {hidden} outside [1, {MAX_HIDDEN}]")

    x, y = train.x, train.y
    mean, scale = standardize_fit(x)
    x_std = (x - mean) / scale
    n, d = x_std.shape

    rng = np.random.default_rng(seed)
    theta = np.zeros(_param_count(d, hidden))
    weights = w1, b1, w2, b2 = _views(theta, d, hidden)
    w1[...] = rng.uniform(-1.0, 1.0, (d, hidden)) / np.sqrt(d)
    w2[...] = rng.uniform(-1.0, 1.0, (hidden, 2)) / np.sqrt(hidden)
    grad = np.empty_like(theta)
    grads = _views(grad, d, hidden)

    # Each epoch's shuffled copy of the data; batches are slices of it.
    onehot = _one_hot(y)
    x_epoch, onehot_epoch = np.empty_like(x_std), np.empty_like(onehot)
    probs = np.empty((n, 2))
    starts = range(0, n, params.batch_size)
    lengths = [min(params.batch_size, n - s) for s in starts]
    spaces = {rows: _Workspace(rows, hidden) for rows in set(lengths)}
    batches = [(x_epoch[s:s + rows], onehot_epoch[s:s + rows], probs[s:s + rows], spaces[rows])
               for s, rows in zip(starts, lengths)]

    lr = params.learning_rate
    # Overflow here is legitimate divergence; it surfaces as a non-finite
    # epoch loss and is raised as TrainingError.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(params.epochs):
            perm = rng.permutation(n)
            np.take(x_std, perm, axis=0, out=x_epoch)
            np.take(onehot, perm, axis=0, out=onehot_epoch)
            for batch in batches:
                _step(weights, grads, *batch)
                grad *= lr
                theta -= grad
            if not np.isfinite(_mean_loss(probs, onehot_epoch)):
                raise TrainingError(f"loss diverged at epoch {epoch}")
    if not np.all(np.isfinite(theta)):
        raise TrainingError("non-finite weights after training")
    return NnModel(hidden, w1, b1, w2, b2, mean, scale, params, seed)


def _loss_and_gradient(model: NnModel, batch: Dataset) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its flat gradient, via _step."""
    if len(batch) == 0:
        raise InvalidInputError("batch must be non-empty")
    x_std, y = (batch.x - model.feature_mean) / model.feature_scale, batch.y
    n, d = x_std.shape
    probs, onehot = np.empty((n, 2)), _one_hot(y)
    grad = np.empty(_param_count(d, model.hidden))
    with np.errstate(over="ignore", invalid="ignore"):
        _step((model.w1, model.b1, model.w2, model.b2), _views(grad, d, model.hidden),
              x_std, onehot, probs, _Workspace(n, model.hidden))
        return _mean_loss(probs, onehot), grad


def nn_gradient(model: NnModel, batch: Dataset) -> np.ndarray:
    """Backprop gradient of mean cross-entropy over the batch, flattened."""
    return _loss_and_gradient(model, batch)[1]


def nn_loss(model: NnModel, batch: Dataset) -> float:
    return _loss_and_gradient(model, batch)[0]


def flatten_weights(model: NnModel) -> np.ndarray:
    return np.concatenate(
        [model.w1.ravel(), model.b1, model.w2.ravel(), model.b2])


def replace_weights(model: NnModel, flat: np.ndarray) -> NnModel:
    d, h = model.w1.shape
    if flat.shape != (_param_count(d, h),):
        raise InvalidInputError(f"expected {_param_count(d, h)} parameters")
    return NnModel(model.hidden, *_views(np.asarray(flat, dtype=np.float64), d, h),
                   model.feature_mean, model.feature_scale, model.params, model.seed)


def predict_nn_batch(model: NnModel, xs: np.ndarray) -> np.ndarray:
    xs_std = (query_rows(xs, len(model.feature_mean)) - model.feature_mean) / model.feature_scale
    logits = _forward(model, xs_std)
    return np.where(logits[:, 1] > logits[:, 0], int(Label.PERSON), int(Label.NO_PERSON))
