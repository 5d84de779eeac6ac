"""One-hidden-layer network: ReLU hidden units, 2-way softmax output,
mini-batch gradient descent on mean cross-entropy.

Features are standardized with constants fitted on the training set and
stored in the model. Initialization is uniform scaled by fan-in, biases
start at zero, and both the initial weights and the epoch shuffles come
from the seed, so training is a pure function of (data, params, seed).

Flat parameter layout: w1 row-major, b1, w2 row-major, b2, so [w1; b1]
and [w2; b2] are contiguous (d+1, h) and (h+1, 2) blocks. nn_gradient
returns the gradient in this layout, and flatten_weights /
replace_weights convert models to and from it.

Training keeps the parameters in one flat buffer and the gradient in a
second, and treats each bias as the weight of an input fixed at 1: the
standardized features carry a ones column and so do the hidden
activations, so `[x | 1] @ [w1; b1]` is the hidden pre-activation and the
two backward products `[a1 | 1].T @ d` and `[x | 1].T @ d_z1` fill the
weight and bias gradients together. b2 alone is added after its product.
A step scales the output error by the `scale` it is given: 1 / rows for
nn_gradient and nn_loss, lr / rows in training, so that an update is
`theta -= grad`. _stepper builds one step per batch, once per fit: a
closure over the parameter and gradient views and the batch's slices,
their transposes and column views, its scale as a 0-d array and its
workspace, so a step writes into arrays allocated once per fit and
builds no view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import Dataset, Label, query_rows, read_only
from ..errors import InvalidInputError, TrainingError, check_int, check_real
from .svm import check_scale, standardize_fit

MAX_HIDDEN = 1024


@dataclass(frozen=True)
class TrainingParams:
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 500

    def __post_init__(self) -> None:
        check_real("learning rate", self.learning_rate)
        check_int("batch size", self.batch_size, 1)
        check_int("epochs", self.epochs, 1)


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
        h = check_int("hidden", self.hidden, 1, MAX_HIDDEN)
        d = self.w1.shape[0] if self.w1.ndim == 2 else -1
        shapes = (self.w1.shape, self.b1.shape, self.w2.shape, self.b2.shape,
                  self.feature_mean.shape, self.feature_scale.shape)
        if shapes != ((d, h), (h,), (h, 2), (2,), (d,), (d,)):
            raise InvalidInputError(
                f"shapes of w1, b1, w2, b2, feature mean and scale {shapes} "
                f"do not fit hidden width {h}")
        check_scale(self.feature_scale)
        for name in ("w1", "b1", "w2", "b2", "feature_mean", "feature_scale"):
            object.__setattr__(self, name, read_only(getattr(self, name)))


def _param_count(d: int, h: int) -> int:
    return d * h + h + h * 2 + 2


def _blocks(flat: np.ndarray, d: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """[w1; b1] and [w2; b2] as (d+1, h) and (h+1, 2) C-contiguous views into a flat buffer."""
    e = (d + 1) * h
    return flat[:e].reshape(d + 1, h), flat[e:].reshape(h + 1, 2)


def _views(flat: np.ndarray, d: int, h: int) -> tuple[np.ndarray, ...]:
    """w1, b1, w2, b2 as C-contiguous views into a flat parameter buffer."""
    w1b1, w2b2 = _blocks(flat, d, h)
    return w1b1[:d], w1b1[d], w2b2[:h], w2b2[h]


def _standardized_with_ones(x: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """[(x - mean) / scale | 1]: b1 is the weight of the ones column."""
    n, d = x.shape
    x_aug = np.ones((n, d + 1))
    np.subtract(x, mean, out=x_aug[:, :d])
    x_aug[:, :d] /= scale
    return x_aug


def _forward(model: NnModel, x_std: np.ndarray) -> np.ndarray:
    a1 = np.maximum(x_std @ model.w1 + model.b1, 0.0)
    return a1 @ model.w2 + model.b2


def _one_hot(y: np.ndarray) -> np.ndarray:
    onehot = np.zeros((len(y), 2))
    onehot[np.arange(len(y)), y] = 1.0
    return onehot


# The ReLU's threshold: a 0-d array, so no step converts a Python float.
_ZERO = np.array(0.0)


def _workspace(rows: int, hidden: int) -> tuple[np.ndarray, ...]:
    """Scratch arrays for one forward/backward pass over `rows` samples, with the views a step
    reads: z1, a1, [a1 | 1].T, relu, d_a1, d_logits, row and row[:, 0]. relu holds 1.0 or
    0.0 (a float product, not a bool cast); row the per-row max, then the per-row sum."""
    a1_ones = np.ones((rows, hidden + 1))  # [a1 | 1]: only a1 is ever written
    row = np.empty((rows, 1))
    z1, relu, d_a1 = (np.empty((rows, hidden)) for _ in range(3))
    return z1, a1_ones[:, :hidden], a1_ones.T, relu, d_a1, np.empty((rows, 2)), row, row[:, 0]


def _stepper(theta: np.ndarray, grad: np.ndarray, d: int, h: int, x_aug: np.ndarray,
             onehot: np.ndarray, probs: np.ndarray, scale: float, workspace: tuple):
    """A no-argument step: the forward and backward pass over one batch, in place.

    Every view it reads is bound here, once. `x_aug` is the batch's
    standardized features with a ones column and `workspace` one that
    _workspace built for its length. A step fills `probs` (softmax
    output) and the gradient blocks [gw1; gb1], [gw2; gb2] of `grad`,
    `scale` times the gradient of the summed cross-entropy at `theta`,
    with the operations, in order, of

        z1 = x_aug @ [w1; b1];  a1 = maximum(z1, 0);  logits = a1 @ w2 + b2
        e = exp(logits - logits.max(axis=1));  probs = e / e.sum(axis=1)
        d = (probs - onehot) * scale
        [gw2; gb2] = [a1 | 1].T @ d;  d_a1 = d @ w2.T
        d_z1 = d_a1 * (z1 > 0);  [gw1; gb1] = x_aug.T @ d_z1

    The two-column row max and row sum are elementwise ops on the columns,
    bitwise equal to the axis-1 reductions. b2 is added after its product,
    not folded into it: with two output columns BLAS takes another path,
    and the logits would move in the last bit. The in-place updates are
    ufunc calls with `out=`: an augmented assignment would make its name
    local to the step.
    """
    (w1b1, w2b2), (g1, g2) = _blocks(theta, d, h), _blocks(grad, d, h)
    w2, b2, w2_t = w2b2[:h], w2b2[h], w2b2[:h].T
    x_t, p0, p1, scale = x_aug.T, probs[:, 0], probs[:, 1], np.array(scale)
    z1, a1, a1_ones_t, relu, d_a1, d_logits, row, r = workspace

    def step() -> None:
        np.matmul(x_aug, w1b1, out=z1)
        np.maximum(z1, _ZERO, out=a1)
        np.matmul(a1, w2, out=probs)
        np.add(probs, b2, out=probs)
        np.maximum(p0, p1, out=r)
        np.subtract(probs, row, out=probs)
        np.exp(probs, out=probs)
        np.add(p0, p1, out=r)
        np.divide(probs, row, out=probs)
        np.subtract(probs, onehot, out=d_logits)
        np.multiply(d_logits, scale, out=d_logits)
        np.matmul(a1_ones_t, d_logits, out=g2)
        np.matmul(d_logits, w2_t, out=d_a1)
        np.greater(z1, _ZERO, out=relu)
        np.multiply(d_a1, relu, out=d_a1)
        np.matmul(x_t, d_a1, out=g1)
    return step


def _mean_loss(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Mean cross-entropy from each row's true-class probability.

    That probability is the row sum of probs * onehot, written out over
    the two columns. A softmax row is in [0, 1] or NaN in both columns,
    so the other column adds an exact zero, or NaN to a NaN row. The
    mean is np.mean's one reduction and one division, bit for bit.
    """
    p = probs[:, 0] * onehot[:, 0]
    p += probs[:, 1] * onehot[:, 1]
    p += 1e-300
    return -float(np.add.reduce(np.log(p, out=p))) / len(p)


def train_nn(train: Dataset, hidden: int, params: TrainingParams = TrainingParams(),
             seed: int = 0) -> NnModel:
    hidden = check_int("hidden", hidden, 1, MAX_HIDDEN)
    x, y = train.x, train.y
    if len(x) == 0:
        raise InvalidInputError("training set is empty")
    mean, scale = standardize_fit(x)
    x_aug = _standardized_with_ones(x, mean, scale)
    n, d = x.shape

    rng = np.random.default_rng(seed)
    theta = np.zeros(_param_count(d, hidden))
    grad = np.empty_like(theta)
    w1b1, w2b2 = _blocks(theta, d, hidden)
    w1b1[:d] = rng.uniform(-1.0, 1.0, (d, hidden)) / np.sqrt(d)
    w2b2[:hidden] = rng.uniform(-1.0, 1.0, (hidden, 2)) / np.sqrt(hidden)

    # Each epoch's shuffled copy of the data; batches are slices of it. A
    # batch's gradient is scaled by lr / rows, so an update is theta -= grad.
    onehot = _one_hot(y)
    x_epoch, onehot_epoch = np.empty_like(x_aug), np.empty_like(onehot)
    probs = np.empty((n, 2))
    starts = range(0, n, params.batch_size)
    lengths = [min(params.batch_size, n - s) for s in starts]
    spaces = {rows: _workspace(rows, hidden) for rows in set(lengths)}
    steps = [_stepper(theta, grad, d, hidden, x_epoch[s:s + rows], onehot_epoch[s:s + rows],
                      probs[s:s + rows], params.learning_rate / rows, spaces[rows])
             for s, rows in zip(starts, lengths)]

    # Overflow here is legitimate divergence; it surfaces as a non-finite
    # epoch loss and is raised as TrainingError.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(params.epochs):
            perm = rng.permutation(n)
            x_aug.take(perm, axis=0, out=x_epoch)
            onehot.take(perm, axis=0, out=onehot_epoch)
            for step in steps:
                step()
                theta -= grad
            if not math.isfinite(_mean_loss(probs, onehot_epoch)):
                raise TrainingError(f"loss diverged at epoch {epoch}")
    if not np.all(np.isfinite(theta)):
        raise TrainingError("non-finite weights after training")
    return NnModel(hidden, *_views(theta, d, hidden), mean, scale, params, seed)


def _loss_and_gradient(model: NnModel, batch: Dataset) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its flat gradient, by one training step."""
    if len(batch) == 0:
        raise InvalidInputError("batch must be non-empty")
    n, d = batch.x.shape
    x_aug = _standardized_with_ones(batch.x, model.feature_mean, model.feature_scale)
    probs, onehot = np.empty((n, 2)), _one_hot(batch.y)
    grad = np.empty(_param_count(d, model.hidden))
    with np.errstate(over="ignore", invalid="ignore"):
        _stepper(flatten_weights(model), grad, d, model.hidden, x_aug, onehot, probs, 1 / n,
                 _workspace(n, model.hidden))()
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
