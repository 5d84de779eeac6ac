"""Soft-margin SVM trained by sequential minimal optimization.

Solves the dual problem
    min  0.5 * a' Q a - sum(a)   s.t.  y' a = 0,  0 <= a_i <= C
with Q[i, j] = y_i y_j k(x_i, x_j), selecting the maximal-violating pair
at each step and stopping when the largest KKT violation drops below
tol. Features are standardized internally (per-feature z-score fitted
on the training set); the model stores the standardization constants
and standardized support vectors. Every fit on one training set reads
one standardization record (`_standardized`, through `Dataset.derived`).

The solver reads the Gram matrix one row at a time, and a fit computes
row i only when SMO first reads it, as `kernel_matrix(spec, x_std[i:i+1],
x_std)[0]`, keeping it for the rest of the fit (the rbf kernel's norms
of x_std are summed once and passed to every row). On fold 0 of main(960)
the four kernels read 36 to 112 of the 1,728 rows. A row that
overflows when first read is a TrainingError; an entry in a row that is
never read is never computed, so it cannot fail the fit, and the model
depends only on the rows that were read.

Decision rule: f(x) = sum_i a_i y_i k(s_i, x) + b, with f(x) >= 0
mapped to PERSON (the tie at exactly 0 goes to PERSON).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..core import Dataset, Label, query_rows, read_only
from ..errors import InvalidInputError, TrainingError, check_int, check_real
from .kernels import KernelSpec, kernel_matrix

DEFAULT_C = 1.0
DEFAULT_TOL = 1e-3
MAX_PAIR_UPDATES = 1_000_000


def check_scale(scale: np.ndarray) -> np.ndarray:
    """The scale, or InvalidInputError unless every feature scale is finite and positive."""
    bad = ~(np.isfinite(scale) & (scale > 0))
    if bad.any():
        i = int(bad.argmax())
        raise InvalidInputError(
            f"feature scale {i} must be finite and positive, got {float(scale[i])!r}")
    return scale


@dataclass(frozen=True, eq=False)
class SvmModel:
    kernel: KernelSpec  # gamma resolved to a concrete value
    c: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    support_x: np.ndarray  # standardized support vectors
    support_alpha: np.ndarray
    support_y: np.ndarray  # -1 / +1
    bias: float

    def __post_init__(self) -> None:
        check_real("C", self.c)
        check_scale(self.feature_scale)
        if self.kernel.kind != "linear" and self.kernel.gamma is None:
            raise InvalidInputError(f"{self.kernel.kind} kernel needs a resolved gamma")
        if not np.isin(self.support_y, (-1.0, 1.0)).all():
            raise InvalidInputError("support labels must be -1 or +1")
        if np.any(self.support_alpha < 0) or np.any(self.support_alpha > self.c):
            raise InvalidInputError("dual coefficients must lie in [0, C]")
        if abs(float(self.support_alpha @ self.support_y)) > 1e-8:
            raise InvalidInputError("dual coefficients violate sum(alpha * y) = 0")
        if not np.isfinite(self.bias):
            raise InvalidInputError("bias must be finite")
        for name in ("feature_mean", "feature_scale", "support_x", "support_alpha", "support_y"):
            object.__setattr__(self, name, read_only(getattr(self, name)))


def standardize_fit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and population std; constant features get scale 1."""
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    return mean, scale


class _Standardized(NamedTuple):
    """What every SVM fit on one training set reads of it."""

    mean: np.ndarray
    scale: np.ndarray
    x_std: np.ndarray  # (x - mean) / scale
    var: float  # x_std.var(), for the default gamma
    y: np.ndarray  # -1 / +1


def _standardized(train: Dataset) -> _Standardized:
    mean, scale = standardize_fit(train.x)
    x_std = (train.x - mean) / scale
    return _Standardized(mean, scale, x_std, float(x_std.var()),
                         np.where(train.y == Label.PERSON, 1.0, -1.0))


def _resolve_kernel(spec: KernelSpec, prep: _Standardized) -> KernelSpec:
    if spec.kind == "linear" or spec.gamma is not None:
        return spec
    width = prep.x_std.shape[1]
    gamma = 1.0 / (width * prep.var) if prep.var > 0 else 1.0 / width
    return replace(spec, gamma=gamma)


class _KernelRows(dict):
    """Gram rows of one training set, each computed on first read and kept.

    `rows[i]` is `kernel_matrix(spec, x[i:i+1], x)[0]`, from that one call
    whatever was read before it. The store belongs to one fit; the rbf
    kernel's squared row norms of x are summed on the first read and
    passed to every row.
    """

    def __init__(self, spec: KernelSpec, x: np.ndarray):
        super().__init__()
        self.spec = spec
        self.x = x
        self.x_sq = None

    def __missing__(self, i: int) -> np.ndarray:
        try:
            with np.errstate(over="raise"):
                if self.x_sq is None and self.spec.kind == "rbf":
                    self.x_sq = np.sum(self.x * self.x, axis=1)
                row = kernel_matrix(self.spec, self.x[i:i + 1], self.x, self.x_sq)[0]
        except FloatingPointError:
            raise TrainingError(
                f"{self.spec.kind} kernel overflows on the training set; "
                "lower its degree or gamma"
            ) from None
        self[i] = row
        return row


def _smo(rows, y: np.ndarray, c: float, tol: float,
         max_iter: int) -> tuple[np.ndarray, float]:
    """Dual coefficients and bias for Gram rows `rows[i]` and labels y in {-1, +1}.

    y must hold both labels, as `train_svm` ensures; then neither index
    set can be empty.

    `rows` is a `_KernelRows` store or a matrix. The gradient update reads
    rows i and j where the algorithm calls for columns, so the result is
    the solution for the matrix whose columns are those rows.

    The solver keeps yg = -y * grad, the quantity both index sets are
    ranked by, in two arrays: `up` holds it over I_up (where y[t] * alpha[t]
    may grow) and -inf elsewhere, `low` over I_low (where it may shrink)
    and +inf elsewhere, so each selection is one argmax or argmin.
    Since y is +-1 and rounding is symmetric under negation, the update
    yg -= step * (k_i - k_j) gives the bits of grad += y * step * (k_i -
    k_j) followed by -y * grad, up to the sign of an exact zero, which no
    comparison and no sum of free entries can see.
    """
    n = len(y)
    ys = y.tolist()
    pos = [v > 0 for v in ys]
    alpha = [0.0] * n
    # Every t is in I_up or I_low or both, so yg[t] is read from the one
    # that holds it. Only alpha[i] and alpha[j] change in an update, so
    # only their memberships are refreshed. At alpha = 0, grad = -1 and
    # yg = y.
    in_up = pos[:]
    up = np.where(y > 0, y, -np.inf)
    low = np.where(y > 0, np.inf, y)
    diff = np.empty(n)

    for _ in range(max_iter):
        # argmax/argmin return the first extreme index, as over the
        # compacted index sets I_up and I_low.
        i, j = int(up.argmax()), int(low.argmin())
        m_up, m_low = float(up[i]), float(low[j])
        if m_up - m_low <= tol:
            break

        ki, kj = rows[i], rows[j]
        quad = float(ki[i] + kj[j] - 2.0 * ki[j])
        step = (m_up - m_low) / max(quad, 1e-12)
        room_i = c - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else c - alpha[j]
        step = min(step, room_i, room_j)
        # Snap exactly onto the box bound so alpha stays in [0, C] bitwise.
        if step == room_i:
            alpha[i] = c if pos[i] else 0.0
        else:
            alpha[i] += ys[i] * step
        if step == room_j:
            alpha[j] = 0.0 if pos[j] else c
        else:
            alpha[j] -= ys[j] * step
        for t in (i, j):
            value = up[t] if in_up[t] else low[t]
            below_c, above_0 = alpha[t] < c, alpha[t] > 0
            in_up[t] = below_c if pos[t] else above_0
            up[t] = value if in_up[t] else -np.inf
            low[t] = value if (above_0 if pos[t] else below_c) else np.inf
        np.subtract(ki, kj, out=diff)
        diff *= step
        up -= diff
        low -= diff
    else:
        violation = float(up.max() - low.min())
        raise TrainingError(
            f"SMO did not converge in {max_iter} pair updates; max KKT violation {violation:.3e}"
        )

    alpha = np.array(alpha)
    free = (alpha > 0) & (alpha < c)
    if free.any():
        bias = float(np.mean(up[free]))
    else:
        bias = float((m_up + m_low) / 2.0)
    return alpha, bias


def train_svm(train: Dataset, kernel: KernelSpec, c: float = DEFAULT_C,
              tol: float = DEFAULT_TOL, max_iter: int = MAX_PAIR_UPDATES) -> SvmModel:
    c, tol = check_real("C", c), check_real("tol", tol)
    max_iter = check_int("max_iter", max_iter, 1)
    if len(np.unique(train.y)) < 2:
        raise InvalidInputError("training set must contain both classes")
    prep = train.derived(_standardized)
    spec = _resolve_kernel(kernel, prep)
    alpha, bias = _smo(_KernelRows(spec, prep.x_std), prep.y, c, tol, max_iter)

    sv = alpha > 0
    return SvmModel(
        kernel=spec,
        c=c,
        feature_mean=prep.mean,
        feature_scale=prep.scale,
        support_x=prep.x_std[sv],
        support_alpha=alpha[sv],
        support_y=prep.y[sv],
        bias=bias,
    )


def decision_function(model: SvmModel, xs: np.ndarray) -> np.ndarray:
    xs_std = (query_rows(xs, len(model.feature_mean)) - model.feature_mean) / model.feature_scale
    k = kernel_matrix(model.kernel, model.support_x, xs_std)
    return (model.support_alpha * model.support_y) @ k + model.bias


def predict_svm_batch(model: SvmModel, xs: np.ndarray) -> np.ndarray:
    return np.where(decision_function(model, xs) >= 0, int(Label.PERSON), int(Label.NO_PERSON))
