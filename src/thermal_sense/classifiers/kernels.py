"""Kernel functions shared by the SVM.

Gram matrices are built in place from one matrix product, so a
kernel costs one (n, m) array plus its arithmetic. `kernel_matrix(spec,
x, x)` is bitwise symmetric: numpy computes `x @ x.T` as a symmetric
rank-k update, and every later step is elementwise (the RBF norm sum
adds the same two numbers either way round).

SVM training builds no such matrix. Its solver asks for one Gram row at
a time, `kernel_matrix(spec, x[i:i+1], x, x_sq)[0]`, when it first reads
row i; the rbf norms `x_sq` of the training rows are summed once a fit.
A row product can differ from `x @ x.T` in the last bits, and the
rows need not be bitwise symmetric; the solver takes them as they are.
Training turns an overflow into a TrainingError when the row holding it
is computed, so an entry of a row that is never read cannot fail a fit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError

KERNEL_KINDS = ("linear", "poly", "rbf", "sigmoid")
# Gram entries per block of the elementwise passes (512 KiB of float64).
BLOCK = 1 << 16


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters.

    gamma=None means "resolve at training time" as 1 / (n_features * var)
    of the standardized training matrix (the matrix the kernel sees).
    """

    kind: str = "linear"
    degree: int = 3
    gamma: float | None = None
    coef0: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise InvalidInputError(f"unknown kernel {self.kind!r}")
        if (isinstance(self.degree, bool) or not isinstance(self.degree, numbers.Integral)
                or self.degree < 1):
            raise InvalidInputError(f"degree must be an integer of at least 1, got {self.degree!r}")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise InvalidInputError(f"gamma must be finite and positive, got {self.gamma!r}")
        if not math.isfinite(self.coef0):
            raise InvalidInputError(f"coef0 must be finite, got {self.coef0!r}")


def _power(base: np.ndarray, degree: int) -> np.ndarray:
    """base ** degree for an integer degree >= 1 by repeated squaring; overwrites base.

    Takes O(log degree) array passes. Degrees 1 and 2 match numpy's `**`
    bit for bit; higher degrees are within a few ulps of libm `pow`.
    """
    result = None
    while True:
        if degree & 1:
            if result is None:
                result = base if degree == 1 else base.copy()
            else:
                result *= base
        degree >>= 1
        if not degree:
            return result
        base *= base


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray,
                  b_sq: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix K[i, j] = k(a[i], b[j]) for row-vector matrices a, b.

    `b_sq`, if given, must be `np.sum(b * b, axis=1)`: the rbf kernel's
    squared norms of b, summed once by a caller that asks for many rows.
    """
    if a.shape[1] != b.shape[1]:
        raise InvalidInputError("feature dimensions differ")
    k = a @ b.T
    if spec.kind == "linear":
        return k
    gamma = spec.gamma
    if gamma is None:
        raise InvalidInputError(f"{spec.kind} kernel needs gamma resolved before evaluation")
    if spec.kind == "rbf":
        na = np.sum(a * a, axis=1)
        nb = np.sum(b * b, axis=1) if b_sq is None else b_sq
    # The elementwise passes run over blocks of rows that stay in cache.
    rows = max(1, BLOCK // max(1, k.shape[1]))
    for start in range(0, len(k), rows):
        block = k[start:start + rows]
        if spec.kind == "rbf":
            # exp(-gamma * max(|a|^2 + |b|^2 - 2 a.b, 0))
            block *= 2.0
            np.subtract(na[start:start + rows, None] + nb[None, :], block, out=block)
            np.maximum(block, 0.0, out=block)
            block *= -gamma
            np.exp(block, out=block)
        else:
            block *= gamma
            block += spec.coef0
            if spec.kind == "poly":
                np.copyto(block, _power(block, spec.degree))
            else:
                np.tanh(block, out=block)
    return k
