"""Kernel functions shared by the SVM."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError

KERNEL_KINDS = ("linear", "poly", "rbf", "sigmoid")


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
        if self.gamma is not None and self.gamma <= 0:
            raise InvalidInputError("gamma must be positive")
        if self.degree < 1:
            raise InvalidInputError("degree must be at least 1")


def _resolve_gamma(spec: KernelSpec) -> float:
    if spec.kind == "linear":
        return 0.0
    if spec.gamma is None:
        raise InvalidInputError(f"{spec.kind} kernel needs gamma resolved before evaluation")
    return spec.gamma


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix K[i, j] = k(a[i], b[j]) for row-vector matrices a, b."""
    if a.shape[1] != b.shape[1]:
        raise InvalidInputError("feature dimensions differ")
    if spec.kind == "linear":
        return a @ b.T
    gamma = _resolve_gamma(spec)
    if spec.kind == "poly":
        return (gamma * (a @ b.T) + spec.coef0) ** spec.degree
    if spec.kind == "sigmoid":
        return np.tanh(gamma * (a @ b.T) + spec.coef0)
    # rbf
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))

