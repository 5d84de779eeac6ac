"""Independent reference implementations used to check the library.

These deliberately avoid the library's code paths: plain-Python loops,
full sorts, and exact rational arithmetic where the contract demands
exactness.
"""

import math
from fractions import Fraction


def brute_force_knn(train_x, train_y, k, weighting, query):
    """Reference k-NN: full sort of (distance, index), explicit vote recount."""
    dists = []
    for i, row in enumerate(train_x):
        total = 0.0
        for a, b in zip(row, query):
            total += (a - b) ** 2
        dists.append((math.sqrt(total), i))
    dists.sort(key=lambda pair: (pair[0], pair[1]))
    top = dists[:k]

    if weighting == "distance" and any(d == 0.0 for d, _ in top):
        zero_labels = [train_y[i] for d, i in top if d == 0.0]
        person = sum(1 for lab in zero_labels if lab == 1)
        return 1 if person > len(zero_labels) - person else 0

    person_w = 0.0
    no_person_w = 0.0
    for d, i in top:
        w = 1.0 if weighting == "uniform" else 1.0 / d
        if train_y[i] == 1:
            person_w += w
        else:
            no_person_w += w
    return 1 if person_w > no_person_w else 0


def direct_count_metrics(predicted, truth):
    """Counts by direct enumeration; metrics as exact Fractions (None if undefined)."""
    tp = tn = fp = fn = 0
    for p, t in zip(predicted, truth):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 0:
            tn += 1
        else:
            fn += 1
    total = tp + tn + fp + fn
    acc = Fraction(tp + tn, total) if total else None
    sens = Fraction(tp, tp + fn) if tp + fn else None
    spec = Fraction(tn, tn + fp) if tn + fp else None
    return (tp, fp, tn, fn), acc, sens, spec


def central_difference_gradient(loss_fn, theta, h=1e-5):
    import numpy as np

    grad = np.empty_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2.0 * h)
    return grad


def pairwise_kernel(spec, x, y):
    """Reference kernel value for one pair of equal-length vectors.

    Textbook formulas on a single pair; the gamma of a non-linear spec
    must already be resolved.
    """
    import numpy as np

    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    assert xv.shape == yv.shape and xv.ndim == 1
    dot = float(xv @ yv)
    if spec.kind == "linear":
        return dot
    if spec.kind == "poly":
        return (spec.gamma * dot + spec.coef0) ** spec.degree
    if spec.kind == "sigmoid":
        return math.tanh(spec.gamma * dot + spec.coef0)
    diff = xv - yv
    return math.exp(-spec.gamma * float(diff @ diff))
