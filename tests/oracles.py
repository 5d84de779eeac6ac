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


def per_row_knn(train_x, train_y, k, weighting, query):
    """Reference k-NN as numpy arithmetic, one query at a time.

    The predictor before candidate search, verbatim: per-row broadcast
    distance summed over the contiguous feature axis, full stable
    argsort, then the vote. Its distances are bit-identical to the
    library's, so the two must agree on every finite input.
    """
    import numpy as np

    d = np.sqrt(np.sum((train_x - query) ** 2, axis=1))
    order = np.argsort(d, kind="stable")[:k]
    return per_row_vote(train_y[order], d[order], weighting)


def per_row_vote(labels, dists, weighting):
    """Reference vote of one query from its neighbors' labels (0/1) and sorted distances."""
    import numpy as np
    from thermal_sense.core import Label

    if weighting == "distance":
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


def walk_dataset_csv(text, path="<memory>"):
    """Reference dataset CSV reader: every token of every row checked in order.

    The reader before its whole-row fast path, verbatim apart from
    returning plain arrays: (x, labels, condition codes), or the
    DataFormatError whose message the library must raise byte for byte.
    """
    import numpy as np
    from thermal_sense.core import CONDITIONS, GRID_SIZE, TEMP_MAX_C, TEMP_MIN_C, Label
    from thermal_sense.errors import DataFormatError

    pixel_fields = [f"p{r}{c}" for r in range(GRID_SIZE) for c in range(GRID_SIZE)]
    header = ",".join(pixel_fields + ["label", "condition"])
    labels = [Label(i).to_text() for i in range(2)]
    conditions = [tag.value for tag in CONDITIONS]

    def temperature(tok, lineno, field):
        whole, dot, frac = tok.partition(".")
        if not (whole.isdigit() and dot and len(frac) == 2 and frac.isdigit()
                and tok.isascii()):
            raise DataFormatError(f"{path}:{lineno}: field {field}: malformed temperature {tok!r}")
        value = float(tok)
        if not (TEMP_MIN_C <= value <= TEMP_MAX_C) or not (value * 4).is_integer():
            raise DataFormatError(
                f"{path}:{lineno}: field {field}: {tok} is not a quarter degree in [20, 100]")
        return value

    if "\r" in text:
        raise DataFormatError(f"{path}: CR line endings are not accepted")
    if not text.endswith("\n"):
        raise DataFormatError(f"{path}: missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != header:
        raise DataFormatError(f"{path}:1: bad or missing header")
    x, y, codes = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(pixel_fields) + 2:
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(pixel_fields) + 2} fields, got {len(fields)}")
        x.append([temperature(tok, lineno, field) for field, tok in zip(pixel_fields, fields)])
        if fields[-2] not in labels:
            raise DataFormatError(f"{path}:{lineno}: field label: unknown label {fields[-2]!r}")
        y.append(labels.index(fields[-2]))
        if fields[-1] not in conditions:
            raise DataFormatError(
                f"{path}:{lineno}: field condition: unknown condition {fields[-1]!r}")
        codes.append(conditions.index(fields[-1]))
    x = np.array(x, dtype=np.float64).reshape(-1, len(pixel_fields))
    return x, np.array(y), np.array(codes)


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


def reference_smo(rows, y, c, tol, max_iter):
    """Reference SMO: the solver that keeps the gradient itself, verbatim.

    It updates grad += y * step * (k_i - k_j) and forms -y * grad afresh
    at every pair update, with alpha as an array. The library keeps
    -y * grad instead and must match it bit for bit: same alphas, same
    bias, same non-convergence message.
    """
    import numpy as np
    from thermal_sense.errors import TrainingError

    n = len(y)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0
    neg_y = -y
    pos = y > 0
    # Membership of I_up and I_low as additive masks: 0 where alpha[t] may
    # move that way, -inf (up) or +inf (low) where it is at its bound. Only
    # alpha[i] and alpha[j] change in an update, so only they are refreshed.
    up_mask = np.where(pos, 0.0, -np.inf)
    low_mask = np.where(pos, np.inf, 0.0)
    yg, masked, step_y, diff = (np.empty(n) for _ in range(4))

    for _ in range(max_iter):
        np.multiply(neg_y, grad, out=yg)
        # argmax/argmin return the first extreme index, as over the
        # compacted index sets I_up and I_low.
        i = int(np.add(yg, up_mask, out=masked).argmax())
        j = int(np.add(yg, low_mask, out=masked).argmin())
        m_up, m_low = float(yg[i]), float(yg[j])
        if m_up - m_low <= tol:
            break

        ki, kj = rows[i], rows[j]
        quad = float(ki[i] + kj[j] - 2.0 * ki[j])
        step = (m_up - m_low) / max(quad, 1e-12)
        room_i = c - alpha[i] if y[i] > 0 else alpha[i]
        room_j = alpha[j] if y[j] > 0 else c - alpha[j]
        step = float(min(step, room_i, room_j))
        # Snap exactly onto the box bound so alpha stays in [0, C] bitwise.
        if step == room_i:
            alpha[i] = c if y[i] > 0 else 0.0
        else:
            alpha[i] += y[i] * step
        if step == room_j:
            alpha[j] = 0.0 if y[j] > 0 else c
        else:
            alpha[j] -= y[j] * step
        for t in (i, j):
            below_c, above_0 = alpha[t] < c, alpha[t] > 0
            up_mask[t] = 0.0 if (below_c if pos[t] else above_0) else -np.inf
            low_mask[t] = 0.0 if (above_0 if pos[t] else below_c) else np.inf
        # grad += step * y * (k[:, i] - k[:, j]), in place
        np.multiply(y, step, out=step_y)
        np.subtract(ki, kj, out=diff)
        step_y *= diff
        grad += step_y
    else:
        np.multiply(neg_y, grad, out=yg)
        violation = float(np.max(yg + up_mask) - np.min(yg + low_mask))
        raise TrainingError(
            f"SMO did not converge in {max_iter} pair updates; max KKT violation {violation:.3e}"
        )

    free = (alpha > 0) & (alpha < c)
    if free.any():
        bias = float(np.mean((-y * grad)[free]))
    else:
        bias = float((m_up + m_low) / 2.0)
    return alpha, bias
