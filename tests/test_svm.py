import dataclasses

import numpy as np
import pytest

from thermal_sense.classifiers.kernels import KernelSpec, kernel_matrix
from thermal_sense.classifiers.svm import (
    decision_function,
    predict_svm_batch,
    train_svm,
)
from thermal_sense.core import Label
from thermal_sense.errors import InvalidInputError, StratificationError, TrainingError

from conftest import dataset_from_arrays
from oracles import pairwise_kernel


def predict_one(model, x):
    return predict_svm_batch(model, np.asarray(x)[None, :])[0]


def embedded(points):
    x = np.zeros((len(points), 64))
    for i, p in enumerate(points):
        x[i, : len(p)] = p
    return x


XOR_X = embedded([[0, 0], [0, 1], [1, 0], [1, 1]])
XOR_Y = [0, 1, 1, 0]


def kernel_pair(spec, x, y):
    """The library's kernel on one pair, after checking it against the oracle."""
    value = float(kernel_matrix(spec, x[None, :], y[None, :])[0, 0])
    assert value == pytest.approx(pairwise_kernel(spec, x, y), rel=1e-12)
    return value


class TestKernels:
    def test_rbf_at_zero_distance(self):
        x = np.arange(64, dtype=float)
        assert kernel_pair(KernelSpec("rbf", gamma=0.5), x, x) == pytest.approx(1.0)

    def test_linear_self_is_squared_norm(self):
        x = np.arange(64, dtype=float)
        assert kernel_pair(KernelSpec("linear"), x, x) == pytest.approx(float(x @ x))

    def test_poly_degree_two(self):
        x = np.zeros(64)
        y = np.zeros(64)
        x[0], y[0] = 3.0, 1.0  # x . y = 3
        assert kernel_pair(KernelSpec("poly", degree=2, gamma=1.0, coef0=0.0), x, y) == 9.0

    def test_sigmoid(self):
        x = np.zeros(4)
        y = np.zeros(4)
        x[0], y[0] = 2.0, 1.0
        spec = KernelSpec("sigmoid", gamma=0.5, coef0=-1.0)
        assert kernel_pair(spec, x, y) == pytest.approx(np.tanh(0.0))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            kernel_matrix(KernelSpec("linear"), np.zeros((1, 3)), np.zeros((1, 4)))

    def test_matrix_agrees_with_eval(self, rng):
        a = rng.normal(0, 1, (5, 64))
        b = rng.normal(0, 1, (4, 64))
        for spec in (
            KernelSpec("linear"),
            KernelSpec("rbf", gamma=0.1),
            KernelSpec("poly", gamma=0.2, coef0=1.0),
            KernelSpec("sigmoid", gamma=0.05, coef0=-0.5),
        ):
            m = kernel_matrix(spec, a, b)
            for i in range(5):
                for j in range(4):
                    assert m[i, j] == pytest.approx(pairwise_kernel(spec, a[i], b[j]), rel=1e-12)

    def test_gamma_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            KernelSpec("rbf", gamma=-1.0)


def max_kkt_violation(model, x, y01, c):
    """Recompute y_i f(x_i) from scratch through the pairwise oracle."""
    x_std = (x - model.feature_mean) / model.feature_scale
    y = np.where(np.asarray(y01) == 1, 1.0, -1.0)
    f = np.array(
        [
            sum(
                a * sy * pairwise_kernel(model.kernel, sv, q)
                for a, sy, sv in zip(model.support_alpha, model.support_y, model.support_x)
            )
            + model.bias
            for q in x_std
        ]
    )
    alphas = np.zeros(len(x_std))
    sv_i = 0
    for i in range(len(x_std)):
        if (
            sv_i < len(model.support_x)
            and y[i] == model.support_y[sv_i]
            and np.array_equal(x_std[i], model.support_x[sv_i])
        ):
            alphas[i] = model.support_alpha[sv_i]
            sv_i += 1
    assert sv_i == len(model.support_x)
    worst = 0.0
    for a, v in zip(alphas, y * f):
        if a == 0.0:
            worst = max(worst, 1.0 - v)
        elif a >= c:
            worst = max(worst, v - 1.0)
        else:
            worst = max(worst, abs(v - 1.0))
    return worst


class TestTrain:
    def test_two_point_analytic_solution(self):
        x = embedded([[-1.0], [1.0]])
        model = train_svm(dataset_from_arrays(x, [0, 1]), KernelSpec("linear"), c=1e6)
        w = (model.support_alpha * model.support_y) @ model.support_x
        assert w[0] == pytest.approx(1.0, abs=1e-3)
        assert model.bias == pytest.approx(0.0, abs=1e-3)
        assert 2.0 / np.linalg.norm(w) == pytest.approx(2.0, abs=1e-3)

    def test_hard_margin_fits_separable_data(self, rng):
        x = rng.normal(0, 1, (40, 64))
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        x[y == 1, 3] += 6.0
        ds = dataset_from_arrays(x, y)
        model = train_svm(ds, KernelSpec("linear"), c=1e6)
        preds = predict_svm_batch(model, x)
        assert np.array_equal(preds, y)

    def test_xor_not_linearly_separable(self):
        model = train_svm(dataset_from_arrays(XOR_X, XOR_Y), KernelSpec("linear"), c=1.0)
        acc = np.mean(predict_svm_batch(model, XOR_X) == XOR_Y)
        assert acc <= 0.75

    def test_single_class_rejected(self):
        ds = dataset_from_arrays(np.zeros((3, 64)), [1, 1, 1])
        with pytest.raises(StratificationError):
            train_svm(ds, KernelSpec("linear"))

    def test_iteration_cap(self, rng):
        x = rng.normal(0, 1, (30, 64))
        y = rng.integers(0, 2, 30)
        y[:2] = [0, 1]
        with pytest.raises(TrainingError, match="KKT violation"):
            train_svm(dataset_from_arrays(x, y), KernelSpec("linear"), max_iter=2)

    def test_kkt_on_random_instances(self, rng):
        kernels = [
            KernelSpec("linear"),
            KernelSpec("rbf"),
            KernelSpec("poly", coef0=1.0),
            KernelSpec("sigmoid", coef0=-1.0),
        ]
        for trial in range(24):
            n = int(rng.integers(8, 40))
            x = rng.normal(0, 1, (n, 64))
            y = rng.integers(0, 2, n)
            y[:2] = [0, 1]
            if trial % 2 == 0:
                x[y == 1, 0] += 4.0  # separable half the time
            c = float(rng.choice([0.1, 1.0, 10.0]))
            model = train_svm(dataset_from_arrays(x, y), kernels[trial % 4], c=c, tol=1e-3)
            assert np.all(model.support_alpha >= 0.0)
            assert np.all(model.support_alpha <= c)
            assert abs(float(model.support_alpha @ model.support_y)) <= 1e-8
            assert max_kkt_violation(model, x, y, c) <= 1e-3


class TestPredict:
    def test_toy_sides(self):
        x = embedded([[-1.0], [1.0]])
        model = train_svm(dataset_from_arrays(x, [0, 1]), KernelSpec("linear"), c=1e6)
        probe = np.zeros(64)
        probe[0] = 0.5
        assert predict_one(model, probe) == Label.PERSON
        assert predict_one(model, -probe) == Label.NO_PERSON

    def test_support_vector_on_its_own_side(self):
        x = embedded([[-1.0], [1.0]])
        model = train_svm(dataset_from_arrays(x, [0, 1]), KernelSpec("linear"), c=1e6)
        assert predict_one(model, x[1]) == Label.PERSON

    def test_tie_at_zero_is_person(self):
        x = embedded([[-1.0], [1.0]])
        model = train_svm(dataset_from_arrays(x, [0, 1]), KernelSpec("linear"), c=1e6)
        assert abs(decision_function(model, np.zeros((1, 64)))[0]) < 1e-9
        assert predict_one(model, np.zeros(64)) == Label.PERSON

    def test_wrong_query_width(self):
        x = embedded([[-1.0], [1.0]])
        model = train_svm(dataset_from_arrays(x, [0, 1]), KernelSpec("linear"), c=1e6)
        with pytest.raises(InvalidInputError):
            predict_svm_batch(model, np.zeros((1, 63)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, value):
        x = embedded([[-1.0], [1.0]])
        model = train_svm(dataset_from_arrays(x, [0, 1]), KernelSpec("linear"), c=1e6)
        queries = np.zeros((2, 64))
        queries[1, 5] = value
        with pytest.raises(InvalidInputError, match="non-finite"):
            predict_svm_batch(model, queries)

    def test_support_labels_must_be_signs(self):
        x = embedded([[-1.0], [1.0]])
        model = train_svm(dataset_from_arrays(x, [0, 1]), KernelSpec("linear"), c=1e6)
        with pytest.raises(InvalidInputError, match="support labels"):
            dataclasses.replace(model, support_y=model.support_y * 2)

    def test_translation_invariance(self, rng):
        x = rng.normal(25, 2, (30, 64))
        y = rng.integers(0, 2, 30)
        y[:2] = [0, 1]
        x[y == 1] += 0.75  # quarter-exact shift keeps arithmetic identical
        queries = rng.normal(25, 2, (10, 64))
        model = train_svm(dataset_from_arrays(x, y), KernelSpec("linear"))
        shifted = train_svm(dataset_from_arrays(x + 1.0, y), KernelSpec("linear"))
        assert np.array_equal(
            predict_svm_batch(model, queries),
            predict_svm_batch(shifted, queries + 1.0),
        )
