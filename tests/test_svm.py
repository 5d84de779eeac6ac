import dataclasses
import hashlib
import time
from unittest import mock

import numpy as np
import pytest

from thermal_sense.classifiers import svm
from thermal_sense.classifiers.kernels import KernelSpec, kernel_matrix
from thermal_sense.classifiers.svm import (
    MAX_PAIR_UPDATES,
    decision_function,
    predict_svm_batch,
    train_svm,
)
from thermal_sense.core import Label, make_folds
from thermal_sense.errors import InvalidInputError, TrainingError
from thermal_sense.evaluate import SvmSpec
from thermal_sense.persist import model_to_text
from thermal_sense.simulate import generate_main

from conftest import dataset_from_arrays
from oracles import pairwise_kernel, reference_smo


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

    @pytest.mark.parametrize("field, value", [
        ("kind", "cubic"), ("degree", 0), ("degree", -1), ("degree", 2.5), ("degree", True),
        ("degree", "3"), ("gamma", 0.0), ("gamma", np.nan), ("gamma", np.inf),
        ("coef0", np.nan), ("coef0", -np.inf),
    ])
    def test_spec_invariants(self, field, value):
        with pytest.raises(InvalidInputError, match="kernel|degree|gamma|coef0"):
            KernelSpec(**{"kind": "poly", field: value})

    def test_numpy_integer_degree_accepted(self):
        assert KernelSpec("poly", degree=np.int64(4)).degree == 4

    @pytest.mark.parametrize("kind", ["linear", "poly", "rbf", "sigmoid"])
    @pytest.mark.parametrize("n", [432, 1728])
    def test_gram_matrix_bitwise_symmetric(self, rng, kind, n):
        # A Gram matrix of one set is symmetric in its bits, not only in
        # value; SMO no longer builds it, computing single rows instead.
        x = rng.normal(0, 1, (n, 64))
        k = kernel_matrix(KernelSpec(kind, gamma=1 / 64, coef0=1.0), x, x)
        assert np.array_equal(k, k.T)

    @pytest.mark.parametrize("n", [100, 432, 1727, 1728])
    def test_training_gram_is_numpy_symmetric_product(self, rng, n):
        # kernel_matrix(spec, x, x) is numpy's x @ x.T, a symmetric rank-k
        # update. A general product of x and a copy of x.T can differ from it
        # in the last bits and need not be symmetric: with OpenBLAS 0.3.31 it
        # does at most row counts that are not a multiple of 8. SMO reads
        # single-row products, which differ from it too (TestKernelRows).
        x = rng.normal(0, 1, (n, 64))
        assert np.array_equal(kernel_matrix(KernelSpec("linear"), x, x), x @ x.T)

    @pytest.mark.parametrize("coef0", [0.0, 1.0])
    @pytest.mark.parametrize("degree", range(1, 8))
    def test_poly_matches_pow(self, rng, degree, coef0):
        a = rng.normal(0, 1, (6, 64))
        b = rng.normal(0, 1, (5, 64))
        spec = KernelSpec("poly", degree=degree, gamma=0.1, coef0=coef0)
        m = kernel_matrix(spec, a, b)
        assert (m < 0).any() or degree % 2 == 0  # odd degrees see negative bases
        for i in range(6):
            for j in range(5):
                assert m[i, j] == pytest.approx(pairwise_kernel(spec, a[i], b[j]), rel=1e-12)

    def test_huge_degree_is_prompt(self, rng):
        x = rng.normal(0, 1e-4, (4, 64))
        spec = KernelSpec("poly", degree=2 ** 20, gamma=1e-3, coef0=1.0)
        start = time.perf_counter()
        m = kernel_matrix(spec, x, x)
        assert time.perf_counter() - start < 1.0
        # 20 squarings compound rounding to about 2**20 ulps
        assert m[0, 1] == pytest.approx(pairwise_kernel(spec, x[0], x[1]), rel=1e-8)


class TestKernelRows:
    """SMO computes each Gram row on first read, once, and nothing else."""

    @pytest.mark.parametrize("kind", ["linear", "poly", "rbf", "sigmoid"])
    @pytest.mark.parametrize("n", [432, 1727])
    def test_same_solution_as_all_rows(self, rng, kind, n):
        x = rng.normal(0, 1, (n, 64))
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        x[:, 0] += 2.5 * y
        spec = KernelSpec(kind, gamma=1 / 64, coef0=1.0)
        every_row = np.vstack([svm._KernelRows(spec, x)[i] for i in range(n)])
        # At 1,727 rows the single-row products are not bitwise symmetric,
        # so reading rows for columns is not exact there.
        assert np.array_equal(every_row, every_row.T) == (n == 432)
        rows = svm._KernelRows(spec, x)
        alpha, bias = svm._smo(rows, y, 1.0, 1e-3, MAX_PAIR_UPDATES)
        want_alpha, want_bias = svm._smo(every_row, y, 1.0, 1e-3, MAX_PAIR_UPDATES)
        assert np.array_equal(alpha, want_alpha)
        assert bias == want_bias
        assert 0 < len(rows) < n

    @pytest.mark.parametrize("kind", ["linear", "poly", "rbf", "sigmoid"])
    def test_fold_reads_few_rows_once_each(self, main_fold, monkeypatch, kind):
        reads, products = [], []
        missing = svm._KernelRows.__missing__
        kernel_rows = svm.kernel_matrix
        monkeypatch.setattr(svm._KernelRows, "__missing__",
                            lambda rows, i: reads.append(i) or missing(rows, i))
        monkeypatch.setattr(svm, "kernel_matrix",
                            lambda *args: products.append(args[1].shape) or kernel_rows(*args))
        train_svm(main_fold, KernelSpec(kind))
        n = len(main_fold)
        assert 0 < len(reads) < n / 4
        assert len(set(reads)) == len(reads)
        assert products == [(1, 64)] * len(reads)

    def test_overflow_in_a_row_read_mid_solve(self):
        x = np.zeros((21, 64))
        y = np.where(np.arange(21) % 2 == 0, 1.0, -1.0)
        x[:20, :2] = np.random.default_rng(20240811).normal(0, 0.5, (20, 2))
        x[:20, 0] += y[:20]
        # Orthogonal to every other row, so only its own entry overflows.
        x[20, 63] = 10.0
        rows = svm._KernelRows(KernelSpec("poly", degree=200, gamma=1.0, coef0=1.0), x)
        with pytest.raises(TrainingError, match="^poly kernel overflows on the training set"):
            svm._smo(rows, y, 1.0, 1e-3, 1000)
        assert 20 not in rows and len(rows) >= 2  # the rows read before it were finite
        assert all(np.isfinite(row).all() for row in rows.values())


KERNELS = ("linear", "poly", "rbf", "sigmoid")


def smo_outcome(solver, rows, y, c, max_iter):
    """(alpha bits, bias bits) of a solve, or the message of its TrainingError."""
    try:
        alpha, bias = solver(rows, y, c, 1e-3, max_iter)
    except TrainingError as exc:
        return str(exc)
    return alpha.tobytes(), np.float64(bias).tobytes()


def smo_cases(rng):
    """(name, rows, labels) problems: the four kernels on random and tied data."""
    for trial in range(48):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 8))
        if trial % 3 == 0:
            x = rng.integers(-2, 3, (n, d)).astype(float)  # repeated rows and kernel values
        else:
            x = rng.normal(0, 1, (n, d))
        y = np.where(rng.integers(0, 2, n) == 1, 1.0, -1.0)
        y[:2] = 1.0, -1.0
        spec = KernelSpec(KERNELS[trial % 4], degree=int(rng.integers(1, 4)),
                          gamma=float(rng.uniform(0.05, 1.0)), coef0=float(rng.uniform(-1, 1)))
        yield f"{trial} {spec.kind}", kernel_matrix(spec, x, x), y
    # Ties: twelve copies of one point under both labels (a Gram matrix of
    # one value), and six points each given both labels.
    y = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    yield "one point, both labels", np.ones((12, 12)), y
    x = np.repeat(rng.normal(0, 1, (6, 3)), 2, axis=0)
    yield "tied pairs", kernel_matrix(KernelSpec("rbf", gamma=0.5), x, x), y


class TestSmoOracle:
    """The solver against the one that keeps the gradient, bit for bit."""

    @pytest.mark.parametrize("c", [0.01, 1.0, 37.5, 1e6])
    def test_random_problems(self, rng, c):
        for name, k, y in smo_cases(rng):
            for max_iter in (1, 7, 3000):
                got = smo_outcome(svm._smo, k, y, c, max_iter)
                assert got == smo_outcome(reference_smo, k, y, c, max_iter), (name, max_iter)

    def test_caps_raise_the_same_message(self, rng):
        x = rng.normal(0, 1, (40, 5))
        y = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
        k = kernel_matrix(KernelSpec("linear"), x, x)
        for max_iter in (0, 1, 2, 10):
            got = smo_outcome(svm._smo, k, y, 1.0, max_iter)
            assert got.startswith(f"SMO did not converge in {max_iter} pair updates")
            assert got == smo_outcome(reference_smo, k, y, 1.0, max_iter)

    @pytest.mark.parametrize("kind", KERNELS)
    def test_fold_rows_on_demand(self, main_fold, kind):
        prep = svm._standardized(main_fold)
        x_std, y = prep.x_std, prep.y
        spec = svm._resolve_kernel(KernelSpec(kind), prep)
        got = smo_outcome(svm._smo, svm._KernelRows(spec, x_std), y, 1.0, MAX_PAIR_UPDATES)
        want = smo_outcome(reference_smo, svm._KernelRows(spec, x_std), y, 1.0,
                           MAX_PAIR_UPDATES)
        assert got == want

    def test_rbf_rows_with_summed_norms(self, rng):
        x = rng.normal(0, 3, (300, 64))
        spec = KernelSpec("rbf", gamma=0.01)
        x_sq = np.sum(x * x, axis=1)
        rows = svm._KernelRows(spec, x)
        for i in (0, 17, 299):
            want = kernel_matrix(spec, x[i:i + 1], x)
            assert np.array_equal(kernel_matrix(spec, x[i:i + 1], x, x_sq), want)
            assert np.array_equal(rows[i], want[0])


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

    def test_single_class_builds_no_record(self):
        ds = dataset_from_arrays(np.zeros((3, 64)), [1, 1, 1])
        with mock.patch.object(svm, "_standardized", wraps=svm._standardized) as build:
            with pytest.raises(InvalidInputError,
                               match="^training set must contain both classes$"):
                train_svm(ds, KernelSpec("rbf"))
        assert build.call_count == 0

    def test_models_of_one_set_share_its_record(self, rng):
        x = rng.normal(25, 2, (40, 64))
        ds = dataset_from_arrays(x, np.arange(40) % 2)
        models = [train_svm(ds, KernelSpec(kind)) for kind in KERNELS]
        prep = ds.derived(svm._standardized)
        mean, scale = svm.standardize_fit(x)
        x_std = (x - mean) / scale
        assert np.array_equal(prep.mean, mean) and np.array_equal(prep.scale, scale)
        assert np.array_equal(prep.x_std, x_std) and prep.var == float(x_std.var())
        assert np.array_equal(prep.y, np.where(ds.y == Label.PERSON, 1.0, -1.0))
        for arr in (prep.mean, prep.scale, prep.x_std, prep.y):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        for model in models:
            assert np.shares_memory(model.feature_mean, prep.mean)
            assert np.shares_memory(model.feature_scale, prep.scale)
        assert models[2].kernel.gamma == 1.0 / (64 * float(x_std.var()))

    def test_model_arrays_are_read_only(self, rng):
        mean = rng.normal(0, 1, 64)
        model = svm.SvmModel(KernelSpec("linear"), 1.0, mean, np.ones(64), np.zeros((2, 64)),
                             np.array([0.5, 0.5]), np.array([-1.0, 1.0]), 0.0)
        assert mean.flags.writeable  # the caller's array keeps its flags
        trained = train_svm(dataset_from_arrays(rng.normal(0, 1, (20, 64)), np.arange(20) % 2),
                            KernelSpec("rbf"))
        for m in (model, trained):
            for name in ("feature_mean", "feature_scale", "support_x", "support_alpha",
                         "support_y"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(m, name)[...] = 0.0

    def test_single_class_rejected(self):
        ds = dataset_from_arrays(np.zeros((3, 64)), [1, 1, 1])
        with pytest.raises(InvalidInputError, match="^training set must contain both classes$"):
            train_svm(ds, KernelSpec("linear"))

    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
    def test_c_must_be_finite_and_positive(self, c):
        x = embedded([[-1.0], [1.0]])
        model = train_svm(dataset_from_arrays(x, [0, 1]), KernelSpec("linear"))
        for build in (lambda: train_svm(dataset_from_arrays(x, [0, 1]), KernelSpec("linear"), c=c),
                      lambda: SvmSpec(c=c),
                      lambda: dataclasses.replace(model, c=c)):
            with pytest.raises(InvalidInputError, match="C must be finite and positive"):
                build()

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_feature_scale_must_be_finite_and_positive(self, value):
        x = embedded([[-1.0], [1.0]])
        model = train_svm(dataset_from_arrays(x, [0, 1]), KernelSpec("linear"))
        scale = model.feature_scale.copy()
        scale[5] = value
        with pytest.raises(InvalidInputError,
                           match=r"^feature scale 5 must be finite and positive, got "):
            dataclasses.replace(model, feature_scale=scale)

    def test_model_needs_resolved_gamma(self):
        x = embedded([[-1.0], [1.0]])
        model = train_svm(dataset_from_arrays(x, [0, 1]), KernelSpec("rbf"))
        with pytest.raises(InvalidInputError, match="resolved gamma"):
            dataclasses.replace(model, kernel=KernelSpec("rbf"))

    def test_kernel_overflow_is_a_training_error(self, rng):
        x = rng.normal(0, 1, (20, 64))
        y = np.arange(20) % 2
        with pytest.raises(TrainingError, match="poly kernel overflows"):
            train_svm(dataset_from_arrays(x, y), KernelSpec("poly", degree=10 ** 6, coef0=1.0))

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


# SHA-256 of the model file trained on fold 0 of main(240, seed 7), 10 folds,
# recorded after SMO switched to single-row kernel products computed on
# first read (linear 20 -> 18 support vectors, the others unchanged).
GOLDEN_MODEL_FILES = {
    "linear": "58b38675a39cc5c0f26caa3be4a5c0c4e2d3ea3fbd1eb1f5c81bb06eb2c73dbb",
    "poly": "eeb872db9893c42175fd4bc8cb0a453a7aaf75701f4b313c29acbac787fb5d95",
    "rbf": "71c7f159f7fe5634efa4fb1b95f364d7a5b4a144d979ec6a8f55bb44623ea748",
    "sigmoid": "afb1d272d8009009975e7b63656042cf534294ae648b18a667a84024ed3caeec",
}


def training_fold(n_per_class):
    """Fold 0's training rows of main(n_per_class, seed 7), 10 folds."""
    ds = generate_main(n_per_class, 7)
    assignment = np.array(make_folds(ds, 10, 7).assignment)
    return ds.subset(np.flatnonzero(assignment != 0))


@pytest.fixture(scope="module")
def main_fold():
    return training_fold(960)


class TestGoldenModelFiles:
    @pytest.fixture(scope="class")
    def fold(self):
        return training_fold(240)

    @pytest.mark.parametrize("kind", sorted(GOLDEN_MODEL_FILES))
    def test_model_file_digest(self, fold, kind):
        text = model_to_text(train_svm(fold, KernelSpec(kind)))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MODEL_FILES[kind]


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
