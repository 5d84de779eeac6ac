import dataclasses
import hashlib

import numpy as np
import pytest

from thermal_sense.classifiers import nn
from thermal_sense.classifiers.nn import (
    TrainingParams,
    flatten_weights,
    nn_gradient,
    nn_loss,
    predict_nn_batch,
    replace_weights,
    train_nn,
)
from thermal_sense.core import Dataset, Label, make_folds
from thermal_sense.errors import ConfigError, InvalidInputError, TrainingError
from thermal_sense.evaluate import derive_seed
from thermal_sense.simulate import generate_main

from conftest import dataset_from_arrays


def predict_one(model, x):
    return predict_nn_batch(model, np.asarray(x)[None, :])[0]
from oracles import central_difference_gradient


def embedded(points):
    x = np.zeros((len(points), 64))
    for i, p in enumerate(points):
        x[i, : len(p)] = p
    return x


XOR_DS = dataset_from_arrays(embedded([[0, 0], [0, 1], [1, 0], [1, 1]]), [0, 1, 1, 0])


def random_batch(rng, n):
    x = rng.normal(0, 1, (n, 64))
    y = rng.integers(0, 2, n)
    if len(set(y.tolist())) < 2:
        y[0] = 1 - y[0]
    return dataset_from_arrays(x, y)


def zeroed(model):
    return replace_weights(model, np.zeros_like(flatten_weights(model)))


class TestTrain:
    def test_hidden_width_bounds(self):
        with pytest.raises(ConfigError):
            train_nn(XOR_DS, 0)
        with pytest.raises(ConfigError):
            train_nn(XOR_DS, 2048)

    @pytest.mark.parametrize("fields, message", [
        ((0.0, 8, 10), "learning rate must be finite and positive, got 0.0"),
        ((float("nan"), 8, 10), "learning rate must be finite and positive, got nan"),
        ((float("inf"), 8, 10), "learning rate must be finite and positive, got inf"),
        ((0.1, 0, 10), "batch size must be at least 1, got 0"),
        ((0.1, 8, -5), "epochs must be at least 1, got -5"),
    ])
    def test_training_params_invariants(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            TrainingParams(*fields)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_feature_scale_must_be_finite_and_positive(self, rng, value):
        model = train_nn(random_batch(rng, 10), 4, TrainingParams(0.1, 4, 1), 0)
        scale = model.feature_scale.copy()
        scale[0] = value
        with pytest.raises(InvalidInputError, match="^feature scale 0 must be finite and positive"):
            dataclasses.replace(model, feature_scale=scale)

    def test_deterministic_in_seed(self, rng):
        ds = random_batch(rng, 20)
        hp = TrainingParams(0.05, 8, 10)
        a = train_nn(ds, 6, hp, seed=4)
        b = train_nn(ds, 6, hp, seed=4)
        assert np.array_equal(flatten_weights(a), flatten_weights(b))

    def test_divergence_raises(self, rng):
        ds = random_batch(rng, 20)
        with pytest.raises(TrainingError, match="^loss diverged at epoch 4$"):
            train_nn(ds, 8, TrainingParams(1e12, 8, 50), seed=0)

    @pytest.mark.parametrize("lr, epoch", [(1e3, 19), (50.0, 34)])
    def test_divergence_epoch(self, rng, lr, epoch):
        ds = random_batch(rng, 20)
        with pytest.raises(TrainingError, match=f"^loss diverged at epoch {epoch}$"):
            train_nn(ds, 8, TrainingParams(lr, 8, 50), seed=0)

    def test_xor_reaches_full_training_accuracy(self):
        model = train_nn(XOR_DS, 4, TrainingParams(0.1, 4, 2000), seed=0)
        preds = predict_nn_batch(model, XOR_DS.feature_matrix())
        assert np.array_equal(preds, XOR_DS.y)

    def test_finite_weights(self, rng):
        model = train_nn(random_batch(rng, 30), 16, TrainingParams(0.01, 8, 20), seed=1)
        assert np.all(np.isfinite(flatten_weights(model)))


@pytest.fixture(scope="module")
def main_fold():
    """Training part of fold 0 of a 10-fold plan on main(240): 432 rows."""
    main = generate_main(240, 7)
    assignment = np.array(make_folds(main, 10, 7).assignment)
    return main.subset(np.flatnonzero(assignment != 0))


class TestGoldenWeights:
    """SHA-256 of the trained weights' bytes, recorded before the training
    loop was rewritten around flat buffers; any float reordering shows."""

    @pytest.mark.parametrize("case, hidden, params, seed, digest", [
        # NN(128) as in the paper; 432 = 13 * 32 + 16, so the last batch is ragged
        ("fold", 128, TrainingParams(0.01, 32, 20), derive_seed(7, 0),
         "97512018a04e47ed884e4725c66de44724349a91a97f5f0187da437d205dbdb5"),
        ("small", 16, TrainingParams(0.05, 64, 30), 3,  # batch larger than n
         "1d1daff2fb3a981e52cfc8f305385aa7de23795c3824ffc58bcb1ef85be3b4f1"),
        ("fold", 1, TrainingParams(0.01, 32, 10), 5,
         "143e8c0f4069ad7937c455a4ce09e9f659f68d7cc2e0bebb45d8334ec56f0321"),
        ("small", 5, TrainingParams(0.05, 7, 40), 7,  # 22 = 3 * 7 + 1
         "3770f618e753488da9224b9f34b046573dca9e1020cc7b13520f67b0d9c81084"),
    ])
    def test_weight_bytes(self, main_fold, case, hidden, params, seed, digest):
        ds = main_fold if case == "fold" else main_fold.subset(range(0, len(main_fold), 20))
        model = train_nn(ds, hidden, params, seed)
        assert hashlib.sha256(flatten_weights(model).tobytes()).hexdigest() == digest


class TestModelShapes:
    @pytest.mark.parametrize("field, shape", [
        ("w1", (63, 4)), ("b1", (3,)), ("b1", (4, 1)), ("w2", (4, 3)), ("b2", (3,)),
        ("feature_mean", (63,)), ("feature_scale", (65,)),
    ])
    def test_mismatched_shapes_rejected(self, rng, field, shape):
        model = train_nn(random_batch(rng, 10), 4, TrainingParams(0.1, 4, 1), 0)
        with pytest.raises(InvalidInputError):
            dataclasses.replace(model, **{field: np.zeros(shape)})


class TestGradient:
    def test_matches_central_differences(self, rng):
        worst = 0.0
        for trial in range(6):
            hidden = int(rng.integers(1, 20))
            batch = random_batch(rng, int(rng.integers(2, 10)))
            model = train_nn(batch, hidden, TrainingParams(0.05, 4, 3), seed=trial)
            analytic = nn_gradient(model, batch)
            numeric = central_difference_gradient(
                lambda t: nn_loss(replace_weights(model, t), batch),
                flatten_weights(model),
            )
            rel = np.abs(analytic - numeric) / np.maximum.reduce(
                [np.ones_like(analytic), np.abs(analytic), np.abs(numeric)]
            )
            worst = max(worst, float(rel.max()))
        assert worst < 1e-5

    def test_duplicated_batch_keeps_mean_gradient(self, rng):
        batch = random_batch(rng, 6)
        model = train_nn(batch, 8, TrainingParams(0.05, 4, 3), seed=0)
        doubled = Dataset(np.vstack([batch.x, batch.x]), np.concatenate([batch.y, batch.y]),
                          name="doubled")
        assert np.allclose(nn_gradient(model, batch), nn_gradient(model, doubled),
                           rtol=0, atol=1e-15)

    def test_small_gradient_at_converged_minimum(self, rng):
        x = embedded([[-2.0], [-1.5], [1.5], [2.0]])
        ds = dataset_from_arrays(x, [0, 0, 1, 1])
        model = train_nn(ds, 8, TrainingParams(0.5, 4, 4000), seed=1)
        assert np.linalg.norm(nn_gradient(model, ds)) < 1e-3


class TestMeanLoss:
    def test_row_sums_pick_the_true_class_probability(self, rng):
        # softmax rows as _step leaves them: in [0, 1], or NaN in both columns
        p1 = np.concatenate([rng.random(200), [0.0, 1.0, 5e-324, 1 - 2 ** -53, np.nan]])
        probs = np.column_stack([1.0 - p1, p1])
        y = rng.integers(0, 2, len(p1))
        y[-5:] = 1
        # the whole block, the block without its NaN row, and each row alone
        blocks = [slice(None), slice(0, -1)] + [slice(r, r + 1) for r in range(len(y))]
        for rows in blocks:
            p, labels = probs[rows], y[rows]
            want = float(-np.mean(np.log(p[np.arange(len(labels)), labels] + 1e-300)))
            got = nn._mean_loss(p, nn._one_hot(labels))
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), rows


class TestPredict:
    def test_zero_weights_give_half_probability_and_tie_rule(self, rng):
        # symmetric network: both logits equal, probability 1/2, tie -> NO_PERSON
        model = zeroed(train_nn(random_batch(rng, 10), 4, TrainingParams(0.1, 4, 1), 0))
        assert nn_loss(model, random_batch(rng, 5)) == pytest.approx(np.log(2.0))
        assert predict_one(model, rng.normal(0, 1, 64)) == Label.NO_PERSON

    def test_reproduces_toy_labels(self):
        model = train_nn(XOR_DS, 4, TrainingParams(0.1, 4, 2000), seed=0)
        for s in XOR_DS.samples:
            assert predict_one(model, s.features) == s.label

    def test_pure_function(self, rng):
        model = train_nn(random_batch(rng, 10), 4, TrainingParams(0.1, 4, 5), 0)
        x = rng.normal(0, 1, 64)
        assert predict_one(model, x) == predict_one(model, x)

    def test_wrong_query_width(self, rng):
        model = train_nn(random_batch(rng, 10), 4, TrainingParams(0.1, 4, 5), 0)
        with pytest.raises(InvalidInputError):
            predict_nn_batch(model, np.zeros((1, 63)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, rng, value):
        model = train_nn(random_batch(rng, 10), 4, TrainingParams(0.1, 4, 5), 0)
        queries = np.zeros((2, 64))
        queries[1, 5] = value
        with pytest.raises(InvalidInputError, match="non-finite"):
            predict_nn_batch(model, queries)
