import numpy as np
import pytest

from thermal_sense.classifiers.knn import KnnModel, predict_knn_batch, train_knn
from thermal_sense.core import Label
from thermal_sense.errors import InvalidInputError

from conftest import dataset_from_arrays
from oracles import brute_force_knn


def predict_one(model, x):
    return predict_knn_batch(model, np.asarray(x)[None, :])[0]


def unit_vector(index, value=1.0):
    v = np.zeros(64)
    v[index] = value
    return v


class TestTrain:
    def test_stores_training_set_verbatim(self, rng):
        x = rng.normal(25, 2, (10, 64))
        y = rng.integers(0, 2, 10)
        model = train_knn(dataset_from_arrays(x, y), 3)
        assert np.array_equal(model.train_x, x)
        assert np.array_equal(model.train_y, y)

    def test_k_out_of_range(self):
        ds = dataset_from_arrays(np.zeros((4, 64)), [0, 1, 0, 1])
        with pytest.raises(InvalidInputError):
            train_knn(ds, 5)
        with pytest.raises(InvalidInputError):
            train_knn(ds, 0)

    def test_unknown_weighting(self):
        ds = dataset_from_arrays(np.zeros((2, 64)), [0, 1])
        with pytest.raises(InvalidInputError):
            train_knn(ds, 1, "rank")

    def test_one_nn_memorizes_training_points(self, rng):
        x = rng.normal(25, 3, (12, 64))
        y = rng.integers(0, 2, 12)
        model = train_knn(dataset_from_arrays(x, y), 1)
        for row, lab in zip(x, y):
            assert predict_one(model, row) == Label(int(lab))


class TestPredict:
    def test_exact_match_wins_with_distance_weighting(self):
        x = np.stack([unit_vector(0, 2.0), unit_vector(1, 5.0), unit_vector(2, 5.0)])
        model = train_knn(dataset_from_arrays(x, [1, 0, 0]), 3, "distance")
        assert predict_one(model, unit_vector(0, 2.0)) == Label.PERSON

    def test_uniform_majority(self):
        x = np.stack([unit_vector(0, 1.0), unit_vector(0, 1.1), unit_vector(0, 5.0)])
        model = train_knn(dataset_from_arrays(x, [1, 1, 0]), 3, "uniform")
        assert predict_one(model, unit_vector(0, 1.05)) == Label.PERSON

    def test_weight_tie_goes_to_no_person(self):
        # neighbors at d=1 (no person) and d=2, d=2 (person): 1.0 vs 0.5+0.5
        x = np.stack([unit_vector(0, 1.0), unit_vector(0, -2.0), unit_vector(1, 2.0)])
        model = train_knn(dataset_from_arrays(x, [0, 1, 1]), 3, "distance")
        assert predict_one(model, np.zeros(64)) == Label.NO_PERSON

    def test_uniform_even_k_tie_goes_to_no_person(self):
        x = np.stack([unit_vector(0, 1.0), unit_vector(0, -1.0)])
        model = train_knn(dataset_from_arrays(x, [1, 0]), 2, "uniform")
        assert predict_one(model, np.zeros(64)) == Label.NO_PERSON

    def test_distance_ties_break_by_stored_index(self):
        # two stored points equidistant from the query; k=1 must pick index 0
        x = np.stack([unit_vector(0, 1.0), unit_vector(0, -1.0)])
        model = train_knn(dataset_from_arrays(x, [1, 0]), 1, "uniform")
        assert predict_one(model, np.zeros(64)) == Label.PERSON

    def test_wrong_query_shape(self):
        model = train_knn(dataset_from_arrays(np.zeros((2, 64)), [0, 1]), 1)
        with pytest.raises(InvalidInputError):
            predict_one(model, np.zeros(8))
        with pytest.raises(InvalidInputError):
            predict_knn_batch(model, np.zeros(64))

    @pytest.mark.parametrize("label", [7, -1, 2])
    def test_labels_must_be_binary(self, label):
        with pytest.raises(InvalidInputError, match="labels"):
            KnnModel(np.zeros((2, 64)), np.array([0, label]), 1, "uniform")


class TestInvariance:
    def test_translation_leaves_predictions_unchanged(self, rng):
        # quarter-exact values keep the shifted arithmetic bit-identical
        x = (rng.integers(80, 140, (20, 64)) / 4.0).astype(float)
        y = rng.integers(0, 2, 20)
        queries = (rng.integers(80, 140, (8, 64)) / 4.0).astype(float)
        for weighting in ("uniform", "distance"):
            base = train_knn(dataset_from_arrays(x, y), 3, weighting)
            shifted = train_knn(dataset_from_arrays(x + 1.0, y), 3, weighting)
            assert np.array_equal(
                predict_knn_batch(base, queries),
                predict_knn_batch(shifted, queries + 1.0),
            )


class TestOracleEquivalence:
    def test_random_instances_match_brute_force(self, rng):
        for trial in range(200):
            n_train = int(rng.integers(2, 51))
            n_test = int(rng.integers(1, 21))
            k = int(rng.choice([1, 3, 5, 7]))
            k = min(k, n_train)
            if trial % 3 == 0:
                # small-integer grid forces exact distance ties and duplicates
                x = rng.integers(0, 3, (n_train, 64)).astype(float)
                queries = rng.integers(0, 3, (n_test, 64)).astype(float)
            else:
                x = rng.normal(25, 4, (n_train, 64))
                queries = rng.normal(25, 4, (n_test, 64))
            y = rng.integers(0, 2, n_train)
            ds = dataset_from_arrays(x, y)
            for weighting in ("uniform", "distance"):
                model = train_knn(ds, k, weighting)
                got = predict_knn_batch(model, queries)
                expected = [
                    brute_force_knn(x.tolist(), y.tolist(), k, weighting, q.tolist())
                    for q in queries
                ]
                assert got.tolist() == expected, (trial, weighting)
