import numpy as np
import pytest

from thermal_sense.classifiers import knn
from thermal_sense.classifiers.knn import WEIGHTINGS, KnnModel, predict_knn_batch, train_knn
from thermal_sense.core import Label
from thermal_sense.errors import InvalidInputError

from conftest import dataset_from_arrays
from oracles import brute_force_knn, per_row_knn, per_row_vote


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
        assert not model.train_x.flags.writeable

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, value):
        model = train_knn(dataset_from_arrays(np.zeros((2, 64)), [0, 1]), 1)
        queries = np.zeros((3, 64))
        queries[2, 7] = value
        with pytest.raises(InvalidInputError, match="non-finite"):
            predict_knn_batch(model, queries)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_rows_rejected(self, value):
        x = np.zeros((2, 64))
        x[1, 3] = value
        with pytest.raises(InvalidInputError, match="non-finite"):
            KnnModel(x, np.array([0, 1]), 1, "uniform")

    @pytest.mark.parametrize("shape", [(3, 64), (1, 64), (128,)])
    def test_training_rows_must_match_labels(self, shape):
        with pytest.raises(InvalidInputError, match="training rows"):
            KnnModel(np.zeros(shape), np.array([0, 1]), 1, "uniform")


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


def ulp_near_rows(rng, n, spread=2):
    """n copies of one row, each moved by up to `spread` ulps in one pixel."""
    x = np.tile(rng.normal(25, 4, 64), (n, 1))
    rows, cols = np.arange(n), rng.integers(0, 64, n)
    x[rows, cols] += rng.integers(-spread, spread + 1, n) * np.spacing(x[rows, cols])
    return x


def differential_cases(rng):
    """(name, train_x, queries) instances that stress the candidate filter."""
    normal = rng.normal(25, 4, (60, 64))
    grid = rng.integers(80, 400, (60, 64)) / 4.0  # quarter degrees in [20, 100)
    near = ulp_near_rows(rng, 40)
    yield "ulp-near ties", near, np.vstack([near[:5], ulp_near_rows(rng, 5), near.mean(0)])
    same = np.tile(grid[0], (12, 1))
    yield "identical rows", same, np.vstack([same[:2], grid[1:4]])
    # 128 rows at distance exactly 1 from the centre: a tie far wider than k
    centre = grid[0]
    star = np.vstack([centre + np.eye(64), centre - np.eye(64), grid[:8]])
    yield "wide tie at k-th", star, np.vstack([centre, grid[:3]])
    yield "on-grid", grid, rng.integers(80, 400, (20, 64)) / 4.0
    yield "on-grid duplicates", np.vstack([grid, grid[:20]]), grid[10:30]
    yield "off-grid", normal, rng.normal(25, 4, (20, 64))
    yield "x1e150", normal * 1e150, np.vstack([normal[:3], rng.normal(25, 4, (5, 64))]) * 1e150
    huge = normal * 1e155
    assert not np.isfinite(np.sum(huge ** 2, axis=1)).any()  # squares overflow to inf
    yield "overflow", huge, np.vstack([huge[:3], huge[:3] * (1 + 1e-12),
                                       rng.normal(25, 4, (5, 64)) * 1e155])
    tiny = normal * 1e-160
    yield "underflow", tiny, np.vstack([tiny[:3], rng.normal(25, 4, (5, 64)) * 1e-160])


class TestPerRowEquivalence:
    """Candidate search against the per-row reference, bit for bit."""

    @staticmethod
    def assert_matches(x, y, queries, ks):
        for k in ks:
            for weighting in WEIGHTINGS:
                got = predict_knn_batch(KnnModel(x, y, k, weighting), queries)
                expected = [per_row_knn(x, y, k, weighting, q) for q in queries]
                assert got.tolist() == expected, (k, weighting)
            # the same neighbors at the same distances as a full stable sort
            idx, dists = knn._nearest(KnnModel(x, y, k, "uniform"), queries)
            for q, row_idx, row_d in zip(queries, idx, dists):
                d = np.sqrt(np.sum((x - q) ** 2, axis=1))
                order = np.argsort(d, kind="stable")[:k]
                assert np.array_equal(row_idx, order), k
                assert np.array_equal(row_d, d[order]), k

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_stress_cases(self, rng):
        for name, x, queries in differential_cases(rng):
            y = rng.integers(0, 2, len(x))
            ks = sorted({1, 2, 3, 5, 7, len(x) - 1, len(x)})
            try:
                self.assert_matches(x, y, queries, ks)
            except AssertionError as exc:
                raise AssertionError(f"{name}: {exc}") from None

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_query_counts_around_block(self, rng, offset):
        x = rng.integers(80, 120, (300, 64)) / 4.0
        y = rng.integers(0, 2, len(x))
        block = max(1, knn.BLOCK // len(x))
        queries = rng.integers(80, 120, (block + offset, 64)) / 4.0
        self.assert_matches(x, y, queries, (1, 4))

    def test_single_query(self, rng):
        x = rng.normal(25, 4, (50, 64))
        y = rng.integers(0, 2, len(x))
        self.assert_matches(x, y, x[7:8] + 0.25, (1, 3, 50))


def vote_cases(rng, k, m=300):
    """(name, labels, sorted distances) blocks of m queries that stress the vote."""
    labels = rng.integers(0, 2, (m, k))
    yield "random", labels, np.sort(rng.random((m, k)), axis=1)
    # Few distinct values tie weight sums; 5e-324 and 1e-310 weigh inf, 1e308 almost 0.
    pool = np.array([0.0, 5e-324, 1e-310, 0.5, 1.0, 2.0, 1e308])
    yield "pooled", labels, np.sort(rng.choice(pool, (m, k)), axis=1)
    yield "all zero", labels, np.zeros((m, k))
    mixed = np.sort(rng.random((m, k)), axis=1)
    mixed[:, : (k + 1) // 2] = 0.0
    yield "zero prefix", labels, mixed
    # Half person, half not, at one distance: tied counts and tied weights.
    tied = np.tile(np.arange(k) % 2, (m, 1))
    yield "tied", rng.permuted(tied, axis=1), np.full((m, k), 1.5)
    yield "tied subnormal", rng.permuted(tied, axis=1), np.full((m, k), 5e-324)


class TestVotes:
    """The block vote against the per-query reference vote, bit for bit."""

    @pytest.mark.parametrize("k", range(1, 11))  # k >= 8 takes the per-query distance vote
    def test_stress_cases(self, rng, k):
        for name, labels, dists in vote_cases(rng, k):
            for weighting in WEIGHTINGS:
                with np.errstate(over="ignore"):
                    expected = [per_row_vote(lab, d, weighting) for lab, d in zip(labels, dists)]
                got = knn._votes(labels, dists, weighting)
                assert got.tolist() == expected, (name, weighting)

    def test_eight_masked_terms_would_flip_a_vote(self):
        # numpy sums 8 terms pairwise: masked row sums call this vote for
        # person, the per-class sums of the per-query vote for no_person.
        labels = np.array([[1, 0, 0, 1, 1, 1, 1, 0]])
        dists = np.array([[0.5, 1 - 2 ** -52, 1 + 2 ** -52, 1e16, 1e16, 1e16,
                           1 / 7e-17, 1 / 7e-17]])
        person = labels == 1
        person_w, other_w = (np.add.reduce(np.where(mask, 1 / dists, 0.0), axis=1)[0]
                             for mask in (person, ~person))
        assert person_w > other_w
        assert per_row_vote(labels[0], dists[0], "distance") == Label.NO_PERSON
        assert knn._votes(labels, dists, "distance").tolist() == [Label.NO_PERSON]
