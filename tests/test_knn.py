from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from thermal_sense.classifiers import knn
from thermal_sense.classifiers.knn import (
    WEIGHTINGS,
    KnnModel,
    predict_knn_batch,
    predict_knn_grid,
    train_knn,
)
from thermal_sense.core import Label, flatten, make_folds, quantize
from thermal_sense.errors import InvalidInputError
from thermal_sense.simulate import generate_main, generate_variational

from conftest import dataset_from_arrays
from oracles import brute_force_knn, brute_force_neighbours, per_row_knn, per_row_vote


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
        # one C-contiguous (65, n) matrix [x | |x|^2]^T, of which train_x is a view
        assert model.rows.shape == (65, 10) and not model.rows.flags.writeable
        assert model.rows.flags.c_contiguous
        assert np.shares_memory(model.train_x, model.rows)
        np.testing.assert_allclose(model.rows[-1], np.sum(x * x, axis=1), rtol=1e-13)
        assert model.sq_max == model.rows[-1].max()

    def test_k_out_of_range(self):
        ds = dataset_from_arrays(np.zeros((4, 64)), [0, 1, 0, 1])
        with pytest.raises(InvalidInputError):
            train_knn(ds, 5)
        with pytest.raises(InvalidInputError):
            train_knn(ds, 0)

    @pytest.mark.parametrize("stored", [False, True])
    def test_setting_is_checked_before_the_store_is_built(self, stored):
        ds = dataset_from_arrays(np.zeros((40, 64)), [0, 1] * 20)
        if stored:
            train_knn(ds, 40)
        with mock.patch.object(knn, "_dataset_store", wraps=knn._dataset_store) as build:
            with pytest.raises(InvalidInputError,
                               match="^k=41 out of range for 40 training samples$"):
                train_knn(ds, 41)
            with pytest.raises(InvalidInputError, match="^unknown weighting 'cosine'$"):
                train_knn(ds, 1, "cosine")
        assert build.call_count == 0

    @pytest.mark.parametrize("k", [1, 3])
    def test_empty_set_names_k(self, k):
        ds = dataset_from_arrays(np.zeros((0, 64)), np.zeros(0, dtype=int))
        with pytest.raises(InvalidInputError, match=f"^k={k} out of range for 0 training samples$"):
            train_knn(ds, k)

    def test_models_of_one_set_share_its_store(self, rng):
        x = rng.normal(25, 2, (10, 64))
        y = rng.integers(0, 2, 10)
        ds = dataset_from_arrays(x, y)
        first, second = train_knn(ds, 1), train_knn(ds, 3, "distance")
        assert (first.k, first.weighting) == (1, "uniform")
        assert (second.k, second.weighting) == (3, "distance")
        for name in ("rows", "train_x", "train_y"):
            assert getattr(first, name) is getattr(second, name)
            with pytest.raises(ValueError, match="read-only"):
                getattr(second, name)[...] = 0
        lone = KnnModel(x, y, 3, "distance")
        assert np.array_equal(lone.rows, second.rows) and lone.sq_max == second.sq_max
        assert train_knn(ds.subset(range(10)), 1).rows is not first.rows

    @pytest.mark.parametrize("k", [2.5, True, np.float64(1.0), "1"])
    def test_k_must_be_an_integer(self, k):
        ds = dataset_from_arrays(np.zeros((4, 64)), [0, 1, 0, 1])
        with pytest.raises(InvalidInputError, match="k must be an integer"):
            KnnModel(ds.x, ds.y, k, "uniform")

    def test_numpy_integer_k_accepted(self):
        model = KnnModel(np.zeros((4, 64)), np.array([0, 1, 0, 1]), np.int64(3), "uniform")
        assert predict_knn_batch(model, np.zeros((1, 64))).tolist() == [0]

    @pytest.mark.parametrize("labels", [[True, False, True], [1.0, 0.0, 1.0], [1, 0, 1]])
    def test_labels_are_stored_and_predicted_as_int64(self, labels):
        model = KnnModel(np.eye(3, 64), np.array(labels), 1, "uniform")
        assert model.train_y.dtype == np.int64
        got = predict_knn_batch(model, np.eye(3, 64))
        assert got.dtype == np.int64 and got.tolist() == [1, 0, 1]

    def test_labels_must_be_one_column(self):
        with pytest.raises(InvalidInputError, match="one column"):
            KnnModel(np.zeros((4, 64)), np.array([[0], [1], [0], [1]]), 1, "uniform")

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
    # Query entries above 2^1022 against small rows: q.t stays finite, but
    # |q|^2 overflows and, above 2^1023, so does -2q. The product then holds
    # -inf, inf and NaN (-inf * 0) entries, and every distance is inf.
    small = normal * 1e-3
    small[::3, 5] = 0.0
    far = np.tile(small[1], (4, 1))
    far[:, 5] = [1.5 * 2.0 ** 1022, 1.5 * 2.0 ** 1023, -1.5 * 2.0 ** 1023, 2.0 ** 1023]
    with np.errstate(over="ignore"):
        assert not np.isfinite(-2.0 * far[1:]).all(axis=1).any()
        assert np.isfinite(far @ small.T).all()
    yield "-2q overflows", small, np.vstack([far, small[:2]])
    # Each square is finite, but their sum |t|^2 overflows; queries one ulp
    # away are at finite distances.
    wide = 2e153 * rng.choice([-1.0, 1.0], (6, 64))
    assert not np.isfinite(np.sum(wide ** 2, axis=1)).any()
    yield "|t|^2 overflows", np.vstack([normal[:20], wide, wide[:2]]), np.vstack(
        [wide[:2], wide[2:4] * (1 + 2.0 ** -50), normal[:2] + 0.25])
    sub = rng.integers(-4, 5, (20, 64)) * 5e-324
    yield "subnormal and duplicated", np.vstack([sub, sub[:6], tiny[:4], tiny[:4]]), np.vstack(
        [sub[:3], np.zeros(64), 2 * sub[7:9], tiny[:2]])
    # From near the origin only the model's term of the margin covers the
    # rounding of |t|^2, which is far larger than |q|^2.
    yield "ulp-near ties from the origin", near, np.vstack([np.zeros(64), near[:3] * 1e-9])
    # Finite norms, but |t|^2 - 2 q.t overflows to inf for the first row:
    # from 1e154 e0 every exact distance is inf, so the tie goes by index
    # and the first row must stay a candidate.
    axes = 1e154 * np.vstack([-np.eye(64)[:1], np.eye(64)[1:7]])
    yield "|t|^2 - 2q.t overflows to inf", axes, 1e154 * np.eye(64)[:1]
    # Finite norms, but 2 q.t overflows and the first row's value is -inf,
    # far below the nearer rows' finite values.
    line = 1e154 * np.outer([1.3, 0.8, 0.9, 0.7, 0.6, 0.5, 0.4], np.eye(64)[0])
    with np.errstate(over="ignore"):
        assert np.isfinite(np.sum(line ** 2, axis=1)).all()
        assert np.isneginf(-2.0 * line[0] @ line[2])
    yield "2q.t overflows to -inf", line, np.vstack([line[2], line[0] * (1.2 / 1.3)])
    # |q|^2 + max|t|^2 is finite (3.56 s^2; doubles overflow at 4 s^2),
    # but |t|^2 - 2 q.t overflows for rows 0, 4, 5 and 6 and not for 1-3.
    # Every exact distance is inf, so the tie goes by index to row 0.
    s = 2.0 ** 511
    near_max = s * np.outer([-1.6, -1.2, -1.1, -1.05, -1.3, -1.4, -1.5], np.eye(64)[0])
    with np.errstate(over="ignore"):
        assert np.isfinite(s * s + np.sum(near_max ** 2, axis=1).max())
        assert np.isinf(np.sqrt(np.sum((near_max - s * np.eye(64)[0]) ** 2, axis=1))).all()
    yield "finite norms near the largest double", near_max, s * np.eye(64)[:1]


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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("single", [False, True])
    def test_one_nn_blocks_with_nan_and_overflow(self, rng, single):
        # Rows whose squares overflow are at an inf approximate distance from
        # the others and at NaN (inf - inf) from each other. A block then
        # holds finite rows, rows of inf and NaN and, against a training set
        # of such rows only, all-NaN rows.
        normal = rng.normal(25, 4, (40, 64))
        huge = rng.normal(25, 4, (12, 64)) * 1e155
        queries = np.vstack([normal[:3] + 0.25, huge[:3], huge[4:6] * (1 + 1e-12),
                             rng.normal(25, 4, (3, 64)) * 1e155, normal[5:8]])
        for x in (np.vstack([normal, huge, normal[:2]]), huge):
            y = rng.integers(0, 2, len(x))
            for block in (queries[:, None] if single else [queries]):
                self.assert_matches(x, y, block, (1,))

    def test_one_nn_threshold_is_the_partition_minimum(self, rng):
        block = rng.normal(0, 1, (9, 40))
        block[1, 3] = np.nan
        block[2] = np.nan
        block[3, 7] = -np.inf
        block[4] = np.inf
        block[5, ::2] = np.nan
        block[5, 1::2] = -np.inf
        block[6, :2] = -0.0, 0.0
        block[6, 2:] = 1.0
        block[7, :] = block[7, 0]  # one value throughout
        block[8, -1] = np.nan
        want = np.partition(block, 0, axis=1)[:, 0]
        assert np.array_equal(np.fmin.reduce(block, axis=1), want, equal_nan=True)


@pytest.fixture(scope="module")
def main_fold():
    """Fold 0 of main(960, seed 7): its 1,728 training rows and 192 held-out rows."""
    ds = generate_main(960, 7)
    held_out = np.array(make_folds(ds, 10, 7).assignment) == 0
    return ds.x[~held_out], ds.y[~held_out], ds.x[held_out]


class TestCandidates:
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_exactly_the_rows_within_the_kth_distance(self, main_fold, k):
        # On quarter degrees |t|^2 - 2 q.t is computed exactly and distinct
        # squared distances differ by at least 1/16, far above the margin:
        # the candidates are the rows at or below the k-th squared distance.
        x, y, queries = main_fold
        grid, grid_queries = 4 * x, 4 * queries
        assert np.array_equal(grid, np.round(grid))
        assert np.array_equal(grid_queries, np.round(grid_queries))
        want_q, want_t = [], []
        for i, q in enumerate(grid_queries):
            d2 = np.sum((grid - q) ** 2, axis=1)  # integers below 2^53: exact
            rows = np.flatnonzero(d2 <= np.partition(d2, k - 1)[k - 1])
            want_q.append(np.full(len(rows), i))
            want_t.append(rows)
        qi, ti = knn._candidates(KnnModel(x, y, k, "uniform"), queries)
        assert np.array_equal(qi, np.concatenate(want_q))
        assert np.array_equal(ti, np.concatenate(want_t))


@pytest.fixture(scope="module")
def served_stream():
    """A training set and a stream of frames quantized one at a time, each
    with its brute-force neighbour list. The main(120) frames are training
    rows too (the same seed), so some neighbours are at distance 0."""
    train = generate_main(240, 7)
    frames = np.vstack([generate_main(120, 7).x, generate_variational(30, 7).x])
    queries = np.array([flatten(quantize(f.reshape(8, 8))) for f in frames])
    return train, queries, [brute_force_neighbours(train.x.tolist(), q.tolist()) for q in queries]


class TestSingleQueryStream:
    """Each frame of a stream predicted alone, as a bedside monitor serves it."""

    @pytest.mark.parametrize("k, weighting", [(1, "uniform"), (1, "distance"), (3, "uniform")])
    def test_each_frame_alone_matches_the_batch_and_brute_force(self, served_stream, k,
                                                                   weighting):
        train, queries, neighbours = served_stream
        model = train_knn(train, k, weighting)
        batch = predict_knn_batch(model, queries)
        batch_idx, batch_d = knn._nearest(model, queries)
        if k == 1:  # most frames have one candidate, a few tie
            counts = [len(knn._candidates(model, q[None, :])[1]) for q in queries]
            assert 0 < sum(c > 1 for c in counts) < len(queries) // 10
        y = train.y.tolist()
        for i, (q, nearest) in enumerate(zip(queries, neighbours)):
            assert predict_knn_batch(model, q[None, :]).tolist() == [batch[i]], i
            assert batch[i] == brute_force_knn(None, y, k, weighting, q, nearest), i
            idx, d = knn._nearest(model, q[None, :])
            assert idx.tolist() == [batch_idx[i].tolist()] == [[j for _, j in nearest[:k]]], i
            assert d.tolist() == [batch_d[i].tolist()] == [[dist for dist, _ in nearest[:k]]], i


def refined_blocks(model, queries, settings, per_block):
    """predict_knn_grid's labels, and the sizes of the blocks it refined, in blocks of per_block."""
    with mock.patch.object(knn, "BLOCK", per_block * len(model.train_y)), \
            mock.patch.object(knn, "_refine", wraps=knn._refine) as refine:
        labels = predict_knn_grid(model, queries, settings)
    return labels, [len(call.args[1]) for call in refine.call_args_list]


class TestRefineShortcut:
    """A uniform vote at the search's k reads only candidate labels: a block is refined only
    if a query has more than k candidates and the block's candidates' labels differ."""

    @staticmethod
    def needs_refine(model, block, k):
        ti = knn._candidates(model, block, k)[1]
        return len(ti) != len(block) * k and len(np.unique(model.train_y[ti])) > 1

    def test_served_frames_refine_only_ties(self, served_stream):
        train, queries, neighbours = served_stream
        model = train_knn(train, 1)
        y, ties = train.y.tolist(), 0
        for i, (q, nearest) in enumerate(zip(queries, neighbours)):
            with mock.patch.object(knn, "_refine", wraps=knn._refine) as refine:
                label = predict_knn_batch(model, q[None, :])
            assert refine.call_count == self.needs_refine(model, q[None, :], 1), i
            assert label.tolist() == [brute_force_knn(None, y, 1, "uniform", q, nearest)], i
            ties += len(knn._candidates(model, q[None, :])[1]) > 1
        assert 0 < ties < len(queries) // 10  # the label test runs

    @pytest.mark.parametrize("first", [Label.PERSON, Label.NO_PERSON])
    def test_a_mixed_label_tie_is_refined_and_the_lower_index_wins(self, first):
        # rows 1 and 2 are both at distance 1 from the query, rows 0 and 3 farther
        x = np.vstack([unit_vector(0, 5.0), unit_vector(1), unit_vector(2), unit_vector(3, 2.0)])
        y = np.array([1 - first, first, 1 - first, first])
        model = KnnModel(x, y, 1, "uniform")
        q = np.zeros((1, 64))
        assert knn._candidates(model, q)[1].tolist() == [1, 2]
        with mock.patch.object(knn, "_refine", wraps=knn._refine) as refine:
            assert predict_knn_batch(model, q).tolist() == [first]
        assert refine.call_count == 1

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_fold_blocks_refine_only_with_extra_candidates(self, main_fold, rng, k):
        # The dataset's labels give blocks of each kind; random ones make neighbours disagree.
        x, own_y, queries = main_fold
        per_block = 5
        for y in (own_y, rng.integers(0, 2, len(x))):
            model = KnnModel(x, y, k, "uniform")
            labels, refined = refined_blocks(model, queries, [(k, "uniform")], per_block)
            want, extra = [], 0
            for start in range(0, len(queries), per_block):
                block = queries[start:start + per_block]
                extra += len(knn._candidates(model, block)[1]) != len(block) * k
                if self.needs_refine(model, block, k):
                    want.append(len(block))
            assert refined == want
            assert 0 < len(want) <= extra < len(queries) // per_block  # the refine runs
            assert y is not own_y or len(want) < extra  # so does the label test
            # the labels of a search that refines every block: a distance setting rides along
            both = predict_knn_grid(model, queries, [(k, "uniform"), (k, "distance")])
            assert np.array_equal(labels[0], both[0])
            assert np.array_equal(labels[0],
                                  [per_row_knn(x, y, k, "uniform", q) for q in queries])

    @pytest.mark.parametrize("settings", [
        [(1, "distance")],
        [(3, "distance")],
        [(1, "uniform"), (3, "uniform")],
        [(3, "uniform"), (1, "distance")],
    ])
    def test_distances_or_a_shorter_prefix_always_refine(self, served_stream, settings):
        train, queries, _ = served_stream
        model = train_knn(train, 1)
        labels, refined = refined_blocks(model, queries, settings, 7)
        assert refined == [len(queries[start:start + 7]) for start in range(0, len(queries), 7)]
        for row, (k, weighting) in zip(labels, settings):
            assert np.array_equal(row, predict_knn_batch(train_knn(train, k, weighting), queries))

    def test_empty_batch(self, main_fold):
        x, y, _ = main_fold
        for settings in ([(1, "uniform")], [(3, "uniform"), (1, "distance")]):
            labels = predict_knn_grid(KnnModel(x, y, 3, "uniform"), np.empty((0, 64)), settings)
            assert labels.shape == (len(settings), 0) and labels.dtype == np.int64


GRID_SETTINGS = tuple((k, w) for k in (1, 3, 5, 7) for w in WEIGHTINGS)


class TestSharedSearch:
    """One search at the largest k serves every smaller k."""

    @staticmethod
    def assert_prefixes(x, y, queries, top=7):
        top = min(top, len(x))
        model = KnnModel(x, y, top, "uniform")
        idx, dists = knn._nearest(model, queries)
        for k in range(1, top):
            idx_k, dists_k = knn._nearest(model, queries, k)
            assert np.array_equal(idx_k, idx[:, :k]), k
            assert np.array_equal(dists_k, dists[:, :k]), k
            assert np.array_equal(idx_k, knn._nearest(KnnModel(x, y, k, "uniform"), queries)[0]), k

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_prefixes_on_stress_cases(self, rng):
        for name, x, queries in differential_cases(rng):
            try:
                self.assert_prefixes(x, rng.integers(0, 2, len(x)), queries)
            except AssertionError as exc:
                raise AssertionError(f"{name}: {exc}") from None

    def test_prefixes_on_a_quantized_fold(self, main_fold):
        x, y, queries = main_fold
        self.assert_prefixes(x, y, queries)

    def test_one_setting_is_the_batch_prediction(self, main_fold, rng):
        x, _, queries = main_fold
        y = rng.integers(0, 2, len(x))  # random labels, so neighbours disagree
        for k, weighting in GRID_SETTINGS:
            model = KnnModel(x, y, k, weighting)
            got = predict_knn_grid(model, queries, [(k, weighting)])
            assert got.shape == (1, len(queries))
            assert np.array_equal(got[0], predict_knn_batch(model, queries)), (k, weighting)

    @pytest.mark.parametrize("per_block", [1, 5, 192])
    def test_every_setting_from_one_model(self, main_fold, rng, per_block):
        # the model's own k and weighting play no part
        x, _, queries = main_fold
        y = rng.integers(0, 2, len(x))
        with mock.patch.object(knn, "BLOCK", per_block * len(x)):
            got = predict_knn_grid(KnnModel(x, y, 2, "distance"), queries, GRID_SETTINGS)
            for row, (k, weighting) in zip(got, GRID_SETTINGS):
                want = predict_knn_batch(KnnModel(x, y, k, weighting), queries)
                assert np.array_equal(row, want), (k, weighting)

    @pytest.mark.parametrize("settings, message", [
        ([], "no .k, weighting. settings"),
        ([(1, "uniform"), (0, "uniform")], "k must be at least 1, got 0"),
        ([(11, "uniform")], "k=11 out of range for 10 training samples"),
        ([(2.0, "uniform")], "k must be an integer"),
        ([(1, "cosine")], "unknown weighting 'cosine'"),
    ])
    def test_bad_settings(self, settings, message):
        model = KnnModel(np.zeros((10, 64)), np.zeros(10, dtype=int), 1, "uniform")
        with pytest.raises(InvalidInputError, match=message):
            predict_knn_grid(model, np.zeros((1, 64)), settings)


@st.composite
def small_problems(draw, max_copies=1):
    """(train_x, train_y, queries, k, queries per block) on a small grid at one scale. Each
    drawn row is stored up to max_copies times, each copy with its own label."""
    n = draw(st.integers(1, 8))
    scale = draw(st.sampled_from([0.25, 3.0, 1e-160, 5e-324, 1e154]))
    x = draw(hnp.arrays(np.int64, (n, 64), elements=st.integers(-2, 2))) * scale
    x = np.repeat(x, draw(hnp.arrays(np.int64, n, elements=st.integers(1, max_copies))), axis=0)
    queries = draw(hnp.arrays(np.int64, (draw(st.integers(1, 9)), 64),
                              elements=st.integers(-2, 2))) * scale
    y = draw(hnp.arrays(np.int64, len(x), elements=st.integers(0, 1)))
    return x, y, queries, draw(st.integers(1, len(x))), draw(st.integers(1, 4))


class TestSmallProblems:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(problem=small_problems())
    def test_batches_match_the_per_row_reference(self, problem):
        # Blocks of 1-4 queries, so most batches straddle a block.
        x, y, queries, k, per_block = problem
        with mock.patch.object(knn, "BLOCK", per_block * len(x)):
            TestPerRowEquivalence.assert_matches(x, y, queries, (k,))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(problem=small_problems(max_copies=3))
    def test_duplicated_rows_match_the_per_row_reference(self, problem):
        # A copy ties with its row, so a query can have more than k candidates.
        x, y, queries, k, per_block = problem
        with mock.patch.object(knn, "BLOCK", per_block * len(x)):
            TestPerRowEquivalence.assert_matches(x, y, queries, (k,))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(problem=small_problems(max_copies=3), data=st.data())
    def test_copies_that_keep_or_flip_a_label_match_the_per_row_reference(self, problem, data):
        # Each copy of a row keeps the label drawn for the row or flips it, so a tie's
        # candidates often carry one label (no refine) and sometimes not (refined).
        x, y, queries, _, per_block = problem
        _, first, copy_of = np.unique(x, axis=0, return_index=True, return_inverse=True)
        flip = data.draw(hnp.arrays(np.int64, len(x), elements=st.integers(0, 1)))
        y = y[first][copy_of.ravel()] ^ flip
        for k in (1, 3, 5, 7):
            if k > len(x):
                break
            model = KnnModel(x, y, k, "uniform")
            want = [per_row_knn(x, y, k, "uniform", q) for q in queries]
            with mock.patch.object(knn, "BLOCK", per_block * len(x)):
                assert predict_knn_batch(model, queries).tolist() == want, k
            assert [predict_one(model, q) for q in queries] == want, k


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
