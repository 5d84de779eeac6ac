import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermal_sense.core import (
    ConditionTag,
    Dataset,
    FoldPlan,
    Label,
    flatten,
    make_folds,
    quantize,
    split_train_test,
)
from thermal_sense.errors import InvalidInputError, StratificationError

from conftest import balanced_dataset, dataset_from_arrays

quarter_temps = st.integers(80, 400).map(lambda q: q / 4.0)
raw_pixels = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def frame_of(value):
    return np.full((8, 8), value)


class TestQuantize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (22.10, 22.00),
            (19.40, 20.00),   # clamped to the sensor floor
            (36.80, 36.75),
            (22.125, 22.25),  # midpoint rounds up
            (99.875, 100.00),
            (150.0, 100.00),
            (20.0, 20.0),
        ],
    )
    def test_examples(self, raw, expected):
        assert quantize(frame_of(raw))[0, 0] == expected

    def test_non_finite_names_pixel(self):
        arr = frame_of(25.0)
        arr[3, 5] = np.nan
        with pytest.raises(InvalidInputError, match=r"\(3, 5\)"):
            quantize(arr)

    def test_wrong_shape(self):
        with pytest.raises(InvalidInputError):
            quantize(np.zeros((4, 4)))

    @given(st.lists(raw_pixels, min_size=64, max_size=64))
    def test_idempotent_and_in_range(self, values):
        arr = np.array(values).reshape(8, 8)
        once = quantize(arr)
        twice = quantize(once)
        assert np.array_equal(once, twice)
        assert not once.flags.writeable
        for v in once.ravel().tolist():
            assert 20.0 <= v <= 100.0
            assert float(v * 4).is_integer()


class TestFlatten:
    def test_constant(self):
        f = quantize(frame_of(20.25))
        assert flatten(f).tolist() == [20.25] * 64

    def test_single_hot_pixel(self):
        arr = frame_of(20.0)
        arr[0, 0] = 25.0
        vec = flatten(quantize(arr))
        assert vec[0] == 25.0
        assert set(vec[1:].tolist()) == {20.0}

    @given(st.lists(quarter_temps, min_size=64, max_size=64))
    def test_round_trip(self, values):
        # quarter-degree values pass the quantizer unchanged, row-major
        frame = quantize(np.array(values).reshape(8, 8))
        assert flatten(frame).tolist() == values
        assert np.array_equal(flatten(frame).reshape(8, 8), frame)


class TestSplit:
    def test_paper_counts(self):
        train, test = split_train_test(balanced_dataset(240), 0.2, 7)
        assert len(test) == 96
        assert np.count_nonzero(test.y == Label.PERSON) == 48
        assert np.count_nonzero(test.y == Label.NO_PERSON) == 48
        assert len(train) == 384

    def test_half_fraction_rounds_up(self):
        # round(5 * 0.5) with half-up gives 3 per class -> 6 test samples
        train, test = split_train_test(balanced_dataset(5), 0.5, 1)
        assert len(test) == 6
        assert len(train) == 4

    def test_deterministic(self):
        ds = balanced_dataset(5)
        a = split_train_test(ds, 0.2, 11)
        b = split_train_test(ds, 0.2, 11)
        for part_a, part_b in zip(a, b):
            assert np.array_equal(part_a.x, part_b.x)
            assert np.array_equal(part_a.y, part_b.y)
            assert np.array_equal(part_a.conditions, part_b.conditions)

    def test_disjoint_union(self, rng):
        x = rng.normal(25, 2, (30, 64))
        y = rng.integers(0, 2, 30)
        y[:2] = [0, 1]
        ds = dataset_from_arrays(x, y)
        train, test = split_train_test(ds, 0.3, 5)

        def rows(*parts):
            return sorted(tuple(r) for p in parts for r in np.column_stack([p.x, p.y]).tolist())

        assert rows(train, test) == rows(ds)

    def test_empty_class_errors(self):
        x = np.full((4, 64), 25.0)
        ds = dataset_from_arrays(x, [1, 1, 1, 1])
        with pytest.raises(StratificationError):
            split_train_test(ds, 0.5, 0)

    def test_bad_fraction(self):
        with pytest.raises(InvalidInputError):
            split_train_test(balanced_dataset(5), 1.0, 0)


class TestFolds:
    def test_paper_counts(self):
        plan = make_folds(balanced_dataset(240), 10, 7)
        for f in range(10):
            idx = [i for i, a in enumerate(plan.assignment) if a == f]
            assert len(idx) == 48

    def test_two_by_two(self):
        plan = make_folds(balanced_dataset(2), 2, 0)
        ds = balanced_dataset(2)
        for f in range(2):
            labels = [Label(ds.y[i]) for i, a in enumerate(plan.assignment) if a == f]
            assert sorted(labels) == [Label.NO_PERSON, Label.PERSON]

    def test_deterministic(self):
        ds = balanced_dataset(12)
        assert make_folds(ds, 4, 9) == make_folds(ds, 4, 9)

    def test_class_smaller_than_k(self):
        with pytest.raises(StratificationError):
            make_folds(balanced_dataset(3), 4, 0)

    @given(
        n_person=st.integers(3, 25),
        n_no=st.integers(3, 25),
        k=st.integers(2, 3),
        seed=st.integers(0, 10),
    )
    def test_stratified_within_one(self, n_person, n_no, k, seed):
        x = np.full((n_person + n_no, 64), 25.0)
        y = [1] * n_person + [0] * n_no
        ds = dataset_from_arrays(x, y)
        plan = make_folds(ds, k, seed)
        for label in (Label.PERSON, Label.NO_PERSON):
            counts = [
                sum(
                    1
                    for i, a in enumerate(plan.assignment)
                    if a == f and ds.y[i] == label
                )
                for f in range(k)
            ]
            assert max(counts) - min(counts) <= 1


class TestTypes:
    def test_sample_needs_64_features(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.full((1, 63), 20.0), [Label.PERSON])

    @pytest.mark.parametrize("field, value", [
        ("x", np.nan), ("x", np.inf), ("y", 2), ("y", 0.5), ("conditions", 6),
        ("conditions", -1)])
    def test_dataset_rejects_invalid_rows(self, field, value):
        arrays = {"x": np.full((2, 64), 20.0), "y": np.array([0.0, 1.0]),
                  "conditions": np.array([0.0, 5.0])}
        Dataset(**arrays)
        arrays[field][1] = value
        with pytest.raises(InvalidInputError):
            Dataset(**arrays)

    def test_dataset_arrays_are_read_only_copies(self):
        x = np.full((2, 64), 20.0)
        ds = Dataset(x, [0, 1])
        x[0, 0] = 30.0
        assert ds.x[0, 0] == 20.0
        for arr in (ds.x, ds.y, ds.conditions):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("indices", [[4, 0, 4, 2], range(5), [], np.array([3])])
    def test_subset_equals_a_checked_copy(self, indices):
        ds = Dataset(np.arange(320.0).reshape(5, 64), [1, 0, 1, 1, 0], [3, 0, 5, 1, 2], "d")
        idx = np.asarray(indices, dtype=np.intp)
        want = Dataset(ds.x[idx], ds.y[idx], ds.conditions[idx], "part")
        got = ds.subset(indices, "part")
        assert got.name == "part" and ds.subset(indices).name == "d"
        for field in ("x", "y", "conditions"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            assert not a.flags.writeable and a.flags.c_contiguous
            assert not np.shares_memory(a, getattr(ds, field))
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @pytest.mark.parametrize("indices", [[[0, 1]], 0, [5]])
    def test_subset_rejects_bad_indices(self, indices):
        ds = Dataset(np.zeros((5, 64)), [1, 0, 1, 1, 0])
        with pytest.raises((InvalidInputError, IndexError, TypeError)):
            ds.subset(indices)

    @pytest.mark.parametrize("indices", [[0.5], [1.0, 2.0], np.array([3.0]),
                                         [True, False, False], np.ones(5, dtype=bool),
                                         ["1"], [None]])
    def test_subset_rejects_non_integer_indices(self, indices):
        ds = Dataset(np.zeros((5, 64)), [1, 0, 1, 1, 0])
        with pytest.raises(InvalidInputError, match="row indices must be integers"):
            ds.subset(indices)

    def test_samples_view(self):
        ds = Dataset(np.arange(128.0).reshape(2, 64), [1, 0], [3, 0])
        (a, b) = ds.samples
        assert a.label is Label.PERSON and b.label is Label.NO_PERSON
        assert a.condition is ConditionTag.DUVET_0 and b.condition is ConditionTag.BASELINE
        assert np.array_equal(a.features, ds.x[0])

    def test_fold_plan_bounds(self):
        with pytest.raises(InvalidInputError):
            FoldPlan(2, (0, 1, 2))
        with pytest.raises(InvalidInputError):
            FoldPlan(1, (0,))

    def test_label_round_trip(self):
        assert Label.from_text(Label.PERSON.to_text()) is Label.PERSON
        assert Label.from_text("no_person") is Label.NO_PERSON
        with pytest.raises(InvalidInputError):
            Label.from_text("maybe")
