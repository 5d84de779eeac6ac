import weakref
from unittest import mock

import numpy as np
import pytest

from thermal_sense import evaluate
from thermal_sense.classifiers import knn, svm
from thermal_sense.classifiers.kernels import KernelSpec
from thermal_sense.classifiers.knn import KnnModel, train_knn
from thermal_sense.classifiers.nn import TrainingParams
from thermal_sense.core import CONDITIONS, ConditionTag, Dataset, FoldPlan, Label, make_folds
from thermal_sense.errors import InvalidInputError, TrainingError
from thermal_sense.evaluate import (
    ConfusionCounts,
    KnnSpec,
    MetricsReport,
    NnSpec,
    SvmSpec,
    Trainer,
    accuracy,
    confusion,
    cross_validate,
    derive_seed,
    evaluate_by_condition,
    predictor,
    sensitivity,
    specificity,
    sweep,
    sweep_specs,
)
from thermal_sense.simulate import generate_main

from conftest import balanced_dataset, dataset_from_arrays
from oracles import direct_count_metrics

P, N = Label.PERSON, Label.NO_PERSON


class TestConfusion:
    def test_all_correct(self):
        c = confusion([P] * 240 + [N] * 240, [P] * 240 + [N] * 240)
        assert (c.tp, c.fp, c.tn, c.fn) == (240, 0, 240, 0)

    def test_always_person(self):
        c = confusion([P] * 20, [P] * 10 + [N] * 10)
        assert (c.tp, c.fp, c.tn, c.fn) == (10, 10, 0, 0)

    def test_hand_count(self):
        c = confusion([P, N, P, N], [P, P, N, N])
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            confusion([P], [P, N])


class TestMetrics:
    def test_accuracy_examples(self):
        assert accuracy(ConfusionCounts(240, 0, 240, 0)) == 1.0
        assert accuracy(ConfusionCounts(47, 2, 48, 3)) == 0.95
        assert accuracy(ConfusionCounts(0, 10, 0, 10)) == 0.0

    def test_sensitivity_specificity_examples(self):
        assert sensitivity(ConfusionCounts(87, 0, 0, 13)) == 0.87
        assert specificity(ConfusionCounts(0, 0, 100, 0)) == 1.0
        assert sensitivity(ConfusionCounts(0, 5, 5, 0)) is None

    def test_integer_identity(self):
        c = ConfusionCounts(13, 7, 11, 9)
        assert accuracy(c) * c.total == c.tp + c.tn

    def test_matches_rational_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 60))
            preds = rng.integers(0, 2, n).tolist()
            truth = rng.integers(0, 2, n).tolist()
            counts, acc, sens, spec = direct_count_metrics(preds, truth)
            c = confusion([Label(p) for p in preds], [Label(t) for t in truth])
            assert (c.tp, c.fp, c.tn, c.fn) == counts
            assert accuracy(c) == float(acc)
            got_sens = sensitivity(c)
            got_spec = specificity(c)
            assert (got_sens is None) == (sens is None)
            assert (got_spec is None) == (spec is None)
            if sens is not None:
                assert got_sens == float(sens)
            if spec is not None:
                assert got_spec == float(spec)

    def test_report_recomputable_from_counts(self):
        report = MetricsReport.from_counts(ConfusionCounts(5, 1, 6, 2))
        assert report.accuracy == accuracy(report.counts)
        assert report.sensitivity == sensitivity(report.counts)
        assert report.specificity == specificity(report.counts)


class StubTrainer:
    """Always predicts NO_PERSON; stands in for a classifier spec."""

    def fit(self, train_ds, fold_index):
        return lambda xs: np.zeros(len(xs), dtype=int)


class TestCrossValidate:
    def test_constant_predictor_on_balanced_data(self):
        ds = balanced_dataset(20)
        plan = make_folds(ds, 5, 1)
        result = cross_validate(ds, plan, StubTrainer())
        assert result.accuracy_mean == pytest.approx(0.5)

    def test_memorizer_is_perfect_on_duplicates(self, rng):
        x = rng.normal(25, 3, (10, 64))
        y = rng.integers(0, 2, 10)
        y[:2] = [0, 1]
        # every sample twice, twins forced into different folds
        ds = dataset_from_arrays(np.vstack([x, x]), np.concatenate([y, y]))
        plan = FoldPlan(2, tuple([0] * 10 + [1] * 10))
        result = cross_validate(ds, plan, Trainer(KnnSpec(1, "uniform"), 0))
        assert result.accuracy_mean == 1.0

    def test_deterministic(self):
        ds = balanced_dataset(10)
        plan = make_folds(ds, 5, 2)
        trainer = Trainer(NnSpec(4, TrainingParams(0.05, 8, 10)), seed=3)
        assert cross_validate(ds, plan, trainer) == cross_validate(ds, plan, trainer)

    def test_mismatched_plan(self):
        ds = balanced_dataset(10)
        with pytest.raises(InvalidInputError):
            cross_validate(ds, FoldPlan(2, (0, 1)), StubTrainer())

    def test_missing_class_in_training_portion(self):
        ds = balanced_dataset(2)
        # fold 0 holds both NO_PERSON samples, so its training part is single-class
        plan = FoldPlan(2, (1, 1, 0, 0))
        with pytest.raises(InvalidInputError,
                           match="^training portion for fold 0 is missing a class$"):
            cross_validate(ds, plan, StubTrainer())

    def test_separable_data_knn(self, rng):
        x = np.vstack([rng.normal(32, 0.5, (30, 64)), rng.normal(20.5, 0.5, (30, 64))])
        y = np.array([1] * 30 + [0] * 30)
        ds = dataset_from_arrays(x, y)
        plan = make_folds(ds, 10, 4)
        result = cross_validate(ds, plan, Trainer(KnnSpec(1, "uniform"), 0))
        assert result.accuracy_mean >= 0.99

    def test_mean_std_recomputable(self):
        ds = balanced_dataset(10)
        plan = make_folds(ds, 5, 2)
        result = cross_validate(ds, plan, StubTrainer())
        accs = [r.accuracy for r in result.fold_reports]
        assert result.accuracy_mean == pytest.approx(np.mean(accs))
        assert result.accuracy_std == pytest.approx(np.std(accs))

    def test_fold_metrics_match_pooled_recount(self):
        ds = balanced_dataset(10)
        plan = make_folds(ds, 5, 2)
        result = cross_validate(ds, plan, StubTrainer())
        pooled_tp = sum(r.counts.tp for r in result.fold_reports)
        pooled_tn = sum(r.counts.tn for r in result.fold_reports)
        total = sum(r.counts.total for r in result.fold_reports)
        assert total == len(ds)
        assert pooled_tp == 0
        assert pooled_tn == 10


class TestSweep:
    def test_family_sizes(self):
        assert len(sweep_specs("svm-kernels")) == 4
        assert len(sweep_specs("knn-grid")) == 8
        assert len(sweep_specs("nn-widths")) == 11
        assert [s.hidden for s in sweep_specs("nn-widths")] == [2 ** i for i in range(11)]

    def test_unknown_family(self):
        with pytest.raises(InvalidInputError):
            sweep_specs("trees")

    def test_rows_and_bounds(self):
        ds = balanced_dataset(12)
        plan = make_folds(ds, 4, 3)
        rows = sweep(ds, plan, "knn-grid", seed=5)
        assert len(rows) == 8
        for row in rows:
            assert 0.0 <= row.result.accuracy_mean <= 1.0

    def test_rows_independent_of_evaluation_order(self):
        ds = balanced_dataset(12)
        plan = make_folds(ds, 4, 3)
        rows = sweep(ds, plan, "knn-grid", seed=5)
        # each row equals a standalone cross-validation with the same folds
        from thermal_sense.evaluate import derive_seed

        for index, row in enumerate(rows):
            lone = cross_validate(ds, plan, Trainer(row.spec, derive_seed(5, index)))
            assert lone == row.result


class OtherTraining:
    """A k-NN spec whose model trains on a changed copy of each fold's training set."""

    def __init__(self, spec, change):
        self.spec, self.change = spec, change

    def label(self) -> str:
        return f"{self.spec.label()} {self.change.__name__}"

    def train_model(self, train, seed):
        return train_knn(self.change(train), self.spec.k, self.spec.weighting)


def without_row_0(train):
    return train.subset(range(1, len(train)))


def labels_flipped(train):
    return Dataset(train.x, 1 - train.y, train.conditions)


def rows_shifted(train):
    return Dataset(train.x + 0.25, train.y, train.conditions)


class LiveModels:
    """Wraps specs; records how many k-NN models are alive as each spec trains."""

    def __init__(self):
        self.models = []
        self.alive_at_fit = []

    def wrap(self, spec):
        tracker = self

        class Tracked:
            def label(self):
                return spec.label()

            def train_model(self, train, seed):
                tracker.alive_at_fit.append(sum(ref() is not None for ref in tracker.models))
                model = spec.train_model(train, seed)
                if isinstance(model, KnnModel):
                    tracker.models.append(weakref.ref(model))
                return model

        return Tracked()


class TestFoldMajorSweep:
    """The fold-major sweep against one standalone cross-validation per spec."""

    @pytest.fixture(scope="class")
    def data(self):
        ds = generate_main(60, 7)  # quarter degrees: many exact distance ties
        return ds, make_folds(ds, 5, 7)

    @pytest.fixture(scope="class")
    def shuffled(self, data):
        """The same rows with shuffled labels, so that neighbours disagree."""
        ds, _ = data
        y = np.random.default_rng(2).permutation(ds.y)
        shuffled = Dataset(ds.x, y, ds.conditions)
        return shuffled, make_folds(shuffled, 5, 7)

    @staticmethod
    def assert_rows_are_standalone_cvs(ds, plan, rows, specs, seed):
        assert [row.spec for row in rows] == list(specs)
        for index, (row, spec) in enumerate(zip(rows, specs)):
            assert row.label == spec.label()
            assert row.result == cross_validate(ds, plan, Trainer(spec, derive_seed(seed, index)))

    @pytest.mark.parametrize("family", evaluate.SWEEP_FAMILIES)
    def test_every_family(self, data, family):
        ds, plan = data
        specs = sweep_specs(family)
        if family == "nn-widths":  # the family's widths at 20 epochs, to stay fast
            specs = tuple(NnSpec(spec.hidden, TrainingParams(epochs=20)) for spec in specs)
            rows = sweep(ds, plan, family, seed=11, specs=specs)
        else:
            rows = sweep(ds, plan, family, seed=11)
        self.assert_rows_are_standalone_cvs(ds, plan, rows, specs, 11)

    @pytest.mark.parametrize("labels", ["data", "shuffled"])
    def test_mixed_specs(self, request, labels):
        ds, plan = request.getfixturevalue(labels)
        specs = (SvmSpec(), KnnSpec(3, "distance"), NnSpec(4, TrainingParams(0.05, 8, 10)),
                 KnnSpec(3, "distance"), KnnSpec(1), KnnSpec(9, "distance"),
                 SvmSpec(KernelSpec("rbf")))
        with mock.patch.object(evaluate, "predict_knn_grid",
                               wraps=evaluate.predict_knn_grid) as grid:
            rows = sweep(ds, plan, "mixed", seed=3, specs=specs)
        # one search per fold serves all four k-NN specs, k = 9 (a per-query vote) included
        assert grid.call_count == plan.num_folds
        shared = [(3, "distance"), (3, "distance"), (1, "uniform"), (9, "distance")]
        assert all(call.args[2] == shared for call in grid.call_args_list)
        self.assert_rows_are_standalone_cvs(ds, plan, rows, specs, 3)

    @pytest.mark.parametrize("change", [without_row_0, labels_flipped, rows_shifted])
    def test_model_on_other_training_searches_alone(self, shuffled, change):
        ds, plan = shuffled
        specs = (KnnSpec(1), OtherTraining(KnnSpec(3), change), KnnSpec(5, "distance"))
        with mock.patch.object(evaluate, "predict_knn_batch",
                               wraps=evaluate.predict_knn_batch) as alone:
            rows = sweep(ds, plan, "mixed", seed=3, specs=specs)
        assert alone.call_count == plan.num_folds
        assert all(call.args[0].k == 3 for call in alone.call_args_list)
        self.assert_rows_are_standalone_cvs(ds, plan, rows, specs, 3)

    def test_holds_one_knn_model_while_the_next_trains(self, data):
        ds, plan = data
        live = LiveModels()
        sweep(ds, plan, "knn-grid", seed=3, specs=tuple(map(live.wrap, sweep_specs("knn-grid"))))
        # the fold's first model, kept for the search; later ones go once noted
        assert max(live.alive_at_fit) == 1

    def test_diverging_nn_raises_its_training_error(self, data):
        ds, plan = data
        diverging = NnSpec(8, TrainingParams(1e12, 8, 50))
        with pytest.raises(TrainingError) as alone:
            cross_validate(ds, plan, Trainer(diverging, derive_seed(0, 1)))
        assert str(alone.value).startswith("loss diverged at epoch ")
        with pytest.raises(TrainingError, match=f"^{alone.value}$"):
            sweep(ds, plan, "mixed", specs=(KnnSpec(1), diverging, SvmSpec()))

    def test_failure_in_an_earlier_fold_raises_first(self, data):
        ds, plan = data

        class FailsInFold:
            def __init__(self, fold):
                self.fold, self.calls = fold, 0

            def label(self):
                return f"fails in fold {self.fold}"

            def train_model(self, train, seed):
                self.calls += 1
                if self.calls > self.fold:
                    raise TrainingError(f"fold {self.fold}")
                return KnnSpec(1).train_model(train, seed)

        with pytest.raises(TrainingError, match="^fold 1$"):
            sweep(ds, plan, "mixed", specs=(FailsInFold(3), FailsInFold(1)))


class TestPreparedOncePerFold:
    """Every spec of a fold reads one preparation of the fold's training set."""

    @pytest.mark.parametrize("family, module, builder", [
        ("svm-kernels", svm, "_standardized"), ("knn-grid", knn, "_store")])
    def test_one_build_per_fold(self, family, module, builder):
        ds = generate_main(60, 7)
        plan = make_folds(ds, 10, 7)
        with mock.patch.object(module, builder, wraps=getattr(module, builder)) as build:
            rows = sweep(ds, plan, family, seed=11)
        # 4 or 8 specs per fold, one build: 10 in all, not 40 or 80
        assert build.call_count == plan.num_folds == 10
        trains = [call.args[0] for call in build.call_args_list]
        assert [len(train) for train in trains] == [len(ds) - len(ds) // 10] * 10
        TestFoldMajorSweep.assert_rows_are_standalone_cvs(ds, plan, rows, sweep_specs(family), 11)


class TestEvaluateByCondition:
    def build(self, rng):
        x = np.vstack([rng.normal(32, 0.5, (8, 64)), rng.normal(20.5, 0.5, (8, 64))])
        y = [1] * 8 + [0] * 8
        ds = dataset_from_arrays(x, y)
        model = KnnSpec(1, "uniform").train_model(ds, 0)
        return model, ds

    def test_partition_sums_to_overall(self, rng):
        model, _ = self.build(rng)
        x, y, codes = [], [], []
        gen = np.random.default_rng(5)
        for tag in (ConditionTag.BASELINE, ConditionTag.HOT_ROOM, ConditionTag.DUVET_0):
            for label, level in ((Label.PERSON, 32.0), (Label.NO_PERSON, 20.5)):
                for _ in range(3):
                    x.append(gen.normal(level, 0.5, 64))
                    y.append(label)
                    codes.append(CONDITIONS.index(tag))
        ds = Dataset(x, y, codes)
        overall, per = evaluate_by_condition(model, ds)
        assert sum(r.counts.total for r in per.values()) == overall.counts.total
        assert sum(r.counts.tp for r in per.values()) == overall.counts.tp
        assert sum(r.counts.fn for r in per.values()) == overall.counts.fn

    def test_single_class_subset_gets_none_marker(self, rng):
        model, _ = self.build(rng)
        gen = np.random.default_rng(6)
        ds = Dataset(gen.normal(32, 0.5, (4, 64)), [Label.PERSON] * 4,
                     [CONDITIONS.index(ConditionTag.DUVET_5)] * 4)
        overall, per = evaluate_by_condition(model, ds)
        assert per[ConditionTag.DUVET_5].specificity is None
        assert overall.specificity is None

    def test_works_for_every_model_kind(self, rng):
        x = np.vstack([rng.normal(32, 0.5, (10, 64)), rng.normal(20.5, 0.5, (10, 64))])
        y = [1] * 10 + [0] * 10
        ds = dataset_from_arrays(x, y)
        for spec in (KnnSpec(1), SvmSpec(KernelSpec("linear")), NnSpec(4, TrainingParams(0.05, 8, 30))):
            model = spec.train_model(ds, 1)
            overall, _ = evaluate_by_condition(model, ds)
            assert overall.accuracy >= 0.9

    def test_unknown_model_type(self):
        with pytest.raises(InvalidInputError):
            predictor(object())
