import numpy as np
import pytest

from thermal_sense.classifiers.kernels import KernelSpec
from thermal_sense.classifiers.nn import TrainingParams
from thermal_sense.core import CONDITIONS, ConditionTag, Dataset, FoldPlan, Label, make_folds
from thermal_sense.errors import InvalidInputError, StratificationError
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
    evaluate_by_condition,
    predictor,
    sensitivity,
    specificity,
    sweep,
    sweep_specs,
)

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
        with pytest.raises(StratificationError):
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
        serial = sweep(ds, plan, "knn-grid", seed=5, max_workers=1)
        parallel = sweep(ds, plan, "knn-grid", seed=5, max_workers=4)
        assert serial == parallel
        # each row equals a standalone cross-validation with the same folds
        from thermal_sense.evaluate import derive_seed

        for index, row in enumerate(serial):
            lone = cross_validate(ds, plan, Trainer(row.spec, derive_seed(5, index)))
            assert lone == row.result


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
        ds = Dataset(x, y, codes, "mixed")
        overall, per = evaluate_by_condition(model, ds)
        assert sum(r.counts.total for r in per.values()) == overall.counts.total
        assert sum(r.counts.tp for r in per.values()) == overall.counts.tp
        assert sum(r.counts.fn for r in per.values()) == overall.counts.fn

    def test_single_class_subset_gets_none_marker(self, rng):
        model, _ = self.build(rng)
        gen = np.random.default_rng(6)
        ds = Dataset(gen.normal(32, 0.5, (4, 64)), [Label.PERSON] * 4,
                     [CONDITIONS.index(ConditionTag.DUVET_5)] * 4, "only-person")
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
