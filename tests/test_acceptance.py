"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from thermal_sense.classifiers.kernels import KernelSpec
from thermal_sense.classifiers.nn import (
    TrainingParams,
    flatten_weights,
    nn_gradient,
    nn_loss,
    predict_nn_batch,
    replace_weights,
    train_nn,
)
from thermal_sense.classifiers.svm import train_svm
from thermal_sense.cli import run as cli_run
from thermal_sense.core import ConditionTag, Label, make_folds
from thermal_sense.evaluate import (
    KnnSpec,
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
)
from thermal_sense.monitor import EventKind, MonitorConfig, replay
from thermal_sense.persist import load_dataset, load_model, save_dataset, save_model, save_report
from thermal_sense.simulate import (
    PersonConfig,
    PointSource,
    SceneConfig,
    generate_main,
    generate_variational,
    render,
)

from conftest import dataset_from_arrays
from oracles import brute_force_knn, central_difference_gradient, direct_count_metrics

THE_THREE = (
    ("svm linear", SvmSpec(KernelSpec("linear"))),
    ("1-nn", KnnSpec(1, "uniform")),
    ("nn 128", NnSpec(128)),
)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nFAIL criterion {number}: {description}")
        raise
    print(f"\nPASS criterion {number}: {description}")


def embedded(points):
    x = np.zeros((len(points), 64))
    for i, p in enumerate(points):
        x[i, : len(p)] = p
    return x


def test_criterion_1_main_dataset_reproduction():
    with criterion(1, "10-fold CV accuracy >= 0.97 for linear SVM, 1-NN, NN(128) in < 2 min"):
        ds = generate_main(240, 7)
        plan = make_folds(ds, 10, 7)
        start = time.perf_counter()
        means = {}
        for name, spec in THE_THREE:
            result = cross_validate(ds, plan, Trainer(spec, 7))
            means[name] = result.accuracy_mean
        elapsed = time.perf_counter() - start
        print(f"  cv means: {means}  elapsed: {elapsed:.1f}s")
        for name, mean in means.items():
            assert mean >= 0.97, (name, mean)
        assert elapsed < 120.0


def test_criterion_2_degradation_under_shift():
    with criterion(2, "shifted data scores below CV; duvet accuracy ordered 0 -> 5 -> 10"):
        seeds = (101, 102, 103, 104, 105)
        cv_acc = {name: [] for name, _ in THE_THREE}
        var_acc = {name: [] for name, _ in THE_THREE}
        duvet_acc = {name: {t: [] for t in (ConditionTag.DUVET_0, ConditionTag.DUVET_5,
                                            ConditionTag.DUVET_10)}
                     for name, _ in THE_THREE}
        for seed in seeds:
            main = generate_main(240, seed)
            var = generate_variational(30, seed + 5000)
            plan = make_folds(main, 10, seed)
            for name, spec in THE_THREE:
                cv_acc[name].append(cross_validate(main, plan, Trainer(spec, seed)).accuracy_mean)
                model = spec.train_model(main, seed)
                overall, per = evaluate_by_condition(model, var)
                var_acc[name].append(overall.accuracy)
                for tag in duvet_acc[name]:
                    duvet_acc[name][tag].append(per[tag].accuracy)
        for name, _ in THE_THREE:
            cv_mean = float(np.mean(cv_acc[name]))
            var_mean = float(np.mean(var_acc[name]))
            print(f"  {name}: cv={cv_mean:.4f} variational={var_mean:.4f}")
            assert var_mean < cv_mean, name
        for name in ("svm linear", "1-nn"):
            d0 = float(np.mean(duvet_acc[name][ConditionTag.DUVET_0]))
            d5 = float(np.mean(duvet_acc[name][ConditionTag.DUVET_5]))
            d10 = float(np.mean(duvet_acc[name][ConditionTag.DUVET_10]))
            print(f"  {name}: duvet accuracy {d0:.3f} -> {d5:.3f} -> {d10:.3f}")
            assert d0 <= d5 <= d10, name
            assert d0 < min(d5, d10), name


def test_criterion_3_metric_formulas():
    with criterion(3, "metrics match a direct-count rational oracle on 1000 random runs"):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            n = int(rng.integers(1, 80))
            preds = rng.integers(0, 2, n).tolist()
            truth = rng.integers(0, 2, n).tolist()
            counts, acc, sens, spec = direct_count_metrics(preds, truth)
            c = confusion([Label(p) for p in preds], [Label(t) for t in truth])
            assert (c.tp, c.fp, c.tn, c.fn) == counts
            assert accuracy(c) == float(acc)
            got_sens, got_spec = sensitivity(c), specificity(c)
            assert (got_sens is None) == (sens is None)
            assert (got_spec is None) == (spec is None)
            if sens is not None:
                assert got_sens == float(sens)
            if spec is not None:
                assert got_spec == float(spec)


def test_criterion_4_knn_oracle_equivalence():
    with criterion(4, "k-NN matches brute force on 200 random instances incl. tie cases"):
        from thermal_sense.classifiers.knn import predict_knn_batch, train_knn

        rng = np.random.default_rng(44)
        for trial in range(200):
            n_train = int(rng.integers(2, 51))
            n_test = int(rng.integers(1, 21))
            k = min(int(rng.choice([1, 3, 5, 7])), n_train)
            if trial % 3 == 0:
                x = rng.integers(0, 3, (n_train, 64)).astype(float)
                q = rng.integers(0, 3, (n_test, 64)).astype(float)
            else:
                x = rng.normal(25, 4, (n_train, 64))
                q = rng.normal(25, 4, (n_test, 64))
            y = rng.integers(0, 2, n_train)
            ds = dataset_from_arrays(x, y)
            for weighting in ("uniform", "distance"):
                got = predict_knn_batch(train_knn(ds, k, weighting), q)
                expected = [
                    brute_force_knn(x.tolist(), y.tolist(), k, weighting, row.tolist())
                    for row in q
                ]
                assert got.tolist() == expected, (trial, weighting)


def test_criterion_5_svm_correctness():
    with criterion(5, "SVM satisfies KKT within 1e-3, analytic 2-point solution, sum(a*y) <= 1e-8"):
        from test_svm import max_kkt_violation

        rng = np.random.default_rng(55)
        kernels = [
            KernelSpec("linear"),
            KernelSpec("rbf"),
            KernelSpec("poly", coef0=1.0),
            KernelSpec("sigmoid", coef0=-1.0),
        ]
        for trial in range(50):
            n = int(rng.integers(8, 40))
            x = rng.normal(0, 1, (n, 64))
            y = rng.integers(0, 2, n)
            y[:2] = [0, 1]
            if trial < 25:
                x[y == 1, 0] += 4.0  # separable
            c = float(rng.choice([0.1, 1.0, 10.0]))
            model = train_svm(dataset_from_arrays(x, y), kernels[trial % 4], c=c, tol=1e-3)
            assert abs(float(model.support_alpha @ model.support_y)) <= 1e-8
            assert np.all(model.support_alpha >= 0.0) and np.all(model.support_alpha <= c)
            assert max_kkt_violation(model, x, y, c) <= 1e-3, trial

        toy = embedded([[-1.0], [1.0]])
        model = train_svm(dataset_from_arrays(toy, [0, 1]), KernelSpec("linear"), c=1e6)
        w = (model.support_alpha * model.support_y) @ model.support_x
        assert abs(w[0] - 1.0) < 1e-3
        assert abs(model.bias) < 1e-3
        assert abs(2.0 / np.linalg.norm(w) - 2.0) < 1e-3


def test_criterion_6_nn_gradient_and_xor():
    with criterion(6, "NN analytic gradient matches finite differences; XOR solves at width 4"):
        rng = np.random.default_rng(66)
        worst = 0.0
        for trial in range(20):
            hidden = int(rng.integers(1, 25))
            batch_n = int(rng.integers(2, 9))
            x = rng.normal(0, 1, (batch_n, 64))
            y = rng.integers(0, 2, batch_n)
            if len(set(y.tolist())) < 2:
                y[0] = 1 - y[0]
            batch = dataset_from_arrays(x, y)
            model = train_nn(batch, hidden, TrainingParams(0.05, 4, 3), seed=trial)
            analytic = nn_gradient(model, batch)
            numeric = central_difference_gradient(
                lambda t: nn_loss(replace_weights(model, t), batch),
                flatten_weights(model),
                h=1e-5,
            )
            rel = np.abs(analytic - numeric) / np.maximum.reduce(
                [np.ones_like(analytic), np.abs(analytic), np.abs(numeric)]
            )
            worst = max(worst, float(rel.max()))
        print(f"  worst relative gradient error over 20 configs: {worst:.3e}")
        assert worst < 1e-5

        xor = dataset_from_arrays(embedded([[0, 0], [0, 1], [1, 0], [1, 1]]), [0, 1, 1, 0])
        model = train_nn(xor, 4, TrainingParams(0.1, 4, 2000), seed=0)
        assert np.array_equal(predict_nn_batch(model, xor.feature_matrix()), xor.y)


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "identical CLI runs are byte-identical; fold plans stratified within 1"):
        def rerun_identical(*args, outputs):
            first = {}
            assert cli_run([str(a) for a in args]) == 0
            for out in outputs:
                first[out] = out.read_bytes()
            assert cli_run([str(a) for a in args]) == 0
            for out in outputs:
                assert out.read_bytes() == first[out], out

        main = tmp_path / "main.csv"
        rerun_identical("simulate", "main", "--n-per-class", 30, "--seed", 5,
                        "--out", main, outputs=[main])

        model = tmp_path / "svm.model"
        rerun_identical("train", "--data", main, "--seed", 5, "--model", "svm",
                        "--out", model, outputs=[model])
        nn_model = tmp_path / "nn.model"
        rerun_identical("train", "--data", main, "--seed", 5, "--model", "nn",
                        "--hidden", 8, "--epochs", 40, "--out", nn_model,
                        outputs=[nn_model])

        report = tmp_path / "cv.json"
        rerun_identical("cv", "--data", main, "--folds", 5, "--seed", 5,
                        "--model", "knn", "--k", 1, "--report", report,
                        outputs=[report])

        trace = tmp_path / "trace.csv"
        rows = ["timestamp,label"] + [f"{30 * i},person" for i in range(10)] \
            + [f"{300 + 30 * i},no_person" for i in range(60)]
        trace.write_text("\n".join(rows) + "\n")
        events = tmp_path / "events.csv"
        rerun_identical("monitor", "--input", trace, "--out", events, outputs=[events])

        ds = load_dataset(main)
        plan = make_folds(ds, 5, 5)
        for label in (Label.PERSON, Label.NO_PERSON):
            per_fold = [
                sum(1 for i, a in enumerate(plan.assignment)
                    if a == f and ds.samples[i].label is label)
                for f in range(5)
            ]
            assert max(per_fold) - min(per_fold) <= 1


def test_criterion_8_quantization_range():
    with criterion(8, "10,000 generated frames lie in [20, 100] on the quarter-degree grid"):
        rng = np.random.default_rng(88)
        checked = 0
        for i in range(10_000):
            room = float(rng.uniform(16.0, 30.0))
            person = None
            duvet = None
            if rng.random() < 0.5:
                person = PersonConfig(
                    (float(rng.uniform(3.0, 4.0)), float(rng.uniform(3.0, 4.0))),
                    float(rng.uniform(-20, 20)),
                    (2.8, 1.2),
                    float(rng.uniform(28.0, 37.0)),
                )
                if rng.random() < 0.5:
                    duvet = float(rng.uniform(0.0, 15.0))
            sources = ()
            if rng.random() < 0.3:
                sources = (PointSource(
                    (float(rng.uniform(1.5, 6.5)), float(rng.uniform(1.5, 6.5))),
                    0.35,
                    float(rng.uniform(25.0, 45.0)),
                ),)
            cfg = SceneConfig(room, person, sources, duvet,
                              noise_sigma=float(rng.uniform(0.0, 0.5)), seed=i)
            arr = render(cfg)
            assert np.all(arr >= 20.0) and np.all(arr <= 100.0)
            assert np.all((arr * 4) == np.round(arr * 4))
            checked += 1
        assert checked == 10_000


def test_criterion_9_monitor_trace():
    with criterion(9, "scripted 8-hour trace yields exactly one bed-exit and one return"):
        cfg = MonitorConfig(debounce_frames=3, long_absence_s=900.0,
                            window_s=8 * 3600.0, max_exits=5)
        P, N = Label.PERSON, Label.NO_PERSON
        frames = []
        t = 0.0
        for label, count in ((P, 240), (N, 1), (P, 119), (N, 60), (P, 540)):
            for _ in range(count):
                frames.append((t, label))
                t += 30.0
        assert frames[-1][0] == pytest.approx(8 * 3600.0 - 30.0)
        events = replay(frames, cfg)
        assert [(e.timestamp, e.kind) for e in events] == [
            (11760.0, EventKind.BED_EXIT),
            (12660.0, EventKind.RETURN),
        ]
        # pure glitches: no transitions, no events
        glitchy = [(30.0 * i, P if i % 50 else N) for i in range(1, 960)]
        assert replay(glitchy, cfg) == []


def test_criterion_10_persistence_round_trips(tmp_path):
    with criterion(10, "dataset/report bytes and model predictions survive round trips"):
        ds = generate_main(240, 12)
        path = tmp_path / "main.csv"
        save_dataset(ds, path)
        first = path.read_bytes()
        save_dataset(load_dataset(path), path)
        assert path.read_bytes() == first

        report_path = tmp_path / "report.json"
        save_report({"tool": "thermal-sense", "version": "0.1.0",
                     "config": {"seed": 12}, "results": {"accuracy_mean": 0.99}}, report_path)
        report_bytes = report_path.read_bytes()
        save_report(json.loads(report_bytes), report_path)
        assert report_path.read_bytes() == report_bytes

        rng = np.random.default_rng(10)
        probes = rng.normal(25, 6, (1000, 64))
        small = generate_main(30, 13)
        for spec in (KnnSpec(3, "distance"), SvmSpec(KernelSpec("rbf")),
                     NnSpec(8, TrainingParams(0.01, 16, 40))):
            model = spec.train_model(small, 9)
            model_path = tmp_path / "model.txt"
            save_model(model, model_path)
            loaded = load_model(model_path)
            assert np.array_equal(predictor(model)(probes), predictor(loaded)(probes))
