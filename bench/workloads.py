"""The benchmark's three workloads, built from the package's public functions.

Each workload mirrors the library calls the CLI commands make, so that
the traced run can wrap every layer call from outside the package:

- paper-repro: one seed of acceptance criteria 1 and 2 (simulate, CSV
  round trip, 10-fold CV and full-set training of linear SVM, 1-NN and
  NN(128), model files, per-condition evaluation, report). NN training
  dominates.
- scale-sweep: main(960), the svm-kernels and knn-grid sweeps on one
  shared 10-fold plan, then a 1-NN trained on all 1,920 rows is saved,
  loaded and evaluated by condition. SMO, Gram matrices and batch k-NN
  dominate; no NN is trained.
- bedside-stream: one night served one frame at a time (quantize,
  single-query k-NN, monitor step). Single-query latency dominates.

Every workload reports every metric, so the two batch workloads also
serve the night, a few frames after each model fit (see NightStream).
The stream model, a 1-NN on main(240), is deployed in setup.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from thermal_sense import core, evaluate, monitor, persist, simulate
from thermal_sense.classifiers import knn, svm
from thermal_sense.classifiers.kernels import KernelSpec
from thermal_sense.classifiers.nn import TrainingParams
from thermal_sense.core import ConditionTag, Label
from thermal_sense.evaluate import KnnSpec, NnSpec, SvmSpec, Trainer

from speed import SpeedProbe

GATE_ACCURACY = 0.97  # acceptance criterion 1
FOLDS = 10
STREAM_SPEC = KnnSpec(1)
REFERENCE_SPECS = (SvmSpec(KernelSpec("linear")), STREAM_SPEC, NnSpec(128))

# One night, eight hours at one frame every 20 s (1,440 frames). "in":
# person in bed, starting under a cold duvet that warms over 15 minutes;
# "out": a short exit; "away": a long absence with a warm bottle left in
# the bed. Seven exits in eight hours and one 25-minute absence make
# bed_exit, return and frequent_exits all fire on the true labels.
FRAME_INTERVAL_S = 20.0
NIGHT_SCRIPT = (
    ("in", 30), ("out", 4), ("in", 40), ("out", 3), ("in", 35), ("out", 5),
    ("in", 45), ("away", 25), ("in", 50), ("out", 4), ("in", 40), ("out", 3),
    ("in", 60), ("out", 4), ("in", 132),
)
DUVET_WARMUP = ((5.0, ConditionTag.DUVET_0), (10.0, ConditionTag.DUVET_5),
                (15.0, ConditionTag.DUVET_10))


# --- the night stream ----------------------------------------------------

@dataclass(frozen=True)
class Night:
    frames: np.ndarray      # (n, 8, 8) quantized Celsius, as read from the sensor
    truth: np.ndarray       # (n,) 0/1 labels
    timestamps: np.ndarray  # (n,) seconds


def _pools(*datasets) -> dict[tuple[Label, ConditionTag], np.ndarray]:
    rows: dict[tuple[Label, ConditionTag], list] = {}
    for ds in datasets:
        for s in ds.samples:
            rows.setdefault((s.label, s.condition), []).append(s.features)
    return {key: np.array(v, dtype=np.float64) for key, v in rows.items()}


def build_night(seed: int) -> Night:
    """Script one night from seeded frame pools disjoint from any training set."""
    pools = _pools(simulate.generate_main(120, seed + 2),
                   simulate.generate_variational(30, seed + 3))
    rng = np.random.default_rng(seed)
    frames, truth = [], []
    per_minute = round(60.0 / FRAME_INTERVAL_S)
    for state, minutes in NIGHT_SCRIPT:
        for i in range(minutes * per_minute):
            minute = i / per_minute
            if state == "in":
                tag = next((t for end, t in DUVET_WARMUP if minute < end), ConditionTag.BASELINE)
                key = (Label.PERSON, tag)
            elif state == "out":
                key = (Label.NO_PERSON, ConditionTag.BASELINE)
            else:
                key = (Label.NO_PERSON, ConditionTag.WATER_BOTTLE)
            pool = pools[key]
            frames.append(pool[rng.integers(len(pool))].reshape(8, 8))
            truth.append(int(key[0]))
    n = len(frames)
    return Night(np.array(frames), np.array(truth), np.arange(n) * FRAME_INTERVAL_S)


@dataclass
class Stream:
    preds: list[int]
    events: list
    latencies_ns: list[int]  # of the frames the speed probe left undisturbed
    starts_ns: list[int]     # perf_counter_ns at each timed frame's start
    failed_frames: list[tuple[int, str]]


class NightStream:
    """A night served frame by frame: each frame is quantized, classified
    alone and passed to the monitor (closed loop, one caller). A frame's
    latency is its processing time. A frame during which (or just before
    which) the speed probe ran is served and checked but not timed: the
    probe's cache footprint would land in the tail of the latencies.

    With `frames_per_s`, frames arrive at that rate from the stream's start
    and `catch_up` serves those that have arrived; a batch workload calls it
    between its steps, so frames are served throughout its pass.
    """

    def __init__(self, model, night: Night, speed: SpeedProbe,
                 frames_per_s: float | None = None):
        self.model = model
        self.night = night
        self.speed = speed
        self.frames_per_s = frames_per_s
        self.start = time.perf_counter()
        self.state = monitor.initial_state()
        self.out = Stream([], [], [], [], [])

    def serve(self, n: int) -> None:
        out, night, clock, speed = self.out, self.night, time.perf_counter_ns, self.speed
        first = len(out.preds)
        busy = speed.busy_ns
        for i in range(first, min(first + n, len(night.truth))):
            t0 = clock()
            try:
                frame = core.quantize(night.frames[i])
                x = np.asarray(core.flatten(frame), dtype=np.float64)[None, :]
                label = Label(int(knn.predict_knn_batch(self.model, x)[0]))
                self.state, new_events = monitor.step(self.state, label,
                                                      float(night.timestamps[i]))
            except Exception as exc:  # a failed frame is counted; the stream goes on
                out.preds.append(-1)
                out.failed_frames.append((i, f"{type(exc).__name__}: {exc}"))
                continue
            t1 = clock()
            if speed.busy_ns == busy:
                out.latencies_ns.append(t1 - t0)
                out.starts_ns.append(t0)
            busy = speed.busy_ns
            out.preds.append(int(label))
            out.events.extend(new_events)

    def catch_up(self) -> None:
        arrived = int((time.perf_counter() - self.start) * self.frames_per_s)
        if arrived > len(self.out.preds):
            self.serve(arrived - len(self.out.preds))

    def finish(self) -> Stream:
        self.serve(len(self.night.truth) - len(self.out.preds))
        return self.out


class ServingSpec:
    """A classifier spec that lets a night stream catch up after every fit."""

    def __init__(self, spec, stream: NightStream):
        self.spec = spec
        self.stream = stream

    def label(self) -> str:
        return self.spec.label()

    def train_model(self, train, seed):
        model = self.spec.train_model(train, seed)
        self.stream.catch_up()
        return model


# --- output checks -------------------------------------------------------
# Each returns a list of problems; an empty list means the check passed.

def check_gate(cv_means: dict[str, float], required) -> list[str]:
    problems = []
    for label in required:
        mean = cv_means.get(label)
        if mean is None:
            problems.append(f"gate: no CV result for {label}")
        elif mean < GATE_ACCURACY:
            problems.append(f"gate: {label} CV accuracy {mean:.4f} < {GATE_ACCURACY}")
    return problems


def check_stream_predictions(stream_preds, batch_preds) -> list[str]:
    batch = [int(p) for p in batch_preds]
    if len(stream_preds) != len(batch):
        return [f"stream: {len(stream_preds)} frame predictions for {len(batch)} frames"]
    bad = [i for i, (a, b) in enumerate(zip(stream_preds, batch)) if a != b]
    return [f"stream: frame {i} predicted {stream_preds[i]} alone, {batch[i]} in batch"
            for i in bad[:3]] + ([f"stream: {len(bad)} frames differ"] if bad else [])


def check_events(step_events, replay_events) -> list[str]:
    if list(step_events) == list(replay_events):
        return []
    return [f"monitor: step loop gave {len(step_events)} events, replay {len(replay_events)}"]


def check_digests(digests) -> list[str]:
    distinct = len(set(digests))
    return [] if distinct <= 1 else [f"digest: passes disagree ({distinct} digests)"]


def check_night(night: Night) -> list[str]:
    """The scripted true labels must make every monitor event kind fire."""
    events = monitor.replay((float(ts), Label(int(t))) for ts, t in zip(night.timestamps, night.truth))
    missing = set(monitor.EventKind) - {e.kind for e in events}
    return [f"night: true labels never fire {sorted(k.value for k in missing)}"] if missing else []


def stream_reference(model, night: Night):
    """What a replay must give: batch predictions over the night, and their monitor replay."""
    batch = knn.predict_knn_batch(model, night.frames.reshape(len(night.truth), -1))
    return batch, monitor.replay((float(ts), Label(int(p))) for ts, p in zip(night.timestamps, batch))


def check_stream(stream: Stream, reference) -> list[str]:
    batch, events = reference
    return check_stream_predictions(stream.preds, batch) + check_events(stream.events, events)


# --- passes ---------------------------------------------------------------

@dataclass
class PassOutput:
    cv_means: dict[str, float]
    shift_accuracy: list[float]
    duvet_0_accuracy: list[float]
    stream: Stream
    artifacts: list = field(default_factory=list)  # str, or Path read after timing

    def digest(self) -> str:
        h = hashlib.sha256()
        for a in self.artifacts:
            h.update(a.read_bytes() if isinstance(a, Path) else a.encode())
        h.update(repr((self.stream.preds, [(e.timestamp, e.kind.value) for e in self.stream.events]))
                 .encode())
        return h.hexdigest()


def _metrics_dict(rep) -> dict:
    c = rep.counts
    return {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn, "accuracy": rep.accuracy,
            "sensitivity": rep.sensitivity, "specificity": rep.specificity}


class Workload:
    name = ""
    gate_labels: tuple[str, ...] = ()
    probes: tuple[str, ...] = ()  # layers the passes never call; traced runs probe them
    ops_are_frames = False  # an operation is a pass, or each of its night's frames

    def __init__(self, seed: int, workdir: Path, speed: SpeedProbe | None = None):
        self.seed = seed
        self.workdir = workdir
        self.speed = speed or SpeedProbe()  # one never started scales nothing
        self.night: Night | None = None
        self.setup_problems: list[str] = []
        self.first_digest: str | None = None

    def setup(self) -> None:
        """Script the night and deploy the stream model: a 1-NN on main(240)."""
        self.night = build_night(self.seed)
        self.train, _ = self._round_trip(simulate.generate_main(240, self.seed), "main")
        self.model, _ = self._deploy(STREAM_SPEC, self.train)
        self.reference = None
        self.setup_problems = []

    def run_pass(self) -> PassOutput:
        raise NotImplementedError

    def audit(self, out: PassOutput) -> list[str]:
        """Every output check for one pass; its digest must equal the first pass's."""
        if self.reference is None:  # checks of what setup built run untraced, once
            self.reference = stream_reference(self.model, self.night)
            self.setup_problems += check_night(self.night)
        digest = out.digest()
        self.first_digest = self.first_digest or digest
        return self.setup_problems + self.check(out) + check_digests([self.first_digest, digest])

    def check(self, out: PassOutput) -> list[str]:
        return (check_gate(out.cv_means, self.gate_labels)
                + check_stream(out.stream, self.reference))  # the stream model is fixed

    # shared stages, as the CLI commands run them

    def _round_trip(self, ds, name):
        text = persist.dataset_to_csv(ds)
        return persist.dataset_from_csv(text, name), text

    def _deploy(self, spec, train):
        path = self.workdir / f"{spec.label().split()[0]}.model"
        persist.save_model(spec.train_model(train, self.seed), path)
        return persist.load_model(path), path

    def _evaluate(self, models: dict, var, cv_means: dict):
        evals = {label: evaluate.evaluate_by_condition(m, var) for label, m in models.items()}
        report = {"cv": cv_means, "eval": {
            label: {"overall": _metrics_dict(overall),
                    "by_condition": {t.value: _metrics_dict(r) for t, r in by_cond.items()}}
            for label, (overall, by_cond) in evals.items()}}
        path = self.workdir / "report.json"
        persist.save_report(report, path)
        shift = [overall.accuracy for overall, _ in evals.values()]
        duvet_0 = [by_cond[ConditionTag.DUVET_0].accuracy for _, by_cond in evals.values()]
        return shift, duvet_0, path

    def probe(self, layer: str) -> None:
        """Exercise a layer this workload never calls, on a fixed small problem.

        Used only by traced runs, so every per-layer metric exists on every
        workload; the trace marks these spans with pass id "probe".
        """
        if layer == "nn":
            spec = NnSpec(128, TrainingParams(epochs=50))
        else:
            spec = SvmSpec(KernelSpec("linear"))
        evaluate.predictor(spec.train_model(self.train, self.seed))(self.train.feature_matrix())


class PaperRepro(Workload):
    name = "paper-repro"
    gate_labels = tuple(spec.label() for spec in REFERENCE_SPECS)
    frames_per_s = 160  # one night over a ~9 s pass

    def run_pass(self) -> PassOutput:
        stream = NightStream(self.model, self.night, self.speed, self.frames_per_s)
        main, main_csv = self._round_trip(simulate.generate_main(240, self.seed), "main")
        var, var_csv = self._round_trip(
            simulate.generate_variational(30, self.seed + 1), "variational")
        plan = core.make_folds(main, FOLDS, self.seed)
        cv_means = {
            spec.label(): evaluate.cross_validate(
                main, plan, Trainer(ServingSpec(spec, stream), self.seed)).accuracy_mean
            for spec in REFERENCE_SPECS
        }
        models, paths = {}, []
        for spec in REFERENCE_SPECS:
            models[spec.label()], path = self._deploy(spec, main)
            paths.append(path)
        shift, duvet_0, report = self._evaluate(models, var, cv_means)
        return PassOutput(cv_means, shift, duvet_0, stream.finish(),
                          [main_csv, var_csv, *paths, report])


class ScaleSweep(Workload):
    name = "scale-sweep"
    gate_labels = ("svm linear", STREAM_SPEC.label())
    probes = ("nn",)
    frames_per_s = 110  # one night over a ~13 s pass

    def run_pass(self) -> PassOutput:
        stream = NightStream(self.model, self.night, self.speed, self.frames_per_s)
        main, main_csv = self._round_trip(simulate.generate_main(960, self.seed), "main")
        plan = core.make_folds(main, FOLDS, self.seed)
        rows = tuple(
            row for family in ("svm-kernels", "knn-grid")
            for row in evaluate.sweep(main, plan, family, self.seed, specs=tuple(
                ServingSpec(spec, stream) for spec in evaluate.sweep_specs(family))))
        cv_means = {row.label: row.result.accuracy_mean for row in rows}
        var, var_csv = self._round_trip(
            simulate.generate_variational(30, self.seed + 1), "variational")
        model, path = self._deploy(STREAM_SPEC, main)
        shift, duvet_0, report = self._evaluate({STREAM_SPEC.label(): model}, var, cv_means)
        return PassOutput(cv_means, shift, duvet_0, stream.finish(),
                          [main_csv, var_csv, path, report])


class BedsideStream(Workload):
    name = "bedside-stream"
    probes = ("nn", "svm")
    ops_are_frames = True

    def setup(self) -> None:
        """Also gate the stream model with 10-fold CV and evaluate it by condition."""
        super().setup()
        var, _ = self._round_trip(
            simulate.generate_variational(30, self.seed + 1), "variational")
        plan = core.make_folds(self.train, FOLDS, self.seed)
        self.cv_means = {STREAM_SPEC.label(): evaluate.cross_validate(
            self.train, plan, Trainer(STREAM_SPEC, self.seed)).accuracy_mean}
        self.shift, self.duvet_0, _ = self._evaluate(
            {STREAM_SPEC.label(): self.model}, var, self.cv_means)
        self.setup_problems += check_gate(self.cv_means, (STREAM_SPEC.label(),))

    def run_pass(self) -> PassOutput:
        stream = NightStream(self.model, self.night, self.speed).finish()
        return PassOutput(self.cv_means, self.shift, self.duvet_0, stream)


WORKLOADS = {cls.name: cls for cls in (PaperRepro, ScaleSweep, BedsideStream)}


# --- traced entry points ---------------------------------------------------
# Each is wrapped at the name its callers look it up by. The item count
# says what one span processed.

def _rows(args, kwargs, result):
    return len(args[1])


def _len_result(args, kwargs, result):
    return len(result)


def _nn_steps(args, kwargs, result):
    n = len(args[0])
    params = result.params
    return params.epochs * -(-n // params.batch_size)


ENTRY_POINTS = (
    (simulate, "generate_main", "simulate.generate", _len_result),
    (simulate, "generate_variational", "simulate.generate", _len_result),
    (core, "quantize", "core.quantize", None),
    (core, "make_folds", "core.make_folds", lambda a, k, r: len(r.assignment)),
    (persist, "dataset_to_csv", "persist.csv_write", lambda a, k, r: len(a[0])),
    (persist, "dataset_from_csv", "persist.csv_read", _len_result),
    (persist, "save_model", "persist.model_save", None),
    (persist, "load_model", "persist.model_load", None),
    (persist, "save_report", "persist.report_save", None),
    (evaluate, "cross_validate", "evaluate.cv", lambda a, k, r: len(r.fold_reports)),
    (evaluate, "evaluate_by_condition", "evaluate.by_condition", lambda a, k, r: len(a[1])),
    (evaluate, "train_svm", "svm.fit", lambda a, k, r: len(r.support_alpha)),
    (evaluate, "train_knn", "knn.fit", lambda a, k, r: len(a[0])),
    (evaluate, "train_nn", "nn.fit", _nn_steps),
    (evaluate, "predict_svm_batch", "svm.predict", _rows),
    (evaluate, "predict_knn_batch", "knn.predict", _rows),
    (evaluate, "predict_nn_batch", "nn.predict", _rows),
    (svm, "kernel_matrix", "kernels.kernel_matrix", lambda a, k, r: r.size),
    (knn, "predict_knn_batch", "knn.predict", _rows),
    (monitor, "step", "monitor.step", lambda a, k, r: len(r[1])),
    (NightStream, "serve", "bench.stream", lambda a, k, r: a[1]),
)
