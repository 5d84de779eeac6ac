"""Command-line entry point for reproducible simulation/training/eval runs.

Exit codes: 0 success, 1 usage error, 2 data or format error, 3 training
failure. Every report embeds the tool version and the fully resolved
configuration, and all outputs are written atomically, so identical
command lines (including seeds) produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys

from .classifiers.kernels import KERNEL_KINDS, KernelSpec
from .classifiers.knn import WEIGHTINGS
from .classifiers.nn import TrainingParams
from .core import Label, make_folds, split_train_test
from .errors import DataFormatError, InvalidInputError, ThermalSenseError, TrainingError
from .evaluate import (
    KnnSpec,
    NnSpec,
    SWEEP_FAMILIES,
    SvmSpec,
    Trainer,
    cross_validate,
    evaluate_by_condition,
    predictor,
    sweep,
)
from .monitor import MonitorConfig, replay
from .persist import (
    TOOL_NAME,
    atomic_write_text,
    build_report,
    cv_results,
    eval_plot_csv,
    eval_results,
    load_dataset,
    load_model,
    read_lines,
    save_dataset,
    save_model,
    save_report,
    sweep_plot_csv,
    sweep_results,
)
from .simulate import DEFAULT_SIM_PARAMS, generate_main, generate_variational, load_sim_params

def _write_outputs(args: argparse.Namespace, results: dict, plot: str | None = None) -> None:
    """Write the `--report` of `results` and the `--emit-plot-data` CSV `plot`, if asked for."""
    if args.report:
        config = {k: v for k, v in vars(args).items() if k != "func"}
        save_report(build_report(args.command, config, results), args.report)
    if plot is not None and args.emit_plot_data:
        atomic_write_text(args.emit_plot_data, plot)
        print(f"wrote plot data to {args.emit_plot_data}")
    if args.report:
        print(f"wrote report to {args.report}")


def _spec_from_args(args: argparse.Namespace):
    if args.model == "knn":
        return KnnSpec(args.k, args.weighting)
    if args.model == "svm":
        kernel = KernelSpec(args.kernel, args.degree, args.gamma, args.coef0)
        return SvmSpec(kernel, args.c, args.tol, args.max_iter)
    return NnSpec(args.hidden, TrainingParams(args.lr, args.batch_size, args.epochs))


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    knn, svm, nn = KnnSpec(), SvmSpec(), NnSpec()  # each default is the library's own
    sp.add_argument("--model", required=True, choices=("knn", "svm", "nn"))
    sp.add_argument("--k", type=int, default=knn.k, help="k-NN neighbor count")
    sp.add_argument("--weighting", choices=WEIGHTINGS, default=knn.weighting)
    sp.add_argument("--kernel", choices=KERNEL_KINDS, default=svm.kernel.kind)
    sp.add_argument("--c", type=float, default=svm.c, help="SVM regularization")
    sp.add_argument("--gamma", type=float, default=svm.kernel.gamma)
    sp.add_argument("--degree", type=int, default=svm.kernel.degree)
    sp.add_argument("--coef0", type=float, default=svm.kernel.coef0)
    sp.add_argument("--tol", type=float, default=svm.tol)
    sp.add_argument("--max-iter", type=int, default=svm.max_iter, help="SMO pair-update cap")
    sp.add_argument("--hidden", type=int, default=nn.hidden, help="NN hidden width")
    sp.add_argument("--lr", type=float, default=nn.params.learning_rate)
    sp.add_argument("--batch-size", type=int, default=nn.params.batch_size)
    sp.add_argument("--epochs", type=int, default=nn.params.epochs)


def _load_params(args: argparse.Namespace):
    return load_sim_params(args.params) if args.params else DEFAULT_SIM_PARAMS


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _load_params(args)
    if args.variant == "main":
        ds = generate_main(args.n_per_class, args.seed, params)
    else:
        ds = generate_variational(args.n_per_cell, args.seed, params)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} samples to {args.out}")
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    ds = load_dataset(args.data)
    train, test = split_train_test(ds, args.test_fraction, args.seed)
    save_dataset(train, args.train_out)
    save_dataset(test, args.test_out)
    print(f"wrote {len(train)} train samples to {args.train_out}")
    print(f"wrote {len(test)} test samples to {args.test_out}")
    return 0


def cmd_cv(args: argparse.Namespace) -> int:
    ds = load_dataset(args.data)
    plan = make_folds(ds, args.folds, args.seed)
    spec = _spec_from_args(args)
    result = cross_validate(ds, plan, Trainer(spec, args.seed))
    print(f"{spec.label()}: accuracy mean={result.accuracy_mean:.4f} std={result.accuracy_std:.4f}")
    _write_outputs(args, cv_results(result))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    ds = load_dataset(args.data)
    # Fold plan always regenerated from (data, seed): every row shares folds.
    plan = make_folds(ds, args.folds, args.seed)
    rows = sweep(ds, plan, args.family, args.seed)
    for row in rows:
        print(f"{row.label}: accuracy mean={row.result.accuracy_mean:.4f} "
              f"std={row.result.accuracy_std:.4f}")
    _write_outputs(args, sweep_results(rows), sweep_plot_csv(rows))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    ds = load_dataset(args.data)
    spec = _spec_from_args(args)
    model = spec.train_model(ds, args.seed)
    save_model(model, args.out)
    print(f"trained {spec.label()} on {len(ds)} samples; wrote model to {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    overall, by_condition = evaluate_by_condition(model, ds)

    def fmt(value):
        return "n/a" if value is None else f"{value:.4f}"

    rows = [("overall", overall)]
    if args.by_condition:
        rows += [(tag.value, rep) for tag, rep in by_condition.items()]
    for name, rep in rows:
        print(f"{name}: n={rep.counts.total} accuracy={fmt(rep.accuracy)} "
              f"sensitivity={fmt(rep.sensitivity)} specificity={fmt(rep.specificity)}")
    _write_outputs(args, eval_results(overall, by_condition if args.by_condition else None),
                   eval_plot_csv(overall, by_condition))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    labels = predictor(model)(ds.x)
    lines = ["index,label"]
    lines += [f"{i},{Label(int(v)).to_text()}" for i, v in enumerate(labels)]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(labels)} predictions to {args.out}")
    return 0


def _read_trace(path) -> list[tuple[float, Label]]:
    lines = read_lines(path)
    if not lines or lines[0] != "timestamp,label":
        raise DataFormatError(f"{path}:1: expected header 'timestamp,label'")
    trace: list[tuple[float, Label]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 2 fields")
        try:
            ts = float(fields[0])
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: bad timestamp {fields[0]!r}") from None
        if not math.isfinite(ts):
            raise DataFormatError(f"{path}:{lineno}: non-finite timestamp {fields[0]!r}")
        if trace and ts <= trace[-1][0]:
            raise DataFormatError(
                f"{path}:{lineno}: timestamp {ts} not after previous {trace[-1][0]}")
        try:
            trace.append((ts, Label.from_text(fields[1])))
        except InvalidInputError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return trace


def cmd_monitor(args: argparse.Namespace) -> int:
    if any(c in args.bed_id for c in ",\r\n"):  # it is a field of each event record
        raise InvalidInputError(f"--bed-id must not contain ',', CR or LF, got {args.bed_id!r}")
    cfg = MonitorConfig(
        debounce_frames=args.debounce_frames,
        long_absence_s=args.long_absence_min * 60.0,
        window_s=args.window_hours * 3600.0,
        max_exits=args.max_exits,
    )
    trace = _read_trace(args.input)
    out_lines = [f"{e.timestamp!r},{e.kind.value},{args.bed_id}" for e in replay(trace, cfg)]
    atomic_write_text(args.out, "\n".join(out_lines) + ("\n" if out_lines else ""))
    print(f"replayed {len(trace)} frames, {len(out_lines)} events -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Bed-occupancy classification toolkit for 8x8 thermal frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate a synthetic dataset")
    sp.add_argument("variant", choices=("main", "variational"))
    sp.add_argument("--n-per-class", type=int, default=240)
    sp.add_argument("--n-per-cell", type=int, default=30)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--params", default=None, help="key=value simulator parameter file")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("split", help="stratified train/test split")
    sp.add_argument("--data", required=True)
    sp.add_argument("--test-fraction", type=float, default=0.2)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--train-out", required=True)
    sp.add_argument("--test-out", required=True)
    sp.set_defaults(func=cmd_split)

    sp = sub.add_parser("cv", help="stratified k-fold cross-validation")
    sp.add_argument("--data", required=True)
    sp.add_argument("--folds", type=int, default=10)
    sp.add_argument("--seed", type=int, required=True)
    _add_model_flags(sp)
    sp.add_argument("--report", default=None, help="machine-readable report file")
    sp.set_defaults(func=cmd_cv)

    sp = sub.add_parser("sweep", help="cross-validate a family of configurations")
    sp.add_argument("--data", required=True)
    sp.add_argument("--folds", type=int, default=10)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--family", required=True, choices=SWEEP_FAMILIES)
    sp.add_argument("--report", default=None, help="machine-readable report file")
    sp.add_argument("--emit-plot-data", default=None, help="also write a per-row CSV")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("train", help="train one model and save it")
    sp.add_argument("--data", required=True)
    sp.add_argument("--seed", type=int, required=True)
    _add_model_flags(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    sp.add_argument("--model", required=True, help="model file")
    sp.add_argument("--data", required=True)
    sp.add_argument("--by-condition", action="store_true")
    sp.add_argument("--report", default=None, help="machine-readable report file")
    sp.add_argument("--emit-plot-data", default=None, help="also write a per-condition CSV")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("predict", help="predict labels for a dataset")
    sp.add_argument("--model", required=True, help="model file")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("monitor", help="replay a label trace through the bed-exit monitor")
    monitor = MonitorConfig()
    sp.add_argument("--input", required=True, help="CSV of timestamp,label")
    sp.add_argument("--out", required=True, help="event records: timestamp,event_kind,bed_id")
    sp.add_argument("--bed-id", default="bed0")
    sp.add_argument("--debounce-frames", type=int, default=monitor.debounce_frames)
    sp.add_argument("--long-absence-min", type=float, default=monitor.long_absence_s / 60)
    sp.add_argument("--window-hours", type=float, default=monitor.window_s / 3600)
    sp.add_argument("--max-exits", type=int, default=monitor.max_exits)
    sp.set_defaults(func=cmd_monitor)

    return parser


def exit_on_error(func, *args) -> int:
    """func(*args), or the exit code of the package or OS error it raised.

    The error is printed as one `error: ...` line on stderr.
    """
    try:
        return func(*args)
    except (ThermalSenseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, TrainingError) else 2


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    return exit_on_error(args.func, args)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
