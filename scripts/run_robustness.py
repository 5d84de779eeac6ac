#!/usr/bin/env python3
"""Robustness of main-trained classifiers under environmental perturbations.

Trains the three reference configurations (linear SVM, 1-NN, NN with 128
hidden units) on the synthetic main dataset, evaluates them on the
variational dataset as a whole and per condition, and writes one report
and one plot CSV per classifier into --out-dir, in the formats of
`eval --by-condition`. Errors exit as in the CLI: 2 for bad data or
input, 3 for a training failure, each with one `error: ...` line.
"""

import argparse
import sys
from pathlib import Path

from thermal_sense.classifiers.kernels import KernelSpec
from thermal_sense.cli import exit_on_error
from thermal_sense.errors import check_int
from thermal_sense.evaluate import KnnSpec, NnSpec, SvmSpec, evaluate_by_condition
from thermal_sense.persist import (atomic_write_text, build_report, eval_plot_csv, eval_results,
                                   save_dataset, save_report)
from thermal_sense.simulate import generate_main, generate_variational


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-per-class", type=int, default=240)
    parser.add_argument("--n-per-cell", type=int, default=30)
    args = parser.parse_args()
    check_int("--seed", args.seed, 0)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    main_ds = generate_main(args.n_per_class, args.seed)
    var_ds = generate_variational(args.n_per_cell, args.seed + 5000)
    save_dataset(main_ds, out_dir / "main.csv")
    save_dataset(var_ds, out_dir / "variational.csv")

    classifiers = (
        ("svm_linear", SvmSpec(KernelSpec("linear"))),
        ("knn_1", KnnSpec(1, "uniform")),
        ("nn_128", NnSpec(128)),
    )

    def fmt(value):
        return "  n/a " if value is None else f"{value:.4f}"

    for name, spec in classifiers:
        model = spec.train_model(main_ds, args.seed)
        overall, per = evaluate_by_condition(model, var_ds)
        print(f"== {name}")
        rows = [("overall", overall)] + [(tag.value, rep) for tag, rep in per.items()]
        for row_name, rep in rows:
            print(f"  {row_name:14s} n={rep.counts.total:3d} acc={fmt(rep.accuracy)} "
                  f"sens={fmt(rep.sensitivity)} spec={fmt(rep.specificity)}")

        report = build_report(f"scripts/run_robustness {name}", vars(args) | {"classifier": name},
                              eval_results(overall, per))
        save_report(report, out_dir / f"robustness_{name}.json")
        atomic_write_text(out_dir / f"robustness_{name}.csv", eval_plot_csv(overall, per))
    return 0


if __name__ == "__main__":
    sys.exit(exit_on_error(main))
