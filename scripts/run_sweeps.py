#!/usr/bin/env python3
"""Cross-validated parameter sweeps on a synthetic baseline dataset.

Generates the main dataset, then runs all three sweep families (SVM
kernels, k-NN grid, NN widths) on shared folds, and writes one report
plus one plot CSV per family into --out-dir, in the formats of the
`sweep` command. Errors exit as in the CLI: 2 for bad data or input,
3 for a training failure.
"""

import argparse
import sys
import time
from pathlib import Path

from thermal_sense.classifiers.nn import TrainingParams
from thermal_sense.cli import exit_on_error
from thermal_sense.core import make_folds
from thermal_sense.evaluate import NnSpec, sweep, sweep_specs
from thermal_sense.persist import (atomic_write_text, build_report, save_dataset, save_report,
                                   sweep_plot_csv, sweep_results)
from thermal_sense.simulate import generate_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-per-class", type=int, default=240)
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--nn-epochs", type=int, default=200,
                        help="epochs for the width sweep (wide nets train slowly)")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ds = generate_main(args.n_per_class, args.seed)
    save_dataset(ds, out_dir / "main.csv")
    plan = make_folds(ds, args.folds, args.seed)

    for family in ("svm-kernels", "knn-grid", "nn-widths"):
        specs = sweep_specs(family)
        if family == "nn-widths":
            hp = TrainingParams(epochs=args.nn_epochs)
            specs = tuple(NnSpec(s.hidden, hp) for s in specs)
        start = time.perf_counter()
        rows = sweep(ds, plan, family, args.seed, specs=specs)
        elapsed = time.perf_counter() - start

        print(f"== {family} ({elapsed:.1f}s)")
        for row in rows:
            print(f"  {row.label:20s} {row.result.accuracy_mean:.4f} "
                  f"+- {row.result.accuracy_std:.4f}")

        report = build_report(f"scripts/run_sweeps {family}", vars(args) | {"family": family},
                              sweep_results(rows))
        save_report(report, out_dir / f"sweep_{family}.json")
        atomic_write_text(out_dir / f"sweep_{family}.csv", sweep_plot_csv(rows))
    return 0


if __name__ == "__main__":
    sys.exit(exit_on_error(main))
