"""thermal-sense benchmark: one workload, one seed, one line of JSON.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-repro --seed 7 --seconds 36 --trace 0

With --trace 0 the last line of standard output holds the end-to-end
metrics of untraced passes, their times scaled to a reference machine by
a speed probe (see speed.py). With --trace 1 it holds the per-layer
metrics: passes alternate untraced and traced, and the traced ones wrap
each layer's entry points (see workloads.ENTRY_POINTS). The line before
it records the environment. Results and spans are also written under
.bench_out/. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

PROCESS_START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one thread: BLAS worker threads that spin after a large
# product stall the single-frame path on a small machine. A value set
# in the environment wins, and every result records it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

DEFAULT_SEED = 7
HELDOUT_SEED = 1013
SETUP_REPEATS = 3
OUT_DIR = Path(".bench_out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "THERMAL_SENSE_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("paper-repro", "scale-sweep", "bedside-stream"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELDOUT_SEED})")
    p.add_argument("--seconds", type=float, default=36.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = Path(".git") / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 has no mode="dicts"
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def scaled_ns(speed, t0: int, t1: int, probe_ns: int) -> float:
    """An interval's time on the reference machine, the probe's own time left out."""
    return (t1 - t0 - probe_ns) * speed.factor(t0, t1)


def nearest_rank(sorted_values, q):
    """q-quantile by nearest rank, with the number of samples above it."""
    rank = max(1, math.ceil(len(sorted_values) * q))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Run:
    def __init__(self, workload, trace: bool):
        self.wl = workload
        self.trace = trace
        self.untraced_ns: list[int] = []  # scaled to the reference machine
        self.traced_ns: list[int] = []
        self.wall_ns: list[int] = []  # every pass as timed, probe time included
        self.traced_ids: list[int] = []
        self.last = None  # outputs of the latest pass; earlier ones are summarised
        self.frame_quantiles: list[tuple] = []  # per pass: (p50, p99, samples beyond p99, samples)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def fail(self, where: str, problems) -> None:
        for p in problems:
            if len(self.problems) < 20:
                self.problems.append(f"{where}: {p}")

    def one_pass(self, k: int, recorder, entry_points):
        traced = self.trace and k % 2 == 1
        out = None
        speed = self.wl.speed
        busy = speed.busy_ns
        t0 = time.perf_counter_ns()
        try:
            if traced:
                recorder.pass_id = k
                with recorder.installed(entry_points), recorder.span("pass"):
                    out = self.wl.run_pass()
            else:
                out = self.wl.run_pass()
        except Exception:  # a failed pass is counted; the run goes on
            self.fail(f"pass {k}", [traceback.format_exc(limit=3)])
        finally:
            recorder.pass_id = None
        t1 = time.perf_counter_ns()
        self.wall_ns.append(t1 - t0)
        (self.traced_ns if traced else self.untraced_ns).append(
            scaled_ns(speed, t0, t1, speed.busy_ns - busy))
        if traced:
            self.traced_ids.append(k)
        self.account(k, out)

    def account(self, k, out) -> None:
        """Check one pass's outputs and count its operations."""
        per_frame = self.wl.ops_are_frames
        n_ops = len(self.wl.night.truth) if per_frame else 1
        self.attempted += n_ops
        if out is None:
            self.failed += n_ops
            return
        try:
            problems = self.wl.audit(out)
        except Exception:  # a check that crashes is a failed check
            problems = [traceback.format_exc(limit=3)]
        self.last = out
        # An undisturbed frame holds no probe sample, so the nearest one scales it.
        speed = self.wl.speed
        latencies = sorted(lat * speed.factor(t, t + lat)
                           for lat, t in zip(out.stream.latencies_ns, out.stream.starts_ns))
        if latencies:
            (p50, _), (p99, beyond) = (nearest_rank(latencies, q) for q in (0.50, 0.99))
            self.frame_quantiles.append((p50, p99, beyond, len(latencies)))
        self.fail(f"pass {k}", problems + [f"frame {i}: {m}" for i, m in out.stream.failed_frames])
        if problems:
            self.failed += n_ops
        elif per_frame:
            self.failed += len(out.stream.failed_frames)

    def end_to_end(self, import_s, setup_reps) -> tuple[dict, dict]:
        """The end-to-end metrics, and details for the results file."""
        metrics = {
            "setup_s": import_s + statistics.median(setup_reps),
            "run_s": statistics.median(self.untraced_ns) / 1e9,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (self.attempted - self.failed) / self.attempted,
        }
        # Frame quantiles are taken per pass (one night of 1,440 frames, so 14
        # lie beyond p99), then the median over passes: a burst of machine
        # noise during one pass's replay then moves neither.
        fq = self.frame_quantiles
        if fq:  # else every frame failed, and the run is not correct
            metrics["frame_p50_us"] = statistics.median(q[0] for q in fq) / 1e3
            metrics["frame_p99_us"] = statistics.median(q[1] for q in fq) / 1e3
        if self.last is not None:
            last = self.last
            truth = self.wl.night.truth
            metrics.update({
                "cv_accuracy_min": min(last.cv_means.values()),
                "shift_accuracy_mean": statistics.fmean(last.shift_accuracy),
                "duvet_0_accuracy_mean": statistics.fmean(last.duvet_0_accuracy),
                "frame_accuracy": sum(int(p == t) for p, t in zip(last.stream.preds, truth))
                / len(truth),
            })
        detail = {
            "run_s_quartiles": [q / 1e9 for q in quartiles(self.untraced_ns)],
            "pass_s": [ns / 1e9 for ns in self.untraced_ns],
            "pass_wall_s": [ns / 1e9 for ns in self.wall_ns],
            "frame_samples_per_pass": [q[3] for q in fq],
            "frame_p99_samples_beyond_min": min((q[2] for q in fq), default=0),
            "setup_repeats_s": setup_reps,
            "import_s": import_s,
        }
        return metrics, detail


def main(argv) -> int:
    args = parse_args(argv)
    src = Path("src")
    if not (src / "thermal_sense" / "__init__.py").is_file():
        print("error: run from the root of a thermal-sense checkout (src/thermal_sense missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    from speed import SpeedProbe

    speed = SpeedProbe()
    if not args.trace:  # traced runs time raw, so the probe adds nothing to spans
        speed.start()
    import workloads
    from spans import Recorder

    imported = time.perf_counter_ns()
    import_s = scaled_ns(speed, PROCESS_START_NS, imported, speed.busy_ns) / 1e9
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    recorder = Recorder()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, speed)
    run = Run(wl, bool(args.trace))
    try:
        setup_reps = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            busy = speed.busy_ns
            t0 = time.perf_counter_ns()
            if args.trace:
                recorder.pass_id = "setup"
                with recorder.installed(workloads.ENTRY_POINTS):
                    wl.setup()
                recorder.pass_id = None
            else:
                wl.setup()
            t1 = time.perf_counter_ns()
            setup_reps.append(scaled_ns(speed, t0, t1, speed.busy_ns - busy) / 1e9)

        start = time.perf_counter()
        k = 0
        while True:
            run.one_pass(k, recorder, workloads.ENTRY_POINTS)
            k += 1
            elapsed = time.perf_counter() - start
            typical = statistics.median(run.wall_ns) / 1e9
            if k >= (2 if args.trace else 1) and elapsed + typical > args.seconds:
                break

        if args.trace:
            recorder.pass_id = "probe"
            try:
                with recorder.installed(workloads.ENTRY_POINTS):
                    for layer in wl.probes:
                        wl.probe(layer)
            except Exception:  # reported as a trace error below
                recorder.errors.append(f"probe: {traceback.format_exc(limit=3)}")
            recorder.pass_id = None
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env["speed_probe"] = speed.summary()
    result: dict = {"env": env, "workload": args.workload}
    if args.trace:
        from layers import per_layer_metrics

        values, errors, shares = per_layer_metrics(
            recorder.spans, wl.probes, set(run.traced_ids), run.untraced_ns, run.traced_ns)
        sites = {f"{m.__name__}.{a}" for m, a, _, _ in workloads.ENTRY_POINTS}
        errors += recorder.errors + [f"{site}: wrapped entry point never fired"
                                     for site in sorted(sites - recorder.fired)]
        run.fail("trace", errors)
        result["self_time_share_of_pass"] = shares
        recorder.write_jsonl(OUT_DIR / f"{stem}.spans.jsonl")
    else:
        values, result["detail"] = run.end_to_end(import_s, setup_reps)

    declared = json.loads(Path("BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    run.fail("metrics", [f"{m['name']} was not measured" for m in declared if m["name"] not in values])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    correct = not run.problems
    result.update(problems=run.problems, metrics=metrics)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    for p in run.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
