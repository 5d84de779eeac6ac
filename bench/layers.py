"""Per-layer metrics derived from the spans of one traced run.

Times come from the traced passes (and the traced set-up, for layers
that only work there). A layer a workload never calls is measured on the
workload's probe spans instead, and only there. A metric whose spans
never fired is a trace error, never a zero.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import self_times

PROBE_LAYERS = {"nn": ("nn",), "svm": ("svm", "kernels")}


class _Spans:
    """Spans of one name with their self times, durations in ns."""

    def __init__(self):
        self.spans = []
        self.selfs = []

    def durations(self):
        return [s.duration for s in self.spans]

    def median(self, scale):
        return statistics.median(self.durations()) / scale

    def median_self(self, scale):
        return statistics.median(self.selfs) / scale

    def per_item(self, scale):
        return sum(self.durations()) / sum(s.items for s in self.spans) / scale

    def per_pass(self, traced_passes, weight=lambda s: s.items):
        """Summed weight (items by default) per traced pass; the set-up's
        sum when no pass has any."""
        in_passes = sum(weight(s) for s in self.spans if s.pass_id in traced_passes)
        if in_passes:
            return in_passes / len(traced_passes)
        return sum(weight(s) for s in self.spans if s.pass_id == "setup")

    def where(self, keep):
        out = _Spans()
        for s, st in zip(self.spans, self.selfs):
            if keep(s):
                out.spans.append(s)
                out.selfs.append(st)
        return out

    def __bool__(self):
        return bool(self.spans)


def per_layer_metrics(spans, probes, traced_passes, untraced_ns, traced_ns):
    """Return ({metric: value}, [trace errors], {span name: self-time share of pass wall})."""
    probed = {layer for p in probes for layer in PROBE_LAYERS[p]}
    selfs = self_times(spans)
    by_name: dict[str, _Spans] = defaultdict(_Spans)
    roots = set()
    for i, (s, st) in enumerate(zip(spans, selfs)):
        if s.name == "pass":
            roots.add(i)
            continue
        if (s.pass_id == "probe") != (s.name.split(".")[0] in probed):
            continue
        by_name[s.name].spans.append(s)
        by_name[s.name].selfs.append(st)

    fit = by_name["svm.fit"]
    gram = by_name["kernels.kernel_matrix"].where(
        lambda s: s.parent is not None and spans[s.parent].name == "svm.fit")
    knn_pred = by_name["knn.predict"]
    recipes = {
        "nn.fit_s": (by_name["nn.fit"], lambda d: d.median(1e9)),
        "nn.step_us": (by_name["nn.fit"], lambda d: d.per_item(1e3)),
        "nn.predict_us_per_row": (by_name["nn.predict"], lambda d: d.per_item(1e3)),
        "kernels.gram_ms": (gram, lambda d: d.median(1e6)),
        "svm.fit_ms": (fit, lambda d: d.median(1e6)),
        "svm.smo_self_ms": (fit, lambda d: d.median_self(1e6)),
        "svm.support_vectors": (fit, lambda d: statistics.median(s.items for s in d.spans)),
        "svm.predict_us_per_row": (by_name["svm.predict"], lambda d: d.per_item(1e3)),
        "knn.predict_us_per_row": (knn_pred.where(lambda s: s.items > 1),
                                   lambda d: d.per_item(1e3)),
        "knn.single_query_us": (knn_pred.where(lambda s: s.items == 1),
                                lambda d: d.median(1e3)),
        "core.quantize_us": (by_name["core.quantize"], lambda d: d.median(1e3)),
        "core.make_folds_ms": (by_name["core.make_folds"], lambda d: d.median(1e6)),
        "simulate.frames": (by_name["simulate.generate"], lambda d: d.per_pass(traced_passes)),
        "simulate.frame_us": (by_name["simulate.generate"], lambda d: d.per_item(1e3)),
        "persist.csv_write_us_per_row": (by_name["persist.csv_write"], lambda d: d.per_item(1e3)),
        "persist.csv_read_us_per_row": (by_name["persist.csv_read"], lambda d: d.per_item(1e3)),
        "persist.model_save_ms": (by_name["persist.model_save"], lambda d: d.median(1e6)),
        "persist.model_load_ms": (by_name["persist.model_load"], lambda d: d.median(1e6)),
        "evaluate.cv_runs": (by_name["evaluate.cv"],
                             lambda d: d.per_pass(traced_passes, lambda s: 1)),
        "evaluate.cv_self_ms": (by_name["evaluate.cv"], lambda d: d.median_self(1e6)),
        "evaluate.by_condition_self_ms": (by_name["evaluate.by_condition"],
                                          lambda d: d.median_self(1e6)),
        "monitor.step_us": (by_name["monitor.step"], lambda d: d.median(1e3)),
        "monitor.events": (by_name["monitor.step"], lambda d: d.per_pass(traced_passes)),
    }
    metrics, errors = {}, []
    for name, (data, compute) in recipes.items():
        if data:
            metrics[name] = compute(data)
        else:
            errors.append(f"{name}: its entry point never fired")

    if traced_ns and untraced_ns:
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_ns) / statistics.median(untraced_ns) - 1.0)
    else:
        errors.append("trace.overhead_frac: needs traced and untraced passes")

    # Direct children of each pass root account for its wall time; the
    # remainder is time spent outside every wrapped entry point.
    top = defaultdict(int)
    for s in spans:
        if s.parent in roots:
            top[s.parent] += s.duration
    if roots:
        metrics["trace.unexplained_frac"] = statistics.median(
            1.0 - top[r] / spans[r].duration for r in roots)
    else:
        errors.append("trace.unexplained_frac: no traced pass")

    shares = defaultdict(int)
    for s, st in zip(spans, selfs):
        if s.pass_id in traced_passes and s.name != "pass":
            shares[s.name] += st
    wall = sum(spans[r].duration for r in roots) or 1
    return metrics, errors, {k: v / wall for k, v in sorted(shares.items())}

