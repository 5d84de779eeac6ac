"""Tests of the benchmark's own code: span arithmetic and output checks.

Run from the root of a checkout with `python3 -m unittest discover -s bench`
(or `python3 -m pytest bench`). Each output check is shown passing on good
input and firing on a deliberately wrong one.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
from spans import Recorder, Span, self_times, union_ns  # noqa: E402
from speed import REF_NS, SpeedProbe  # noqa: E402


def _span(start, end, parent=None):
    return Span("x", start, end, parent, 0)


class UnionTest(unittest.TestCase):
    def test_empty(self):
        self.assertEqual(union_ns([]), 0)

    def test_disjoint_nested_and_touching(self):
        self.assertEqual(union_ns([(0, 10), (20, 25)]), 15)
        self.assertEqual(union_ns([(0, 10), (2, 5)]), 10)
        self.assertEqual(union_ns([(5, 10), (0, 5)]), 10)
        self.assertEqual(union_ns([(0, 10), (8, 12), (11, 20)]), 20)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(self_times([_span(3, 10)]), [7])

    def test_serial_children_are_subtracted(self):
        tree = [_span(0, 100), _span(10, 30, 0), _span(50, 60, 0)]
        self.assertEqual(self_times(tree), [70, 20, 10])

    def test_overlapping_children_count_once(self):
        tree = [_span(0, 100), _span(10, 50, 0), _span(40, 70, 0)]
        self.assertEqual(self_times(tree)[0], 40)

    def test_child_outside_parent_is_clipped(self):
        tree = [_span(0, 100), _span(90, 130, 0), _span(150, 160, 0)]
        self.assertEqual(self_times(tree)[0], 90)

    def test_grandchildren_charge_only_their_parent(self):
        tree = [_span(0, 100), _span(10, 60, 0), _span(20, 40, 1)]
        self.assertEqual(self_times(tree), [50, 30, 20])

    def test_self_times_sum_to_root_when_children_nest(self):
        tree = [_span(0, 100), _span(10, 60, 0), _span(20, 40, 1), _span(70, 80, 0)]
        self.assertEqual(sum(self_times(tree)), 100)


class SpeedScaleTest(unittest.TestCase):
    """Scaling arithmetic on hand-made samples (times in ns)."""

    @staticmethod
    def _probe(*samples):
        probe = SpeedProbe()
        for start, cost in samples:
            probe.starts.append(start)
            probe.ends.append(start + cost)
        return probe

    def test_unstarted_probe_scales_nothing(self):
        self.assertEqual(SpeedProbe().factor(0, 100), 1.0)

    def test_samples_are_weighted_by_the_time_they_stand_for(self):
        # Over [0, 400]: the first sample (cost 10, speed 2v) stands for 0..100,
        # the second (cost 20, speed v) for 110..300 and, as the last, 320..400.
        probe = self._probe((100, 10), (300, 20))
        v = REF_NS / 20
        self.assertAlmostEqual(probe.factor(0, 400) / v, (100 * 2 + (190 + 80) * 1) / 370)

    def test_interval_without_a_sample_takes_the_nearest(self):
        probe = self._probe((0, REF_NS), (10 * REF_NS, 2 * REF_NS))
        self.assertEqual(probe.factor(REF_NS + 1, REF_NS + 2), 1.0)
        self.assertEqual(probe.factor(9 * REF_NS, 9 * REF_NS + 1), 0.5)
        self.assertEqual(probe.factor(20 * REF_NS, 21 * REF_NS), 0.5)

    def test_handler_samples_and_counts_its_time(self):
        probe = SpeedProbe()
        probe.sample()
        self.assertEqual(probe.busy_ns, probe.ends[0] - probe.starts[0])
        self.assertGreater(probe.busy_ns, 0)


class RecorderTest(unittest.TestCase):
    def test_wrap_records_parent_items_and_pass(self):
        rec = Recorder()
        rec.pass_id = 3
        inner = rec.wrap(lambda xs: len(xs), "inner", lambda a, k, r: r, "site.inner")
        with rec.span("outer"):
            self.assertEqual(inner([1, 2, 3]), 3)
        outer, child = rec.spans
        self.assertEqual((child.name, child.parent, child.pass_id, child.items),
                         ("inner", 0, 3, 3))
        self.assertLessEqual(outer.start, child.start)
        self.assertLessEqual(child.end, outer.end)
        self.assertEqual(rec.fired, {"site.inner"})

    def test_span_closes_when_the_call_raises(self):
        rec = Recorder()

        def boom():
            raise ValueError

        with self.assertRaises(ValueError):
            rec.wrap(boom, "boom")()
        self.assertGreaterEqual(rec.spans[0].end, rec.spans[0].start)
        with rec.span("next"):
            pass
        self.assertIsNone(rec.spans[1].parent)

    def test_installed_restores_and_reports_missing(self):
        rec = Recorder()
        original = spans.union_ns
        entry_points = ((spans, "union_ns", "u", None), (spans, "no_such_fn", "n", None))
        with rec.installed(entry_points):
            self.assertIsNot(spans.union_ns, original)
            spans.union_ns([])
        self.assertIs(spans.union_ns, original)
        self.assertEqual(len(rec.spans), 1)
        self.assertEqual(rec.errors, ["spans.no_such_fn: entry point not found"])


class CheckTest(unittest.TestCase):
    """Every output check passes on good input and fires on a wrong one."""

    @classmethod
    def setUpClass(cls):
        import workloads

        cls.w = workloads
        cls.tmp = tempfile.TemporaryDirectory()
        cls.wl = workloads.BedsideStream(7, Path(cls.tmp.name))
        cls.wl.setup()
        cls.first_problems = cls.wl.audit(cls.wl.run_pass())

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_first_pass_is_clean(self):
        self.assertEqual(self.first_problems, [])

    def test_gate_fires_below_criterion_one(self):
        labels = ("svm linear", "knn k=1 uniform")
        self.assertEqual(self.w.check_gate({"svm linear": 0.99, "knn k=1 uniform": 1.0}, labels), [])
        self.assertEqual(len(self.w.check_gate({"svm linear": 0.5, "knn k=1 uniform": 1.0},
                                               labels)), 1)
        self.assertEqual(len(self.w.check_gate({"svm linear": 0.99}, labels)), 1)

    def test_stream_and_digest_checks_fire_on_a_flipped_frame(self):
        out = self.wl.run_pass()
        self.assertEqual(self.wl.audit(out), [])
        out.stream.preds[5] = 1 - out.stream.preds[5]
        problems = self.wl.audit(out)
        self.assertTrue(any("frame 5" in p for p in problems))
        self.assertTrue(any("digest" in p for p in problems))

    def test_stream_check_fires_on_another_model(self):
        from thermal_sense import simulate
        from thermal_sense.evaluate import KnnSpec

        out = self.wl.run_pass()
        other = KnnSpec(1).train_model(simulate.generate_main(2, 99), 0)
        reference = self.w.stream_reference(other, self.wl.night)
        self.assertNotEqual(self.w.check_stream(out.stream, reference), [])

    def test_event_check_fires_on_a_dropped_event(self):
        out = self.wl.run_pass()
        self.assertEqual(self.w.check_events(out.stream.events, list(out.stream.events)), [])
        self.assertEqual(len(self.w.check_events(out.stream.events, out.stream.events[1:])), 1)

    def test_traced_and_untraced_digests_agree_and_a_change_fires(self):
        untraced = self.wl.run_pass().digest()
        rec = Recorder()
        with rec.installed(self.w.ENTRY_POINTS):
            traced_out = self.wl.run_pass()
        self.assertGreater(len(rec.spans), 0)
        self.assertEqual(self.w.check_digests([untraced, traced_out.digest()]), [])
        traced_out.stream.preds[0] = 1 - traced_out.stream.preds[0]
        self.assertEqual(len(self.w.check_digests([untraced, traced_out.digest()])), 1)

    def test_night_check_fires_without_a_long_absence(self):
        night = self.wl.night
        self.assertEqual(self.w.check_night(night), [])
        occupied = self.w.Night(night.frames, night.truth * 0 + 1, night.timestamps)
        self.assertEqual(len(self.w.check_night(occupied)), 1)


if __name__ == "__main__":
    unittest.main()
