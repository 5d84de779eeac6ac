import math

import pytest

from thermal_sense.core import Label
from thermal_sense.errors import InvalidInputError
from thermal_sense.monitor import (
    Event,
    EventKind,
    MonitorConfig,
    Occupancy,
    initial_state,
    replay,
    step,
)

P, N = Label.PERSON, Label.NO_PERSON
CFG = MonitorConfig(debounce_frames=3, long_absence_s=900.0, window_s=8 * 3600.0, max_exits=5)


def trace(*segments, period=30.0, start=0.0):
    """Build ((ts, label), ...) from (label, count) segments."""
    out = []
    t = start
    for label, count in segments:
        for _ in range(count):
            out.append((t, label))
            t += period
    return out


class TestDebounce:
    def test_occupied_stream_no_events(self):
        assert replay(trace((P, 100)), CFG) == []

    def test_single_frame_glitch_ignored(self):
        frames = trace((P, 50), (N, 1), (P, 50))
        assert replay(frames, CFG) == []

    def test_two_frame_glitch_still_ignored(self):
        frames = trace((P, 50), (N, 2), (P, 50))
        assert replay(frames, CFG) == []

    def test_interrupted_streak_resets(self):
        # N N P N N P ... never reaches 3 consecutive
        frames = trace((P, 10), (N, 2), (P, 1), (N, 2), (P, 10))
        assert replay(frames, CFG) == []

    def test_transition_needs_exactly_debounce_frames(self):
        state = initial_state()
        for i in range(3):
            state, _ = step(state, P, float(i), CFG)
        assert state.current is Occupancy.OCCUPIED


class TestEvents:
    def test_long_absence_fires_one_bed_exit_then_return(self):
        frames = trace((P, 240), (N, 1), (P, 119), (N, 60), (P, 540))
        events = replay(frames, CFG)
        assert [e.kind for e in events] == [EventKind.BED_EXIT, EventKind.RETURN]
        # empty from the 3rd consecutive N frame at t=10860; alarm 900 s later
        assert events[0].timestamp == 11760.0
        assert events[1].timestamp == 12660.0

    def test_short_absence_only_returns(self):
        frames = trace((P, 20), (N, 5), (P, 20))
        events = replay(frames, CFG)
        assert [e.kind for e in events] == [EventKind.RETURN]

    def test_no_duplicate_bed_exit_within_episode(self):
        frames = trace((P, 10), (N, 400))
        events = replay(frames, CFG)
        assert [e.kind for e in events] == [EventKind.BED_EXIT]

    def test_bed_exit_fires_again_after_new_episode(self):
        frames = trace((P, 10), (N, 60), (P, 10), (N, 60))
        events = replay(frames, CFG)
        kinds = [e.kind for e in events]
        assert kinds == [EventKind.BED_EXIT, EventKind.RETURN, EventKind.BED_EXIT]

    def test_frequent_exits_once_per_crossing(self):
        cfg = MonitorConfig(debounce_frames=1, long_absence_s=1e12, window_s=3600.0, max_exits=2)
        frames = []
        t = 0.0
        for _ in range(5):
            frames.append((t, P))
            t += 10.0
            frames.append((t, N))
            t += 10.0
        events = replay(frames, cfg)
        assert sum(1 for e in events if e.kind is EventKind.FREQUENT_EXITS) == 1

    def test_frequent_exits_rearms_after_window_clears(self):
        cfg = MonitorConfig(debounce_frames=1, long_absence_s=1e12, window_s=100.0, max_exits=1)
        frames = [
            (0.0, P), (1.0, N),       # exit 1
            (2.0, P), (3.0, N),       # exit 2 -> alert
            (500.0, P), (501.0, N),   # window cleared -> exit alone
            (502.0, P), (503.0, N),   # second in window -> alert again
        ]
        events = replay(frames, cfg)
        assert sum(1 for e in events if e.kind is EventKind.FREQUENT_EXITS) == 2


class TestContract:
    def test_pure_replay(self):
        frames = trace((P, 20), (N, 40), (P, 20))
        assert replay(frames, CFG) == replay(frames, CFG)

    def test_non_monotonic_timestamp(self):
        state = initial_state()
        state, _ = step(state, P, 10.0, CFG)
        with pytest.raises(InvalidInputError, match=r"^timestamp 10\.0 not after previous 10\.0$"):
            step(state, P, 10.0, CFG)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamp(self, bad):
        state, _ = step(initial_state(), P, 0.0, CFG)
        with pytest.raises(InvalidInputError, match=f"^timestamp {bad} is not finite$"):
            step(state, P, bad, CFG)
        with pytest.raises(InvalidInputError, match=f"^timestamp {bad} is not finite$"):
            step(initial_state(), P, bad, CFG)

    def test_unknown_start_emits_nothing(self):
        events = replay(trace((N, 20)), MonitorConfig(debounce_frames=3, long_absence_s=1e12))
        assert events == []

    def test_event_value_object(self):
        assert Event(5.0, EventKind.RETURN) == Event(5.0, EventKind.RETURN)


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("debounce_frames", 0), ("debounce_frames", -3), ("debounce_frames", 2.0),
        ("debounce_frames", True), ("max_exits", -1), ("max_exits", 1.5),
        ("long_absence_s", -300.0), ("long_absence_s", math.nan), ("long_absence_s", math.inf),
        ("window_s", 0.0), ("window_s", -3600.0), ("window_s", math.nan), ("window_s", math.inf),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            MonitorConfig(**{field: value})

    def test_smallest_values_accepted(self):
        cfg = MonitorConfig(debounce_frames=1, long_absence_s=0.0, window_s=1e-9, max_exits=0)
        # the first exit is one too many, and the absence is long at once
        events = replay(trace((P, 2), (N, 2)), cfg)
        assert events == [Event(60.0, EventKind.FREQUENT_EXITS), Event(60.0, EventKind.BED_EXIT)]
