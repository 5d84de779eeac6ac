"""Bed-exit alerting over a stream of classified frames.

State machine semantics:
  - Occupancy starts UNKNOWN. A change of state requires debounce_frames
    consecutive frames that agree on the new state; shorter disagreeing
    runs never change `current`, so single-frame glitches are absorbed.
  - BED_EXIT fires once per continuous EMPTY episode, at the first frame
    observed at least long_absence_s after the transition into EMPTY.
  - RETURN fires on every debounced EMPTY -> OCCUPIED transition.
  - FREQUENT_EXITS fires when the number of OCCUPIED -> EMPTY transitions
    within the trailing window_s exceeds max_exits, once per crossing
    (re-armed when the windowed count falls back to max_exits or below).

The machine is purely functional: step() maps (state, label, timestamp)
to (new state, events), so replaying a trace always reproduces the same
event sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .core import Label
from .errors import InvalidInputError, check_int, check_real


class Occupancy(Enum):
    UNKNOWN = "unknown"
    OCCUPIED = "occupied"
    EMPTY = "empty"


class EventKind(str, Enum):
    BED_EXIT = "bed_exit"
    RETURN = "return"
    FREQUENT_EXITS = "frequent_exits"


@dataclass(frozen=True)
class Event:
    timestamp: float
    kind: EventKind


@dataclass(frozen=True)
class MonitorConfig:
    debounce_frames: int = 3
    long_absence_s: float = 15 * 60.0
    window_s: float = 8 * 3600.0
    max_exits: int = 5

    def __post_init__(self) -> None:
        check_int("debounce_frames", self.debounce_frames, 1)
        check_int("max_exits", self.max_exits, 0)
        check_real("long_absence_s", self.long_absence_s, closed=True)
        check_real("window_s", self.window_s)


class MonitorState(NamedTuple):
    """The machine's state between frames (a NamedTuple: immutable and cheap to build)."""

    current: Occupancy = Occupancy.UNKNOWN
    since: float | None = None
    candidate: Occupancy | None = None
    debounce: int = 0
    exit_times: tuple[float, ...] = ()
    last_ts: float | None = None
    bed_exit_fired: bool = False
    frequent_alerted: bool = False


def initial_state() -> MonitorState:
    return MonitorState()


def step(state: MonitorState, label: Label, ts: float,
         cfg: MonitorConfig = MonitorConfig()) -> tuple[MonitorState, list[Event]]:
    if not math.isfinite(ts):
        raise InvalidInputError(f"timestamp {ts} is not finite")
    if state.last_ts is not None and ts <= state.last_ts:
        raise InvalidInputError(f"timestamp {ts} not after previous {state.last_ts}")

    target = Occupancy.OCCUPIED if label == Label.PERSON else Occupancy.EMPTY
    events: list[Event] = []
    current, since, fired = state.current, state.since, state.bed_exit_fired
    exit_times, frequent_alerted = state.exit_times, state.frequent_alerted
    candidate, debounce = None, 0

    if target is not current:
        streak = state.debounce + 1 if state.candidate is target else 1
        if streak >= cfg.debounce_frames:
            if current is Occupancy.OCCUPIED and target is Occupancy.EMPTY:
                exit_times = tuple(t for t in exit_times if t > ts - cfg.window_s) + (ts,)
                if len(exit_times) > cfg.max_exits:
                    if not frequent_alerted:
                        events.append(Event(ts, EventKind.FREQUENT_EXITS))
                        frequent_alerted = True
                else:
                    frequent_alerted = False
            if current is Occupancy.EMPTY and target is Occupancy.OCCUPIED:
                events.append(Event(ts, EventKind.RETURN))
            current, since, fired = target, ts, False
        else:
            candidate, debounce = target, streak

    if (
        current is Occupancy.EMPTY
        and not fired
        and since is not None
        and ts - since >= cfg.long_absence_s
    ):
        events.append(Event(ts, EventKind.BED_EXIT))
        fired = True

    return MonitorState(current, since, candidate, debounce, exit_times, ts, fired,
                        frequent_alerted), events


def replay(labeled_stream, cfg: MonitorConfig = MonitorConfig()) -> list[Event]:
    """Run the machine over an iterable of (timestamp, label) pairs."""
    state = initial_state()
    events: list[Event] = []
    for ts, label in labeled_stream:
        state, new_events = step(state, label, ts, cfg)
        events.extend(new_events)
    return events
