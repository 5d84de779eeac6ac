"""Synthetic 8x8 thermal scene generator.

The thermal model is deliberately simple: each pixel takes the maximum
of the ambient background, an elliptical body contribution, and any
point-source contributions, plus Gaussian read noise, then passes
through the sensor quantizer. Contributions decay as exp(-d^2/2) with
d the distance (in grid units) outside the shape boundary, so warm
shapes have a soft one-pixel skirt.

A duvet attenuates the apparent body temperature toward the room
temperature; the attenuation decays exponentially as the duvet warms
up, so frames taken right after covering are the hardest to tell apart
from an empty bed.

Every frame is seeded independently, so datasets are reproducible
byte-for-byte and frames may be rendered in any order. A dataset renders
BLOCK frames at a time (`render` is one frame): scenes are drawn and checked
per frame, then the block renders over (n, 8, 8) arrays, elementwise but for
each frame's own noise generator, so a frame's bytes do not depend on its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import (
    CONDITIONS,
    GRID_SIZE,
    NUM_PIXELS,
    TEMP_MAX_C,
    TEMP_MIN_C,
    ConditionTag,
    Dataset,
    Label,
    quantize,
)
from .errors import (DataFormatError, InvalidInputError, check_finite, check_int, check_real,
                     is_finite)
from .persist import read_lines

DEFAULT_DUVET_F0 = 0.35
DEFAULT_DUVET_TAU_MIN = 4.0

# Pixel centers sit at integer coordinates 0..7; the grid covers [-0.5, 7.5].
_GRID_LO = -0.5
_GRID_HI = GRID_SIZE - 0.5
# Each pixel's (row, col) center, shaped (2, 1, 8, 8) to broadcast over a block of frames.
_CENTERS = np.stack(np.meshgrid(
    np.arange(GRID_SIZE, dtype=np.float64),
    np.arange(GRID_SIZE, dtype=np.float64),
    indexing="ij",
))[:, None]


def duvet_factor(minutes: float, f0: float = DEFAULT_DUVET_F0,
                 tau_min: float = DEFAULT_DUVET_TAU_MIN) -> float:
    """Fraction of body-over-room contrast transmitted through a duvet.

    factor(t) = 1 - (1 - f0) * exp(-t / tau); strictly increasing from
    f0 at t=0 toward 1 as the duvet warms up.
    """
    check_real("minutes", minutes, closed=True)
    if not (is_finite(f0) and 0.0 < f0 <= 1.0):
        raise InvalidInputError(f"f0 {f0} outside (0, 1]")
    check_real("tau_min", tau_min)
    return _duvet_factor(minutes, f0, tau_min)


def _duvet_factor(minutes: float, f0: float, tau_min: float) -> float:
    """duvet_factor for arguments it has checked."""
    return 1.0 - (1.0 - f0) * math.exp(-minutes / tau_min)


def _check_pair(name: str, value) -> None:
    """InvalidInputError naming `name` unless value is a tuple or list of two items."""
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise InvalidInputError(f"{name} must hold two numbers, got {value!r}")


@dataclass(frozen=True)
class PersonConfig:
    """A lying body modeled as a warm rotated ellipse in grid coordinates."""

    center: tuple[float, float]
    orientation_deg: float = 0.0
    semi_axes: tuple[float, float] = (2.8, 1.2)
    skin_temp_c: float = 32.0

    def __post_init__(self) -> None:
        _check_pair("center", self.center)
        check_finite("center", self.center, *self.center)
        check_finite("orientation_deg", self.orientation_deg)
        _check_pair("semi_axes", self.semi_axes)
        a, b = self.semi_axes
        check_real("semi_axes[0]", a)
        check_real("semi_axes[1]", b)
        if not (is_finite(self.skin_temp_c) and 28.0 <= self.skin_temp_c <= 37.0):
            raise InvalidInputError(f"skin temperature {self.skin_temp_c} outside [28, 37]")

    def footprint_within_grid(self) -> bool:
        a, b = self.semi_axes
        th = math.radians(self.orientation_deg)
        half_r = math.hypot(a * math.cos(th), b * math.sin(th))
        half_c = math.hypot(a * math.sin(th), b * math.cos(th))
        r, c = self.center
        return (
            r - half_r >= _GRID_LO and r + half_r <= _GRID_HI
            and c - half_c >= _GRID_LO and c + half_c <= _GRID_HI
        )


@dataclass(frozen=True)
class PointSource:
    """A compact warm object (water bottle, small pet stand-in)."""

    center: tuple[float, float]
    radius: float = 0.35
    temp_c: float = 37.0

    def __post_init__(self) -> None:
        _check_pair("center", self.center)
        check_finite("center", self.center, *self.center)
        check_real("radius", self.radius, closed=True)
        check_finite("temp_c", self.temp_c)
        if self.temp_c > 45.0:
            raise InvalidInputError(f"point source at {self.temp_c} exceeds 45 C")


@dataclass(frozen=True)
class SceneConfig:
    """A frame's scene. A bad number is InvalidInputError; a bad person or source object is not."""

    room_temp_c: float
    person: PersonConfig | None = None
    heat_sources: tuple[PointSource, ...] = ()
    duvet_minutes: float | None = None
    noise_sigma: float = 0.0
    seed: int = 0
    duvet_f0: float = DEFAULT_DUVET_F0
    duvet_tau_min: float = DEFAULT_DUVET_TAU_MIN

    def __post_init__(self) -> None:
        check_int("seed", self.seed, 0)
        if not (is_finite(self.room_temp_c) and 15.0 <= self.room_temp_c <= 35.0):
            raise InvalidInputError(f"room temperature {self.room_temp_c} outside [15, 35]")
        span = TEMP_MAX_C - TEMP_MIN_C  # noise is at most the sensor's span
        if not (is_finite(self.noise_sigma) and 0.0 <= self.noise_sigma <= span):
            raise InvalidInputError(f"noise sigma {self.noise_sigma} outside [0, {span:g}]")
        if self.duvet_minutes is not None:
            if self.person is None:
                raise InvalidInputError("duvet_minutes given without a person")
            check_real("duvet_minutes", self.duvet_minutes, closed=True)
        if self.person is not None and not self.person.footprint_within_grid():
            raise InvalidInputError("person footprint extends outside the 8x8 grid")
        if self.duvet_minutes is not None:  # f0 and tau here too, so a render cannot fail on them
            duvet_factor(self.duvet_minutes, self.duvet_f0, self.duvet_tau_min)


BLOCK = 64  # frames rendered together: a block's arrays are 32 KB each


def _person_values(s: SceneConfig) -> tuple[float, ...]:
    """s's person: center, (cos, cos), (sin, -sin) of the orientation, semi-axes, the shorter
    one, and the effective (duvet-attenuated) body temperature."""
    pc = s.person
    factor = 1.0 if s.duvet_minutes is None else _duvet_factor(  # checked by s
        s.duvet_minutes, s.duvet_f0, s.duvet_tau_min)
    th = math.radians(pc.orientation_deg)
    cos, sin = math.cos(th), math.sin(th)
    return (*pc.center, cos, cos, sin, -sin, *pc.semi_axes, min(pc.semi_axes),
            s.room_temp_c + (pc.skin_temp_c - s.room_temp_c) * factor)


# 0 C stand-ins for a frame's missing person or sources: rooms are >= 15 C, so 0 never wins a max.
_NO_PERSON, _NO_SOURCE = (0.0, 0.0, 1.0, 1.0, 0.0, -0.0, 1.0, 1.0, 1.0, 0.0), (0.0,) * 4
_ONE, _ZERO, _MINUS_HALF = map(np.array, (1.0, 0.0, -0.5))  # 0-d: faster operands than floats


# A pixel's ellipse coordinate over a subnormal semi-axis, or its squared distance to a far
# source, can overflow to inf; exp(-inf) is exactly 0, so no value changes: silence it.
@np.errstate(over="ignore")
def _render_block(scenes: list[SceneConfig]) -> np.ndarray:
    """Render scenes as one (n, 8, 8) array: max-composed contributions + noise, quantized.

    A frame's values (room, person, then each source's center, radius and temperature) are
    repeated over its pixels, so that each elementwise step has operands of one shape."""
    people = any([s.person is not None for s in scenes])
    n_src = max(map(len, [s.heat_sources for s in scenes]))
    values = np.array([
        (s.room_temp_c, *((_NO_PERSON if s.person is None else _person_values(s)) if people else ()),
         *(v for h in s.heat_sources for v in (*h.center, h.radius, h.temp_c)),
         *_NO_SOURCE * (n_src - len(s.heat_sources))) for s in scenes], dtype=np.float64).T
    grids = values.repeat(NUM_PIXELS).reshape(len(values), len(scenes), GRID_SIZE, GRID_SIZE)
    field, g = grids[0], grids[1:]

    if people:
        offset = _CENTERS - g[0:2]  # (dr, dc)
        # u = (dr * cos + dc * sin) / a and v = (dc * cos + dr * -sin) / b, which is
        # (-dr * sin + dc * cos) / b bit for bit: negation and addition order are exact.
        u, v = (offset * g[2:4] + offset[::-1] * g[4:6]) / g[6:8]
        # Distance (grid units, approximate) of each pixel outside the ellipse; 0 inside.
        d = np.maximum(np.hypot(u, v) - _ONE, _ZERO) * g[8]
        field = np.maximum(field, g[9] * np.exp(_MINUS_HALF * d * d))
        g = g[10:]

    for j in range(0, 4 * n_src, 4):  # each frame's j-th source, in order
        dr, dc = _CENTERS - g[j:j + 2]
        d = np.maximum(np.hypot(dr, dc) - g[j + 2], _ZERO)
        field = np.maximum(field, g[j + 3] * np.exp(_MINUS_HALF * d * d))

    for frame, s in zip(field, scenes):
        if s.noise_sigma > 0:  # a noiseless frame draws nothing, so needs no generator
            rng = np.random.Generator(np.random.PCG64(s.seed))  # default_rng(s.seed), made faster
            frame += rng.normal(0.0, s.noise_sigma, (GRID_SIZE, GRID_SIZE))
    return quantize(field)


def render(cfg: SceneConfig) -> np.ndarray:
    """Render one frame: max-composed contributions + noise, quantized."""
    return _render_block([cfg])[0]


@dataclass(frozen=True)
class SimParams:
    """Tunable ranges for dataset generation (flat key=value config file)."""

    room_lo: float = 20.0
    room_hi: float = 21.0
    hot_room_lo: float = 24.0
    hot_room_hi: float = 25.0
    skin_lo: float = 30.0
    skin_hi: float = 34.0
    noise_sigma: float = 0.1
    duvet_f0: float = DEFAULT_DUVET_F0
    duvet_tau_min: float = DEFAULT_DUVET_TAU_MIN
    bottle_temp_c: float = 37.0
    bottle_radius_lo: float = 0.3
    bottle_radius_hi: float = 0.4
    bottle_row_lo: float = 1.5
    bottle_row_hi: float = 6.5
    bottle_col_lo: float = 1.5
    bottle_col_hi: float = 6.5
    person_row_lo: float = 2.6
    person_row_hi: float = 4.4
    person_col_lo: float = 2.2
    person_col_hi: float = 4.8
    person_orient_deg: float = 25.0
    person_semi_a_lo: float = 2.3
    person_semi_a_hi: float = 2.9
    person_semi_b_lo: float = 1.0
    person_semi_b_hi: float = 1.4


DEFAULT_SIM_PARAMS = SimParams()
_DRAWN = [f.name[:-3] for f in fields(SimParams) if f.name.endswith("_lo")] + ["person_orient_deg"]
# The check that enforces each fixed bound a scene puts on a key's value, or on both ends
# of a drawn range (`room` for room_lo and room_hi), called with that value alone.
_SCENE_CHECKS = {
    "room": SceneConfig,
    "hot_room": SceneConfig,
    "noise_sigma": lambda v: SceneConfig(DEFAULT_SIM_PARAMS.room_lo, noise_sigma=v),
    "skin": lambda v: PersonConfig((0.0, 0.0), skin_temp_c=v),
    "person_semi_a": lambda v: PersonConfig((0.0, 0.0), semi_axes=(v, 1.0)),
    "person_semi_b": lambda v: PersonConfig((0.0, 0.0), semi_axes=(1.0, v)),
    "bottle_temp_c": lambda v: PointSource((0.0, 0.0), temp_c=v),
    "bottle_radius": lambda v: PointSource((0.0, 0.0), radius=v),
    "duvet_f0": lambda v: duvet_factor(0.0, f0=v),
    "duvet_tau_min": lambda v: duvet_factor(0.0, tau_min=v),
}


def _draw_range(p: SimParams, stem: str) -> tuple[float, float]:
    """The ends of a range frames are drawn from, by the stem of its keys (`room`: room_lo and
    room_hi; `person_orient_deg`: [-it, it]), checked drawable: a finite width, >= 0."""
    orient = stem == "person_orient_deg"
    lo, hi = (-p.person_orient_deg, p.person_orient_deg) if orient else (
        getattr(p, f"{stem}_lo"), getattr(p, f"{stem}_hi"))
    if not 0 <= hi - lo < math.inf:
        keys = stem if orient else f"{stem}_lo and {stem}_hi"
        raise InvalidInputError(f"the range of {keys} has width {hi - lo!r}, not finite and >= 0")
    return lo, hi


def load_sim_params(path) -> SimParams:
    """Read SimParams overrides from a flat key=value file ('#' comments).

    Values must be finite, and so must each draw range's width, which must not be negative.
    Then, in line order, each override must pass the scene checks that bound it (_SCENE_CHECKS).
    Last, the widest person the ranges can draw must fit the grid (named at the last person_* line).
    """
    known = {f.name for f in fields(SimParams)}
    overrides: dict[str, float] = {}
    where: dict[str, int] = {}  # the line of each override
    for lineno, line in enumerate(read_lines(path), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataFormatError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise DataFormatError(f"{path}:{lineno}: unknown parameter {key!r}")
        try:
            overrides[key] = float(value.strip())
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: bad value for {key!r}") from None
        if not math.isfinite(overrides[key]):
            raise DataFormatError(f"{path}:{lineno}: {key} must be finite, got {value.strip()}")
        where[key] = lineno
    params = replace(SimParams(), **overrides)
    stem = {key: key.removesuffix("_lo").removesuffix("_hi") for key in where}  # a range's keys
    for name in _DRAWN:
        try:
            _draw_range(params, name)
        except InvalidInputError as exc:
            line = max((where[k] for k in where if stem[k] == name), default=0)
            raise DataFormatError(f"{path}:{line}: {exc}") from None
    for key in sorted(where, key=where.get):
        bound = stem[key]  # a range shares its ends' entry
        check = _SCENE_CHECKS.get(bound, float)  # float: the key has no scene bound
        try:
            check(overrides[key])
        except InvalidInputError as exc:
            raise DataFormatError(f"{path}:{where[key]}: {key}: {exc}") from None
    # Each half-extent is monotone in each semi-axis and in |orientation| up to 90: try the ends.
    axes = (params.person_semi_a_hi, params.person_semi_b_hi)
    for center in ((params.person_row_lo, params.person_col_lo),
                   (params.person_row_hi, params.person_col_hi)):
        for angle in (0.0, min(params.person_orient_deg, 90.0)):
            if not PersonConfig(center, angle, axes).footprint_within_grid():
                line = max((where[k] for k in where if k.startswith("person_")), default=0)
                raise DataFormatError(
                    f"{path}:{line}: a person at {center} with semi-axes {axes} and orientation "
                    f"{angle:g} degrees extends outside the 8x8 grid")
    return params


def _mix(p: SimParams, *, hot: bool = False, person: bool = False, bottle: bool = False,
         duvet_minutes: float | None = None):
    """The scene drawer of one mix of options: a seed key -> its SceneConfig. Each value is
    lo + (hi - lo) * u, with u from one rng.random(k) call: bit for bit what k uniform(lo, hi)
    calls in this order give, leaving the same generator state. The noise seed is drawn last.
    A range the mix draws from that is not drawable raises InvalidInputError here."""
    stems = (["hot_room" if hot else "room"] + person * ["person_row", "person_col",
             "person_orient_deg", "person_semi_a", "person_semi_b", "skin"]
             + bottle * ["bottle_row", "bottle_col", "bottle_radius"])
    lo, hi = np.array([_draw_range(p, stem) for stem in stems], dtype=np.float64).T
    width = hi - lo

    def scene(key) -> SceneConfig:
        rng = np.random.default_rng(key)
        v = (lo + width * rng.random(len(stems))).tolist()
        return SceneConfig(
            v[0], PersonConfig((v[1], v[2]), v[3], (v[4], v[5]), v[6]) if person else None,
            (PointSource((v[-3], v[-2]), v[-1], p.bottle_temp_c),) if bottle else (),
            duvet_minutes, p.noise_sigma, int(rng.integers(0, 2**63 - 1)), p.duvet_f0,
            p.duvet_tau_min)
    return scene


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as numpy's SeedSequence reads it: uint32 words, low first, 0 as [0]."""
    return [n >> shift & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]


def _render_dataset(plan, seed: int) -> Dataset:
    """Render frame plans (stream, i, label, condition, scene drawer) in order, BLOCK frames at a
    time. Frame i of a stream is drawn from default_rng((seed, stream, i)), given as the uint32
    words that key is read as (stream and i one each): the same generator, made in half the time.
    """
    words = _uint32_words(check_int("seed", seed, 0))
    x = np.empty((len(plan), NUM_PIXELS))
    for start in range(0, len(plan), BLOCK):
        scenes = []
        try:  # a failing scene raises after the frames before it render: the first failure wins
            for stream, i, _, _, draw in plan[start:start + BLOCK]:
                scenes.append(draw(np.array([*words, stream, i], dtype=np.uint32)))
        finally:
            if scenes:
                x[start:start + len(scenes)] = _render_block(scenes).reshape(-1, NUM_PIXELS)
    labels = [label for _, _, label, _, _ in plan]
    codes = [CONDITIONS.index(tag) for _, _, _, tag, _ in plan]
    return Dataset(x, labels, codes)


def _cell(stream: int, frames: range, label: Label, tag: ConditionTag, draw) -> list:
    """Plans for the given frames of a stream, all with one label, condition and scene drawer."""
    return [(stream, i, label, tag, draw) for i in frames]


def generate_main(n_per_class: int, seed: int,
                  params: SimParams = DEFAULT_SIM_PARAMS) -> Dataset:
    """Baseline dataset: n occupied frames followed by n empty frames."""
    check_int("n_per_class", n_per_class, 1)
    frames = range(n_per_class)
    plan = (_cell(0, frames, Label.PERSON, ConditionTag.BASELINE, _mix(params, person=True))
            + _cell(1, frames, Label.NO_PERSON, ConditionTag.BASELINE, _mix(params)))
    return _render_dataset(plan, seed)


def generate_variational(n_per_cell: int, seed: int,
                         params: SimParams = DEFAULT_SIM_PARAMS) -> Dataset:
    """Perturbed dataset: hot room, warm bottle, and duvet conditions.

    Each condition contributes n_per_cell occupied and n_per_cell empty
    frames (6 * n_per_cell total). Occupied duvet frames are split evenly
    across covered-for-0/5/10-minutes tags; empty duvet frames carry the
    duvet_0 tag.
    """
    check_int("n_per_cell", n_per_cell, 1)
    if n_per_cell % 3 != 0:
        raise InvalidInputError("n_per_cell must be divisible by 3 for the duvet time split")
    frames, third = range(n_per_cell), n_per_cell // 3
    duvet = ((0.0, ConditionTag.DUVET_0), (5.0, ConditionTag.DUVET_5),
             (10.0, ConditionTag.DUVET_10))
    plan = (
        _cell(2, frames, Label.PERSON, ConditionTag.HOT_ROOM, _mix(params, hot=True, person=True))
        + _cell(3, frames, Label.NO_PERSON, ConditionTag.HOT_ROOM, _mix(params, hot=True))
        + _cell(4, frames, Label.PERSON, ConditionTag.WATER_BOTTLE,
                _mix(params, person=True, bottle=True))
        + _cell(5, frames, Label.NO_PERSON, ConditionTag.WATER_BOTTLE, _mix(params, bottle=True))
        + [row for k, (minutes, tag) in enumerate(duvet)
           for row in _cell(6, range(k * third, (k + 1) * third), Label.PERSON, tag,
                            _mix(params, person=True, duvet_minutes=minutes))]
        + _cell(7, frames, Label.NO_PERSON, ConditionTag.DUVET_0, _mix(params))
    )
    return _render_dataset(plan, seed)
