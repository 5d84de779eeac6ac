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
byte-for-byte and frames may be rendered in any order.
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
    flatten,
    quantize,
)
from .errors import DataFormatError, InvalidInputError, check_int, check_real
from .persist import read_lines

DEFAULT_DUVET_F0 = 0.35
DEFAULT_DUVET_TAU_MIN = 4.0

# Pixel centers sit at integer coordinates 0..7; the grid covers [-0.5, 7.5].
_GRID_LO = -0.5
_GRID_HI = GRID_SIZE - 0.5
_ROWS, _COLS = np.meshgrid(
    np.arange(GRID_SIZE, dtype=np.float64),
    np.arange(GRID_SIZE, dtype=np.float64),
    indexing="ij",
)


def duvet_factor(minutes: float, f0: float = DEFAULT_DUVET_F0,
                 tau_min: float = DEFAULT_DUVET_TAU_MIN) -> float:
    """Fraction of body-over-room contrast transmitted through a duvet.

    factor(t) = 1 - (1 - f0) * exp(-t / tau); strictly increasing from
    f0 at t=0 toward 1 as the duvet warms up.
    """
    check_real("minutes", minutes, closed=True)
    if not 0.0 < f0 <= 1.0:
        raise InvalidInputError(f"f0 {f0} outside (0, 1]")
    check_real("tau_min", tau_min)
    return 1.0 - (1.0 - f0) * math.exp(-minutes / tau_min)


@dataclass(frozen=True)
class PersonConfig:
    """A lying body modeled as a warm rotated ellipse in grid coordinates."""

    center: tuple[float, float]
    orientation_deg: float = 0.0
    semi_axes: tuple[float, float] = (2.8, 1.2)
    skin_temp_c: float = 32.0

    def __post_init__(self) -> None:
        a, b = self.semi_axes
        check_real("semi_axes[0]", a)
        check_real("semi_axes[1]", b)
        if not (28.0 <= self.skin_temp_c <= 37.0):
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
        check_real("radius", self.radius, closed=True)
        if self.temp_c > 45.0:
            raise InvalidInputError(f"point source at {self.temp_c} exceeds 45 C")


@dataclass(frozen=True)
class SceneConfig:
    room_temp_c: float
    person: PersonConfig | None = None
    heat_sources: tuple[PointSource, ...] = ()
    duvet_minutes: float | None = None
    noise_sigma: float = 0.0
    seed: int = 0
    duvet_f0: float = DEFAULT_DUVET_F0
    duvet_tau_min: float = DEFAULT_DUVET_TAU_MIN

    def __post_init__(self) -> None:
        if not (15.0 <= self.room_temp_c <= 35.0):
            raise InvalidInputError(f"room temperature {self.room_temp_c} outside [15, 35]")
        if not (0.0 <= self.noise_sigma <= TEMP_MAX_C - TEMP_MIN_C):  # at most the sensor's span
            raise InvalidInputError(
                f"noise sigma {self.noise_sigma} outside [0, {TEMP_MAX_C - TEMP_MIN_C:g}]")
        if self.duvet_minutes is not None:
            if self.person is None:
                raise InvalidInputError("duvet_minutes given without a person")
            check_real("duvet_minutes", self.duvet_minutes, closed=True)
        if self.person is not None and not self.person.footprint_within_grid():
            raise InvalidInputError("person footprint extends outside the 8x8 grid")


def _ellipse_excess_distance(person: PersonConfig) -> np.ndarray:
    """Distance (grid units, approximate) of each pixel outside the ellipse; 0 inside."""
    th = math.radians(person.orientation_deg)
    dr = _ROWS - person.center[0]
    dc = _COLS - person.center[1]
    a, b = person.semi_axes
    u = (dr * math.cos(th) + dc * math.sin(th)) / a
    v = (-dr * math.sin(th) + dc * math.cos(th)) / b
    rho = np.hypot(u, v)
    return np.maximum(rho - 1.0, 0.0) * min(a, b)


def render(cfg: SceneConfig) -> np.ndarray:
    """Render one frame: max-composed contributions + noise, quantized."""
    field = np.full((GRID_SIZE, GRID_SIZE), cfg.room_temp_c, dtype=np.float64)

    if cfg.person is not None:
        factor = 1.0 if cfg.duvet_minutes is None else duvet_factor(
            cfg.duvet_minutes, cfg.duvet_f0, cfg.duvet_tau_min)
        effective = cfg.room_temp_c + (cfg.person.skin_temp_c - cfg.room_temp_c) * factor
        d = _ellipse_excess_distance(cfg.person)
        field = np.maximum(field, effective * np.exp(-0.5 * d * d))

    for src in cfg.heat_sources:
        d = np.maximum(np.hypot(_ROWS - src.center[0], _COLS - src.center[1]) - src.radius, 0.0)
        # d * d overflows only for a source too far away to warm any pixel, and
        # exp(-inf) is exactly 0, so the overflow changes no value: silence it.
        with np.errstate(over="ignore"):
            field = np.maximum(field, src.temp_c * np.exp(-0.5 * d * d))

    rng = np.random.default_rng(cfg.seed)
    noisy = field + rng.normal(0.0, cfg.noise_sigma, field.shape) if cfg.noise_sigma > 0 else field
    return quantize(noisy)


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


def _draw_widths(p: SimParams):  # the keys and width of each range frames are drawn from
    for f in fields(p):
        if f.name.endswith("_lo"):
            hi = f.name[:-3] + "_hi"
            yield (f.name, hi), getattr(p, hi) - getattr(p, f.name)
    yield ("person_orient_deg",), 2 * p.person_orient_deg  # drawn from [-this, this]


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
    for keys, width in _draw_widths(params):
        if not 0 <= width < math.inf:
            raise DataFormatError(f"{path}:{max(where.get(k, 0) for k in keys)}: the range of "
                                  f"{' and '.join(keys)} has width {width!r}, not finite and >= 0")
    for key in sorted(where, key=where.get):
        bound = key.removesuffix("_lo").removesuffix("_hi")  # a range shares its ends' entry
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


def _frame_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _draw_person(rng: np.random.Generator, p: SimParams) -> PersonConfig:
    return PersonConfig(
        center=(
            rng.uniform(p.person_row_lo, p.person_row_hi),
            rng.uniform(p.person_col_lo, p.person_col_hi),
        ),
        orientation_deg=rng.uniform(-p.person_orient_deg, p.person_orient_deg),
        semi_axes=(
            rng.uniform(p.person_semi_a_lo, p.person_semi_a_hi),
            rng.uniform(p.person_semi_b_lo, p.person_semi_b_hi),
        ),
        skin_temp_c=rng.uniform(p.skin_lo, p.skin_hi),
    )


def _draw_bottle(rng: np.random.Generator, p: SimParams) -> PointSource:
    return PointSource(
        center=(
            rng.uniform(p.bottle_row_lo, p.bottle_row_hi),
            rng.uniform(p.bottle_col_lo, p.bottle_col_hi),
        ),
        radius=rng.uniform(p.bottle_radius_lo, p.bottle_radius_hi),
        temp_c=p.bottle_temp_c,
    )


def _scene(seed_key: tuple[int, ...], p: SimParams, *, hot: bool = False,
           person: bool = False, bottle: bool = False,
           duvet_minutes: float | None = None) -> SceneConfig:
    rng = np.random.default_rng(seed_key)
    room = rng.uniform(p.hot_room_lo, p.hot_room_hi) if hot else rng.uniform(p.room_lo, p.room_hi)
    return SceneConfig(
        room_temp_c=room,
        person=_draw_person(rng, p) if person else None,
        heat_sources=(_draw_bottle(rng, p),) if bottle else (),
        duvet_minutes=duvet_minutes,
        noise_sigma=p.noise_sigma,
        seed=_frame_seed(rng),
        duvet_f0=p.duvet_f0,
        duvet_tau_min=p.duvet_tau_min,
    )


def _render_dataset(plan, seed: int, params: SimParams) -> Dataset:
    """Render frame plans (stream, i, label, condition, scene options) in order.

    Frame i of a stream is seeded by (seed, stream, i) and written straight
    into the preallocated feature matrix.
    """
    x = np.empty((len(plan), NUM_PIXELS))
    for row, (stream, i, _, _, scene) in enumerate(plan):
        x[row] = flatten(render(_scene((seed, stream, i), params, **scene)))
    labels = [label for _, _, label, _, _ in plan]
    codes = [CONDITIONS.index(tag) for _, _, _, tag, _ in plan]
    return Dataset(x, labels, codes)


def _cell(stream: int, n: int, label: Label, tag: ConditionTag, **scene) -> list:
    """Plans for frames 0..n-1 of a stream, all with one label, condition and scene."""
    return [(stream, i, label, tag, scene) for i in range(n)]


def generate_main(n_per_class: int, seed: int,
                  params: SimParams = DEFAULT_SIM_PARAMS) -> Dataset:
    """Baseline dataset: n occupied frames followed by n empty frames."""
    check_int("n_per_class", n_per_class, 1)
    plan = (_cell(0, n_per_class, Label.PERSON, ConditionTag.BASELINE, person=True)
            + _cell(1, n_per_class, Label.NO_PERSON, ConditionTag.BASELINE))
    return _render_dataset(plan, seed, params)


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
    n = n_per_cell
    duvet = ((0.0, ConditionTag.DUVET_0), (5.0, ConditionTag.DUVET_5),
             (10.0, ConditionTag.DUVET_10))
    plan = (
        _cell(2, n, Label.PERSON, ConditionTag.HOT_ROOM, hot=True, person=True)
        + _cell(3, n, Label.NO_PERSON, ConditionTag.HOT_ROOM, hot=True)
        + _cell(4, n, Label.PERSON, ConditionTag.WATER_BOTTLE, person=True, bottle=True)
        + _cell(5, n, Label.NO_PERSON, ConditionTag.WATER_BOTTLE, bottle=True)
        + [(6, i, Label.PERSON, tag, {"person": True, "duvet_minutes": minutes})
           for i in range(n) for minutes, tag in [duvet[i // (n // 3)]]]
        + _cell(7, n, Label.NO_PERSON, ConditionTag.DUVET_0)
    )
    return _render_dataset(plan, seed, params)
