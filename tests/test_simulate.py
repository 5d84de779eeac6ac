import hashlib
import math
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermal_sense import simulate
from thermal_sense.core import TEMP_MAX_C, TEMP_MIN_C, ConditionTag, Label, quantize
from thermal_sense.errors import DataFormatError, InvalidInputError
from thermal_sense.persist import dataset_to_csv
from thermal_sense.simulate import (
    DEFAULT_SIM_PARAMS,
    PersonConfig,
    PointSource,
    SceneConfig,
    SimParams,
    duvet_factor,
    generate_main,
    generate_variational,
    load_sim_params,
    render,
)

from oracles import reference_render, reference_scene


class TestDuvetFactor:
    def test_fresh_duvet_transmission(self):
        assert duvet_factor(0.0) == pytest.approx(0.35)

    def test_long_warmup_approaches_one(self):
        assert duvet_factor(60.0) > 0.99

    def test_monotone(self):
        assert duvet_factor(5.0) < duvet_factor(10.0)

    def test_negative_minutes(self):
        with pytest.raises(InvalidInputError):
            duvet_factor(-1.0)


class TestRender:
    def test_noiseless_constant_scene(self):
        frame = render(SceneConfig(room_temp_c=22.0, noise_sigma=0.0, seed=5))
        assert set(frame.ravel().tolist()) == {22.0}

    def test_empty_room_bounds(self):
        # 1000 noisy empty frames stay within a narrow band around room temp
        for i in range(1000):
            frame = render(SceneConfig(room_temp_c=20.5, noise_sigma=0.1, seed=i))
            values = frame.ravel().tolist()
            assert 20.0 <= min(values)
            assert max(values) <= 21.25
            assert max(values) < 23.0

    def test_person_is_hot(self):
        cfg = SceneConfig(
            room_temp_c=20.5,
            person=PersonConfig((3.5, 3.5), 0.0, (2.8, 1.2), 33.0),
            noise_sigma=0.0,
            seed=0,
        )
        frame = render(cfg)
        assert frame.max() >= 28.0

    def test_deterministic_in_seed(self):
        cfg = SceneConfig(room_temp_c=20.5, noise_sigma=0.3, seed=42)
        assert np.array_equal(render(cfg), render(cfg))

    def test_duvet_reduces_contrast(self):
        person = PersonConfig((3.5, 3.5), 0.0, (2.8, 1.2), 33.0)
        base = render(SceneConfig(20.5, person=person, noise_sigma=0.0, seed=0))
        fresh = render(SceneConfig(20.5, person=person, duvet_minutes=0.0,
                                   noise_sigma=0.0, seed=0))
        assert fresh.max() < base.max()


_coords = st.floats(-1.0, 8.0)
_sources = st.builds(
    PointSource,
    st.tuples(_coords, _coords) | st.just((1e200, -1e200)),  # far off: d * d overflows
    st.floats(0.0, 1.0),
    st.floats(20.0, 45.0),
)
# A half-extent is at most the longer semi-axis, so each of these people fits the grid.
_people = st.builds(
    PersonConfig,
    st.tuples(st.floats(3.0, 4.0), st.floats(3.0, 4.0)),
    st.floats(-90.0, 90.0),
    st.tuples(st.floats(0.5, 2.5), st.floats(0.5, 2.5)),
    st.floats(28.0, 37.0),
)


@st.composite
def scenes(draw):
    person = draw(st.none() | _people)
    return SceneConfig(
        room_temp_c=draw(st.floats(15.0, 35.0)),
        person=person,
        heat_sources=tuple(draw(st.lists(_sources, max_size=3))),
        duvet_minutes=None if person is None else draw(st.none() | st.floats(0.0, 30.0)),
        noise_sigma=draw(st.just(0.0) | st.floats(0.01, 2.0)),
        seed=draw(st.integers(0, 2**64)),
        duvet_f0=draw(st.floats(0.05, 1.0)),
        duvet_tau_min=draw(st.floats(0.5, 10.0)),
    )


class TestBatchRender:
    BLOCK = 4  # so that short lists cross block boundaries

    @settings(max_examples=60)
    @given(cfgs=st.lists(scenes(), min_size=BLOCK + 1, max_size=3 * BLOCK))
    def test_blocks_and_render_match_the_per_frame_reference(self, cfgs):
        expected = np.array([reference_render(cfg) for cfg in cfgs])
        plan = [(0, i, Label.PERSON, ConditionTag.BASELINE, lambda key, cfg=cfg: cfg)
                for i, cfg in enumerate(cfgs)]
        with mock.patch.object(simulate, "BLOCK", self.BLOCK):
            rows = simulate._render_dataset(plan, 0).x
        assert rows.tobytes() == expected.tobytes()
        for cfg, frame in zip(cfgs, expected):
            assert render(cfg).tobytes() == frame.tobytes()


_MIXES = [{"person": True}, {}, {"hot": True, "person": True}, {"hot": True},
          {"person": True, "bottle": True}, {"bottle": True},
          {"person": True, "duvet_minutes": 5.0}]
# Seeds at the edges of reading an int as uint32 words, then ordinary ones.
_EDGE_SEEDS = [0, 1, 7, 1013, 2**32 - 1, 2**32, 2**40 + 5, 2**63, 2**64 + 7, 2**100 + 3]


def _keys(count):
    rng = np.random.default_rng(5)
    for n in range(count):
        seed = _EDGE_SEEDS[n] if n < len(_EDGE_SEEDS) else int(rng.integers(0, 2**40))
        yield seed, n % 8, int(rng.integers(0, 5000))


class TestSceneDraws:
    @pytest.mark.parametrize("mix", _MIXES, ids=lambda mix: "+".join(mix) or "empty")
    def test_one_random_call_draws_what_sequential_uniform_calls_draw(self, mix):
        # Equal reprs are equal bits; the frame seed is the generator's next integers draw.
        draw = simulate._mix(DEFAULT_SIM_PARAMS, **mix)
        for key in _keys(1000):
            assert repr(draw(key)) == repr(reference_scene(key, DEFAULT_SIM_PARAMS, **mix))

    def test_a_key_as_uint32_words_seeds_the_same_generator(self):
        for seed, stream, i in _keys(1000):
            words = np.array([*simulate._uint32_words(seed), stream, i], dtype=np.uint32)
            assert (np.random.default_rng(words).bit_generator.state
                    == np.random.default_rng((seed, stream, i)).bit_generator.state)


class TestSceneValidation:
    def test_room_range(self):
        with pytest.raises(InvalidInputError):
            SceneConfig(room_temp_c=40.0)

    def test_duvet_without_person(self):
        with pytest.raises(InvalidInputError):
            SceneConfig(room_temp_c=21.0, duvet_minutes=5.0)

    def test_person_footprint_outside_grid(self):
        with pytest.raises(InvalidInputError):
            SceneConfig(room_temp_c=21.0, person=PersonConfig((0.5, 3.5)))

    def test_skin_range(self):
        with pytest.raises(InvalidInputError):
            PersonConfig((3.5, 3.5), skin_temp_c=45.0)

    def test_source_ceiling(self):
        with pytest.raises(InvalidInputError):
            PointSource((3.0, 3.0), temp_c=50.0)

    @pytest.mark.parametrize("temp_c", [float("nan"), float("inf"), float("-inf")])
    def test_source_temperature_must_be_finite(self, temp_c):
        with pytest.raises(InvalidInputError, match=r"^temp_c must be finite, got "):
            PointSource((3.0, 3.0), temp_c=temp_c)

    @pytest.mark.parametrize("center, orientation, message", [
        ((3.5, 3.5), float("inf"), "orientation_deg must be finite, got inf"),
        ((3.5, 3.5), float("nan"), "orientation_deg must be finite, got nan"),
        ((float("nan"), 3.5), 0.0, "center must be finite, got (nan, 3.5)"),
        ((3.5, float("-inf")), 0.0, "center must be finite, got (3.5, -inf)"),
        ((3.5,), 0.0, "center must hold two numbers, got (3.5,)"),
        ((3.5, 3.5, 0.0), 0.0, "center must hold two numbers, got (3.5, 3.5, 0.0)"),
        (3.5, 0.0, "center must hold two numbers, got 3.5"),
    ])
    def test_person_pose_must_be_finite(self, center, orientation, message):
        # named before the footprint test, which would fail with the wrong cause
        with pytest.raises(InvalidInputError) as info:
            SceneConfig(20.5, person=PersonConfig(center, orientation))
        assert str(info.value) == message

    @pytest.mark.parametrize("center", [(float("nan"), 3.0), (float("inf"), 3.0),
                                        (3.0, float("-inf"))])
    def test_source_center_must_be_finite(self, center):
        with pytest.raises(InvalidInputError) as info:
            render(SceneConfig(20.5, heat_sources=(PointSource(center),)))
        assert str(info.value) == f"center must be finite, got {center!r}"

    @pytest.mark.parametrize("field, build, value", [
        ("semi_axes", lambda v: PersonConfig((3.5, 3.5), semi_axes=v), (2.0,)),
        ("semi_axes", lambda v: PersonConfig((3.5, 3.5), semi_axes=v), (2.0, 1.0, 1.0)),
        ("center", lambda v: PointSource(v), (3.0,)),
        ("center", lambda v: PointSource(v), (3.0, 3.0, 9.0)),
        ("center", lambda v: PointSource(v), ()),
    ], ids=["semi_axes-1", "semi_axes-3", "source-center-1", "source-center-3",
            "source-center-0"])
    def test_pairs_must_hold_two_numbers(self, field, build, value):
        # checked first: a third source value would shift the renderer's value table
        with pytest.raises(InvalidInputError) as info:
            build(value)
        assert str(info.value) == f"{field} must hold two numbers, got {value!r}"

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be at least 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
    ])
    def test_seed_is_checked_before_render(self, seed, message):
        with pytest.raises(InvalidInputError) as info:
            render(SceneConfig(20.5, seed=seed))
        assert str(info.value) == message

    def test_duvet_factor_is_checked_once_per_frame(self):
        person = PersonConfig((3.5, 3.5), 0.0, (2.8, 1.2), 33.0)
        with mock.patch.object(simulate, "duvet_factor", wraps=duvet_factor) as checked:
            frame = render(SceneConfig(20.5, person=person, duvet_minutes=3.0, seed=0))
        assert checked.call_count == 1  # by SceneConfig; the render reuses the formula
        body = 20.5 + (33.0 - 20.5) * duvet_factor(3.0)  # inside the ellipse, exp(0) = 1
        assert frame.max() == simulate.quantize(np.full((8, 8), body))[0, 0]


# The one-field perturbation of a valid scene (a person under a duvet, a source and noise, so
# that every field is read). Each numeric field, and each item of a pair, takes every value of
# _ODD_VALUES and the values at and just past its bounds. `person` and `heat_sources` hold
# objects, and a wrong one is the caller's TypeError or AttributeError, so they are left out.
_VALID = {"person": {"center": (3.5, 3.5), "orientation_deg": 20.0, "semi_axes": (2.0, 1.0),
                     "skin_temp_c": 33.0},
          "source": {"center": (1.0, 6.0), "radius": 0.35, "temp_c": 37.0},
          "scene": {"room_temp_c": 20.5, "duvet_minutes": 3.0, "noise_sigma": 0.1, "seed": 7,
                    "duvet_f0": 0.35, "duvet_tau_min": 4.0}}
_ODD_VALUES = (None, "1.0", True, np.array(True), (1.0, 2.0), np.array([2.0]),
               np.array([1.0, 2.0]), Decimal("sNaN"), 10**400, -10**400, math.inf, -math.inf,
               math.nan, 5e-324, 1e308, -1e308)
_FOOTPRINT = "person footprint extends outside the 8x8 grid"


def _edges(*bounds):
    """Each (bound, side) as the bound and the float just past it (side -1: below, 1: above)."""
    return tuple(v for bound, side in bounds
                 for v in (bound, math.nextafter(bound, side * math.inf)))


# (part, field, item of a pair or None, what an InvalidInputError's message may start with,
# values at and just past the field's bounds)
_FIELDS = [
    ("person", "center", None, ("center ", _FOOTPRINT), ()),
    ("person", "center", 0, ("center ", _FOOTPRINT), ()),
    ("person", "center", 1, ("center ", _FOOTPRINT), ()),
    ("person", "orientation_deg", None, ("orientation_deg ", _FOOTPRINT), ()),
    ("person", "semi_axes", None, ("semi_axes ", _FOOTPRINT), ()),
    ("person", "semi_axes", 0, ("semi_axes[0] ", _FOOTPRINT), _edges((0.0, -1))),
    ("person", "semi_axes", 1, ("semi_axes[1] ", _FOOTPRINT), _edges((0.0, -1))),
    ("person", "skin_temp_c", None, ("skin temperature ",), _edges((28.0, -1), (37.0, 1))),
    ("source", "center", None, ("center ",), ()),
    ("source", "center", 0, ("center ",), ()),
    ("source", "center", 1, ("center ",), ()),
    ("source", "radius", None, ("radius ",), _edges((0.0, -1))),
    ("source", "temp_c", None, ("temp_c ", "point source at "), _edges((45.0, 1))),
    ("scene", "room_temp_c", None, ("room temperature ",), _edges((15.0, -1), (35.0, 1))),
    ("scene", "duvet_minutes", None, ("duvet_minutes ",), _edges((0.0, -1))),
    ("scene", "noise_sigma", None, ("noise sigma ",),
     _edges((0.0, -1), (TEMP_MAX_C - TEMP_MIN_C, 1))),
    ("scene", "seed", None, ("seed ",), (0, -1, 2**64)),
    ("scene", "duvet_f0", None, ("f0 ",), _edges((0.0, -1), (1.0, 1))),
    ("scene", "duvet_tau_min", None, ("tau_min ",), _edges((0.0, -1))),
]


def _with_every_edge(test):
    """test, run on every field with each of _ODD_VALUES and its bound values first."""
    for field in _FIELDS:
        for value in _ODD_VALUES + field[4]:
            test = example(field=field, value=value)(test)
    return test


@_with_every_edge
@settings(max_examples=200)
@given(field=st.sampled_from(_FIELDS),
       value=st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4))
def test_a_scene_with_one_odd_field_renders_or_names_it(field, value):
    part, name, item, prefixes, _ = field
    kwargs = {key: dict(values) for key, values in _VALID.items()}
    if item is not None:
        value = tuple(value if i == item else v for i, v in enumerate(kwargs[part][name]))
    kwargs[part][name] = value
    try:
        frame = render(SceneConfig(person=PersonConfig(**kwargs["person"]),
                                   heat_sources=(PointSource(**kwargs["source"]),),
                                   **kwargs["scene"]))
    except InvalidInputError as exc:
        assert str(exc).startswith(prefixes), str(exc)
    else:  # within the sensor contract: quantizing leaves it as it is (finite, quarter
        # degrees in [20, 100])
        assert frame.shape == (8, 8) and np.array_equal(quantize(frame), frame)


# SHA-256 of dataset_to_csv for the datasets the bench's workloads are built from; each
# renders more than one block.
@pytest.mark.parametrize("generate, args, digest", [
    (generate_main, (960, 7), "70cf67bbec7a942447773a8828e8b3837c30f908045cd9a859e21e2493ce67a6"),
    (generate_variational, (30, 8),
     "751d1232430d723594d7f55a304aa2f1b81146c18d2794f317c2fa637f2a2cf8"),
    (generate_main, (240, 1013),
     "75c416fa1bfa7eed971ee7902fbb23634c3ba4ab1ab40613703faae040251d34"),
], ids=["main-960-7", "variational-30-8", "main-240-1013"])
def test_bench_scale_dataset_digests(generate, args, digest):
    assert hashlib.sha256(dataset_to_csv(generate(*args)).encode()).hexdigest() == digest


# Each message is the one rendering frame by frame gives: that of the first failing frame
# in plan order. In the nan-before-* cases the first bottle scene, whose temperature is nan,
# fails before the first scene with a bad radius or duvet f0.
@pytest.mark.parametrize("block", [simulate.BLOCK, 1000])
@pytest.mark.parametrize("generate, args, params, message", [
    (generate_main, (5, 7), SimParams(skin_lo=50, skin_hi=51),
     "skin temperature 50.005265304565576 outside [28, 37]"),
    (generate_main, (300, 7), SimParams(skin_lo=36.0, skin_hi=38.0),
     "skin temperature 37.52506148093758 outside [28, 37]"),
    (generate_variational, (30, 8), SimParams(bottle_temp_c=46.0),
     "point source at 46.0 exceeds 45 C"),
    (generate_variational, (300, 8), SimParams(bottle_radius_lo=-0.2),
     "radius must be finite and >= 0, got -0.19883397099053102"),
    (generate_variational, (30, 9), SimParams(bottle_temp_c=float("nan"), bottle_radius_lo=-0.2),
     "temp_c must be finite, got nan"),
    (generate_variational, (3, 7), SimParams(duvet_f0=2.0), "f0 2.0 outside (0, 1]"),
    (generate_variational, (3, 7), SimParams(duvet_f0=2.0, bottle_temp_c=float("nan")),
     "temp_c must be finite, got nan"),
], ids=["skin-all", "skin-some", "bottle-hot", "bottle-radius", "nan-before-bad-radius",
        "duvet-f0", "nan-before-bad-duvet-f0"])
def test_scene_checks_survive_batching(generate, args, params, message, block):
    with mock.patch.object(simulate, "BLOCK", block), pytest.raises(InvalidInputError) as info:
        generate(*args, params=params)
    assert str(info.value) == message


@pytest.mark.parametrize("generate, params, message", [
    (generate_main, SimParams(room_lo=1.0, room_hi=0.0),
     "the range of room_lo and room_hi has width -1.0, not finite and >= 0"),
    (generate_main, SimParams(person_orient_deg=float("inf")),
     "the range of person_orient_deg has width inf, not finite and >= 0"),
    (generate_variational, SimParams(bottle_col_lo=-1e308, bottle_col_hi=1e308),
     "the range of bottle_col_lo and bottle_col_hi has width inf, not finite and >= 0"),
], ids=["room-reversed", "orientation-inf", "bottle-col-overflows"])
def test_an_undrawable_range_is_invalid_input(generate, params, message):
    with pytest.raises(InvalidInputError) as info:
        generate(6, 7, params=params)
    assert str(info.value) == message


def test_a_range_the_dataset_does_not_draw_from_is_not_checked():
    params = SimParams(bottle_radius_lo=1.0, bottle_radius_hi=0.0)  # main draws no bottle
    assert dataset_to_csv(generate_main(3, 7, params)) == dataset_to_csv(generate_main(3, 7))


class TestGenerateMain:
    def test_counts(self):
        ds = generate_main(240, 7)
        assert len(ds) == 480
        counts = np.bincount(ds.y)
        assert counts[Label.PERSON] == counts[Label.NO_PERSON] == 240
        assert all(s.condition is ConditionTag.BASELINE for s in ds.samples)

    def test_reproducible_bytes(self):
        a = generate_main(1, 3)
        b = generate_main(1, 3)
        assert len(a) == 2
        assert dataset_to_csv(a) == dataset_to_csv(b)

    def test_class_separation(self):
        ds = generate_main(60, 5)
        person_max = [max(s.features) for s in ds.samples if s.label is Label.PERSON]
        empty_max = [max(s.features) for s in ds.samples if s.label is Label.NO_PERSON]
        assert min(person_max) > max(empty_max) + 2.0

    def test_max_pixel_threshold_separates(self):
        # the baseline classes are linearly separable on the max pixel alone
        ds = generate_main(100, 9)
        threshold = 25.0
        correct = sum(
            1
            for s in ds.samples
            if (max(s.features) > threshold) == (s.label is Label.PERSON)
        )
        assert correct / len(ds) >= 0.95


class TestGenerateVariational:
    def test_counts_and_tags(self):
        ds = generate_variational(30, 7)
        assert len(ds) == 180
        per = {}
        for s in ds.samples:
            per[(s.label, s.condition)] = per.get((s.label, s.condition), 0) + 1
        assert per[(Label.PERSON, ConditionTag.DUVET_0)] == 10
        assert per[(Label.PERSON, ConditionTag.DUVET_5)] == 10
        assert per[(Label.PERSON, ConditionTag.DUVET_10)] == 10
        assert per[(Label.NO_PERSON, ConditionTag.DUVET_0)] == 30
        assert per[(Label.PERSON, ConditionTag.HOT_ROOM)] == 30
        assert per[(Label.NO_PERSON, ConditionTag.WATER_BOTTLE)] == 30

    def test_indivisible_cell_count(self):
        with pytest.raises(InvalidInputError):
            generate_variational(20, 7)

    def test_hot_room_mean(self):
        ds = generate_variational(30, 3)
        for s in ds.samples:
            if s.condition is ConditionTag.HOT_ROOM and s.label is Label.NO_PERSON:
                assert 23.5 <= sum(s.features) / 64 <= 25.5

    def test_bottle_visible_when_bed_empty(self):
        ds = generate_variational(30, 3)
        baseline_empty_max = max(
            max(s.features) for s in generate_main(30, 3).samples
            if s.label is Label.NO_PERSON
        )
        for s in ds.samples:
            if s.condition is ConditionTag.WATER_BOTTLE and s.label is Label.NO_PERSON:
                assert 30.0 <= max(s.features) <= 38.0
                assert max(s.features) > baseline_empty_max

    def test_fresh_duvet_has_smallest_gap(self):
        # max-pixel contrast orders duvet_0 < duvet_5 < duvet_10, and the
        # fresh duvet stays below the unperturbed and hot-room contrasts
        var = generate_variational(30, 11)
        main = generate_main(30, 11)

        def mean_max(samples):
            values = [max(s.features) for s in samples]
            return sum(values) / len(values)

        empty_duvet = [s for s in var.samples
                       if s.label is Label.NO_PERSON and s.condition is ConditionTag.DUVET_0]

        def duvet_gap(tag):
            occupied = [s for s in var.samples
                        if s.label is Label.PERSON and s.condition is tag]
            return mean_max(occupied) - mean_max(empty_duvet)

        gaps = {tag: duvet_gap(tag)
                for tag in (ConditionTag.DUVET_0, ConditionTag.DUVET_5, ConditionTag.DUVET_10)}
        assert gaps[ConditionTag.DUVET_0] < gaps[ConditionTag.DUVET_5] < gaps[ConditionTag.DUVET_10]

        baseline_gap = mean_max(
            [s for s in main.samples if s.label is Label.PERSON]
        ) - mean_max([s for s in main.samples if s.label is Label.NO_PERSON])
        hot = [s for s in var.samples if s.condition is ConditionTag.HOT_ROOM]
        hot_gap = mean_max(
            [s for s in hot if s.label is Label.PERSON]
        ) - mean_max([s for s in hot if s.label is Label.NO_PERSON])
        assert gaps[ConditionTag.DUVET_0] < baseline_gap
        assert gaps[ConditionTag.DUVET_0] < hot_gap


class TestSimParams:
    def test_load_overrides(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("# hotter room\nroom_lo = 21.0\nnoise_sigma=0.05\n")
        params = load_sim_params(cfg)
        assert params.room_lo == 21.0
        assert params.noise_sigma == 0.05
        assert params.room_hi == DEFAULT_SIM_PARAMS.room_hi

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("walls = 4\n")
        with pytest.raises(DataFormatError, match="unknown parameter"):
            load_sim_params(cfg)

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("room_lo = warm\n")
        with pytest.raises(DataFormatError):
            load_sim_params(cfg)

    @pytest.mark.parametrize("text", ["noise_sigma = nan", "skin_hi = -inf"])
    def test_non_finite_value_names_line(self, tmp_path, text):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"room_lo = 20.5\n{text}\n")
        with pytest.raises(DataFormatError, match=f"^{cfg}:2: {text.split()[0]} must be finite"):
            load_sim_params(cfg)

    def test_ranges_of_width_zero_to_just_below_overflow_load(self, tmp_path):
        # 2 * 8e307 is finite, so these ranges can still be drawn from; a person at any
        # orientation fits the narrowed columns.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("room_lo = 21.0\nperson_orient_deg = 8e307\nperson_col_lo = 2.5\n"
                       "person_col_hi = 4.5\nbottle_row_lo = -8e307\nbottle_row_hi = 8e307\n")
        params = load_sim_params(cfg)
        assert params.room_lo == params.room_hi and params.person_orient_deg == 8e307

    @pytest.mark.parametrize("text, lineno, keys, width", [
        ("bottle_row_lo = -1e308\n# the upper bound\nbottle_row_hi = 1e308", 3,
         "bottle_row_lo and bottle_row_hi", "inf"),
        ("person_semi_a_hi = 1.7e308\nperson_semi_a_lo = -1e308", 2,
         "person_semi_a_lo and person_semi_a_hi", "inf"),
        ("person_orient_deg = 1e308", 1, "person_orient_deg", "inf"),
        ("room_lo = 22.0", 1, "room_lo and room_hi", "-1.0"),
        ("# cooler\nbottle_col_hi = 1.0", 2, "bottle_col_lo and bottle_col_hi", "-0.5"),
        ("person_orient_deg = -25.0", 1, "person_orient_deg", "-50.0"),
    ])
    def test_undrawable_range_names_line(self, tmp_path, text, lineno, keys, width):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(text + "\n")
        with pytest.raises(DataFormatError) as info:
            load_sim_params(cfg)
        assert str(info.value) == (
            f"{cfg}:{lineno}: the range of {keys} has width {width}, not finite and >= 0")

    def test_the_defaults_file_states_the_defaults(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "simulator_defaults.cfg"
        assert load_sim_params(path) == SimParams()

    def test_scene_bounds_load_at_their_ends(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("room_lo = 15\nhot_room_hi = 35\nskin_lo = 28\nskin_hi = 37\n"
                       "bottle_temp_c = 45\nbottle_radius_lo = 0\nnoise_sigma = 0\nduvet_f0 = 1\n")
        params = load_sim_params(cfg)
        assert (params.room_lo, params.hot_room_hi, params.duvet_f0) == (15.0, 35.0, 1.0)
