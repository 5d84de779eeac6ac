import numpy as np
import pytest

from thermal_sense.core import ConditionTag, Label
from thermal_sense.errors import DataFormatError, InvalidInputError
from thermal_sense.persist import dataset_to_csv
from thermal_sense.simulate import (
    DEFAULT_SIM_PARAMS,
    PersonConfig,
    PointSource,
    SceneConfig,
    duvet_factor,
    generate_main,
    generate_variational,
    load_sim_params,
    render,
)


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

    def test_scene_bounds_load_at_their_ends(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("room_lo = 15\nhot_room_hi = 35\nskin_lo = 28\nskin_hi = 37\n"
                       "bottle_temp_c = 45\nbottle_radius_lo = 0\nnoise_sigma = 0\nduvet_f0 = 1\n")
        params = load_sim_params(cfg)
        assert (params.room_lo, params.hot_room_hi, params.duvet_f0) == (15.0, 35.0, 1.0)
