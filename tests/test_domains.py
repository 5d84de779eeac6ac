"""Every numeric setting rejects a value outside its domain with an InvalidInputError
whose message starts with the setting's name."""

import dataclasses
import math
from decimal import Decimal

import numpy as np
import pytest

from thermal_sense.classifiers.kernels import KernelSpec
from thermal_sense.classifiers.knn import KnnModel
from thermal_sense.classifiers.nn import TrainingParams, train_nn
from thermal_sense.classifiers.svm import train_svm
from thermal_sense.core import FoldPlan, make_folds
from thermal_sense.errors import InvalidInputError, check_int, check_real
from thermal_sense.evaluate import SvmSpec
from thermal_sense.monitor import MonitorConfig
from thermal_sense.simulate import (
    PersonConfig,
    PointSource,
    SceneConfig,
    duvet_factor,
    generate_main,
    generate_variational,
)

from conftest import balanced_dataset

DS = balanced_dataset(4)
SVM = train_svm(DS, KernelSpec())
NN = train_nn(DS, 2, TrainingParams(0.1, 4, 1))
NOT_INT = (True, 2.5, math.nan, math.inf)  # each int setting also gets its low bound - 1
# Each real setting also gets a value below; 10**400 is beyond float range, and a signalling
# NaN makes math.isfinite raise ValueError.
NOT_REAL = (True, np.True_, np.array(True), np.array([2.0]), math.nan, math.inf, -math.inf,
            10**400, "1.0", Decimal("sNaN"))

# (where, the name its message starts with, build from the value, values outside the domain)
SETTINGS = [
    ("MonitorConfig", "debounce_frames", lambda v: MonitorConfig(debounce_frames=v),
     NOT_INT + (0,)),
    ("MonitorConfig", "max_exits", lambda v: MonitorConfig(max_exits=v), NOT_INT + (-1,)),
    ("MonitorConfig", "long_absence_s", lambda v: MonitorConfig(long_absence_s=v),
     NOT_REAL + (-1.0,)),
    ("MonitorConfig", "window_s", lambda v: MonitorConfig(window_s=v), NOT_REAL + (0.0,)),
    ("KernelSpec", "degree", lambda v: KernelSpec("poly", degree=v), NOT_INT + (0,)),
    ("KernelSpec", "gamma", lambda v: KernelSpec("rbf", gamma=v), NOT_REAL + (0.0,)),
    ("KnnModel", "k", lambda v: KnnModel(DS, v, "uniform"), NOT_INT + (0,)),
    ("SvmSpec", "C", lambda v: SvmSpec(c=v).train_model(DS, 0), NOT_REAL + (0.0,)),
    ("SvmSpec", "tol", lambda v: SvmSpec(tol=v).train_model(DS, 0), NOT_REAL + (0.0,)),
    ("SvmSpec", "max_iter", lambda v: SvmSpec(max_iter=v).train_model(DS, 0), NOT_INT + (0,)),
    ("train_svm", "C", lambda v: train_svm(DS, KernelSpec(), c=v), NOT_REAL + (0.0,)),
    ("train_svm", "tol", lambda v: train_svm(DS, KernelSpec(), tol=v), NOT_REAL + (0.0,)),
    ("train_svm", "max_iter", lambda v: train_svm(DS, KernelSpec(), max_iter=v), NOT_INT + (0,)),
    ("SvmModel", "C", lambda v: dataclasses.replace(SVM, c=v), NOT_REAL + (0.0,)),
    ("TrainingParams", "learning rate", lambda v: TrainingParams(learning_rate=v),
     NOT_REAL + (0.0,)),
    ("TrainingParams", "batch size", lambda v: TrainingParams(batch_size=v), NOT_INT + (0,)),
    ("TrainingParams", "epochs", lambda v: TrainingParams(epochs=v), NOT_INT + (0,)),
    ("NnModel", "hidden", lambda v: dataclasses.replace(NN, hidden=v), NOT_INT + (0, 1025)),
    ("train_nn", "hidden", lambda v: train_nn(DS, v), NOT_INT + (0, 1025)),
    ("FoldPlan", "num_folds", lambda v: FoldPlan(v, ()), NOT_INT + (1,)),
    ("FoldPlan", "fold index", lambda v: FoldPlan(2, (0, v)), NOT_INT + (-1, 2)),
    ("make_folds", "k", lambda v: make_folds(DS, v, 0), NOT_INT + (1,)),
    ("generate_main", "n_per_class", lambda v: generate_main(v, 1), NOT_INT + (0,)),
    ("generate_variational", "n_per_cell", lambda v: generate_variational(v, 1), NOT_INT + (0,)),
    ("PersonConfig", "semi_axes[0]", lambda v: PersonConfig((3.5, 3.5), semi_axes=(v, 1.0)),
     NOT_REAL + (0.0,)),
    ("PersonConfig", "semi_axes[1]", lambda v: PersonConfig((3.5, 3.5), semi_axes=(2.0, v)),
     NOT_REAL + (0.0,)),
    ("PointSource", "radius", lambda v: PointSource((3.0, 3.0), radius=v), NOT_REAL + (-0.1,)),
    ("SceneConfig", "duvet_minutes",
     lambda v: SceneConfig(20.0, person=PersonConfig((3.5, 3.5)), duvet_minutes=v),
     NOT_REAL + (-1.0,)),
    ("SceneConfig", "noise sigma", lambda v: SceneConfig(20.0, noise_sigma=v),
     (True, math.nan, math.inf, 10**400, "1.0", -0.1, 80.5)),
    ("duvet_factor", "minutes", lambda v: duvet_factor(v), NOT_REAL + (-1.0,)),
    ("duvet_factor", "tau_min", lambda v: duvet_factor(0.0, tau_min=v), NOT_REAL + (0.0,)),
]


@pytest.mark.parametrize("build, name, value", [
    pytest.param(build, name, value, id=f"{where}-{name}-{value!r}")
    for where, name, build, values in SETTINGS for value in values])
def test_value_outside_domain_is_rejected_by_name(build, name, value):
    with pytest.raises(InvalidInputError) as info:
        build(value)
    assert str(info.value).startswith(f"{name} "), str(info.value)


@pytest.mark.parametrize("value", [1, np.int64(3), 2**70])
def test_check_int_returns_an_int(value):
    got = check_int("n", value, 1)
    assert got == value and type(got) is int


@pytest.mark.parametrize("value, low, closed", [(0.0, 0.0, True), (1e-300, 0.0, False),
                                                (3, -1.0, False), (-1.0, -1.0, True),
                                                (np.array(2.0), 0.0, False),
                                                (Decimal("0.5"), 0.0, False)])
def test_check_real_accepts_its_domain(value, low, closed):
    got = check_real("x", value, low, closed)
    assert got == value and type(got) is float


def test_messages():
    with pytest.raises(InvalidInputError, match=r"^n must be an integer, got 2\.5$"):
        check_int("n", 2.5, 1)
    with pytest.raises(InvalidInputError, match=r"^n must be in \[1, 3\], got 4$"):
        check_int("n", 4, 1, 3)
    with pytest.raises(InvalidInputError, match=r"^x must be finite and > -1, got -1\.0$"):
        check_real("x", -1.0, -1.0)
    with pytest.raises(InvalidInputError, match=r"^x must be finite and >= 0, got nan$"):
        check_real("x", math.nan, closed=True)
