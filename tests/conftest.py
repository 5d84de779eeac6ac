import numpy as np
import pytest
from hypothesis import settings

from thermal_sense.core import Dataset

# Every run draws the same examples, so two checkouts run identical tests.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def dataset_from_arrays(x, y):
    return Dataset(x, y)


def balanced_dataset(n_per_class, person_value=30.0, no_person_value=20.0):
    x = np.full((2 * n_per_class, 64), no_person_value)
    x[:n_per_class] = person_value
    y = np.array([1] * n_per_class + [0] * n_per_class)
    return dataset_from_arrays(x, y)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
