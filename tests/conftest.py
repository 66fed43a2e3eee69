import numpy as np
import pytest

from fluctlab.models import GaussianProfile, gaussian_state, product_ansatz_state
from fluctlab.window import make_profile


@pytest.fixture(scope="session")
def profile1():
    return make_profile(1)


@pytest.fixture(scope="session")
def profile2():
    return make_profile(2)


@pytest.fixture(scope="session")
def profile3():
    return make_profile(3)


@pytest.fixture(scope="session")
def gaussian_state1():
    return gaussian_state(lambda k: np.exp(-np.asarray(k) ** 2 / 2.0), 1)


@pytest.fixture(scope="session")
def product_state1():
    g = GaussianProfile(1.0, 1.0, 1)
    return product_ansatz_state(
        {2: [g], 3: [g, GaussianProfile(0.8, 1.3, 1)], 4: [g, g, g]}, 1
    )


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("window-cache")
