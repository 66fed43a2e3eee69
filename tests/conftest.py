import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fluctlab import scaling
from fluctlab.config import parse_config
from fluctlab.models import GaussianProfile, RadialWeight, gaussian_state, product_ansatz_state
from fluctlab.ssb import Dispersion, GoldstoneModel
from fluctlab.window import make_profile

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def weighted_form(wc):
    """W = (1 + s)^(alpha/2) (1 + s)^(-power/2), s = sum |y_i|^2, of a
    ``models.WeightedCorrelator`` at the radii |y_i|, one array per
    variable: the position form that the position-space references of the
    heat-kernel path read."""
    def form(radii):
        u = 1.0 + sum(np.square(r) for r in radii)
        return u ** (wc.alpha / 2.0) * u ** (-wc.power / 2.0)

    return form


def traced_peak(fn) -> int:
    """The traced peak of a call of ``fn`` in bytes, less what the call
    leaves held: ``fn`` is called once to warm the lazy caches (rules,
    evaluators, support rules), then once under tracemalloc, its result
    dropped."""
    fn()
    tracemalloc.start()
    try:
        fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held


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
def model3():
    """The calibrated symmetry-breaking model at n = 3: gapless linear
    branch, singular rho_a ~ |k|^-2, conserved-density rho_q ~ |k| and a
    constant imaginary cross density (nonzero order parameter)."""
    return GoldstoneModel(dim=3, dispersion=Dispersion("linear", 1.0), rho_a=RadialWeight(1.0, -2.0),
                          rho_q=RadialWeight(0.5, 1.0), rho_qa_amplitude=0.25j, rho_qa_exponent=0.0)


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("window-cache")


class RecordingCache(dict):
    """A chain cache that records the key of every chain value it stores."""

    def __init__(self):
        super().__init__()
        self.chains = []

    def __setitem__(self, key, value):
        if key[0] == "chain":
            self.chains.append(key)
        super().__setitem__(key, value)


@pytest.fixture
def chain_cache(monkeypatch):
    """An empty chain cache in place of ``scaling._CHAIN_CACHE``, which
    ``scaling.clear_caches`` empties too."""
    cache = RecordingCache()
    monkeypatch.setattr(scaling, "_CHAIN_CACHE", cache)
    return cache


@pytest.fixture(scope="session")
def criterion_step():
    """The model and the one analysis (kind, params, cfg) of a criterion config
    of configs/, by its file stem."""
    def load(stem):
        config = parse_config((CONFIG_DIR / f"{stem}.json").read_text())
        [step] = config.steps
        return config.model, step
    return load
