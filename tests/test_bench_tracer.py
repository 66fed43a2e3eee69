"""The benchmark's span tracer (perfbench/spans.py) still finds every name it wraps.

The tracer replaces package attributes by name, so renaming a traced function
would break ``perfbench/run.py --trace 1`` without failing any other test.
spans.py is loaded from its file and never modified.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from fluctlab import scaling
from fluctlab.config import parse_config
from fluctlab.models import GaussianProfile, product_ansatz_state
from fluctlab.quadrature import half_panel_rule

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    for name, owner, attr, _ in spans.TRACED:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            assert attr in vars(getattr(module, class_name)), name
        else:
            assert callable(getattr(module, attr, None)), name


def test_window_product_returns_an_array(profile1):
    # the tracer reads .size and .nbytes of what window_product returns
    kernel = scaling.window_product(profile1, half_panel_rule(10.0, 2, 4))
    assert isinstance(kernel, np.ndarray)
    assert kernel.size and kernel.nbytes


def test_traced_order3_correlator_counts_the_kernel(spans, product_state1, profile1):
    tracer = spans.Tracer()
    cfg = scaling.ScalingConfig()
    scaling.clear_caches()
    with tracer.active():
        scaling.qmode_correlator(product_state1, profile1, cfg, 3, None, 8.0)
        scaling.qmode_correlator(product_state1, profile1, cfg, 3, None, 16.0)
    layers = tracer.layer_metrics()
    assert layers["scaling.qmode_correlator_calls"] == 2
    assert layers["scaling.window_product_calls"] == 2
    assert layers["scaling.window_product_hits"] == 1
    assert layers["scaling.window_product_bytes"] > 0


def test_traced_radial_chain_counts_the_kernel(spans, profile2):
    # n = 2 order 3 takes the radial chain: one 480 x 480 kernel on the
    # half-line default rule, built at the first radius and hit at the second
    g = GaussianProfile(1.0, 1.0, 2)
    state = product_ansatz_state({3: [g, GaussianProfile(0.8, 1.3, 2)]}, 2)
    tracer = spans.Tracer()
    cfg = scaling.ScalingConfig()
    scaling.clear_caches()
    with tracer.active():
        scaling.qmode_correlator(state, profile2, cfg, 3, None, 8.0)
        scaling.qmode_correlator(state, profile2, cfg, 3, None, 16.0)
    layers = tracer.layer_metrics()
    assert layers["scaling.window_product_calls"] == 2
    assert layers["scaling.window_product_hits"] == 1
    assert layers["scaling.window_product_bytes"] == 480 ** 2 * 8


def test_traced_order3_oracle_evaluates_half_the_rows(spans, product_state1, profile1):
    # the window is evaluated on the rows of the positive z nodes, 300 of the
    # oracle rule's 600, times the 384 u nodes, plus the row f(|u|); the
    # second radius reads the cached overlap and evaluates no window
    tracer = spans.Tracer()
    cfg = scaling.ScalingConfig()
    scaling.clear_caches()
    with tracer.active():
        scaling.position_space_correlator(product_state1, profile1, cfg, 3, 8.0, 0.5)
        scaling.position_space_correlator(product_state1, profile1, cfg, 3, 16.0, 0.5)
    layers = tracer.layer_metrics()
    assert layers["window.value_points"] == 300 * 384 + 384
    assert layers["scaling.window_overlap_1d_calls"] == 2
    assert layers["scaling.window_overlap_1d_hits"] == 1


def test_traced_sweep_resolves_once(spans, product_state1, profile1):
    # a sweep maps its resolved correlator over the grid without the
    # one-radius calls: their spans count only calls such as oracle rows,
    # and scaling.exponent_sweep carries the sweep's time
    cfg = scaling.ScalingConfig(r_values=tuple(float(r) for r in np.geomspace(8.0, 512.0, 6)))
    weighted = parse_config(json.dumps({
        "model": {"class": "weighted", "dim": 1, "orders": [
            {"order": 2, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 2.0}}]}})).model
    tracer = spans.Tracer()
    scaling.clear_caches()
    with tracer.active():
        scaling.exponent_sweep(product_state1, profile1, cfg, 3)
        scaling.exponent_sweep(weighted, profile1, cfg, 2, alpha=0.75)
    layers = tracer.layer_metrics()
    assert layers["scaling.exponent_sweep_calls"] == 2
    assert layers["scaling.build_report_calls"] == 2
    for name in ("qmode_correlator", "weighted_correlator", "position_space_correlator"):
        assert layers[f"scaling.{name}_calls"] == 0, name
    # one kernel read per chain step per block of radii: the six radii of
    # order 3 are one block of one step, which builds the kernel
    assert layers["scaling.window_product_calls"] == 1
    assert layers["scaling.window_product_hits"] == 0
    # the weighted sweep reads its heat-kernel table, no folded overlap
    assert layers["scaling.window_overlap_1d_calls"] == 0
    assert layers["scaling.exponent_sweep_s"] >= layers["scaling.window_product_s"] > 0.0
    scaling.clear_caches()
