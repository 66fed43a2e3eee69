import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from functools import reduce
from itertools import product
from math import ceil, pi
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctlab import limit_algebra, runner, scaling, ssb, window
from fluctlab.config import parse_config

from fluctlab.errors import (
    InvalidArgumentError,
    NumericalAccuracyError,
    OrderRangeError,
    UnsupportedModeError,
)
from fluctlab.models import (
    GaussianProfile,
    TruncatedHierarchy,
    WeightedCorrelator,
    gaussian_state,
    powerlaw_state,
    product_ansatz_state,
    weighted_state,
)
from fluctlab.scaling import (
    Rule1D,
    ScalingConfig,
    check_order,
    exponent_sweep,
    find_critical_alpha,
    fit_loglog,
    l2_alpha_window,
    l2_vanishing_threshold,
    pair_tail_bound,
    position_space_correlator,
    qmode_correlator,
    oracle_z_rule,
    radial_chain,
    weighted_correlator,
    weighted_gamma,
    window_overlap_1d,
    window_product,
)
from fluctlab.quadrature import gauss_legendre_panels, half_panel_rule, legendre_rule, panel_rule
from fluctlab.report import plain
from fluctlab.window import unit_sphere_area

from conftest import traced_peak, weighted_form


def _mirrored(rule):
    """Nodes and weights of the rule on [-p_max, p_max] whose positive half is the half-line rule."""
    return (np.concatenate([-rule.nodes[::-1], rule.nodes]),
            np.concatenate([rule.weights[::-1], rule.weights]))


def _symmetric_rule(p_max, panels, nodes, graded_levels=0):
    """The mirrored half-line rule as a Rule1D on [-p_max, p_max]."""
    half = half_panel_rule(p_max, panels, nodes, graded_levels)
    return Rule1D(*_mirrored(half), half.p_max, ("mirrored",) + half.key)


class TestSpectralPath:
    def test_zero_state_gives_zero(self, profile1):
        state = gaussian_state(lambda k: np.zeros_like(np.asarray(k, dtype=float)), 1)
        cfg = ScalingConfig()
        for radius in (4.0, 64.0):
            assert qmode_correlator(state, profile1, cfg, 2, None, radius) == 0

    def test_oracle_equivalence_small_radius(self, product_state1, profile1):
        cfg = ScalingConfig()
        for order in (2, 3):
            for radius in (2.0, 8.0):
                spectral = qmode_correlator(product_state1, profile1, cfg, order, None, radius, alpha=0.5)
                oracle = position_space_correlator(product_state1, profile1, cfg, order, radius, 0.5)
                assert abs(spectral - oracle) <= 1e-6 * abs(oracle)

    def test_oracle_rows_read_the_chain_cache(self, profile1, chain_blocks, criterion_step):
        # criterion 04: every spectral value of the oracle table is the value
        # of the sweep before it at that radius, to the bit, and equals the
        # one-radius call; the chain blocks are those of the two sweeps alone
        model, (kind, params, cfg) = criterion_step("criterion_04_oracle")
        result = runner.ANALYSES[kind].handler(params, cfg, model, profile1)
        rows = result["oracle_check"]["rows"]
        assert [(row["order"], row["radius"]) for row in rows] == [
            (order, radius) for order in (2, 3) for radius in (2.0, 4.0, 8.0)]
        grid, block = list(cfg.r_values), scaling.CHAIN_BLOCK
        assert chain_blocks == [grid[:block], grid[block:]] * 2
        for row in rows:
            rep = result["sweeps"][row["order"] - 2]
            swept = rep.values[rep.r_values.index(row["radius"])]
            value = qmode_correlator(model, profile1, cfg, row["order"], None, row["radius"])
            assert (value.real, value.imag) == (swept.real, swept.imag) == (
                row["spectral"].real, row["spectral"].imag), row

    def test_qmode_zero_offsets_match_radial_chain(self, gaussian_state1, profile1):
        # zero offsets replace fhat phi_1 by its mean over S^0, the two points +-1
        cfg = ScalingConfig()
        for radius in np.geomspace(1.0, 8192.0, 60):
            a = qmode_correlator(gaussian_state1, profile1, cfg, 2, None, radius)
            b = qmode_correlator(gaussian_state1, profile1, cfg, 2, np.zeros((2, 1)), radius)
            assert abs(a - b) <= 1e-15 * abs(b), radius

    @pytest.mark.parametrize("dim", [2, 3])
    def test_qmode_zero_offsets_match_radial_chain_on_the_angle_rule(self, profile2, profile3, dim):
        # at n = 2, 3 the mean runs over the angle rule, whose weights sum to
        # 1 and whose points lie at radius r to rounding
        state = gaussian_state(lambda r: np.exp(-np.asarray(r) ** 2 / 2.0), dim)
        profile = profile2 if dim == 2 else profile3
        cfg = ScalingConfig(eps_vanish=1e-3)
        for radius in np.geomspace(1.0, 8192.0, 8):
            a = qmode_correlator(state, profile, cfg, 2, None, radius)
            b = qmode_correlator(state, profile, cfg, 2, np.zeros((2, dim)), radius)
            assert abs(a - b) <= 1e-14 * abs(b), radius

    def test_quadrature_convergence_estimate(self, gaussian_state1, profile1, monkeypatch):
        # doubling the panels moves the value by less than the doubling before
        values = []
        for panels in (24, 48, 96):
            monkeypatch.setattr(scaling, "DEFAULT_QUAD", (120.0, panels, 10, 0))
            values.append(qmode_correlator(gaussian_state1, profile1, ScalingConfig(), 2, None, 16.0))
        assert abs(values[2] - values[1]) <= abs(values[1] - values[0]) + 1e-14

    def test_order_guards(self, gaussian_state1, profile1):
        with pytest.raises(OrderRangeError):
            qmode_correlator(gaussian_state1, profile1, ScalingConfig(), 9, None, 8.0)

    @pytest.mark.parametrize("slot", [(0, 1), (1, 1), (2, 0), (3, 1)])
    def test_offsets_outside_the_first_axis_pair_raise(self, profile2, slot):
        # the chain moves a e and b e on the first two observables into its
        # first vector; no caller sets any other offset
        state = _product_state(2, [4])
        offsets = np.zeros((4, 2))
        offsets[0, 0], offsets[1, 0] = 0.5, -0.5
        offsets[slot] = 0.1
        with pytest.raises(InvalidArgumentError, match="offsets"):
            qmode_correlator(state, profile2, ScalingConfig(), 4, offsets, 8.0)
        with pytest.raises(InvalidArgumentError, match="shape"):
            qmode_correlator(state, profile2, ScalingConfig(), 4, np.zeros((3, 2)), 8.0)

    def test_tail_certificate(self, gaussian_state1, profile1):
        # the n = 1 certificate of the chain's rule is 8.86e-10
        cfg = ScalingConfig(eps_vanish=1e-9)
        with pytest.raises(NumericalAccuracyError) as err:
            qmode_correlator(gaussian_state1, profile1, cfg, 2, None, 8.0)
        assert err.value.bound is not None
        assert err.value.bound > cfg.eps_vanish / 10.0

    def test_pair_tail_bound_decreases(self, profile1):
        assert pair_tail_bound(profile1, 30.0) > pair_tail_bound(profile1, 60.0) > pair_tail_bound(profile1, 120.0)

    def test_pair_tail_bound_counts_the_term_beyond_the_table_per_side(self, profile1):
        # fhat(K_MAX)^2 enters once per side whether or not p_max leaves a
        # trapezoid sum, so the bound does not grow as p_max crosses K_MAX
        bounds = [pair_tail_bound(profile1, p_max) for p_max in (639.99, 640.0, 700.0)]
        assert bounds[0] >= bounds[1] >= bounds[2] > 0.0
        assert bounds[1] == bounds[2] == 2.0 * profile1.fhat_samples[-1] ** 2

    def test_pair_tail_bound_equals_the_masked_sum(self, profile1):
        # the slice above p_max holds the samples k > p_max picks out, in the
        # same order: the same bits at 0, on a node, between nodes, at K_MAX
        # and beyond it, where the sum is empty
        ks, f2 = window.K_GRID, profile1.fhat_samples ** 2
        for p_max in (0.0, ks[3000], ks[3000] + 0.4 * ks[1], ks[-1], 700.0):
            mask = ks > p_max
            masked = 2.0 * np.trapezoid(f2[mask], ks[mask]) + 2.0 * f2[-1]
            assert float(pair_tail_bound(profile1, p_max)).hex() == float(masked).hex(), p_max

    def test_tail_certificate_computed_once_per_sweep(self, product_state1, profile1, monkeypatch):
        calls = []

        def counting(profile, p_max):
            calls.append(p_max)
            return pair_tail_bound(profile, p_max)

        monkeypatch.setattr(scaling, "pair_tail_bound", counting)
        scaling.clear_caches()
        cfg = ScalingConfig(r_values=tuple(float(r) for r in np.geomspace(8.0, 512.0, 7)))
        exponent_sweep(product_state1, profile1, cfg, 3)
        rule = half_panel_rule(*scaling.DEFAULT_QUAD)
        assert calls == [rule.p_max]
        assert cfg.validate_tail(profile1, rule) == pair_tail_bound(profile1, rule.p_max)
        scaling.clear_caches()
        cfg.validate_tail(profile1, rule)
        assert len(calls) == 2

    def test_unnormalized_growth_exponent(self, gaussian_state1, profile1):
        cfg = ScalingConfig()
        rep = exponent_sweep(gaussian_state1, profile1, cfg, 2, alpha=0.0)
        assert rep.exponent == pytest.approx(1.0, abs=0.1)
        assert rep.verdict == "diverging"


def _direct_overlap(profile, z_tuples, panels):
    """Overlap from its defining w-integral, f(|w+T_1|)...f(|w+T_{l-1}|) f(|w|), at each z tuple."""
    w, wt = gauss_legendre_panels(-window.GRID_EXTENT, window.GRID_EXTENT, panels, 12)
    out = []
    for zt in z_tuples:
        prod = profile.value(w) * wt
        for i in range(len(zt)):
            prod = prod * profile.value(w + np.sum(zt[i:]))
        out.append(np.sum(prod))
    return np.array(out)


def _folded_direct(profile, z_rule, idx, panels):
    """The folded overlap at rule indices idx, divided by its z weights:
    the direct overlap summed over the sign flips of every variable."""
    z = z_rule.nodes[idx]
    signs = product((1.0, -1.0), repeat=idx.shape[1])
    return sum(_direct_overlap(profile, z * np.array(s), panels) for s in signs)


def _rule_weights(z_rule, idx):
    return np.prod(z_rule.weights[idx], axis=1)


def _full_overlap(profile, order, z_rule):
    """The unfolded overlap g_l on the mirrored z rule, each row evaluated:
    the integral over u of f(|u + z_1|) f(|u|), times f(|u - z_2|) at l = 3."""
    u, wt = gauss_legendre_panels(-window.GRID_EXTENT, window.GRID_EXTENT, 32, 12)
    z, _ = _mirrored(z_rule)
    ac = profile.value(u + z[:, None]) * (profile.value(u) * wt)
    return ac.sum(axis=1) if order == 2 else ac @ profile.value(u - z[:, None]).T


def _full_grid_correlator(state, profile, order, radius, alpha, z_rule):
    """The position-space value as a sum over the whole mirrored z grid, W complex."""
    g = _full_overlap(profile, order, z_rule)
    z, w = _mirrored(z_rule)
    wt = reduce(np.multiply.outer, [w] * (order - 1))
    y = radius * np.abs(z)
    radii = (y,) if order == 2 else (y[:, None], y)
    wvals = np.asarray(state.position_form(order)(radii), dtype=complex)
    return radius ** (order * (1.0 - alpha)) * complex(np.sum(wt * g * wvals))


def _weighted_z_rule(order):
    """The difference-variable rule of the weighted orders' position path,
    graded down to ~1e-4 of the box, which the heat-kernel tables are
    checked against; a leaner per-axis rule at order 3."""
    return half_panel_rule(2.0 * window.GRID_EXTENT, *((24, 10, 14) if order == 2 else (14, 8, 14)))


_Z_RULES = {
    "oracle": oracle_z_rule,
    "weighted-order-2": lambda: _weighted_z_rule(2),
    "weighted-order-3": lambda: _weighted_z_rule(3),
}


def _weighted_state():
    factor = {"form": "bessel-power", "power": 2.0}
    return parse_config(json.dumps({
        "model": {"class": "weighted", "dim": 1, "orders": [
            {"order": 2, "alpha": 0.5, "factor": factor},
            {"order": 3, "alpha": 1.25, "factor": factor}]}})).model


def _position_state(state):
    """A weighted state's orders as position forms (``conftest.weighted_form``),
    which the position path reads."""
    return TruncatedHierarchy(dim=state.dim, max_order=state.max_order, factors={}, tags=state.tags,
                              position_forms={o: weighted_form(wc) for o, wc in state.weighted_orders.items()})


def _weighted_position_value(state, profile, order, radius, gamma):
    """The position-space value of a weighted order on its z rule: the
    folded overlap summed against W, the path the weighted orders ran on
    before their heat-kernel tables, up to its u-rule error."""
    return position_space_correlator(_position_state(state), profile, ScalingConfig(), order, radius,
                                     gamma, z_rule=_weighted_z_rule(order))


def _no_rows(profile, z_rule):
    raise AssertionError("the folded rows were evaluated for an overlap over the budget")


class TestPositionOverlap:
    """The separated, folded overlap equals the w-integral it replaces."""

    @pytest.mark.parametrize("rule_name", sorted(_Z_RULES))
    @pytest.mark.parametrize("order", [2, 3])
    def test_matches_direct_quadrature(self, profile1, rule_name, order):
        z_rule = _Z_RULES[rule_name]()
        g = window_overlap_1d(profile1, order, z_rule)
        size = len(z_rule)
        assert g.shape == (size,) * (order - 1)
        rng = np.random.default_rng(order)
        # 400 direct overlaps: each sample sums 2**(order - 1) of them
        idx = rng.integers(0, size, size=(400 // 2 ** (order - 1), order - 1))
        got = g[tuple(idx.T)] / _rule_weights(z_rule, idx)
        dense = _folded_direct(profile1, z_rule, idx, panels=1024)
        assert np.max(np.abs(got - dense)) <= 2 ** (order - 1) * 5e-7
        if order == 2:
            # u = w at order 2: same nodes as the direct 32-panel rule
            same_rule = _folded_direct(profile1, z_rule, idx, panels=32)
            assert np.max(np.abs(got - same_rule)) <= 1e-14

    def test_over_budget_rule_raises_before_the_build(self, profile1, tmp_path, monkeypatch):
        # an order-3 overlap of 12**2 points under a budget of one point less
        # raises before any row is evaluated, and neither memory nor the window
        # cache keeps anything; the order-2 overlap of 12 points builds, and
        # so does the order-3 one once the budget holds it
        rule = half_panel_rule(5.0, 4, 3)
        monkeypatch.setattr(scaling, "MAX_ARRAY_POINTS", len(rule) ** 2 - 1)
        rows = scaling._folded_rows
        monkeypatch.setattr(scaling, "_folded_rows", _no_rows)
        scaling.clear_caches()
        profile = replace(profile1, cache_dir=tmp_path)
        with pytest.raises(NumericalAccuracyError, match="position-space array"):
            window_overlap_1d(profile, 3, rule)
        assert not scaling._CHAIN_CACHE and not list(tmp_path.iterdir())
        monkeypatch.setattr(scaling, "_folded_rows", rows)
        assert window_overlap_1d(profile, 2, rule).shape == (len(rule),)
        monkeypatch.setattr(scaling, "MAX_ARRAY_POINTS", len(rule) ** 2)
        assert window_overlap_1d(profile, 3, rule).shape == (len(rule),) * 2
        assert len(list(tmp_path.iterdir())) == 2
        scaling.clear_caches()

    def test_cold_run_folds_the_rows_once(self, criterion_step, profile1, chain_blocks, monkeypatch):
        # criterion_04 with no window cache: orders 2 and 3 share one build
        # of the folded rows, 300 x 384 points, and each reads the 384 of
        # f(|u|); building the rows per order reads 231,168 points
        points, folds = [], []
        value, rows = window.WindowProfile.value, scaling._folded_rows

        def counted_value(profile, s):
            out = value(profile, s)
            points.append(out.size)
            return out

        def counted_rows(profile, z_rule):
            folds.append(z_rule.key)
            return rows(profile, z_rule)

        monkeypatch.setattr(window.WindowProfile, "value", counted_value)
        monkeypatch.setattr(scaling, "_folded_rows", counted_rows)
        model, (kind, params, cfg) = criterion_step("criterion_04_oracle")
        runner.ANALYSES[kind].handler(params, cfg, model, profile1)
        size, width = len(oracle_z_rule()), len(panel_rule(*scaling.U_RULE)[0])
        assert folds == [oracle_z_rule().key]
        assert sum(points) == size * width + 2 * width == 115_968
        assert len(points) == ceil(size / scaling.FOLD_ROW_BLOCK) + 2

    def test_order_3_build_peak_memory(self, profile1, chain_blocks):
        # the rows are evaluated FOLD_ROW_BLOCK at a time: 3.20 MiB with G;
        # one call on the whole 300 x 384 grid takes 5.15 MiB
        def build():
            scaling._folded_overlap(profile1, 3, oracle_z_rule())
            scaling.clear_caches()

        assert traced_peak(build) <= 3.5 * 2 ** 20

    def test_clear_caches_empties_every_module_dict(self, criterion_step, profile1):
        # the oracle keeps its overlaps and the weighted orders their
        # heat-kernel tables in the one chain cache beside the kernels;
        # clearing it leaves no dict that scaling itself holds non-empty
        scaling.clear_caches()
        for stem in ("criterion_04_oracle", "criterion_09a_weighted_boundary"):
            model, (kind, params, cfg) = criterion_step(stem)
            runner.ANALYSES[kind].handler(params, cfg, model, profile1)
        kinds = Counter(key[0] for key in scaling._CHAIN_CACHE)
        assert kinds["overlap"] == 2 and kinds["heat"] == 2 and kinds["kernel"]
        scaling.clear_caches()
        held = [name for name, value in vars(scaling).items()
                if isinstance(value, dict) and value and not name.startswith("__")
                and value is not getattr(window, name, None)]
        assert held == []

    def test_orders_beyond_three_raise(self, profile1, product_state1):
        # the position path, the oracle, runs orders 2 and 3
        cfg = ScalingConfig()
        scaling.clear_caches()
        for order in (1, 4, 5):
            with pytest.raises(OrderRangeError, match="2..3"):
                window_overlap_1d(profile1, order, oracle_z_rule())
            with pytest.raises(OrderRangeError, match="2..3"):
                position_space_correlator(product_state1, profile1, cfg, order, 8.0, 0.5)
        assert not scaling._CHAIN_CACHE


class TestPositionFold:
    """The half-rule position path against the full-grid sum it replaces."""

    @pytest.mark.parametrize("rule_name", sorted(_Z_RULES))
    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("model", ["product-ansatz", "bessel-power"])
    def test_folded_equals_full_grid_sum(self, profile1, product_state1, rule_name, order, model):
        state = product_state1 if model == "product-ansatz" else _position_state(_weighted_state())
        z_rule = _Z_RULES[rule_name]()
        cfg = ScalingConfig()
        for radius in (2.0, 64.0, 2048.0):
            folded = position_space_correlator(state, profile1, cfg, order, radius, 0.5, z_rule=z_rule)
            full = _full_grid_correlator(state, profile1, order, radius, 0.5, z_rule)
            assert abs(folded - full) <= 1e-14 * abs(full), radius

    @pytest.mark.parametrize("rule_name", sorted(_Z_RULES))
    def test_row_identities_are_bitwise(self, profile1, rule_name):
        # the u rule is mirrored to the bit, so on the mirrored z rule the row
        # of -z is the row of z reversed, and so are the order-3 rows f(|u - z|);
        # the folded rows, evaluated FOLD_ROW_BLOCK z rows at a time, equal
        # those of one call on the whole grid, bit for bit
        z_rule = _Z_RULES[rule_name]()
        u, _ = panel_rule(*scaling.U_RULE)
        z, _ = _mirrored(z_rule)
        a = profile1.value(u + z[:, None])
        assert np.array_equal(a[::-1], a[:, ::-1])
        assert np.array_equal(profile1.value(u - z[:, None]), a[:, ::-1])
        size = len(z_rule)
        assert np.array_equal(scaling._folded_rows(profile1, z_rule), a[size:] + a[size - 1::-1])

    def test_u_rule_is_the_box_rule(self):
        # built as the mirror of its positive half, it equals the 32-panel rule bit for bit
        u, wt = panel_rule(*scaling.U_RULE)
        box, box_wt = gauss_legendre_panels(-window.GRID_EXTENT, window.GRID_EXTENT, 32, 12)
        assert np.array_equal(u, box) and np.array_equal(wt, box_wt)

    def test_rules_are_built_once_and_read_only(self):
        for make in _Z_RULES.values():
            rule = make()
            assert make() is rule
            assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        u, wt = panel_rule(*scaling.U_RULE)
        assert panel_rule(*scaling.U_RULE)[0] is u
        assert not u.flags.writeable and not wt.flags.writeable

    @pytest.mark.parametrize("make", [*_Z_RULES.values(), lambda: half_panel_rule(*scaling.DEFAULT_QUAD),
                                      lambda: half_panel_rule(120.0, 48, 10, 16)],
                             ids=[*_Z_RULES, "default", "graded"])
    def test_rules_lie_on_the_half_line(self, make):
        rule = make()
        assert np.all((rule.nodes > 0) & (rule.nodes < rule.p_max)) and np.all(np.diff(rule.nodes) > 0)
        assert np.sum(rule.weights) == pytest.approx(rule.p_max, rel=1e-14)

    @pytest.mark.parametrize("model", [
        {"class": "product-ansatz", "orders": {"2": [{"amplitude": 1.0, "width": 1.0}],
                                               "3": [{"amplitude": 1.0, "width": 1.0},
                                                     {"amplitude": 0.8, "width": 1.3}]}},
        {"class": "powerlaw", "beta": 0.75},
        {"class": "weighted", "orders": [
            {"order": 2, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 1.0}},
            {"order": 3, "alpha": 1.25, "factor": {"form": "bessel-power", "power": 2.0}}]},
    ], ids=["product-ansatz", "powerlaw", "weighted-bessel-power"])
    def test_position_forms_are_even_in_each_variable(self, model):
        # the fold rests on W(..., -y_i, ...) == W(..., y_i, ...): every form
        # reads the radii |y_i|, and there it equals W written in the signed
        # variables, at y and with any one sign flipped, bit for bit
        state = parse_config(json.dumps({"model": {**model, "dim": 1}})).model
        if not state.position_forms:
            state = _position_state(state)
        orders = sorted(state.position_forms)
        assert orders
        rng = np.random.default_rng(7)
        for order in orders:
            y = rng.standard_normal((256, order - 1)) * np.geomspace(1e-3, 1e3, 256)[:, None]
            form = state.position_form(order)(tuple(np.abs(y).T))
            for i in range(-1, order - 1):
                flipped = y.copy()
                if i >= 0:
                    flipped[:, i] = -flipped[:, i]
                assert np.array_equal(form, _signed_form(model, order, flipped.T)), (order, i)


def _signed_form(model, order, ys):
    """W_l of a configured model at signed difference variables ys, one array per variable."""
    if model["class"] == "product-ansatz":
        profs = [{"amplitude": 1.0, "width": 1.0, **p} for p in model["orders"][str(order)]]
        return reduce(np.multiply, [p["amplitude"] * np.exp(-y ** 2 / (2.0 * p["width"] ** 2))
                                    for p, y in zip(profs, ys)])
    if model["class"] == "powerlaw":
        return (1.0 + ys[0] ** 2) ** (-model["beta"] / 2.0)
    spec = next(o for o in model["orders"] if o["order"] == order)
    squares = 0.0
    for y in ys:
        squares = squares + y ** 2
    return (1.0 + squares) ** (spec["alpha"] / 2.0) * (1.0 + squares) ** (-spec["factor"]["power"] / 2.0)


class TestLegendreRuleCache:
    def test_sweep_builds_each_node_count_once(self, product_state1, profile1, monkeypatch):
        calls = Counter()
        leggauss = np.polynomial.legendre.leggauss

        def counting(nodes):
            calls[nodes] += 1
            return leggauss(nodes)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        legendre_rule.cache_clear()
        half_panel_rule.cache_clear()
        cfg = ScalingConfig()
        for order in (2, 3):
            exponent_sweep(product_state1, profile1, cfg, order)
        assert calls and max(calls.values()) == 1

    def test_chain_rule_returns_the_cached_rule(self):
        # the chain's rule and its 16-level graded form for a singular density
        # are each the very object half_panel_rule returns for the same
        # geometry, whose key names the cache files of the kernels and tables
        graded = half_panel_rule(120.0, 48, 10, 16)
        assert scaling.chain_rule() is half_panel_rule(*scaling.DEFAULT_QUAD)
        assert scaling.chain_rule().key == (120.0, 48, 10, 0)
        assert scaling.chain_rule(singular=True) is graded
        assert check_order(powerlaw_state(0.75, 1), ScalingConfig(), 2) is graded
        # every order and every n, offsets or not, runs on the one rule
        for dim in (1, 2, 3):
            for qmode in (False, True):
                assert check_order(_product_state(dim, [2, 3]), ScalingConfig(), 3, qmode) is scaling.chain_rule()

    def test_cached_nodes_read_only(self):
        x, w = legendre_rule(12)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


#: the rules of the chain kernels on disk: the default one (480 nodes) and
#: its graded form (640 nodes), which singular densities run on
KERNEL_RULES = {"default": scaling.DEFAULT_QUAD, "graded": scaling.DEFAULT_QUAD[:3] + (16,)}


def _whole_basis_kernel(n, rule, plateau_panels, edge_panels):
    """K = B diag(f s^(n-1) w) B^T as one product of the whole N x M basis B,
    on a support rule of 16-node panels, plateau_panels on [0, a] and
    edge_panels on the edge [a, b]."""
    a, b = window.EDGE
    s, w = map(np.concatenate, zip(gauss_legendre_panels(0.0, a, plateau_panels, 16),
                                   gauss_legendre_panels(a, b, edge_panels, 16)))
    f = window._profile_evaluator()(s)
    basis = window.PLANE_WAVE_MEAN[n](np.multiply.outer(rule.nodes, s))
    basis *= np.sqrt((2.0 * np.pi) ** (-n / 2.0) * unit_sphere_area(n) ** 2 * f * s ** (n - 1) * w)
    return basis @ basis.T


def _refined_kernel(n, rule):
    """The kernel on 40 panels on [0, a] and 200 on the edge, far finer than ``window.support_rule``'s."""
    return _whole_basis_kernel(n, rule, 40, 200)


def _one_cycle_kernel(n, rule):
    """The kernel on one panel per cycle of the frequency 2 p_max on the
    plateau as on the edge: the build before column blocks and two-cycle
    plateau panels."""
    a, b = window.EDGE
    frequency = 2.0 * rule.p_max
    return _whole_basis_kernel(n, rule, ceil(frequency * a / (2.0 * pi)),
                               max(ceil(frequency * (b - a) / (2.0 * pi)), window.SUPPORT_EDGE_PANELS))


def _whole_block_kernel(n, rule):
    """The kernel summed as K += B_j B_j^T over the whole N x KERNEL_BLOCK
    column blocks of ``window.support_rule``: the build before row slabs."""
    s, w, f = window.support_rule(2.0 * rule.p_max)
    scale = np.sqrt((2.0 * pi) ** (-n / 2.0) * unit_sphere_area(n) ** 2 * f * s ** (n - 1) * w)
    kernel = np.zeros((len(rule),) * 2)
    for j in range(0, len(s), scaling.KERNEL_BLOCK):
        block = window.PLANE_WAVE_MEAN[n](np.multiply.outer(rule.nodes, s[j:j + scaling.KERNEL_BLOCK]))
        block *= scale[j:j + scaling.KERNEL_BLOCK]
        kernel += block @ block.T
    return kernel


def _no_kernel_build(frequency):
    raise AssertionError("a chain kernel was built where the window cache holds it")


class TestKernelCache:
    """The chain kernel and the folded overlap kept in the window cache equal
    the arrays built in memory."""

    @pytest.mark.parametrize("rule_name", sorted(KERNEL_RULES))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_disk_kernel_equals_fresh_build(self, profile1, profile2, profile3, dim, rule_name,
                                            tmp_path, monkeypatch):
        profile = (profile1, profile2, profile3)[dim - 1]
        rule = half_panel_rule(*KERNEL_RULES[rule_name])
        scaling.clear_caches()
        fresh = window_product(profile, rule)
        assert not list(tmp_path.iterdir())
        scaling.clear_caches()
        cold = window_product(replace(profile, cache_dir=tmp_path), rule)
        [path] = tmp_path.iterdir()
        key = "_".join(map(str, KERNEL_RULES[rule_name]))
        assert path.name == f"chain_n{dim}_p{key}_v{window.CACHE_FORMAT_VERSION}.npy"
        assert path.stat().st_size == 128 + 8 * len(rule) ** 2
        scaling.clear_caches()
        monkeypatch.setattr(scaling, "support_rule", _no_kernel_build)
        warm = window_product(replace(profile, cache_dir=tmp_path), rule)
        assert warm.shape == (len(rule), len(rule))
        assert np.array_equal(cold, fresh) and np.array_equal(warm, fresh)
        scaling.clear_caches()

    def test_kernel_file_of_the_old_format_is_never_read(self, profile1, tmp_path):
        # a kernel under the name of format 10, the one-product build on
        # one-cycle panels, stays as it is beside the current-format file built
        rule = half_panel_rule(16.0, 8, 10)
        stale = tmp_path / "chain_n1_p16.0_8_10_0_v10.npy"
        old = _one_cycle_kernel(1, rule)
        np.save(stale, old)
        scaling.clear_caches()
        fresh = window_product(profile1, rule)
        assert not np.array_equal(fresh, old)
        scaling.clear_caches()
        cold = window_product(replace(profile1, cache_dir=tmp_path), rule)
        assert np.array_equal(cold, fresh)
        current = f"chain_n1_p16.0_8_10_0_v{window.CACHE_FORMAT_VERSION}.npy"
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, current]
        assert np.array_equal(np.load(stale), old)
        scaling.clear_caches()

    def test_kernels_are_read_only(self, profile2, tmp_path):
        rule = half_panel_rule(*scaling.DEFAULT_QUAD)
        for profile in (profile2, replace(profile2, cache_dir=tmp_path), replace(profile2, cache_dir=tmp_path)):
            scaling.clear_caches()  # built, built and written, read
            kernel = window_product(profile, rule)
            with pytest.raises(ValueError):
                kernel[0, 0] = 0.0
        scaling.clear_caches()

    def test_damaged_kernel_file_is_rebuilt(self, profile1, tmp_path):
        # every kind of array kept beside the table, the chain kernel and the
        # order-3 folded overlap, is rebuilt bit-equal and rewritten from a
        # truncated file, one of the wrong shape and one of the wrong dtype
        builds = {
            "kernel": lambda profile: window_product(profile, half_panel_rule(16.0, 8, 10)),
            "overlap": lambda profile: window_overlap_1d(profile, 3, half_panel_rule(5.0, 4, 6)),
        }
        for kind, build in builds.items():
            cache = tmp_path / kind
            cache.mkdir()
            profile = replace(profile1, cache_dir=cache)
            scaling.clear_caches()
            fresh = build(profile)
            [path] = cache.iterdir()
            table = path.read_bytes()
            damage = {
                "truncated": lambda: path.write_bytes(table[:-8]),
                "shape": lambda: np.save(path, fresh[:-1]),
                "dtype": lambda: np.save(path, fresh.astype(np.float32)),
            }
            for name, write in damage.items():
                write()
                scaling.clear_caches()
                again = build(profile)
                assert np.array_equal(again, fresh), (kind, name)
                assert path.read_bytes() == table, (kind, name)
            assert [p.name for p in cache.iterdir()] == [path.name], kind
        scaling.clear_caches()

    def test_overlap_file_names_every_rule_field(self, profile1, tmp_path):
        # z rules one field of Rule1D.key apart write one overlap file each,
        # and each file reads back as its own rule's overlap built in memory
        base = (5.0, 4, 6, 1)
        rules = [half_panel_rule(*base)] + [
            half_panel_rule(*base[:i], base[i] + 1, *base[i + 1:]) for i in range(len(base))]
        assert len({rule.key for rule in rules}) == len(rules)
        profile = replace(profile1, cache_dir=tmp_path)
        for rule in rules:
            scaling.clear_caches()
            window_overlap_1d(profile, 3, rule)
        assert len(list(tmp_path.glob("overlap_n1_o3_*.npy"))) == len(rules)
        for rule in rules:
            scaling.clear_caches()
            warm = window_overlap_1d(profile, 3, rule)
            scaling.clear_caches()
            assert np.array_equal(warm, window_overlap_1d(profile1, 3, rule)), rule.key
        scaling.clear_caches()


class TestSupportRule:
    """The support rule of the chain kernel resolves the window's edge at every frequency."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("frequency", [8.0, 16.0, 32.0, 60.0, 120.0, 240.0])
    def test_radial_volume_within_one_ulp(self, dim, frequency):
        # sum w f s^(n-1) against a^n/n plus the edge on 200 panels
        a, b = window.EDGE
        s, w = gauss_legendre_panels(a, b, 200, 16)
        reference = a ** dim / dim + np.sum(w * window._profile_evaluator()(s) * s ** (dim - 1))
        s, w, f = window.support_rule(frequency)
        assert abs(np.sum(w * f * s ** (dim - 1)) - reference) <= np.spacing(reference)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_kernel_at_small_p_max_equals_refined_rule(self, dim):
        # at frequency 32 the cycles alone would give the edge 3 panels and
        # the kernel 6e-11 of max|K| off
        rule = half_panel_rule(16.0, 8, 10)
        kernel = scaling._radial_kernel(dim, rule)
        refined = _refined_kernel(dim, rule)
        assert np.max(np.abs(kernel - refined)) <= 1e-14 * np.max(np.abs(refined))


#: the rules of the blocked-kernel pin, with its tolerance relative to
#: max|K|: the two on disk, and one small and one large p_max, whose edges
#: take their panels from SUPPORT_EDGE_PANELS (frequency 32) and from the
#: cycles (frequency 480).  Both support rules integrate the plateau exactly
#: with exact nodes; with float64 nodes the phase r s is off by up to
#: r ulp(s), and at p_max 240 each rule misses the exact n = 1 plateau
#: integral by up to 3e-15 of a, the two in either direction
_PIN_RULES = {"default": (scaling.DEFAULT_QUAD, 3e-15), "graded": (KERNEL_RULES["graded"], 3e-15),
              "p16": ((16.0, 8, 10, 0), 3e-15), "p240": ((240.0, 16, 10, 0), 6e-15)}

#: prints the digest of each kernel of KERNEL_RULES at n = 1, 2, 3, of the
#: window table at n = 1, 2, 3 and of the order-3 heat-kernel table on the
#: graded rule at n = 1, 2, 3, one a line; every table is built in the process
_KERNEL_DIGESTS = (
    "import hashlib; from fluctlab import scaling; from fluctlab.quadrature import half_panel_rule; "
    "from fluctlab.window import make_profile; "
    f"rules = {sorted(KERNEL_RULES.values())!r}; graded = half_panel_rule(*{KERNEL_RULES['graded']!r}); "
    "digest = lambda array: hashlib.sha256(array.tobytes()).hexdigest(); "
    "profiles = {n: make_profile(n) for n in (1, 2, 3)}; "
    "print('\\n'.join([digest(scaling._radial_kernel(n, half_panel_rule(*key))) for key in rules for n in (1, 2, 3)] "
    "+ [digest(profiles[n].fhat_samples) for n in (1, 2, 3)] "
    "+ [digest(scaling._heat_table(profiles[n], 3, graded)) for n in (1, 2, 3)]))")


class TestBlockedKernel:
    """The chain kernel summed over column blocks on two-cycle plateau panels:
    the one-product build to rounding, in bounded memory, at any thread count."""

    @pytest.mark.parametrize("rule_name", sorted(_PIN_RULES))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_kernel_equals_one_cycle_build(self, dim, rule_name):
        key, tolerance = _PIN_RULES[rule_name]
        rule = half_panel_rule(*key)
        kernel = scaling._radial_kernel(dim, rule)
        reference = _one_cycle_kernel(dim, rule)
        assert np.array_equal(kernel, kernel.T)
        assert np.max(np.abs(kernel - reference)) <= tolerance * np.max(np.abs(reference))

    def test_support_rule_of_the_default_rule(self):
        # two cycles per plateau panel: 24 + 20 panels of 16 nodes, not 48 + 20
        assert len(window.support_rule(2.0 * scaling.DEFAULT_QUAD[0])[0]) == 704

    @pytest.mark.parametrize("dim", [1, 3])
    def test_build_holds_no_whole_basis(self, dim):
        # K, one N x 64 block and one 64 x N slab of its product at a time:
        # 1.27 N^2 doubles; a second N x N product buffer takes 2.27 N^2, and
        # the N x M basis (M = 704, 1.47 N^2) evaluated from its N x M
        # arguments would take 2.9 N^2 before K exists
        rule = half_panel_rule(*scaling.DEFAULT_QUAD)
        assert traced_peak(lambda: scaling._radial_kernel(dim, rule)) <= 1.6 * len(rule) ** 2 * 8

    @pytest.mark.parametrize("rule_name", sorted(KERNEL_RULES))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_slabs_equal_whole_block_products(self, dim, rule_name):
        rule = half_panel_rule(*KERNEL_RULES[rule_name])
        assert np.array_equal(scaling._radial_kernel(dim, rule), _whole_block_kernel(dim, rule))

    def test_kernel_bytes_do_not_depend_on_blas_threads(self):
        # each process builds its own window tables: at n = 1, 2, 3 the table
        # is a product of fixed row blocks (window.PHASE_ROW_BLOCK)
        src = str(Path(scaling.__file__).parent.parent)
        digests = [subprocess.run([sys.executable, "-c", _KERNEL_DIGESTS], capture_output=True,
                                  text=True, check=True, env={**os.environ, "PYTHONPATH": src,
                                                              "OPENBLAS_NUM_THREADS": threads}).stdout
                   for threads in ("1", "2")]
        assert len(digests[0].split()) == 12
        assert digests[0] == digests[1]


def _sphere_mean(profile, phi, radii, radius, a, b, n):
    """The mean over S^(n-1) of fhat(|p - c e|) phi(|p/R - b e|), c = R (a + b), at |p| = radii:
    the two points +-1 at n = 1, 1,024 Gauss-Legendre nodes in the angle at n = 2."""
    if n == 1:
        cos, sin, wt = np.array([1.0, -1.0]), np.zeros(2), np.full(2, 0.5)
    else:
        theta, wt = gauss_legendre_panels(0.0, np.pi, 64, 16)
        cos, sin, wt = np.cos(theta), np.sin(theta), wt / np.pi
    x, y = radii[:, None] * cos, radii[:, None] * sin
    c = radius * (a + b)
    e = profile.fourier_radial(np.sqrt((x - c) ** 2 + y ** 2))
    return (e * phi(np.sqrt((x / radius - b) ** 2 + (y / radius) ** 2))) @ wt


def _radial_tensor_sum(state, profile, order, radius, alpha, rule, a=0.0, b=0.0):
    """The radial chain's quadrature as one explicit sum over the (l-1)-dimensional grid of radii.

    |S^(n-1)| sum of E(r_1) m(r_1) K(r_1, r_2) phi_2(r_2/R) m(r_2) ... m(r_{l-1}) fhat(r_{l-1})
    with m = w r^(n-1), K the radial kernel of ``window_product``, which
    ``TestRadialChain`` pins on its own, and E the sphere mean of the first
    factor under offsets a e and b e (fhat phi_1 without).
    """
    n, dim = state.dim, order - 1
    fhat, measure = profile.fourier_radial(rule.nodes), rule.weights * rule.nodes ** (n - 1)
    kernel = window_product(profile, rule)

    def axis(values, k):
        shape = [1] * dim
        shape[k] = len(values)
        return values.reshape(shape)

    fns = state.order_factors(order)
    first = _sphere_mean(profile, fns[0], rule.nodes, radius, a, b, n)
    terms = axis(first, 0) * axis(fhat, dim - 1) * reduce(np.multiply.outer, [measure] * dim)
    for i in range(dim - 1):
        shape = [1] * dim
        shape[i:i + 2] = kernel.shape
        terms = terms * kernel.reshape(shape)
    for i in range(1, dim):
        terms = terms * axis(fns[i](rule.nodes / radius), i)
    pref = (2.0 * np.pi) ** (n * (2 - order) / 2.0) * radius ** (order * (n - alpha) - (order - 1) * n)
    scale = pref * unit_sphere_area(n)
    return scale * np.sum(terms), abs(scale) * np.sum(np.abs(terms))


# small rules, by dimension, keep the reference tensor at <= 12**4 radii
_SMALL_RULES = {1: half_panel_rule(12.0, 3, 4), 2: half_panel_rule(14.0, 3, 4)}


def _small_rule_correlator(state, profile, order, radius, alpha, offset=None):
    """The correlator of ``_correlator`` on the small rule of the dimension:
    the prefactor times the chain, with no tail certificate."""
    chain = radial_chain(profile, _SMALL_RULES[profile.dim], state.order_factors(order), (radius,), offset)
    return scaling._prefactor(order, profile.dim, radius, alpha) * complex(chain[0])


_gauss = st.builds(GaussianProfile, st.floats(0.2, 2.0), st.floats(0.4, 1.6))


class TestChainContraction:
    """The transfer-matrix chains equal the explicit tensor sums of the same quadratures."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]), radius=st.floats(1.0, 600.0),
           alpha=st.floats(0.0, 1.5))
    def test_chain_equals_tensor_sum(self, profile1, profile2, data, dim, radius, alpha):
        order = data.draw(st.integers(2, 5 if dim == 1 else 3), label="order")
        profiles = data.draw(st.lists(_gauss, min_size=order - 1, max_size=order - 1), label="profiles")
        # a unit phase per factor makes every vector of the chain complex, so
        # the stacked [Re; Im] rows of ``radial_chain`` carry both halves
        phases = data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=order - 1, max_size=order - 1),
                           label="phases")
        profiles = [GaussianProfile(g.amplitude, g.width, dim) for g in profiles]
        factors = tuple(lambda r, g=g, t=t: g.momentum(r) * np.exp(1j * t) for g, t in zip(profiles, phases))
        state = TruncatedHierarchy(dim=dim, max_order=order, factors={order: factors}, tags={})
        profile = profile1 if dim == 1 else profile2
        chain = _small_rule_correlator(state, profile, order, radius, alpha)
        rule = _SMALL_RULES[dim]
        reference, scale = _radial_tensor_sum(state, profile, order, radius, alpha, rule)
        assert abs(chain - reference) <= 1e-12 * scale
        # offsets a e and b e on the first two observables, the net shift
        # R (a + b) within a quarter of the rule: the sum takes the sphere mean
        # of the first factor from its own angle rule
        b, net = data.draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), label="offsets")
        a = net * rule.p_max / (4.0 * radius) - b
        offsets = np.zeros((order, dim))
        offsets[0, 0], offsets[1, 0] = a, b
        chain = _small_rule_correlator(state, profile, order, radius, alpha, (a, b))
        reference, scale = _radial_tensor_sum(state, profile, order, radius, alpha, rule, a, b)
        assert abs(chain - reference) <= 1e-12 * scale

    def test_rule_built_once_per_spec(self, gaussian_state1, profile1, monkeypatch):
        rules = []
        chain = scaling.radial_chain

        def recording(profile, rule, *args):
            rules.append(rule)
            return chain(profile, rule, *args)

        monkeypatch.setattr(scaling, "radial_chain", recording)
        cfg = ScalingConfig()
        qmode_correlator(gaussian_state1, profile1, cfg, 2, None, 8.0)
        qmode_correlator(gaussian_state1, profile1, cfg, 2, None, 64.0)
        assert len(rules) == 2 and rules[0] is rules[1]
        with pytest.raises(ValueError):
            rules[0].nodes[0] = 0.0
        with pytest.raises(ValueError):
            rules[0].weights[0] = 0.0



class TestSweepMachinery:
    def test_fit_recovers_pure_power(self):
        r = np.geomspace(8, 512, 8)
        vals = 3.2 * r ** (-0.5)
        exponent, rms, used, dropped = fit_loglog(r, vals)
        assert exponent == pytest.approx(-0.5, abs=1e-9)
        assert used == 8 and not dropped

    def test_fit_drops_transient(self):
        r = np.geomspace(8, 512, 8)
        vals = 2.0 * r ** (-1.0)
        vals[0] *= 8.0  # strong transient at the smallest scale
        exponent, _, used, dropped = fit_loglog(r, vals)
        assert dropped and used == 7
        assert exponent == pytest.approx(-1.0, abs=1e-9)

    def test_fit_below_floor(self):
        r = np.geomspace(8, 512, 8)
        exponent, _, used, _ = fit_loglog(r, np.zeros(8))
        assert exponent is None and used == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_non_finite_value_raises(self, bad):
        # the fit would mask it and read a sweep of such values as vanishing
        r = 8.0 * 2.0 ** np.arange(8)
        vals = (2.0 / r).astype(complex)
        vals[2] = bad
        with pytest.raises(NumericalAccuracyError, match="not finite at R = 32.0"):
            scaling.build_report(r, vals, 2, 0.5, None, ScalingConfig(), "order-2")

    def test_r_grid_validation(self, gaussian_state1, profile1):
        with pytest.raises(InvalidArgumentError):
            ScalingConfig(r_values=(8.0, 16.0, 32.0)).validate_r_grid()
        with pytest.raises(InvalidArgumentError):
            ScalingConfig(r_values=(8.0, 9, 10, 11, 12, 13)).validate_r_grid()
        with pytest.raises(InvalidArgumentError):
            ScalingConfig(r_values=(8.0, 8.0, 16.0, 32.0, 64.0, 128.0)).validate_r_grid()

    def test_report_serialization(self, gaussian_state1, profile1):
        cfg = ScalingConfig()
        rep = exponent_sweep(gaussian_state1, profile1, cfg, 2)
        d = plain(rep)
        assert list(d) == [f.name for f in fields(rep)]
        assert d["verdict"] == "finite-nonzero"
        assert len(d["values"]) == len(cfg.r_values)
        assert d["abs_values"] == [abs(v) for v in rep.values]
        assert d["limit_value"] == {"re": rep.limit_value.real, "im": rep.limit_value.imag}


class TestExponentWindows:
    @pytest.mark.parametrize("dim,lo,hi", [(1, 0.5, 0.75), (2, 1.0, 1.5), (4, 2.0, 3.0)])
    def test_l2_alpha_window(self, dim, lo, hi):
        w = l2_alpha_window(dim)
        assert (w.lo_open, w.hi_closed) == (lo, hi)
        assert w.contains(hi) and not w.contains(lo)

    def test_l2_vanishing_threshold_boundary(self):
        # alpha = 2n/3: order 3 sits exactly on the bound (finite), 4 vanishes
        th = l2_vanishing_threshold(3, 2.0)
        assert th.verdict(3) == "finite"
        assert th.verdict(4) == "vanishes"
        assert th.l0 == 4

    def test_l2_vanishing_threshold_maximal(self):
        th = l2_vanishing_threshold(2, 1.5)  # alpha = 3n/4
        assert th.l0 == 3
        assert all(th.verdict(l) == "vanishes" for l in (3, 4, 5))

    def test_l2_vanishing_threshold_near_half(self):
        th = l2_vanishing_threshold(1, 0.52)
        assert th.l0 > 3
        assert th.verdict(3) == "not-guaranteed-by-the-bound"
        assert th.l0 == int(np.floor(1 / 0.04)) + 1

    def test_threshold_requires_window(self):
        with pytest.raises(InvalidArgumentError):
            l2_vanishing_threshold(1, 0.4)


class TestCriticalAlpha:
    def test_bisection_matches_growth_oracle(self, profile1):
        state = powerlaw_state(0.75, 1)
        r = tuple(float(x) for x in np.geomspace(64, 8192, 8).round(8))
        cfg = ScalingConfig(r_values=r, alpha=0.6)
        alpha_star = find_critical_alpha(state, profile1, cfg, 0.505, 0.75)
        # independent target: half the unnormalized position-space growth
        radii = [float(x) for x in np.geomspace(64, 8192, 8)]
        vals = [position_space_correlator(state, profile1, cfg, 2, x, alpha=0.0) for x in radii]
        growth, _, _, _ = fit_loglog(radii, vals)
        assert alpha_star == pytest.approx(growth / 2.0, abs=0.01)
        assert alpha_star == pytest.approx(1.0 - 0.75 / 2.0, abs=0.05)
        window = l2_alpha_window(1)
        assert window.lo_open < alpha_star <= window.hi_closed

    def test_closed_form_zeroes_the_exponent(self, profile1):
        state = powerlaw_state(0.75, 1)
        r = tuple(float(x) for x in np.geomspace(64, 8192, 8).round(8))
        cfg = ScalingConfig(r_values=r, alpha=0.6)
        alpha_star = find_critical_alpha(state, profile1, cfg, 0.505, 0.75)
        rep = exponent_sweep(state, profile1, cfg, 2, alpha=alpha_star)
        assert abs(rep.exponent) <= 1e-12
        assert rep.verdict == "finite-nonzero"

    def test_bad_bracket_rejected(self, profile1):
        state = powerlaw_state(0.75, 1)
        cfg = ScalingConfig()
        with pytest.raises(InvalidArgumentError):
            find_critical_alpha(state, profile1, cfg, 0.7, 0.75)

    def test_alpha_star_sweep_reads_the_chain_cache(self, profile1, chain_blocks, criterion_step):
        # criterion 08: the sweep at alpha* differs from the bracket's low-end
        # sweep by the prefactor alone, and both read the one heat-kernel
        # table, so it computes no chain block beyond the table's 400 radii,
        # and equals the same sweep from an empty cache to the bit
        model, (_, params, cfg) = criterion_step("criterion_08_l2_bisection")
        alpha_star = find_critical_alpha(model, profile1, cfg, *params["bisect_bracket"])
        assert sum(map(len, chain_blocks)) == scaling.TAU_RULE[2] * scaling.TAU_RULE[3]
        blocks = len(chain_blocks)
        read = exponent_sweep(model, profile1, cfg, 2, alpha=alpha_star)
        assert len(chain_blocks) == blocks
        scaling.clear_caches()
        fresh = exponent_sweep(model, profile1, cfg, 2, alpha=alpha_star)
        assert np.array(read.values).tobytes() == np.array(fresh.values).tobytes()
        assert read == fresh


class TestWeightedRegime:
    def test_gamma_and_bounds(self):
        assert weighted_gamma(1, 0.0) == 0.5  # recovers the canonical exponent
        gamma = weighted_gamma(3, 1.0)
        assert gamma == 2.0
        # the marginal order-l weight exponent l gamma - n is ((l-2) n + l alpha_2)/2
        assert 3 * gamma - 3 == pytest.approx((3 + 3 * 1.0) / 2)
        assert 2 * gamma - 3 == pytest.approx(1.0)  # = alpha_2 itself

    def test_sufficient_vanishing_condition(self):
        # the sufficient condition alpha_l <= (l-1) alpha_2 (alpha_2 < n)
        # implies the general bound
        gamma = weighted_gamma(1, 0.5)
        for order in (3, 4, 5):
            assert (order - 1) * 0.5 < order * gamma - 1

    @pytest.mark.parametrize("order, alpha, panels", [(2, 2.0, 96), (3, 4.0, 48)])
    def test_even_alpha_matches_refined_position_rule(self, profile1, order, alpha, panels):
        # even weight exponents take the same heat-kernel path as any other;
        # the joint decays beta = p - alpha are those of criterion 09a (0.5, 0.75)
        state = parse_config(json.dumps({
            "model": {"class": "weighted", "dim": 1, "orders": [
                {"order": 2, "alpha": 2.0, "factor": {"form": "bessel-power", "power": 2.5}},
                {"order": 3, "alpha": alpha, "factor": {"form": "bessel-power", "power": alpha + 0.75}}]}})).model
        gamma = weighted_gamma(1, 2.0)
        cfg = ScalingConfig()
        refined = half_panel_rule(2.0 * window.GRID_EXTENT, panels, 12, 20)
        radius = 2048.0
        value = weighted_correlator(state, profile1, cfg, order, gamma, radius)
        reference = position_space_correlator(_position_state(state), profile1, cfg, order, radius, gamma,
                                              z_rule=refined)
        assert abs(value - reference) <= 1e-6 * abs(reference)

    def test_weighted_requires_weighted_order(self, gaussian_state1, profile1):
        cfg = ScalingConfig()
        with pytest.raises(UnsupportedModeError):
            weighted_correlator(gaussian_state1, profile1, cfg, 2, 0.75, 8.0)

    def test_noninteger_alpha_runs_at_n2(self, profile2):
        # the heat-kernel path runs every n: at n = 2 the order-2 value of a
        # non-integer weight exponent is the direct quadrature of
        # W(|x - y|) f(|x|/R) f(|y|/R) to 1e-12
        state = weighted_state([WeightedCorrelator(2, 0.5, 2.0)], 2)
        cfg = ScalingConfig()
        for radius in (2.0, 4.0):
            value = weighted_correlator(state, profile2, cfg, 2, 1.25, radius)
            reference = radius ** (2 * (2 - 1.25)) * _radial_position_pair(
                profile2, 2, weighted_form(state.weighted_orders[2]), radius)
            assert abs(value - reference) <= 1e-12 * abs(reference), radius

    def test_non_decaying_weight_raises(self, profile1):
        # p <= alpha leaves (1 + s)^(-beta/2) with beta <= 0: no Gaussian superposition
        state = weighted_state([WeightedCorrelator(2, 1.0, 1.0)], 1)
        with pytest.raises(InvalidArgumentError, match="does not decay"):
            check_order(state, ScalingConfig(), 2)
        with pytest.raises(InvalidArgumentError, match="does not decay"):
            weighted_correlator(state, profile1, ScalingConfig(), 2, 1.0, 8.0)

    def test_radii_beyond_the_tau_rule_raise(self, profile1):
        # from R = e^-9, where tau_0/R^2 reaches 1, to where the Gamma(beta/2)
        # weight beyond the rule's top e^22 may pass TAU_CUTOFF: about 10^4
        # at beta = 1.5, and less for a larger beta, whose weight lies at
        # larger tau; beta = 30 is about the largest the rule resolves
        decays = weighted_state([WeightedCorrelator(2, 0.5, 2.0), WeightedCorrelator(3, 0.5, 30.5)], 1)
        for radius in (2e-4, 8.0, 1e4):
            weighted_correlator(decays, profile1, ScalingConfig(), 2, 0.75, radius)
        for order, radius in ((2, 1e-4), (2, 1.2e4), (3, 8e3)):
            with pytest.raises(NumericalAccuracyError, match="tau rule"):
                weighted_correlator(decays, profile1, ScalingConfig(), order, 0.75, radius)
        weighted_correlator(decays, profile1, ScalingConfig(), 3, 0.75, 2048.0)
        grid = ScalingConfig(r_values=tuple(float(r) for r in np.geomspace(1e3, 1e5, 6)))
        with pytest.raises(NumericalAccuracyError, match="tau rule"):
            exponent_sweep(decays, profile1, grid, 2, alpha=0.75)
        scaling.clear_caches()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_order2_at_p_equal_n_is_finite_nonzero(self, profile2, profile3, dim):
        # p = n makes the order-2 exponent 2 (n - gamma) - beta zero for every alpha_2 < n
        state = weighted_state([WeightedCorrelator(2, 0.5, float(dim))], dim)
        gamma = weighted_gamma(dim, 0.5)
        rep = exponent_sweep(state, profile2 if dim == 2 else profile3, ScalingConfig(), 2, alpha=gamma)
        assert rep.exponent == pytest.approx(0.0, abs=0.1)
        assert rep.verdict == "finite-nonzero"


def _radial_position_pair(profile, dim, form, radius):
    """The integral of f(|x|) f(|y|) W(R |x - y|) over R^2 x R^2 in polar
    coordinates: radii on 16-node panels split at the window edge a, the
    angle between x and y on 16 panels of [0, pi], doubled."""
    assert dim == 2
    a, b = window.EDGE
    r, w = map(np.concatenate, zip(gauss_legendre_panels(0.0, a, 8, 16), gauss_legendre_panels(a, b, 8, 16)))
    phi, wp = gauss_legendre_panels(0.0, pi, 16, 16)
    d = window._profile_evaluator()(r) * r * w
    total = 0.0
    for ri, di in zip(r, d):
        dist = np.sqrt(np.maximum(ri ** 2 + r[:, None] ** 2 - 2.0 * ri * r[:, None] * np.cos(phi), 0.0))
        total += di * (d @ (form((radius * dist,)) @ wp))
    return 4.0 * pi * total


#: the graded rule of the weighted orders at every n (``check_order``)
_GRADED = half_panel_rule(*KERNEL_RULES["graded"])


def _edge_split_line():
    """An n = 1 position rule split at the window edges +-a and +-b,
    20 + 40 + 20 panels of 16 nodes: its nodes and f times its weights."""
    a, b = window.EDGE
    x, w = map(np.concatenate, zip(gauss_legendre_panels(-b, -a, 20, 16), gauss_legendre_panels(-a, a, 40, 16),
                                   gauss_legendre_panels(a, b, 20, 16)))
    return x, w * window._profile_evaluator()(np.abs(x))


def _weighted_sweeps(criterion_step, profile1, stem):
    """gamma and the sweeps of a weighted criterion config, from an empty chain cache."""
    model, (kind, params, cfg) = criterion_step(stem)
    scaling.clear_caches()
    out = runner.ANALYSES[kind].handler(params, cfg, model, profile1)
    return model, out["gamma"], out["sweeps"]


_WEIGHTED_STEMS = ["criterion_09a_weighted_boundary", "criterion_09b_weighted_vanishing"]


class TestHeatTable:
    """The heat-kernel table G_l of the weighted orders against the paths it
    replaces and against position-space quadratures."""

    @pytest.mark.parametrize("rule_name, tolerance", [("graded", 2e-12), ("fine", 1e-13)])
    @pytest.mark.parametrize("order", [2, 3])
    def test_table_equals_edge_split_position_chain(self, profile1, order, rule_name, tolerance):
        # G_l(tau) = sum d E d E ... d with d = f w and E[x, y] = exp(-tau (x - y)^2),
        # at every 8th tau node in [0.01, 100]; the position rule moves by
        # 2e-16 when its panels are doubled.  The graded rule of the weighted
        # orders is 1.8e-12 off at tau = 0.28, where the Gaussian factor is
        # about one panel wide; a finer chain rule is within 2.3e-14
        rule = _GRADED if rule_name == "graded" else half_panel_rule(160.0, 64, 12, 16)
        log_tau, _ = panel_rule(*scaling.TAU_RULE)
        table = scaling.heat_table(profile1, order, rule)
        x, d = _edge_split_line()
        picks = np.flatnonzero((log_tau >= np.log(0.01)) & (log_tau <= np.log(100.0)))
        assert len(picks) > 80
        for k in picks[::8]:
            e = np.exp(-np.exp(log_tau[k]) * np.subtract.outer(x, x) ** 2)
            v = d
            for _ in range(order - 1):
                v = (v @ e) * d
            assert abs(table[k] - v.sum()) <= tolerance * v.sum(), np.exp(log_tau[k])
        scaling.clear_caches()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_small_tau_end_meets_the_closed_form(self, profile1, profile2, profile3, dim):
        # G_l(tau) -> ((2 pi)^(n/2) fhat(0))^l as tau -> 0, 3^l at n = 1
        profile = (profile1, profile2, profile3)[dim - 1]
        if dim == 1:
            assert profile.volume_integral() == pytest.approx(3.0, rel=1e-14)
        for order in (2, 3):
            table = scaling.heat_table(profile, order, _GRADED)
            assert abs(table[0] / profile.volume_integral() ** order - 1.0) <= 1e-7
        scaling.clear_caches()

    @pytest.mark.parametrize("stem", _WEIGHTED_STEMS)
    def test_tau_rule_refinement(self, criterion_step, profile1, stem, monkeypatch):
        # half-width ln tau panels on [-20, 30] move no value by more than 1e-10
        _, _, sweeps = _weighted_sweeps(criterion_step, profile1, stem)
        monkeypatch.setattr(scaling, "TAU_RULE", (-20.0, 30.0, 100, 10))
        _, _, refined = _weighted_sweeps(criterion_step, profile1, stem)
        scaling.clear_caches()
        for sweep, fine in zip(sweeps, refined):
            for v, w in zip(sweep.values, fine.values):
                assert abs(v / w - 1.0) <= 1e-10

    @pytest.mark.parametrize("stem", _WEIGHTED_STEMS)
    def test_sweeps_equal_the_position_path(self, criterion_step, profile1, stem):
        # within the position path's own u-rule error: 2.7e-10 (09a order 2),
        # 9.9e-9 (09a order 3) and 5.4e-9 (09b order 3)
        model, gamma, sweeps = _weighted_sweeps(criterion_step, profile1, stem)
        for sweep in sweeps:
            for radius, v in zip(sweep.r_values, sweep.values):
                reference = _weighted_position_value(model, profile1, sweep.order, radius, gamma)
                assert abs(v - reference) <= 1e-8 * abs(reference), radius
        scaling.clear_caches()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_table_equals_all_tau_kernel_chain(self, profile1, profile2, profile3, dim):
        # the chain of every tau at once through the kernel of window_product,
        # its Gaussian formed from u = r/sqrt(tau) as the chain forms it: from
        # r^2 (0.25/tau), the exponent's rounding alone moves a value by 4.3e-14
        profile = (profile1, profile2, profile3)[dim - 1]
        rule = half_panel_rule(24.0, 8, 10, 4)
        tau = np.exp(panel_rule(*scaling.TAU_RULE)[0])
        kernel = window_product(profile, rule)
        fhat, measure = profile.fourier_radial(rule.nodes), rule.weights * rule.nodes ** (dim - 1)
        u = np.divide.outer(rule.nodes, np.sqrt(tau))
        gauss = (pi / tau) ** (dim / 2.0) * np.exp(-0.25 * u * u)
        for order in (2, 3, 4):
            v = fhat[:, None] * gauss
            for _ in range(order - 2):
                v = (kernel @ (v * measure[:, None])) * gauss
            reference = (2.0 * pi) ** (dim * (2 - order) / 2.0) * unit_sphere_area(dim) * ((fhat * measure) @ v)
            table = scaling._heat_table(profile, order, rule)
            assert np.max(np.abs(table - reference) / np.abs(reference)) <= 1e-14, order
        scaling.clear_caches()

    def test_disk_table_equals_fresh_build(self, profile1, tmp_path, monkeypatch):
        # written on a cold read, read back on a warm one without a build
        scaling.clear_caches()
        fresh = scaling.heat_table(profile1, 3, _GRADED)
        scaling.clear_caches()
        cold = scaling.heat_table(replace(profile1, cache_dir=tmp_path), 3, _GRADED)
        # the table and the kernel of the chain it runs on
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{stem}_p120.0_48_10_16_v{window.CACHE_FORMAT_VERSION}.npy" for stem in ("chain_n1", "heat_n1_o3")]
        scaling.clear_caches()
        monkeypatch.setattr(scaling, "_heat_table", _no_heat_build)
        warm = scaling.heat_table(replace(profile1, cache_dir=tmp_path), 3, _GRADED)
        assert np.array_equal(cold, fresh) and np.array_equal(warm, fresh)
        with pytest.raises(ValueError):
            warm[0] = 0.0
        scaling.clear_caches()


def _no_heat_build(*args):
    raise AssertionError("a heat-kernel table was built where the window cache holds it")


class TestHigherDimension:
    def test_two_point_limit_n2(self, profile2):
        state = gaussian_state(lambda r: np.exp(-np.asarray(r) ** 2 / 2.0), 2)
        cfg = ScalingConfig(eps_vanish=5e-3)
        rep = exponent_sweep(state, profile2, cfg, 2)
        assert rep.exponent == pytest.approx(0.0, abs=0.05)
        target = 1.0 * profile2.pair_overlap_integral()
        assert abs(rep.limit_value - target) <= 0.01 * abs(target)

    def test_order3_exponent_n2(self, profile2):
        g = GaussianProfile(1.0, 1.0, 2)
        state = product_ansatz_state({2: [g], 3: [g, GaussianProfile(0.9, 1.2, 2)]}, 2)
        cfg = ScalingConfig(eps_vanish=5e-3)
        rep = exponent_sweep(state, profile2, cfg, 3)
        assert rep.exponent == pytest.approx(-1.0, abs=0.1)


class TestProfileDimension:
    """The chain reads n from the window profile, so a state or model meets
    only a profile of its own dimension: a mismatch raises where it would
    have returned the numbers of another dimension."""

    @pytest.mark.parametrize("entry", ["exponent_sweep", "qmode_correlator", "weighted_correlator",
                                       "autocorrelation_growth", "build_limit_state"])
    def test_mismatch_raises(self, entry, profile1, profile2, model3, chain_blocks):
        gauss2 = gaussian_state(lambda r: np.exp(-np.asarray(r) ** 2 / 2.0), 2)
        family = limit_algebra.ObservableFamily(
            labels=("A",), dim=2, pair_density=lambda i, j: (lambda k: np.exp(-np.asarray(k) ** 2 / 2.0)))
        cfg, gamma = ScalingConfig(), weighted_gamma(1, 0.5)
        calls = {
            # a 2-D Gaussian on the 1-D profile reported limit 7.3153, on the 2-D one 6.5606
            "exponent_sweep": (2, 1, lambda: exponent_sweep(gauss2, profile1, cfg, 2)),
            "qmode_correlator": (2, 1, lambda: qmode_correlator(gauss2, profile1, cfg, 2, None, 8.0)),
            "weighted_correlator": (1, 2, lambda: weighted_correlator(_weighted_state(), profile2, cfg, 2,
                                                                      gamma, 8.0)),
            "autocorrelation_growth": (3, 1, lambda: ssb.autocorrelation_growth(model3, profile1, cfg)),
            "build_limit_state": (2, 1, lambda: limit_algebra.build_limit_state(family, profile1)),
        }
        state_dim, profile_dim, call = calls[entry]
        with pytest.raises(InvalidArgumentError, match=f"dimension {state_dim}, the window profile of "
                                                       f"dimension {profile_dim}$"):
            call()
        assert not chain_blocks and not scaling._CHAIN_CACHE


def _unit(u):
    """The unit factor, phi = 1 at every radius."""
    return np.ones_like(u)


def _product_state(dim, orders):
    """Product-ansatz orders whose factors alternate between two Gaussians."""
    pair = GaussianProfile(1.0, 1.0, dim), GaussianProfile(0.8, 1.3, dim)
    return product_ansatz_state({l: [pair[i % 2] for i in range(l - 1)] for l in orders}, dim)


def _relative_pair_tail(profile, dim, p_max):
    """integral of fhat(|q|)^2 over |q| > p_max in R^n, relative to the whole."""
    r, w = gauss_legendre_panels(p_max, window.K_MAX, 4000, 8)
    tail = unit_sphere_area(dim) * np.sum(w * profile.fourier_radial(r) ** 2 * r ** (dim - 1))
    return tail / profile.pair_overlap_integral()


_CARTESIAN_KERNELS: dict = {}


def _norm(components):
    """|q| from broadcastable component arrays without stacking."""
    if len(components) == 1:
        return np.abs(components[0])
    acc = components[0] ** 2
    for c in components[1:]:
        acc = acc + c ** 2
    return np.sqrt(acc)


def _cartesian_chain(state, profile, order, offsets, radius, alpha, rule):
    """The chain on the n-fold product of a symmetric rule, each offset read in its own slot.

    v_1 = fhat(|q|) wt phi_1(|q/R + s_1|), v_i = (v_{i-1} @ K) wt phi_i(|q/R + s_i|)
    with K[P, Q] = fhat(|P - Q|) evaluated directly and s_i the running sums
    of the offsets, closed by fhat(|q + R s_l|): the Cartesian chain the
    radial one replaced, kept as its reference.
    """
    n = state.dim
    comps = [c.ravel() for c in np.meshgrid(*[rule.nodes] * n, indexing="ij")]
    wt = reduce(np.multiply.outer, [rule.weights] * n).ravel()
    key = (n, rule.key)
    if order > 2 and key not in _CARTESIAN_KERNELS:
        _CARTESIAN_KERNELS[key] = profile.fourier_radial(
            _norm(tuple(c[:, None] - c[None, :] for c in comps)))
    csum = np.cumsum(np.reshape(offsets, (order, n)), axis=0)
    fns = state.order_factors(order)

    def factor(i):
        return wt * fns[i](_norm(tuple(c / radius + t for c, t in zip(comps, csum[i]))))

    v = profile.fourier_radial(_norm(comps)) * factor(0)
    for i in range(1, order - 1):
        v = (v @ _CARTESIAN_KERNELS[key]) * factor(i)
    last = profile.fourier_radial(_norm(tuple(c + radius * t for c, t in zip(comps, csum[-1]))))
    pref = (2.0 * np.pi) ** (n * (2 - order) / 2.0) * radius ** (order * (n - alpha) - (order - 1) * n)
    return pref * complex(v @ last)


def _qmode_offsets(order, dim, a, b):
    offsets = np.zeros((order, dim))
    offsets[0, 0], offsets[1, 0] = a, b
    return offsets


class TestRadialChain:
    """The one radial chain, offsets as its first vector, against the Cartesian chain it replaced."""

    def test_equals_cartesian_at_n1(self, profile1):
        # at n = 1 both chains run on the default rule's nodes, the radial one
        # on its half: with no net offset they agree to rounding, and the
        # kernel read off the support rule instead of fhat agrees to 1e-10
        state = _product_state(1, range(2, 9))
        cfg = ScalingConfig()
        rule = _symmetric_rule(*scaling.DEFAULT_QUAD)
        for order in range(2, 9):
            for radius in (2.0, 8.0, 64.0, 512.0):
                cartesian = _cartesian_chain(state, profile1, order, np.zeros((order, 1)), radius, 0.5, rule)
                radial = qmode_correlator(state, profile1, cfg, order, None, radius)
                assert abs(radial - cartesian) <= 1e-10 * abs(cartesian), (order, radius)
                for q in (0.5, 0.25, -0.5):
                    offsets = _qmode_offsets(order, 1, q, -q)
                    cartesian = _cartesian_chain(state, profile1, order, offsets, radius, 0.5, rule)
                    chain = qmode_correlator(state, profile1, cfg, order, offsets, radius)
                    assert abs(chain - cartesian) <= 1e-13 * abs(cartesian), (order, radius, q)

    def test_net_offsets_equal_cartesian_at_n1(self, profile1):
        # a net offset shifts the radial chain's domain by c = R |a + b|: the
        # two chains truncate the window tail at p_max and at p_max - c, so
        # they agree only while c stays well inside the rule, here c <= p_max/4
        # and phi_1 small beyond it (a larger b at R = 64 reads 1e-9 off)
        state = _product_state(1, range(2, 9))
        cfg = ScalingConfig()
        rule = _symmetric_rule(*scaling.DEFAULT_QUAD)
        for a, b in ((0.7, 0.4), (-0.2, -0.3)):
            for order in range(2, 9):
                for radius in (2.0, 8.0, 16.0):
                    assert radius * abs(a + b) <= scaling.DEFAULT_QUAD[0] / 4
                    offsets = _qmode_offsets(order, 1, a, b)
                    cartesian = _cartesian_chain(state, profile1, order, offsets, radius, 0.5, rule)
                    chain = qmode_correlator(state, profile1, cfg, order, offsets, radius)
                    assert abs(chain - cartesian) <= 1e-9 * abs(cartesian), (a, b, order, radius)

    @pytest.mark.parametrize("dim,order", [(2, 3), (3, 2)])
    def test_equals_cartesian_within_the_tail(self, profile2, profile3, dim, order, monkeypatch):
        # both rules end at p_max = 10: the Cartesian one on the cube, the
        # radial one on the ball, so they differ by the window's pair tail
        # beyond p_max - c in each of the l - 1 truncated variables
        profile = profile2 if dim == 2 else profile3
        state = _product_state(dim, [2, 3])
        rule = _symmetric_rule(10.0, 4, 6)
        monkeypatch.setattr(scaling, "DEFAULT_QUAD", (10.0, 16, 12, 0))
        fine = ScalingConfig(eps_vanish=1.0)
        for a, b, radii in ((0.0, 0.0, (2.0, 8.0, 64.0, 512.0)), (0.5, -0.5, (2.0, 8.0, 64.0, 512.0)),
                            (0.7, 0.4, (2.0,)), (-0.2, -0.3, (2.0,))):
            tol = (order - 1) * _relative_pair_tail(profile, dim, 10.0 - radii[-1] * abs(a + b))
            for radius in radii:
                offsets = _qmode_offsets(order, dim, a, b)
                cartesian = _cartesian_chain(state, profile, order, offsets, radius, dim / 2, rule)
                radial = qmode_correlator(state, profile, fine, order, offsets, radius)
                assert abs(radial - cartesian) <= tol * abs(cartesian), (a, b, radius)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_angle_rule_converged(self, profile2, profile3, dim, monkeypatch):
        # halving the angle panels of a net offset's first vector moves the
        # default rule's values by rounding only; at R = 24, c = R |a + b| is
        # near p_max / 4, where a rule of 1/16 the panels moves them by 1e-7
        profile = profile2 if dim == 2 else profile3
        state = _product_state(dim, [2, 3])
        cfg = ScalingConfig()
        cases = [(order, radius) for order in (2, 3) for radius in (8.0, 24.0)]
        offsets = {order: _qmode_offsets(order, dim, 0.7, 0.4) for order in (2, 3)}
        full = [qmode_correlator(state, profile, cfg, o, offsets[o], r) for o, r in cases]
        panels = scaling._angle_panels
        monkeypatch.setattr(scaling, "_angle_panels", lambda p_max: panels(p_max) // 2)
        for (order, radius), value in zip(cases, full):
            half = qmode_correlator(state, profile, cfg, order, offsets[order], radius)
            assert abs(half - value) <= 1e-10 * abs(value), (order, radius)

    def test_kernel_equals_two_point_sum_at_n1(self, profile1):
        # S^0 is the two points +-1: K[p, r] = fhat(|p - r|) + fhat(p + r)
        rule = half_panel_rule(*scaling.DEFAULT_QUAD)
        kernel = window_product(profile1, rule)
        p, r = rule.nodes[:, None], rule.nodes[None, :]
        direct = profile1.fourier_radial(np.abs(p - r)) + profile1.fourier_radial(p + r)
        assert kernel.shape == direct.shape == (len(rule), len(rule))
        assert np.max(np.abs(kernel - direct)) <= 1e-10 * np.max(np.abs(kernel))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_kernel_equals_angular_quadrature(self, profile2, profile3, dim):
        profile = profile2 if dim == 2 else profile3
        rule = half_panel_rule(*scaling.DEFAULT_QUAD)
        kernel = window_product(profile, rule)
        assert kernel.shape == (len(rule), len(rule))
        theta, wt = gauss_legendre_panels(0.0, np.pi, 64, 16)
        # dimension 2: 2 int_0^pi d theta; dimension 3: 2 pi int_0^pi sin(theta) d theta
        wt = 2.0 * wt if dim == 2 else 2.0 * np.pi * wt * np.sin(theta)
        for i, j in [(0, 10), (3, 5), (100, 400), (250, 250), (479, 1)]:
            p, r = rule.nodes[i], rule.nodes[j]
            direct = np.sum(wt * profile.fourier_radial(np.sqrt(p * p + r * r - 2 * p * r * np.cos(theta))))
            assert abs(kernel[i, j] - direct) <= 1e-10 * np.max(np.abs(kernel))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_smoothstep_kernel_is_finite(self, profile1, profile2, profile3, dim, monkeypatch):
        # at the frequency 2 p_max = 240 the support rule's last 4 nodes lie
        # within 0.0031 of the edge's end, where 1 minus the bump CDF is zero
        # to rounding: the kernel takes the square root of f there, so f must
        # be exact zeros (the evaluator clips it), not noise of either sign
        profile = (profile1, profile2, profile3)[dim - 1]
        rule = half_panel_rule(120.0, 8, 10)
        f = window.support_rule(2.0 * rule.p_max)[2]
        assert np.all(f[-4:] == 0.0) and np.all(f[:-4] > 0.0)
        kernel = window_product(profile, rule)
        assert np.all(np.isfinite(kernel))
        p, r = rule.nodes[:, None], rule.nodes[None, :]
        if dim == 1:
            direct = profile.fourier_radial(np.abs(p - r)) + profile.fourier_radial(p + r)
            assert np.max(np.abs(kernel - direct)) <= 1e-10 * np.max(np.abs(kernel))
            state = _product_state(1, [3, 4])
            monkeypatch.setattr(scaling, "DEFAULT_QUAD", (120.0, 8, 10, 0))
            cfg = ScalingConfig(eps_vanish=1.0)
            symmetric = _symmetric_rule(120.0, 8, 10)
            for order in (3, 4):
                for radius in (2.0, 64.0):
                    radial = qmode_correlator(state, profile, cfg, order, None, radius)
                    cartesian = _cartesian_chain(state, profile, order, np.zeros((order, 1)), radius, 0.5,
                                                 symmetric)
                    assert abs(radial - cartesian) <= 1e-10 * abs(cartesian), (order, radius)
        else:
            theta, wt = gauss_legendre_panels(0.0, np.pi, 64, 16)
            wt = 2.0 * wt if dim == 2 else 2.0 * np.pi * wt * np.sin(theta)
            for i, j in [(0, 10), (3, 5), (40, 70), (79, 79)]:
                q = np.sqrt(p[i, 0] ** 2 + r[0, j] ** 2 - 2 * p[i, 0] * r[0, j] * np.cos(theta))
                direct = np.sum(wt * profile.fourier_radial(q))
                assert abs(kernel[i, j] - direct) <= 1e-10 * np.max(np.abs(kernel))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_closed_form_limit(self, profile1, profile2, profile3, dim):
        # R^((l-2)n/2) value(R) -> S_l(0) int f(|x|)^l d^n x, from the position
        # profile alone: the ball of radius a in closed form plus the edge
        profile = {1: profile1, 2: profile2, 3: profile3}[dim]
        state = _product_state(dim, range(2, 9))
        exact = window._profile_evaluator()
        a, b = window.EDGE
        s, w = gauss_legendre_panels(a, b, 64, 16)
        radius = 8192.0
        for order in range(2, 9):
            s_zero = np.prod([fn((np.zeros(1),) * dim)[0] for fn in state.order_factors(order)])
            power = unit_sphere_area(dim) * (a ** dim / dim + np.sum(w * exact(s) ** order * s ** (dim - 1)))
            value = radius ** ((order - 2) * dim / 2) * qmode_correlator(
                state, profile, ScalingConfig(), order, None, radius)
            assert abs(value - s_zero * power) <= 1e-6 * abs(s_zero * power), order

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_unit_factor_chain_is_the_position_integral(self, profile1, profile2, profile3, dim):
        # at phi = 1 the chain is the l-fold convolution of fhat at 0,
        # (2 pi)^(n (l-2)/2) int f(|x|)^l d^n x at every R, with int f^l the
        # ball of radius a in closed form plus the edge on Gauss-Legendre.
        # The miss is the tail the rule truncates: on DEFAULT_QUAD it is
        # 3.1e-10 (n = 1, l = 2) to 1.5e-8 (n = 3, l = 8), and on the rule
        # to p_max 240 here at most 1.9e-11 (n = 3, l = 8)
        profile = {1: profile1, 2: profile2, 3: profile3}[dim]
        rule = half_panel_rule(240.0, 96, 10)
        exact = window._profile_evaluator()
        a, b = window.EDGE
        s, w = gauss_legendre_panels(a, b, 64, 16)
        for order in range(2, 9):
            power = unit_sphere_area(dim) * (a ** dim / dim + np.sum(w * exact(s) ** order * s ** (dim - 1)))
            expected = (2.0 * pi) ** (dim * (order - 2) / 2.0) * power
            chain = radial_chain(profile, rule, (_unit,) * (order - 1), (8.0, 512.0))
            assert np.all(np.abs(chain - expected) <= 1e-10 * expected), order
        scaling.clear_caches()

    def test_order2_is_the_ssb_spectral_integral(self, profile3):
        # one primitive: the ssb integrals are the order-2 radial chain
        g = GaussianProfile(1.0, 1.0, 3)
        rule = half_panel_rule(160.0, 64, 10, 18)
        radii = (8.0, 512.0)
        for radius, chain in zip(radii, radial_chain(profile3, rule, (g.momentum,), radii)):
            u = rule.nodes
            direct = unit_sphere_area(3) * np.sum(
                rule.weights * profile3.fourier_radial(u) ** 2 * u ** 2 * g.momentum(u / radius))
            assert abs(chain - direct) <= 1e-14 * abs(direct)


#: a six-radius grid, with eps_vanish = 1 for the small rule of
#: ``_on_small_rule``: the sweeps below compare values bit for bit, so only
#: their cost matters
_SWEEP_GRID = ScalingConfig(r_values=tuple(float(r) for r in np.geomspace(8.0, 512.0, 6)), eps_vanish=1.0)


def _on_small_rule(fn):
    """``fn`` run on a 12-node chain rule in place of DEFAULT_QUAD."""
    def call(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scaling, "DEFAULT_QUAD", (14.0, 3, 4, 0))
            return fn(*args)
    return call


def _sweep_cases(profiles, model3):
    """(name, sweep, one-radius call) pairs: each sweep's values against the
    public call at each of its radii."""
    g = GaussianProfile(1.0, 1.0, 1)
    one = product_ansatz_state({2: [g], 3: [g, GaussianProfile(0.8, 1.3, 1)], 4: [g, g, g]}, 1)
    cfg = ScalingConfig()
    cases = [(f"n1 order {o}", lambda o=o: exponent_sweep(one, profiles[1], cfg, o),
              lambda r, o=o: qmode_correlator(one, profiles[1], cfg, o, None, r)) for o in (2, 3, 4)]
    for dim in (2, 3):
        state = _product_state(dim, [2, 3, 4])
        cases += [(f"n{dim} order {o}",
                   _on_small_rule(lambda s=state, d=dim, o=o: exponent_sweep(s, profiles[d], _SWEEP_GRID, o)),
                   _on_small_rule(lambda r, s=state, d=dim, o=o: qmode_correlator(s, profiles[d], _SWEEP_GRID, o,
                                                                                  None, r)))
                  for o in (2, 3, 4)]
    for name, dim, order, (a, b) in (("symmetric", 1, 2, (0.5, -0.5)), ("net", 2, 3, (0.7, 0.4))):
        state, offsets = _product_state(dim, [order]), _qmode_offsets(order, dim, a, b)
        cases.append((f"qmode {name}",
                      _on_small_rule(lambda s=state, d=dim, o=order, q=offsets:
                                     exponent_sweep(s, profiles[d], _SWEEP_GRID, o, offsets=q)),
                      _on_small_rule(lambda r, s=state, d=dim, o=order, q=offsets:
                                     qmode_correlator(s, profiles[d], _SWEEP_GRID, o, q, r))))
    power = powerlaw_state(0.75, 1)
    cases.append(("powerlaw", lambda: exponent_sweep(power, profiles[1], cfg, 2, alpha=0.6),
                  lambda r: qmode_correlator(power, profiles[1], cfg, 2, None, r, 0.6)))
    weighted = _weighted_state()
    gamma = weighted_gamma(1, 0.5)
    cases += [(f"weighted order {o}", lambda o=o: exponent_sweep(weighted, profiles[1], cfg, o, alpha=gamma),
               lambda r, o=o: weighted_correlator(weighted, profiles[1], cfg, o, gamma, r)) for o in (2, 3)]
    cases.append(("ssb autocorrelation", lambda: ssb.autocorrelation_growth(model3, profiles[3], cfg, "A"),
                  lambda r: ssb.autocorrelation(model3, profiles[3], r, "A")))
    return cases


class TestSweepResolution:
    """A sweep resolves its rule, certificate and factors once, then maps the R grid."""

    def test_sweep_equals_one_radius_calls(self, profile1, profile2, profile3, model3):
        # with the caches emptied in between, every radius is computed afresh
        # by the one-radius call, to the bit
        for name, sweep, call in _sweep_cases({1: profile1, 2: profile2, 3: profile3}, model3):
            scaling.clear_caches()
            rep = sweep()
            scaling.clear_caches()
            assert list(rep.values) == [complex(call(r)) for r in rep.r_values], name
        scaling.clear_caches()

    def test_rule_and_certificate_resolved_once_per_sweep(self, product_state1, profile1, monkeypatch):
        calls = Counter()
        check, validate = scaling.check_order, ScalingConfig.validate_tail

        def counting_check(*args, **kwargs):
            calls["check_order"] += 1
            return check(*args, **kwargs)

        def counting_validate(*args):
            calls["validate_tail"] += 1
            return validate(*args)

        monkeypatch.setattr(scaling, "check_order", counting_check)
        monkeypatch.setattr(ScalingConfig, "validate_tail", counting_validate)
        cfg = ScalingConfig()
        for offsets in (None, _qmode_offsets(3, 1, 0.5, -0.5)):
            calls.clear()
            rep = exponent_sweep(product_state1, profile1, cfg, 3, offsets=offsets)
            assert len(rep.values) == 8
            assert calls == {"check_order": 1, "validate_tail": 1}
        # a one-radius call resolves for its one radius
        calls.clear()
        for radius in (8.0, 16.0):
            qmode_correlator(product_state1, profile1, cfg, 3, None, radius)
        assert calls == {"check_order": 2, "validate_tail": 2}

    def test_wrong_resolution_raises_before_any_chain_value(self, profile1, monkeypatch):
        def no_chain(*args):
            raise AssertionError("a chain value was computed before the resolution failed")

        monkeypatch.setattr(scaling, "radial_chain", no_chain)
        tail = ScalingConfig(eps_vanish=1e-9)
        with pytest.raises(NumericalAccuracyError, match="window tail bound"):
            exponent_sweep(_product_state(1, [2]), profile1, tail, 2)
        with pytest.raises(InvalidArgumentError, match="offsets must have shape"):
            exponent_sweep(_product_state(1, [2]), profile1, ScalingConfig(), 2, offsets=np.zeros((3, 1)))



class TestOneGate:
    """check_order is the one parse-time gate of every order, and the rule it
    returns is the rule the run reads."""

    @pytest.mark.parametrize("case", ["weighted", "chain"])
    def test_run_reads_the_rule_of_the_gate(self, gaussian_state1, profile1, monkeypatch, case):
        # graded for a weighted order, the default rule of the dimension otherwise
        state, reader = ((_weighted_state(), "heat_table") if case == "weighted"
                         else (gaussian_state1, "radial_chain"))
        cfg = ScalingConfig()
        rule = check_order(state, cfg, 2)
        assert rule is half_panel_rule(*(KERNEL_RULES["graded"] if case == "weighted" else scaling.DEFAULT_QUAD))
        read, original = [], getattr(scaling, reader)

        def recording(profile, *args):
            read.append(next(arg for arg in args if isinstance(arg, Rule1D)))
            return original(profile, *args)

        monkeypatch.setattr(scaling, reader, recording)
        scaling.clear_caches()
        exponent_sweep(state, profile1, cfg, 2, alpha=0.75)
        qmode_correlator(state, profile1, cfg, 2, None, 8.0, 0.75)
        assert read and all(r is rule for r in read)
        scaling.clear_caches()

    def test_weighted_order_takes_no_offsets(self, profile1):
        state = _weighted_state()
        offsets = _qmode_offsets(2, 1, 0.5, -0.5)
        with pytest.raises(UnsupportedModeError, match="q-mode"):
            check_order(state, ScalingConfig(), 2, qmode=True)
        with pytest.raises(UnsupportedModeError, match="q-mode"):
            qmode_correlator(state, profile1, ScalingConfig(), 2, offsets, 8.0, 0.75)
        with pytest.raises(UnsupportedModeError, match="q-mode"):
            exponent_sweep(state, profile1, ScalingConfig(), 2, alpha=0.75, offsets=offsets)

    @pytest.mark.parametrize("order", [2, 3])
    def test_qmode_correlator_of_a_weighted_order_is_the_weighted_one(self, profile1, order):
        # each from a fresh heat-kernel table
        state, cfg, gamma = _weighted_state(), ScalingConfig(), weighted_gamma(1, 0.5)
        scaling.clear_caches()
        values = [weighted_correlator(state, profile1, cfg, order, gamma, radius) for radius in (16.0, 256.0)]
        scaling.clear_caches()
        assert [qmode_correlator(state, profile1, cfg, order, None, radius, gamma) for radius in (16.0, 256.0)] == values
        scaling.clear_caches()



def _per_radius_chain(profile, rule, factors, radius, offset=None):
    """``radial_chain`` at one radius as it ran before the blocks of radii,
    each step one (2, N) product of the stacked [Re; Im] of the vector with
    the kernel, and the same chain on absolute values, the scale of its
    rounding."""
    n = profile.dim
    fhat, measure = profile.fourier_radial(rule.nodes), rule.weights * rule.nodes ** (n - 1)
    kernel = window_product(profile, rule)
    absolute = np.abs(kernel)
    u = rule.nodes / radius
    v = (fhat * factors[0](u) if offset is None
         else scaling._offset_vector(profile, rule, factors[0], radius, *offset))
    scale = np.abs(v)
    for phi in factors[1:]:
        w = v * measure
        out = np.stack([w.real, w.imag]) @ kernel
        v = (out[0] + 1j * out[1]) * phi(u)
        scale = ((scale * measure) @ absolute) * np.abs(phi(u))
    area = unit_sphere_area(n)
    return area * complex(np.sum(v * measure * fhat)), area * np.sum(scale * measure * np.abs(fhat))


def _phased_factors(dim, count):
    """Gaussian factors times unit phases, so that both rows of [Re; Im] carry values."""
    pair = GaussianProfile(1.0, 1.0, dim), GaussianProfile(0.8, 1.3, dim)
    return tuple(lambda r, g=pair[i % 2], t=0.3 + 0.7 * i: g.momentum(r) * np.exp(1j * t)
                 for i in range(count))


class TestBlockedChain:
    """The chain runs a grid of radii CHAIN_BLOCK at a time: the per-radius
    chain to rounding, each radius's bits independent of its grid, and one
    block of rows in memory beyond the kernel."""

    #: eleven radii: one full block and one padded with zero rows
    RADII = tuple(float(r) for r in np.geomspace(8.0, 512.0, 11))
    #: a net offset R (a + b) within a quarter of the default rule at R = 512
    OFFSET = (0.02, 0.01)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blocks_equal_the_per_radius_chain(self, profile1, profile2, profile3, dim):
        # measured at most 3.0e-15 of the value; an offset's first vector
        # changes sign and its real part cancels to 8.3e-15 of the value at
        # n = 1, so it is held to the chain of absolute values, measured
        # within 6.1e-16 of it.  The first vector of an offset is an
        # N x angles array per radius: at n = 2, 3 it runs on a rule of half
        # the default p_max, a quarter of the points, at three radii
        profile = {1: profile1, 2: profile2, 3: profile3}[dim]
        rule = half_panel_rule(*scaling.DEFAULT_QUAD)
        offsets = ((self.OFFSET, rule, self.RADII) if dim == 1
                   else (self.OFFSET, half_panel_rule(60.0, 24, 10), self.RADII[::5]))
        cases = [(None, rule, self.RADII), offsets]
        scaling.clear_caches()
        for order in range(3, 9):
            factors = _phased_factors(dim, order - 1)
            for offset, on, radii in cases:
                blocked = radial_chain(profile, on, factors, radii, offset)
                for radius, value in zip(radii, blocked):
                    reference, scale = _per_radius_chain(profile, on, factors, radius, offset)
                    bound = 4e-15 * (abs(reference) if offset is None else scale)
                    assert abs(value - reference) <= bound, (order, offset, radius)
        scaling.clear_caches()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_value_does_not_depend_on_the_grid(self, profile1, profile2, profile3, dim):
        # alone, in a 7-radius grid and at every position of a 20-radius
        # grid (three blocks)
        profile = {1: profile1, 2: profile2, 3: profile3}[dim]
        rule = half_panel_rule(*scaling.DEFAULT_QUAD)
        factors = _phased_factors(dim, 4)
        radius = 37.5
        others = tuple(float(r) for r in np.geomspace(8.0, 512.0, 19))
        scaling.clear_caches()
        alone = radial_chain(profile, rule, factors, (radius,))[0]
        grids = [others[:3] + (radius,) + others[3:6]]
        grids += [others[:position] + (radius,) + others[position:] for position in range(20)]
        for grid in grids:
            values = radial_chain(profile, rule, factors, grid)
            assert values[grid.index(radius)] == alone, grid.index(radius)
        scaling.clear_caches()

    def test_grid_memory_is_one_block_beyond_the_kernel(self, profile1):
        # 4,096 radii, the most a config's r_grid holds, on an order-4 chain:
        # beyond its values it holds less than the kernel plus one block of
        # rows, as 8 radii do; a (4096, N) array of vectors alone would be 31 MB
        rule = half_panel_rule(*scaling.DEFAULT_QUAD)
        factors = (GaussianProfile(1.0, 1.0, 1).momentum,) * 3
        scaling.clear_caches()
        kernel = window_product(profile1, rule)
        rows = 2 * scaling.CHAIN_BLOCK * len(rule) * 8
        transient = {}
        for count in (8, 4096):
            radii = tuple(np.geomspace(8.0, 512.0, count))

            def chain():
                assert len(radial_chain(profile1, rule, factors, radii)) == count

            transient[count] = traced_peak(chain)
            assert transient[count] <= kernel.nbytes + rows, count
        assert transient[4096] <= 2 * transient[8]
        scaling.clear_caches()
