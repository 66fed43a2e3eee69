import math
from fractions import Fraction

import numpy as np
import pytest

from fluctlab.errors import ModelValidationError, OrderRangeError, UnsupportedModeError
from fluctlab.models import (
    GaussianProfile,
    WeightedCorrelator,
    check_autocorrelation,
    gaussian_state,
    goldstone_state,
    powerlaw_state,
    product_ansatz_state,
    smooth_cutoff,
    smoothstep_edge,
    weighted_state,
)
from fluctlab.quadrature import half_panel_rule
from fluctlab.scaling import ScalingConfig, exponent_sweep, position_space_correlator

from conftest import weighted_form

SQRT_2PI = np.sqrt(2.0 * np.pi)


def inverse_transform_oracle(two_point, y, k_max=60.0, n_k=200001):
    """Position-space correlator from the plain inverse transform (n = 1)."""
    k = np.linspace(-k_max, k_max, n_k)
    vals = two_point(k)
    return np.trapezoid(vals * np.exp(-1j * k * y), k) / (2.0 * np.pi)


class TestGaussianState:
    def test_hierarchy_truncates_at_two(self, gaussian_state1):
        radii = (np.array([0.3]), np.array([0.1]))
        assert np.all(gaussian_state1.evaluate(3, radii) == 0)
        assert np.all(gaussian_state1.evaluate(4, radii + (np.array([0.2]),)) == 0)

    def test_gaussian_position_decay(self, gaussian_state1):
        # S(k) = exp(-k^2/2) has position form exp(-y^2/2)/sqrt(2 pi)
        for y in (0.0, 0.8, 2.0):
            got = inverse_transform_oracle(gaussian_state1.two_point, y)
            assert got.real == pytest.approx(np.exp(-y * y / 2.0) / SQRT_2PI, rel=1e-7, abs=1e-12)
        assert gaussian_state1.tag(2).kind == "l1"

    def test_lorentzian_position_decay(self):
        state = gaussian_state(lambda k: 1.0 / (1.0 + np.asarray(k) ** 2), 1)
        # plain inverse of (1 + k^2)^-1 is exp(-|y|)/2: exponential clustering
        for y in (0.5, 1.5, 3.0):
            got = inverse_transform_oracle(state.two_point, y, k_max=4000.0, n_k=4000001)
            assert got.real == pytest.approx(np.exp(-abs(y)) / 2.0, rel=1e-5)
        assert state.tag(2).kind == "l1"

    def test_zero_state(self):
        state = gaussian_state(lambda k: np.zeros_like(np.asarray(k, dtype=float)), 1)
        assert np.all(state.two_point(np.linspace(-3, 3, 7)) == 0)

    def test_positivity_violation_rejected(self):
        with pytest.raises(ModelValidationError):
            gaussian_state(lambda k: np.cos(3.0 * np.asarray(k)), 1)

    @pytest.mark.parametrize("density, message", [
        (lambda r: np.where(r < 1.0, np.inf, 1.0), "not finite"),
        (lambda r: np.exp(-r * r) - 0.5, "positivity"),
        # a density of |k| is hermitian exactly when it is real
        (lambda r: (1.0 + 0.5j) * np.exp(-r * r), "hermiticity"),
    ], ids=["non-finite", "negative", "complex"])
    def test_invalid_density_rejected(self, density, message):
        with pytest.raises(ModelValidationError, match=message):
            check_autocorrelation(density)


class TestProductAnsatz:
    def test_factorization(self):
        g1 = GaussianProfile(1.0, 1.0, 1)
        g2 = GaussianProfile(0.7, 1.4, 1)
        state = product_ansatz_state({2: [g1], 3: [g1, g2]}, 1)
        q1, q2 = 0.37, -0.82
        got = state.evaluate(3, (np.array([abs(q1)]), np.array([abs(q2)])))[0]
        expected = g1.momentum(abs(q1)) * g2.momentum(abs(q2))
        assert abs(got - expected) <= 1e-10 * abs(expected)

    def test_missing_orders_are_zero(self):
        g = GaussianProfile(1.0, 1.0, 1)
        state = product_ansatz_state({2: [g]}, 1, max_order=5)
        assert np.all(state.evaluate(4, (np.array([0.1]),) * 3) == 0)

    def test_profile_count_validated(self):
        g = GaussianProfile(1.0, 1.0, 1)
        with pytest.raises(OrderRangeError):
            product_ansatz_state({3: [g]}, 1)

    def test_order3_zero_momentum_value(self):
        # 2-D quadrature oracle over the factorized position form
        g = GaussianProfile(1.0, 1.0, 1)
        state = product_ansatz_state({3: [g, g]}, 1)
        y = np.linspace(-12, 12, 2001)
        pos = np.exp(-y ** 2 / 2.0)
        expected = np.trapezoid(pos, y) ** 2  # separable double integral
        got = state.evaluate(3, (np.array([0.0]), np.array([0.0])))[0]
        assert got.real == pytest.approx(expected, rel=1e-8)


class TestPowerlaw:
    @pytest.mark.parametrize("beta", [0.6, 0.75, 1.5, 30.0])
    def test_sweep_meets_the_position_path(self, profile1, beta):
        # the order-2 joint power runs on the heat-kernel table; on a refined
        # z rule the position path pins it to 1e-8 at R = 8...4096, across
        # beta < n, where the density is |k|^(beta - n) singular at 0, and beta > n
        state = powerlaw_state(beta, 1)
        cfg = ScalingConfig(r_values=tuple(float(r) for r in np.geomspace(8.0, 4096.0, 10)))
        rep = exponent_sweep(state, profile1, cfg, 2)
        z_rule = half_panel_rule(5.0, 200, 16, 12)
        for radius, value in zip(rep.r_values, rep.values):
            pin = position_space_correlator(state, profile1, cfg, 2, radius, rep.alpha, z_rule=z_rule)
            assert abs(value / pin - 1.0) <= 1e-8, radius

    def test_classification(self):
        assert powerlaw_state(0.75, 1).tag(2).kind == "l2"
        assert not powerlaw_state(0.75, 1).tag(2).boundary
        boundary = powerlaw_state(1.0, 1)
        assert boundary.tag(2).kind == "l2" and boundary.tag(2).boundary
        assert powerlaw_state(1.5, 1).tag(2).kind == "l1"

    def test_subcritical_rejected(self):
        with pytest.raises(ModelValidationError):
            powerlaw_state(0.5, 1)

    def test_two_point_names_the_heat_kernel_paths(self):
        # the order-2 joint power is a weighted order: no momentum factors
        message = ("order 2 is weighted: it has no momentum factors and is read from its heat-kernel table, "
                   "through exponent_sweep, qmode_correlator or weighted_correlator")
        with pytest.raises(UnsupportedModeError) as info:
            powerlaw_state(0.75, 1).two_point(0.5)
        assert str(info.value) == message


class TestWeighted:
    def test_zero_weight_reduces_to_plain_factor(self):
        wc = WeightedCorrelator(2, 0.0, 2.0)
        y = np.array([0.0, 1.0, 2.0])
        assert wc.decay == 2.0
        assert np.array_equal(weighted_form(wc)((y,)), (1.0 + y ** 2) ** -1.0)

    def test_assembled_position_form(self):
        # W(y) = (1 + |y|^2)^(alpha/2) (1 + |y|^2)^(-p/2) by definition, s = |y_1|^2 + |y_2|^2,
        # which the heat-kernel path runs as (1 + s)^(-decay/2)
        wc = WeightedCorrelator(3, 1.0, 2.5)
        y1, y2 = np.array([0.0, 0.7, 1.3]), np.array([0.4, 0.0, 2.1])
        u = 1.0 + y1 ** 2 + y2 ** 2
        assert np.array_equal(weighted_form(wc)((y1, y2)), u ** 0.5 * u ** -1.25)
        assert np.allclose(weighted_form(wc)((y1, y2)), u ** (-wc.decay / 2.0), rtol=1e-15, atol=0.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ModelValidationError):
            weighted_state([WeightedCorrelator(2, -1.0, 2.0)], 1)

    @pytest.mark.parametrize("power", [0.0, -1.0, float("nan")])
    def test_nonpositive_power_rejected(self, power):
        with pytest.raises(ModelValidationError, match="must be > 0"):
            weighted_state([WeightedCorrelator(2, 0.5, power)], 1)

    def test_momentum_evaluator_absent_for_weighted_orders(self):
        state = weighted_state([WeightedCorrelator(2, 0.5, 1.0)], 1)
        with pytest.raises(UnsupportedModeError):
            state.evaluate(2, (np.array([0.1]),))

    def test_growth_exponent_matches_weight(self, profile1):
        # saturating construction: alpha_2 = n - beta, so the unnormalized
        # autocorrelation grows like R^(n + alpha_2); measured through the
        # heat-kernel path at moderate radii
        from fluctlab.scaling import ScalingConfig, fit_loglog, weighted_correlator

        state = weighted_state([WeightedCorrelator(2, 0.5, 1.0)], 1)
        cfg = ScalingConfig()
        radii = [8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
        vals = [weighted_correlator(state, profile1, cfg, 2, 0.0, r) for r in radii]
        exponent, _, _, _ = fit_loglog(radii, vals)
        assert exponent == pytest.approx(1.0 + 0.5, abs=0.1)


class TestGoldstoneSpectrum:
    def test_valid_model(self):
        state = goldstone_state(3, 1.0, 2.0)
        assert state.tag(2).kind == "goldstone"
        vals = state.two_point(np.array([0.1, 0.5]))
        assert vals[0].real == pytest.approx(100.0, rel=1e-9)  # |k|^-2 at 0.1

    def test_small_k_exponent(self):
        state = goldstone_state(3, 1.0, 2.0)
        ks = np.geomspace(1e-3, 1e-1, 24)
        slope = np.polyfit(np.log(ks), np.log(state.two_point(ks).real), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_zero_weight_trivial(self):
        state = goldstone_state(3, 0.0, 2.0)
        assert state.two_point(np.array([0.3]))[0] == 0

    def test_value_at_zero(self):
        # c |k|^(-s) chi at k = 0: c for s = 0, 0 for s < 0, divergent for s > 0
        at_zero = lambda s: goldstone_state(1, 2.0, s).two_point(np.array([0.0, 1.0]))
        assert at_zero(0.0).tolist() == [2.0, 2.0]
        assert at_zero(-1.0).tolist() == [0.0, 2.0]
        assert np.isinf(at_zero(0.5)[0])

    def test_integrability_precondition(self):
        with pytest.raises(ModelValidationError):
            goldstone_state(1, 1.0, 2.0)

    def test_cutoff_profile(self):
        assert smooth_cutoff(0.5) == 1.0
        assert smooth_cutoff(2.5) == 0.0
        mid = smooth_cutoff(1.5)
        assert 0.0 < mid < 1.0
        # the edge stays >= 0 where it is far below 1, near t = 2
        t = np.concatenate([np.linspace(0.0, 3.0, 3001), 2.0 - np.geomspace(1e-9, 1e-1, 400)])
        assert np.all(smooth_cutoff(t) >= 0.0)


class TestSmoothstepEdge:
    """The Bernstein-form edge of ``smooth_cutoff`` and of the ssb energy smoothing."""

    @pytest.mark.parametrize("order", range(1, 17))
    def test_smoothstep_edge_keeps_relative_precision(self, order):
        # against exact rational arithmetic on S(t) = sum_m c_m t^(order+1+m):
        # near t = 1 the edge is far below 1 and must not round to noise
        def exact(t):
            s = sum(Fraction(math.comb(order + m, m) * math.comb(2 * order + 1, order - m) * (-1) ** m)
                    * t ** (order + 1 + m) for m in range(order + 1))
            return float(1 - s)

        t = np.concatenate([np.linspace(0.0, 1.0, 41), 1.0 - np.geomspace(1e-6, 1e-2, 9)])
        reference = np.array([exact(Fraction(v)) for v in t])
        edge = smoothstep_edge(t, order)
        assert np.all((edge >= 0.0) & (edge <= 1.0))
        assert np.all(np.abs(edge - reference) <= 1e-14 * reference + 1e-300)
        # the plateaus t = 0 and 1 skip the Bernstein sum; with the edge's
        # ends, the interior, t outside [0, 1] and NaN, which go through it,
        # the edge is the full capped sum to the bit
        m = 2 * order + 1
        t = np.array([0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53, *np.linspace(0.0, 1.0, 203)[1:-1],
                      -0.5, 1.5, np.nan])
        full = sum(math.comb(m, j) * t ** j * (1.0 - t) ** (m - j) for j in range(order + 1))
        assert smoothstep_edge(t, order).tobytes() == np.minimum(full, 1.0).tobytes()
        for v in t:
            assert smoothstep_edge(v, order).tobytes() == smoothstep_edge(np.array([v]), order).tobytes()
