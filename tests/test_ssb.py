import warnings

import numpy as np
import pytest
from dataclasses import replace

from fluctlab import scaling
from fluctlab.errors import (
    InvalidArgumentError,
    InvalidTestConfigurationError,
    ModelValidationError,
)
from fluctlab.runner import ANALYSES
from fluctlab.scaling import ScalingConfig
from fluctlab.ssb import (
    Dispersion,
    EnergySmoothing,
    GoldstoneModel,
    RadialWeight,
    SpectralVectorModel,
    autocorrelation,
    autocorrelation_growth,
    bogoliubov_check,
    canonical_pair_exponents,
    commutator_expectation,
    double_commutator,
    double_commutator_scaling,
    gap_conservation_check,
    mean_projector_convergence,
    mean_projector_residual,
)


@pytest.fixture(scope="module")
def cfg():
    return ScalingConfig()


class TestGrowthExponents:
    def test_singular_observable_growth(self, model3, profile3, cfg):
        rep = autocorrelation_growth(model3, profile3, cfg, "A")
        assert rep.exponent == pytest.approx(3 + 2, abs=0.1)

    def test_regular_density_normal_growth(self, model3, profile3, cfg):
        model = replace(model3, rho_a=RadialWeight(1.0, 0.0),
                        rho_qa_amplitude=0.0j)
        rep = autocorrelation_growth(model, profile3, cfg, "A")
        assert rep.exponent == pytest.approx(3.0, abs=0.1)

    def test_zero_weight_trivial(self, model3, profile3, cfg):
        model = replace(model3, rho_a=RadialWeight(0.0, -2.0),
                        rho_qa_amplitude=0.0j)
        assert autocorrelation(model, profile3, 32.0, "A") == 0

    def test_conserved_density_suppressed_growth(self, model3, profile3, cfg):
        # rho_q vanishing linearly at zero momentum: growth n - 1, weaker
        # than the normal volume law
        rep = autocorrelation_growth(model3, profile3, cfg, "Q")
        assert rep.exponent == pytest.approx(3 - 1, abs=0.1)

    def test_double_commutator_law(self, model3, profile3, cfg):
        rep = double_commutator_scaling(model3, profile3, cfg)
        assert rep.exponent == pytest.approx(3 - 2, abs=0.1)

    def test_double_commutator_zero_dispersion(self, model3, profile3):
        model = replace(model3, dispersion=Dispersion("zero", 1.0))
        assert double_commutator(model, profile3, 64.0) == 0

    def test_quadratic_dispersion_regular_density(self, profile3, cfg):
        # substitution closed form: exponent n - d - sigma with omega ~ k^d
        model = GoldstoneModel(
            dim=3,
            dispersion=Dispersion("quadratic", 1.0),
            rho_a=RadialWeight(1.0, -2.0),
            rho_q=RadialWeight(0.5, 0.0),
            rho_qa_amplitude=0.0j,
        )
        rep = double_commutator_scaling(model, profile3, cfg)
        assert rep.exponent == pytest.approx(3 - 2 - 0, abs=0.1)


class TestBogoliubov:
    def test_holds_at_every_scale(self, model3, profile3):
        for radius in (4.0, 8.0, 32.0, 128.0, 512.0):
            check = bogoliubov_check(model3, profile3, radius)
            assert check.holds

    def test_table_rows_read_the_chain_cache(self, profile3, chain_cache, criterion_step):
        # criterion 10: the table's A-autocorrelation and double-commutator
        # integrals are those of the growth sweeps at the same 7 radii, so of
        # its 21 integrals only the 7 of the cross density are computed; each
        # row equals the check from an empty cache to the bit
        model, (kind, params, cfg) = criterion_step("criterion_10_ssb")
        table = ANALYSES[kind].handler(params, cfg, model, profile3)["bogoliubov"]
        assert [row.radius for row in table] == list(cfg.r_values)
        assert len(chain_cache.chains) == 3 * 7 + 7
        for row in table:
            scaling.clear_caches()
            assert bogoliubov_check(model, profile3, row.radius) == row, row

    def test_order_parameter_limit(self, model3, profile3):
        lhs_values = [abs(commutator_expectation(model3, profile3, r)) ** 2
                      for r in (16.0, 64.0, 256.0)]
        assert lhs_values[-1] > 0.1
        assert abs(lhs_values[-1] - lhs_values[-2]) < 1e-3 * lhs_values[-1]

    def test_conserved_model_commutator_vanishes(self, model3, profile3):
        # cross density vanishing at k = 0: conserved direction
        model = replace(model3, rho_qa_amplitude=0.03j,
                        rho_qa_exponent=1.0)
        vals = [abs(commutator_expectation(model, profile3, r)) for r in (8.0, 64.0, 512.0)]
        # cross density ~ |k| at zero momentum decays like 1/R
        assert vals[-1] / vals[0] == pytest.approx(8.0 / 512.0, rel=0.1)

    def test_cauchy_schwarz_validation(self):
        with pytest.raises(ModelValidationError):
            GoldstoneModel(
                dim=3,
                dispersion=Dispersion("linear", 1.0),
                rho_a=RadialWeight(1.0, -2.0),
                rho_q=RadialWeight(0.5, 1.0),
                rho_qa_amplitude=3.0j,
            )

    def test_huge_finite_densities_compared_without_overflow(self):
        # |rho_qa|^2 and rho_a rho_q both pass 1e398 here; the check keeps
        # its verdicts without forming them
        huge = dict(dim=3, dispersion=Dispersion("linear", 1.0),
                    rho_a=RadialWeight(1e200, -2.0), rho_q=RadialWeight(1e200, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GoldstoneModel(**huge, rho_qa_amplitude=1e199j)
            with pytest.raises(ModelValidationError, match="Cauchy-Schwarz"):
                GoldstoneModel(**huge, rho_qa_amplitude=1e201j)

    def test_cross_density_at_zero(self, model3):
        # rho_qa is the RadialWeight of its amplitude and exponent: at k = 0 the
        # amplitude for exponent 0, 0 above, and divergent below
        assert model3.rho_qa(np.array([0.0]))[0] == 0.25j
        conserved = replace(model3, rho_qa_amplitude=0.03j, rho_qa_exponent=1.0)
        assert conserved.rho_qa(np.array([0.0]))[0] == 0
        singular = replace(model3, rho_qa_amplitude=0.01j, rho_qa_exponent=-0.25)
        assert np.isinf(singular.rho_qa(np.array([0.0]))[0])
        k = np.array([0.3, 1.0])
        assert singular.rho_qa(k).tolist() == RadialWeight(0.01j, -0.25)(k).tolist()

    def test_negative_density_rejected(self, model3):
        class NegatedWeight(RadialWeight):
            def __call__(self, kappa):
                return -super().__call__(kappa)

        with pytest.raises(ModelValidationError, match="Cauchy-Schwarz"):
            replace(model3, rho_qa_amplitude=0j,
                    rho_q=NegatedWeight(0.5, 1.0))

    def test_nonintegrable_weight_rejected(self):
        with pytest.raises(ModelValidationError):
            GoldstoneModel(
                dim=2,
                dispersion=Dispersion("linear", 1.0),
                rho_a=RadialWeight(1.0, -2.0),
                rho_q=RadialWeight(0.5, 1.0),
            )


class TestCanonicalPair:
    def test_three_dimensions(self):
        res = canonical_pair_exponents(3, 2.0)
        assert res.alpha_max == 0.5
        assert res.verdict == "classical"

    def test_subcritical_growth(self):
        res = canonical_pair_exponents(3, 0.8)
        assert res.verdict == "canonical-pair-admissible"

    def test_two_dimensions(self):
        assert canonical_pair_exponents(2, 0.5).alpha_max == 0.0


class TestMeanProjector:
    def test_invariant_only_vector(self, profile1, cfg):
        vec = SpectralVectorModel(samples=(), invariant_amplitude=1.0)
        assert mean_projector_residual(vec, profile1, 8.0) == 0.0

    def test_single_sample_envelope(self, profile1):
        vec = SpectralVectorModel(samples=((1.0, 0.9, 0.5),), invariant_amplitude=1.0)
        for radius in (8.0, 32.0, 128.0):
            res = mean_projector_residual(vec, profile1, radius)
            expected = abs(profile1.fourier_radial(radius * 0.9) / profile1.fhat_zero()) * 0.5
            assert res == pytest.approx(expected, rel=1e-12)

    def test_ten_sample_monotone_decay(self, profile1, cfg):
        samples = tuple((0.5 * j, 0.85 + 0.17 * j, 0.45 / np.sqrt(1 + j)) for j in range(10))
        vec = SpectralVectorModel(samples=samples, invariant_amplitude=0.7)
        rep = mean_projector_convergence(vec, profile1, cfg)
        mags = [abs(v) for v in rep.values]
        assert all(b <= a for a, b in zip(mags[1:], mags[2:]))
        assert rep.verdict == "vanishing"

    def test_residual_bounded_by_envelope(self, profile1):
        samples = ((0.3, 1.1, 0.4), (0.9, 2.0, 0.3))
        vec = SpectralVectorModel(samples=samples, invariant_amplitude=1.0)
        f0 = profile1.fhat_zero()
        for radius in (8.0, 64.0):
            res = mean_projector_residual(vec, profile1, radius)
            env = max(abs(profile1.fourier_radial(radius * p)) / f0 for _, p, _ in samples)
            assert res <= env * vec.noninvariant_norm() * (1 + 1e-12)

    def test_zero_momentum_sample_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SpectralVectorModel(samples=((1.0, 0.0, 0.5),), invariant_amplitude=1.0)


class TestGapCheck:
    def test_gapped_model_conserves(self, model3, profile3):
        gapped = replace(model3, gap=1.0)
        smoothing = EnergySmoothing(0.4, "plateau")
        res = gap_conservation_check(gapped, smoothing, profile3, 256.0)
        assert res.magnitude < 1e-8

    def test_gapless_model_shape_independent(self, model3, profile3):
        mags = []
        for shape in ("plateau", "wide-plateau"):
            res = gap_conservation_check(model3, EnergySmoothing(0.4, shape), profile3, 512.0)
            mags.append(res.magnitude)
        assert all(m > 0.1 for m in mags)
        assert abs(mags[0] - mags[1]) < 0.01 * max(mags)
        raw = abs(commutator_expectation(model3, profile3, 512.0))
        assert mags[0] == pytest.approx(raw, rel=1e-3)

    def test_zero_cross_density_trivial(self, model3, profile3):
        model = replace(model3, rho_qa_amplitude=0.0j)
        for gap in (0.0, 1.0):
            res = gap_conservation_check(replace(model, gap=gap),
                                         EnergySmoothing(0.4, "plateau"), profile3, 128.0)
            assert res.magnitude == 0.0

    def test_overlapping_support_rejected(self, model3, profile3):
        gapped = replace(model3, gap=0.3)
        with pytest.raises(InvalidTestConfigurationError):
            gap_conservation_check(gapped, EnergySmoothing(0.4, "plateau"), profile3, 64.0)

    def test_smoothing_normalization(self):
        sm = EnergySmoothing(0.4, "plateau")
        assert sm(0.0) == 1.0
        assert sm(0.41) == 0.0
        sm2 = EnergySmoothing(0.4, "wide-plateau")
        assert sm2(0.0) == 1.0
        assert sm2(0.41) == 0.0
