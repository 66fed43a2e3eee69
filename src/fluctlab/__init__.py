"""Numerical laboratory for scaling limits of smoothly averaged fluctuation observables.

The package computes finite-scale truncated correlators of window-averaged,
scale-renormalized observables for translation-invariant model states, sweeps
the averaging scale to fit power laws, and verifies the closed-form limit
structure: the quasi-free hierarchy with its Weyl/commutator relations, the
admissible exponent windows for square-integrable and polynomially weighted
clustering, and the anomalous scaling bounds of the symmetry-breaking regime.
"""

from .errors import (
    ConfigError,
    FluctlabError,
    IncompleteTableError,
    InvalidArgumentError,
    InvalidLimitStateError,
    InvalidTestConfigurationError,
    ModelValidationError,
    NormalizationError,
    NumericalAccuracyError,
    OrderRangeError,
    UnsupportedModeError,
)
from .limit_algebra import (
    LimitState,
    ObservableFamily,
    build_limit_state,
    ccr_product_check,
    commutator_criterion,
    weyl_expectation,
)
from .models import (
    DecayTag,
    GaussianProfile,
    ObservablePair,
    RadialWeight,
    TruncatedHierarchy,
    WeightedCorrelator,
    gaussian_state,
    goldstone_state,
    powerlaw_state,
    product_ansatz_state,
    weighted_state,
)
from .partitions import (
    CumulantTable,
    MomentTable,
    bell_number,
    cumulants_from_moments,
    enumerate_pairings,
    moments_from_cumulants,
    pairing_count,
    wick_moment_table,
)
from .scaling import (
    ScalingConfig,
    ScalingReport,
    exponent_sweep,
    find_critical_alpha,
    l2_alpha_window,
    l2_vanishing_threshold,
    position_space_correlator,
    qmode_correlator,
    weighted_correlator,
    weighted_gamma,
)
from .ssb import (
    Dispersion,
    EnergySmoothing,
    GoldstoneModel,
    SpectralVectorModel,
    autocorrelation_growth,
    bogoliubov_check,
    canonical_pair_exponents,
    double_commutator_scaling,
    gap_conservation_check,
    mean_projector_convergence,
)
from .window import WindowProfile, load_or_build, make_profile

__version__ = "0.1.0"
