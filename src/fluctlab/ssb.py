"""Spectral-model computations for the symmetry-breaking regime.

States are modeled directly through radial spectral densities: rho_a for the
symmetry-breaking observable's autocorrelation, rho_q for the generator
density, and a complex cross density rho_qa whose zero-momentum value is the
order parameter.  Every quantity of interest is a window-weighted spectral
integral; after substituting u = R kappa the window factor is scale-free and
the R-dependence sits in the density arguments, so growth exponents read off
from one-dimensional quadrature sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidTestConfigurationError,
    ModelValidationError,
)
from .models import smooth_cutoff
from .scaling import QuadSpec, ScalingConfig, ScalingReport, build_report, radial_chain
from .window import SUPPORT_RADIUS, WindowProfile, smoothstep_edge, unit_sphere_area


@dataclass(frozen=True)
class RadialWeight:
    """Spectral density c |k|^exponent chi(|k|/k_cut) with a smooth UV cutoff."""

    amplitude: float
    exponent: float
    k_cut: float = 4.0

    def __call__(self, kappa) -> np.ndarray:
        kappa = np.asarray(kappa, dtype=float)
        safe = np.where(kappa > 0, kappa, 1.0)
        vals = self.amplitude * safe ** self.exponent * smooth_cutoff(kappa / self.k_cut)
        if self.exponent < 0:
            return np.where(kappa > 0, vals, np.inf if self.amplitude else 0.0)
        if self.exponent > 0:
            return np.where(kappa > 0, vals, 0.0)
        return vals


@dataclass(frozen=True)
class Dispersion:
    """Excitation energy omega(k): linear (c|k|) or quadratic (c k^2)."""

    kind: str = "linear"
    speed: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic", "zero"):
            raise InvalidArgumentError(f"unknown dispersion kind {self.kind!r}")

    def __call__(self, kappa) -> np.ndarray:
        kappa = np.asarray(kappa, dtype=float)
        if self.kind == "linear":
            return self.speed * np.abs(kappa)
        if self.kind == "quadratic":
            return self.speed * kappa ** 2
        return np.zeros_like(kappa)


def default_goldstone_model(dim: int = 3) -> "GoldstoneModel":
    """Calibrated symmetry-breaking model: gapless linear branch, singular
    rho_a ~ |k|^-2, conserved-density rho_q ~ |k|, constant imaginary cross
    density (nonzero order parameter)."""
    return GoldstoneModel(
        dim=dim,
        dispersion=Dispersion("linear", 1.0),
        rho_a=RadialWeight(1.0, -2.0),
        rho_q=RadialWeight(0.5, 1.0),
        rho_qa_amplitude=0.25j,
        rho_qa_exponent=0.0,
    )


@dataclass(frozen=True)
class GoldstoneModel:
    """Radial spectral data of the symmetry-breaking regime.

    The cross density is rho_qa_amplitude |k|^rho_qa_exponent chi(|k|/k_cut);
    a nonzero imaginary part at k = 0 is what survives in the commutator of
    the generator with the volume-normalized observable (the order
    parameter).  ``gap`` shifts the whole excitation branch: the energy of
    the momentum-k excitation is gap + omega(k).
    """

    dim: int
    dispersion: Dispersion
    rho_a: RadialWeight
    rho_q: RadialWeight
    rho_qa_amplitude: complex = 0.0j
    rho_qa_exponent: float = 0.0
    k_cut: float = 4.0
    gap: float = 0.0

    def __post_init__(self):
        if self.rho_a.amplitude < 0 or self.rho_q.amplitude < 0:
            raise ModelValidationError("autocorrelation spectral weights must be nonnegative")
        for w, name in ((self.rho_a, "rho_a"), (self.rho_q, "rho_q")):
            if w.amplitude != 0 and w.exponent <= -self.dim:
                raise ModelValidationError(
                    f"{name} exponent {w.exponent} <= -n: spectral density not integrable"
                )
        self._validate_cross_density()

    def rho_qa(self, kappa) -> np.ndarray:
        kappa = np.asarray(kappa, dtype=float)
        safe = np.where(kappa > 0, kappa, 1.0)
        vals = self.rho_qa_amplitude * safe ** self.rho_qa_exponent * smooth_cutoff(kappa / self.k_cut)
        if self.rho_qa_exponent > 0:
            return np.where(kappa > 0, vals, 0.0)
        return vals

    def _validate_cross_density(self):
        grid = np.geomspace(1e-6, 2.0 * self.k_cut, 513)
        # a huge exponent overflows to inf, and inf times the cutoff's 0 is
        # NaN, which no comparison below would catch
        with np.errstate(over="ignore", invalid="ignore"):
            densities = {"rho_qa": self.rho_qa(grid), "rho_a": self.rho_a(grid),
                         "rho_q": self.rho_q(grid)}
        for name, vals in densities.items():
            if not np.all(np.isfinite(vals)):
                k_bad = grid[~np.isfinite(vals)][0]
                raise ModelValidationError(f"{name} is not finite at |k|={k_bad:.3g}")
        # |rho_qa|^2 <= rho_a rho_q (1 + 1e-9) + 1e-300, taken under the square
        # root so that a huge but finite density cannot overflow
        rho_a, rho_q = densities["rho_a"], densities["rho_q"]
        negative = (rho_a < 0) | (rho_q < 0)
        root = np.sqrt(np.where(negative, 0.0, rho_a)) * np.sqrt(np.where(negative, 0.0, rho_q))
        magnitude = np.abs(densities["rho_qa"]) / np.sqrt(1.0 + 1e-9)
        bad = negative | (magnitude > np.hypot(root, 1e-150))
        if np.any(bad):
            k_bad = grid[bad][0]
            raise ModelValidationError(
                f"cross spectral density violates pointwise Cauchy-Schwarz at |k|={k_bad:.3g}"
            )

    def energy(self, kappa) -> np.ndarray:
        return self.gap + self.dispersion(kappa)


# ---------------------------------------------------------------------------
# spectral integrals (scaled variable u = R kappa)
# ---------------------------------------------------------------------------

def _spectral_integral(model: GoldstoneModel, profile: WindowProfile, radius: float,
                       weight) -> complex:
    """Omega_{n-1} * integral fhat(u)^2 weight(u/R) u^(n-1) du: the order-2 radial
    chain on a half-line rule graded toward u = 0."""
    rule = QuadSpec(min(profile.k_max, 160.0), 64, 10, 18).build(True)
    return radial_chain(profile, model.dim, rule, (weight,), radius)


def autocorrelation(model: GoldstoneModel, profile: WindowProfile, radius: float,
                    which: str = "A") -> float:
    """<X_R X_R> for the window-integrated observable (no renormalization).

    Equals R^n times the scale-free spectral integral; the growth exponent
    is n - sigma for a density ~ |k|^sigma at small k (so n + 2 for the
    default symmetry-breaking observable, n for a regular density).
    """
    if which == "A":
        weight = model.rho_a
    elif which == "Q":
        weight = model.rho_q
    else:
        raise InvalidArgumentError("which must be 'A' or 'Q'")
    val = _spectral_integral(model, profile, radius, weight)
    return radius ** model.dim * float(val.real)


def autocorrelation_growth(model: GoldstoneModel, profile: WindowProfile,
                           cfg: ScalingConfig, which: str = "A") -> ScalingReport:
    r = cfg.validate_r_grid()
    vals = [autocorrelation(model, profile, float(R), which) for R in r]
    return build_report(r, vals, 2, 0.0, None, cfg, label=f"autocorrelation-{which}")


def double_commutator(model: GoldstoneModel, profile: WindowProfile, radius: float) -> float:
    """Energy-weighted sum rule 2 int omega rho_q |fhat_R|^2: the double
    commutator of the windowed generator with the dynamics."""
    weight = lambda k: 2.0 * model.dispersion(k) * model.rho_q(k)
    val = _spectral_integral(model, profile, radius, weight)
    return radius ** model.dim * float(val.real)


def double_commutator_scaling(model: GoldstoneModel, profile: WindowProfile,
                              cfg: ScalingConfig) -> ScalingReport:
    r = cfg.validate_r_grid()
    vals = [double_commutator(model, profile, float(R)) for R in r]
    return build_report(r, vals, 2, 0.0, None, cfg, label="double-commutator")


def commutator_expectation(model: GoldstoneModel, profile: WindowProfile,
                           radius: float, smoothing: "EnergySmoothing | None" = None) -> complex:
    """<[Q_R, V_R^{-1} A_R]>: 2i Im of the cross-density spectral integral.

    An optional energy smoothing multiplies the integrand by ghat at the
    excitation energy of each momentum shell.
    """
    c_f = profile.volume_integral()
    if smoothing is None:
        weight = model.rho_qa
    else:
        weight = lambda k: smoothing(model.energy(k)) * model.rho_qa(k)
    val = _spectral_integral(model, profile, radius, weight)
    return 2j * val.imag / c_f


@dataclass(frozen=True)
class BogoliubovCheck:
    lhs: float
    rhs: float
    radius: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + 1e-9) + 1e-300


def check_radius(dim: int, radius: float) -> None:
    """Reject a radius whose squared window volume (R^n c_f)^2, which
    bogoliubov_check forms, overflows; c_f is below the support ball's volume."""
    try:
        (radius ** dim * unit_sphere_area(dim) * SUPPORT_RADIUS ** dim / dim) ** 2
    except OverflowError:
        raise InvalidArgumentError(f"radius {radius!r} out of range: its window volume "
                                   "squared overflows") from None


def bogoliubov_check(model: GoldstoneModel, profile: WindowProfile, radius: float) -> BogoliubovCheck:
    """|<[Q_R, V^-1 A_R]>|^2 against <(V^-1 A_R)^2> <[Q_R,[Q_R,H]]>.

    The inequality is structural whenever 4 |rho_qa|^2 <= 2 omega rho_q rho_a
    pointwise; with the default calibration both that condition and the
    plain Cauchy-Schwarz validation hold.
    """
    lhs = abs(commutator_expectation(model, profile, radius)) ** 2
    c_f = profile.volume_integral()
    v_r = radius ** model.dim * c_f
    var_a = autocorrelation(model, profile, radius, "A") / v_r ** 2
    dc = double_commutator(model, profile, radius)
    return BogoliubovCheck(lhs=float(lhs), rhs=float(var_a * dc), radius=float(radius))


@dataclass(frozen=True)
class CanonicalPairVerdict:
    alpha_max: float
    verdict: str


def canonical_pair_exponents(dim: int, q_growth_exponent: float) -> CanonicalPairVerdict:
    """Largest generator exponent compatible with anomalous observable growth.

    The observable slot needs n - alpha >= (n+2)/2, so alpha_max = (n-2)/2;
    if the generator autocorrelation grows faster than R^(2 alpha_max) no
    split keeps both autocorrelations finite with a nonzero commutator, and
    the limit fluctuations are classical.
    """
    if dim < 1:
        raise InvalidArgumentError("dimension must be >= 1")
    alpha_max = (dim - 2) / 2.0
    verdict = "classical" if q_growth_exponent > 2.0 * alpha_max else "canonical-pair-admissible"
    return CanonicalPairVerdict(alpha_max=alpha_max, verdict=verdict)


# ---------------------------------------------------------------------------
# mean-ergodic projector and gap checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralVectorModel:
    """Finite spectral decomposition of a vector: (energy, |momentum|, amplitude)
    samples plus the distinguished invariant component at (0, 0).

    Components are assumed orthonormal, so norms are plain L2 sums.
    """

    samples: tuple  # of (energy, momentum_norm, amplitude)
    invariant_amplitude: complex

    def __post_init__(self):
        for e, p, a in self.samples:
            if p == 0:
                raise InvalidArgumentError(
                    "sample at momentum 0 would duplicate the invariant component"
                )
        if not np.isfinite(self.noninvariant_norm()):
            raise InvalidArgumentError("amplitudes must be square-summable")

    def noninvariant_norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for _, _, a in self.samples)))


def mean_projector_residual(vec: SpectralVectorModel, profile: WindowProfile,
                            radius: float) -> float:
    """Distance of the normalized windowed translation average from the
    invariant component: the invariant term is reproduced exactly, every
    momentum-p sample is damped by fhat(R p)/fhat(0)."""
    f0 = profile.fhat_zero()
    damped = profile.fourier_radial(radius * np.array([p for _, p, _ in vec.samples]))
    acc = 0.0
    for fhat, (_, _, a) in zip(damped, vec.samples):
        acc += abs(fhat / f0) ** 2 * abs(a) ** 2
    return float(np.sqrt(acc))


def mean_projector_convergence(vec: SpectralVectorModel, profile: WindowProfile,
                               cfg: ScalingConfig) -> ScalingReport:
    r = cfg.validate_r_grid()
    vals = [mean_projector_residual(vec, profile, float(R)) for R in r]
    return build_report(r, vals, 1, 0.0, None, cfg, label="projector-residual")


@dataclass(frozen=True)
class EnergySmoothing:
    """Time-smearing transform ghat: 1 at E = 0, supported in (-a, a).

    shape "plateau" keeps ghat = 1 up to a/2 (order-4 smoothstep edge);
    "wide-plateau" up to 3a/4 with a steeper order-2 edge; both satisfy
    ghat(0) = 1 exactly, so admissible smoothings differ only away from E = 0.
    """

    half_support: float
    shape: str = "plateau"

    def __post_init__(self):
        if self.shape not in ("plateau", "wide-plateau"):
            raise InvalidArgumentError(f"unknown smoothing shape {self.shape!r}")
        if not self.half_support > 0:
            raise InvalidArgumentError(f"smoothing half support {self.half_support} must be > 0")

    def __call__(self, energy) -> np.ndarray:
        e = np.abs(np.asarray(energy, dtype=float)) / self.half_support
        if self.shape == "plateau":
            return smooth_cutoff(2.0 * e)
        return smoothstep_edge(np.clip(4.0 * (e - 0.75), 0.0, 1.0), 2)


@dataclass(frozen=True)
class GapCheckResult:
    estimate: complex
    radius: float
    smoothing: EnergySmoothing

    @property
    def magnitude(self) -> float:
        return abs(self.estimate)


def check_smoothing(model: GoldstoneModel, smoothing: EnergySmoothing) -> None:
    """A gapped check needs the smoothing support inside the gap."""
    if model.gap > 0 and smoothing.half_support > model.gap:
        raise InvalidTestConfigurationError(
            f"smoothing support (-{smoothing.half_support}, {smoothing.half_support}) "
            f"overlaps the excitation spectrum [gap={model.gap}, inf)"
        )


def gap_conservation_check(model: GoldstoneModel, smoothing: EnergySmoothing,
                           profile: WindowProfile, radius: float) -> GapCheckResult:
    """Time-smeared symmetry-breaking expectation.

    With a spectral gap larger than the smoothing support the estimate
    vanishes identically (no symmetry breaking); for a gapless branch the
    window concentrates at zero momentum where ghat = 1, so the estimate
    approaches the unsmoothed order parameter independently of the
    smoothing shape.
    """
    check_smoothing(model, smoothing)
    est = commutator_expectation(model, profile, radius, smoothing=smoothing)
    return GapCheckResult(estimate=est, radius=float(radius), smoothing=smoothing)
