"""Translation-invariant model states given by momentum-space truncated correlators.

A state is a hierarchy of truncated-correlator densities, one per order l:
S_l maps the l-1 transfer momenta (q_1, ..., q_{l-1}) to a complex value and
is stored as one factor per difference variable, S_l = phi_1(|q_1|) ...
phi_{l-1}(|q_{l-1}|), which lets the scaling engine contract the window chain
one variable at a time.  Every state is also rotation invariant, so each
factor, every two-point and pair density and every position form is a
function of radii alone: it takes one array of radii per variable.  The
convention is the plain transform

    S_l(q_1,...,q_{l-1}) = integral( W_l(y_1,...,y_{l-1})
                                     * exp(+i sum q_i.y_i) prod dy_i )

in the difference variables y_i, with no normalization prefactor (see
``fluctlab.window`` for the convention summary).  Order 1 is identically
zero: observables are centered.

Factors are pure and vectorized; hierarchies are immutable after
construction and safe for concurrent evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import comb, pi
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ModelValidationError, OrderRangeError, UnsupportedModeError

#: default highest order of a hierarchy, and the highest order a configuration names
MAX_ORDER = 8

# A factor maps the radii |q| of one difference variable to its (real or
# complex) share of the density.
Factor = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DecayTag:
    """Clustering class of one correlator order."""

    kind: str  # "l1" | "l2" | "weighted" | "goldstone"
    param: float | None = None
    boundary: bool = False


@dataclass(frozen=True)
class WeightedCorrelator:
    """Order-l joint power W = (1 + s)^(alpha/2) * (1 + s)^(-power/2), s = sum |y_i|^2:
    the polynomial weight times the integrable factor, which the scaling
    engine runs as (1 + s)^(-decay/2) (``scaling.heat_table``)."""

    order: int
    alpha: float
    power: float

    @property
    def decay(self) -> float:
        """beta = power - alpha, the joint decay W = (1 + s)^(-beta/2)."""
        return self.power - self.alpha


@dataclass(frozen=True)
class TruncatedHierarchy:
    """Momentum-space truncated correlator hierarchy of a model state.

    ``position_forms`` give W_l in position space.  Like the factors, every
    position form takes the radii |y_i|, one array per difference variable,
    so at n = 1 it is even in each variable.  The position-space path
    (``scaling.position_space_correlator``) relies on that to run on a
    half-line z rule.  A weighted order carries no factor: it is plain data
    (``WeightedCorrelator``), and only the powerlaw's order 2 has a position
    form too.
    """

    dim: int
    max_order: int
    factors: Mapping[int, tuple[Factor, ...]] = field(repr=False)
    tags: Mapping[int, DecayTag]
    position_forms: Mapping[int, Callable] = field(default_factory=dict, repr=False)
    weighted_orders: Mapping[int, WeightedCorrelator] = field(default_factory=dict, repr=False)

    def order_factors(self, order: int) -> tuple[Factor, ...]:
        """The l-1 per-variable factors of S_l; empty when S_l vanishes."""
        if order < 1 or order > self.max_order:
            raise OrderRangeError(f"order {order} outside 1..{self.max_order}")
        if order in self.weighted_orders:
            raise UnsupportedModeError(
                f"order {order} is weighted: it has no momentum factors and is read from its "
                "heat-kernel table, through exponent_sweep, qmode_correlator or weighted_correlator")
        return self.factors.get(order, ())

    def evaluate(self, order: int, radii) -> np.ndarray:
        """S_l at the radii |q_i| of the transfer momenta, one broadcastable
        array per variable."""
        fns = self.order_factors(order)
        if order == 1:
            return np.asarray(0.0 + 0.0j)
        if not fns:
            return np.zeros(np.broadcast(*radii).shape, dtype=complex)
        out = fns[0](radii[0])
        for fn, r in zip(fns[1:], radii[1:]):
            out = out * fn(r)
        return np.asarray(out, dtype=complex)

    def two_point(self, kappa) -> np.ndarray:
        """S_2 at the radii |kappa|."""
        return self.evaluate(2, (np.abs(np.asarray(kappa, dtype=float)),))

    def tag(self, order: int) -> DecayTag:
        return self.tags.get(order, DecayTag("l1"))

    def position_form(self, order: int) -> Callable:
        fn = self.position_forms.get(order)
        if fn is None:
            raise UnsupportedModeError(f"no position-space form available for order {order}")
        return fn


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def check_autocorrelation(two_point: Callable, rtol: float = 1e-9) -> None:
    """A two-point density of |k| must be finite, real and >= 0 on a sample
    grid of radii: for a function of |k|, real is the same as hermitian,
    S(-k) = conj S(k).  An overflow on the grid reads as not finite, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(two_point(np.geomspace(1e-3, 20.0, 257)), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise ModelValidationError("two-point density not finite on the sample grid")
    scale = float(np.max(np.abs(vals))) or 1.0
    if np.max(np.abs(vals.imag)) > rtol * scale:
        raise ModelValidationError("two-point density not real: violates hermiticity S(-k) = conj S(k)")
    if np.min(vals.real) < -rtol * scale:
        raise ModelValidationError("two-point autocorrelation violates positivity on the grid")


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------

def gaussian_state(two_point: Callable, dim: int, *, max_order: int = MAX_ORDER) -> TruncatedHierarchy:
    """Quasi-free input state: all truncated correlators beyond order 2 vanish.

    ``two_point`` maps radii |k| to the density.
    """
    check_autocorrelation(two_point)
    return TruncatedHierarchy(
        dim=dim,
        max_order=max_order,
        factors={2: (two_point,)},
        tags={2: DecayTag("l1")},
    )


@dataclass(frozen=True)
class GaussianProfile:
    """Radial Gaussian difference profile g(y) = amp * exp(-|y|^2/(2 width^2))."""

    amplitude: float
    width: float
    dim: int = 1

    def position(self, r):
        return self.amplitude * np.exp(-np.asarray(r) ** 2 / (2.0 * self.width ** 2))

    def momentum(self, r):
        c = self.amplitude * (2.0 * pi * self.width ** 2) ** (self.dim / 2.0)
        return c * np.exp(-self.width ** 2 * np.asarray(r) ** 2 / 2.0)


def product_ansatz_state(profiles: Mapping[int, Sequence], dim: int, *,
                         max_order: int | None = None) -> TruncatedHierarchy:
    """State whose order-l correlator factorizes over difference variables.

    ``profiles[l]`` is a sequence of l-1 radial profiles; the momentum
    density is the product of the per-variable transforms, so higher
    truncated correlators are nonzero with fully controlled decay.
    """
    for order, profs in profiles.items():
        if len(profs) != order - 1:
            raise OrderRangeError(f"order {order} needs {order - 1} profiles, got {len(profs)}")
    max_order = max_order or max(profiles, default=1)

    def make_pos(profs):
        return lambda radii: reduce(np.multiply, [q.position(r) for q, r in zip(profs, radii)])

    factors = {o: tuple(q.momentum for q in p) for o, p in profiles.items()}
    position_forms = {o: make_pos(p) for o, p in profiles.items() if all(hasattr(q, "position") for q in p)}
    tags = {o: DecayTag("l1") for o in profiles}
    if 2 in profiles:
        check_autocorrelation(factors[2][0])
    return TruncatedHierarchy(dim=dim, max_order=max_order, factors=factors,
                              tags=tags, position_forms=position_forms)


def powerlaw_state(beta: float, dim: int, *, max_order: int = MAX_ORDER) -> TruncatedHierarchy:
    """Two-point state W_2 = (1 + |y|^2)^(-beta/2): L2-class for n/2 < beta <= n.

    Its order 2 is the order-2 joint power with alpha_2 = 0, which the
    scaling engine runs on its heat-kernel table (``scaling.heat_table``);
    the position form stays for the oracle.
    """
    if beta <= dim / 2.0:
        raise ModelValidationError(
            f"beta = {beta} <= n/2: not square-integrable clustering; "
            "use goldstone_state or the weighted machinery"
        )
    if beta > dim:
        tag = DecayTag("l1", param=beta)
    else:
        tag = DecayTag("l2", param=beta, boundary=(beta == dim))

    def position(radii):
        return (1.0 + radii[0] ** 2) ** (-beta / 2.0)

    return TruncatedHierarchy(
        dim=dim,
        max_order=max_order,
        factors={},
        tags={2: tag},
        position_forms={2: position},
        weighted_orders={2: WeightedCorrelator(2, 0.0, beta)},
    )


def weighted_state(correlators: Sequence[WeightedCorrelator], dim: int, *,
                   max_order: int | None = None) -> TruncatedHierarchy:
    """State with polynomially weighted orders W_l = (1 + s)^(alpha_l/2) (1 + s)^(-p_l/2).

    Evaluation goes through the scaling engine's heat-kernel tables, each
    the radial chain of the order at R = sqrt(tau) (``scaling.heat_table``),
    which run a decaying weight, p_l > alpha_l; weighted orders
    intentionally carry no momentum factors.
    """
    weighted = {}
    for wc in correlators:
        if wc.alpha < 0:
            raise ModelValidationError(f"weight exponent alpha_{wc.order} = {wc.alpha} must be >= 0")
        if not wc.power > 0:
            raise ModelValidationError(f"factor power p_{wc.order} = {wc.power} must be > 0")
        weighted[wc.order] = wc
    max_order = max_order or max(weighted, default=1)
    tags = {o: DecayTag("weighted", param=wc.alpha) for o, wc in weighted.items()}
    return TruncatedHierarchy(dim=dim, max_order=max_order, factors={},
                              tags=tags, weighted_orders=weighted)


def smoothstep_edge(t, order: int) -> np.ndarray:
    """1 - S(t) for t in [0, 1], with S(0) = 0, S(1) = 1 and `order` flat
    derivatives at both ends.

    In Bernstein form, sum_{j <= order} C(2 order + 1, j) t^j (1 - t)^(2 order + 1 - j):
    every term is >= 0, so the edge is >= 0 and keeps its relative precision
    near t = 1, where the monomial form of S cancels to rounding noise of
    either sign (-7e-4 at order 16).  Near t = 0 the sum rounds a few ulps
    above 1, so it is capped there.  At t = 0 and t = 1 the sum is exactly
    1 and 0, which are written without it; t outside [0, 1] and NaN go
    through it.
    """
    m = 2 * order + 1
    t = np.asarray(t, dtype=float)
    out = np.array(t == 0.0, dtype=float)
    inner = (t != 0.0) & (t != 1.0)
    ti = t[inner]
    u = 1.0 - ti
    acc = np.zeros_like(ti)
    for j in range(order + 1):
        acc += comb(m, j) * ti ** j * u ** (m - j)
    out[inner] = np.minimum(acc, 1.0, out=acc)
    return out


def smooth_cutoff(t) -> np.ndarray:
    """C^4 radial cutoff in [0, 1]: 1 for t <= 1, 0 for t >= 2 (order-4 smoothstep edge)."""
    t = np.abs(np.asarray(t, dtype=float))
    return smoothstep_edge(np.clip(t - 1.0, 0.0, 1.0), 4)


@dataclass(frozen=True)
class RadialWeight:
    """Spectral density c |k|^exponent chi(|k|/k_cut) with a smooth UV cutoff.

    At k = 0 it is c for exponent 0, 0 above and inf below (0 if c = 0).
    """

    amplitude: float | complex
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


def goldstone_state(dim: int, singular_weight: float, infrared_exponent: float = 2.0,
                    uv_cutoff: float = 4.0, *, max_order: int = 2) -> TruncatedHierarchy:
    """Two-point state with an infrared |k|^(-s) spectral singularity.

    The spectral density c |k|^(-s) chi(|k|/k_cut) is integrable only for
    s < n; that is enforced here.
    """
    s = infrared_exponent
    if s >= dim:
        raise ModelValidationError(
            f"infrared exponent s = {s} >= n = {dim}: spectral density not integrable"
        )
    density = RadialWeight(singular_weight, -s, uv_cutoff)
    check_autocorrelation(density)
    return TruncatedHierarchy(
        dim=dim,
        max_order=max_order,
        factors={2: (density,)},
        tags={2: DecayTag("goldstone", param=s)},
    )


@dataclass(frozen=True)
class ObservablePair:
    """Two observables with both mixed two-point densities.

    ``f_hat`` is the plain spectral density of <A(x) B>, ``g_hat`` the one
    of <B A(x)>, each a function of the radius |k|; the commutator criterion
    needs both finite at k = 0.
    """

    label_a: str
    label_b: str
    f_hat: Callable
    g_hat: Callable
