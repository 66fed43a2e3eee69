"""Finite-scale fluctuation correlators, scaling sweeps and exponent fits.

The central object is the order-l truncated correlator of window-averaged,
scale-renormalized observables.  After substituting p' = R p the window
factors become scale-independent and only the correlator density argument
shrinks, so the value computed here is exactly

    value(R) = C_l * R**(l*(n - alpha) - (l-1)*n)
               * integral( S_l(q'_1/R, ..., q'_{l-1}/R)
                           * fhat(q'_1) fhat(q'_2 - q'_1) ... fhat(-q'_{l-1})
                           prod dq'_i )

with C_l = (2*pi)**(n*(2-l)/2) under the package conventions (symmetric
transform for windows, plain transform for correlator densities).  With
that constant the spectral value equals the position-space multi-quadrature
of the same correlator identically, which the oracle tests exercise.

S_l is a product of one factor per difference variable, each a function of
|q_i| (``fluctlab.models``), so every order runs on one radial chain, one
vector of radii per variable, at every n; momentum offsets a e and b e on
the first two observables become its first vector (``_offset_vector``).
A weighted order, whose position form is a joint power of the difference
variables, runs on the same chain as a superposition of Gaussians: one
heat-kernel table per order (``heat_table``) and one weighted sum per radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import ceil, exp, lgamma, log, pi

import numpy as np

from .errors import (
    InvalidArgumentError,
    NumericalAccuracyError,
    OrderRangeError,
    UnsupportedModeError,
)
from .models import TruncatedHierarchy
from .quadrature import Rule1D, gauss_legendre_panels, half_panel_rule, panel_rule
from .window import (
    CACHE_FORMAT_VERSION,
    GRID_EXTENT,
    K_GRID,
    PLANE_WAVE_MEAN,
    SUPPORT_PANEL_NODES,
    SUPPORT_RADIUS,
    WindowProfile,
    check_profile_dim,
    load_or_build_array,
    support_rule,
    unit_sphere_area,
)

#: the most points the position path's overlap may hold on a caller's z rule
#: (``window_overlap_1d``); the chain's arrays are fixed by its one rule
MAX_ARRAY_POINTS = 60_000_000
#: fewer radii than this cannot separate a power law from its transient
MIN_RADII = 6
#: the highest order of the position path (the oracle), whose overlap
#: separates into products of one array of window rows up to order 3
#: (``window_overlap_1d``)
MAX_POSITION_ORDER = 3


#: the (p_max, panels, nodes, graded_levels) of the chain's half-line rule at
#: every dimension n (``chain_rule``)
DEFAULT_QUAD = (120.0, 48, 10, 0)


#: a fitted exponent within this of 0 reads as a plateau, beyond it as growth or decay
EXPONENT_BAND = 0.1
#: the fewest decades of R a sweep's grid may span
MIN_DECADES = 1.75


@dataclass(frozen=True)
class ScalingConfig:
    """Numerical policy for scaling computations.

    ``alpha`` is the renormalization exponent of every analysis that
    renormalizes; unset, each state's marginal exponent (``alpha_for``).
    """

    r_values: tuple = tuple(float(r) for r in np.geomspace(8.0, 512.0, 8).round(10))
    alpha: float | None = None
    eps_vanish: float = 1e-8

    def alpha_for(self, state: TruncatedHierarchy) -> float:
        """``alpha`` when set, else the state's marginal exponent: gamma of a
        weighted state's order-2 weight (``weighted_gamma``), n/2 of any other."""
        if self.alpha is not None:
            return float(self.alpha)
        weights = state.weighted_orders
        if not weights:
            return state.dim / 2.0
        if 2 not in weights:
            raise InvalidArgumentError("a weighted model without an order-2 weight has no "
                                       "marginal exponent; set numeric.alpha")
        return weighted_gamma(state.dim, weights[2].alpha)

    def validate_r_grid(self) -> np.ndarray:
        r = np.asarray(self.r_values, dtype=float)
        if len(r) < MIN_RADII:
            raise InvalidArgumentError(f"need at least {MIN_RADII} R points, got {len(r)}")
        if not np.all(np.isfinite(r) & (r > 0)):
            raise InvalidArgumentError("R grid must be finite and positive")
        if np.any(np.diff(r) <= 0):
            raise InvalidArgumentError("R grid must be strictly increasing")
        decades = np.log10(r[-1] / r[0])
        if decades < MIN_DECADES:
            raise InvalidArgumentError(
                f"R grid spans {decades:.2f} decades; at least {MIN_DECADES} required"
            )
        return r

    def validate_tail(self, profile: WindowProfile, rule: Rule1D) -> float:
        """Quadrature-domain certificate: pair-integrand tail below eps_vanish/10.

        The bound is computed once per (profile, p_max) and kept in the chain
        cache, so the sweeps and one-radius calls of a run pay for it once."""
        bound = _memo(("tail", profile.dim, rule.p_max), lambda: pair_tail_bound(profile, rule.p_max))
        if bound > self.eps_vanish / 10.0:
            raise NumericalAccuracyError(
                f"window tail bound {bound:.3e} at p_max={rule.p_max} exceeds "
                f"eps_vanish/10 = {self.eps_vanish / 10.0:.3e}; raise eps_vanish",
                bound=bound,
            )
        return bound


def chain_rule(singular: bool = False) -> Rule1D:
    """The chain's half-line rule, DEFAULT_QUAD at every n, graded 16 levels
    toward 0 for a singular density; the cached ``half_panel_rule`` object.
    Being fixed, it fixes the chain's largest array too: the graded rule's
    q-mode first vector, 640 radii x 1,920 angles at n >= 2."""
    p_max, panels, nodes, graded_levels = DEFAULT_QUAD
    return half_panel_rule(p_max, panels, nodes, 16 if singular else graded_levels)


def pair_tail_bound(profile: WindowProfile, p_max: float) -> float:
    """integral of fhat(k)^2 over |k| > p_max along one axis: the trapezoid
    sum of the cached table over p_max < |k| <= K_MAX, plus fhat(K_MAX)^2 per
    side for the momenta beyond the table (one squared sample, not a bound
    on that tail), also when p_max >= K_MAX leaves no sum."""
    ks = K_GRID
    above = np.searchsorted(ks, p_max, side="right")  # the samples with k > p_max
    f2 = profile.fhat_samples[above:] ** 2
    return 2.0 * np.trapezoid(f2, ks[above:]) + 2.0 * np.square(profile.fhat_samples[-1])


# ---------------------------------------------------------------------------
# the radial chain: window kernel, first vector of an offset, contraction
# ---------------------------------------------------------------------------

#: the in-memory cache of what is keyed by n and a rule, and so bounded:
#: tail bounds, radial nodes, kernels, heat-kernel tables, folded rows and
#: overlaps, emptied by ``clear_caches``; no chain value is kept
_CHAIN_CACHE: dict = {}


def _memo(key: tuple, build):
    """The chain-cache value of ``key``, made by ``build()`` on a miss."""
    if key not in _CHAIN_CACHE:
        _CHAIN_CACHE[key] = build()
    return _CHAIN_CACHE[key]


def _kept_array(kind: str, profile: WindowProfile, stem: str, rule: Rule1D, shape: tuple, build) -> np.ndarray:
    """The read-only array ``build()`` makes on a rule, kept in memory and in
    the profile's window cache (``window.load_or_build_array``) as the file
    of the stem, the rule's key and the format version."""
    def load():
        name = f"{stem}{'_'.join(map(str, rule.key))}_v{CACHE_FORMAT_VERSION}.npy"
        array = load_or_build_array(profile.cache_dir, name, shape, build)
        array.flags.writeable = False
        return array

    return _memo((kind, profile.dim, stem, rule.key), load)


def _radial_nodes(profile: WindowProfile, rule: Rule1D):
    """fhat(r) and the radial measure w r^(n-1) at the nodes of a half-line rule (cached)."""
    return _memo(("radial", profile.dim, rule.key),
                 lambda: (profile.fourier_radial(rule.nodes), rule.weights * rule.nodes ** (profile.dim - 1)))


def window_product(profile: WindowProfile, rule: Rule1D) -> np.ndarray:
    """Radial kernel of the one chain, offsets or not, at n = profile.dim:
    read-only, kept in memory per (n, rule) and on disk in the profile's
    window cache (``_kept_array``).

    K[p, r] = integral over S^(n-1) of fhat(|p - r omega|) d omega on the
    radii of a half-line rule, an (N, N) matrix for every n.  The spherical
    mean of plane waves makes it one product over the window's position
    profile: K = (2 pi)^(-n/2) |S^(n-1)|^2 B diag(f(s) s^(n-1) w_s) B^T with
    B[p, s] = Omega_n(p s), on a rule over the support that resolves the
    frequency p + r <= 2 p_max.  Omega_n is cos, J_0 and sin(x)/x for
    n = 1, 2, 3 (``window.PLANE_WAVE_MEAN``); at n = 1 the sphere S^0 is the
    two points +-1, so K[p, r] = fhat(|p - r|) + fhat(p + r).  The weights
    are >= 0, as every window profile is, so B is scaled by their square
    root and K = B B^T, summed over column blocks of the support rule and
    added into K in row slabs (``_radial_kernel``).

    K depends on n and the rule alone, since there is one window.  The
    chain reads it once per step of each block of radii (``radial_chain``).
    """
    return _kept_array("kernel", profile, f"chain_n{profile.dim}_p", rule, (len(rule),) * 2,
                       lambda: _radial_kernel(profile.dim, rule))


#: support nodes per column block of ``_radial_kernel``, and kernel rows
#: per slab each block's product is added in
KERNEL_BLOCK = 64


def _radial_kernel(n: int, rule: Rule1D) -> np.ndarray:
    """K = B B^T of ``window_product``, built as the sum over column blocks
    B_j of KERNEL_BLOCK support nodes of B_j B_j^T, each added into K one
    slab of KERNEL_BLOCK rows at a time, K[i:i+64] += B_j[i:i+64] B_j^T, so
    the build holds K, one N x KERNEL_BLOCK block and one KERNEL_BLOCK x N
    slab, never the N x M basis nor a second N x N array.  An element of a
    slab is the same dot product of KERNEL_BLOCK terms as in the whole
    B_j B_j^T, to the bit, and K is exactly symmetric."""
    s, w, f = support_rule(2.0 * rule.p_max)
    scale = np.sqrt((2.0 * pi) ** (-n / 2.0) * unit_sphere_area(n) ** 2 * f * s ** (n - 1) * w)
    kernel = np.zeros((len(rule),) * 2)
    for j in range(0, len(s), KERNEL_BLOCK):
        block = PLANE_WAVE_MEAN[n](np.multiply.outer(rule.nodes, s[j:j + KERNEL_BLOCK]))
        block *= scale[j:j + KERNEL_BLOCK]
        for i in range(0, len(rule), KERNEL_BLOCK):
            kernel[i:i + KERNEL_BLOCK] += block[i:i + KERNEL_BLOCK] @ block.T
        del block  # so the next block's arguments never meet it
    return kernel


def _angle_panels(p_max: float) -> int:
    """Angle panels at radii up to p_max: one per cycle of fhat(|p - c e|), whose
    phase |p - c e| s moves by at most p_max SUPPORT_RADIUS per radian."""
    return ceil(p_max * SUPPORT_RADIUS / 2.0)


@cache
def _angle_rule(n: int, panels: int):
    """cos(theta), sin(theta) and weights of the mean over S^(n-1) of a
    function of the angle theta to a fixed axis: S^0 is the two points +-1;
    at n = 2, 3 the mean is |S^(n-2)|/|S^(n-1)| times the integral over
    [0, pi] of sin^(n-2) theta, on Gauss-Legendre panels."""
    if n == 1:
        return np.array([1.0, -1.0]), np.zeros(2), np.full(2, 0.5)
    theta, w = gauss_legendre_panels(0.0, pi, panels, SUPPORT_PANEL_NODES)
    sin = np.sin(theta)
    return np.cos(theta), sin, w * sin ** (n - 2) * unit_sphere_area(n - 1) / unit_sphere_area(n)


def _offset_vector(profile: WindowProfile, rule: Rule1D, phi, radius: float,
                   a: float, b: float) -> np.ndarray:
    """The first vector of the chain of offsets a e and b e on the first two
    observables, at the radii of the rule.

    Shifted by the net offset, p_i = q_i + c e with c = R (a + b), every
    window kernel, every later factor and the closing fhat are radial; only
    the first variable keeps E(p) = fhat(|p - c e|) phi(|p/R - b e|), which
    enters as its mean over the sphere.  With c = 0, fhat leaves the mean.
    """
    cos, sin, wt = _angle_rule(profile.dim, _angle_panels(rule.p_max))
    r = rule.nodes[:, None]
    e = phi(np.hypot(r * cos / radius - b, r * sin / radius))
    c = radius * (a + b)
    if c == 0:
        return _radial_nodes(profile, rule)[0] * (e @ wt)
    return (e * profile.fourier_radial(np.hypot(r * cos - c, r * sin))) @ wt


def clear_caches() -> None:
    _CHAIN_CACHE.clear()


#: radii per block of ``radial_chain``.  Each chain step multiplies the
#: kernel by the stacked [Re; Im] rows of one block, a 2 CHAIN_BLOCK x N
#: product whatever the grid's length: BLAS rounds a row of a product
#: differently for different row counts, but within one shape a row's bits
#: depend neither on its position nor on the other rows
CHAIN_BLOCK = 8


def radial_chain(profile: WindowProfile, rule: Rule1D, factors, radii,
                 offset: tuple[float, float] | None = None) -> np.ndarray:
    """The window chain of radial factors in n = profile.dim dimensions on a
    half-line rule at each radius of ``radii``, as a complex array.

    integral over (R^n)^(l-1) of fhat(|q_1|) phi_1(|q_1|/R) fhat(|q_2 - q_1|)
    phi_2(|q_2|/R) ... phi_{l-1}(|q_{l-1}|/R) fhat(|q_{l-1}|), with each
    factor phi_i a function of the radius.  Every vector of the chain is then
    radial: v_1 = fhat phi_1, v_i = ((v_{i-1} w r^(n-1)) @ K) phi_i with K the
    radial kernel of ``window_product``, and the integral is
    |S^(n-1)| sum v_{l-1} w r^(n-1) fhat.  At n = 1 the factors are even,
    |S^0| = 2 folds the line onto the half-line and the kernel is built
    with Omega_1 = cos.  Order 2 (one factor) needs no kernel.

    The radii run CHAIN_BLOCK at a time (``_chain_block``): l - 2 products
    of the kernel with one block of rows, the last block padded with zero
    rows, so a radius has the same value to the bit alone, in any grid and
    at any position in it.  Beyond K the chain holds one block of rows,
    whatever the grid's length, and it keeps no value: a caller that needs
    one twice reads it from the grid it holds.

    An ``offset`` pair (a, b) replaces v_1 by the spherical mean of a first
    factor that is not radial (``_offset_vector``): the rest is radial in q_1.
    """
    radii = [float(radius) for radius in radii]
    values = []
    for j in range(0, len(radii), CHAIN_BLOCK):
        values += _chain_block(profile, rule, factors, radii[j:j + CHAIN_BLOCK], offset)
    return np.array(values, dtype=complex)


def _chain_block(profile: WindowProfile, rule: Rule1D, factors, radii, offset):
    """The chain values of ``radial_chain`` at up to CHAIN_BLOCK radii: the
    vectors of all radii as the rows of one array, each kernel product one
    (2 CHAIN_BLOCK, N) @ (N, N) product of [Re; Im] with zero rows to fill."""
    fhat, measure = _radial_nodes(profile, rule)
    m = len(radii)
    u = rule.nodes / np.array(radii)[:, None]
    v = (fhat * factors[0](u) if offset is None
         else np.array([_offset_vector(profile, rule, factors[0], radius, *offset) for radius in radii]))
    rows = np.zeros((2 * CHAIN_BLOCK, len(rule)))
    for phi in factors[1:]:
        w = v * measure
        rows[:m], rows[CHAIN_BLOCK:CHAIN_BLOCK + m] = w.real, w.imag
        out = rows @ window_product(profile, rule)
        v = (out[:m] + 1j * out[CHAIN_BLOCK:CHAIN_BLOCK + m]) * phi(u)
    return [unit_sphere_area(profile.dim) * complex(total) for total in np.sum(v * measure * fhat, axis=1)]


# ---------------------------------------------------------------------------
# spectral-path correlators
# ---------------------------------------------------------------------------

def _prefactor(order: int, n: int, radius: float, alpha: float) -> float:
    """C_l R**(l (n - alpha) - (l-1) n) of the module formula."""
    return (2.0 * pi) ** (n * (2 - order) / 2.0) * radius ** (order * (n - alpha) - (order - 1) * n)


def check_order(state: TruncatedHierarchy, cfg: ScalingConfig, order: int,
                qmode: bool = False) -> Rule1D:
    """The half-line rule of an order (``chain_rule``), graded for a weighted
    order and a goldstone density: the one gate of every order, at parse and
    at run (``_correlator``).  It checks the order's range, and a weighted
    order's weight.

    A weighted order, the powerlaw's order 2 among them, runs the same
    chain (``heat_table``) on the graded rule and takes no ``qmode``
    offsets: W_l = (1 + s)^(-beta/2) is a superposition of Gaussians only
    for beta = p - alpha_l > 0.  The weight's peak is about 1/sqrt(beta/2)
    wide in ln tau, so at a large beta it slips between the nodes of
    TAU_RULE: each radius of the grid must lie within the rule's reach at
    that beta (``_gamma_density``, which ``_heat_sum`` reads), and there the
    sum of the weight with the closure's share, 1 in the integral, must lie
    within eps_vanish/10 of 1 (the sum's miss tracks the value's error).
    Computes no quadrature, so parsing runs it.
    """
    if order < 2 or order > state.max_order:
        raise OrderRangeError(f"order {order} outside 2..{state.max_order}")
    weight = state.weighted_orders.get(order)
    if weight is not None and qmode:
        raise UnsupportedModeError(f"weighted order {order} takes no q-mode offsets")
    if weight is not None and not weight.decay > 0:
        raise InvalidArgumentError(
            f"weighted order {order} has power <= alpha: (1 + s)^(-beta/2) with beta = {weight.decay} "
            "does not decay and is no superposition of Gaussians")
    if weight is not None:
        for radius in cfg.validate_r_grid():
            parts = _gamma_density(weight.decay / 2.0, radius)
            if parts is None:
                raise NumericalAccuracyError(
                    f"radius {radius:g} lies beyond the heat-kernel tau rule TAU_RULE = {TAU_RULE} "
                    f"at beta = {weight.decay}")
            miss = abs(panel_rule(*TAU_RULE)[1] @ parts[0] + parts[1] - 1.0)
            if miss > cfg.eps_vanish / 10.0:
                raise NumericalAccuracyError(
                    f"the heat-kernel tau rule TAU_RULE = {TAU_RULE} sums the Gamma(beta/2) weight at beta = "
                    f"{weight.decay} to {miss:.3e} off 1 at R = {radius:g}, beyond eps_vanish/10 = "
                    f"{cfg.eps_vanish / 10.0:.3e}", bound=miss)
    return chain_rule(singular=weight is not None or state.tag(2).kind == "goldstone")


def _check_points(points: int, what: str) -> None:
    """Raise when one array would hold more than MAX_ARRAY_POINTS points."""
    if points > MAX_ARRAY_POINTS:
        raise NumericalAccuracyError(f"{what} of {points} points exceeds the budget of {MAX_ARRAY_POINTS}")


def qmode_correlator(state: TruncatedHierarchy, profile: WindowProfile,
                     cfg: ScalingConfig, order: int, offsets,
                     radius: float, alpha: float | None = None) -> complex:
    """Order-l truncated correlator of scale-renormalized window averages.

    ``offsets`` is an (order, n) array of momentum offsets, one per
    observable slot, or None for all-zero.  Only a = offsets[0, 0] and
    b = offsets[1, 0] may be nonzero, which the ``qmode`` analysis sets:
    they become the first vector of the radial chain (``_offset_vector``),
    and zero ones give the None value to rounding.  A weighted order takes
    no offsets and reads its heat-kernel table.
    """
    return _at_radius(state, profile, cfg, order, alpha, radius, offsets)


def _at_radius(state: TruncatedHierarchy, profile: WindowProfile, cfg: ScalingConfig,
               order: int, alpha: float | None, radius: float, offsets=None) -> complex:
    """The correlator at one radius, a grid of one (``_correlator``), so it
    equals the sweep's value at that radius to the bit."""
    alpha = cfg.alpha_for(state) if alpha is None else float(alpha)
    if radius <= 0:
        raise InvalidArgumentError("radius must be positive")
    return _correlator(state, profile, cfg, order, alpha, offsets)((radius,))[0]


def _correlator(state: TruncatedHierarchy, profile: WindowProfile, cfg: ScalingConfig,
                order: int, alpha: float, offsets=None):
    """The correlator of an order as a function of a grid of radii, to the
    list of its values: the rule (``check_order``) and the tail certificate
    resolved once, then a weighted order's heat-kernel sum (``_heat_sum``)
    or, for any other, the offset pair and the factors resolved once and
    the window chain of the module formula on the rule at every radius of
    the grid in one call (``radial_chain``), on a profile of the state's dimension."""
    check_profile_dim(state, profile)
    n = state.dim
    rule = check_order(state, cfg, order, qmode=offsets is not None)
    cfg.validate_tail(profile, rule)
    if order in state.weighted_orders:
        return _heat_sum(state, profile, order, alpha, rule)
    pair = None if offsets is None else _offset_pair(offsets, order, n)
    fns = state.order_factors(order)
    if not fns:
        return lambda radii: [0j] * len(radii)
    return lambda radii: [_prefactor(order, n, radius, alpha) * complex(chain) for radius, chain
                          in zip(radii, radial_chain(profile, rule, fns, radii, pair))]


def _offset_pair(offsets, order: int, n: int) -> tuple[float, float]:
    """(a, b) = (offsets[0, 0], offsets[1, 0]), the only entries a caller sets."""
    offs = np.array(offsets, dtype=float)
    if offs.size != order * n:
        raise InvalidArgumentError(f"offsets must have shape ({order}, {n})")
    offs = offs.reshape(order, n)
    a, b = offs[0, 0], offs[1, 0]
    offs[0, 0] = offs[1, 0] = 0.0
    if np.any(offs):
        raise InvalidArgumentError("only offsets[0, 0] and offsets[1, 0] may be nonzero")
    return float(a), float(b)


# ---------------------------------------------------------------------------
# position-space path: the oracle of the spectral route, one-dimensional
# states and orders 2 and 3 only
# ---------------------------------------------------------------------------

#: (lo, hi, panels, nodes) of the overlap's Gauss-Legendre u rule
#: (``quadrature.panel_rule``), whose node N-1-i is -node i to the bit
U_RULE = (-GRID_EXTENT, GRID_EXTENT, 32, 12)


def check_position(dim: int, order: int) -> None:
    """Raise for what the position path (the oracle) does not run:
    UnsupportedModeError at n != 1, OrderRangeError for an order outside
    2..MAX_POSITION_ORDER.  Computes nothing, so parsing runs it."""
    if dim != 1:
        raise UnsupportedModeError(f"the position path (oracle) runs n = 1 only, not n = {dim}")
    if not 2 <= order <= MAX_POSITION_ORDER:
        raise OrderRangeError(f"the position path runs orders 2..{MAX_POSITION_ORDER}, not {order}")


#: z rows of ``_folded_rows`` evaluated at a time
FOLD_ROW_BLOCK = 16


def _folded_rows(profile: WindowProfile, z_rule: Rule1D) -> np.ndarray:
    """S[k, i] = f(|u_i + z_k|) + f(|u_i - z_k|) at the nodes z_k of a
    half-line z rule.

    Only the rows of z_k are evaluated: the u rule is mirrored to the bit,
    so the row of -z_k is row k reversed, bit for bit.  The window is
    evaluated FOLD_ROW_BLOCK rows at a time, point by point as in one call.
    """
    u = panel_rule(*U_RULE)[0]
    rows = np.empty((len(z_rule), len(u)))
    for k in range(0, len(z_rule), FOLD_ROW_BLOCK):
        a = profile.value(u + z_rule.nodes[k:k + FOLD_ROW_BLOCK, None])
        np.add(a, a[:, ::-1], out=rows[k:k + FOLD_ROW_BLOCK])
    return rows


def window_overlap_1d(profile: WindowProfile, order: int, z_rule: Rule1D) -> np.ndarray:
    """The folded window overlap on a half-line z rule, n = 1, orders 2 and 3.

    g_l(z) = integral over w of f(|w + T_1|)...f(|w + T_{l-1}|) f(|w|) dw
    with T_i = z_i + ... + z_{l-1}; the scaled observable positions are
    x_i = R (w + T_i), so the windowed overlap of the correlator at
    difference variables y is exactly R * g_l(y / R).  Every position form
    reads the radii |y_i|, so the position path needs g only through
    G(z) = wt(z_1)...wt(z_{l-1}) times the sum of g over the 2^(l-1) sign
    flips of z, at the rule's nodes: an (N,) * (l-1) array, checked against
    MAX_ARRAY_POINTS before it is built and kept in the chain cache per
    (profile, order, rule).

    With u = w + T_2 the integrand is f(|u + z_1|) f(|u|), times
    f(|u - z_2|) at l = 3, which separates z_1 from z_2:
    g = (A * c) @ B.T with A[z_1, u] = f(|u + z_1|), c[u] = f(|u|) wt(u)
    and B a row of ones (l = 2) or B[z_2, u] = f(|u - z_2|) (l = 3).  Summed
    over the sign of z_1 the rows of A are the folded rows S
    (``_folded_rows``); the row of z_2 in B is the row of -z_2 in A, so
    summed over the sign of z_2 it is S too and G = wt(z_1) wt(z_2)
    (S * c) @ S.T.  The factor f(|u|) confines the integrand to the window's
    support, so one fixed u rule on [-GRID_EXTENT, GRID_EXTENT] serves every
    z and no quadrature node depends on z.  G depends on the order and the
    z rule alone, so a profile with a ``cache_dir`` keeps it there
    (``_kept_array``).
    """
    check_position(1, order)
    _check_points(len(z_rule) ** (order - 1), "position-space array")
    return _kept_array("overlap", profile, f"overlap_n1_o{order}_z", z_rule, (len(z_rule),) * (order - 1),
                       lambda: _folded_overlap(profile, order, z_rule))


def _folded_overlap(profile: WindowProfile, order: int, z_rule: Rule1D) -> np.ndarray:
    """G of ``window_overlap_1d``, built from the folded rows of the z rule,
    which orders 2 and 3 share through the chain cache."""
    rows = _memo(("folded", profile.dim, z_rule.key), lambda: _folded_rows(profile, z_rule))
    u, wt = panel_rule(*U_RULE)
    sc = rows * (profile.value(u) * wt)
    # the z weights multiply one axis at a time: outer(wt, wt) * g rounds differently
    g = sc.sum(axis=1) if order == 2 else sc @ rows.T * z_rule.weights[:, None]
    g *= z_rule.weights
    return g


def oracle_z_rule() -> Rule1D:
    """Scaled-difference-variable rule shared by all radii of one oracle run;
    read-only.  Its 6 graded levels resolve correlator structure at scale
    1/R at the small radii the oracle comparisons use."""
    return half_panel_rule(2.0 * GRID_EXTENT, 24, 10, 6)


def position_space_correlator(state: TruncatedHierarchy, profile: WindowProfile,
                              cfg: ScalingConfig, order: int, radius: float,
                              alpha: float, *, z_rule: Rule1D | None = None) -> complex:
    """Direct multi-quadrature of the windowed correlator in position space.

    Independent of the spectral route: works from the position-space
    correlator form and the window's position profile only.  The value is
    R^(l(n-alpha)) * integral( W_l(R z) g_l(z) dz ) with n = 1 and l = 2
    or 3.  W_l reads the radii |y_i| (``TruncatedHierarchy``), so the sum
    runs over the half-line z rule against the folded overlap of
    ``window_overlap_1d``.
    """
    return _position_path(state, profile, order, alpha,
                          oracle_z_rule() if z_rule is None else z_rule)(radius)


def _position_path(state: TruncatedHierarchy, profile: WindowProfile, order: int,
                   alpha: float, z_rule: Rule1D):
    """``position_space_correlator`` as a function of R: the reach
    (``check_position``), the form and the overlap resolved once."""
    check_position(state.dim, order)
    form = state.position_form(order)
    g = window_overlap_1d(profile, order, z_rule)

    def value(radius):
        y = radius * z_rule.nodes
        radii = (y,) if order == 2 else (y[:, None], y)
        return radius ** (order * (1.0 - alpha)) * complex(np.sum(g * form(radii)))

    return value


# ---------------------------------------------------------------------------
# exponent fits and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingReport:
    """Sweep result: per-scale values, fitted power law and a verdict; its
    fields are the sweep's report keys (``report.plain``)."""

    order: int
    alpha: float
    offsets: tuple | None
    r_values: tuple
    values: tuple  # complex per R
    exponent: float | None
    fit_residual_rms: float | None
    points_used: int
    dropped_transient: bool
    verdict: str
    limit_value: complex
    limit_extrapolated: complex | None  # None for a diverging sweep, 0 for a vanishing one
    eps_vanish: float
    label: str = "correlator"
    abs_values: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "abs_values", tuple(abs(v) for v in self.values))


def fit_loglog(r_values, values, floor_rel: float = 1e-13):
    """Least-squares fit of log|value| against log R.

    Points at or below the relative floor are excluded; the smallest-R point
    is dropped and the fit redone when its residual exceeds 3x the fit RMS
    (transient regime of an asymptotic law).
    Returns (exponent | None, rms | None, points_used, dropped_transient).
    """
    r = np.asarray(r_values, dtype=float)
    mags = np.abs(np.asarray(values, dtype=complex))
    floor = max(mags.max(initial=0.0) * floor_rel, 1e-290)
    mask = mags > floor
    if mask.sum() < 2:
        return None, None, int(mask.sum()), False
    lr, lm = np.log(r[mask]), np.log(mags[mask])

    def lsq(x, y):
        A = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ coef
        rms = float(np.sqrt(np.mean(resid ** 2)))
        return float(coef[0]), rms, resid

    exponent, rms, resid = lsq(lr, lm)
    dropped = False
    if len(lr) >= 4:
        rest_rms = float(np.sqrt(np.mean(resid[1:] ** 2)))
        if rest_rms > 0 and abs(resid[0]) > 3.0 * rest_rms:
            exponent, rms, _ = lsq(lr[1:], lm[1:])
            dropped = True
            return exponent, rms, len(lr) - 1, dropped
    return exponent, rms, len(lr), dropped


def aitken_limit(values) -> complex:
    """Aitken delta-squared estimate of the sweep limit from the last 3 values.

    Exact power-law decay on a geometric grid extrapolates to 0; a plateau
    extrapolates to itself.  Falls back to the last value when the
    difference denominator degenerates.
    """
    v = np.asarray(values, dtype=complex)
    if len(v) < 3:
        return complex(v[-1])
    a, b, c = v[-3], v[-2], v[-1]
    den = c - 2 * b + a
    scale = max(abs(a), abs(b), abs(c), 1e-300)
    if abs(den) < 1e-9 * scale:
        return complex(c)
    return complex(c - (c - b) ** 2 / den)


def richardson_limit(r_values, values) -> complex:
    """Richardson estimate with the local power from the last two magnitudes.

    For a sequence C R^p (1 + O(R^-2)) the leading power cancels exactly,
    leaving only the correction scale; for a plateau it returns the plateau.
    """
    v = np.asarray(values, dtype=complex)
    r = np.asarray(r_values, dtype=float)
    if len(v) < 2 or abs(v[-2]) == 0 or abs(v[-1]) == 0:
        return complex(v[-1])
    rho = r[-1] / r[-2]
    p = np.log(abs(v[-1]) / abs(v[-2])) / np.log(rho)
    factor = rho ** p
    if abs(1.0 - factor) < 1e-9:
        return complex(v[-1])
    return complex((v[-1] - factor * v[-2]) / (1.0 - factor))


def limit_estimate(r_values, values, exponent) -> complex:
    """Consistent limit estimator: Richardson on decaying trends, Aitken else."""
    if exponent is not None and exponent < -EXPONENT_BAND:
        return richardson_limit(r_values, values)
    return aitken_limit(values)


def classify(exponent, r_values, values, eps_vanish: float) -> tuple[str, complex]:
    """Verdict per the finite-scale decision rules; returns (verdict, limit_est)."""
    est = limit_estimate(r_values, values, exponent)
    if exponent is None:
        return "vanishing", est
    if exponent < -EXPONENT_BAND and abs(est) < eps_vanish:
        return "vanishing", est
    if abs(exponent) <= EXPONENT_BAND and abs(est) >= 10.0 * eps_vanish:
        return "finite-nonzero", est
    if exponent > EXPONENT_BAND:
        return "diverging", est
    return "undetermined", est


def exponent_sweep(state: TruncatedHierarchy, profile: WindowProfile, cfg: ScalingConfig,
                   order: int, alpha: float | None = None, offsets=None,
                   label: str = "correlator") -> ScalingReport:
    """Resolve the correlator once, as a function of the R grid
    (``_correlator``), then evaluate it on the grid and fit the scaling
    exponent."""
    alpha = cfg.alpha_for(state) if alpha is None else float(alpha)
    values = _correlator(state, profile, cfg, order, alpha, offsets)
    return sweep_report(cfg, values, order, alpha, offsets, label)


def sweep_report(cfg: ScalingConfig, values, order: int, alpha: float, offsets=None,
                 label: str = "correlator") -> ScalingReport:
    """A function of a grid of radii, to the sequence of its values, called
    once on the validated R grid; the values fitted and classified."""
    r = cfg.validate_r_grid()
    return build_report(r, values(tuple(float(radius) for radius in r)), order, alpha, offsets, cfg, label)


def build_report(r, vals, order, alpha, offsets, cfg: ScalingConfig, label: str) -> ScalingReport:
    """The fit and verdict of a sweep's values, which must be finite: the fit would mask the rest."""
    bad = np.flatnonzero(~np.isfinite(np.asarray(vals, dtype=complex)))
    if bad.size:
        raise NumericalAccuracyError(f"the {label} sweep is not finite at R = {float(r[bad[0]])}")
    exponent, rms, used, dropped = fit_loglog(r, vals)
    verdict, est = classify(exponent, r, vals, cfg.eps_vanish)
    return ScalingReport(
        order=order,
        alpha=float(alpha),
        offsets=None if offsets is None else tuple(tuple(map(float, np.atleast_1d(o))) for o in np.atleast_2d(offsets)),
        r_values=tuple(float(x) for x in r),
        values=tuple(complex(v) for v in vals),
        exponent=exponent,
        fit_residual_rms=rms,
        points_used=used,
        dropped_transient=dropped,
        verdict=verdict,
        limit_value=complex(vals[-1]),
        # a diverging sweep has no limit and a vanishing one has limit 0; the
        # estimate of either would be rounding noise
        limit_extrapolated={"diverging": None, "vanishing": 0j}.get(verdict, est),
        eps_vanish=cfg.eps_vanish,
        label=label,
    )


# ---------------------------------------------------------------------------
# square-integrable clustering: exponent window and vanishing thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaWindow:
    """Open-closed admissible interval (lo, hi] for the scaling exponent."""

    lo_open: float
    hi_closed: float

    def contains(self, alpha: float) -> bool:
        return self.lo_open < alpha <= self.hi_closed


def l2_alpha_window(dim: int) -> AlphaWindow:
    """Admissible exponents for square-integrable clustering: (n/2, 3n/4]."""
    if dim < 1:
        raise InvalidArgumentError("dimension must be >= 1")
    return AlphaWindow(dim / 2.0, 0.75 * dim)


@dataclass(frozen=True)
class L2VanishingThreshold:
    dim: int
    alpha: float
    l0: int

    def verdict(self, order: int) -> str:
        """Per-order statement of the square-integrable bound for l >= 3."""
        if order < 3:
            raise OrderRangeError("thresholds apply to orders >= 3")
        margin = order * (2.0 * self.alpha - self.dim) - self.dim
        if margin > 1e-12:
            return "vanishes"
        if abs(margin) <= 1e-12:
            return "finite"
        return "not-guaranteed-by-the-bound"


def l2_vanishing_threshold(dim: int, alpha: float) -> L2VanishingThreshold:
    """Smallest order whose vanishing the square-integrable estimate guarantees.

    Orders l with l (2 alpha - n) > n are guaranteed to vanish; equality
    gives a finite (bounded) value; smaller orders are not controlled.
    """
    window = l2_alpha_window(dim)
    if not (window.lo_open < alpha <= window.hi_closed):
        raise InvalidArgumentError(
            f"alpha={alpha} outside the admissible window ({window.lo_open}, {window.hi_closed}]"
        )
    gap = 2.0 * alpha - dim
    l0 = max(3, int(np.floor(dim / gap)) + 1)
    while l0 * gap <= dim + 1e-12:
        l0 += 1
    return L2VanishingThreshold(dim=dim, alpha=float(alpha), l0=l0)


def find_critical_alpha(state: TruncatedHierarchy, profile: WindowProfile,
                        cfg: ScalingConfig, lo: float, hi: float) -> float:
    """The alpha at which the fitted 2-point sweep exponent is zero.

    The renormalization is a pure prefactor R^(-2 alpha), and neither the
    floor mask nor the transient test of the fit changes under it, so the
    fitted exponent is exactly e(alpha) = e(lo) - 2 (alpha - lo): one sweep
    at ``lo`` gives the zero crossing lo + e(lo)/2, the unique scale at
    which the sweep verdict is finite-nonzero.  The bracket must contain
    it: e(lo) >= 0 >= e(hi).
    """
    rep = exponent_sweep(state, profile, cfg, 2, alpha=lo)
    if rep.exponent is None:
        raise NumericalAccuracyError("sweep values below floor at the bracket's low end")
    e_lo = rep.exponent
    e_hi = e_lo - 2.0 * (hi - lo)
    if e_lo < 0 or e_hi > 0:
        raise InvalidArgumentError(
            f"alpha bracket invalid: exponent({lo}) = {e_lo:.3f}, exponent({hi}) = {e_hi:.3f}"
        )
    return lo + e_lo / 2.0


# ---------------------------------------------------------------------------
# weighted (poor-clustering) regime
# ---------------------------------------------------------------------------

def weighted_gamma(dim: int, alpha2: float) -> float:
    """Renormalization exponent fixed by the 2-point weight: gamma = (n + alpha_2)/2.

    Under it the order-l scaling prefactor is marginal at the weight exponent
    alpha_l = l gamma - n = ((l-2) n + l alpha_2)/2, the bound that the
    sufficient vanishing condition alpha_l <= (l-1) alpha_2 (with
    alpha_2 < n) keeps to.
    """
    if alpha2 < 0:
        raise InvalidArgumentError("alpha_2 must be >= 0")
    return (dim + alpha2) / 2.0


#: (lo, hi, panels, nodes) of the Gauss-Legendre rule in ln tau of every
#: heat-kernel table.  Half-width panels move the 09a and 09b values by
#: 4.4e-16 relative, and half-width panels on [-20, 30] by 3.9e-11, the
#: closure's share; the graded chain rule resolves the Gaussian factors
#: down to about tau = e^-20
TAU_RULE = (-18.0, 22.0, 40, 10)
#: the largest share of the Gamma(beta/2) weight of ``_heat_sum`` that the
#: top of the tau rule may cut off
TAU_CUTOFF = 1e-15


def heat_table(profile: WindowProfile, order: int, rule: Rule1D) -> np.ndarray:
    """G_l(tau) at the nodes of TAU_RULE, n = profile.dim: read-only, kept in
    memory per (n, order, rule) and on disk in the profile's window cache
    (``_kept_array``).

    G_l(tau) = integral over (R^n)^(l-1) of exp(-tau sum |z_i|^2) g_l(z) dz,
    with g_l the overlap of l windows at R = 1, is C_l times the chain with
    l - 1 factors (pi/tau)^(n/2) exp(-|q|^2/(4 tau)), the plain transform of
    exp(-tau |y|^2): ``radial_chain`` at R = sqrt(tau) with the factor
    exp(-u^2/4) of u = |q|/R (``_gaussian``).  It depends on n, l, the
    window and the rules alone, not on alpha, beta or R.
    """
    return _kept_array("heat", profile, f"heat_n{profile.dim}_o{order}_p", rule, (TAU_RULE[2] * TAU_RULE[3],),
                       lambda: _heat_table(profile, order, rule))


def _gaussian(u):
    """The Gaussian factor of ``heat_table``."""
    return np.exp(-0.25 * u * u)


def _heat_table(profile: WindowProfile, order: int, rule: Rule1D) -> np.ndarray:
    """G_l of ``heat_table``, its constants (pi/tau)^(n/2) and C_l taken out of the chain."""
    n = profile.dim
    tau = np.exp(panel_rule(*TAU_RULE)[0])
    chain = radial_chain(profile, rule, (_gaussian,) * (order - 1), np.sqrt(tau)).real
    return (2.0 * pi) ** (n * (2 - order) / 2.0) * (pi / tau) ** (n * (order - 1) / 2.0) * chain


def _upper_gamma_bound(a: float, x: float) -> float:
    """A bound on Q(a, x) = Gamma(a, x) / Gamma(a), the share of the
    Gamma(a) density beyond x > max(a - 1, 0): x^(a-1) e^(-x) / Gamma(a),
    over 1 - (a - 1)/x when a > 1."""
    return exp((a - 1.0) * log(x) - x - lgamma(a)) / (1.0 - max(a - 1.0, 0.0) / x)


def _lower_gamma_ratio(a: float, x: float) -> float:
    """P(a, x) = gamma(a, x) / Gamma(a), the regularized lower incomplete
    gamma function, for 0 < x <= 1: x^a e^(-x) / Gamma(a) times the sum over
    k of x^k / (a (a+1) ... (a+k)), whose terms fall faster than 1/k!."""
    term = total = 1.0 / a
    k = 0
    while term > 1e-17 * total:
        k += 1
        term *= x / (a + k)
        total += term
    return exp(a * log(x) - x - lgamma(a)) * total


def _heat_sum(state: TruncatedHierarchy, profile: WindowProfile, order: int, alpha: float,
              rule: Rule1D):
    """A weighted order's correlator as a function of a grid of radii, to
    the list of its values (``_correlator``): the heat-kernel table on the
    order's rule and the decay resolved once, then one weighted sum per
    radius.

    With W_l = (1 + s)^(-beta/2) = Gamma(a)^(-1) integral of t^(a-1) e^(-t) e^(-t s) dt,
    a = beta/2, and sigma = t, tau = sigma R^2,

        value(R) = R^(l(n-alpha)) Gamma(a)^(-1) integral_0^inf sigma^(a-1) e^(-sigma) G_l(sigma R^2) dsigma:

    the weighted sum over the nodes of TAU_RULE, in ln tau, and below its
    lowest edge tau_0 the closure G_l(0) P(a, tau_0/R^2), with
    G_l(0) = ((2 pi)^(n/2) fhat(0))^l (``_lower_gamma_ratio``).  The
    weights are taken in logarithms, so no power of tau or R overflows.

    G_l is positive and falls with tau, so the part of the integral beyond
    the rule's top tau_1 is at most the share Q(a, tau_1/R^2) of the
    Gamma(a) weight there.  A radius at which that share may exceed
    TAU_CUTOFF (``_upper_gamma_bound``), about R = 10^4 at a <= 1 and less
    for a larger a, or one below e^(lo/2), where tau_0/R^2 passes 1 and the
    closure would carry the bulk of the integral, raises
    NumericalAccuracyError.
    """
    n = state.dim
    table = heat_table(profile, order, rule)
    a = state.weighted_orders[order].decay / 2.0
    summand = panel_rule(*TAU_RULE)[1] * table
    at_zero = profile.volume_integral() ** order

    def value(radius):
        parts = _gamma_density(a, radius)
        if parts is None:
            raise NumericalAccuracyError(
                f"radius {radius} lies beyond the heat-kernel tau rule [e^{TAU_RULE[0]:g}, e^{TAU_RULE[1]:g}] "
                f"at beta = {2.0 * a}")
        return complex(radius ** (order * (n - alpha)) * (summand @ parts[0] + at_zero * parts[1]))

    return lambda radii: [value(radius) for radius in radii]


def _gamma_density(a: float, radius: float):
    """The Gamma(a) density of sigma = tau/R^2 in ln tau at the nodes of
    TAU_RULE and its share P(a, tau_0/R^2) below the rule, which the closure
    carries; None where the rule does not hold the weight (``_heat_sum``)."""
    log_tau = panel_rule(*TAU_RULE)[0]
    log_r2 = 2.0 * log(radius)
    top = exp(TAU_RULE[1] - log_r2)
    if log_r2 < TAU_RULE[0] or top <= max(a - 1.0, 0.0) or _upper_gamma_bound(a, top) > TAU_CUTOFF:
        return None
    return (np.exp(a * (log_tau - log_r2) - np.exp(log_tau) / radius ** 2 - lgamma(a)),
            _lower_gamma_ratio(a, exp(TAU_RULE[0] - log_r2)))


def weighted_correlator(state: TruncatedHierarchy, profile: WindowProfile,
                        cfg: ScalingConfig, order: int, gamma: float,
                        radius: float) -> complex:
    """Correlator of an order with a polynomial weight, renormalized by R^-gamma:
    the one-radius call of the heat-kernel sum (``_heat_sum``), at
    n = 1, 2, 3 and every order of the chain."""
    if order not in state.weighted_orders:
        raise UnsupportedModeError(f"order {order} carries no weighted correlator")
    return _at_radius(state, profile, cfg, order, gamma, radius)
