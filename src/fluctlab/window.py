"""Smooth radial cutoff windows and their Fourier transforms.

A window is a radial profile f(s) with f(s) = 1 for s <= 1 and f(s) = 0 for
s >= 2; the spatial cutoff at scale R is f_R(x) = f(|x|/R).  Under the
transform convention used for test functions,

    fhat(k) = (2*pi)**(-n/2) * integral( exp(-i k.x) f(|x|) d^n x ),

the scale family obeys the exact identity  fhat_R(k) = R**n * fhat(R*k),
which is what every scaling computation in the package leans on.

The one window is the mollified step: the indicator of the ball of radius
STEP_EDGE convolved with a C-infinity bump, exactly 1 on the ball of radius a
and exactly 0 beyond b (``EDGE``).  It has one position-space form, the exact
evaluator ``_profile_evaluator``: ``WindowProfile.value`` reads it, and so do
the transform build and ``support_rule``.  The cached transform is the ball's
closed form a^n ball_fhat(a k) plus a Gauss-Legendre quadrature over the
edge [a, b] alone.  At n = 1 and 3 the edge sum over the uniform momentum
grid splits exp(i k s) into block and offset phases and is one matrix
product of sines and cosines (``uniform_edge_transform``).  At n = 2 the
projection-slice theorem turns the transform into one of a line: fhat_2(k)
is (2 pi)^(-1/2) times the n = 1 transform of the projection
P(x) = int f(sqrt(x^2 + t^2)) dt (``line_projection``), which is the same
matrix product over a rule on [0, b], so no Bessel function is evaluated.
The table is fhat on one fixed momentum grid, ``K_GRID``, so a profile is
its dimension alone.  Between the cached momenta it is read by the 10-point
Lagrange interpolant ``lagrange_uniform``, exact at the nodes.  At the nodes
of the graded chain rule it misses the direct quadrature by at most 1.3e-15
of fhat(0) beyond k = 0.3, but below by up to 6.5e-14, 3.2e-14 and 1.5e-14
at n = 1, 2, 3 (worst near k = 0.02), where the stencil is one-sided: a
known defect (ROADMAP, "``fourier_radial`` near k = 0").

Convention summary (pinned once, here):

* test functions / windows: symmetric convention above (real, even fhat);
* correlator evaluators elsewhere in the package: plain transform
  ``S(k) = integral( W(y) exp(+i k.y) d^(...)y )`` with no prefactor.

With this split every closed-form limit in the package holds with unit
constant, e.g. the 2-point limit is exactly  S(0) * integral fhat(k)fhat(-k).
"""

from __future__ import annotations

import io
import os
import re
import tempfile
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import gamma as _gamma_fn
from math import ceil, comb, factorial, pi, prod, sqrt
from pathlib import Path

import numpy as np

from .errors import FluctlabError, InvalidArgumentError
from .quadrature import gauss_legendre_edges, gauss_legendre_panels

#: the format version in the name of every file of the window cache: the
#: profile tables of ``load_or_build``, the chain kernels of
#: ``scaling.window_product``, the heat-kernel tables of
#: ``scaling.heat_table`` (radial chains since 13) and the folded overlaps
#: of ``scaling.window_overlap_1d``.  Any change to the window's shape
#: (``_profile_evaluator``), to ``make_profile``'s table, to ``support_rule``,
#: to the kernel, the heat-kernel table or the overlap formula, to the ln tau
#: rule of the tables (``scaling.TAU_RULE``) or to the overlap's u rule
#: (``scaling.U_RULE``) must bump it, so that no file of the old content is
#: read
CACHE_FORMAT_VERSION = 13

# geometry of the mollified step: indicator of the ball of radius STEP_EDGE
# convolved with a bump of half-width BUMP_HALFWIDTH, so the plateaus are
# exactly 1 on [0, STEP_EDGE - BUMP_HALFWIDTH] and 0 beyond
# STEP_EDGE + BUMP_HALFWIDTH.
STEP_EDGE = 1.5
BUMP_HALFWIDTH = 0.25
#: (a, b): only the edge between the two plateaus needs a formula and a quadrature
EDGE = (STEP_EDGE - BUMP_HALFWIDTH, STEP_EDGE + BUMP_HALFWIDTH)
SUPPORT_RADIUS = 2.0
#: radial extent of the position-space rules: the support plus a margin of 0.5
GRID_EXTENT = 2.5

#: the read-only momentum grid of every transform table: fhat_R(k) = R^n fhat(R k),
#: so one table per dimension serves every R.  K_SAMPLES = 10 x PHASE_ROW_BLOCK
#: x PHASE_BLOCK fills whole blocks of ``uniform_edge_transform``
K_MAX = 640.0
K_SAMPLES = 10240
K_GRID = np.linspace(0.0, K_MAX, K_SAMPLES)
K_GRID.flags.writeable = False


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (2, 2*pi, 4*pi for n=1,2,3)."""
    return 2.0 * pi ** (n / 2.0) / _gamma_fn(n / 2.0)


#: node offsets of the stencil of ``lagrange_uniform`` and their barycentric
#: weights (-1)^j C(9, j): the interpolant has degree 9
_STENCIL = np.arange(10)
_BARYCENTRIC = np.array([(-1) ** j * comb(9, j) for j in _STENCIL], dtype=float)
#: points interpolated at once, which bounds the (points, 10) temporaries
#: near 160 kB each; a point's value does not depend on the block
_INTERP_BLOCK = 2048


def lagrange_uniform(grid, table, x) -> np.ndarray:
    """Interpolate ``table``, sampled on the uniform ``grid``, at x in [grid[0], grid[-1]].

    The 10-point Lagrange polynomial through the nodes nearest x, in
    barycentric form; near either end the stencil shifts to stay inside the
    table.  At a node the sample itself is returned.
    """
    x = np.asarray(x, dtype=float)
    flat, out = x.ravel(), np.empty(x.size)
    for i in range(0, x.size, _INTERP_BLOCK):
        out[i : i + _INTERP_BLOCK] = _lagrange_block(grid, table, flat[i : i + _INTERP_BLOCK])
    return out.reshape(x.shape)


def _lagrange_block(grid, table, x):
    last = len(grid) - 1
    t = (x - grid[0]) * (last / (grid[-1] - grid[0]))
    nearest = np.minimum(np.maximum(np.rint(t).astype(np.intp), 0), last)
    start = np.minimum(np.maximum(np.floor(t).astype(np.intp) - 4, 0), last - 9)
    base = table[nearest]
    # t - start is exact, so a zero denominator means t is a node; the
    # differences from the nearest sample keep a constant stretch exact and
    # the rounding relative to the table's local variation
    with np.errstate(divide="ignore", invalid="ignore"):
        c = _BARYCENTRIC / ((t - start)[:, None] - _STENCIL)
        diff = table[start[:, None] + _STENCIL] - base[:, None]
        out = base + np.einsum("ij,ij->i", c, diff) / np.add.reduce(c, axis=1)
    return np.where((t == nearest) | (x == grid[nearest]), base, out)


def _bump_cdf(halfwidth: float, samples: int = 2001):
    """CDF of the normalized C-infinity bump exp(-1/(1-(u/h)^2)) on [-h, h].

    A table on ``samples`` uniform points whose every interval is integrated
    by 16-node Gauss-Legendre, so it is exact to rounding; read by
    ``lagrange_uniform``.
    """
    u = np.linspace(-halfwidth, halfwidth, samples)
    x, w = gauss_legendre_panels(-halfwidth, halfwidth, samples - 1, 16)
    mass = (w * np.exp(-1.0 / (1.0 - (x / halfwidth) ** 2))).reshape(samples - 1, 16).sum(axis=1)
    cdf = np.concatenate([[0.0], np.cumsum(mass)])
    cdf /= cdf[-1]
    return lambda v: lagrange_uniform(u, cdf, v)


@dataclass(frozen=True)
class WindowProfile:
    """Radial cutoff profile with cached radial Fourier transform.

    Immutable after construction; all evaluators are pure, so concurrent
    reads are safe.
    """

    dim: int
    #: fhat at the momenta of K_GRID, fixed by ``dim``, so not compared
    fhat_samples: np.ndarray = field(compare=False, repr=False)
    #: the window cache directory the table was read from or written to
    #: (``load_or_build``), where the arrays of ``load_or_build_array`` are
    #: kept; None for a profile of ``make_profile``
    cache_dir: Path | None = field(default=None, compare=False, repr=False)

    # -- position space ----------------------------------------------------

    def value(self, s) -> np.ndarray:
        """Radial profile f(|s|), in [0, 1] and exactly 0 beyond the support.

        Read from the exact evaluator the cached transform is built from.
        """
        return _profile_evaluator()(np.abs(np.asarray(s, dtype=float)))

    def volume_integral(self) -> float:
        """integral of f(|x|) over R^n, which is (2 pi)^(n/2) fhat(0)."""
        return (2.0 * pi) ** (self.dim / 2.0) * self.fhat_zero()

    # -- momentum space ----------------------------------------------------

    def fourier_radial(self, kappa) -> np.ndarray:
        """fhat at radial momentum |k| = kappa (real; even by construction).

        Beyond K_MAX it is extrapolated as 0.
        """
        kappa = np.abs(np.asarray(kappa, dtype=float))
        out = lagrange_uniform(K_GRID, self.fhat_samples, np.minimum(kappa, K_MAX))
        return np.where(kappa > K_MAX, 0.0, out)

    def fhat_zero(self) -> float:
        return float(self.fhat_samples[0])

    def pair_overlap_integral(self) -> float:
        """integral over R^n of fhat(k) fhat(-k) = integral |fhat|^2 (real even fhat).

        By Plancherel it is the integral of f(|x|)^2, which the plateau
        gives in closed form: |S^(n-1)| (a^n/n + sum w f(s)^2 s^(n-1)), the
        sum over the panels of ``transform_rule`` on the edge [a, b] with the
        exact profile values."""
        a, b = EDGE
        s, w = transform_rule(a, b)
        edge = float(np.sum(w * _profile_evaluator()(s) ** 2 * s ** (self.dim - 1)))
        return unit_sphere_area(self.dim) * (a ** self.dim / self.dim + edge)

    # -- serialization -----------------------------------------------------

    @staticmethod
    def from_cache_file(path: str | Path) -> "WindowProfile":
        """Read a profile that ``load_or_build`` wrote: the dimension from the
        name ``window_n<dim>_v<format>.npy``, the table from the file and its
        directory as the ``cache_dir``.  Another name or format version, or a
        table of another length or type, raises InvalidArgumentError; a file
        that is no .npy table raises ValueError."""
        path = Path(path)
        match = _CACHE_NAME.fullmatch(path.name)
        if match is None:
            raise InvalidArgumentError(f"{path.name!r} is not a window cache file name")
        dim, version = map(int, match.groups())
        check_dim(dim)
        if version != CACHE_FORMAT_VERSION:
            raise InvalidArgumentError(f"window cache format {version} not supported")
        return WindowProfile(dim, load_cache_array(path, (K_SAMPLES,)), path.parent)


def check_profile_dim(state, profile: WindowProfile) -> None:
    """Raise InvalidArgumentError unless the profile has the ``dim`` of the
    state, model or family: every integral on it reads n from the profile."""
    if profile.dim != state.dim:
        raise InvalidArgumentError(f"the state or model is of dimension {state.dim}, "
                                   f"the window profile of dimension {profile.dim}")


def save_cache_array(path: Path, array: np.ndarray) -> None:
    """Write ``array`` as a bare .npy file at path, beside it first and then
    renamed over it, so no reader sees a partial file.  The file gets the
    mode of a plain open, 0o666 less the umask, not mkstemp's 0o600, so a
    shared cache directory is readable to all its users.  A file that
    cannot be written raises FluctlabError naming the path."""
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                np.save(fh, array)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise FluctlabError(f"cannot write window cache file {path}: {exc}") from exc


def load_cache_array(path: Path, shape: tuple) -> np.ndarray:
    """The float64 array of ``shape`` that ``save_cache_array`` wrote at path.

    The file is read against the exact bytes of the header ``np.save``
    writes for a C-ordered native float64 array of ``shape``
    (``_npy_header``), and its data with one ``np.fromfile``: the .npy
    parser of ``np.lib.format.read_array`` reads the header through
    ``ast.literal_eval``, and read the 80 KB window table in 48 us (median,
    2 cores) where this reads it in 16 us.  No memory map: a file cut short
    under one would end the process with SIGBUS.  A file with another
    header (another shape, type, byte order, memory order or format
    version) raises InvalidArgumentError, one with fewer or more data bytes
    ValueError and one that cannot be opened OSError: to a cache, each of
    them is a miss.
    """
    header = _npy_header(shape)
    count = prod(shape)
    with open(path, "rb", buffering=0) as fh:
        if fh.read(len(header)) != header:
            raise InvalidArgumentError(
                f"window cache file {path.name} is no C-ordered {shape} float64 .npy table")
        array = np.fromfile(fh, dtype=np.float64, count=count)
        if array.size != count or fh.read(1):
            raise ValueError(f"window cache file {path.name} does not hold exactly {count} values")
    return array.reshape(shape)


@lru_cache(maxsize=None)
def _npy_header(shape: tuple) -> bytes:
    """The magic, version 1.0 and padded header ``np.save`` writes before a
    C-ordered native float64 array of ``shape``."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(buffer, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
        "fortran_order": False, "shape": shape})
    return buffer.getvalue()


def load_or_build_array(cache_dir: Path | None, name: str, shape: tuple, build) -> np.ndarray:
    """The array of ``shape`` kept as ``name`` in the window cache cache_dir:
    read back whole (``load_cache_array``), or else made by ``build()`` and
    written (``save_cache_array``); with no cache_dir, built and not written."""
    if cache_dir is None:
        return build()
    path = cache_dir / name
    try:
        return load_cache_array(path, shape)
    except (OSError, ValueError):  # a miss, InvalidArgumentError included
        array = build()
        save_cache_array(path, array)
        return array


_CACHE_NAME = re.compile(r"window_n(\d+)_v(\d+)\.npy")


@lru_cache(maxsize=None)
def _profile_evaluator():
    """The exact radial evaluator, vectorized s >= 0 -> f(s), built once:
    1 on [0, a], one minus the bump CDF at s - STEP_EDGE on the edge, 0 from b on.

    The edge is clipped to [0, 1]: ``scaling.window_product`` takes square
    roots of f on the support.
    """
    a, b = EDGE
    cdf = _bump_cdf(BUMP_HALFWIDTH)

    def exact(s):
        s = np.asarray(s, dtype=float)
        f = np.where(s <= a, 1.0, 0.0)
        mid = (s > a) & (s < b)
        f[mid] = np.clip(1.0 - cdf(s[mid] - STEP_EDGE), 0.0, 1.0)
        return f

    return exact


def _sin_over_x(x, out=None):
    """sin(x)/x for x >= 0, 1 at x = 0; x is overwritten."""
    np.maximum(x, 1e-300, out=x)  # sin(x)/x rounds to 1 long before this
    out = np.sin(x, out=out)
    return np.divide(out, x, out=out)


def _bessel_j0(x, out=None):
    """J_0, imported on first use: scipy.special is the largest piece of the
    package's import, and only the n = 2 radial kernel of
    ``scaling.window_product`` reads it."""
    from scipy.special import j0

    return j0(x, out=out)


#: Omega_n(x, out=None): the mean of the plane wave exp(i x omega.e) over
#: omega in S^(n-1), for x >= 0.  x may be overwritten; out, when given, is
#: an array other than x that receives the values.  S^0 = {-1, 1}, so
#: Omega_1 is cos; Omega_2 is J_0 and Omega_3 is sin(x)/x
PLANE_WAVE_MEAN = {1: np.cos, 2: _bessel_j0, 3: _sin_over_x}


def _radial_coefficients(dim, s_nodes, s_weights, f_vals):
    """c_s = (2 pi)^(-n/2) |S^(n-1)| w f s^(n-1): fhat(k) = sum_s c_s Omega_n(k s)."""
    prefactor = (2.0 * pi) ** (-dim / 2.0) * unit_sphere_area(dim)
    return prefactor * s_weights * f_vals * s_nodes ** (dim - 1)


#: offsets r per block of ``uniform_edge_transform``: momentum index j = q B + r
PHASE_BLOCK = 128
#: most nodes ``uniform_edge_transform`` multiplies at once: the edge rule
#: of the mollified step, so its (2 S, B) offset phase matrix stays
#: near 1 MB on the longer rules of n = 2
EDGE_CHUNK = 544
#: block-phase rows per product of ``uniform_edge_transform``, formed this
#: many at a time: every product has one shape, whose rounding does not
#: depend on the BLAS thread count, and the (rows, 2 S) block phases stay
#: small at every n
PHASE_ROW_BLOCK = 8


def uniform_edge_transform(dim: int, s_nodes, s_weights, f_vals) -> np.ndarray:
    """The radial transform sum_s c_s Omega_n(k s) at n = 1 or 3
    (``_radial_coefficients``) on the uniform grid k_j = j dk of K_GRID.

    With j = q B + r (B = PHASE_BLOCK) the plane wave splits into a block and
    an offset phase, exp(i k_j s) = exp(i q B dk s) exp(i r dk s), so the
    table is the product of a (blocks, 2 S) matrix [cos, sin](q B dk s) by a
    (2 S, B) matrix of offset cosines and sines, summed over chunks of at
    most EDGE_CHUNK nodes: its real part is sum_s c_s cos(k s) (n = 1), and
    the imaginary part of sum_s (c_s / s) exp(i k s), divided by k, is
    sum_s c_s sin(k s)/(k s) (n = 3).  At k = 0 the table is sum_s c_s at
    both n.  About (blocks + B) 2 S sines and cosines replace the K S of the
    direct sum.  n = 2 reaches it through the line projection
    (``make_profile``).  On the rule of ``make_profile`` the table
    is within 4.1e-15 of fhat(0) of the direct sum.  Against a long-double
    sum it is 1.1e-15 to 1.7e-15 of fhat(0) off at n = 1, where the direct
    sum is 1.8e-15 to 3.6e-15 off, and 4.2e-16 to 6.5e-16 off at n = 3,
    where the direct sum is 2.8e-16 to 3.4e-16 off.

    The product runs as products of PHASE_ROW_BLOCK rows of block phases,
    each formed as it is multiplied (``_phase_product``): every product has
    one shape, so the table's bits do not depend on the BLAS thread count at
    any n.
    """
    c = _radial_coefficients(dim, s_nodes, s_weights, f_vals)
    dk = K_MAX / (K_SAMPLES - 1)
    table = np.zeros((K_SAMPLES // PHASE_BLOCK, PHASE_BLOCK))
    parts = -(-len(s_nodes) // EDGE_CHUNK)
    for s, cs in zip(np.array_split(s_nodes, parts), np.array_split(c, parts)):
        _phase_product(table, dim, s, cs if dim == 1 else cs / s, dk)
    table = table.ravel()
    if dim == 3:
        table[1:] /= K_GRID[1:]
    table[0] = np.sum(c)
    return table


def _phase_product(table, dim, s_nodes, weights, dk) -> None:
    """Add one chunk of ``uniform_edge_transform`` into the (blocks, B)
    ``table``: the weighted block phases times the offset phases,
    PHASE_ROW_BLOCK block phases formed and multiplied at a time."""
    nodes = len(s_nodes)
    # Re (cos Q + i sin Q)(cos r + i sin r) = cos Q cos r - sin Q sin r and
    # Im = cos Q sin r + sin Q cos r
    offsets = np.empty((2, nodes, PHASE_BLOCK))
    phase = np.multiply.outer(s_nodes, dk * np.arange(PHASE_BLOCK), out=offsets[1])
    if dim == 1:
        np.cos(phase, out=offsets[0])
        np.negative(np.sin(phase, out=phase), out=phase)
    else:
        np.sin(phase, out=offsets[0])
        np.cos(phase, out=phase)
    offsets = offsets.reshape(2 * nodes, PHASE_BLOCK)
    starts = np.empty((PHASE_ROW_BLOCK, 2, nodes))
    for j in range(0, len(table), PHASE_ROW_BLOCK):
        phase = np.multiply.outer(PHASE_BLOCK * dk * np.arange(j, j + PHASE_ROW_BLOCK), s_nodes,
                                  out=starts[:, 1])
        np.cos(phase, out=starts[:, 0])
        np.sin(phase, out=phase)
        starts *= weights
        table[j:j + PHASE_ROW_BLOCK] += starts.reshape(PHASE_ROW_BLOCK, 2 * nodes) @ offsets


#: Taylor coefficients in x^2 of j_1(x)/x = (sin x - x cos x)/x^3,
#: (-1)^m (2m + 2)/(2m + 3)!; nine terms reach rounding below x = 1
_BALL3_SERIES = np.array([(-1) ** m * (2 * m + 2) / factorial(2 * m + 3) for m in range(9)])


def ball_fhat(dim: int, x) -> np.ndarray:
    """Closed-form transform of the unit-ball indicator at radial momentum x.

    x^(-n/2) J_{n/2}(x): sqrt(2/pi) sin(x)/x and sqrt(2/pi) j1(x)/x for
    n = 1 and 3, the dimensions whose transform ``make_profile`` builds on
    the ball.  j1(x)/x = (sin x - x cos x)/x^3 is the spherical Bessel
    function, summed as its Taylor series below x = 1, where the closed form
    cancels: within 6e-16 relative there.  At n = 1 the x^2 term is under
    rounding below x = 1e-8, so the value at 0 is used there.  The ball of
    radius a has a^n ball_fhat(a k).
    """
    x = np.asarray(x, dtype=float)
    if dim == 3:
        small = x < 1.0
        safe = np.where(small, 1.0, x)
        closed = (np.sin(safe) - safe * np.cos(safe)) / safe ** 3
        series = np.polynomial.polynomial.polyval(x * x, _BALL3_SERIES)
        return sqrt(2.0 / pi) * np.where(small, series, closed)
    safe = np.where(x > 1e-8, x, 1.0)
    return np.where(x > 1e-8, sqrt(2.0 / pi) * np.sin(safe) / safe, sqrt(2.0 / pi))


#: Gauss-Legendre nodes per panel of ``support_rule``
SUPPORT_PANEL_NODES = 16
#: fewest panels of the edge [a, b] of ``support_rule``, which the
#: variation of f needs at any frequency: at frequency 16 the cycles alone
#: give the edge 2 panels, and sum w f s^(n-1) misses its value by 1.5e-10
#: (n = 2) and 4.5e-10 (n = 3) relative; with 20 it is within one unit in
#: the last place from frequency 8 to 240.  The default frequency 240 gives
#: the edge 20 panels by cycles, so its kernels do not depend on this floor
SUPPORT_EDGE_PANELS = 20


def _support_panels(frequency: float):
    """(lo, hi, panels) of each piece of ``support_rule``: one panel per two
    cycles of exp(i frequency s) on the plateau [0, a], where f s^(n-1) is a
    polynomial, and one per cycle on the edge, with at least
    SUPPORT_EDGE_PANELS there.  At the default frequency 240 that is
    24 + 20 panels, 704 nodes."""
    a, b = EDGE
    plateau = ceil(frequency * a / (4.0 * pi))
    edge = ceil(frequency * (b - a) / (2.0 * pi))
    return [(0.0, a, plateau), (a, b, max(edge, SUPPORT_EDGE_PANELS))]


@lru_cache(maxsize=None)
def support_rule(frequency: float):
    """Gauss-Legendre nodes, weights and exact profile values over the support [0, b].

    The rule is split at the edge a (``EDGE``), so f is smooth on each
    piece; a panel spans at most two cycles of exp(i frequency s) on the
    plateau and one on the edge, which has at least SUPPORT_EDGE_PANELS
    panels (``_support_panels``).  The values come from
    the exact evaluator that the transform and ``value`` read.  Built once
    per frequency; the arrays are read-only.
    """
    pieces = [gauss_legendre_panels(lo, hi, panels, SUPPORT_PANEL_NODES)
              for lo, hi, panels in _support_panels(frequency)]
    s = np.concatenate([x for x, _ in pieces])
    out = s, np.concatenate([w for _, w in pieces]), _profile_evaluator()(s)
    for arr in out:
        arr.flags.writeable = False
    return out


#: 16-node Gauss-Legendre panels per unit length of ``transform_rule``:
#: one per 1.5 cycles of exp(i K_MAX s), 85 on [0, a] and 34 on the edge
TRANSFORM_PANEL_DENSITY = 68


def transform_rule(lo: float, hi: float):
    """Composite Gauss-Legendre nodes and weights over [lo, hi], at the panel
    width ``make_profile`` integrates the edge with: TRANSFORM_PANEL_DENSITY
    panels of 16 nodes per unit length, rounded up."""
    return gauss_legendre_panels(lo, hi, ceil(TRANSFORM_PANEL_DENSITY * (hi - lo)), 16)


#: kernel entries ``line_projection`` holds at once
_PROJECTION_BLOCK = 16384


def line_projection(x) -> np.ndarray:
    """P(x) = integral of f(sqrt(x^2 + t^2)) over t in R, for 0 <= x <= b:
    the window profile integrated along a line at distance x from the centre.

    f is 1 below a, so with r = sqrt(x^2 + t^2)

        P(x) = 2 sqrt(b^2 - x^2) - 2 int_{max(a, x)}^b (1 - f(r)) r / sqrt(r^2 - x^2) dr,

    the chord of the ball of radius b less the deficit of the edge.  The
    deficit is read on the panels of ``transform_rule(a, b)``, with
    the exact f.  The panels that start at least one panel width h above x
    hold no singularity, and their 16-node Gauss-Legendre sum reads the
    same f values for every x.  Up to
    there, from max(a, x), t = sqrt(r^2 - x^2) removes the inverse square
    root: 16-node Gauss-Legendre in t on two panels of width at most h in
    r, with f evaluated afresh.  For x <= a - h the shared panels are the
    whole edge.
    """
    a, b = EDGE
    exact = _profile_evaluator()
    x = np.asarray(x, dtype=float)
    panels = ceil(TRANSFORM_PANEL_DENSITY * (b - a))
    s, w = transform_rule(a, b)
    r_edges = np.linspace(a, b, panels + 1)
    h = (b - a) / panels
    lo = np.maximum(a, x)
    # the first panel edge at least h above x, and the start of the shared panels
    top = r_edges[np.clip(np.ceil((x + h - a) / h), 0, panels).astype(int)]
    deficit = _deficit_on_rule(x, top, s, (1.0 - exact(s)) * s * w)
    near = top > lo
    deficit[near] += _deficit_substituted(x[near], lo[near], top[near], exact)
    return 2.0 * np.sqrt(b * b - x * x) - 2.0 * deficit


def _deficit_on_rule(x, top, s, g):
    """sum of g_s / sqrt(s^2 - x^2) over the nodes s >= top, for each x, in row chunks."""
    out = np.empty(len(x))
    rows = max(1, _PROJECTION_BLOCK // len(s))
    for i in range(0, len(x), rows):
        block = x[i : i + rows]
        kernel = np.subtract(s * s, (block * block)[:, None])
        kernel[s < top[i : i + rows, None]] = np.inf
        np.divide(1.0, np.sqrt(kernel, out=kernel), out=kernel)
        np.matmul(kernel, g, out=out[i : i + rows])
    return out


def _deficit_substituted(x, lo, hi, exact):
    """int (1 - f(sqrt(x^2 + t^2))) dt over [sqrt(lo^2 - x^2), sqrt(hi^2 - x^2)]
    on two panels equally spaced in r (x <= lo < hi), in row chunks."""
    out = np.empty(len(x))
    rows = _PROJECTION_BLOCK // 32
    for i in range(0, len(x), rows):
        part = slice(i, i + rows)
        x2 = (x[part] * x[part])[:, None]
        r = lo[part, None] + (hi - lo)[part, None] * np.array([0.0, 0.5, 1.0])
        t, wt = gauss_legendre_edges(np.sqrt(r * r - x2), 16)
        out[part] = np.sum((1.0 - exact(np.sqrt(x2 + t * t))) * wt, axis=1)
    return out


def check_dim(dim: int) -> None:
    """The argument check of make_profile, without building anything."""
    if dim not in (1, 2, 3):
        raise InvalidArgumentError(f"dimension {dim} not supported (use 1, 2 or 3)")


def make_profile(dim: int) -> WindowProfile:
    """Build the WindowProfile of dimension dim, its transform on K_GRID.

    The profile is exactly 1 on the ball of radius a and exactly 0 beyond b,
    (a, b) = EDGE.  At n = 1 and 3 its transform is the ball's closed
    form a^n ball_fhat(a k) plus the edge [a, b], which composite
    Gauss-Legendre integrates from the exact radial profile, dense enough
    for K_MAX (``transform_rule``); the edge sum over the uniform momentum
    grid is one matrix product of block and offset phases
    (``uniform_edge_transform``), within 4.1e-15 of fhat(0) of the direct
    sum.  At n = 2 a radial f has fhat_2(k) = (2 pi)^(-1/2) times the n = 1
    transform of its line projection P (projection-slice theorem), so the
    table is that same product over the panels of ``transform_rule`` on
    [0, a] and on [a, b], with P from ``line_projection``: within 2.2e-15 of
    fhat(0) of the ball's closed form plus the edge sum of J_0.  At every n
    the product runs in products of PHASE_ROW_BLOCK rows of block phases,
    whose bits do not depend on the BLAS thread count; a whole product's
    do.  The profile keeps no position samples: ``value`` reads the same
    exact evaluator.
    Between cache nodes the transform is read by the 10-point Lagrange
    interpolant ``lagrange_uniform``: beyond k = 0.3 it misses the direct
    quadrature by at most 1.3e-15 of fhat(0) at n = 1, 2, 3, and below it
    by up to 6.5e-14, the known defect the module docstring names.
    """
    check_dim(dim)
    a, b = EDGE
    if dim == 2:
        x, w = map(np.concatenate, zip(transform_rule(0.0, a), transform_rule(a, b)))
        fhat = uniform_edge_transform(1, x, w, line_projection(x)) / sqrt(2.0 * pi)
    else:
        fhat = a ** dim * ball_fhat(dim, a * K_GRID)
        s_nodes, s_weights = transform_rule(a, b)
        fhat += uniform_edge_transform(dim, s_nodes, s_weights, _profile_evaluator()(s_nodes))
    return WindowProfile(dim, fhat)


def load_or_build(dim: int, cache_dir: str | Path | None = None) -> WindowProfile:
    """Fetch the profile of dimension dim from the cache directory, building
    and caching it on a miss.

    The table is the file ``window_n<dim>_v<format>.npy``; one that
    ``WindowProfile.from_cache_file`` cannot read back whole is rebuilt
    and rewritten (``save_cache_array``).  A cache directory that
    cannot be made, or a file that cannot be written, raises FluctlabError.
    The profile's ``cache_dir`` is the directory, read or written.
    """
    if cache_dir is None:
        return make_profile(dim)
    cache_dir = Path(cache_dir)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FluctlabError(f"cannot create window cache directory {cache_dir}: {exc}") from exc
    path = cache_dir / f"window_n{dim}_v{CACHE_FORMAT_VERSION}.npy"
    if path.exists():
        try:
            return WindowProfile.from_cache_file(path)
        except (OSError, ValueError):  # a miss, InvalidArgumentError included
            pass
    prof = replace(make_profile(dim), cache_dir=cache_dir)
    save_cache_array(path, prof.fhat_samples)
    return prof
