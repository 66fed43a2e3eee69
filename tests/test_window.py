import math
from dataclasses import replace

import numpy as np
import pytest

from fluctlab import window
from fluctlab.errors import InvalidArgumentError
from fluctlab.quadrature import gauss_legendre_panels, half_panel_rule
from fluctlab.window import (
    CACHE_FORMAT_VERSION,
    K_GRID,
    K_MAX,
    WindowProfile,
    ball_fhat,
    lagrange_uniform,
    load_or_build,
    make_profile,
    unit_sphere_area,
)

from conftest import traced_peak

SQRT_2PI = np.sqrt(2.0 * np.pi)
#: marks tests whose reference is summed in np.longdouble
EXTENDED = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                              reason="np.longdouble has no extended precision here")
#: the one window kind, named in the ids of the tests of its transform
KIND = pytest.mark.parametrize("kind", ["mollified-step"])


class TestPositionProfile:
    def test_plateaus(self, profile1):
        assert profile1.value(0.0) == 1.0
        assert profile1.value(1.0) == 1.0
        assert profile1.value(2.5) == 0.0
        assert profile1.value(3.7) == 0.0

    def test_range(self, profile1):
        s = np.linspace(0, 3, 1201)
        vals = profile1.value(s)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    @KIND
    def test_value_is_the_exact_evaluator(self, kind, profile1):
        # value, the transform and the radial kernel read one profile: at the
        # nodes of support_rule, value returns its f bitwise
        s, _, f = window.support_rule(32.0)
        assert np.array_equal(profile1.value(s), f)
        assert np.array_equal(profile1.value(-s), f)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @KIND
    def test_volume_integral_is_the_position_quadrature(self, kind, dim, profile1, profile2, profile3):
        # (2 pi)^(n/2) fhat(0) against the plateau a^n / n plus 400 x 30
        # Gauss-Legendre over the edge
        prof = (profile1, profile2, profile3)[dim - 1]
        a, b = window.EDGE
        s, w = gauss_legendre_panels(a, b, 400, 30)
        volume = unit_sphere_area(dim) * math.fsum([a ** dim / dim, *(w * prof.value(s) * s ** (dim - 1))])
        assert prof.volume_integral() == pytest.approx(volume, rel=5e-16, abs=0.0)
        fhat_zero = (2.0 * np.pi) ** (-dim / 2.0) * volume
        assert prof.fhat_zero() == pytest.approx(fhat_zero, rel=5e-16, abs=0.0)

    def test_unsupported_dimension(self):
        with pytest.raises(InvalidArgumentError):
            make_profile(4)

    def test_unknown_kind(self, profile1, tmp_path):
        # the one window has no kind in its cache file name, so a name that
        # states a kind is no cache file name
        path = tmp_path / f"window_n1_v{CACHE_FORMAT_VERSION}.npy"
        window.save_cache_array(path, profile1.fhat_samples)
        for kind in ("smoothstep", "mollified-step"):
            path = path.rename(path.with_name(f"window_{kind}_n1_v{CACHE_FORMAT_VERSION}.npy"))
            with pytest.raises(InvalidArgumentError, match="cache file name"):
                WindowProfile.from_cache_file(path)


class TestFourier:
    def test_zero_frequency_is_volume(self, profile1):
        # fhat(0) = (2 pi)^(-1/2) * integral f; the integral over [-1, 1]
        # alone already gives 2
        s = np.linspace(0, 2.5, 200001)
        direct = np.trapezoid(profile1.value(s), s) * 2.0
        assert profile1.fhat_zero() == pytest.approx(direct / SQRT_2PI, rel=1e-8)
        assert profile1.fhat_zero() >= 2.0 / SQRT_2PI

    def test_evenness(self, profile1):
        ks = np.array([0.3, 1.7, 5.2, 11.0])
        assert np.array_equal(profile1.fourier_radial(ks), profile1.fourier_radial(-ks))

    def test_midgrid_matches_direct_quadrature(self, profile1):
        # independent oracle: trapezoidal oscillatory integral over the
        # exact profile samples (different rule than the cache build)
        s = np.linspace(0.0, window.GRID_EXTENT, 16384)
        f = profile1.value(s)
        for kappa in (0.77, 1.618, 3.33):
            direct = np.sqrt(2 / np.pi) * np.trapezoid(np.cos(kappa * s) * f, s)
            assert profile1.fourier_radial(kappa) == pytest.approx(direct, rel=1e-8)

    def test_dim2_and_dim3_reduction(self, profile2, profile3):
        # radial transforms agree with the generic reduction formula
        s, w = np.linspace(0, 2.5, 100001), None
        f2 = profile2.value(s)
        kappa = 1.3
        from scipy.special import j0

        direct2 = np.trapezoid(j0(kappa * s) * f2 * s, s)
        assert profile2.fourier_radial(kappa) == pytest.approx(direct2, rel=1e-7)
        f3 = profile3.value(s)
        direct3 = np.sqrt(2 / np.pi) * np.trapezoid(np.sin(kappa * s) * f3 * s, s) / kappa
        assert profile3.fourier_radial(kappa) == pytest.approx(direct3, rel=1e-7)

    def test_plancherel(self, profile1, profile2, profile3):
        # integral of fhat^2 over the transform table, and of f(|x|)^2 on a
        # plain position rule, against the closed form of pair_overlap_integral
        for prof in (profile1, profile2, profile3):
            k, wk = gauss_legendre_panels(0.0, K_MAX, 512, 12)
            table = unit_sphere_area(prof.dim) * np.sum(wk * prof.fourier_radial(k) ** 2 * k ** (prof.dim - 1))
            s, w = gauss_legendre_panels(0.0, window.GRID_EXTENT, 64, 16)
            l2 = unit_sphere_area(prof.dim) * np.sum(w * prof.value(s) ** 2 * s ** (prof.dim - 1))
            assert table == pytest.approx(prof.pair_overlap_integral(), rel=1e-14)
            assert l2 == pytest.approx(prof.pair_overlap_integral(), rel=1e-13)

    def test_pair_overlap_reads_no_table(self, profile2):
        # the closed form reads the position profile alone: a zeroed table
        # and a table of noise give the same bits
        for table in (np.zeros_like(profile2.fhat_samples),
                      np.random.default_rng(3).normal(size=profile2.fhat_samples.shape)):
            other = replace(profile2, fhat_samples=table)
            assert other.pair_overlap_integral() == profile2.pair_overlap_integral()

    def test_rapid_decrease_envelope(self, profile1):
        # |fhat| (1+k)^m bounded on the cached range for all m <= 8, with a
        # genuine interior turnover for m <= 6 (the m = 7, 8 turnover scale
        # lies beyond the cache; boundedness with the computed constant is
        # the certified statement there)
        k = K_GRID[K_GRID > 1.0]
        vals = np.abs(profile1.fourier_radial(k))
        for m in range(1, 9):
            weighted = vals * (1.0 + k) ** m
            c_m = float(np.max(weighted))
            assert np.isfinite(c_m)
            assert np.all(vals <= c_m * (1.0 + k) ** (-m) * (1 + 1e-12))
            if m <= 6:
                peak = np.argmax(weighted)
                assert k[peak] < 0.75 * K_MAX
                assert np.max(weighted[k > 0.9 * K_MAX]) < 0.8 * c_m

    def test_tail_modes(self, profile1):
        beyond = K_MAX * 1.5
        assert profile1.fourier_radial(beyond) == 0.0


class TestScalingLaw:
    def test_large_radius_below_envelope(self, profile1):
        # f(|x|/R) has the transform R^n fhat(R k): at R = 10, k = 1 it stays
        # below R^n times the envelope sup_{k' >= R k} |fhat(k')| of the table
        radius = 10.0
        val = radius * profile1.fourier_radial(radius * 1.0)
        envelope = np.max(np.abs(profile1.fhat_samples[K_GRID >= radius]))
        assert abs(val) <= radius * envelope * (1 + 1e-9)


class TestSerialization:
    def test_cache_round_trip(self, profile1, tmp_path):
        load_or_build(1, tmp_path)
        [path] = tmp_path.iterdir()
        assert path.name == f"window_n1_v{CACHE_FORMAT_VERSION}.npy"
        # a bare table: the dimension lives in the name
        assert np.array_equal(np.load(path), profile1.fhat_samples)
        loaded = WindowProfile.from_cache_file(path)
        assert (loaded.dim, loaded.cache_dir) == (1, tmp_path)
        ks = np.linspace(0, 30, 301)
        assert np.allclose(loaded.fourier_radial(ks), profile1.fourier_radial(ks), rtol=0, atol=0)

    def test_version_check(self, profile1, tmp_path):
        path = tmp_path / f"window_n1_v{CACHE_FORMAT_VERSION}.npy"
        window.save_cache_array(path, profile1.fhat_samples)
        other = path.rename(path.with_name(path.name.replace(f"_v{CACHE_FORMAT_VERSION}.", "_v999.")))
        with pytest.raises(InvalidArgumentError, match="format 999"):
            WindowProfile.from_cache_file(other)
        with pytest.raises(InvalidArgumentError, match="cache file name"):
            WindowProfile.from_cache_file(path.with_name("prof.npy"))

    def test_load_or_build_uses_cache(self, tmp_path):
        one = load_or_build(1, cache_dir=tmp_path)
        files = list(tmp_path.glob("*.npy"))
        assert len(files) == 1
        two = load_or_build(1, cache_dir=tmp_path)
        assert np.array_equal(one.fhat_samples, two.fhat_samples)
        assert list(tmp_path.glob("*.npy")) == files

    # the dimension is the one argument of a profile: the transform grid
    # is fixed (K_GRID), so no k_max or k_resolution case is left
    @pytest.mark.parametrize("changed", [{"dim": 2}, {"dim": 3}])
    def test_load_or_build_rebuilds_on_other_arguments(self, tmp_path, changed):
        one = load_or_build(1, cache_dir=tmp_path)
        two = load_or_build(changed["dim"], cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.npy"))) == 2
        assert not np.array_equal(one.fhat_samples, two.fhat_samples)
        fresh = make_profile(changed["dim"])
        assert np.array_equal(two.fhat_samples, fresh.fhat_samples)
        assert not list(tmp_path.glob("*.tmp"))


class TestPlateauAndEdge:
    """The closed-form plateau plus the edge quadrature equals the full radial rule."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @KIND
    def test_equals_full_rule(self, kind, dim):
        prof = make_profile(dim)
        # the rule that used to cover all of [0, 2.5], plateau included
        s, w = window.transform_rule(0.0, 2.5)
        exact = window._profile_evaluator()
        direct = radial_fourier_direct(dim, s, w, exact(s), K_GRID)
        assert np.max(np.abs(prof.fhat_samples - direct)) <= 1e-14

    def test_transform_rule_panel_counts(self):
        # 16-node panels, one per 1.5 cycles of exp(i K_MAX s): the table's
        # bits rest on 85 panels on [0, a] and 34 on the edge [a, b]
        a, b = window.EDGE
        assert [len(window.transform_rule(lo, hi)[0]) for lo, hi in ((0.0, a), (a, b))] == [85 * 16, 34 * 16]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_ball_transform_small_argument(self, dim):
        # x^(-n/2) J_{n/2}(x) = c_n (1 - x^2/(2(n+2)) + x^4/(8(n+2)(n+4)) - ...);
        # for n = 3 that is (1/3)(1 - x^2/10 + x^4/280) up to sqrt(2/pi)
        def series(x):
            lead = 2.0 ** (-dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
            return lead * (1.0 - x ** 2 / (2 * (dim + 2)) + x ** 4 / (8 * (dim + 2) * (dim + 4)))

        x = np.array([0.0, 1e-12, 1e-8, 1.25e-8, 3e-8, 1e-6, 1e-5, 1.25e-5, 1e-4, 1e-3, 1e-2])
        assert np.allclose(ball_fhat(dim, x), series(x), rtol=1e-14, atol=0.0)

    @EXTENDED
    def test_ball_transform_n3_is_the_spherical_bessel_function(self):
        # the Taylor series below x = 1 and (sin x - x cos x)/x^3 above it,
        # against the closed form in extended precision
        x = np.concatenate([np.geomspace(0.05, 6.0, 3001), np.linspace(6.0, 1300.0, 3000)])
        xl = x.astype(np.longdouble)
        reference = np.sqrt(2.0 / np.pi) * (np.sin(xl) - xl * np.cos(xl)) / xl ** 3
        assert np.max(np.abs(ball_fhat(3, x) - reference)) <= 1e-15 * ball_fhat(3, 0.0)

    def test_old_cache_format_is_rebuilt(self, tmp_path):
        # the format version is part of the name, so a file of an older
        # format is never read; a damaged table of this one is rebuilt
        fresh = load_or_build(2, cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.npy")
        assert path.name.endswith(f"_v{CACHE_FORMAT_VERSION}.npy") and CACHE_FORMAT_VERSION == 13
        table = path.read_bytes()
        damage = {
            "truncated": lambda: path.write_bytes(table[:-8]),
            "short": lambda: np.save(path, fresh.fhat_samples[:1000]),
            "float32": lambda: np.save(path, fresh.fhat_samples.astype(np.float32)),
            "empty": lambda: path.write_bytes(b""),
            "zip": lambda: path.write_bytes(b"PK\x03\x04"),
            # files np.load reads as the table, which save_cache_array never writes
            "trailing bytes": lambda: path.write_bytes(table + bytes(8)),
            "big-endian": lambda: np.save(path, fresh.fhat_samples.astype(">f8")),
            "version 2.0": lambda: write_npy(path, fresh.fhat_samples, version=(2, 0)),
        }
        for name, write in damage.items():
            write()
            again = load_or_build(2, cache_dir=tmp_path)
            assert np.array_equal(again.fhat_samples, fresh.fhat_samples), name
            assert path.read_bytes() == table, name
        # a 2-D table in Fortran order holds the right values in another
        # memory order, which a warm product could round differently from a
        # cold one: it is rebuilt C-ordered
        kernel = np.arange(12.0).reshape(3, 4)
        kernel_path = tmp_path / "chain.npy"
        window.load_or_build_array(tmp_path, kernel_path.name, (3, 4), kernel.copy)
        kernel_table = kernel_path.read_bytes()
        np.save(kernel_path, np.asfortranarray(kernel))
        again = window.load_or_build_array(tmp_path, kernel_path.name, (3, 4), kernel.copy)
        assert again.flags.c_contiguous and np.array_equal(again, kernel)
        assert kernel_path.read_bytes() == kernel_table

    def test_smoothstep_order_names_no_mollified_step_file(self, profile1, tmp_path):
        # no smoothness term names the file any more: a table under a name
        # that states the kind and a smoothness is neither read nor touched,
        # and the profile is built beside it
        stale = tmp_path / "window_mollified-step_n1_s64_k640.0_m10240_v9.npy"
        np.save(stale, np.zeros(10240))
        prof = load_or_build(1, cache_dir=tmp_path)
        assert np.array_equal(prof.fhat_samples, profile1.fhat_samples)
        assert {p.name for p in tmp_path.glob("*.npy")} == {
            f"window_n1_v{CACHE_FORMAT_VERSION}.npy", stale.name}
        assert not np.any(np.load(stale))


def write_npy(path, array, **kwargs):
    """Write ``array`` as a .npy file at path through ``np.lib.format.write_array``."""
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, array, **kwargs)


def ball_transform(dim, x):
    """The unit ball's transform at every n: ``ball_fhat`` at n = 1 and 3,
    and J_1(x)/x at n = 2, where make_profile reads no ball."""
    if dim != 2:
        return ball_fhat(dim, x)
    from scipy.special import j1

    x = np.asarray(x, dtype=float)
    safe = np.where(x > 1e-8, x, 1.0)
    return np.where(x > 1e-8, j1(safe) / safe, 0.5)


def radial_fourier_direct(dim, s_nodes, s_weights, f_vals, kappa):
    """Direct radial transform of sampled f at any momenta kappa, the
    reference of the matrix products of make_profile.

    (2 pi)^(-n/2) |S^(n-1)| sum_s Omega_n(k s) f s^(n-1) w: one
    matrix-vector product per chunk of momenta, through two buffers reused
    across chunks.
    """
    kappa = np.abs(np.atleast_1d(np.asarray(kappa, dtype=float)))
    c = window._radial_coefficients(dim, s_nodes, s_weights, f_vals)
    chunk = 256  # two (chunk, len(s_nodes)) buffers, 1-2 MB each on K_GRID
    out = np.empty(len(kappa))
    x_buf = np.empty((min(chunk, len(kappa)), len(s_nodes)))
    omega_buf = np.empty_like(x_buf)
    for i in range(0, len(kappa), chunk):
        k = kappa[i : i + chunk]
        x, omega = x_buf[: len(k)], omega_buf[: len(k)]
        np.multiply.outer(k, s_nodes, out=x)
        window.PLANE_WAVE_MEAN[dim](x, out=omega)
        np.matmul(omega, c, out=out[i : i + len(k)])
    return out


def elementwise_transform(dim, s, w, f, kappa):
    """The radial transform as an elementwise sum over an (M, N) kernel array."""
    k, s = np.asarray(kappa)[:, None], s[None, :]
    if dim == 1:
        return np.sqrt(2.0 / np.pi) * np.sum(w * f * np.cos(k * s), axis=1)
    if dim == 2:
        from scipy.special import j0

        return np.sum(w * f * s * j0(k * s), axis=1)
    ks = k * s
    kern = np.where(ks > 1e-12, np.sin(ks) / np.where(ks > 1e-12, ks, 1.0), 1.0)
    return np.sqrt(2.0 / np.pi) * np.sum(w * f * s ** 2 * kern, axis=1)


#: the one transform grid, K_GRID, named in the ids of the tests of the uniform transform
GRIDS = pytest.mark.parametrize("grid", ["default"])


def edge_rule():
    """The edge nodes, weights and exact profile values make_profile transforms."""
    s, w = window.transform_rule(*window.EDGE)
    return s, w, window._profile_evaluator()(s)


def whole_product_transform(dim, s_nodes, s_weights, f_vals):
    """``window.uniform_edge_transform`` at n = 1 or 3 as one (blocks, 2 S)
    @ (2 S, B) product of all block phases per chunk of nodes: the build
    before row blocks."""
    block = window.PHASE_BLOCK
    c = window._radial_coefficients(dim, s_nodes, s_weights, f_vals)
    size = len(K_GRID)
    dk = K_GRID[-1] / (size - 1)
    blocks = -(-size // block)
    table = np.zeros((blocks, block))
    parts = -(-len(s_nodes) // window.EDGE_CHUNK)
    for s, cs in zip(np.array_split(s_nodes, parts), np.array_split(c, parts)):
        nodes = len(s)
        starts = np.empty((blocks, 2, nodes))
        phase = np.multiply.outer(block * dk * np.arange(blocks), s, out=starts[:, 1])
        np.cos(phase, out=starts[:, 0])
        np.sin(phase, out=phase)
        starts *= cs if dim == 1 else cs / s
        offsets = np.empty((2, nodes, block))
        phase = np.multiply.outer(s, dk * np.arange(block), out=offsets[1])
        if dim == 1:
            np.cos(phase, out=offsets[0])
            np.negative(np.sin(phase, out=phase), out=phase)
        else:
            np.sin(phase, out=offsets[0])
            np.cos(phase, out=phase)
        table += starts.reshape(blocks, 2 * nodes) @ offsets.reshape(2 * nodes, block)
    table = table.ravel()[:size]
    if dim == 3:
        table[1:] /= K_GRID[1:]
    table[0] = np.sum(c)
    return table


class TestUniformEdgeTransform:
    """The block-and-offset matrix product of make_profile against the direct sum it replaced."""

    @GRIDS
    @pytest.mark.parametrize("dim", [1, 3])
    @KIND
    def test_row_blocks_equal_one_whole_product(self, kind, dim, grid):
        # PHASE_ROW_BLOCK rows of block phases per product, bit for bit the
        # one product of all of them that n = 1 and 3 ran before
        s, w, f = edge_rule()
        assert np.array_equal(window.uniform_edge_transform(dim, s, w, f),
                              whole_product_transform(dim, s, w, f))

    def test_grid_is_whole_blocks(self):
        # the product fills whole PHASE_ROW_BLOCK x PHASE_BLOCK blocks of the
        # grid, which has no other length; the grid cannot be written
        assert window.K_SAMPLES % (window.PHASE_ROW_BLOCK * window.PHASE_BLOCK) == 0
        assert np.array_equal(K_GRID, np.linspace(0.0, K_MAX, window.K_SAMPLES))
        with pytest.raises(ValueError):
            K_GRID[0] = 1.0

    @pytest.mark.parametrize("dim", [1, 3])
    @KIND
    def test_peak_memory(self, kind, dim):
        # the block phases are formed PHASE_ROW_BLOCK rows at a time: 1.48
        # MiB; all 80 rows at once take 2.14 MiB
        assert traced_peak(lambda: make_profile(dim)) <= 1.8 * 2 ** 20

    @GRIDS
    @pytest.mark.parametrize("dim", [1, 3])
    @KIND
    def test_equals_direct_sum(self, kind, dim, grid):
        s, w, f = edge_rule()
        fast = window.uniform_edge_transform(dim, s, w, f)
        direct = radial_fourier_direct(dim, s, w, f, K_GRID)
        fhat_zero = window.EDGE[0] ** dim * ball_fhat(dim, 0.0) + direct[0]
        assert np.max(np.abs(fast - direct)) <= 1e-14 * fhat_zero
        # at k = 0 both cos and sin(x)/x are 1: the sum of the coefficients
        assert fast[0] == pytest.approx(math.fsum(window._radial_coefficients(dim, s, w, f)),
                                        rel=1e-15, abs=0.0)

    @EXTENDED
    @pytest.mark.parametrize("dim", [1, 3])
    @KIND
    def test_against_extended_precision(self, kind, dim):
        size = window.K_SAMPLES
        s, w, f = edge_rule()
        # the first two blocks, where the n = 3 sum is largest, and a spread
        # up to K_MAX, where the phases k s are
        picks = np.r_[: 2 * window.PHASE_BLOCK, 2 * window.PHASE_BLOCK : size : 37, size - 1]
        # the sum at the grid's momenta j K_MAX/(K - 1), in extended precision
        k = picks.astype(np.longdouble) * (np.longdouble(K_MAX) / (size - 1))
        ks = np.multiply.outer(k, s.astype(np.longdouble))
        if dim == 1:
            omega = np.cos(ks)
        else:
            omega = np.where(ks > 0, np.sin(ks) / np.where(ks > 0, ks, 1.0), 1.0)
        reference = omega @ window._radial_coefficients(dim, s, w, f).astype(np.longdouble)
        fast = window.uniform_edge_transform(dim, s, w, f)[picks]
        direct = radial_fourier_direct(dim, s, w, f, K_GRID)[picks]
        fast_error = float(np.max(np.abs(fast - reference)))
        direct_error = float(np.max(np.abs(direct - reference)))
        fhat_zero = window.EDGE[0] ** dim * ball_fhat(dim, 0.0) + float(reference[0])
        assert fast_error <= 2.5e-15 * fhat_zero
        # at n = 3 the product is the one further off, on the first block:
        # 6.5e-16 of fhat(0) where the direct sum is 2.8e-16 (mollified step)
        if dim == 1:
            assert fast_error <= direct_error


class TestLineProjection:
    """n = 2 through the projection-slice theorem against the J_0 edge sum it replaced."""

    @GRIDS
    @KIND
    def test_equals_ball_plus_edge_sum(self, kind, grid, profile2):
        a, _ = window.EDGE
        s, w, f = edge_rule()
        direct = a ** 2 * ball_transform(2, a * K_GRID) + radial_fourier_direct(2, s, w, f, K_GRID)
        assert np.max(np.abs(profile2.fhat_samples - direct)) <= 1e-14 * direct[0]

    @KIND
    def test_zero_momentum_is_the_radial_integral(self, kind):
        # fhat(0) = integral of f(s) s ds over [0, b]: the plateau a^2 / 2 plus the edge
        prof = make_profile(2)
        a, b = window.EDGE
        s, w = gauss_legendre_panels(a, b, 256, 16)
        radial = math.fsum([a * a / 2.0, *(w * prof.value(s) * s)])
        assert prof.fhat_zero() == pytest.approx(radial, rel=1e-15, abs=0.0)

    @KIND
    def test_projection_equals_fine_quadrature(self, kind):
        # P(x) = 2 integral of f(sqrt(x^2 + t^2)) over t in [0, sqrt(b^2 - x^2)],
        # with f = 1 up to t1 = sqrt(a^2 - x^2) and 200 x 30 Gauss-Legendre
        # from there: neither the deficit form nor the rules of line_projection
        exact = window._profile_evaluator()
        a, b = window.EDGE
        x = np.concatenate([[0.0, a - 1e-3, a, a + 1e-3, 0.5 * (a + b), b - 1e-3],
                            np.linspace(a - 0.05, b - 1e-3, 48)])
        reference = []
        for v in x:
            t1, t2 = math.sqrt(max(a * a - v * v, 0.0)), math.sqrt(b * b - v * v)
            t, wt = gauss_legendre_panels(t1, t2, 200, 30)
            reference.append(2.0 * t1 + 2.0 * math.fsum(wt * exact(np.sqrt(v * v + t * t))))
        projection = window.line_projection(x)
        assert np.max(np.abs(projection - reference)) <= 1e-14

    @KIND
    def test_peak_memory(self, kind):
        # the phase matrices of the GEMM are summed over chunks of EDGE_CHUNK
        # nodes, the projection kernels over blocks of rows and the
        # interpolant over blocks of points: 1.56 MiB; 8,192 points at once
        # take 3.16 MiB
        assert traced_peak(lambda: make_profile(2)) <= 2 * 2 ** 20


class TestInterpolant:
    """The 10-point Lagrange interpolant of the cached transform and of the bump CDF."""

    def test_reproduces_degree_nine_polynomials(self):
        grid = np.linspace(-1.0, 3.0, 41)
        poly = np.polynomial.Polynomial(np.random.default_rng(1).normal(size=10))
        x = np.concatenate([np.random.default_rng(2).uniform(-1.0, 3.0, 500), [-0.99, 2.99]])
        scale = np.max(np.abs(poly(grid)))
        assert np.max(np.abs(lagrange_uniform(grid, poly(grid), x) - poly(x))) <= 1e-14 * scale

    def test_stencil_is_the_ten_nearest_nodes(self):
        # between nodes i and i + 1 the value reads nodes i - 4 ... i + 5 only
        grid, x = np.linspace(0.0, 1.0, 101), 0.503
        for node, reads in ((45, False), (46, True), (55, True), (56, False)):
            table = np.zeros_like(grid)
            table[node] = 1.0
            assert (lagrange_uniform(grid, table, x) != 0.0) == reads, node

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @KIND
    def test_fourier_radial_equals_direct_quadrature(self, kind, dim):
        # the closed-form ball plus the edge rule, at momenta off the cache nodes
        prof = make_profile(dim)
        kappa = np.random.default_rng(dim).uniform(0.0, K_MAX, 2000)
        a, _ = window.EDGE
        s, w, f = edge_rule()
        direct = a ** dim * ball_transform(dim, a * kappa) + radial_fourier_direct(dim, s, w, f, kappa)
        assert np.max(np.abs(prof.fourier_radial(kappa) - direct)) <= 1e-12 * prof.fhat_zero()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_miss_near_zero_momentum(self, profile1, profile2, profile3, dim):
        # against the direct sum on the refined support rule, at the nodes of
        # the graded chain rule: below k = 0.3 the one-sided stencil misses
        # by up to 6.5e-14, 3.2e-14 and 1.5e-14 of fhat(0) at n = 1, 2, 3
        # (worst near k = 0.02), a known defect; beyond it by 1.3e-15 at most
        prof = (profile1, profile2, profile3)[dim - 1]
        k = half_panel_rule(120.0, 48, 10, 16).nodes
        s, w, f = window.support_rule(960.0)
        direct = radial_fourier_direct(dim, s, w, f, k)
        miss = np.abs(prof.fourier_radial(k) - direct) / prof.fhat_zero()
        assert np.max(miss) <= 1e-13
        assert np.max(miss[k > 0.3]) <= 2e-15

    def test_exact_at_the_nodes(self, profile1, profile2, profile3):
        for prof in (profile1, profile2, profile3):
            assert np.array_equal(prof.fourier_radial(K_GRID), prof.fhat_samples)
            assert prof.fhat_zero() == prof.fhat_samples[0]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gemv_equals_elementwise_sum(self, profile1, profile2, profile3, dim):
        prof = (profile1, profile2, profile3)[dim - 1]
        s, w = window.transform_rule(*window.EDGE)
        f = prof.value(s)
        fast = radial_fourier_direct(dim, s, w, f, K_GRID)
        slow = elementwise_transform(dim, s, w, f, K_GRID)
        assert np.max(np.abs(fast - slow)) <= 1e-13 * prof.fhat_zero()

    def test_bump_cdf(self):
        h = window.BUMP_HALFWIDTH
        cdf = window._bump_cdf(h)
        assert cdf(-h) == 0.0 and cdf(h) == 1.0
        # monotone up to one rounding step of values near 1
        assert np.all(np.diff(cdf(np.linspace(-h, h, 100001))) >= -np.spacing(1.0))

        def mass(hi):
            # composite Gauss-Legendre, 200 panels x 30 nodes, exact to rounding
            u, w = gauss_legendre_panels(-h, hi, 200, 30)
            return np.sum(w * np.exp(-1.0 / (1.0 - (u / h) ** 2)))

        x = np.linspace(-h, h, 400)[1:]
        reference = np.array([mass(v) for v in x]) / mass(h)
        assert np.max(np.abs(cdf(x) - reference)) <= 1e-14

    def test_blocks_of_points_equal_one_block(self, profile1, monkeypatch):
        # a point's value does not depend on the _INTERP_BLOCK points it is
        # read with: the transform and the bump CDF of the window's edge, on
        # more than one block of the former 8,192 points
        rng = np.random.default_rng(7)
        kappa = rng.uniform(0.0, K_MAX, 20000)
        s = rng.uniform(*window.EDGE, 20000)
        blocked = profile1.fourier_radial(kappa), profile1.value(s)
        monkeypatch.setattr(window, "_INTERP_BLOCK", 8192)
        assert np.array_equal(profile1.fourier_radial(kappa), blocked[0])
        assert np.array_equal(profile1.value(s), blocked[1])

    def test_array_equals_one_point_calls(self, profile1):
        # the projector evaluates all of its sample momenta in one call
        kappa = np.random.default_rng(5).uniform(0.0, K_MAX, 1000)
        one_by_one = np.array([profile1.fourier_radial(k) for k in kappa])
        assert np.array_equal(profile1.fourier_radial(kappa), one_by_one)
