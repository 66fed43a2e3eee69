import ast
from math import factorial, fsum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctlab import limit_algebra, scaling
from fluctlab.config import parse_config
from fluctlab.errors import ConfigError, InvalidArgumentError, InvalidLimitStateError, OrderRangeError
from fluctlab.limit_algebra import (
    CCRCheck,
    LimitState,
    ObservableFamily,
    build_limit_state,
    ccr_product_check,
    commutator_criterion,
    weyl_expectation,
)
from fluctlab.models import DecayTag, ObservablePair, TruncatedHierarchy, gaussian_state
from fluctlab.partitions import MAX_PAIRING_ORDER, enumerate_pairings, pairing_sum
from fluctlab.runner import run
from fluctlab.scaling import ScalingConfig, exponent_sweep

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
LIMIT_CONFIGS = ["criterion_06_weyl_ccr", "criterion_07_commutator"]


def wick_moment(state, sequence):
    """Limit moment of an ordered product: the sum over pairings of the slot
    positions of C[label_a, label_b], a < b, by the first-slot recursion
    that ``ccr_product_check`` runs; odd-length sequences vanish."""
    if len(sequence) > MAX_PAIRING_ORDER:
        raise OrderRangeError(f"sequences longer than {MAX_PAIRING_ORDER} are not supported")
    idx = limit_algebra._label_indices(state, sequence)
    return pairing_sum(idx, limit_algebra._covariance_pairs(state), {})


def valid_state(scale=0.3):
    c = np.array([
        [1.0, 0.5 + 0.4j],
        [0.5 - 0.4j, 1.0],
    ]) * scale
    return LimitState(labels=("A", "B"), covariance=c)


def brute_force_pairings(slots):
    """Every perfect matching of the slot list, pairs in slot order."""
    if not slots:
        yield ()
        return
    first, rest = slots[0], slots[1:]
    for j, partner in enumerate(rest):
        for tail in brute_force_pairings(rest[:j] + rest[j + 1:]):
            yield ((first, partner),) + tail


def brute_force_pairing_sum(c, idx):
    """Sum over pairings of the ordered C products, and the sum of their moduli.

    The terms are summed exactly (fsum): 10,395 of them at length 12 would
    otherwise carry more rounding than the recursion under test."""
    terms = []
    for pairing in brute_force_pairings(list(range(len(idx)))):
        prod = 1.0 + 0j
        for a, b in pairing:
            prod *= c[idx[a], idx[b]]
        terms.append(prod)
    total = complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))
    return total, fsum(abs(t) for t in terms)


class TestWickMoment:
    def test_length_two(self):
        state = valid_state()
        assert wick_moment(state, ["A", "B"]) == state.covariance[0, 1]

    def test_length_four_equal_slots(self):
        state = valid_state()
        c = state.covariance[0, 0]
        assert wick_moment(state, ["A"] * 4) == pytest.approx(3.0 * c ** 2)

    def test_odd_length_vanishes(self):
        state = valid_state()
        assert wick_moment(state, ["A", "B", "A"]) == 0
        assert wick_moment(state, ["B"]) == 0

    def test_length_six_against_pairings(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = 0.5 * (c + c.conj().T)
        state = LimitState(labels=("A", "B"), covariance=c)
        idx = [0, 1, 1, 0, 1, 0]
        brute = 0j
        for pairing in enumerate_pairings(6):
            prod = 1.0 + 0j
            for a, b in pairing:
                prod *= c[idx[a - 1], idx[b - 1]]
            brute += prod
        labels = ["A" if i == 0 else "B" for i in idx]
        assert wick_moment(state, labels) == pytest.approx(brute)

    @pytest.mark.parametrize("labels", [1, 2, 3])
    def test_recursion_equals_pairing_sum(self, labels):
        # a non-hermitian C tells C[a, b] from C[b, a]; runs of equal labels
        # test the multiplicity of a repeated remainder
        rng = np.random.default_rng(labels)
        c = rng.standard_normal((labels, labels)) + 1j * rng.standard_normal((labels, labels))
        state = LimitState(labels=tuple("ABC"[:labels]), covariance=c)
        for m in range(13):
            for _ in range(3):
                idx = rng.integers(0, labels, m).tolist()
                brute, scale = brute_force_pairing_sum(c, idx)
                assert abs(wick_moment(state, idx) - brute) <= 1e-13 * scale

    @given(st.integers(min_value=1, max_value=7))
    @settings(max_examples=7, deadline=None)
    def test_odd_lengths_always_zero(self, half):
        state = valid_state()
        seq = (["A", "B"] * half)[: 2 * half - 1]
        assert wick_moment(state, seq) == 0

    def test_unknown_label(self):
        with pytest.raises(InvalidArgumentError):
            wick_moment(valid_state(), ["A", "C"])

    def test_length_cap(self):
        with pytest.raises(OrderRangeError):
            wick_moment(valid_state(), ["A"] * 18)


class TestWeyl:
    def test_zero_variance(self):
        state = LimitState(labels=("A",), covariance=np.zeros((1, 1), dtype=complex))
        check = weyl_expectation(state, "A", 4)
        assert check.partial_sum == 1.0 and check.closed_form == 1.0

    @pytest.mark.parametrize("s", [0.1, 1.0, 4.0])
    def test_series_within_tail_bound(self, s):
        state = LimitState(labels=("A",), covariance=np.array([[s]], dtype=complex))
        check = weyl_expectation(state, "A", 8)
        assert check.within_bound
        assert check.closed_form == pytest.approx(np.exp(-s / 2.0))

    def test_unit_variance_accuracy(self):
        state = LimitState(labels=("A",), covariance=np.array([[1.0]], dtype=complex))
        check = weyl_expectation(state, "A", 6)
        # direct series evaluation: the alternating remainder after m = 6 is
        # |sum_{m>=7} (-1/2)^m / m!| = 1.45834e-6
        direct = sum((-0.5) ** m / factorial(m) for m in range(7))
        assert check.partial_sum.real == pytest.approx(direct, rel=1e-14)
        assert check.discrepancy == pytest.approx(1.45834e-6, rel=1e-3)
        assert check.discrepancy < check.tail_bound

    def test_convergence_accelerates(self):
        state = LimitState(labels=("A",), covariance=np.array([[1.5]], dtype=complex))
        discrepancies = [weyl_expectation(state, "A", n).discrepancy for n in range(2, 8)]
        for a, b in zip(discrepancies, discrepancies[1:]):
            assert b <= 0.5 * a + 1e-15

    def test_truncation_cap(self):
        with pytest.raises(OrderRangeError):
            weyl_expectation(valid_state(), "A", 9)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_index_outside_the_labels(self, index):
        # an int label indexes the labels; it never counts from the end
        with pytest.raises(InvalidArgumentError, match=f"index {index} out of range"):
            weyl_expectation(valid_state(), index, 4)

    def test_int_index_reads_its_label(self):
        state = valid_state()
        assert weyl_expectation(state, 1, 4).partial_sum == weyl_expectation(state, "B", 4).partial_sum


class TestCCR:
    def test_zero_symplectic_part(self):
        c = np.array([[0.2, 0.1], [0.1, 0.3]], dtype=complex)
        state = LimitState(labels=("A", "B"), covariance=c)
        check = ccr_product_check(state, "A", "B", 5)
        s = state.symmetric_part
        s_sum = s[0, 0] + 2 * s[0, 1] + s[1, 1]
        assert check.closed_form == pytest.approx(np.exp(-0.5 * s_sum))
        assert check.consistent

    def test_quasi_free_consistency(self):
        state = valid_state(scale=0.3)
        check = ccr_product_check(state, "A", "B", 5)
        assert check.consistent
        assert check.discrepancy < 2e-5

    def test_phase_factor_present(self):
        state = valid_state(scale=0.25)
        check = ccr_product_check(state, "A", "B", 6)
        sigma = state.symplectic_part[0, 1]
        assert sigma != 0
        assert np.angle(check.closed_form) == pytest.approx(-sigma / 2.0)
        assert abs(np.angle(check.series) - np.angle(check.closed_form)) < 1e-4

    def test_equal_labels_reduce_to_weyl_of_double(self):
        state = valid_state(scale=0.2)
        check = ccr_product_check(state, "A", "A", 6)
        s4 = 4.0 * state.symmetric_part[0, 0]
        assert check.closed_form == pytest.approx(np.exp(-0.5 * s4))
        assert check.consistent

    def test_series_equals_brute_force_moments(self):
        # the double series shares one pairing memo across every A^j B^k
        rng = np.random.default_rng(7)
        c = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        state = LimitState(labels=("A", "B"), covariance=c)
        n = 4
        expected = sum(
            (1j) ** (j + k) / (factorial(j) * factorial(k)) * brute_force_pairing_sum(c, [0] * j + [1] * k)[0]
            for j in range(2 * n + 1) for k in range(2 * n + 1 - j)
        )
        assert abs(ccr_product_check(state, "A", "B", n).series - expected) <= 1e-13

    def test_non_quasi_free_detected(self):
        # corrupt series vs closed form: inconsistent covariance scale makes
        # the discrepancy exceed the tail bound
        check = CCRCheck(labels=("A", "B"), series=1.0 + 0j, closed_form=0.2 + 0j, tail_bound=1e-6)
        assert not check.consistent


class TestLimitStateInvariants:
    def test_valid_state_passes(self):
        valid_state().validate()

    def test_psd_violation(self):
        c = np.array([[1.0, 2.5], [2.5, 1.0]], dtype=complex)
        with pytest.raises(InvalidLimitStateError):
            LimitState(labels=("A", "B"), covariance=c).validate()

    def test_hermiticity_violation(self):
        c = np.array([[1.0, 0.5 + 0.4j], [0.5 + 0.4j, 1.0]])
        with pytest.raises(InvalidLimitStateError):
            LimitState(labels=("A", "B"), covariance=c).validate()

    def test_uncertainty_bound_from_psd(self):
        state = valid_state()
        s = state.symmetric_part
        sigma = state.symplectic_part
        assert 0.25 * sigma[0, 1] ** 2 <= s[0, 0] * s[1, 1]

    def test_empty_state(self):
        state = LimitState(labels=(), covariance=np.zeros((0, 0), dtype=complex))
        state.validate()


class TestCommutatorCriterion:
    def test_equal_densities_trivial(self, profile1):
        g = lambda k: 0.8 * np.exp(-np.asarray(k) ** 2)
        pair = ObservablePair("A", "B", g, g)
        res = commutator_criterion(pair, profile1)
        assert res.value == 0 and res.is_trivial

    def test_unit_difference_gives_plancherel_constant(self, profile1):
        f = lambda k: 1.3 * np.exp(-np.asarray(k) ** 2)
        g = lambda k: 0.3 * np.exp(-np.asarray(k) ** 2)
        res = commutator_criterion(ObservablePair("A", "B", f, g), profile1)
        k0 = profile1.pair_overlap_integral()
        assert res.value == pytest.approx(k0, rel=1e-12)
        assert not res.is_trivial

    def test_finite_scale_sweep_converges_to_criterion(self, profile1):
        f = lambda k: 1.3 * np.exp(-np.asarray(k) ** 2)
        g = lambda k: 0.3 * np.exp(-np.asarray(k) ** 2)
        pair = ObservablePair("A", "B", f, g)
        res = commutator_criterion(pair, profile1)
        diff_state = gaussian_state(lambda k: f(k) - g(k), 1)
        rep = exponent_sweep(diff_state, profile1, ScalingConfig(), 2)
        assert abs(rep.limit_value - res.value) <= 0.01 * abs(res.value)

    def test_non_l1_pair_rejected(self, profile1):
        # a density not finite at k = 0 has no two-point limit; 1/|k| is
        # read at a numpy zero, where it is inf and raises no ZeroDivisionError
        g = lambda k: np.exp(-np.asarray(k) ** 2)
        singular = lambda k: 1.0 / np.abs(k)
        with pytest.raises(InvalidArgumentError, match="pair density AB is not finite"):
            commutator_criterion(ObservablePair("A", "B", singular, g), profile1)
        with pytest.raises(InvalidArgumentError, match="pair density BA is not finite"):
            commutator_criterion(ObservablePair("A", "B", g, lambda k: np.sin(k) / k), profile1)


class TestBuildLimitState:
    def test_single_observable(self, profile1):
        fam = ObservableFamily(
            labels=("A",),
            pair_density=lambda i, j: (lambda k: np.exp(-np.asarray(k) ** 2 / 2.0)),
            dim=1,
        )
        state = build_limit_state(fam, profile1)
        assert state.covariance[0, 0] == profile1.pair_overlap_integral()
        assert state.symplectic_part[0, 0] == 0

    def test_diverging_pair_sweep_has_no_limit(self, profile1):
        # a density not finite at k = 0 has no two-point limit: its sweep diverges
        fam = ObservableFamily(labels=("A", "B"), dim=1, pair_density=lambda i, j: (
            (lambda k: 1.0 / np.abs(k)) if (i, j) == (1, 0) else (lambda k: np.exp(-np.asarray(k) ** 2))))
        with pytest.raises(InvalidArgumentError, match="pair density BA is not finite at k = 0"):
            build_limit_state(fam, profile1)
        # and the limit is the one at the normal exponent n/2: a config at
        # another alpha is rejected where it is parsed, so run never sees it
        text = (CONFIG_DIR / "criterion_06_weyl_ccr.json").read_text()
        assert parse_config(text.replace('"numeric": {', '"numeric": {"alpha": 0.5, '))
        for alpha in (0.2, 0.9):
            with pytest.raises(ConfigError, match=f"unset or n/2 = 0.5, got {alpha}"):
                parse_config(text.replace('"numeric": {', f'"numeric": {{"alpha": {alpha}, '))

    def test_two_observables_with_symplectic_part(self, profile1):
        densities = {
            (0, 0): lambda k: np.exp(-np.asarray(k) ** 2 / 2.0),
            (1, 1): lambda k: np.exp(-np.asarray(k) ** 2),
            (0, 1): lambda k: (0.5 + 0.4j) * np.exp(-0.8 * np.asarray(k) ** 2),
            (1, 0): lambda k: (0.5 - 0.4j) * np.exp(-0.8 * np.asarray(k) ** 2),
        }
        fam = ObservableFamily(labels=("A", "B"), pair_density=lambda i, j: densities[(i, j)], dim=1)
        state = build_limit_state(fam, profile1)
        assert state.symplectic_part[0, 1] != 0
        state.validate()

    def test_inconsistent_family_rejected(self, profile1):
        densities = {
            (0, 0): lambda k: 0.1 * np.exp(-np.asarray(k) ** 2),
            (1, 1): lambda k: 0.1 * np.exp(-np.asarray(k) ** 2),
            (0, 1): lambda k: (2.0 + 0.0j) * np.exp(-np.asarray(k) ** 2),
            (1, 0): lambda k: (2.0 + 0.0j) * np.exp(-np.asarray(k) ** 2),
        }
        fam = ObservableFamily(labels=("A", "B"), pair_density=lambda i, j: densities[(i, j)], dim=1)
        with pytest.raises(InvalidLimitStateError):
            build_limit_state(fam, profile1)

    def test_empty_family(self, profile1):
        fam = ObservableFamily(labels=(), pair_density=lambda i, j: None, dim=1)
        state = build_limit_state(fam, profile1)
        assert state.covariance.shape == (0, 0)

    @pytest.mark.parametrize("name", LIMIT_CONFIGS)
    def test_sweep_limit_meets_closed_form(self, name, profile1):
        # the sweep as reference: the extrapolated limit of each pair's 2-point
        # sweep at n/2 misses S(0) times the overlap by 2.4e-9 to 3.6e-9 relative
        family = parse_config((CONFIG_DIR / f"{name}.json").read_text()).model
        overlap = profile1.pair_overlap_integral()
        for i in range(2):
            for j in range(2):
                density = family.pair_density(i, j)
                # a complex cross density is no autocorrelation, so the state is built bare
                state = TruncatedHierarchy(dim=1, max_order=2, factors={2: (density,)}, tags={2: DecayTag("l1")})
                limit = exponent_sweep(state, profile1, ScalingConfig(), 2).limit_extrapolated
                closed = complex(density(0.0)) * overlap
                assert abs(limit - closed) <= 1e-8 * abs(closed), (i, j)

    @pytest.mark.parametrize("name", LIMIT_CONFIGS)
    def test_runs_no_chain(self, name, monkeypatch, cache_dir):
        def no_chain(*args, **kwargs):
            raise AssertionError("the limit state ran a radial chain")

        monkeypatch.setattr(scaling, "radial_chain", no_chain)
        report = run(parse_config((CONFIG_DIR / f"{name}.json").read_text()), cache_dir=cache_dir)
        assert report.results[0]["weyl"]


def test_imports_nothing_from_scaling():
    tree = ast.parse(Path(limit_algebra.__file__).read_text())
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    assert modules and not [m for m in modules if m and m.split(".")[-1] == "scaling"]
