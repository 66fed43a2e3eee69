"""Quasi-free limit state: covariance assembly, Weyl/CCR checks, commutators.

The limit of the scaling hierarchy retains only 2-point data: a complex
covariance C_ij whose real part is the symmetric form s and whose imaginary
part is half the symplectic form sigma (C = s + i/2 sigma).  All higher
limit moments are pairing sums over C, so exponentiated observables obey
the Weyl relation with variance s and commutator phase sigma.  A pairing sum
is the memoised first-slot recursion of `partitions.pairing_sum` on the
labels of the sequence; no pairing is enumerated.  Everything here works at
the level of moment series with explicit tail bounds; no Hilbert-space
operators are constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidLimitStateError,
    NumericalAccuracyError,
    OrderRangeError,
)
from .models import ObservablePair, gaussian_state
from .partitions import pairing_sum
from .scaling import ScalingConfig, exponent_sweep
from .window import WindowProfile

PSD_FLOOR_REL = 1e-10


@dataclass(frozen=True)
class LimitState:
    """Limit covariance with its symmetric and symplectic parts."""

    labels: tuple[str, ...]
    covariance: np.ndarray  # complex, hermitian

    @property
    def symmetric_part(self) -> np.ndarray:
        return self.covariance.real

    @property
    def symplectic_part(self) -> np.ndarray:
        return 2.0 * self.covariance.imag

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidArgumentError(f"unknown observable label {label!r}") from None

    def validate(self) -> None:
        """Structural invariants: hermitian C, PSD s, antisymmetric sigma,
        and the uncertainty bound sigma(A,B)^2/4 <= s(A,A) s(B,B)."""
        c = self.covariance
        if c.size == 0:
            return
        herm_defect = float(np.max(np.abs(c - c.conj().T)))
        scale = float(np.max(np.abs(c))) or 1.0
        if herm_defect > 1e-8 * scale:
            raise InvalidLimitStateError(
                f"covariance not hermitian (defect {herm_defect:.3e}); "
                "pair densities are inconsistent"
            )
        s = self.symmetric_part
        sym = 0.5 * (s + s.T)
        eigs = np.linalg.eigvalsh(sym)
        floor = -PSD_FLOOR_REL * max(np.trace(sym), 1e-300)
        if eigs.min() < floor:
            raise InvalidLimitStateError(
                f"symmetric part not positive semidefinite (min eig {eigs.min():.3e})"
            )
        sigma = self.symplectic_part
        if float(np.max(np.abs(sigma + sigma.T))) > 1e-12 * max(scale, 1.0):
            raise InvalidLimitStateError("symplectic part not antisymmetric")
        m = len(self.labels)
        for i in range(m):
            for j in range(m):
                lhs = 0.25 * sigma[i, j] ** 2
                rhs = sym[i, i] * sym[j, j]
                if lhs > rhs * (1.0 + 1e-9) + 1e-300:
                    raise InvalidLimitStateError(
                        f"uncertainty bound violated for pair ({i}, {j}): "
                        f"{lhs:.6e} > {rhs:.6e}"
                    )


def _label_indices(state: LimitState, sequence: Sequence[str | int]) -> tuple[int, ...]:
    idx = tuple(int(s) if isinstance(s, (int, np.integer)) else state.index(s) for s in sequence)
    for i in idx:
        if not 0 <= i < len(state.labels):
            raise InvalidArgumentError(f"observable index {i} out of range")
    return idx


def _covariance_pairs(state: LimitState) -> dict[tuple[int, int], complex]:
    c = state.covariance.tolist()
    return {(a, b): complex(v) for a, row in enumerate(c) for b, v in enumerate(row)}


@dataclass(frozen=True)
class WeylCheck:
    label: str | int
    partial_sum: complex
    closed_form: complex
    tail_bound: float
    within_bound: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "within_bound", self.discrepancy <= self.tail_bound + 1e-14)

    @property
    def discrepancy(self) -> float:
        return abs(self.partial_sum - self.closed_form)


def weyl_expectation(state: LimitState, label: str | int, truncation: int) -> WeylCheck:
    """Exponential series against its closed form exp(-s(A,A)/2).

    Only even moments survive; pairing counts turn the series into
    sum_m (-s/2)^m / m!, truncated at m = N with remainder bound
    (s/2)^(N+1) / (N+1)! (valid once terms decrease, N >= s/2 - 1).
    """
    if truncation > 8:
        raise OrderRangeError("series truncation capped at N = 8")
    i = label if isinstance(label, (int, np.integer)) else state.index(label)
    s = float(state.symmetric_part[i, i])
    partial = sum((-0.5 * s) ** m / factorial(m) for m in range(truncation + 1))
    closed = float(np.exp(-0.5 * s))
    tail = (0.5 * s) ** (truncation + 1) / factorial(truncation + 1)
    safety = float(np.exp(0.5 * s)) if truncation + 1 < 0.5 * s else 1.0
    return WeylCheck(label, complex(partial), complex(closed), tail * safety)


@dataclass(frozen=True)
class CCRCheck:
    labels: tuple[str | int, str | int]
    series: complex
    closed_form: complex
    tail_bound: float
    discrepancy: float = field(init=False)
    consistent: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "discrepancy", abs(self.series - self.closed_form))
        object.__setattr__(self, "consistent", self.discrepancy <= self.tail_bound + 1e-12)


def ccr_product_check(state: LimitState, label_a: str | int, label_b: str | int,
                      truncation: int) -> CCRCheck:
    """Double Wick series for <e^{iA} e^{iB}> against the Weyl closed form.

    The closed form is exp(-s(A+B, A+B)/2) exp(-i sigma(A,B)/2); the series
    sums i^(j+k)/(j! k!) times the ordered moment of A^j B^k through total
    order 2N.  Odd totals vanish, so the tail is bounded by
    sum_{r > N} (2 M)^r / r! with M the largest covariance magnitude.
    """
    if truncation > 6:
        raise OrderRangeError("series truncation capped at N = 6")
    ia, ib = _label_indices(state, (label_a, label_b))
    pairs = _covariance_pairs(state)
    memo: dict = {}  # the moments of A^j B^k share the states A^a B^b
    series = 0.0 + 0.0j
    for j in range(2 * truncation + 1):
        for k in range(2 * truncation + 1 - j):
            if (j + k) % 2 == 1:
                continue
            moment = pairing_sum((ia,) * j + (ib,) * k, pairs, memo)
            series += (1j) ** (j + k) / (factorial(j) * factorial(k)) * moment

    s = state.symmetric_part
    sigma = state.symplectic_part
    s_sum = s[ia, ia] + 2.0 * s[ia, ib] + s[ib, ib]
    closed = np.exp(-0.5 * s_sum) * np.exp(-0.5j * sigma[ia, ib])

    m_eff = float(np.max(np.abs(state.covariance[np.ix_([ia, ib], [ia, ib])])))
    tail = 0.0
    term = (2.0 * m_eff) ** (truncation + 1) / factorial(truncation + 1)
    r = truncation + 1
    while term > 1e-18 and r < 200:
        tail += term
        r += 1
        term *= 2.0 * m_eff / r
    return CCRCheck((label_a, label_b), complex(series), complex(closed), tail)


@dataclass(frozen=True)
class CommutatorResult:
    value: complex
    is_trivial: bool
    plancherel_constant: float


def commutator_criterion(pair: ObservablePair, profile: WindowProfile,
                         eps_vanish: float = 1e-8) -> CommutatorResult:
    """Limit commutator of two fluctuation averages.

    The value is (F(0) - G(0)) times the window's momentum pair overlap;
    it vanishes exactly when the two mixed densities agree at zero transfer
    momentum (the abelian direction of the limit algebra).
    """
    if not pair.l1_class:
        raise InvalidArgumentError(
            "commutator criterion needs integrable-class mixed densities"
        )
    k0 = profile.pair_overlap_integral()
    value = complex(pair.f_hat(0.0) - pair.g_hat(0.0)) * k0
    return CommutatorResult(value=value, is_trivial=abs(value) < eps_vanish,
                            plancherel_constant=k0)


@dataclass(frozen=True)
class ObservableFamily:
    """Finite family of observables with all mixed 2-point densities.

    ``pair_density(i, j)`` returns the plain spectral density of
    <A_i(x) A_j>, a function of |k|; every pair must have one.  Hermiticity
    of the assembled covariance is validated by the limit-state invariants.
    """

    labels: tuple[str, ...]
    pair_density: Callable[[int, int], Callable]
    dim: int = 1

    def __post_init__(self):
        for i, a in enumerate(self.labels):
            for j, b in enumerate(self.labels):
                if not callable(self.pair_density(i, j)):
                    raise InvalidArgumentError(f"pair density {a}{b} missing")


def build_limit_state(family: ObservableFamily, profile: WindowProfile,
                      cfg: ScalingConfig) -> LimitState:
    """Assemble C_ij from scaling-sweep limits of every pair correlator."""
    m = len(family.labels)
    c = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            density = family.pair_density(i, j)
            pair_state = gaussian_state(density, family.dim, validate=False)
            rep = exponent_sweep(pair_state, profile, cfg, 2, label=f"C[{i},{j}]")
            if rep.limit_extrapolated is None:
                raise NumericalAccuracyError(f"pair correlator C[{i},{j}] diverges "
                                             f"(exponent {rep.exponent:.3f}); it has no limit")
            c[i, j] = rep.limit_extrapolated
    state = LimitState(labels=tuple(family.labels), covariance=c)
    state.validate()
    return state
