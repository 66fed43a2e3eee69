"""Set-partition combinatorics and the moments/cumulants transformation.

Index tuples are ordered sequences of slots 1..l (the underlying observables
need not commute); every block of a partition keeps the ascending order of
its slots, and blocks are listed by their smallest element.

Sums over partitions are recursions on the block that holds the first slot,
memoised on what remains: a pairing sum costs one term per remaining slot
and state, a partition sum 2^(|S|-1) terms per tuple, and neither walks the
(m-1)!! pairings or B_m partitions.  The same recursions with unit weights
count the pairings and partitions; `enumerate_pairings` lists the pairings
for reference sums.

Tables map ascending slot tuples (subsets of {1..l}) to complex values.
First moments vanish throughout: observables are centered.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Mapping

from .errors import (
    IncompleteTableError,
    InvalidArgumentError,
    NormalizationError,
    OrderRangeError,
)

MAX_PARTITION_ORDER = 12
MAX_PAIRING_ORDER = 16


def bell_number(order: int) -> int:
    """Bell number B_order by the triangle recurrence."""
    row = [1]
    for _ in range(order - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def pairing_count(order: int) -> int:
    """(order)! / (2**(order/2) (order/2)!) perfect matchings of an even set."""
    half = order // 2
    return factorial(order) // (2 ** half * factorial(half))


def _check_pairing_order(order: int) -> None:
    if order % 2 != 0:
        raise InvalidArgumentError(f"pairings need an even order, got {order}")
    if not 2 <= order <= MAX_PAIRING_ORDER:
        raise OrderRangeError(f"order {order} outside 2..{MAX_PAIRING_ORDER}")


def enumerate_pairings(order: int) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings of {1..order}, each as its min-ordered pairs."""
    _check_pairing_order(order)

    def rec(slots: tuple[int, ...]):
        if not slots:
            yield ()
        for j in range(1, len(slots)):
            for tail in rec(slots[1:j] + slots[j + 1:]):
                yield ((slots[0], slots[j]),) + tail

    return list(rec(tuple(range(1, order + 1))))


def count_pairings(order: int) -> int:
    """(order-1)!! as `pairing_sum` counts it: distinct slots, unit pair values."""
    _check_pairing_order(order)
    slots = tuple(range(1, order + 1))
    return int(pairing_sum(slots, dict.fromkeys(combinations(slots, 2), 1.0), {}).real)


def pairing_sum(seq: tuple, pair: Mapping[tuple, complex], memo: dict) -> complex:
    """Sum over the perfect matchings of seq of the ordered pair products.

    First-slot recursion: W(s_1..s_m) = sum_{j>1} pair[(s_1, s_j)] W(seq
    without slots 1 and j), W(()) = 1, memoised in ``memo`` on the tuple that
    remains.  Removing any slot of a run of equal keys leaves the same
    remainder, so a run contributes one term times its length.
    """
    if len(seq) % 2:
        return 0j
    if not seq:
        return 1 + 0j
    hit = memo.get(seq)
    if hit is not None:
        return hit
    first = seq[0]
    total = 0j
    j = 1
    while j < len(seq):
        end = j + 1
        while end < len(seq) and seq[end] == seq[j]:
            end += 1
        rest = pairing_sum(seq[1:j] + seq[j + 1:], pair, memo)
        total += (end - j) * (pair[(first, seq[j])] * rest)
        j = end
    memo[seq] = total
    return total


def _mask(key: tuple[int, ...]) -> int:
    return sum(1 << (i - 1) for i in key)


def _first_block_sum(s: int, kappa: Mapping[int, complex], w: Mapping[int, complex]) -> complex:
    """Sum of kappa(B) W(S minus B) over the blocks B of S that hold min S.

    S and every key are bitmasks of slots; ``w`` holds W of each proper
    subset of S (1 for the empty set).  B is min S plus each subset of the
    other slots in ascending order, so B = S comes last; a block missing from
    ``kappa`` (a singleton, or S itself while its cumulant is unknown) or with
    a zero cumulant adds nothing.
    """
    low = s & -s
    rest = s ^ low
    total = 0j
    sub = 0
    while sub != rest:
        sub = (sub - rest) & rest
        k = kappa.get(low | sub)
        if k:
            total += k * w[rest ^ sub]
    return total


def _check_partition_order(size: int) -> None:
    if size > MAX_PARTITION_ORDER:
        raise OrderRangeError(f"order {size} outside 1..{MAX_PARTITION_ORDER}")


def count_partitions(order: int) -> int:
    """B_order as the first-block recursion counts it: every block weighs 1.

    `_first_block_sum` leaves out the singleton block {min S}, which here
    adds W(S minus min S); W is kept for every subset of {1..order}.
    """
    _check_partition_order(order)
    full = (1 << order) - 1
    ones = dict.fromkeys(range(1, full + 1), 1)
    w = {0: 1 + 0j}
    for s in range(1, full + 1):
        w[s] = w[s ^ (s & -s)] + _first_block_sum(s, ones, w)
    return int(w[full].real)


class _Table:
    """Complex values on the ascending index tuples of {1..order}.

    Only canonical (ascending) tuples are stored; permuted lookups are
    rejected because slot order is meaningful for noncommuting observables.
    """

    kind = "table"

    def __init__(self, order: int, values: Mapping[tuple[int, ...], complex] | None = None):
        if order < 1:
            raise OrderRangeError("order must be >= 1")
        self.order = order
        self._values: dict[tuple[int, ...], complex] = {}
        for i in range(1, order + 1):
            self._values[(i,)] = 0.0 + 0.0j
        if values:
            for key, val in values.items():
                self[key] = val

    # single-element entries are pinned to zero (centered observables)
    def __setitem__(self, key: tuple[int, ...], value: complex):
        key = tuple(key)
        if list(key) != sorted(set(key)) or not key:
            raise InvalidArgumentError(f"index tuple {key} must be ascending and duplicate-free")
        if key[0] < 1 or key[-1] > self.order:
            raise InvalidArgumentError(f"index tuple {key} outside 1..{self.order}")
        if len(key) == 1 and value != 0:
            raise NormalizationError(
                f"{self.kind} at {key} must vanish: observables are centered"
            )
        self._values[key] = complex(value)

    def __getitem__(self, key: tuple[int, ...]) -> complex:
        key = tuple(key)
        try:
            return self._values[key]
        except KeyError:
            raise IncompleteTableError(f"{self.kind} missing entry for {key}") from None

    def __contains__(self, key) -> bool:
        return tuple(key) in self._values

    def canonical_keys(self, through_order: int | None = None) -> list[tuple[int, ...]]:
        top = self.order if through_order is None else through_order
        keys = []
        for size in range(1, top + 1):
            keys.extend(combinations(range(1, self.order + 1), size))
        return keys

    def check_populated(self, order: int) -> None:
        missing = [k for k in self.canonical_keys(order) if k not in self._values]
        if missing:
            raise IncompleteTableError(f"{self.kind} table missing entries, e.g. {missing[0]}")

    def as_dict(self) -> dict[tuple[int, ...], complex]:
        return dict(self._values)


class MomentTable(_Table):
    kind = "moment"


class CumulantTable(_Table):
    kind = "cumulant"


def moments_from_cumulants(cumulants: CumulantTable, order: int) -> MomentTable:
    """Moments as partition sums of cumulant block products.

    W(S) = sum over partitions of S of the product over blocks of W^T(block),
    applied to every ascending tuple through the requested order by the
    first-block recursion W(S) = sum_{B holds min S} W^T(B) W(S minus B).
    """
    if order > cumulants.order:
        raise OrderRangeError(f"table holds order {cumulants.order}, requested {order}")
    cumulants.check_populated(order)
    keys = cumulants.canonical_keys(order)
    if keys:
        _check_partition_order(len(keys[-1]))
    kappa = {_mask(k): v for k, v in cumulants.as_dict().items() if len(k) > 1}
    w = {0: 1 + 0j}
    w.update((1 << i, 0j) for i in range(cumulants.order))
    moments = MomentTable(cumulants.order)
    for key in keys:
        if len(key) > 1:
            s = _mask(key)
            w[s] = _first_block_sum(s, kappa, w)
            moments[key] = w[s]
    return moments


def cumulants_from_moments(moments: MomentTable, order: int) -> CumulantTable:
    """Unique cumulant table inverting the partition-sum recursion.

    Solved order by order: kappa(S) = W(S) - sum_{B holds min S, B != S}
    kappa(B) W(S minus B), whose cumulants are already known.
    """
    if order > moments.order:
        raise OrderRangeError(f"table holds order {moments.order}, requested {order}")
    for i in range(1, moments.order + 1):
        if moments[(i,)] != 0:
            raise NormalizationError("first moments must vanish (centered observables)")
    moments.check_populated(order)
    _check_partition_order(order)
    w = {_mask(k): v for k, v in moments.as_dict().items()}
    w[0] = 1 + 0j
    kappa: dict[int, complex] = {}
    cumulants = CumulantTable(moments.order)
    for size in range(2, order + 1):
        for key in combinations(range(1, moments.order + 1), size):
            s = _mask(key)
            # kappa(S) is not in kappa yet, so the block B = S drops out
            kappa[s] = moments[key] - _first_block_sum(s, kappa, w)
            cumulants[key] = kappa[s]
    return cumulants


def wick_moment_table(pair_values: Mapping[tuple[int, int], complex], order: int) -> MomentTable:
    """Moments of a state with only 2-slot cumulants: pairing sums.

    pair_values maps ascending index pairs (i, j), i < j, to the 2-point
    value; odd tuples get zero, even tuples the sum over pairings of the
    ordered pair products (`pairing_sum` with slots as keys).
    """
    table = MomentTable(order)
    memo: dict = {}
    for key in table.canonical_keys(order):
        if len(key) > 1:
            table[key] = pairing_sum(key, pair_values, memo)
    return table
