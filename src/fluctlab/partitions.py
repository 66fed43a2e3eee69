"""Set-partition combinatorics and the moments/cumulants transformation.

Index tuples are ordered sequences of slots 1..l (the underlying observables
need not commute); every block of a partition keeps the ascending order of
its slots, and blocks are listed by their smallest element.

Sums over partitions are recursions on the block that holds the first slot,
memoised on what remains: a pairing sum costs one term per remaining slot
and state, a partition sum 2^(|S|-1) terms per tuple, and neither walks the
(m-1)!! pairings or B_m partitions.  Partitions and pairings are enumerated
(through restricted-growth strings, which give the canonical form
deterministically) only to count and to list them.

Tables map ascending slot tuples (subsets of {1..l}) to complex values.
First moments vanish throughout: observables are centered.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import factorial
from typing import Iterator, Mapping

from .errors import (
    IncompleteTableError,
    InvalidArgumentError,
    NormalizationError,
    OrderRangeError,
)

MAX_PARTITION_ORDER = 12
MAX_PAIRING_ORDER = 16


@dataclass(frozen=True)
class SetPartition:
    """Canonical partition of {1..order} into ascending, min-ordered blocks."""

    blocks: tuple[tuple[int, ...], ...]
    order: int

    def __post_init__(self):
        seen = [i for b in self.blocks for i in b]
        if sorted(seen) != list(range(1, self.order + 1)):
            raise InvalidArgumentError("blocks must partition {1..order}")
        for b in self.blocks:
            if list(b) != sorted(b):
                raise InvalidArgumentError("block indices must be ascending")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise InvalidArgumentError("blocks must be ordered by smallest element")


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


def _restricted_growth_strings(order: int) -> Iterator[tuple[int, ...]]:
    rgs = [0] * order

    def rec(i: int, mx: int):
        if i == order:
            yield tuple(rgs)
            return
        for v in range(mx + 2):
            rgs[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0) if order > 1 else iter([(0,) * order])


def enumerate_partitions(order: int) -> list[SetPartition]:
    """All B_order canonical partitions of {1..order}, via growth strings."""
    return [SetPartition(blocks, order) for blocks in _partition_blocks(order)]


@cache
def _partition_blocks(order: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Blocks of every canonical partition of {1..order}, built once per order."""
    if not 1 <= order <= MAX_PARTITION_ORDER:
        raise OrderRangeError(f"order {order} outside 1..{MAX_PARTITION_ORDER}")
    out = []
    for rgs in _restricted_growth_strings(order):
        nblocks = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for idx, label in enumerate(rgs, start=1):
            blocks[label].append(idx)
        out.append(tuple(tuple(b) for b in blocks))
    return tuple(out)


def enumerate_pairings(order: int) -> list[SetPartition]:
    """All perfect matchings of {1..order} as canonical 2-block partitions."""
    if order % 2 != 0:
        raise InvalidArgumentError(f"pairings need an even order, got {order}")
    if not 2 <= order <= MAX_PAIRING_ORDER:
        raise OrderRangeError(f"order {order} outside 2..{MAX_PAIRING_ORDER}")
    return [SetPartition(blocks, order) for blocks in _pairing_blocks(order)]


@cache
def _pairing_blocks(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Blocks of every perfect matching of {1..order} (even), built once per order."""

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        first, rest = remaining[0], remaining[1:]
        for j, partner in enumerate(rest):
            pair = (first, partner)
            for tail in rec(rest[:j] + rest[j + 1 :]):
                yield (pair,) + tail

    return tuple(rec(tuple(range(1, order + 1))))


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
        top = through_order or self.order
        keys = []
        for size in range(1, top + 1):
            keys.extend(combinations(range(1, self.order + 1), size))
        return keys

    def populated_through(self, order: int) -> bool:
        return all(k in self._values for k in self.canonical_keys(order))

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
    if not cumulants.populated_through(order):
        missing = [k for k in cumulants.canonical_keys(order) if k not in cumulants]
        raise IncompleteTableError(f"cumulant table missing entries, e.g. {missing[0]}")
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
    if not moments.populated_through(order):
        missing = [k for k in moments.canonical_keys(order) if k not in moments]
        raise IncompleteTableError(f"moment table missing entries, e.g. {missing[0]}")
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
