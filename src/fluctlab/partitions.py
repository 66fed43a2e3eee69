"""Set-partition combinatorics and the moments/cumulants transformation.

Index tuples are ordered sequences of slots 1..l (the underlying observables
need not commute); every block of a partition keeps the ascending order of
its slots, and blocks are listed by their smallest element.  Partitions are
enumerated through restricted-growth strings, which produces exactly that
canonical form deterministically.

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


def _partitions_of_tuple(indices: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of an arbitrary ascending tuple, blocks in canonical form."""
    for blocks in _partition_blocks(len(indices)):
        yield tuple(tuple(indices[i - 1] for i in block) for block in blocks)


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
    applied to every ascending tuple through the requested order.
    """
    if order > cumulants.order:
        raise OrderRangeError(f"table holds order {cumulants.order}, requested {order}")
    if not cumulants.populated_through(order):
        missing = [k for k in cumulants.canonical_keys(order) if k not in cumulants]
        raise IncompleteTableError(f"cumulant table missing entries, e.g. {missing[0]}")
    moments = MomentTable(cumulants.order)
    for key in cumulants.canonical_keys(order):
        if len(key) == 1:
            continue
        total = 0.0 + 0.0j
        for blocks in _partitions_of_tuple(key):
            prod = 1.0 + 0.0j
            for b in blocks:
                prod *= cumulants[b]
                if prod == 0:
                    break
            total += prod
        moments[key] = total
    return moments


def cumulants_from_moments(moments: MomentTable, order: int) -> CumulantTable:
    """Unique cumulant table inverting the partition-sum recursion.

    Solved order by order: the full partition sum is the moment, so the
    cumulant of a tuple is its moment minus every partition with more than
    one block (whose cumulants are already known).
    """
    if order > moments.order:
        raise OrderRangeError(f"table holds order {moments.order}, requested {order}")
    for i in range(1, moments.order + 1):
        if moments[(i,)] != 0:
            raise NormalizationError("first moments must vanish (centered observables)")
    if not moments.populated_through(order):
        missing = [k for k in moments.canonical_keys(order) if k not in moments]
        raise IncompleteTableError(f"moment table missing entries, e.g. {missing[0]}")
    cumulants = CumulantTable(moments.order)
    for size in range(2, order + 1):
        for key in combinations(range(1, moments.order + 1), size):
            rest = 0.0 + 0.0j
            for blocks in _partitions_of_tuple(key):
                if len(blocks) == 1:
                    continue
                prod = 1.0 + 0.0j
                for b in blocks:
                    prod *= cumulants[b]
                    if prod == 0:
                        break
                rest += prod
            cumulants[key] = moments[key] - rest
    return cumulants


def wick_moment_table(pair_values: Mapping[tuple[int, int], complex], order: int) -> MomentTable:
    """Moments of a state with only 2-slot cumulants: pairing sums.

    pair_values maps ascending index pairs (i, j), i < j, to the 2-point
    value; odd tuples get zero, even tuples the sum over pairings of the
    ordered pair products.
    """
    table = MomentTable(order)
    for key in table.canonical_keys(order):
        size = len(key)
        if size == 1:
            continue
        if size % 2 == 1:
            table[key] = 0.0
            continue
        total = 0.0 + 0.0j
        for blocks in _pairing_blocks(size):
            prod = 1.0 + 0.0j
            for a, b in blocks:
                prod *= pair_values[(key[a - 1], key[b - 1])]
            total += prod
        table[key] = total
    return table
