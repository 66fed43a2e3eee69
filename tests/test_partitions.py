import itertools
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctlab import limit_algebra, partitions
from fluctlab.errors import (
    IncompleteTableError,
    InvalidArgumentError,
    NormalizationError,
    OrderRangeError,
)
from fluctlab.partitions import (
    MAX_PAIRING_ORDER,
    CumulantTable,
    MomentTable,
    bell_number,
    count_pairings,
    count_partitions,
    cumulants_from_moments,
    enumerate_pairings,
    moments_from_cumulants,
    pairing_count,
    wick_moment_table,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140,
        9: 21147, 10: 115975, 11: 678570, 12: 4213597}
PAIRINGS = {2: 1, 4: 3, 6: 15, 8: 105, 10: 945, 12: 10395, 14: 135135, 16: 2027025}


def brute_force_partition_count(order):
    """Independent oracle: canonicalize every block-label assignment."""
    seen = set()
    for labels in itertools.product(range(order), repeat=order):
        blocks = {}
        for idx, lab in enumerate(labels, start=1):
            blocks.setdefault(lab, []).append(idx)
        canon = tuple(sorted((tuple(b) for b in blocks.values()), key=lambda b: b[0]))
        seen.add(canon)
    return len(seen)


def brute_force_set_partitions(items):
    """Every partition of the item list: the first item joins each block of a
    partition of the rest, or stands alone; blocks stay ascending."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in brute_force_set_partitions(rest):
        yield [(first,)] + part
        for i, block in enumerate(part):
            yield part[:i] + [(first,) + block] + part[i + 1:]


def block_products(key, table, skip_whole=False):
    """The cumulant block product of every partition of key (the one-block
    partition left out with skip_whole)."""
    for part in brute_force_set_partitions(list(key)):
        if skip_whole and len(part) == 1:
            continue
        prod = 1.0 + 0j
        for block in part:
            prod *= table[block]
        yield prod


def exact_sum(terms):
    return complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))


def random_cumulants(order, seed):
    rng = np.random.default_rng(seed)
    ct = CumulantTable(order)
    for key in ct.canonical_keys():
        if len(key) >= 2:
            ct[key] = complex(rng.standard_normal(), rng.standard_normal())
    return ct


class TestEnumeration:
    """The recursions' counts against closed forms and test-local enumerations."""

    @pytest.mark.parametrize("order,count", sorted(BELL.items()))
    def test_bell_counts(self, order, count):
        assert count_partitions(order) == count == bell_number(order)
        if order <= 8:
            assert len(list(brute_force_set_partitions(list(range(1, order + 1))))) == count

    def test_order_one(self):
        # one block, and at order 0 the empty partition: the recursion's W(empty) = 1
        assert count_partitions(1) == len(list(brute_force_set_partitions([1]))) == 1
        assert count_partitions(0) == bell_number(0) == 1

    def test_order_four_against_brute_force(self):
        assert count_partitions(4) == brute_force_partition_count(4) == 15

    def test_order_bounds(self):
        with pytest.raises(OrderRangeError):
            count_partitions(13)
        for order in (0, MAX_PAIRING_ORDER + 2):
            with pytest.raises(OrderRangeError):
                enumerate_pairings(order)
            with pytest.raises(OrderRangeError):
                count_pairings(order)

    @pytest.mark.parametrize("m,count", sorted(PAIRINGS.items()))
    def test_pairing_counts(self, m, count):
        assert count_pairings(m) == count == pairing_count(m)
        if m <= 12:
            pairings = enumerate_pairings(m)
            assert len(pairings) == len(set(pairings)) == count
            assert all(len(b) == 2 for p in pairings for b in p)

    def test_pairings_match_partition_filter(self):
        filtered = [tuple(sorted(p)) for p in brute_force_set_partitions(list(range(1, 9)))
                    if all(len(b) == 2 for b in p)]
        assert sorted(filtered) == sorted(enumerate_pairings(8))
        assert count_pairings(8) == len(filtered)

    def test_odd_pairing_rejected(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_pairings(5)
        with pytest.raises(InvalidArgumentError):
            count_pairings(5)

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=5, deadline=None)
    def test_partitions_are_canonical(self, half):
        # every pairing is a canonical partition: ascending pairs listed by their first slot
        for pairing in enumerate_pairings(2 * half):
            flat = sorted(i for b in pairing for i in b)
            assert flat == list(range(1, 2 * half + 1))
            assert all(a < b for a, b in pairing)
            assert [b[0] for b in pairing] == sorted(b[0] for b in pairing)


class TestTables:
    def test_first_moments_pinned_to_zero(self):
        mt = MomentTable(3)
        with pytest.raises(NormalizationError):
            mt[(2,)] = 1.0

    def test_non_ascending_key_rejected(self):
        mt = MomentTable(3)
        with pytest.raises(InvalidArgumentError):
            mt[(2, 1)] = 1.0

    def test_missing_entry(self):
        ct = CumulantTable(3)
        ct[(1, 2)] = 1.0
        with pytest.raises(IncompleteTableError):
            moments_from_cumulants(ct, 3)

    def test_order_two_moment_equals_cumulant(self):
        ct = CumulantTable(2)
        ct[(1, 2)] = 0.7 + 0.2j
        mt = moments_from_cumulants(ct, 2)
        assert mt[(1, 2)] == 0.7 + 0.2j

    def test_zero_cumulants_zero_moments(self):
        ct = CumulantTable(4)
        for key in ct.canonical_keys():
            if len(key) >= 2:
                ct[key] = 0.0
        mt = moments_from_cumulants(ct, 4)
        assert all(mt[k] == 0 for k in mt.canonical_keys() if len(k) >= 2)

    def test_gaussian_order4_moment_is_pairing_sum(self):
        ct = CumulantTable(4)
        pair = {}
        rng = np.random.default_rng(3)
        for key in ct.canonical_keys():
            if len(key) == 2:
                val = complex(rng.standard_normal(), rng.standard_normal())
                ct[key] = val
                pair[key] = val
            elif len(key) > 2:
                ct[key] = 0.0
        mt = moments_from_cumulants(ct, 4)
        expected = (
            pair[(1, 2)] * pair[(3, 4)]
            + pair[(1, 3)] * pair[(2, 4)]
            + pair[(1, 4)] * pair[(2, 3)]
        )
        assert mt[(1, 2, 3, 4)] == pytest.approx(expected)


class TestRoundTrip:
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_round_trip_identity(self, order):
        ct = random_cumulants(order, seed=order)
        mt = moments_from_cumulants(ct, order)
        back = cumulants_from_moments(mt, order)
        for key in ct.canonical_keys():
            if len(key) >= 2:
                assert back[key] == pytest.approx(ct[key], rel=1e-12, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_random_order4(self, seed):
        ct = random_cumulants(4, seed=seed)
        mt = moments_from_cumulants(ct, 4)
        back = cumulants_from_moments(mt, 4)
        for key in ct.canonical_keys():
            if len(key) >= 2:
                assert abs(back[key] - ct[key]) < 1e-11 * max(1.0, abs(ct[key]))

    def test_order_zero_fills_nothing(self):
        # order 0 asks for no tuple, in both directions: each table holds
        # only the centered first entries a new table starts with
        ct = CumulantTable(4)
        for key in ct.canonical_keys():
            ct[key] = 0.0 if len(key) == 1 else 1.0
        assert ct.canonical_keys(0) == []
        assert moments_from_cumulants(ct, 0).as_dict() == MomentTable(4).as_dict()
        mt = moments_from_cumulants(ct, 4)
        assert mt[(1, 2, 3, 4)] == 4
        assert cumulants_from_moments(mt, 0).as_dict() == CumulantTable(4).as_dict()

    def test_sums_enumerate_nothing(self, monkeypatch):
        # moments, cumulants, Wick sums and the counts are recursions:
        # enumerating pairings is left to the reference sums of the tests
        def enumerated(order):
            raise AssertionError(f"enumerated order {order}")

        monkeypatch.setattr(partitions, "enumerate_pairings", enumerated)
        # an import by name would hold the unpatched function
        monkeypatch.setattr(limit_algebra, "enumerate_pairings", enumerated, raising=False)
        ct = random_cumulants(6, seed=6)
        cumulants_from_moments(moments_from_cumulants(ct, 6), 6)
        c = np.array([[1.0, 0.5 + 0.4j], [0.5 - 0.4j, 1.0]]) * 0.3
        limit_algebra.ccr_product_check(limit_algebra.LimitState(("A", "B"), c), "A", "B", 6)
        assert count_pairings(12) == PAIRINGS[12] and count_partitions(8) == BELL[8]

    def test_nonzero_first_moment_rejected(self):
        mt = MomentTable(2)
        mt._values[(1,)] = 0.5  # bypass the setter to simulate bad input
        with pytest.raises(NormalizationError):
            cumulants_from_moments(mt, 2)


class TestRecursionEqualsPartitionSums:
    """The first-block recursions against the Bell-partition sums they replace."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_moments_from_cumulants(self, order):
        ct = random_cumulants(order, seed=10 + order)
        mt = moments_from_cumulants(ct, order)
        for key in ct.canonical_keys():
            terms = list(block_products(key, ct))
            assert len(terms) == bell_number(len(key))
            assert abs(mt[key] - exact_sum(terms)) <= 1e-13 * fsum(abs(t) for t in terms)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_cumulants_from_moments(self, order):
        rng = np.random.default_rng(20 + order)
        mt = MomentTable(order)
        for key in mt.canonical_keys():
            if len(key) >= 2:
                mt[key] = complex(rng.standard_normal(), rng.standard_normal())
        ct = cumulants_from_moments(mt, order)
        reference = {(i,): 0j for i in range(1, order + 1)}
        for key in mt.canonical_keys():
            if len(key) >= 2:
                terms = list(block_products(key, reference, skip_whole=True))
                reference[key] = mt[key] - exact_sum(terms)
                scale = abs(mt[key]) + fsum(abs(t) for t in terms)
                assert abs(ct[key] - reference[key]) <= 1e-13 * scale

    @pytest.mark.parametrize("order", [2, 5, 8])
    def test_wick_table_equals_pair_only_cumulants(self, order):
        rng = np.random.default_rng(30 + order)
        ct = CumulantTable(order)
        pair = {}
        for key in ct.canonical_keys():
            if len(key) == 2:
                pair[key] = ct[key] = complex(rng.standard_normal(), rng.standard_normal())
            elif len(key) > 2:
                ct[key] = 0.0
        mt = wick_moment_table(pair, order)
        ref = moments_from_cumulants(ct, order)
        # the pairing sum over |pair| is the sum of the terms' moduli
        scale = wick_moment_table({k: abs(v) for k, v in pair.items()}, order)
        for key in ct.canonical_keys():
            assert abs(mt[key] - ref[key]) <= 1e-13 * abs(scale[key])


class TestGaussianCharacterization:
    def test_wick_moments_have_no_higher_cumulants(self):
        rng = np.random.default_rng(11)
        pair = {
            (i, j): complex(rng.standard_normal(), rng.standard_normal())
            for i in range(1, 7)
            for j in range(i + 1, 7)
        }
        mt = wick_moment_table(pair, 6)
        ct = cumulants_from_moments(mt, 6)
        for key in ct.canonical_keys():
            if len(key) >= 3:
                assert abs(ct[key]) < 1e-12
            elif len(key) == 2:
                assert ct[key] == pytest.approx(pair[key])

    def test_odd_moments_vanish(self):
        pair = {(i, j): 1.0 + 0.0j for i in range(1, 6) for j in range(i + 1, 6)}
        mt = wick_moment_table(pair, 5)
        for key in mt.canonical_keys():
            if len(key) % 2 == 1 and len(key) > 1:
                assert mt[key] == 0

    def test_pairing_sum_respects_slot_order(self):
        # the (i, j) value with i < j must be used, never the transpose
        pair = {(1, 2): 2.0 + 1.0j, (1, 3): 0.0j, (1, 4): 0.0j,
                (2, 3): 0.0j, (2, 4): 0.0j, (3, 4): 5.0 - 1.0j}
        mt = wick_moment_table(pair, 4)
        assert mt[(1, 2, 3, 4)] == pytest.approx((2.0 + 1.0j) * (5.0 - 1.0j))
