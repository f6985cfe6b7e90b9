"""Slot maps, domain membership, chain coefficients."""

import math

import numpy as np
import pytest

from oracles import (domain_membership, domain_membership_rows, interleavings,
                     simplex_membership, simplex_membership_rows)
from selberg3.chains import (
    OrderMap,
    coefficient_x,
    enumerate_maps,
    gamma_chain,
    merged_order,
    unit_chain,
)
from selberg3.errors import DomainError


class TestEnumerateMaps:
    def test_k2_zero_single_empty_map(self):
        maps = enumerate_maps(3, 0)
        assert len(maps) == 1 and maps[0].m == ()

    def test_11_single_map(self):
        maps = enumerate_maps(1, 1)
        assert [m.m for m in maps] == [(1,)]

    def test_21_two_maps(self):
        assert [m.m for m in enumerate_maps(2, 1)] == [(1,), (2,)]

    def test_lexicographic_and_constraints(self):
        maps = enumerate_maps(3, 2)
        tuples = [m.m for m in maps]
        assert tuples == sorted(tuples)
        for m in tuples:
            assert all(m[i] <= m[i + 1] for i in range(len(m) - 1))
            assert all(m[b - 1] <= 3 - 2 + b for b in range(1, 3))

    @pytest.mark.parametrize("k1,k2", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
    def test_count_matches_interleavings(self, k1, k2):
        # each valid slot map is exactly one total order of the cone
        assert len(enumerate_maps(k1, k2)) == len(interleavings(k1, k2))

    def test_nondecreasing_enforced(self):
        with pytest.raises(DomainError):
            OrderMap((2, 1))


class TestCoefficients:
    def test_empty_product(self):
        assert coefficient_x(OrderMap(()), 3, 0, -0.22) == pytest.approx(1.0)

    def test_21_map_one(self):
        assert coefficient_x(OrderMap((1,)), 2, 1, -0.17) == pytest.approx(1.0, rel=1e-14)

    def test_21_map_two(self):
        g = -0.17
        got = coefficient_x(OrderMap((2,)), 2, 1, g)
        want = math.sin(math.pi * g) / math.sin(2 * math.pi * g)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(1.0 / (2.0 * math.cos(math.pi * g)), rel=1e-13)

    def test_chain_assembly(self):
        ch = gamma_chain(2, 1, -0.17)
        assert len(ch.terms) == 2
        assert ch.terms[0][1] == pytest.approx(1.0)
        uc = unit_chain(2, 1)
        assert all(c == 1.0 for _, c in uc.terms)


class TestMembership:
    def test_11_inside_outside(self):
        M = OrderMap((1,))
        assert domain_membership(M, [0.2], [0.7], 0.0, 1.0)
        assert not domain_membership(M, [0.7], [0.2], 0.0, 1.0)

    def test_partition_property(self):
        # every strictly ordered point lies in exactly one domain; row i
        # of the draw is the point a loop drawing t, then s, makes i-th
        rng = np.random.default_rng(12)
        k1, k2 = 3, 2
        maps = enumerate_maps(k1, k2)
        box = rng.uniform(0, 1, size=(100_000, k1 + k2))
        t = np.sort(box[:, :k1], axis=1)[:, ::-1]
        s = np.sort(box[:, k1:], axis=1)[:, ::-1]
        member = [domain_membership_rows(M, t, s, 0.0, 1.0) for M in maps]
        hits = np.sum(member, axis=0)
        inside = simplex_membership_rows(t, s, 0.0, 1.0, k1, k2)
        assert np.all(hits[inside] == 1)
        assert np.all(hits[~inside] == 0)
        assert inside.sum() > 0 and (~inside).sum() > 0
        # the row forms are the scalar oracles, point by point, on a slice
        # holding points inside and outside the cone
        assert 0 < inside[:2000].sum() < 2000
        for i in range(2000):
            assert inside[i] == simplex_membership(t[i], s[i], 0.0, 1.0, k1, k2)
            for M, rows in zip(maps, member):
                assert rows[i] == domain_membership(M, t[i], s[i], 0.0, 1.0)

    def test_merged_order_consistent_with_membership(self):
        # points generated in merged descending order satisfy the inequalities
        rng = np.random.default_rng(5)
        for k1, k2 in [(2, 1), (3, 2), (2, 2)]:
            for M in enumerate_maps(k1, k2):
                order = merged_order(M, k1, k2)
                assert len(order) == k1 + k2
                for _ in range(50):
                    c = np.sort(rng.uniform(0, 1, size=k1 + k2))[::-1]
                    t = np.empty(k1)
                    s = np.empty(k2)
                    for i, (kind, idx) in enumerate(order):
                        (t if kind == "t" else s)[idx - 1] = c[i]
                    assert domain_membership(M, t, s, 0.0, 1.0)
