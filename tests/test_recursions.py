"""Recursion system: solver, residuals, closed-form corners, shifts."""

import numpy as np
import pytest

from selberg3 import closed_forms as cf
from selberg3.errors import PivotZeroError
from selberg3.integrands import is_admissible
from selberg3.logreal import LogSigned
from selberg3.params import ParamSet
from oracles import aomoto_ratio_residuals
from selberg3.recursions import (
    admissible_triples,
    all_relations,
    jjl_shift_residuals,
    solve_both,
    solve_j,
    verify_relations,
)


def random_params(rng, k1, k2):
    return ParamSet(k1=k1, k2=k2,
                    alpha=float(rng.uniform(0.7, 2.2)),
                    beta1=float(rng.uniform(0.7, 2.2)),
                    beta2=float(rng.uniform(0.7, 2.2)),
                    gamma=float(rng.uniform(-0.28, -0.05)))


class TestAdmissibility:
    def test_origin_always_admissible(self):
        for k1 in range(4):
            for k2 in range(k1 + 1):
                assert is_admissible(0, 0, 0, k1, k2)

    def test_full_corner_admissible(self):
        for k1, k2 in [(1, 1), (2, 1), (3, 2), (4, 4)]:
            assert is_admissible(k1, k2, k2, k1, k2)

    def test_counterexample(self):
        assert not is_admissible(2, 0, 0, 2, 1)

    @pytest.mark.parametrize("k1,k2", [(1, 0), (2, 1), (3, 2), (4, 4), (5, 3),
                                       (6, 2), (4, 3), (8, 0)])
    def test_scheduling_visits_each_triple_once(self, k1, k2):
        triples = admissible_triples(k1, k2)
        assert len(triples) == len(set(triples))
        assert all(is_admissible(*t, k1, k2) for t in triples)
        from itertools import product

        brute = {(l1, l2, m) for l1, l2, m in product(range(k1 + 1), range(k2 + 1),
                                                      range(k2 + 1))
                 if is_admissible(l1, l2, m, k1, k2)}
        assert set(triples) == brute


class TestSolver:
    @pytest.mark.parametrize("k1,k2", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (5, 3)])
    def test_solver_fills_table_and_residuals_vanish(self, k1, k2):
        rng = np.random.default_rng(10 * k1 + k2)
        p = random_params(rng, k1, k2)
        tab, tabt = solve_both(p)
        assert set(tab.entries) == set(admissible_triples(k1, k2))
        for table in (tab, tabt):
            for rid, resid, _ in verify_relations(table, p):
                assert resid < 1e-10, (rid, resid)

    def test_overdetermined_relations_exist_and_check(self):
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        tab, _ = solve_both(p)
        res = verify_relations(tab, p)
        assert any(not pivot for _, _, pivot in res)

    @pytest.mark.parametrize("k1,k2", [(2, 1), (2, 2), (3, 2)])
    def test_closed_form_agreement_50_draws(self, k1, k2):
        rng = np.random.default_rng(100 + 10 * k1 + k2)
        for _ in range(50):
            p = random_params(rng, k1, k2)
            tab, tabt = solve_both(p)
            a = (tab.value((0, k2, 0)) / cf.j_closed_form("J0k20", p)).to_float()
            b = (tab.value((k1, k2, 0)) / cf.j_closed_form("Jk1k20", p)).to_float()
            assert a == pytest.approx(1.0, rel=1e-10)
            assert b == pytest.approx(1.0, rel=1e-10)
            for m in range(k2 + 1):
                c = (tabt.value((k1, k2, m))
                     / cf.j_closed_form("Jtk1k2m", p, m=m)).to_float()
                assert c == pytest.approx(1.0, rel=1e-10)

    def test_k2_zero_reproduces_moment_chain(self):
        # with no second block the table entries are the one-block moments
        p = ParamSet(k1=3, k2=0, alpha=1.5, beta1=1.2, gamma=-0.12)
        seed = cf.j_closed_form("J000", p)
        tab = solve_j(p, seed)
        for l1 in range(4):
            want = cf.aomoto_rhs(3, l1, p).to_float()
            assert tab.value((l1, 0, 0)).to_float() == pytest.approx(want, rel=1e-12)

    def test_corrupted_table_fails_residuals(self):
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        tab, _ = solve_both(p)
        tab.entries[(1, 1, 0)] = tab.entries[(1, 1, 0)] * LogSigned.from_float(1.01)
        worst = max(r for _, r, _ in verify_relations(tab, p))
        assert worst > 1e-4

    def test_pivot_guard(self):
        # beta1 chosen so an l1-advance pivot vanishes
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=0.15, beta2=1.4, gamma=-0.15)
        # pivot beta1 + (l1 - l2 + m) gamma = 0.15 - 0.15 at (1,1,0) advance
        with pytest.raises(PivotZeroError):
            solve_both(p)

    def test_provenance_recorded(self):
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        tab, _ = solve_both(p)
        assert tab.provenance[(0, 0, 0)] == "seed"
        assert all(v in ("seed", "relation") for v in tab.provenance.values())


class TestRelationInstances:
    def test_all_relations_skip_structurally_absent_terms(self):
        p = ParamSet(k1=2, k2=2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        for rel in all_relations(p, twisted=False):
            for coeff, triple in rel.terms:
                assert is_admissible(*triple, p.k1, p.k2)


class TestShiftIdentity:
    @pytest.mark.parametrize("k1,k2", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 1)])
    def test_shift_residuals(self, k1, k2):
        p = ParamSet(k1=k1, k2=k2, alpha=1.47, beta1=1.23, beta2=1.61, gamma=-0.17)
        residuals = jjl_shift_residuals(p)
        assert len(residuals) == k2 + 1 and max(residuals) < 1e-8

    def test_k2_zero_trivial(self):
        p = ParamSet(k1=2, k2=0, alpha=1.5, beta1=1.2, gamma=-0.1)
        assert jjl_shift_residuals(p)[0] < 1e-12


class TestAomotoSuite:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_ratio_residuals(self, k):
        p = ParamSet(k1=k, k2=0, alpha=1.5, beta1=1.2, gamma=-0.11)
        assert max(aomoto_ratio_residuals(k, p)) < 1e-12
