"""Recursion system: solver, residuals, closed-form corners, shifts."""

import math
from fractions import Fraction

import numpy as np
import pytest

from selberg3 import closed_forms as cf
from selberg3 import recursions
from selberg3.errors import InconsistentSystemError, InvalidParamsError, PivotZeroError
from selberg3.identities import REGISTRY, run_identity
from selberg3.integrands import is_admissible
from selberg3.logreal import LogSigned
from selberg3.params import ParamSet
from oracles import aomoto_ratio_residuals, exact_unit_table, raw_relations, relation_instances
from selberg3.recursions import (
    admissible_triples,
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
            for rid, resid, _ in verify_relations(table):
                assert resid < 1e-10, (rid, resid)

    def test_overdetermined_relations_exist_and_check(self):
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        tab, _ = solve_both(p)
        res = verify_relations(tab)
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
        tab.entries[(1, 1, 0)] *= 1.01
        worst = max(r for _, r, _ in verify_relations(tab))
        assert worst > 1e-4

    def test_plan_built_once_per_shape(self):
        recursions._plan.cache_clear()
        p = ParamSet(k1=3, k2=2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        for _ in range(2):
            assert run_identity("jjj_relations", p).passed
        # one plan per family; the predicate, solves and checks reuse them
        info = recursions._plan.cache_info()
        assert (info.misses, info.hits) == (2, 8)

    def test_residuals_match_the_oracle_relations(self):
        p = ParamSet(k1=3, k2=2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        for tab in solve_both(p):
            want = []
            for rid, terms in relation_instances(p, tab.twisted).items():
                x = [c * tab.entries[t] for c, t in terms]
                scale = max(abs(v) for v in x)
                want.append((rid, abs(math.fsum(x)) / scale))
            assert [(rid, r) for rid, r, _ in verify_relations(tab)] == want

    def test_pivot_guard(self):
        # beta1 chosen so an l1-advance pivot vanishes
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=0.15, beta2=1.4, gamma=-0.15)
        # pivot beta1 + (l1 - l2 + m) gamma = 0.15 - 0.15 at (1,1,0) advance
        with pytest.raises(PivotZeroError):
            solve_both(p)

    def test_column_top_guard(self):
        # a point inside the recursion predicate where a column top's 2x2
        # determinant cancels to rounding (-6.9e-18)
        p = ParamSet(k1=3, k2=3, alpha=1.5, beta1=0.1, beta2=0.2, gamma=-0.3)
        REGISTRY["jjj_relations"].validate(p)
        with pytest.raises(PivotZeroError, match="column-top determinant"):
            solve_both(p)


# worst relative error of a unit-seed float table against the exact walk
EXACT_WALK_BOUNDS = {(2, 1): 3e-14, (2, 2): 3e-14, (3, 2): 3e-14, (8, 0): 3e-14,
                     (4, 3): 2e-12, (4, 4): 2e-12, (5, 3): 1e-10}

# two (4, 4) points where the walk is ill-conditioned (alpha, beta1, beta2, gamma)
POINT_A = (0.12047200123749455, 0.24341129963433877, 2.895160953473054, -0.17743075995130247)
POINT_B = (1.935608529594337, 0.7333134824465303, 2.870393401729174, -0.4018877802087702)


class TestUnitSeedTables:
    @pytest.mark.parametrize("k1,k2", list(EXACT_WALK_BOUNDS))
    def test_float_table_matches_exact_walk(self, k1, k2):
        rng = np.random.default_rng(500 + 10 * k1 + k2)
        worst = 0.0
        for _ in range(40):
            p = random_params(rng, k1, k2)
            for twisted in (False, True):
                tab = solve_j(p, LogSigned.one(), twisted)
                exact = exact_unit_table(p, twisted)
                assert set(tab.entries) == set(exact)
                worst = max(worst, max(abs((Fraction(tab.entries[t]) - x) / x)
                                       for t, x in exact.items()))
        assert worst <= EXACT_WALK_BOUNDS[(k1, k2)]

    def test_entry_out_of_float_range_is_named(self):
        p = ParamSet(k1=3, k2=0, alpha=1e200, beta1=1.2, gamma=-0.1)
        with pytest.raises(InconsistentSystemError, match="non-finite"):
            solve_j(p, LogSigned.one())

    def test_seed_scales_entries_at_read_out(self):
        p = ParamSet(k1=3, k2=2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        seed = cf.j_closed_form("J000", p)
        tab = solve_j(p, seed)
        assert tab.seed == seed and tab.entries[(0, 0, 0)] == 1.0
        for triple, x in tab.entries.items():
            assert tab.value(triple) == seed * LogSigned.from_float(x)

    def test_point_b_passes_every_recursion_identity(self):
        a, b1, b2, g = POINT_B
        p = ParamSet(k1=4, k2=4, alpha=a, beta1=b1, beta2=b2, gamma=g)
        for ident in ("jjj_relations", "j0k", "jjl_shift"):
            rec = run_identity(ident, p)
            assert rec.passed, (ident, rec.rel_dev, rec.tolerance)

    def test_point_a_residual_pinned(self):
        # a known breach of the 1e-10 default, set by the walk's conditioning
        a, b1, b2, g = POINT_A
        p = ParamSet(k1=4, k2=4, alpha=a, beta1=b1, beta2=b2, gamma=g)
        assert run_identity("jjj_relations", p).rel_dev <= 3e-10


# every shape with k1 + k2 <= 8, the seed-only (0, 0) too
PLAN_SHAPES = [(k1, k2) for k1 in range(9) for k2 in range(k1 + 1) if k1 + k2 <= 8]


class TestRelationPlan:
    @pytest.mark.parametrize("twisted", [False, True])
    def test_coefficients_match_the_oracle_bit_for_bit(self, twisted):
        rng = np.random.default_rng(27)
        for k1, k2 in PLAN_SHAPES:
            plan = recursions._plan(k1, k2, twisted)
            for _ in range(3):
                p = random_params(rng, k1, k2)
                c = solve_j(p, LogSigned.one(), twisted).coeffs
                raw = raw_relations(p, twisted)
                assert plan.rids == [rid for rid, _ in raw]
                for r, (rid, terms) in enumerate(raw):
                    for i, (want, triple) in zip(range(3 * r, 3 * r + 3), terms):
                        if is_admissible(*triple, k1, k2):
                            assert c[i].hex() == want.hex(), (rid, triple)
                            assert plan.triples[plan.terms[i]] == triple
                        else:
                            assert c[i] == want == 0.0, (rid, triple)

    @pytest.mark.parametrize("twisted", [False, True])
    def test_pruned_terms_have_zero_rows(self, twisted):
        pruned = 0
        for k1, k2 in PLAN_SHAPES:
            plan = recursions._plan(k1, k2, twisted)
            p = ParamSet(k1=k1, k2=k2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
            for r, (rid, terms) in enumerate(raw_relations(p, twisted)):
                for i, (_, triple) in zip(range(3 * r, 3 * r + 3), terms):
                    if not is_admissible(*triple, k1, k2):
                        assert not plan.rows[:, i].any() and plan.terms[i] == 0, (rid, triple)
                        pruned += 1
        assert pruned > 0

    @pytest.mark.parametrize("k1,k2", [(0, 0), (3, 0), (1, 1)])
    def test_no_over_determined_relation_is_invalid(self, k1, k2):
        p = ParamSet(k1=k1, k2=k2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        assert False not in recursions._plan(k1, k2, False).pivot
        with pytest.raises(InvalidParamsError, match="k1 >= 1" if k1 == 0 else "over-determined"):
            run_identity("jjj_relations", p)

    @pytest.mark.parametrize("identity", ["jjl_shift", "j0k"])
    def test_seed_only_table_is_invalid(self, identity):
        # at k1 = 0 both sides are the seed, so the check would read exactly 0
        with pytest.raises(InvalidParamsError, match="k1 >= 1"):
            run_identity(identity, ParamSet(k1=0, k2=0, alpha=1.5, beta1=1.2, gamma=-0.15))


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
