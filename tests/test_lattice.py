"""Cone enumeration, series summation, and the first-order system."""

import math

import numpy as np
import pytest

from oracles import (
    brute_cone_integer_parts,
    hand_phi_sign_log,
    mp_gamma,
    regular_mask,
    regular_values,
    sequential_limit_pair,
    shell_by_shell_sum,
    sum_over_total_lattice,
)
from selberg3 import closed_forms as cf
from selberg3.errors import LimitDisagreementError
from selberg3.identities import Budget, run_identity
from selberg3.integrands import LatticePoint, integer_parts_in_cone, lattice_shift
from selberg3.lattice import (
    TABLE_START,
    FactorTables,
    cone_array,
    cone_integer_parts,
    eps_limit_ratio,
    lattice_values,
    pde_coefficients,
    pde_residual,
    sum_discrete,
)
from selberg3.params import ParamSet


class TestEnumeration:
    def test_k1_line(self):
        pts = [LatticePoint(nu, nv, -0.2) for nu, nv in cone_integer_parts(1, 0, 3)]
        assert sorted(pt.nu[0] for pt in pts) == [0, 1, 2, 3]
        assert all(pt.u[0] == pt.nu[0] for pt in pts)  # shift is 0 for the last slot

    def test_k2_pairs(self):
        got = {nu for nu, _ in cone_integer_parts(2, 0, 2)}
        assert got == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}

    def test_11_interleaving(self):
        got = {(nu, nv) for nu, nv in cone_integer_parts(1, 1, 1)}
        want = brute_cone_integer_parts(1, 1, 1)
        assert got == want

    @pytest.mark.parametrize("k1,k2", [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2),
                                       (3, 1), (3, 2), (4, 1)])
    def test_brute_force_equality(self, k1, k2):
        bound = 6 if k1 + k2 <= 3 else 4
        got = set(cone_integer_parts(k1, k2, bound))
        want = brute_cone_integer_parts(k1, k2, bound)
        assert got == want

    def test_points_carry_shift(self):
        gamma = -0.2
        for nu, nv in cone_integer_parts(2, 1, 1):
            pt = LatticePoint(nu, nv, gamma)
            assert pt.u[0] == pytest.approx(pt.nu[0] + gamma)
            assert pt.u[1] == pt.nu[1]
            assert pt.v[0] == pt.nv[0]
            assert integer_parts_in_cone(pt.nu, pt.nv, 2, 1)


SHELL_SHAPES = [(1, 0), (3, 0), (1, 1), (2, 2), (3, 2), (3, 3), (4, 2)]


def _shell(k1, k2, j):
    return [(tuple(r[:k1]), tuple(r[k1:])) for r in cone_array(k1, k2, j, least=j).tolist()]


class TestShells:
    @pytest.mark.parametrize("k1,k2", SHELL_SHAPES)
    def test_shell_is_brute_cone_at_largest_part(self, k1, k2):
        for j in range(9):
            got = _shell(k1, k2, j)
            assert len(got) == len(set(got))
            want = {(nu, nv) for nu, nv in brute_cone_integer_parts(k1, k2, j)
                    if max(nu + nv) == j}
            assert set(got) == want

    @pytest.mark.parametrize("k1,k2", SHELL_SHAPES)
    def test_shells_partition_the_cone(self, k1, k2):
        bound = 8 if k1 + k2 <= 4 else 6
        shells = [set(_shell(k1, k2, j)) for j in range(bound + 1)]
        union = set().union(*shells)
        assert sum(len(s) for s in shells) == len(union)
        assert union == set(cone_integer_parts(k1, k2, bound))

    @pytest.mark.parametrize("k1,k2", SHELL_SHAPES)
    def test_cone_order_is_lexicographic(self, k1, k2):
        # limit_direction shuffles this list with a seeded rng
        for bound in (0, 3, 6):
            pts = list(cone_integer_parts(k1, k2, bound))
            assert pts == sorted(pts)
            assert all(isinstance(x, int) for nu, nv in pts for x in nu + nv)

    def test_empty_point_sits_in_shell_zero(self):
        assert _shell(0, 0, 0) == [((), ())]
        assert _shell(0, 0, 1) == []


TABLE_SHAPES = [(1, 0), (3, 0), (1, 1), (2, 1), (3, 2)]


def _mixed_batch(k1, k2):
    """Cone points, negated cone points and random parts in [-4, 7]."""
    rng = np.random.default_rng(5)
    return np.vstack((cone_array(k1, k2, 7), -cone_array(k1, k2, 4),
                      rng.integers(-4, 8, size=(400, k1 + k2))))


def _oracle_values(NU, NV, p, seed, include_weight=True):
    """hand_phi_sign_log and weight_w at regular points, the sequential
    two-direction limit elsewhere."""
    regular, vals = regular_values(NU, NV, p, include_weight)
    for i in np.flatnonzero(~regular):
        pt = LatticePoint(tuple(int(x) for x in NU[i]), tuple(int(x) for x in NV[i]), p.gamma)
        a, b = sequential_limit_pair(pt, p, seed=seed, include_weight=include_weight)
        vals[i] = 0.5 * (a + b)
    return regular, vals


class TestFactorTables:
    @pytest.mark.parametrize("gamma", [-0.15, -0.5, -1 / 3])
    @pytest.mark.parametrize("k1,k2", TABLE_SHAPES)
    def test_mask_and_product_match_phi_bit_for_bit(self, k1, k2, gamma):
        P = _mixed_batch(k1, k2)
        NU, NV = P[:, :k1].astype(float), P[:, k1:].astype(float)
        singular = zeros = 0
        for alpha in (1.3, 2.0):  # 2.0 puts Gamma(u + alpha) poles at negative parts
            p = ParamSet(k1=k1, k2=k2, alpha=alpha, gamma=gamma, z1=0.3, z2=0.5)
            tables = FactorTables(k1, k2, p, int(P.min()), int(P.max()))
            index = tables.index(P)
            regular = tables.regular(index, P.shape[0])
            assert np.array_equal(regular, regular_mask(NU, NV, p))
            idx = np.flatnonzero(regular)
            U = NU[idx] + lattice_shift(k1, gamma)[None, :]
            V = NV[idx] + lattice_shift(k2, gamma)[None, :] if k2 else np.zeros((idx.size, 0))
            sign, logm = tables.sign_log([ix[idx] for ix in index], U, V)
            want_sign, want_log = hand_phi_sign_log(U, V, p, zero_tol=1e-9)
            assert np.array_equal(sign, want_sign)
            assert np.array_equal(logm, want_log)
            singular += int((~regular).sum())
            zeros += int((sign == 0.0).sum())
        assert singular and zeros  # poles or denominator hits, and 1/Gamma zeros

    @pytest.mark.parametrize("k1,k2", [(2, 2), (3, 2)])
    def test_cone_batch_with_singular_points(self, k1, k2):
        p = ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.5)
        P = cone_array(k1, k2, 6).astype(float)
        regular, want = _oracle_values(P[:, :k1], P[:, k1:], p, seed=11)
        assert (~regular).any()
        assert np.array_equal(lattice_values(P[:, :k1], P[:, k1:], p, seed=11), want)

    @pytest.mark.parametrize("include_weight", [True, False])
    def test_batch_with_negative_parts(self, include_weight):
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        P = (np.indices((9, 9, 9)).reshape(3, -1).T - 4).astype(float)
        _, want = _oracle_values(P[:, :2], P[:, 2:], p, seed=3, include_weight=include_weight)
        got = lattice_values(P[:, :2], P[:, 2:], p, include_weight=include_weight, seed=3)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("which,k1,k2,z1,z2", [("dexp3", 2, 2, 0.3, 0.4),
                                                   ("dexp3", 2, 1, 0.6, 0.6),
                                                   ("dexp", 2, 0, 0.6, 0.5)])
    def test_sum_discrete_across_table_regrowth(self, which, k1, k2, z1, z2):
        p = ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=-0.15, z1=z1, z2=z2)
        res = sum_discrete(which, p, rel_tol=1e-10, seed=5)
        assert res.converged and res.bound >= TABLE_START
        shells, mom1, mom2 = [], [], []
        for j in range(res.bound + 1):
            P = cone_array(k1, k2, j, least=j).astype(float)
            _, vals = _oracle_values(P[:, :k1], P[:, k1:], p, seed=5,
                                     include_weight=which == "dexp3")
            shells.append(math.fsum(vals.tolist()))
            mom1.append(math.fsum((vals * P[:, :k1].sum(axis=1)).tolist()))
            mom2.append(math.fsum((vals * P[:, k1:].sum(axis=1)).tolist()))
        assert res.last_shell == shells[-1]
        assert res.partial_sum == math.fsum(shells)
        # the summand carries z1**sum(u) * z2**sum(v), u = nu + shift
        shift1 = p.gamma * k1 * (k1 - 1) / 2
        shift2 = p.gamma * k2 * (k2 - 1) / 2
        want1 = (math.fsum(mom1) + shift1 * res.partial_sum) / z1
        want2 = (math.fsum(mom2) + shift2 * res.partial_sum) / z2
        assert res.dz1 == pytest.approx(want1, rel=1e-13)
        assert res.dz2 == pytest.approx(want2, rel=1e-13)


class TestSeries:
    def test_geometric_series(self):
        p = ParamSet(k1=1, k2=0, alpha=1.0, gamma=-0.2, z1=0.5)
        res = sum_discrete("dexp", p, rel_tol=1e-10)
        assert res.converged
        assert res.partial_sum == pytest.approx(2.0, rel=1e-9)
        assert abs(res.last_shell) <= 1e-10 * abs(res.partial_sum)

    def test_dexp_matches_value(self):
        p = ParamSet(k1=2, k2=0, alpha=1.3, gamma=-0.2, z1=0.4)
        res = sum_discrete("dexp", p, rel_tol=1e-10)
        want = cf.discrete_exp_rhs(p).to_float()
        assert res.partial_sum == pytest.approx(want, rel=1e-9)

    def test_dexp3_at_k2_zero_matches_dexp_sums(self):
        p = ParamSet(k1=2, k2=0, alpha=1.3, gamma=-0.2, z1=0.4)
        a = sum_discrete("dexp", p, rel_tol=1e-10)
        b = sum_discrete("dexp3", p, rel_tol=1e-10)
        assert a.partial_sum == pytest.approx(b.partial_sum, rel=1e-12)

    def test_shell_decay_is_geometric(self):
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.12, z1=0.5, z2=0.4)
        start = 4 * (p.k1 + p.k2)
        _, shells = shell_by_shell_sum("dexp3", p, rel_tol=0.0, max_bound=start + 5)
        shells = [abs(s) for s in shells[start:]]
        assert len(shells) == 6
        for a, b in zip(shells, shells[1:]):
            assert b < 0.9 * a

    @pytest.mark.parametrize("k1,k2", [(2, 1), (2, 2), (3, 1)])
    def test_z_derivatives_match_central_differences(self, k1, k2):
        p = ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.4)
        res = sum_discrete("dexp3", p)
        h = 1e-5
        for name, got in (("z1", res.dz1), ("z2", res.dz2)):
            z = getattr(p, name)
            up = sum_discrete("dexp3", p.with_(**{name: z + h})).partial_sum
            down = sum_discrete("dexp3", p.with_(**{name: z - h})).partial_sum
            assert got == pytest.approx((up - down) / (2 * h), rel=1e-6)

    def test_not_converged_flag(self):
        p = ParamSet(k1=1, k2=0, alpha=1.0, gamma=-0.2, z1=0.9)
        res = sum_discrete("dexp", p, rel_tol=1e-10, max_bound=5)
        assert not res.converged

    def test_total_lattice_equals_cone(self):
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        tot = sum_over_total_lattice(p, bound=12)
        cone = sum_discrete("dexp3", p, rel_tol=1e-14, max_bound=12)
        assert tot == pytest.approx(cone.partial_sum, rel=1e-8)

    def test_negative_parts_vanish_for_k1(self):
        # 1/Gamma(u+1) kills every negative integer part
        from selberg3.lattice import lattice_values

        p = ParamSet(k1=1, k2=0, alpha=1.3, gamma=-0.2, z1=0.5)
        NU = np.array([[-1.0], [-2.0], [-5.0]])
        vals = lattice_values(NU, np.zeros((3, 0)), p)
        assert np.all(vals == 0.0)

    def test_off_cone_shells_negligible(self):
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        from selberg3.lattice import lattice_values

        rng = np.random.default_rng(3)
        NU = rng.integers(-4, 6, size=(200, 2)).astype(float)
        NV = rng.integers(-4, 6, size=(200, 1)).astype(float)
        from selberg3.integrands import integer_parts_in_cone

        off = np.array([not integer_parts_in_cone(nu, nv, 2, 1)
                        for nu, nv in zip(NU, NV)])
        vals = lattice_values(NU[off], NV[off], p)
        cone = sum_discrete("dexp3", p, rel_tol=1e-10).partial_sum
        assert np.abs(vals).max() <= 1e-10 * abs(cone)


SERIES_SHAPES = [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]


def _outcome(fn, *args, **kwargs):
    """What a call returns, or the class and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _oracle_sum(*args, **kwargs):
    return shell_by_shell_sum(*args, **kwargs)[0]


def _spy(monkeypatch, module, name):
    """Record the integer parts of every call to ``module.name``."""
    calls, real = [], getattr(module, name)

    def spy(NU, NV, *args, **kwargs):
        calls.append(np.hstack((NU, NV)))
        return real(NU, NV, *args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestBlockedSum:
    """Blocks of shells give the series of one shell at a time, bit for bit."""

    @pytest.mark.parametrize("which", ["dexp", "dexp3"])
    @pytest.mark.parametrize("k1,k2", SERIES_SHAPES)
    def test_equals_shell_by_shell(self, which, k1, k2):
        # at z = 0.6 the (3, 2) series runs 44 shells, too slow for both sides
        for z, bounds in ((0.3, (None, 0, 5, 12)), (0.6, (0, 5, 12)), (1e-6, (None, 0, 5, 12))):
            for max_bound in bounds:
                p = ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=-0.15, z1=z, z2=z)
                got = _outcome(sum_discrete, which, p, max_bound=max_bound, seed=5)
                assert got == _outcome(_oracle_sum, which, p, max_bound=max_bound, seed=5)
                if z == 1e-6 and max_bound is None:
                    assert got.converged and got.bound <= 2

    def test_equal_errors(self):
        # Gamma(u_0 + alpha) meets a zero at nu = (0, 0), where the limits disagree
        p = ParamSet(k1=2, k2=0, alpha=1.3, gamma=-0.5, z1=0.3)
        got = _outcome(sum_discrete, "dexp", p, seed=5)
        assert got[0] is LimitDisagreementError
        assert got == _outcome(_oracle_sum, "dexp", p, seed=5)

    def test_tables_regrow_across_a_block(self, monkeypatch):
        import selberg3.lattice as lattice

        spans = []

        class SpyTables(FactorTables):
            def __init__(self, k1, k2, p, lo, hi):
                spans.append((lo, hi))
                super().__init__(k1, k2, p, lo, hi)

        monkeypatch.setattr(lattice, "FactorTables", SpyTables)
        p = ParamSet(k1=2, k2=0, alpha=1.3, gamma=-0.15, z1=0.6)
        got = sum_discrete("dexp", p, seed=5)
        # the block of shells 7..14 starts inside the first tables and ends past them
        assert spans[:2] == [(0, TABLE_START - 1), (0, 2 * TABLE_START - 1)]
        assert got.converged and got.bound >= 2 * TABLE_START
        monkeypatch.undo()
        assert got == _oracle_sum("dexp", p, seed=5)

    # at z = 0.05 the series stops at shell 7 of the block 7..9, at z = 0.2
    # after its multi-shell blocks
    @pytest.mark.parametrize("z,stop_in_block", [(0.05, True), (0.2, False)])
    def test_limits_probed_per_shell_up_to_the_stop(self, monkeypatch, z, stop_in_block):
        import selberg3.lattice as lattice

        values = _spy(monkeypatch, lattice, "lattice_values")
        calls = _spy(monkeypatch, lattice, "limit_pairs")
        p = ParamSet(k1=2, k2=2, alpha=1.3, gamma=-0.15, z1=z, z2=z)
        got = sum_discrete("dexp3", p, seed=5)
        blocked = calls.copy()
        calls.clear()
        assert got == _oracle_sum("dexp3", p, seed=5)
        assert len(blocked) == len(calls) > 1
        for a, b in zip(blocked, calls):
            assert np.array_equal(a, b)
        for P in blocked:  # one shell per call, none past the stop
            largest = P.max(axis=1)
            assert largest.min() == largest.max() <= got.bound
        # the stopping shell's block runs on, over regular points only,
        # past shells that hold singular points
        past = np.vstack([P[P.max(axis=1) > got.bound] for P in values])
        assert bool(past.size) == stop_in_block
        if not stop_in_block:
            return
        hi = int(past.max())
        assert regular_mask(past[:, :2], past[:, 2:], p).all()
        after = cone_array(2, 2, hi, least=got.bound + 1).astype(float)
        assert not regular_mask(after[:, :2], after[:, 2:], p).all()

    def test_few_value_calls_for_small_shells(self, monkeypatch):
        import selberg3.lattice as lattice

        calls = _spy(monkeypatch, lattice, "lattice_values")
        p = ParamSet(k1=1, k2=1, alpha=1.3, gamma=-0.15, z1=0.5, z2=0.5)
        got = sum_discrete("dexp3", p)
        assert got.converged and got.bound > 14
        assert len(calls) <= 6

    @pytest.mark.parametrize("k1,k2", SHELL_SHAPES)
    def test_cone_block_is_its_shells(self, k1, k2):
        def rows(P):
            return {tuple(r) for r in P.tolist()}

        for j, hi in ((0, 0), (0, 3), (1, 2), (3, 6), (5, 5)):
            block = cone_array(k1, k2, hi, least=j)
            shells = np.vstack([cone_array(k1, k2, s, least=s) for s in range(j, hi + 1)])
            assert len(block) == len(shells) and rows(block) == rows(shells)
            order = np.argsort(block.max(axis=1, initial=0), kind="stable")
            assert np.array_equal(block[order], shells)

    def test_max_bound_below_zero_raises(self):
        p = ParamSet(k1=1, alpha=1.0, gamma=-0.2, z1=0.5)
        with pytest.raises(ValueError, match="max_bound"):
            sum_discrete("dexp", p, max_bound=-1)
        with pytest.raises(ValueError, match="max_bound"):
            run_identity("dexp", p, budget=Budget(max_bound=-3))
        res = sum_discrete("dexp", p, max_bound=0)  # shell 0 is the point nu = (0,)
        assert (res.partial_sum, res.last_shell, res.bound, res.converged) == (1.0, 1.0, 0, False)

    def test_one_batch_tables_span_the_batch(self, monkeypatch):
        import selberg3.lattice as lattice
        from selberg3.integrands import f_limit

        spans = []

        class SpyTables(FactorTables):
            def __init__(self, k1, k2, p, lo, hi):
                spans.append((lo, hi))
                super().__init__(k1, k2, p, lo, hi)

        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.5)
        points = [LatticePoint((600, 300), (400,), p.gamma), LatticePoint((12, 5), (8,), p.gamma)]
        # tables from 0 up, as every batch had before
        want = [lattice_values(np.array([pt.nu]), np.array([pt.nv]), p,
                               tables=FactorTables(2, 1, p, 0, max(pt.nu)))[0] for pt in points]
        assert want[1] != 0.0
        monkeypatch.setattr(lattice, "FactorTables", SpyTables)
        assert [f_limit(pt, p) for pt in points] == want
        assert lattice_values(np.zeros((0, 2)), np.zeros((0, 1)), p).shape == (0,)
        assert spans == [(300, 600), (5, 12), (0, 0)]


class TestDynamicalSystem:
    def test_k1_only_closed_solution(self):
        # for one block the system is d/dz log Psi = alpha/(1-z)
        p = ParamSet(k1=1, k2=0, alpha=1.4, gamma=-0.2, z1=0.45, z2=0.5)
        r1, r2 = pde_residual(p, use_closed_form=False)
        assert r1 < 1e-7
        c1, _ = pde_coefficients(p)
        assert c1 == pytest.approx(p.alpha / (1 - p.z1), rel=1e-12)

    def test_closed_form_residuals_select_z2_variant(self):
        p = ParamSet(k1=2, k2=2, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.35)
        good = pde_residual(p, use_closed_form=True,
                            second_eq_denominator="z2")
        bad = pde_residual(p, use_closed_form=True,
                           second_eq_denominator="z1")
        assert max(good) < 1e-6
        assert bad[1] > 1e-3  # the printed z1 denominator is inconsistent

    def test_series_residuals_21(self):
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        r1, r2 = pde_residual(p)
        assert max(r1, r2) < 1e-6

    def test_series_residuals_take_one_series_pass(self, monkeypatch):
        import selberg3.lattice as lattice

        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return sum_discrete(*args, **kwargs)

        monkeypatch.setattr(lattice, "sum_discrete", spy)
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.5)
        assert max(lattice.pde_residual(p)) < 1e-6
        assert calls == ["dexp3"]


class TestEpsLimitLink:
    def test_ratio_tends_to_one(self):
        p = ParamSet(k1=2, k2=1, alpha=1.3, beta1=1.0, beta2=1.3, gamma=-0.15)
        r2 = eps_limit_ratio(p, 1e-2)
        r3 = eps_limit_ratio(p, 1e-3)
        assert abs(r3 - 1.0) < abs(r2 - 1.0)
        assert abs(r3 - 1.0) < 5e-2
