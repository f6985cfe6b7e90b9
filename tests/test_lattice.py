"""Cone enumeration, series summation, and the first-order system."""

import math

import numpy as np
import pytest

from oracles import (
    brute_cone_integer_parts,
    mp_gamma,
    regular_mask,
    regular_values,
    sequential_limit_pair,
)
from selberg3 import closed_forms as cf
from selberg3.integrands import LatticePoint, lattice_shift, phi_sign_log
from selberg3.lattice import (
    TABLE_START,
    ConeSpec,
    FactorTables,
    cone_array,
    cone_integer_parts,
    enumerate_cone,
    eps_limit_ratio,
    lattice_values,
    pde_coefficients,
    pde_residual,
    sum_discrete,
    sum_over_total_lattice,
)
from selberg3.params import ParamSet


class TestEnumeration:
    def test_k1_line(self):
        pts = list(enumerate_cone(ConeSpec(1, 0, -0.2, 3)))
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
        spec = ConeSpec(2, 1, -0.2, 1)
        for pt in enumerate_cone(spec):
            assert pt.u[0] == pytest.approx(pt.nu[0] + spec.gamma)
            assert pt.u[1] == pt.nu[1]
            assert pt.v[0] == pt.nv[0]
            assert pt.in_cone


SHELL_SHAPES = [(1, 0), (3, 0), (1, 1), (2, 2), (3, 2), (3, 3), (4, 2)]


def _shell(k1, k2, j):
    return [(tuple(r[:k1]), tuple(r[k1:])) for r in cone_array(k1, k2, j, shell=True).tolist()]


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
    """phi_sign_log and weight_w at regular points, the sequential
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
            want_sign, want_log = phi_sign_log(U, V, p, zero_tol=1e-9)
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
        shells = []
        for j in range(res.bound + 1):
            P = cone_array(k1, k2, j, shell=True).astype(float)
            _, vals = _oracle_values(P[:, :k1], P[:, k1:], p, seed=5,
                                     include_weight=which == "dexp3")
            shells.append(math.fsum(vals.tolist()))
        assert res.last_shell == shells[-1]
        assert res.partial_sum == math.fsum(shells)


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
        from selberg3.lattice import _shell_sum

        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.12, z1=0.5, z2=0.4)
        start = 4 * (p.k1 + p.k2)
        shells = [abs(_shell_sum(2, 1, j, p, True, 7919)) for j in range(start, start + 6)]
        for a, b in zip(shells, shells[1:]):
            assert b < 0.9 * a

    def test_not_converged_flag(self):
        p = ParamSet(k1=1, k2=0, alpha=1.0, gamma=-0.2, z1=0.9)
        res = sum_discrete("dexp", p, rel_tol=1e-10, max_bound=5)
        assert not res.converged

    def test_total_lattice_equals_cone(self):
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        tot = sum_over_total_lattice(p, bound=12)
        cone = sum_discrete("dexp3", p, rel_tol=1e-14, max_bound=12)
        assert tot.partial_sum == pytest.approx(cone.partial_sum, rel=1e-8)

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


class TestDynamicalSystem:
    def test_k1_only_closed_solution(self):
        # for one block the system is d/dz log Psi = alpha/(1-z)
        p = ParamSet(k1=1, k2=0, alpha=1.4, gamma=-0.2, z1=0.45, z2=0.5)
        r1, r2 = pde_residual(p, step=1e-4, use_closed_form=False)
        assert r1 < 1e-7
        c1, _ = pde_coefficients(p)
        assert c1 == pytest.approx(p.alpha / (1 - p.z1), rel=1e-12)

    def test_closed_form_residuals_select_z2_variant(self):
        p = ParamSet(k1=2, k2=2, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.35)
        good = pde_residual(p, step=1e-4, use_closed_form=True,
                            second_eq_denominator="z2")
        bad = pde_residual(p, step=1e-4, use_closed_form=True,
                           second_eq_denominator="z1")
        assert max(good) < 1e-6
        assert bad[1] > 1e-3  # the printed z1 denominator is inconsistent

    def test_series_residuals_21(self):
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        r1, r2 = pde_residual(p, step=1e-4)
        assert max(r1, r2) < 1e-6


class TestEpsLimitLink:
    def test_ratio_tends_to_one(self):
        p = ParamSet(k1=2, k2=1, alpha=1.3, beta1=1.0, beta2=1.3, gamma=-0.15)
        r2 = eps_limit_ratio(p, 1e-2)
        r3 = eps_limit_ratio(p, 1e-3)
        assert abs(r3 - 1.0) < abs(r2 - 1.0)
        assert abs(r3 - 1.0) < 5e-2
