"""Cone enumeration, series summation, and the first-order system."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import digamma, gammaln

from oracles import (
    brute_cone_integer_parts,
    cone_array_from,
    cone_integer_parts,
    degree_shell_sum,
    hand_lattice_sign_log,
    integer_parts_in_cone,
    mp_gamma,
    regular_mask,
    regular_values,
    sequential_point_value,
    shell_by_shell_sum,
    sum_over_total_lattice,
)
from selberg3 import closed_forms as cf
from selberg3.errors import LimitDisagreementError, NotConvergedError
from selberg3.identities import Budget, run_identity
from selberg3.integrands import (
    LatticePoint,
    factor_args,
    factor_table,
    lattice_bases,
    lattice_shift,
    phi_sign_log,
)
from selberg3.lattice import (
    FactorTables,
    cone_array,
    degree_band,
    eps_limit_ratio,
    lattice_values,
    pde_coefficients,
    pde_residual,
    sum_discrete,
    window_tail,
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
    return [(tuple(r[:k1]), tuple(r[k1:])) for r in cone_array_from(k1, k2, j, j).tolist()]


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


def _oracle_values(NU, NV, p, failures=None):
    """hand_phi_sign_log and weight_w at regular points, the limit of each
    point on its own elsewhere; and the rounding of each limit.  A point
    whose limit fails raises, or with a ``failures`` dict leaves its value
    and rounding 0 and puts its message there, by row."""
    regular, vals = regular_values(NU, NV, p)
    rounding = np.zeros(len(vals))
    for i in np.flatnonzero(~regular):
        pt = LatticePoint(tuple(int(x) for x in NU[i]), tuple(int(x) for x in NV[i]), p.gamma)
        try:
            vals[i], rounding[i] = sequential_point_value(pt, p)
        except LimitDisagreementError as exc:
            if failures is None:
                raise
            failures[int(i)] = str(exc)
    return regular, vals, rounding


def _check_batch(NU, NV, p):
    """The block evaluator and ``lattice_values`` on one batch against the
    point-by-point oracle: the same values and roundings at every point
    whose limit holds, the same failed points with the same messages, and
    ``lattice_values`` raising the first of them.  Returns the oracle's
    regular mask and failures."""
    import selberg3.lattice as lattice

    failures = {}
    regular, vals, rounding = _oracle_values(NU, NV, p, failures)
    got_vals, got_rounding, got_failures = lattice._block_values(*lattice._batch(NU, NV, p))
    assert got_failures == failures and list(got_failures) == sorted(failures)
    held = np.ones(len(vals), dtype=bool)
    held[list(failures)] = False
    assert np.array_equal(got_vals[held], vals[held])
    assert np.array_equal(got_rounding[held], rounding[held])
    got = _outcome(lattice_values, NU, NV, p)
    if failures:
        assert got == (LimitDisagreementError, failures[min(failures)])
    else:
        assert all(np.array_equal(g, w) for g, w in zip(got, (vals, rounding)))
    return regular, failures


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
            index = tables.index(P.T)
            regular = tables.regular(index, P.shape[0])
            assert np.array_equal(regular, regular_mask(NU, NV, p))
            idx = np.flatnonzero(regular)
            U = NU[idx] + lattice_shift(k1, gamma)[None, :]
            V = NV[idx] + lattice_shift(k2, gamma)[None, :] if k2 else np.zeros((idx.size, 0))
            sign, logm = tables.sign_log([ix[idx] for ix in index], U, V)
            want_sign, want_log = hand_lattice_sign_log(NU[idx], NV[idx], p)
            assert np.array_equal(sign, want_sign)
            assert np.array_equal(logm, want_log)
            singular += int((~regular).sum())
            zeros += int((sign == 0.0).sum())
        assert singular and zeros  # poles or denominator hits, and 1/Gamma zeros

    @pytest.mark.parametrize("gamma", [-0.15, -1 / 3])
    @pytest.mark.parametrize("k1,k2", [(3, 0), (2, 1), (3, 2)])
    def test_tables_agree_with_phi_to_argument_rounding(self, k1, k2, gamma):
        """The tables take base x = c_p - c_m, c = n + s, as fl(d + fl(s_p - s_m)),
        d = n_p - n_m; ``phi_sign_log`` takes fl(fl(c_p) - fl(c_m)).  The
        first is within eps (|s_p - s_m| + |x|) of x and the second within
        eps (|c_p| + |c_m| + |x|), eps = 2**-53, so they differ by at most
        dx = eps (|c_p| + |c_m| + |s_p - s_m| + 2|x|).  A factor argument
        adds at most two roundings, 4 eps (|arg| + |x| + 1) with dx, and its
        log moves by at most |L'(arg)| times that: |psi(arg)| for a gamma
        factor, 1/|arg| for a plain one; a 1/Gamma zero at -n is its leading
        log, log n!, in both.  Each
        log adds its own evaluation error, 8 eps (|L| + 1), and the two
        fixed-order sums of T logs differ in rounding by at most
        2 T eps times the sum of |logs|.  Signs and singular masks agree."""
        eps = 2.0 ** -53
        rng = np.random.default_rng(5)
        P = np.vstack((_mixed_batch(k1, k2), rng.integers(-4, 300, size=(400, k1 + k2))))
        shifts = np.concatenate((lattice_shift(k1, gamma), lattice_shift(k2, gamma), [0.0]))
        C = np.hstack((P, np.zeros((P.shape[0], 1)))) + shifts
        differ = 0
        for alpha in (1.3, 2.0):
            p = ParamSet(k1=k1, k2=k2, alpha=alpha, gamma=gamma, z1=0.3, z2=0.5)
            tables = FactorTables(k1, k2, p, int(P.min()), int(P.max()))
            index = tables.index(P.T)
            singular = np.zeros(P.shape[0], dtype=bool)
            slope, own, mass = 0.0, 0.0, np.abs(math.log(p.z1) * C[:, :k1].sum(axis=1))
            mass = mass + np.abs(math.log(p.z2) * C[:, k1:-1].sum(axis=1))
            terms = 2
            for family, plus, minus in lattice_bases(k1, k2):
                x = C[:, plus] - C[:, minus]
                dx = eps * (np.abs(C[:, plus]) + np.abs(C[:, minus])
                            + abs(shifts[plus] - shifts[minus]) + 2 * np.abs(x))
                for kind, arg in factor_args(family, x, p):
                    if kind != "recip":  # a pole or a vanishing form
                        singular |= factor_table(kind, arg)[2] != 0
                    if kind == "den":
                        continue
                    terms += 1
                    darg = dx + 4 * eps * (np.abs(arg) + np.abs(x) + 1.0)
                    if kind == "lin":
                        logm, rate = np.log(np.abs(arg)), 1.0 / np.abs(arg)
                    else:
                        zero = (arg < 0.5) & (np.abs(arg - np.rint(arg)) <= 1e-9)
                        safe = np.where(zero, 1.5, arg)
                        # a 1/Gamma zero at -n has the leading log log n!
                        logm = np.where(zero, gammaln(1.0 - np.where(zero, np.rint(arg), 0.0)),
                                        gammaln(safe))
                        rate = np.where(zero, 0.0, np.abs(digamma(safe)))
                    slope = slope + rate * darg
                    own = own + 8 * eps * (np.abs(logm) + 1.0)
                    mass = mass + np.abs(logm)
            regular = tables.regular(index, P.shape[0])
            assert np.array_equal(regular, ~singular)
            U, V = C[regular, :k1], C[regular, k1:-1]
            sign, logm = tables.sign_log([ix[regular] for ix in index], U, V)
            want_sign, want_log = phi_sign_log(U, V, p)
            assert np.array_equal(sign, want_sign)
            bound = (slope + own + 2 * terms * eps * mass)[regular]
            gap = np.abs(logm - want_log)
            assert np.all(gap <= bound)
            differ += int((gap > 0.0).sum())
        assert differ  # the two forms round some arguments apart

    def test_wide_tables_stay_small(self):
        # each base is one table over the differences -2047..2047, not 2048 x 2048
        p = ParamSet(k1=1, k2=1, alpha=1.3, gamma=-0.15, z1=0.95, z2=0.95)
        tracemalloc.start()
        try:
            FactorTables(1, 1, p, 0, 2047)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    # at gamma = -1/2 and -1/3 a pole and a zero share a base, and some
    # points have a pole or a direction-dependent limit
    @pytest.mark.parametrize("k1,k2,gamma", [
        pytest.param(k1, k2, gamma, id=f"{k1}-{k2}" + ("" if gamma == -0.15 else f"-{gamma:.3g}"))
        for gamma in (-0.15, -0.5, -1 / 3) for k1, k2 in ((2, 2), (3, 2))])
    def test_cone_batch_with_singular_points(self, k1, k2, gamma):
        p = ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=gamma, z1=0.3, z2=0.5)
        P = cone_array(k1, k2, 6).astype(float)
        regular, failures = _check_batch(P[:, :k1], P[:, k1:], p)
        assert (~regular).any()
        assert bool(failures) == ((k1, gamma) != (2, -1 / 3) and gamma != -0.15)

    # the weight applies exactly when k2 > 0: a (2, 1) and a (2, 0) summand
    @pytest.mark.parametrize("weighted,gamma", [
        pytest.param(weighted, gamma,
                     id=f"{weighted}" + ("" if gamma == -0.15 else f"-{gamma:.3g}"))
        for gamma in (-0.15, -0.5, -1 / 3) for weighted in (True, False)])
    def test_batch_with_negative_parts(self, weighted, gamma):
        k1, k2 = (2, 1) if weighted else (2, 0)
        p = ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=gamma, z1=0.3, z2=0.3)
        P = (np.indices((9,) * (k1 + k2)).reshape(k1 + k2, -1).T - 4).astype(float)
        _, failures = _check_batch(P[:, :k1], P[:, k1:], p)
        assert bool(failures) == (gamma == -0.5)

    @pytest.mark.parametrize("which,k1,k2,z1,z2", [("dexp3", 2, 2, 0.3, 0.4),
                                                   ("dexp3", 2, 1, 0.6, 0.6),
                                                   ("dexp", 2, 0, 0.6, 0.5)])
    def test_sum_discrete_across_table_regrowth(self, monkeypatch, which, k1, k2, z1, z2):
        import selberg3.lattice as lattice

        spans = []

        class SpyTables(FactorTables):
            def __init__(self, k1, k2, p, lo, hi):
                spans.append((lo, hi))
                super().__init__(k1, k2, p, lo, hi)

        monkeypatch.setattr(lattice, "FactorTables", SpyTables)
        p = ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=-0.15, z1=z1, z2=z2)
        res = sum_discrete(which, p, rel_tol=1e-10)
        # each series passes its first block, whose tables then regrow once
        assert res.converged and len(spans) == 2 and spans[1][1] > spans[0][1]
        kb = k2 if which == "dexp3" else 0
        c1, c2 = -math.log(z1), -math.log(z2 if kb else z1)
        a1, a2 = c1 / min(c1, c2), c2 / min(c1, c2)
        P = cone_array(k1, kb, res.bound + 1)
        shell = np.floor(a1 * P[:, :k1].sum(axis=1) + a2 * P[:, k1:].sum(axis=1))
        shells, masses, mom1, mom2, jets = [], [], [], [], []
        for j in range(res.bound + 1):
            Q = P[shell == j].astype(float)
            _, vals, rounding = _oracle_values(Q[:, :k1], Q[:, k1:], p)
            jets += rounding.tolist()
            shells.append(math.fsum(vals.tolist()))
            masses.append(math.fsum(np.abs(vals).tolist()))
            mom1.append(math.fsum((vals * Q[:, :k1].sum(axis=1)).tolist()))
            mom2.append(math.fsum((vals * Q[:, k1:].sum(axis=1)).tolist()))
        assert res.partial_sum == math.fsum(shells)
        window = math.ceil(k1 * a1 + kb * a2)
        assert window_tail(masses, window) <= 1e-10 * abs(res.partial_sum)
        # the bar adds a relative rounding of 1e-14 over the summed masses,
        # and the summed singular points' limit rounding, which the (2, 2)
        # series meets
        assert (math.fsum(jets) > 0.0) == (kb == 2)
        assert res.tail == (window_tail(masses, window) + 1e-14 * math.fsum(masses)
                            + math.fsum(jets))
        # the summand carries z1**sum(u) * z2**sum(v), u = nu + shift
        shift1 = p.gamma * k1 * (k1 - 1) / 2
        shift2 = p.gamma * kb * (kb - 1) / 2
        want1 = (math.fsum(mom1) + shift1 * res.partial_sum) / z1
        want2 = (math.fsum(mom2) + shift2 * res.partial_sum) / z2
        assert res.dz1 == pytest.approx(want1, rel=1e-13)
        assert res.dz2 == pytest.approx(want2, rel=1e-13)


class TestDegreeBands:
    WEIGHTS = [(1.0, 1.0), (1.0, 1.7), (2.3, 1.0), (1.0, 5.86)]

    @pytest.mark.parametrize("weights", WEIGHTS)
    @pytest.mark.parametrize("k1,k2", SHELL_SHAPES)
    def test_band_is_the_cone_filtered_on_degree(self, k1, k2, weights):
        a1, a2 = weights
        P = cone_array(k1, k2, 12)
        degree = np.floor(a1 * P[:, :k1].sum(axis=1) + a2 * P[:, k1:].sum(axis=1))
        for lo, hi in ((0, 0), (0, 5), (3, 3), (4, 9), (10, 12)):
            got, shell = degree_band(k1, k2, weights, lo, hi)
            want = P[(degree >= lo) & (degree <= hi)]
            assert np.array_equal(got, want)  # lexicographic, as cone_array
            assert np.array_equal(shell, degree[(degree >= lo) & (degree <= hi)])

    def test_window_tail(self):
        masses = [0.5 ** s for s in range(12)]
        assert window_tail(masses[:7], 2) == math.inf  # fewer than four windows
        # geometric masses: the bound is the exact tail of the series
        rest = math.fsum(0.5 ** s for s in range(12, 80))
        assert window_tail(masses, 1) == pytest.approx(rest, rel=1e-15)
        assert window_tail(masses, 3) == pytest.approx(rest, rel=1e-15)
        assert window_tail(masses[:-1] + [0.0], 1) == math.inf  # a zero window mass
        assert window_tail(masses[:-1] + [masses[-2]], 1) == math.inf  # rho = 1
        # the largest of the three ratios sets rho
        rising = [1.0, 0.5, 0.1, 0.08]
        assert window_tail(rising, 1) == pytest.approx(0.8 * 0.08 / 0.2, rel=1e-15)


class TestSeries:
    def test_geometric_series(self):
        p = ParamSet(k1=1, k2=0, alpha=1.0, gamma=-0.2, z1=0.5)
        res = sum_discrete("dexp", p, rel_tol=1e-10)
        assert res.converged
        assert res.partial_sum == pytest.approx(2.0, rel=1e-9)
        assert res.tail <= 1e-10 * abs(res.partial_sum)
        # one point per shell, masses z**n: the bound is the exact tail z**(n+1) / (1 - z)
        assert abs(res.partial_sum - 2.0) <= res.tail * (1 + 1e-6)

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
        # degree shells 0..5 at z = 0.9: six shells of one point each, and
        # a tail bound of about the sum itself
        p = ParamSet(k1=1, k2=0, alpha=1.0, gamma=-0.2, z1=0.9)
        res = sum_discrete("dexp", p, rel_tol=1e-10, max_bound=5)
        assert not res.converged and res.bound == 5
        assert res.partial_sum == pytest.approx(sum(0.9 ** n for n in range(6)), rel=1e-15)
        assert res.tail == pytest.approx(0.9 ** 6 / 0.1, rel=1e-12)
        with pytest.raises(NotConvergedError, match="bound 5"):
            run_identity("dexp", p, budget=Budget(max_bound=5))

    def test_total_lattice_equals_cone(self):
        # the box [-20, 20]^3 holds the cone's points of degree shells up to
        # 20, and its truncation is about 2e-11 relative at z = 0.3
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        tot = sum_over_total_lattice(p, bound=20)
        cone = sum_discrete("dexp3", p, rel_tol=1e-14)
        assert cone.converged
        assert tot == pytest.approx(cone.partial_sum, rel=1e-8)

    def test_default_bound_holds_four_windows_at_far_apart_z(self):
        # a2 = log(1e6) / log(1/0.6) = 27.05, so a window is G = 57 shells and the
        # least stop, four windows, lies past the plain default of 180
        p = ParamSet(k1=2, k2=2, alpha=1.3, gamma=-0.15, z1=0.6, z2=1e-6)
        res = sum_discrete("dexp3", p)
        assert res.converged and res.bound == 4 * 57 - 1
        rec = run_identity("dexp3", p, seed=3)
        assert rec.passed

    def test_negative_parts_vanish_for_k1(self):
        # 1/Gamma(u+1) kills every negative integer part
        from selberg3.lattice import lattice_values

        p = ParamSet(k1=1, k2=0, alpha=1.3, gamma=-0.2, z1=0.5)
        NU = np.array([[-1.0], [-2.0], [-5.0]])
        vals, rounding = lattice_values(NU, np.zeros((3, 0)), p)
        assert np.all(vals == 0.0) and np.all(rounding == 0.0)

    def test_exact_limits_leave_the_seed_no_part(self):
        # extrapolated probes read rel_dev 1.9e-8, 7.6e-9 and 2.1e-8 at these
        # seeds; the bar is 2.2e-12 relative
        p = ParamSet(k1=3, k2=2, alpha=1.3, gamma=-0.28, z1=0.2, z2=0.2)
        recs = [run_identity("dexp3", p, seed=seed) for seed in (1, 2, 3)]
        assert all(rec.passed and rec.rel_dev <= rec.lhs_err / abs(rec.rhs) for rec in recs)
        assert len({rec.lhs for rec in recs}) == 1

    def test_off_cone_shells_negligible(self):
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        from selberg3.lattice import lattice_values

        rng = np.random.default_rng(3)
        NU = rng.integers(-4, 6, size=(200, 2)).astype(float)
        NV = rng.integers(-4, 6, size=(200, 1)).astype(float)
        off = np.array([not integer_parts_in_cone(nu, nv, 2, 1)
                        for nu, nv in zip(NU, NV)])
        vals, _ = lattice_values(NU[off], NV[off], p)
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
    return degree_shell_sum(*args, **kwargs)


def _spy(monkeypatch, module, name):
    """Record the integer parts of every call to ``module.name``."""
    calls, real = [], getattr(module, name)

    def spy(NU, NV, *args, **kwargs):
        calls.append(np.hstack((NU, NV)))
        return real(NU, NV, *args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _shells_of(P, p):
    """Degree shell of each row of integer parts at (z1, z2)."""
    c1, c2 = -math.log(p.z1), -math.log(p.z2)
    a1, a2 = c1 / min(c1, c2), c2 / min(c1, c2)
    return np.floor(a1 * P[:, :p.k1].sum(axis=1) + a2 * P[:, p.k1:].sum(axis=1)).astype(int)


class TestBlockedSum:
    """Blocks of degree shells give the series of one degree shell at a
    time, bit for bit."""

    @pytest.mark.parametrize("which", ["dexp", "dexp3"])
    @pytest.mark.parametrize("k1,k2", SERIES_SHAPES)
    def test_equals_shell_by_shell(self, which, k1, k2):
        for z, bounds in ((0.3, (None, 0, 5, 12)), (0.6, (None, 0, 5, 12)),
                          (1e-6, (None, 0, 5, 12))):
            for max_bound in bounds:
                p = ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=-0.15, z1=z, z2=z)
                got = _outcome(sum_discrete, which, p, max_bound=max_bound)
                assert got == _outcome(_oracle_sum, which, p, max_bound=max_bound)
                if max_bound is None:
                    assert got.converged
                if z == 1e-6 and max_bound is None:
                    # the least stop: four windows of G = k1 + k2 shells
                    kb = k2 if which == "dexp3" else 0
                    assert got.bound == 4 * (k1 + kb) - 1

    def test_equal_errors(self):
        # Gamma(u_0 + alpha) meets a zero at nu = (0, 0), where the limits disagree
        p = ParamSet(k1=2, k2=0, alpha=1.3, gamma=-0.5, z1=0.3)
        got = _outcome(sum_discrete, "dexp", p)
        assert got[0] is LimitDisagreementError
        assert got == _outcome(_oracle_sum, "dexp", p)

    def test_tables_regrow_across_a_block(self, monkeypatch):
        import selberg3.lattice as lattice

        spans = []

        class SpyTables(FactorTables):
            def __init__(self, k1, k2, p, lo, hi):
                spans.append((lo, hi))
                super().__init__(k1, k2, p, lo, hi)

        monkeypatch.setattr(lattice, "FactorTables", SpyTables)
        p = ParamSet(k1=2, k2=0, alpha=1.3, gamma=-0.15, z1=0.6)
        got = sum_discrete("dexp", p)
        # the first block holds the predicted stop, ceil(log(1e11) / log(1/0.6)) + 2
        # = 52 shells, whose largest part is 51; the stop lies in the next block of
        # 13 shells, and the tables regrow once, to its largest part
        assert spans == [(0, 51), (0, 64)]
        assert got.converged and 52 <= got.bound <= 64
        monkeypatch.undo()
        assert got == _oracle_sum("dexp", p)

    # at z = 0.05 the series stops at the last shell of its first block; at
    # z = 0.3 it stops at the first shell of its second block, and the block
    # runs on past it
    @pytest.mark.parametrize("z,stop_in_block", [(0.05, False), (0.3, True)])
    def test_singular_rows_probed_once_per_block(self, monkeypatch, z, stop_in_block):
        import selberg3.lattice as lattice

        bands, band = [], lattice.degree_band

        def spy_band(*args):
            bands.append(band(*args))
            return bands[-1]

        monkeypatch.setattr(lattice, "degree_band", spy_band)
        probed = _spy(monkeypatch, lattice, "_jet_limits")
        one_at_a_time = _spy(monkeypatch, lattice, "limit_pairs")
        p = ParamSet(k1=2, k2=2, alpha=1.3, gamma=-0.15, z1=z, z2=z)
        got = sum_discrete("dexp3", p)
        monkeypatch.undo()
        assert got == _oracle_sum("dexp3", p)
        # one limit batch per block that holds singular rows: its singular
        # rows, in shell order and lexicographic within a shell
        want = []
        for P, shell in bands:
            P = P[np.argsort(shell, kind="stable")].astype(float)
            singular = ~regular_mask(P[:, :2], P[:, 2:], p)
            if singular.any():
                want.append(P[singular])
        assert len(probed) == len(want) >= 1 and not one_at_a_time
        for a, b in zip(probed, want):
            assert np.array_equal(a, b)
        # the stopping shell's block takes the singular rows past the stop
        # too, and drops them
        past = _shells_of(probed[-1], p) > got.bound
        assert past.any() == stop_in_block

    @staticmethod
    def _plant(monkeypatch, planted):
        """Fail the limit of each point in ``planted`` wherever it is taken,
        in the series and in its oracle alike; returns the rows taken."""
        import selberg3.integrands as integrands
        import selberg3.lattice as lattice

        seen, real = [], integrands._jet_limits

        def limits(NU, NV, *args, **kwargs):
            pairs, rounding, failures = real(NU, NV, *args, **kwargs)
            rows = np.hstack((NU, NV)).tolist()
            seen.extend(rows)
            for i, row in enumerate(rows):
                if tuple(row) in planted:
                    failures[i] = f"planted failure at {row}"
            return pairs, rounding, dict(sorted(failures.items()))

        monkeypatch.setattr(integrands, "_jet_limits", limits)
        monkeypatch.setattr(lattice, "_jet_limits", limits)
        return seen

    # (3, 2) at z = 0.3 stops at shell 26, in its second block (shells 24..29);
    # shells 20 to 29 hold five or six singular points each
    P32 = ParamSet(k1=3, k2=2, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)

    def _singular_shells(self, monkeypatch):
        """The series, and the rows whose limits it takes, by shell, with no
        failure planted."""
        seen = self._plant(monkeypatch, set())
        want = sum_discrete("dexp3", self.P32)
        monkeypatch.undo()
        shells = {}
        for row in seen:
            shells.setdefault(int(_shells_of(np.array([row]), self.P32)[0]), []).append(row)
        return want, shells

    def test_failure_past_the_stop_is_never_reported(self, monkeypatch):
        want, shells = self._singular_shells(monkeypatch)
        planted = {tuple(row) for s, rows in shells.items() if s > want.bound for row in rows}
        assert planted  # the stopping block takes limits past the stop
        seen = self._plant(monkeypatch, planted)
        assert sum_discrete("dexp3", self.P32) == want
        assert planted <= {tuple(row) for row in seen}  # taken, and dropped
        assert _oracle_sum("dexp3", self.P32) == want

    # the stopping shell, and a shell of the first block
    @pytest.mark.parametrize("back", [0, 3])
    def test_failure_up_to_the_stop_raises_as_the_oracle(self, monkeypatch, back):
        # the first failed row, in row order, of the first shell that fails:
        # two planted rows of one shell, and one in a later shell
        want, shells = self._singular_shells(monkeypatch)
        rows = shells[want.bound - back]
        later = shells[want.bound + 1]
        assert len(rows) >= 3
        self._plant(monkeypatch, {tuple(rows[1]), tuple(rows[-1]), tuple(later[0])})
        got = _outcome(sum_discrete, "dexp3", self.P32)
        assert got == (LimitDisagreementError, f"planted failure at {rows[1]}")
        assert got == _outcome(_oracle_sum, "dexp3", self.P32)

    def test_few_value_calls_for_small_shells(self, monkeypatch):
        import selberg3.lattice as lattice

        calls = _spy(monkeypatch, lattice, "lattice_values")
        p = ParamSet(k1=1, k2=1, alpha=1.3, gamma=-0.15, z1=0.5, z2=0.5)
        got = sum_discrete("dexp3", p)
        assert got.converged and got.bound > 14
        assert 1 <= len(calls) <= 6

    def test_work_guard_at_the_heaviest_benchmark_record(self, monkeypatch):
        # by largest part this record evaluated 597,051 points
        import selberg3.lattice as lattice

        calls = _spy(monkeypatch, lattice, "lattice_values")
        p = ParamSet(k1=3, k2=2, alpha=1.3, gamma=-0.15, z1=0.4, z2=0.2)
        rec = run_identity("dexp3", p, seed=5)
        assert rec.passed
        assert 0 < sum(len(P) for P in calls) <= 20_000

    def test_one_probe_batch_per_block_at_a_heavy_record(self, monkeypatch):
        # one shell at a time, this sum took limits in 30 shells
        import selberg3.lattice as lattice

        blocks, band = [], lattice.degree_band

        def spy_band(*args):
            blocks.append(args[3:])
            return band(*args)

        monkeypatch.setattr(lattice, "degree_band", spy_band)
        probed = _spy(monkeypatch, lattice, "_jet_limits")
        one_at_a_time = _spy(monkeypatch, lattice, "limit_pairs")
        p = ParamSet(k1=3, k2=2, alpha=1.3, gamma=-0.15, z1=0.2, z2=0.4)
        rec = run_identity("dexp3", p, seed=5)
        assert rec.passed
        assert 1 <= len(probed) <= len(blocks) and not one_at_a_time

    @pytest.mark.parametrize("k1,k2", SHELL_SHAPES)
    def test_cone_block_is_its_shells(self, k1, k2):
        def rows(P):
            return {tuple(r) for r in P.tolist()}

        for j, hi in ((0, 0), (0, 3), (1, 2), (3, 6), (5, 5)):
            block = cone_array_from(k1, k2, hi, j)
            shells = np.vstack([cone_array_from(k1, k2, s, s) for s in range(j, hi + 1)])
            assert len(block) == len(shells) and rows(block) == rows(shells)
            order = np.argsort(block.max(axis=1, initial=0), kind="stable")
            assert np.array_equal(block[order], shells)

    def test_max_bound_below_zero_raises(self):
        p = ParamSet(k1=1, alpha=1.0, gamma=-0.2, z1=0.5)
        with pytest.raises(ValueError, match="max_bound"):
            sum_discrete("dexp", p, max_bound=-1)
        with pytest.raises(ValueError, match="max_bound"):
            run_identity("dexp", p, budget=Budget(max_bound=-3))
        # shell 0 is the point nu = (0,); one shell gives no tail bound
        res = sum_discrete("dexp", p, max_bound=0)
        assert (res.partial_sum, res.tail, res.bound, res.converged) == (1.0, math.inf, 0, False)
        with pytest.raises(ValueError, match="z in"):
            sum_discrete("dexp", p.with_(z1=1.0))

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
        want = [lattice._block_values(FactorTables(2, 1, p, 0, max(pt.nu)),
                                      np.array([pt.nu + pt.nv]).T)[0][0]
                for pt in points]
        assert want[1] != 0.0
        monkeypatch.setattr(lattice, "FactorTables", SpyTables)
        assert [f_limit(pt, p) for pt in points] == want
        assert [a.shape for a in lattice_values(np.zeros((0, 2)), np.zeros((0, 1)), p)] == [
            (0,), (0,)]
        assert spans == [(300, 600), (5, 12), (0, 0)]


class TestTailBar:
    """Points where a tail rule once under-covered the deviation: ratios of
    single shells stopped at (0.6, 0.05), where the dominant diagonal ray
    steps 3.51 in degree; two-step window ratios were aliased at
    (0.4, 0.05) by windows that hold two diagonal points; at z1 = z2 = 0.6
    the shell masses alternate by parity.  No point meets a singular
    point, so its deviation is truncation and rounding alone."""

    @pytest.mark.parametrize("z1,z2,alpha,gamma", [(0.6, 0.05, 1.3, -0.07),
                                                   (0.4, 0.05, 2.1, -0.15),
                                                   (0.6, 0.6, 1.3, -0.15)])
    def test_bar_bounds_the_deviation(self, monkeypatch, z1, z2, alpha, gamma):
        import selberg3.lattice as lattice

        calls = _spy(monkeypatch, lattice, "limit_pairs")
        batches = _spy(monkeypatch, lattice, "_jet_limits")
        p = ParamSet(k1=1, k2=1, alpha=alpha, gamma=gamma, z1=z1, z2=z2)
        rec = run_identity("dexp3", p, seed=3)
        assert not calls and not batches
        assert rec.passed
        assert rec.rel_dev <= 1.6 * rec.lhs_err / abs(rec.rhs)


class TestDynamicalSystem:
    def test_k1_only_closed_solution(self):
        # for one block the system is d/dz log Psi = alpha/(1-z)
        p = ParamSet(k1=1, k2=0, alpha=1.4, gamma=-0.2, z1=0.45, z2=0.5)
        r1, r2, err = pde_residual(p, use_closed_form=False)
        assert r1 < 1e-7 and 0.0 < err < 1e-7
        c1, _ = pde_coefficients(p)
        assert c1 == pytest.approx(p.alpha / (1 - p.z1), rel=1e-12)

    def test_closed_form_residuals_select_z2_variant(self):
        p = ParamSet(k1=2, k2=2, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.35)
        good = pde_residual(p, use_closed_form=True,
                            second_eq_denominator="z2")
        bad = pde_residual(p, use_closed_form=True,
                           second_eq_denominator="z1")
        assert max(good) < 1e-6  # both residuals and their bar
        assert bad[1] > 1e-3  # the printed z1 denominator is inconsistent

    def test_series_residuals_21(self):
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        r1, r2, err = pde_residual(p)
        assert max(r1, r2) < 1e-6

    @pytest.mark.parametrize("k1,k2,z1,z2", [(2, 1, 0.3, 0.5), (2, 2, 0.3, 0.5),
                                             (1, 1, 0.6, 0.6), (3, 2, 0.4, 0.2)])
    def test_series_residual_bar_covers_the_truncation(self, k1, k2, z1, z2):
        # the bar comes from the tails of Psi, dPsi/dz1 and dPsi/dz2; the
        # residuals of the truncated sum move from those of a sum run to
        # 1e-14 by less than it
        p = ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=-0.15, z1=z1, z2=z2)
        res = sum_discrete("dexp3", p)
        full = sum_discrete("dexp3", p, rel_tol=1e-14)
        assert 0.0 < res.dz1_tail and 0.0 < res.dz2_tail
        assert abs(res.dz1 - full.dz1) <= res.dz1_tail
        assert abs(res.dz2 - full.dz2) <= res.dz2_tail
        assert abs(res.partial_sum - full.partial_sum) <= res.tail
        r1, r2, err = pde_residual(p)
        assert 0.0 < err <= 1e-8
        rec = run_identity("pde_residual", p, seed=5)
        assert rec.passed and rec.lhs_err > 0.0 and 3 * rec.lhs_err <= rec.tolerance

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
