"""Summand and integrand evaluation, including lattice limit values."""

import math
from itertools import permutations

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, gammasgn

from oracles import (brute_h, brute_weight_g, brute_weight_w, h_func, h_tilde_func,
                     hand_phi_sign_log, integer_parts_in_cone, mp_gamma, mp_lattice_value,
                     omega, raw_integrand, regular_mask, sequential_limit_pairs,
                     sequential_point_value, weight_g)
from selberg3 import integrands
from selberg3.errors import (
    DomainError,
    InadmissibleTripleError,
    LimitDisagreementError,
    NearSingularError,
    PoleError,
)
from selberg3.integrands import (
    POLE_TOL,
    LatticePoint,
    assembled_integrand,
    f_limit,
    factor_table,
    is_admissible,
    lattice_shift,
    phi_sign_log,
    weight_w,
)
from selberg3.lattice import cone_array, lattice_values, limit_pairs
from selberg3.params import ParamSet


def master_value(u, v, p):
    """The master product at one real point (u, v), through phi_sign_log."""
    sign, logm = phi_sign_log(np.asarray(u, float)[None, :], np.asarray(v, float)[None, :], p)
    return float(sign[0] * np.exp(logm[0]))


class TestMasterPhi:
    def test_empty_shape_is_one(self):
        p = ParamSet(k1=0, k2=0)
        assert master_value(np.zeros(0), np.zeros(0), p) == pytest.approx(1.0)

    def test_single_factor(self):
        p = ParamSet(k1=1, k2=0, alpha=1.3, gamma=-0.2, z1=0.5)
        u1 = 0.37
        want = 0.5 ** u1 * float(mp_gamma(u1 + 1.3) / mp_gamma(u1 + 1.0))
        got = master_value(np.array([u1]), np.zeros(0), p)
        assert got == pytest.approx(want, rel=1e-13)

    def test_two_block_product_term_by_term(self):
        p = ParamSet(k1=2, k2=0, alpha=1.3, gamma=-0.2, z1=0.5)
        u = (p.gamma + 1.0, 0.0)
        d = u[0] - u[1]
        want = (0.5 ** (u[0] + u[1])
                * float(mp_gamma(u[0] + 1.3) / mp_gamma(u[0] + 1.0))
                * float(mp_gamma(u[1] + 1.3) / mp_gamma(u[1] + 1.0))
                * d * float(mp_gamma(d + p.gamma) / mp_gamma(d - p.gamma + 1.0)))
        got = master_value(np.array(u), np.zeros(0), p)
        assert got == pytest.approx(want, rel=1e-13)

    def test_pole_raises(self):
        p = ParamSet(k1=1, k2=0, alpha=2.0, gamma=-0.2, z1=0.5)
        with pytest.raises(PoleError):
            master_value(np.array([-3.0]), np.zeros(0), p)  # u + alpha = -1

    @pytest.mark.parametrize("gamma", [-0.15, -0.5, -1 / 3, -0.28])
    @pytest.mark.parametrize("k1,k2", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (2, 2),
                                       (3, 2), (4, 3)])
    def test_matches_hand_written_product_bit_for_bit(self, k1, k2, gamma):
        rng = np.random.default_rng(10 * k1 + k2)
        shift = np.concatenate((lattice_shift(k1, gamma), lattice_shift(k2, gamma)))
        # lattice points put factors at poles and zeros; uniform reals are generic
        X = np.vstack((rng.integers(-3, 5, size=(90, k1 + k2)) + shift,
                       rng.uniform(-3.0, 5.0, size=(30, k1 + k2))))
        poles = 0
        for alpha in (1.3, 2.0):  # 2.0 puts Gamma(u + alpha) poles at negative parts
            p = ParamSet(k1=k1, k2=k2, alpha=alpha, gamma=gamma, z1=0.3, z2=0.5)
            at_pole = np.zeros(len(X), dtype=bool)
            for i, x in enumerate(X):
                try:
                    hand_phi_sign_log(x[:k1], x[k1:], p)
                except PoleError:
                    at_pole[i] = True
                    with pytest.raises(PoleError):
                        phi_sign_log(x[:k1], x[k1:], p)
            U, V = X[~at_pole, :k1], X[~at_pole, k1:]
            sign, logm = phi_sign_log(U, V, p)
            want_sign, want_log = hand_phi_sign_log(U, V, p)
            assert np.array_equal(sign, want_sign)
            assert np.array_equal(logm, want_log)
            poles += int(at_pole.sum())
        assert poles


class TestWeightW:
    def test_empty_v_block(self):
        out = weight_w(np.array([[0.7]]), np.zeros((1, 0)), -0.3)
        assert out[0] == pytest.approx(1.0)

    def test_k2_zero_is_identically_one(self):
        # the symmetrized correction product collapses to 1 for any k1
        rng = np.random.default_rng(3)
        for k1 in (2, 3, 4):
            u = rng.uniform(0, 5, size=(6, k1))
            out = weight_w(u, np.zeros((6, 0)), -0.31)
            assert np.allclose(out, 1.0, rtol=1e-12)

    def test_single_pair(self):
        out = weight_w(np.array([[1.0]]), np.array([[2.0]]), -0.3)
        assert out[0] == pytest.approx(1.0 / (2.0 - 1.0 + 0.3), rel=1e-14)

    def test_brute_force_21(self):
        u, v, g = [3.0, 1.0], [2.0], -0.3
        want = brute_weight_w(u, v, g)
        got = weight_w(np.array([u]), np.array([v]), g)[0]
        assert got == pytest.approx(want, rel=1e-13)

    def test_brute_force_32(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = sorted(rng.uniform(0, 6, size=3), reverse=True)
            v = sorted(rng.uniform(0, 6, size=2), reverse=True)
            want = brute_weight_w(u, v, -0.17)
            got = weight_w(np.array([u]), np.array([v]), -0.17)[0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_block_permutation_invariance(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(0, 5, size=3)
        v = rng.uniform(0, 5, size=2)
        base = weight_w(np.array([u]), np.array([v]), -0.21)[0]
        for _ in range(4):
            pu = rng.permutation(3)
            pv = rng.permutation(2)
            got = weight_w(np.array([u[pu]]), np.array([v[pv]]), -0.21)[0]
            assert got == pytest.approx(base, rel=1e-12)

    def test_near_singular_raises(self):
        with pytest.raises(NearSingularError):
            weight_w(np.array([[1.0]]), np.array([[1.0 - 0.3 + 1e-12]]), -0.3)

    def test_numerator_vanishes_at_triple_intersections(self):
        # w times the product of pole factors is regular and vanishes where
        # u_a = u_b + gamma = v_c and where u_a = v_b = v_c - gamma
        g = -0.23

        def numerator(u, v, eps):
            w = weight_w(np.array([u]), np.array([v]), g)[0]
            prod = 1.0
            for ua in u:
                for vb in v:
                    prod *= vb - ua - g
            return w * prod

        # family 1: u1 = u2 + gamma = v1 (k1=2, k2=1), approach along a line
        x = 0.8
        vals = []
        for eps in (1e-3, 1e-4, 1e-5):
            u = [x + g + 0.7 * eps, x + 0.3 * eps]
            v = [x + g - 0.4 * eps]
            vals.append(abs(numerator(u, v, eps)))
        assert vals[2] < 1e-3 * max(1.0, vals[0] / 1e-2)
        assert vals[2] < vals[1] < vals[0]

        # family 2: u1 = v1 = v2 - gamma (k1=1, k2=2)
        vals = []
        for eps in (1e-3, 1e-4, 1e-5):
            u = [x + 0.9 * eps]
            v = [x - 0.2 * eps, x + g + 0.5 * eps]
            vals.append(abs(numerator(u, v, eps)))
        assert vals[2] < vals[1] < vals[0]


class TestWeightG:
    def test_single_pair(self):
        got = weight_g(np.array([[0.2]]), np.array([[0.7]]))
        assert got[0] == pytest.approx(1.0 / 0.5, rel=1e-14)

    def test_empty_s_block(self):
        assert weight_g(np.array([[0.2, 0.1]]), np.zeros((1, 0)))[0] == 1.0

    def test_brute_force_and_symmetric_point(self):
        t, s = [0.8, 0.2], [0.5]
        want = brute_weight_g(t, s)
        got = weight_g(np.array([t]), np.array([s]))[0]
        assert got == pytest.approx(want, abs=1e-13)
        assert got == pytest.approx(0.0, abs=1e-13)  # symmetric point cancels

    @pytest.mark.parametrize("k1,k2", [(1, 1), (2, 1), (3, 2), (4, 3), (4, 4)])
    def test_two_forms_agree(self, k1, k2):
        rng = np.random.default_rng(k1 * 10 + k2)
        for _ in range(8):
            t = rng.uniform(0, 1, size=(1, k1))
            s = rng.uniform(0, 1, size=(1, k2))
            a = weight_g(t, s, form="shifted")[0]
            b = weight_g(t, s, form="plain")[0]
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_block_permutation_invariance(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(0, 1, size=4)
        s = rng.uniform(0, 1, size=2)
        base = weight_g(np.array([t]), np.array([s]))[0]
        for _ in range(4):
            got = weight_g(np.array([t[rng.permutation(4)]]),
                           np.array([s[rng.permutation(2)]]))[0]
            assert got == pytest.approx(base, rel=1e-12)


class TestOmega:
    def test_unit_density(self):
        p = ParamSet(k1=1, k2=0, alpha=1.0, beta1=1.0)
        t = np.array([[0.3], [0.77]])
        assert np.allclose(omega(t, np.zeros((2, 0)), p), 1.0)

    def test_hand_value(self):
        p = ParamSet(k1=1, k2=1, alpha=2.0, beta1=1.0, beta2=1.0, gamma=-0.5)
        got = omega(np.array([[0.25]]), np.array([[0.75]]), p)[0]
        assert got == pytest.approx(0.25 * math.sqrt(0.5), rel=1e-13)

    def test_domain_error_outside_box(self):
        p = ParamSet(k1=1, k2=0)
        with pytest.raises(DomainError):
            omega(np.array([[1.2]]), np.zeros((1, 0)), p)


class TestHFunctions:
    def test_admissibility(self):
        assert is_admissible(0, 0, 0, 3, 2)
        assert is_admissible(3, 2, 2, 3, 2)
        assert not is_admissible(2, 0, 0, 2, 1)
        with pytest.raises(InadmissibleTripleError):
            h_func(2, 0, 0, np.array([[0.5, 0.2]]), np.array([[0.6]]), 2, 1)

    def test_h000_single_term(self):
        t, s = 0.3, 0.8
        got = h_func(0, 0, 0, np.array([[t]]), np.array([[s]]), 1, 1)[0]
        assert got == pytest.approx((1 - t) * (1 - s) / (s - t), rel=1e-13)

    def test_h_0k20_is_pure_product(self):
        # at (0, k2, 0) every rational factor drops out
        rng = np.random.default_rng(4)
        t = rng.uniform(0, 1, size=(5, 2))
        s = rng.uniform(0, 1, size=(5, 1))
        got = h_func(0, 1, 0, t, s, 2, 1)
        want = (1 - t).prod(axis=1)
        assert np.allclose(got, want, rtol=1e-12)
        assert np.allclose(h_tilde_func(0, 1, 0, t, s, 2, 1), want, rtol=1e-12)

    def test_brute_force_211(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            t = rng.uniform(0, 1, size=2)
            s = rng.uniform(0, 1, size=1)
            got = h_func(1, 1, 1, np.array([t]), np.array([s]), 2, 1)[0]
            want = brute_h(1, 1, 1, t, s, 2, 1)
            assert got == pytest.approx(want, rel=1e-12)
            got_t = h_tilde_func(1, 1, 1, np.array([t]), np.array([s]), 2, 1)[0]
            want_t = brute_h(1, 1, 1, t, s, 2, 1, twisted=True)
            assert got_t == pytest.approx(want_t, rel=1e-12)


class TestAssembledIntegrands:
    def test_selb30_at_k2_zero_matches_selb(self):
        p = ParamSet(k1=2, k2=0, alpha=1.4, beta1=1.2, gamma=-0.15)
        rng = np.random.default_rng(1)
        t = np.sort(rng.uniform(0.05, 0.95, size=(8, 2)), axis=1)[:, ::-1]
        s = np.zeros((8, 0))
        a = raw_integrand(assembled_integrand("selb30", p))(t, s)
        b = raw_integrand(assembled_integrand("selb", p))(t, s)
        assert np.allclose(a, b, rtol=1e-13)

    def test_exp3_11_assembly(self):
        p = ParamSet(k1=1, k2=1, alpha=1.5, beta1=1.0, beta2=1.3, gamma=-0.2)
        t, s = 0.4, 0.9
        got = raw_integrand(assembled_integrand("exp3", p))(np.array([[t]]), np.array([[s]]))[0]
        want = (math.exp(-p.beta1 * t) * t ** (p.alpha - 1)
                * math.exp(-p.beta2 * s) * abs(s - t) ** (-p.gamma) / (s - t))
        assert got == pytest.approx(want, rel=1e-13)

    def test_seed_integrand_identity(self):
        # omega(a, b1, b2) * h_{0,0,0} == omega(a, b1+1, b2+1) * g pointwise
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        rng = np.random.default_rng(6)
        t = rng.uniform(0.05, 0.95, size=(10, 2))
        s = rng.uniform(0.05, 0.95, size=(10, 1))
        lhs = raw_integrand(assembled_integrand("J", p, indices=(0, 0, 0)))(t, s)
        p_up = p.with_(beta1=p.beta1 + 1.0, beta2=p.beta2 + 1.0)
        rhs = omega(t, s, p_up) * weight_g(t, s)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_aomoto_moment_is_the_h_weight_at_l00(self, k):
        p = ParamSet(k1=k, k2=0, alpha=1.5, beta1=1.2, gamma=-0.11)
        for ell in range(k + 1):
            ig = assembled_integrand("aomoto", p, indices=ell)
            assert ig == assembled_integrand("J", p, indices=(ell, 0, 0))
            rng = np.random.default_rng(k)
            t = rng.uniform(0.05, 0.95, size=(6, k))
            want = [np.mean([np.prod(t[i, list(s[:ell])]) * np.prod(1.0 - t[i, list(s[ell:])])
                             for s in permutations(range(k))]) for i in range(6)]
            got = raw_integrand(ig)(t, np.zeros((6, 0))) / omega(t, np.zeros((6, 0)), p)
            assert np.allclose(got, want, rtol=1e-12)

    def test_j0k20_integrand_identity(self):
        # omega(a, b1, b2) * h_{0,k2,0} == omega(a, b1+1, b2) pointwise
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        rng = np.random.default_rng(8)
        t = rng.uniform(0.05, 0.95, size=(10, 2))
        s = rng.uniform(0.05, 0.95, size=(10, 1))
        lhs = raw_integrand(assembled_integrand("J", p, indices=(0, 1, 0)))(t, s)
        rhs = omega(t, s, p.with_(beta1=p.beta1 + 1.0))
        assert np.allclose(lhs, rhs, rtol=1e-12)


def _parts(pts):
    """Integer-part arrays (NU, NV) of a list of lattice points."""
    m, k1, k2 = len(pts), pts[0].k1, pts[0].k2
    return (np.array([pt.nu for pt in pts], dtype=float).reshape(m, k1),
            np.array([pt.nv for pt in pts], dtype=float).reshape(m, k2))


def _is_regular(pt, p):
    return bool(regular_mask(*_parts([pt]), p)[0])


# a regular point, a singular cone point and a singular off-cone point
F_LIMIT_POINTS = [((2, 1), (2,)), ((1, 1), (1, 1)), ((-1, 1), (1, 3))]


def _mp_leading(f, n):
    """The limit of f(eps) as eps -> 0+, in mpmath at 50 digits, from
    eps = 1e-30, where it is within 1e-29 of its limit."""
    with mp.workdps(50):
        return float(f(mp.mpf(-n), mp.mpf("1e-30")))


class TestFactorTable:
    """``factor_table`` gives each factor's leading term sign * exp(log) *
    eps**order at arg + eps: its value away from a pole or a zero."""

    @pytest.mark.parametrize("n", range(7))
    def test_pole_and_zero_leading_terms(self, n):
        # eps Gamma(-n + eps) -> (-1)**n / n!, 1/(eps Gamma(-n + eps)) -> (-1)**n n!
        for kind, order, f in (("num", -1, lambda x, e: e * mp.gamma(x + e)),
                               ("recip", 1, lambda x, e: 1 / (e * mp.gamma(x + e)))):
            want = _mp_leading(f, n)
            for arg in (-float(n), -n + 1e-13):  # at the point and within tolerance
                sign, logm, got_order = factor_table(kind, np.array([arg]))
                assert got_order.tolist() == [order]
                assert sign[0] == (-1.0) ** n == math.copysign(1.0, want)
                assert sign[0] * math.exp(logm[0]) == pytest.approx(want, rel=1e-14)

    def test_vanishing_linear_forms(self):
        # the plain factor x at x = 0 + eps is 1 * eps; a weight denominator
        # there is a pole of order 1, with no sign or log of its own
        for arg in (0.0, -0.0, 5e-10, -5e-10):
            sign, logm, order = factor_table("lin", np.array([arg]))
            assert (sign.tolist(), logm.tolist(), order.tolist()) == ([1.0], [0.0], [1])
            sign, logm, order = factor_table("den", np.array([arg]))
            assert (sign, logm, order.tolist()) == (None, None, [-1])
        assert _mp_leading(lambda x, e: (x + e) / e, 0) == 1.0

    def test_regular_entries_are_the_values_bit_for_bit(self):
        rng = np.random.default_rng(4)
        x = np.concatenate((rng.uniform(-6.0, 6.0, 200), [0.5, 1.0, 2.0, -0.5, -3.25, 2e-9]))
        for kind in ("num", "recip", "lin", "den"):
            sign, logm, order = factor_table(kind, x)
            assert not order.any()
            if kind == "den":
                assert sign is None and logm is None
            elif kind == "lin":
                assert np.array_equal(sign, np.sign(x))
                assert np.array_equal(logm, np.log(np.abs(x)))
            else:
                assert np.array_equal(sign, gammasgn(x))
                assert np.array_equal(logm, gammaln(x) if kind == "num" else -gammaln(x))

    def test_phi_is_an_exact_zero_where_a_pair_base_is_within_the_pole_tolerance(self):
        # a pair difference within POLE_TOL of 0 is the vanishing linear
        # factor, an exact zero; just above it the product is its value
        p = ParamSet(k1=2, k2=0, alpha=1.3, gamma=-0.2, z1=0.5)
        for d, zero in ((2.0 ** -44, True), (0.0, True), (4 * POLE_TOL, False)):
            assert (d <= POLE_TOL) == zero
            u = np.array([[0.5 + d, 0.5]])
            sign, logm = phi_sign_log(u, np.zeros((1, 0)), p)
            if zero:
                assert sign.tolist() == [0.0] and sign[0] * math.exp(logm[0]) == 0.0
            else:
                want = hand_phi_sign_log(u, np.zeros((1, 0)), p)
                assert sign[0] != 0.0
                assert (sign.tolist(), logm.tolist()) == (want[0].tolist(), want[1].tolist())


class TestLatticeLimit:
    def test_regular_point_direct(self):
        p = ParamSet(k1=1, k2=0, alpha=1.3, gamma=-0.2, z1=0.5)
        pt = LatticePoint((0,), (), p.gamma)
        assert _is_regular(pt, p)
        assert f_limit(pt, p) == pytest.approx(float(mp_gamma(1.3)), rel=1e-12)

    def test_out_of_cone_is_zero(self):
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        for nu, nv in [((0, 1), (2,)), ((1, 1), (0,)), ((-1, -2), (1,)), ((2, 2), (1,))]:
            pt = LatticePoint(nu, nv, p.gamma)
            assert not integer_parts_in_cone(nu, nv, 2, 1)
            assert f_limit(pt, p) == pytest.approx(0.0, abs=1e-12)

    def test_taylor_coefficient_match_11(self):
        # the (1,1) integer-part term must equal the z1*z2 coefficient of the
        # closed form: alpha * Gamma(alpha) * Gamma(-gamma)
        p = ParamSet(k1=1, k2=1, alpha=1.3, gamma=-0.3, z1=0.5, z2=0.5)
        pt = LatticePoint((1,), (1,), p.gamma)
        want = float(p.alpha * mp_gamma(p.alpha) * mp_gamma(-p.gamma))
        got = f_limit(pt, p) / (p.z1 * p.z2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_force_probe_agrees_with_direct(self):
        # limit_pairs takes any point, a regular one too
        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        pt = LatticePoint((2, 1), (2,), p.gamma)
        assert _is_regular(pt, p)
        direct = f_limit(pt, p)
        pairs, rounding = limit_pairs(*_parts([pt]), p)
        assert pairs.mean() == pytest.approx(direct, rel=1e-13)
        assert 0.0 < rounding[0] <= 1e-13 * abs(direct)

    def test_singular_point_two_directions_agree(self):
        # the (2,2) diagonal points are genuine pole/zero collisions
        p = ParamSet(k1=2, k2=2, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        pt = LatticePoint((1, 1), (1, 1), p.gamma)
        assert not _is_regular(pt, p)
        (a, b), = limit_pairs(*_parts([pt]), p)[0]
        assert a == pytest.approx(b, rel=1e-13)

    @pytest.mark.parametrize("nu,nv", F_LIMIT_POINTS)
    def test_f_limit_is_one_row_of_lattice_values(self, nu, nv):
        p = ParamSet(k1=len(nu), k2=len(nv), alpha=1.3, gamma=-0.15, z1=0.3, z2=0.5)
        pt = LatticePoint(nu, nv, p.gamma)
        got = f_limit(pt, p)
        vals, rounding = lattice_values(*_parts([pt]), p)
        assert got == vals[0]
        assert (got, rounding[0]) == sequential_point_value(pt, p)

    def test_f_limit_cases_cover_both_kinds_of_point(self):
        kinds = [_is_regular(LatticePoint(nu, nv, -0.15),
                             ParamSet(k1=len(nu), k2=len(nv), alpha=1.3, gamma=-0.15))
                 for nu, nv in F_LIMIT_POINTS]
        assert True in kinds and False in kinds


def _singular_cone_points(p, bound):
    """The singular points of the cone shells 0..bound, as LatticePoints."""
    P = cone_array(p.k1, p.k2, bound).astype(float)
    P = P[~regular_mask(P[:, :p.k1], P[:, p.k1:], p)].astype(int)
    return [LatticePoint(tuple(r[:p.k1]), tuple(r[p.k1:]), p.gamma) for r in P.tolist()]


def _outcome(fn, *args, **kwargs):
    """The returned pairs and roundings, or the class and message of what
    was raised."""
    try:
        return fn(*args, **kwargs)
    except LimitDisagreementError as exc:
        return type(exc), str(exc)


def _same(got, want):
    if isinstance(want[0], type):
        return got == want
    return all(isinstance(g, np.ndarray) and np.array_equal(g, w) for g, w in zip(got, want))


# a (2,2) point singular through the weight pole v_0 - u_1 = gamma, with
# Gamma(u_0 + alpha) at 1e-3 from its pole at -1: a near pole, not a pole
NEAR_POLE_P = ParamSet(k1=2, k2=2, alpha=1.151, gamma=-0.15, z1=0.3, z2=0.5)
NEAR_POLE_PT = LatticePoint((-2, 1), (1, 1), NEAR_POLE_P.gamma)
# alpha + 2 gamma = 1 puts Gamma(u_0 + alpha) on its pole at -1 and
# 1/Gamma(u_0 - u_1 - gamma + 1) on its zero at -7: two bases, whose ratio
# of rates the limit keeps
TWO_BASES_P = ParamSet(k1=3, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.5)
TWO_BASES_PT = LatticePoint((-2, 6, 5), (6,), TWO_BASES_P.gamma)


class TestLimitPairs:
    @pytest.mark.parametrize("k1,k2", [(2, 2), (3, 2)])
    def test_batch_equals_per_point_limits(self, k1, k2):
        p = ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.5)
        pts = _singular_cone_points(p, 5)
        assert len(pts) > 5
        for order in (pts, pts[::-1]):
            got = limit_pairs(*_parts(order), p)
            assert _same(got, sequential_limit_pairs(order, p))

    @pytest.mark.parametrize("gamma", [-0.15, -0.28])
    @pytest.mark.parametrize("k1,k2", [(2, 2), (3, 2)])
    def test_limits_match_the_mpmath_oracle(self, k1, k2, gamma):
        # both limits, against F in mpmath at eps = 1e-25 along a third
        # direction, to 1e-13 of the row's scale: the sum of the sizes of its
        # leading terms, which its rounding is 1e-14 of.  Where the limit is
        # 0 the oracle reads the next term, of order eps
        p = ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=gamma, z1=0.2, z2=0.4)
        pts = _singular_cone_points(p, 8)
        assert len(pts) >= 9
        pairs, rounding = limit_pairs(*_parts(pts), p)
        direction = np.random.default_rng(1).uniform(0.5, 1.5, size=k1 + k2)
        for pt, pair, scale in zip(pts, pairs, rounding / 1e-14):
            want = float(mp_lattice_value(pt.nu, pt.nv, p, direction))
            assert np.abs(pair - want).max() <= 1e-13 * scale + 1e-20, pt
        assert np.all(pairs[:9] != 0.0)  # the first nine have nonzero limits

    def test_near_pole_limit_is_zero(self):
        # F vanishes like eps at this point, in every direction
        assert not _is_regular(NEAR_POLE_PT, NEAR_POLE_P)
        pairs, rounding = limit_pairs(*_parts([NEAR_POLE_PT]), NEAR_POLE_P)
        assert pairs.tolist() == [[0.0, 0.0]] and rounding.tolist() == [0.0]
        for d in ([1.0, 2.0, 3.0, 5.0], [0.3, -0.7, 1.1, 0.2]):
            got = mp_lattice_value(NEAR_POLE_PT.nu, NEAR_POLE_PT.nv, NEAR_POLE_P, d)
            assert abs(got) < 1e-20

    def test_pole_raises_with_its_order(self):
        # at gamma = -1/2, Gamma(u_0 - u_1 + gamma) meets its pole at -1 at the
        # origin, and no zero cancels it
        p = ParamSet(k1=2, k2=0, alpha=1.3, gamma=-0.5, z1=0.3)
        with pytest.raises(LimitDisagreementError,
                           match=r"pole of order 1 at LatticePoint\(nu=\(0, 0\)"):
            limit_pairs(np.zeros((1, 2)), np.zeros((1, 0)), p)

    def test_direction_dependent_limit_raises(self):
        pt, p = TWO_BASES_PT, TWO_BASES_P
        with pytest.raises(LimitDisagreementError, match="directional limits disagree"):
            limit_pairs(*_parts([pt]), p)
        # the first point that fails raises, in a batch as on its own
        pts = _singular_cone_points(p, 4)
        batch = pts[:3] + [pt] + pts[3:]
        got = _outcome(limit_pairs, *_parts(batch), p)
        assert got[0] is LimitDisagreementError
        assert got == _outcome(sequential_limit_pairs, batch, p)
        # the oracle sees the limit move with the direction too
        a, b = (mp_lattice_value(pt.nu, pt.nv, p, d)
                for d in ([1.0, 2.0, 3.0, 5.0], [0.3, -0.7, 1.1, 0.2]))
        assert abs(a - b) > 1e-3 * max(abs(a), abs(b))

    def test_one_factor_pass_per_batch(self, monkeypatch):
        # every factor kind is evaluated once for the whole batch, on every
        # base that has it at once, over the integer differences the rows
        # span, both directions at once
        import selberg3.lattice as lattice

        p = ParamSet(k1=3, k2=2, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.5)
        pts = _singular_cone_points(p, 4)
        calls = []
        real = lattice.factor_table

        def spy(kind, arg, *args):
            calls.append(arg.shape)
            return real(kind, arg, *args)

        monkeypatch.setattr(lattice, "factor_table", spy)
        limit_pairs(*_parts(pts), p)
        # Gamma and 1/Gamma on all 13 bases (3 u, 6 vu, 4 pair), the weight
        # denominator on the vu bases and the linear factor on the pair
        # bases, each over the differences -4..4 of the parts 0..4
        assert calls == [(13, 9)] * 2 + [(6, 9), (4, 9)]
