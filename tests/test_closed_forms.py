"""Closed gamma-product forms and their internal reductions."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from oracles import (box_cone_monomial, cone_mask, mp_gamma, mp_selberg_rhs, nk_constant,
                     simplex_membership, simplex_monomial_integral)
from selberg3 import closed_forms as cf
from selberg3.errors import DomainError
from selberg3.logreal import LogSigned, power_log
from selberg3.params import ParamSet


def p_(**kw):
    return ParamSet(**kw)


class TestSelbergRhs:
    def test_beta_case(self):
        p = p_(k1=1, k2=0, alpha=1.0, beta1=1.0, gamma=0.7)
        assert cf.selberg_rhs(p).to_float() == pytest.approx(1.0, rel=1e-14)

    def test_euler_beta(self):
        p = p_(k1=1, k2=0, alpha=2.5, beta1=1.5, gamma=-0.1)
        want = float(mp.beta(2.5, 1.5))
        assert cf.selberg_rhs(p).to_float() == pytest.approx(want, rel=1e-13)

    def test_k2_alpha_beta_gamma_one_is_one_twelfth(self):
        # brute-force double integral of (t1-t2)^2 over the ordered square
        p = p_(k1=2, k2=0, alpha=1.0, beta1=1.0, gamma=1.0)
        assert cf.selberg_rhs(p).to_float() == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_against_high_precision_product(self):
        p = p_(k1=3, k2=0, alpha=1.2, beta1=2.2, gamma=-0.25)
        want = float(mp_selberg_rhs(3, 1.2, 2.2, -0.25))
        assert cf.selberg_rhs(p).to_float() == pytest.approx(want, rel=1e-12)


class TestExpAndDiscrete:
    def test_one_dimensional_gamma_integral(self):
        assert cf.exp_selberg_rhs(p_(k1=1, k2=0, alpha=3.0)).to_float() == \
            pytest.approx(2.0, rel=1e-13)
        assert cf.exp_selberg_rhs(p_(k1=1, k2=0, alpha=0.5)).to_float() == \
            pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_discrete_k1_binomial_series(self):
        p = p_(k1=1, k2=0, alpha=1.7, gamma=-0.2, z1=0.37)
        want = float(mp_gamma(1.7)) * (1 - 0.37) ** (-1.7)
        assert cf.discrete_exp_rhs(p).to_float() == pytest.approx(want, rel=1e-13)

    def test_discrete_k1_geometric(self):
        p = p_(k1=1, k2=0, alpha=1.0, gamma=-0.2, z1=0.5)
        assert cf.discrete_exp_rhs(p).to_float() == pytest.approx(2.0, rel=1e-13)

    def test_discrete_rejects_z_outside(self):
        with pytest.raises(DomainError):
            cf.discrete_exp_rhs(p_(k1=1, k2=0, z1=1.5))


class TestSl3Reductions:
    def test_all_values_one_at_zero_shape(self):
        p = p_(k1=0, k2=0, alpha=1.3, beta1=1.1, beta2=1.2, gamma=-0.2, z1=0.4, z2=0.3)
        for fn in (cf.selberg_rhs, cf.exp_selberg_rhs, cf.discrete_exp_rhs,
                   cf.sl3_discrete_rhs, cf.sl3_exp_rhs, cf.sl3_selberg_rhs,
                   cf.sl3_selberg0_rhs):
            assert fn(p).to_float() == pytest.approx(1.0, rel=1e-14)

    def test_k2_zero_reduces_to_sl2_forms(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            p = p_(k1=k, k2=0,
                   alpha=float(rng.uniform(0.5, 2.5)),
                   beta1=float(rng.uniform(0.5, 2.5)),
                   beta2=float(rng.uniform(0.5, 2.5)),
                   gamma=float(rng.uniform(-0.3, -0.02)),
                   z1=float(rng.uniform(0.05, 0.9)),
                   z2=float(rng.uniform(0.05, 0.9)))
            assert cf.sl3_discrete_rhs(p).to_float() == pytest.approx(
                cf.discrete_exp_rhs(p).to_float(), rel=1e-12)
            assert cf.sl3_selberg_rhs(p).to_float() == pytest.approx(
                cf.selberg_rhs(p).to_float(), rel=1e-12)
            assert cf.sl3_selberg0_rhs(p).to_float() == pytest.approx(
                cf.selberg_rhs(p).to_float(), rel=1e-12)
            # half-line form matches the unit-rate one after rescaling t -> t/beta1
            scaled = cf.exp_selberg_rhs(p) * power_log(
                p.beta1, k * (p.gamma - p.alpha - k * p.gamma))
            assert cf.sl3_exp_rhs(p).to_float() == pytest.approx(
                scaled.to_float(), rel=1e-12)

    def test_exp3_11_factorizes(self):
        # substitution s = t + r splits the (1,1) case into two 1-d integrals
        p = p_(k1=1, k2=1, alpha=1.5, beta1=1.0, beta2=1.3, gamma=-0.2)
        want = (1.3 ** p.gamma) * (2.3 ** (-p.alpha)) * float(
            mp_gamma(p.alpha) * mp_gamma(-p.gamma))
        assert cf.sl3_exp_rhs(p).to_float() == pytest.approx(want, rel=1e-13)


class TestConeMonomialIntegral:
    """The exact reference of the chain-decomposition check."""

    @pytest.mark.parametrize("k1,k2", [(0, 0), (1, 0), (3, 0), (1, 1), (2, 1), (2, 2),
                                       (3, 1), (3, 2)])
    def test_equals_the_interleavings_oracle(self, k1, k2):
        rng = np.random.default_rng(5 * k1 + k2)
        for _ in range(6):
            degs_t = rng.integers(0, 5, size=k1)
            degs_s = rng.integers(0, 5, size=k2)
            got = cf.cone_monomial_integral(k1, k2, degs_t, degs_s)
            assert isinstance(got, Fraction)
            assert got == simplex_monomial_integral(k1, k2, [int(d) for d in degs_t],
                                                    [int(d) for d in degs_s])

    def test_small_cases_by_hand(self):
        # the (1,1) cone s >= t: int t s = 1/8, int 1 = 1/2
        assert cf.cone_monomial_integral(1, 1, [1], [1]) == Fraction(1, 8)
        assert cf.cone_monomial_integral(1, 1, [0], [0]) == Fraction(1, 2)
        assert cf.cone_monomial_integral(2, 0, [0, 0], []) == Fraction(1, 2)

    @pytest.mark.parametrize("k1,k2", [(2, 1), (2, 2), (3, 1)])
    def test_box_sampler_within_four_sigma(self, k1, k2):
        # iid uniform samples of the unit box, masked by the cone
        # inequalities, against the exact integral over the total orders
        rng = np.random.default_rng(11 * k1 + k2)
        for rep in range(3):
            degs_t, degs_s = rng.integers(0, 4, size=k1), rng.integers(0, 4, size=k2)
            mean, sigma = box_cone_monomial(k1, k2, degs_t, degs_s, 200_000, seed=rep)
            exact = float(cf.cone_monomial_integral(k1, k2, degs_t, degs_s))
            assert sigma > 0 and abs(mean - exact) <= 4.0 * sigma

    def test_cone_mask_is_simplex_membership(self):
        rng = np.random.default_rng(4)
        k1, k2 = 3, 2
        box = rng.uniform(size=(2000, k1 + k2))
        t, s = box[:, :k1], box[:, k1:]
        want = [simplex_membership(ti, si, 0.0, 1.0, k1, k2) for ti, si in zip(t, s)]
        assert cone_mask(t, s).tolist() == want
        assert 0 < sum(want) < len(want)


class TestAomotoRhs:
    def test_boundary_values(self):
        p = p_(k1=2, k2=0, alpha=1.5, beta1=1.2, gamma=-0.1)
        s_b1 = cf.selberg_rhs(p.with_(beta1=2.2)).to_float()
        s_a1 = cf.selberg_rhs(p.with_(alpha=2.5)).to_float()
        assert cf.aomoto_rhs(2, 0, p).to_float() == pytest.approx(s_b1, rel=1e-13)
        assert cf.aomoto_rhs(2, 2, p).to_float() == pytest.approx(s_a1, rel=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_ratio_relations_to_1e12(self, k):
        rng = np.random.default_rng(k)
        for _ in range(10):
            p = p_(k1=k, k2=0,
                   alpha=float(rng.uniform(0.7, 2.5)),
                   beta1=float(rng.uniform(0.7, 2.5)),
                   gamma=float(rng.uniform(-0.25, -0.03)))
            vals = [cf.aomoto_rhs(k, l, p).to_float() for l in range(k + 1)]
            for l in range(k):
                lhs = (p.alpha + (k - l - 1) * p.gamma) * vals[l]
                rhs = (p.beta + l * p.gamma) * vals[l + 1]
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_l_out_of_range(self):
        with pytest.raises(DomainError):
            cf.aomoto_rhs(2, 3, p_(k1=2, k2=0))


class TestJClosedForms:
    def setup_method(self):
        self.p = p_(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)

    def test_seed_is_shifted_chain_value(self):
        want = cf.sl3_selberg_rhs(self.p.with_(beta1=2.2, beta2=2.4)).to_float()
        assert cf.j_closed_form("J000", self.p).to_float() == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("which,da,db1", [("J0k20", 0, 1), ("Jk1k20", 1, 0)])
    def test_corner_forms_match_explicit_products(self, which, da, db1):
        # the (0,k2,0) and (k1,k2,0) corners as explicit gamma products,
        # evaluated in mpmath: the no-weight chain value at alpha+da, beta1+db1
        k1, k2, p = self.p.k1, self.p.k2, self.p
        a, b1 = mp.mpf(p.alpha) + da, mp.mpf(p.beta1) + db1
        b2, g = mp.mpf(p.beta2), mp.mpf(p.gamma)
        want = mp.mpf(1)
        for j in range(k1):
            want *= mp_gamma(a + j * g) * mp_gamma(g + j * g) / mp_gamma(g)
        for j in range(k1 - k2):
            want *= mp_gamma(b1 + j * g) / mp_gamma(a + b1 + (2 * k1 - k2 - 2 - j) * g)
        for j in range(k2):
            want *= (mp_gamma(b2 + j * g) * mp_gamma(b1 + b2 - g + j * g)
                     * mp_gamma(1 - k1 * g + j * g) * mp_gamma(g + j * g)
                     / (mp_gamma(b2 + 1 + (2 * k2 - k1 - 2 - j) * g)
                        * mp_gamma(a + b1 + b2 + (k1 + k2 - 3 - j) * g) * mp_gamma(g)))
        got = cf.j_closed_form(which, p).to_float()
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_twisted_corner_prefactor(self):
        got = cf.j_closed_form("Jtk1k2m", self.p, m=1).to_float()
        base = cf.j_closed_form("Jk1k20", self.p).to_float()
        pre = -(self.p.beta2 + (1 - 2 - 1) * self.p.gamma) / (2 * self.p.gamma)
        assert got == pytest.approx(pre * base, rel=1e-13)

    def test_twisted_corners_are_the_per_m_products(self):
        # each m on its own: the (k1, k2, 0) entry times its first m factors
        p = p_(k1=3, k2=2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        corners = cf.twisted_corners(p)
        assert len(corners) == p.k2 + 1
        for m, got in enumerate(corners):
            want = cf.j_closed_form("Jk1k20", p)
            for i in range(m):
                want = (want * LogSigned.from_float(-(p.beta2 + (p.k2 - p.k1 - 1 + i) * p.gamma))
                        / LogSigned.from_float((p.k1 - i) * p.gamma))
            assert got == want

    def test_unknown_form_rejected(self):
        with pytest.raises(DomainError):
            cf.j_closed_form("nope", self.p)


class TestNkConstant:
    def test_empty_product(self):
        mag, phase = nk_constant(0, 1.3, -0.2)
        assert mag.to_float() == pytest.approx(1.0) and phase == 0.0

    def test_single_factor(self):
        # 2i e^{i pi a} sin(pi a); the j=0 sine ratio cancels
        a, g = 0.3, -0.22
        mag, phase = nk_constant(1, a, g)
        want = 2j * complex(math.cos(math.pi * a), math.sin(math.pi * a)) * math.sin(math.pi * a)
        got = mag.to_float() * complex(math.cos(phase), math.sin(phase))
        assert got.real == pytest.approx(want.real, abs=1e-12)
        assert got.imag == pytest.approx(want.imag, abs=1e-12)

    def test_alpha_half_gives_minus_two(self):
        mag, phase = nk_constant(1, 0.5, -0.3)
        assert mag.to_float() == pytest.approx(2.0, rel=1e-12)
        assert abs(phase) == pytest.approx(math.pi, rel=1e-12)
