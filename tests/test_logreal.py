"""Log-signed arithmetic and gamma primitives."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mp_gamma
from selberg3.errors import DegenerateError, PoleError
from selberg3.logreal import (
    LogSigned,
    gamma_ratio,
    log_gamma_signed,
    power_log,
    sin_ratio,
)


class TestLogSigned:
    def test_multiply_signs_and_logs(self):
        a = LogSigned(-1, 2.0)
        b = LogSigned(1, 3.0)
        c = a * b
        assert c.sign == -1 and c.logmag == 5.0

    @given(st.floats(min_value=-300, max_value=300).map(lambda e: 10.0 ** e),
           st.sampled_from([-1.0, 1.0]))
    def test_roundtrip(self, mag, sgn):
        x = sgn * mag
        back = LogSigned.from_float(x).to_float()
        # one unit of roundoff on the log scale: rel error up to |log x| * eps
        assert back == pytest.approx(x, rel=2e-13)

    def test_zero_is_absorbing_for_multiply(self):
        z = LogSigned.zero()
        assert (z * LogSigned(1, 5.0)).sign == 0
        assert (LogSigned(-1, 5.0) * z).sign == 0

    def test_power_log_rejects_negative_base(self):
        with pytest.raises(DegenerateError):
            power_log(-1.0, 0.5)


class TestLogGamma:
    def test_gamma_one(self):
        g = log_gamma_signed(1.0)
        assert g.sign == 1 and g.logmag == pytest.approx(0.0, abs=1e-15)

    def test_gamma_half(self):
        g = log_gamma_signed(0.5)
        assert g.to_float() == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_gamma_minus_half_reflection(self):
        # high-precision oracle: Gamma(-1/2) = -2 sqrt(pi)
        want = float(mp_gamma(-0.5))
        g = log_gamma_signed(-0.5)
        assert g.sign == -1
        assert g.to_float() == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("x", [-4.3, -3.7, -2.2, -1.5, -0.7, 0.3, 1.7, 6.4])
    def test_against_high_precision(self, x):
        want = float(mp_gamma(x))
        assert log_gamma_signed(x).to_float() == pytest.approx(want, rel=1e-13)

    def test_pole_raises(self):
        for x in (0.0, -1.0, -7.0, -3.0 + 1e-13):
            with pytest.raises(PoleError):
                log_gamma_signed(x)

    def test_pole_tolerance_configurable(self):
        x = -3.0 + 1e-8
        with pytest.raises(PoleError):
            log_gamma_signed(x, pole_tol=1e-6)
        assert log_gamma_signed(x).sign == -1  # default 1e-12 accepts it

    def test_recurrence_on_grid(self):
        # Gamma(x+1) = x Gamma(x) away from poles
        xs = [0.1 * i + 0.05 for i in range(-49, 50)]
        for x in xs:
            lhs = log_gamma_signed(x + 1.0).to_float()
            rhs = x * log_gamma_signed(x).to_float()
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_reflection_on_grid(self):
        # Gamma(x) Gamma(1-x) sin(pi x) = pi on non-integers in (-5, 5)
        xs = [-4.6, -3.3, -2.5, -1.1, -0.4, 0.3, 0.5, 1.2, 2.7, 3.9, 4.4]
        for x in xs:
            prod = (log_gamma_signed(x) * log_gamma_signed(1.0 - x)).to_float()
            assert prod * math.sin(math.pi * x) == pytest.approx(math.pi, rel=1e-10)


class TestGammaRatio:
    def test_trivial_values(self):
        assert gamma_ratio(0.0, 2.0, 1.0).to_float() == pytest.approx(1.0, rel=1e-14)
        assert gamma_ratio(5.0, 1.0, 0.0).to_float() == pytest.approx(5.0, rel=1e-14)

    def test_large_argument_power_law(self):
        # Gamma(x+c)/Gamma(x+d) ~ x^(c-d) for large x
        got = gamma_ratio(1000.0, 0.3, 0.0).to_float()
        assert got == pytest.approx(1000.0 ** 0.3, rel=1e-3)

    @given(st.floats(min_value=1.0, max_value=50.0),
           st.floats(min_value=-0.9, max_value=2.0),
           st.floats(min_value=-0.9, max_value=2.0))
    @settings(max_examples=100)
    def test_inverse_is_exact(self, x, c, d):
        a = gamma_ratio(x, c, d)
        b = gamma_ratio(x, d, c)
        prod = a * b
        assert prod.sign == 1
        assert prod.logmag == 0.0  # logmags negate exactly


class TestSinRatio:
    def test_equal_arguments(self):
        assert sin_ratio(0.7, 0.7) == pytest.approx(1.0, rel=1e-15)

    def test_double_angle(self):
        q = 0.1
        assert sin_ratio(2 * q, q) == pytest.approx(2.0 * math.cos(math.pi * q), rel=1e-14)

    def test_frozen_value(self):
        # sin(0.2 pi)/sin(0.4 pi), evaluated at 40 digits and rounded
        assert sin_ratio(0.2, 0.4) == pytest.approx(0.6180339887498949, rel=1e-14)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateError):
            sin_ratio(0.2, 1.0)
