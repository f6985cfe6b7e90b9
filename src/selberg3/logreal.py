"""Log-signed real products and gamma-family primitives.

Every closed form in this package is a long product of gamma values and
real powers.  Such products overflow float64 long before they become
mathematically interesting, so they are carried as (sign, log of absolute
value) pairs, multiplied and divided in that form, and only converted to
plain floats at the very end.  Sums are never formed in log form.

The log-gamma kernel is the platform C library one (``math.lgamma``),
which is good to ~15 significant digits for positive arguments; signs for
negative arguments follow from the reflection formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateError, PoleError

DEFAULT_POLE_TOL = 1e-12


@dataclass(frozen=True)
class LogSigned:
    """A real number stored as sign and natural log of absolute value.

    ``sign`` is -1, 0 or +1; ``logmag`` is ignored when ``sign == 0``.
    """

    sign: int
    logmag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")

    @staticmethod
    def zero() -> "LogSigned":
        return LogSigned(0, 0.0)

    @staticmethod
    def one() -> "LogSigned":
        return LogSigned(1, 0.0)

    @staticmethod
    def from_float(x: float) -> "LogSigned":
        if x == 0.0:
            return LogSigned.zero()
        return LogSigned(1 if x > 0 else -1, math.log(abs(x)))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.logmag)

    def __mul__(self, other: "LogSigned") -> "LogSigned":
        if self.sign == 0 or other.sign == 0:
            return LogSigned.zero()
        return LogSigned(self.sign * other.sign, self.logmag + other.logmag)

    def __truediv__(self, other: "LogSigned") -> "LogSigned":
        if other.sign == 0:
            raise ZeroDivisionError("division by LogSigned zero")
        if self.sign == 0:
            return LogSigned.zero()
        return LogSigned(self.sign * other.sign, self.logmag - other.logmag)


def power_log(base: float, exponent: float) -> LogSigned:
    """``base**exponent`` for base > 0, kept in log form.

    Negative bases are rejected: every power appearing in the closed forms
    has a positive base inside the convergence region, and allowing them
    would silently pick a branch.
    """
    if base <= 0.0:
        raise DegenerateError(f"power base must be positive, got {base}")
    return LogSigned(1, exponent * math.log(base))


def _near_nonpositive_integer(x: float, tol: float) -> bool:
    if x > 0.5:
        return False
    return abs(x - round(x)) <= tol


def log_gamma_signed(x: float, pole_tol: float = DEFAULT_POLE_TOL) -> LogSigned:
    """Gamma(x) as a LogSigned value, valid for any non-pole real x.

    For x > 0 this is exp(lgamma); for x < 0 the C library already returns
    log|Gamma(x)| and the sign alternates between consecutive negative
    integers: Gamma is negative on (-1,0), positive on (-2,-1), and so on.
    """
    if _near_nonpositive_integer(x, pole_tol):
        raise PoleError(f"gamma pole at x={x!r}")
    logmag = math.lgamma(x)
    sign = 1 if x > 0 else (-1 if (math.floor(x) % 2 == 1) else 1)
    return LogSigned(sign, logmag)


def gamma_ratio(x: float, c: float, d: float, pole_tol: float = DEFAULT_POLE_TOL) -> LogSigned:
    """Gamma(x+c)/Gamma(x+d), which behaves like x**(c-d) for large x."""
    num = log_gamma_signed(x + c, pole_tol)
    den = log_gamma_signed(x + d, pole_tol)
    return LogSigned(num.sign * den.sign, num.logmag - den.logmag)


def sin_ratio(p: float, q: float, tol: float = DEFAULT_POLE_TOL) -> float:
    """sin(pi*p)/sin(pi*q); the denominator must stay away from zero."""
    den = math.sin(math.pi * q)
    if abs(den) <= tol:
        raise DegenerateError(f"sin(pi*q) vanishes at q={q!r}")
    return math.sin(math.pi * p) / den


def prod_logsigned(factors) -> LogSigned:
    """Product of an iterable of LogSigned values."""
    out = LogSigned.one()
    for f in factors:
        out = out * f
    return out
