"""Gamma-product closed forms: the right-hand side of every identity.

All values are returned as :class:`~selberg3.logreal.LogSigned` so that
products with many gamma factors neither overflow nor lose their sign.
Naming convention: ``*_rhs`` functions evaluate the closed side of the
correspondingly named identity; ``j_closed_form`` evaluates the boundary
values of the recursion family of end-point integrals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .errors import DomainError
from .logreal import LogSigned, log_gamma_signed, power_log, prod_logsigned
from .params import ParamSet


def _gamma(x: float) -> LogSigned:
    return log_gamma_signed(x)


def selberg_rhs(p: ParamSet) -> LogSigned:
    """Classic k-dimensional beta-type integral as a gamma product."""
    k, a, b, g = p.k, p.alpha, p.beta, p.gamma
    factors = []
    for j in range(k):
        factors.append(_gamma(a + j * g) * _gamma(b + j * g) * _gamma(g + j * g)
                       / (_gamma(a + b + (2 * k - 2 - j) * g) * _gamma(g)))
    return prod_logsigned(factors)


def exp_selberg_rhs(p: ParamSet) -> LogSigned:
    """Exponential-weight variant on the half-line: two gamma factors per step."""
    return _exp_product(p.k, p.alpha, p.gamma)


def _exp_product(k: int, a: float, g: float) -> LogSigned:
    factors = []
    for j in range(k):
        factors.append(_gamma(a + j * g) * _gamma(g + j * g) / _gamma(g))
    return prod_logsigned(factors)


def discrete_exp_rhs(p: ParamSet) -> LogSigned:
    """Closed form of the one-variable lattice-cone series, |z| < 1."""
    k, a, g, z = p.k, p.alpha, p.gamma, p.z
    if not 0.0 < z < 1.0:
        raise DomainError(f"z must lie in (0,1), got {z}")
    pre = power_log(z, k * (k - 1) * g / 2.0) * power_log(1.0 - z, -k * a - k * (k - 1) * g)
    return pre * _exp_product(k, a, g)


def sl3_discrete_rhs(p: ParamSet) -> LogSigned:
    """Closed form of the two-variable lattice-cone series, |z1|,|z2| < 1."""
    k1, k2, a, g, z1, z2 = p.k1, p.k2, p.alpha, p.gamma, p.z1, p.z2
    if not (0.0 < z1 < 1.0 and 0.0 < z2 < 1.0):
        raise DomainError(f"z1, z2 must lie in (0,1), got z1={z1}, z2={z2}")
    e = g - a - k1 * g
    pre = (power_log(z1, k1 * (k1 - 1) * g / 2.0)
           * power_log(z2, k2 * (k2 - 1) * g / 2.0)
           * power_log(1.0 - z1, (k1 - k2) * e)
           * power_log(1.0 - z2, k2 * (k1 - k2 + 1) * g)
           * power_log(1.0 - z1 * z2, k2 * e))
    return pre * _exp_product(k1, a, g) * _exp_product(k2, -k1 * g, g)


def sl3_exp_rhs(p: ParamSet) -> LogSigned:
    """Closed form of the half-line chain integral with two exponential weights."""
    k1, k2, a, b1, b2, g = p.k1, p.k2, p.alpha, p.beta1, p.beta2, p.gamma
    if not (b1 > 0.0 and b2 > 0.0):
        raise DomainError(f"beta1, beta2 must be positive, got {b1}, {b2}")
    e = g - a - k1 * g
    pre = (power_log(b1, (k1 - k2) * e)
           * power_log(b2, k2 * (k1 - k2 + 1) * g)
           * power_log(b1 + b2, k2 * e))
    return pre * _exp_product(k1, a, g) * _exp_product(k2, -k1 * g, g)


def sl3_selberg_rhs(p: ParamSet) -> LogSigned:
    """Closed form of the [0,1] chain integral carrying the rational weight."""
    k1, k2, a, b1, b2, g = p.k1, p.k2, p.alpha, p.beta1, p.beta2, p.gamma
    factors = [_exp_product(k1, a, g)]
    for j in range(k1 - k2):
        factors.append(_gamma(b1 + j * g) / _gamma(a + b1 + (2 * k1 - k2 - 2 - j) * g))
    for j in range(k2):
        factors.append(_gamma(b2 + j * g) * _gamma(b1 + b2 - 1 - g + j * g)
                       * _gamma(-k1 * g + j * g) * _gamma(g + j * g)
                       / (_gamma(b2 + (2 * k2 - k1 - 2 - j) * g)
                          * _gamma(a + b1 + b2 - 1 + (k1 + k2 - 3 - j) * g)
                          * _gamma(g)))
    return prod_logsigned(factors)


def sl3_selberg0_rhs(p: ParamSet) -> LogSigned:
    """Closed form of the [0,1] chain integral without the rational weight."""
    k1, k2, a, b1, b2, g = p.k1, p.k2, p.alpha, p.beta1, p.beta2, p.gamma
    factors = [_exp_product(k1, a, g)]
    for j in range(k1 - k2):
        factors.append(_gamma(b1 + j * g) / _gamma(a + b1 + (2 * k1 - k2 - 2 - j) * g))
    for j in range(k2):
        factors.append(_gamma(b2 + j * g) * _gamma(b1 + b2 - g + j * g)
                       * _gamma(1 - k1 * g + j * g) * _gamma(g + j * g)
                       / (_gamma(b2 + 1 + (2 * k2 - k1 - 2 - j) * g)
                          * _gamma(a + b1 + b2 + (k1 + k2 - 3 - j) * g)
                          * _gamma(g)))
    return prod_logsigned(factors)


def cone_monomial_integral(k1: int, k2: int, degs_t, degs_s) -> Fraction:
    """Exact integral of prod t^degs_t prod s^degs_s over the interleaved
    cone in [0,1]: t and s each descending, s_b >= t_(b+k1-k2).

    The cone is the union of the total orders of the coordinates that
    satisfy its inequalities, each a chain 1 >= c_1 >= ... >= c_K >= 0
    whose monomial integrates to prod 1 / (e_i + ... + e_K + K - i + 1).
    """
    labels = [("t", a) for a in range(k1)] + [("s", b) for b in range(k2)]
    degs = {("t", a): int(d) for a, d in enumerate(degs_t)}
    degs.update({("s", b): int(d) for b, d in enumerate(degs_s)})
    above = ([(("t", a), ("t", a + 1)) for a in range(k1 - 1)]
             + [(("s", b), ("s", b + 1)) for b in range(k2 - 1)]
             + [(("s", b), ("t", b + k1 - k2)) for b in range(k2)])
    total = Fraction(0)
    for order in permutations(labels):
        pos = {lab: i for i, lab in enumerate(order)}
        if all(pos[hi] < pos[lo] for hi, lo in above):
            term, tail = Fraction(1), 0
            for i in range(len(order) - 1, -1, -1):
                tail += degs[order[i]] + 1
                term /= tail
            total += term
    return total


def aomoto_rhs(k: int, ell: int, p: ParamSet) -> LogSigned:
    """Value of the l-th two-sided moment of the classic integrand (both
    t and 1-t factors present), whose prefactor has beta-shifted
    denominators."""
    if not 0 <= ell <= k:
        raise DomainError(f"need 0 <= l <= k, got l={ell}, k={k}")
    a, b, g = p.alpha, p.beta, p.gamma
    pre = LogSigned.one()
    for i in range(ell):
        num = LogSigned.from_float(a + (k - 1 - i) * g)
        den = LogSigned.from_float(b + i * g)
        pre = pre * num / den
    return pre * selberg_rhs(p.with_(k1=k, k2=0, beta1=b + 1))


def j_closed_form(which: str, p: ParamSet, m: int = 0) -> LogSigned:
    """Boundary closed forms of the end-point integral family.

    ``which`` is one of:

    * ``"J000"``  -- the seed, R(alpha, beta1+1, beta2+1);
    * ``"J0k20"`` -- the (0,k2,0) entry, the no-weight chain value at beta1+1;
    * ``"Jk1k20"``-- the (k1,k2,0) entry, the no-weight chain value at alpha+1;
    * ``"Jtk1k2m"`` -- the twisted (k1,k2,m) entry, rational multiple of
      the (k1,k2,0) one.
    """
    k1, k2, a, b1, b2, g = p.k1, p.k2, p.alpha, p.beta1, p.beta2, p.gamma
    if which == "J000":
        return sl3_selberg_rhs(p.with_(beta1=b1 + 1, beta2=b2 + 1))
    if which == "J0k20":
        return sl3_selberg0_rhs(p.with_(beta1=b1 + 1))
    if which == "Jk1k20":
        return sl3_selberg0_rhs(p.with_(alpha=a + 1))
    if which == "Jtk1k2m":
        if not 0 <= m <= k2:
            raise DomainError(f"need 0 <= m <= k2, got m={m}")
        out = j_closed_form("Jk1k20", p)
        for i in range(m):
            out = out * LogSigned.from_float(-(b2 + (k2 - k1 - 1 + i) * g)) / LogSigned.from_float((k1 - i) * g)
        return out
    raise DomainError(f"unknown closed form {which!r}")
