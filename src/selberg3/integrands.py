"""Summands and integrands: the left-hand side of every identity.

Two families live here.  The discrete family (``phi_sign_log``,
``weight_w``, ``_jet_limits``) is evaluated on points of the shifted
integer lattice, where gamma factors routinely sit at poles and zeros.
The summand is described once, by ``lattice_bases`` and ``factor_args``:
every factor is ``factor_table`` at its argument, which gives the
factor's leading term sign * exp(log) * eps**order there (its value,
order 0, away from a pole or a zero), and ``master_sign_log`` adds the
factor logs in one fixed order.  The weight is described once, by
``weight_terms``.  The point evaluator ``phi_sign_log``, the lattice
factor tables, ``weight_w`` and the exact directional limits
(``_jet_limits``, which reads Phi's leading term from the factor tables
and adds the weight's) all derive from these descriptions; the checks
evaluate batches of points through ``lattice.lattice_values``, and
``f_limit`` is its one-point case.  The continuous family is described,
not evaluated: ``assembled_integrand`` returns an ``Integrand`` naming
the interval, the power-product exponents and rates and the kind of
symmetrized rational weight, and ``quadrature`` evaluates every
integrand from that description on its chain frame, for both schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np
from scipy.special import gammaln, gammasgn

from .errors import (
    DomainError,
    InadmissibleTripleError,
    NearSingularError,
    PoleError,
)
from .params import ParamSet

NEAR_SINGULAR_TOL = 1e-9
POLE_TOL = 1e-12         # a numerator gamma closer to a pole raises PoleError
SYM_TERM_CAP = 40320
# relative rounding of one summand value, exp of a sum of up to a few dozen
# log-gamma terms times a rational weight; the error bars add it over |F|
_VALUE_ROUNDING = 1e-14


# ---------------------------------------------------------------------------
# lattice points
# ---------------------------------------------------------------------------

def lattice_shift(k: int, gamma: float) -> np.ndarray:
    """Shift vector (k-1, k-2, ..., 0) * gamma prepended to integer parts."""
    return gamma * np.arange(k - 1, -1, -1, dtype=float)


@dataclass(frozen=True)
class LatticePoint:
    """A point of the gamma-shifted integer lattice.

    ``nu``/``nv`` are the integer parts; real coordinates carry the
    (k-1, ..., 0)*gamma shift on top of them.
    """

    nu: tuple
    nv: tuple
    gamma: float

    @property
    def k1(self) -> int:
        return len(self.nu)

    @property
    def k2(self) -> int:
        return len(self.nv)

    @property
    def u(self) -> np.ndarray:
        return np.asarray(self.nu, dtype=float) + lattice_shift(self.k1, self.gamma)

    @property
    def v(self) -> np.ndarray:
        return np.asarray(self.nv, dtype=float) + lattice_shift(self.k2, self.gamma)


# ---------------------------------------------------------------------------
# master function (sign, log) evaluation on real coordinates
# ---------------------------------------------------------------------------

def phi_sign_log(u: np.ndarray, v: np.ndarray, p: ParamSet):
    """Master-product value on real (u, v) batches as (sign, logmag) arrays.

    Every factor is ``factor_table`` at its ``factor_args`` argument, at
    tolerance ``POLE_TOL``: a numerator gamma at a pole (order -1) raises
    :class:`PoleError`, and a reciprocal gamma at a zero or a vanishing
    linear factor (order +1) is an exact zero, sign 0 with its leading log.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    plus, minus, families = base_index(u.shape[1], v.shape[1])
    c = np.hstack((u, v, np.zeros((u.shape[0], 1))))
    x = c[:, plus] - c[:, minus]
    signs, logs = [], [[] for _ in plus]
    for family, cols in families.items():
        # one factor_table call per factor covers every base of the family
        for kind, arg in factor_args(family, x[:, cols], p) if cols else ():
            if kind == "den":  # a weight denominator only
                continue
            sign, logm, order = factor_table(kind, arg, POLE_TOL)
            if (order < 0).any():
                raise PoleError(f"gamma pole at argument {arg[order < 0][0]!r}")
            signs.append(np.where(order > 0, 0.0, sign).prod(axis=1))
            for j, b in enumerate(cols):
                logs[b].append(logm[:, j])
    return master_sign_log(p, u, v, signs, lambda b, f: logs[b][f])


def master_sign_log(p: ParamSet, u: np.ndarray, v: np.ndarray, signs, factor_log):
    """(sign, log|Phi|) of the master product from its factors.

    ``signs`` yields factor signs in any order.  ``factor_log(b, f)`` is
    the log of master-product factor f, in ``factor_args`` order, on base
    b of ``lattice_bases``; each is asked for once, when it is added.
    The logs are added up in one fixed order, so every evaluator of the
    product agrees bit for bit: the z1 power, the 'u' family, the z2
    power, the 'vu' family, then each pair's three factors in turn.  A
    family adds one factor position at a time, as a row sum over its
    bases.
    """
    n = u.shape[0]
    sign = np.ones(n)
    for s in signs:
        sign = sign * s
    families = base_index(u.shape[1], v.shape[1])[2]
    logm = np.zeros(n)
    for z, block, family in ((p.z1, u, "u"), (p.z2, v, "vu")):
        if block.shape[1]:
            logm = logm + math.log(z) * block.sum(axis=1)
        for f in range(2):
            column = [factor_log(b, f) for b in families[family]]
            if len(column) == 1:  # the row sum of one column is that column
                logm = logm + column[0]
            elif column:
                logm = logm + np.stack(column, axis=1).sum(axis=1)
    for b in families["pair"]:
        for f in range(3):
            logm = logm + factor_log(b, f)
    return sign, logm


# ---------------------------------------------------------------------------
# discrete weight function w
# ---------------------------------------------------------------------------

def _check_sym_cap(k1: int, k2: int):
    if math.factorial(k1) * math.factorial(k2) > SYM_TERM_CAP:
        raise DomainError(f"symmetrization over S_{k1} x S_{k2} exceeds the term cap")


@lru_cache(maxsize=None)
def weight_terms(k1: int, k2: int) -> tuple:
    """The symmetrization terms of the discrete weight, grouped by sigma.

    One (head, tails) per sigma of S_k1, with one tail per tau of S_k2;
    the (sigma, tau) term is the head's forms followed by the tail's.  A
    form is ((plus, minus, shifted), power) on the coordinates
    c = (u_0..u_{k1-1}, v_0..v_{k2-1}): the factor c[plus] - c[minus],
    less gamma when shifted, multiplied in at power +1 and divided out at
    -1, in the order listed.  With us = u[sigma], vs = v[tau] and
    kk = k1 - k2 a term is prod_{i<j} (us_i - us_j - gamma)/(us_i - us_j)
    / prod_b (vs_b - us_{b+kk} - gamma)
    * prod_{b<a} (vs_b - us_{a+kk})/(vs_b - us_{a+kk} - gamma)
    * prod_{i<j} (vs_i - vs_j - gamma)/(vs_i - vs_j).
    """
    kk = k1 - k2

    def ratio(plus, minus, top):
        """The factor (c[plus] - c[minus] [- gamma]) / (the other one)."""
        return (((plus, minus, top), 1), ((plus, minus, not top), -1))

    out = []
    for sigma in permutations(range(k1)):
        head = [f for i in range(k1) for j in range(i + 1, k1)
                for f in ratio(sigma[i], sigma[j], True)]
        tails = []
        for tau in permutations(range(k1, k1 + k2)):
            tail = [((tau[b], sigma[b + kk], True), -1) for b in range(k2)]
            tail += [f for b in range(k2) for a in range(b + 1, k2)
                     for f in ratio(tau[b], sigma[a + kk], False)]
            tail += [f for i in range(k2) for j in range(i + 1, k2)
                     for f in ratio(tau[i], tau[j], True)]
            tails.append(tuple(tail))
        out.append((tuple(head), tuple(tails)))
    return tuple(out)


def _weight_products(k1: int, k2: int, factor, one):
    """Every symmetrization term of ``weight_terms``, in order: ``one``
    times the term's factors, ``factor(form)`` each.  Terms of one sigma
    share the product of its head."""
    def times(x, forms):
        for form, power in forms:
            x = x * factor(form) if power > 0 else x / factor(form)
        return x

    for head, tails in weight_terms(k1, k2):
        shared = times(one, head)
        for tail in tails:
            yield times(shared, tail)


@lru_cache(maxsize=None)
def _denominators(k1: int, k2: int) -> tuple:
    """The forms some term of ``weight_terms`` divides by."""
    return tuple(dict.fromkeys(form for head, tails in weight_terms(k1, k2)
                               for forms in (head, *tails) for form, power in forms if power < 0))


def _form_values(c: np.ndarray, gamma: float):
    """``factor`` for ``_weight_products`` on coordinate rows c: the value
    c[plus] - c[minus] (less gamma when shifted), each difference kept for
    the next form on the same coordinates, as the two of a ratio are."""
    last = [None, None]

    def factor(form):
        plus, minus, shifted = form
        if last[0] != (plus, minus):
            last[:] = (plus, minus), c[plus] - c[minus]
        return last[1] - gamma if shifted else last[1]

    return factor


def weight_w(u: np.ndarray, v: np.ndarray, gamma: float) -> np.ndarray:
    """Symmetrized discrete weight on real (u, v) batches: the mean of the
    ``weight_terms`` terms.

    Simple poles sit on the hyperplanes v_b - u_a = gamma; evaluation
    closer than ``NEAR_SINGULAR_TOL`` to any denominator zero raises
    :class:`NearSingularError`.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    n, k1, k2 = u.shape[0], u.shape[1], v.shape[1]
    _check_sym_cap(k1, k2)
    factor = _form_values(np.hstack((u, v)).T, gamma)
    if any(np.abs(factor(form)).min(initial=np.inf) < NEAR_SINGULAR_TOL
           for form in _denominators(k1, k2)):
        raise NearSingularError("weight evaluated too close to a pole hyperplane")
    total = np.zeros(n)
    for term in _weight_products(k1, k2, factor, np.ones(n)):
        total = total + term
    return total / (math.factorial(k1) * math.factorial(k2))


# ---------------------------------------------------------------------------
# lattice evaluation: direct where regular, directional limit otherwise
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def lattice_bases(k1: int, k2: int) -> tuple:
    """The linear forms every factor of the lattice summand depends on.

    One (family, plus, minus) per base quantity x = c[plus] - c[minus] of
    the coordinates c = (u_0..u_{k1-1}, v_0..v_{k2-1}, 0), in the order
    ``master_sign_log`` reads their factors: family 'u' is x = u_i (minus
    is the trailing constant 0), 'vu' is x = v_j - u_i (i-major) and
    'pair' is x = b_i - b_j for i < j, within u and then within v.
    """
    K = k1 + k2
    bases = [("u", i, K) for i in range(k1)]
    bases += [("vu", k1 + j, i) for i in range(k1) for j in range(k2)]
    for off, kdim in ((0, k1), (k1, k2)):
        bases += [("pair", off + i, off + j) for i in range(kdim) for j in range(i + 1, kdim)]
    return tuple(bases)


@lru_cache(maxsize=None)
def base_index(k1: int, k2: int) -> tuple:
    """``lattice_bases`` as indices: the plus and the minus coordinate of
    every base, as read-only arrays, and the bases of each family in
    order, {family: tuple}."""
    bases = lattice_bases(k1, k2)
    plus, minus = (np.array([b[i] for b in bases], dtype=np.intp) for i in (1, 2))
    plus.flags.writeable = minus.flags.writeable = False
    return plus, minus, {f: tuple(i for i, b in enumerate(bases) if b[0] == f)
                         for f in ("u", "vu", "pair")}


def factor_args(family: str, x, p: ParamSet) -> tuple:
    """(kind, argument) of every factor on base quantity x, in product order.

    'num' is a numerator Gamma(arg), singular at a nonpositive integer;
    'recip' is 1/Gamma(arg), an exact zero there; 'lin' is the plain
    factor arg, which is also a weight denominator; 'den' is a weight
    denominator only.  Every evaluator of the master product takes its
    arguments from here, and a weight denominator is the float expression
    ``weight_w`` evaluates, so values built from it match bit for bit.
    """
    a, g = p.alpha, p.gamma
    if family == "u":
        return (("num", x + a), ("recip", x + 1.0))
    if family == "vu":
        return (("num", x - g + 1.0), ("recip", x + 1.0), ("den", x - g))
    return (("lin", x), ("num", x + g), ("recip", x - g + 1.0))


def factor_table(kind: str, arg: np.ndarray, tol: float = NEAR_SINGULAR_TOL):
    """(sign, log, order) of one factor over an array of arguments: its
    leading term sign * exp(log) * eps**order at arg + eps.  A regular
    entry is the factor's value, order 0.  Within tol of a nonpositive
    integer -n, Gamma has a pole, (-1)**n / n! at order -1 (its residue,
    DLMF 5.2(i)), and 1/Gamma a zero, (-1)**n n! at order +1; within tol
    of 0 a 'lin' factor vanishes, 1 at order +1.  A 'den' factor is not
    part of the master product: no sign or log, order -1 where it vanishes.
    """
    if kind in ("lin", "den"):
        zero = np.abs(arg) <= tol
        if kind == "den":
            return None, None, zero * -1
        return (np.where(zero, 1.0, np.sign(arg)), np.log(np.abs(np.where(zero, 1.0, arg))),
                zero * 1)
    num = kind == "num"
    near = np.rint(arg)  # -n
    at = np.abs(arg - near) <= tol
    sign, logm = gammasgn(arg), gammaln(arg)  # placeholders where at
    if not num:
        logm = -logm
    if at.any():
        at &= near <= 0.0
        near = near[at]
        sign[at] = (-1.0) ** near
        logm[at] = -gammaln(1.0 - near) if num else gammaln(1.0 - near)
    return sign, logm, at * (-1 if num else 1)  # the power of eps at a pole or a zero


@lru_cache(maxsize=None)
def _jet_frame(k1: int, k2: int) -> tuple:
    """What the jets of a (k1, k2) summand read apart from the point.

    The two directions are sqrt of the first k1 + k2 primes and
    (1, 2, ..., k1 + k2), along which every base and every weight form
    moves.  Returns the rates d[plus] - d[minus] of the bases along each
    (2, bases), the weight forms in order of first use with their rates
    (2, forms), and each symmetrization term's power of each form (terms,
    forms): one term of no form without a weight (k2 = 0).
    """
    K = k1 + k2
    primes = [q for q in range(2, 12 * K + 8) if all(q % r for r in range(2, q))][:K]
    dirs = np.array([np.sqrt(primes), np.arange(1.0, K + 1.0)])
    ends = np.hstack((dirs, np.zeros((2, 1))))
    plus, minus, _ = base_index(k1, k2)
    terms = [head + tail for head, tails in (weight_terms(k1, k2) if k2 else ())
             for tail in tails]
    forms = tuple(dict.fromkeys(form for term in terms for form, _ in term))
    powers = np.array([[sum(q for f, q in term if f == form) for form in forms]
                       for term in terms] or [[]], dtype=np.int64)
    form_rates = np.array([[d[f[0]] - d[f[1]] for f in forms] for d in dirs]).reshape(2, -1)
    return ends[:, plus] - ends[:, minus], forms, form_rates, powers


def _jet_limits(NU: np.ndarray, NV: np.ndarray, U: np.ndarray, V: np.ndarray, p: ParamSet,
                sign, logm, order):
    """The two directional limits of F at lattice points, (m, 2), each
    row's rounding scale, and the message of each failed row, by row.

    ``NU``/``NV`` hold the integer parts and ``U``/``V`` the real
    coordinates (``lattice._coordinates``), and Phi's leading term there is
    sign * exp(logm) * prod_b eps**order[:, b] over the bases b
    (``lattice.FactorTables.limits``).  Along a direction every base and
    weight form moves as x0 + r * eps, so Phi's leading coefficient takes
    r**order per base, and a vanishing weight form (within
    ``NEAR_SINGULAR_TOL``, as ``weight_w`` computes it) leads with r eps.
    Each symmetrization term of F = Phi * w is then c * eps**order, and the
    limit is the sum of the order-0 terms' c over the terms' count.  A row
    fails at a term of negative order (a pole of F) or when its limits
    differ by more than ``_VALUE_ROUNDING`` times the sum of the two
    directions' order-0 masses sum |c| / count, the larger of which, times
    ``_VALUE_ROUNDING``, is its rounding scale.  A failed row's pair is a
    placeholder.  Every row is evaluated on its own.
    """
    m, k1 = NU.shape
    k2 = NV.shape[1]
    base_rates, forms, form_rates, powers = _jet_frame(k1, k2)
    # Phi's leading coefficient along each direction, (2, m)
    phi = sign * np.exp(logm) * np.prod(base_rates[:, None, :] ** order, axis=2)

    # each weight form's leading coefficient: its rate where it vanishes
    value = _form_values(np.hstack((U, V)).T, p.gamma)
    vals = np.array([value(form) for form in forms]).reshape(len(forms), m)
    vanish = np.abs(vals) <= NEAR_SINGULAR_TOL
    lead = {form: np.where(vanish[f], form_rates[:, f, None], vals[f])
            for f, form in enumerate(forms)}
    terms = (np.stack(list(_weight_products(k1, k2, lead.__getitem__, np.ones((2, m)))))
             if k2 else np.ones((1, 2, m)))
    total = order.sum(axis=1) + powers @ vanish  # each term's power of eps, (terms, m)
    lead_terms = np.where((total == 0)[:, None, :], phi * terms, 0.0)
    limits = lead_terms.sum(axis=0) / len(terms)
    mass = np.abs(lead_terms).sum(axis=0) / len(terms)
    a, b = limits
    pole = total.min(axis=0) < 0
    bad = pole | ~(np.abs(a - b) <= _VALUE_ROUNDING * (mass[0] + mass[1]))
    failures = {}
    for i in np.flatnonzero(bad).tolist():
        pt = LatticePoint(tuple(int(x) for x in NU[i]), tuple(int(x) for x in NV[i]), p.gamma)
        failures[i] = (f"F has a pole of order {-int(total[:, i].min())} at {pt!r}" if pole[i]
                       else f"directional limits disagree: {float(a[i])!r} vs {float(b[i])!r}"
                            f" at {pt!r}")
    return limits.T, _VALUE_ROUNDING * mass.max(axis=0), failures


def f_limit(pt: LatticePoint, p: ParamSet) -> float:
    """Value of F at one lattice point: the one-row case of
    ``lattice.lattice_values``.  Regular points are a plain product;
    at singular points the value is the mean of the two directional
    limits of ``lattice.limit_pairs``.
    """
    from .lattice import lattice_values  # lattice is built on this module

    return float(lattice_values(np.array([pt.nu]), np.array([pt.nv]), p)[0][0])


# ---------------------------------------------------------------------------
# assembled integrands
# ---------------------------------------------------------------------------

def is_admissible(l1: int, l2: int, m: int, k1: int, k2: int) -> bool:
    """Index bounds under which the end-point integrals are defined."""
    return (0 <= l1 and 0 <= l2 and 0 <= m
            and l1 <= k1 - k2 + l2 and l2 <= k2 and m <= min(l1, l2))


def h_pole_count(l1: int, l2: int, m: int, k2: int) -> int:
    """Number of simple-pole factors in each symmetrization term."""
    return m + (k2 - l2)


@dataclass(frozen=True)
class Integrand:
    """Description of an integrand: the facts quadrature evaluates it from.

    The integrand is a power product times a symmetrized rational weight.
    On '01' the power product is prod t^(alpha-1) (1-t)^(beta1-1)
    prod (1-s)^(beta2-1); on '0inf' it is prod t^(alpha-1) e^(-rate t)
    prod e^(-rate s) with ``exp_rates`` = (t rate, s rate).  Both carry
    |pair gap|^(2 gamma) within a block and |t - s|^(-gamma) across.
    ``pole_count`` is the number of rational pole factors per
    symmetrization term (0 when the rational weight is absent).
    ``kind``/``indices`` name the rational weight: 'plain' (none), 'g',
    'h' or 'ht', the last two at a triple (l1, l2, m).  Kind 'callable'
    is a black box on '01': ``fn`` maps coordinate rows (t, s) to values
    and replaces the power product and the weight, so its alpha, beta1,
    beta2, gamma and pole_count are the empty product's 1, 1, 1, 0 and 0,
    which ``quadrature.integrate_domain`` requires; ``fn`` is None for
    every other kind.
    """

    fn: object
    k1: int
    k2: int
    interval: str
    pole_count: int
    alpha: float
    gamma: float
    beta1: float
    beta2: float
    exp_rates: tuple | None = None
    kind: str = "plain"
    indices: tuple = ()


def assembled_integrand(which: str, p: ParamSet, indices=None) -> Integrand:
    """Describe the full integrand for one identity.

    ``which`` is one of 'selb', 'exp', 'exp3', 'selb3', 'selb30',
    'aomoto', 'J', 'Jt'.  For 'aomoto' ``indices`` is the moment index l,
    the symmetrized t1..tl * (1-t_{l+1})..(1-t_k); for 'J'/'Jt' it is the
    triple (l1, l2, m), which must be admissible.
    """
    k1, k2 = p.k1, p.k2
    a, b1, b2, g = p.alpha, p.beta1, p.beta2, p.gamma

    if which in ("selb", "exp", "aomoto") and k2 != 0:
        raise DomainError(f"{which!r} requires k2 = 0")
    if which == "selb":
        return Integrand(None, k1, 0, "01", 0, a, g, b1, b2)
    if which == "exp":
        return Integrand(None, k1, 0, "0inf", 0, a, g, b1, b2, exp_rates=(1.0, 1.0))
    if which == "exp3":
        return Integrand(None, k1, k2, "0inf", k2, a, g, b1, b2, exp_rates=(b1, b2),
                         kind="g" if k2 else "plain")
    if which == "selb3":
        return Integrand(None, k1, k2, "01", k2, a, g, b1, b2, kind="g" if k2 else "plain")
    if which == "selb30":
        return Integrand(None, k1, k2, "01", 0, a, g, b1, b2)
    if which == "aomoto":  # the l-th moment is the h weight at (l, 0, 0)
        return Integrand(None, k1, 0, "01", 0, a, g, b1, b2, kind="h", indices=(indices, 0, 0))
    if which in ("J", "Jt"):
        l1, l2, m = indices
        if not is_admissible(l1, l2, m, k1, k2):
            raise InadmissibleTripleError(
                f"triple ({l1},{l2},{m}) is not admissible for ({k1},{k2})")
        return Integrand(None, k1, k2, "01", h_pole_count(l1, l2, m, k2), a, g, b1, b2,
                         kind="ht" if which == "Jt" else "h", indices=(l1, l2, m))
    raise DomainError(f"unknown integrand {which!r}")
