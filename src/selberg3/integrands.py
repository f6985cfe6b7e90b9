"""Summands and integrands: the left-hand side of every identity.

Two families live here.  The discrete family (``phi_sign_log``,
``weight_w``, ``limit_pairs``) is evaluated on points of the shifted
integer lattice, where gamma factors routinely sit at poles and zeros;
finite values are obtained either directly (when every factor is
regular) or as directional limits with Richardson extrapolation.  The
checks evaluate batches of points through ``lattice.lattice_values``,
which takes the singular ones to ``limit_pairs``; ``f_limit`` is its
one-point case.  The summand is described once, by ``lattice_bases``
and ``factor_args``: every factor is ``factor_table`` at its argument,
and ``master_sign_log`` adds the factor logs in one fixed order.  The
point evaluator ``phi_sign_log``, the lattice factor tables, the choice
of probe directions and the probe check all derive from that
description.  The continuous family is described, not
evaluated: ``assembled_integrand`` returns an ``Integrand`` naming the
interval, the power-product exponents and rates and the kind of
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
    LimitDisagreementError,
    NearSingularError,
    PoleError,
)
from .params import ParamSet

NEAR_SINGULAR_TOL = 1e-9
POLE_TOL = 1e-12         # a numerator gamma closer to a pole raises PoleError
PROBE_NEAR_TOL = 1e-13   # closest approach of an off-lattice probe to a weight pole
SYM_TERM_CAP = 40320
PROBE_TRIES = 10         # directions a singular point may try
DRAW_WINDOW = 32         # draws allowed to find each direction
MIN_RATE = 0.05          # least rate of a form at an integer along a direction
AGREE_TOL = 1e-6         # relative agreement of a point's two limits


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
    tolerance ``POLE_TOL``: reciprocal gamma factors at nonpositive
    integers contribute exact zeros, and numerator gammas at poles raise
    :class:`PoleError`.
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
            sign, logm, singular = factor_table(kind, arg, POLE_TOL)
            if kind == "num" and singular.any():
                raise PoleError(f"gamma pole at argument {arg[singular][0]!r}")
            signs.append(sign.prod(axis=1))
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


def weight_w(u: np.ndarray, v: np.ndarray, gamma: float,
             near_tol: float = NEAR_SINGULAR_TOL) -> np.ndarray:
    """Symmetrized discrete weight on real (u, v) batches.

    Simple poles sit on the hyperplanes v_b - u_a = gamma; evaluation
    closer than ``near_tol`` to any denominator zero raises
    :class:`NearSingularError`.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    n, k1, k2 = u.shape[0], u.shape[1], v.shape[1]
    _check_sym_cap(k1, k2)
    kk = k1 - k2
    dvu = v[:, None, :] - u[:, :, None] - gamma
    dev = [np.abs(dvu).min() if k1 and k2 else np.inf]
    for block, kdim in ((u, k1), (v, k2)):
        for i in range(kdim):
            for j in range(i + 1, kdim):
                dev.append(np.abs(block[:, i] - block[:, j]).min())
    if min(dev) < near_tol:
        raise NearSingularError("weight evaluated too close to a pole hyperplane")

    total = np.zeros(n)
    for sigma in permutations(range(k1)):
        us = u[:, sigma]
        tfac = np.ones(n)
        for i in range(k1):
            for j in range(i + 1, k1):
                d = us[:, i] - us[:, j]
                tfac = tfac * (d - gamma) / d
        for tau in permutations(range(k2)):
            vs = v[:, tau]
            term = tfac.copy()
            for b in range(k2):
                term = term / (vs[:, b] - us[:, b + kk] - gamma)
            for b in range(k2):
                for aa in range(b + 1, k2):
                    d = vs[:, b] - us[:, aa + kk]
                    term = term * d / (d - gamma)
            for i in range(k2):
                for j in range(i + 1, k2):
                    d = vs[:, i] - vs[:, j]
                    term = term * (d - gamma) / d
            total = total + term
    return total / (math.factorial(k1) * math.factorial(k2))


def f_off_lattice(u: np.ndarray, v: np.ndarray, p: ParamSet,
                  include_weight: bool = True) -> np.ndarray:
    """F = Phi * w on real points away from the singular hyperplanes."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    sign, logm = phi_sign_log(u, v, p)
    vals = sign * np.exp(logm)
    if include_weight and v.shape[1] > 0:
        vals = vals * weight_w(u, v, p.gamma, near_tol=PROBE_NEAR_TOL)
    return vals


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


def _near_nonpos_int(x, tol: float):
    """Within tol of a nonpositive integer; x a float or an array."""
    return (x < 0.5) & (abs(x - np.rint(x)) <= tol)


def _factor_singular(kind: str, arg, tol: float):
    """Where a factor is singular: a 'num' pole or a vanishing 'lin' or
    'den'; a 'recip' factor never is."""
    if kind == "num":
        return _near_nonpos_int(arg, tol)
    return kind != "recip" and abs(arg) <= tol


def factor_table(kind: str, arg: np.ndarray, tol: float = NEAR_SINGULAR_TOL):
    """(sign, log, singular) of one factor over an array of arguments.

    Singular entries are flagged, never raised; their sign and log are
    placeholders.  A 'recip' factor within tol of a nonpositive integer is
    an exact zero, sign 0 and log 0.  A 'den' factor is not part of the
    master product and has sign and log None.
    """
    singular = _factor_singular(kind, arg, tol)
    if kind == "den":
        return None, None, singular
    if kind == "lin":
        sign = np.sign(arg)
        return sign, np.log(np.abs(np.where(sign == 0.0, 1.0, arg))), singular
    # Gamma(1) = 1 stands in at a pole
    at_pole = singular if kind == "num" else _near_nonpos_int(arg, tol)
    safe = np.where(at_pole, 1.0, arg)
    sign, logm = gammasgn(safe), gammaln(safe)
    if kind == "num":
        return sign, logm, singular
    return np.where(at_pole, 0.0, sign), np.where(at_pole, 0.0, -logm), singular


def _factor_args_at(c: list, k1: int, k2: int, p: ParamSet):
    """(base, kind, arg) of every factor at coordinates c = [u_0.., v_0.., 0],
    each entry a float or an array of values."""
    for b, (family, plus, minus) in enumerate(lattice_bases(k1, k2)):
        for kind, arg in factor_args(family, c[plus] - c[minus], p):
            yield b, kind, arg


def _neville_at_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0.

    Each ys[i] is a value, or an array of values, at xs[i].
    """
    xs = list(map(float, xs))
    tab = [np.asarray(y, dtype=float) for y in ys]
    n = len(xs)
    for level in range(1, n):
        for i in range(n - level):
            tab[i] = (xs[i + level] * tab[i] - xs[i] * tab[i + 1]) / (xs[i + level] - xs[i])
    return tab[0]


def _probe_rows_ok(u: np.ndarray, v: np.ndarray, p: ParamSet,
                   include_weight: bool) -> np.ndarray:
    """Rows on which ``f_off_lattice`` raises neither PoleError nor
    NearSingularError when called on that row's batch alone."""
    weighted = include_weight and v.shape[1] > 0
    ok = np.ones(u.shape[0], dtype=bool)
    for _, kind, arg in _factor_args_at([*u.T, *v.T, 0.0], u.shape[1], v.shape[1], p):
        if kind == "num":
            ok &= ~_near_nonpos_int(arg, POLE_TOL)
        elif kind != "recip" and weighted:
            ok &= np.abs(arg) >= PROBE_NEAR_TOL
    return ok


def _candidate_draws(seed: int, K: int) -> np.ndarray:
    """The raw direction draws every lattice point tries, in order.

    Row r is the r-th draw of ``default_rng(seed)``; the block holds every
    draw the direction limits can reach.
    """
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(PROBE_TRIES * DRAW_WINDOW, K))


def limit_pairs(NU: np.ndarray, NV: np.ndarray, p: ParamSet, *, seed: int = 7919,
                include_weight: bool = True) -> np.ndarray:
    """Two directional limits (a, b) of F at each lattice point, shape (m, 2).

    ``NU``/``NV`` hold integer parts, one row per point.  Every point
    chooses its directions from one block of candidates, the draws of
    ``_candidate_draws`` scaled to unit max-norm, skipping draws of norm
    below 1e-3.  A candidate is generic for a point when every form with
    a factor argument at an integer there moves at rate >= 0.05 along
    it, and clean when none of its probes, at eps in {1e-2, 1e-3, 1e-4}
    times min(1, |gamma|), sits on a singular hyperplane.  A point tries
    its generic candidates in order, each within 32 draws of the one
    before and at most 10, and takes the first two clean ones.  All
    probes go through one ``f_off_lattice`` call and are extrapolated to
    zero together.  Points are then checked in order: one without two
    directions, or whose limits (above 1e-10) differ by more than 1e-6
    relative, raises :class:`LimitDisagreementError`.  Every row is
    probed and checked on its own, so a row's pair and failure do not
    depend on the other rows of the batch.
    """
    pairs, failures = _probe_limits(NU, NV, p, seed=seed, include_weight=include_weight)
    if failures:
        raise LimitDisagreementError(next(iter(failures.values())))
    return pairs


def _probe_limits(NU: np.ndarray, NV: np.ndarray, p: ParamSet, *, seed: int,
                 include_weight: bool):
    """``limit_pairs`` without the raise: the (m, 2) pairs, and the message
    of each row that fails the check, by row in ascending order.

    A failed row's pair is a placeholder.  ``lattice.sum_discrete`` probes
    a block's singular rows in one call and raises a row's failure only
    when its shell is summed.
    """
    m, k1 = NU.shape
    k2 = NV.shape[1]
    X = np.hstack((NU + lattice_shift(k1, p.gamma), NV + lattice_shift(k2, p.gamma)))
    scale = min(1.0, abs(p.gamma))
    eps = np.array([1e-2 * scale, 1e-3 * scale, 1e-4 * scale])

    draws = _candidate_draws(seed, k1 + k2)
    norm = np.abs(draws).max(axis=1)
    kept = norm >= 1e-3
    D = draws / np.where(kept, norm, 1.0)[:, None]

    # a base with a factor argument at an integer must move along a direction;
    # at integer parts an argument is an integer plus a constant of its base,
    # so the lattice origin tells which bases these are for every row
    plus, minus, _ = base_index(k1, k2)
    stuck = np.zeros(len(plus), dtype=bool)
    origin = [*lattice_shift(k1, p.gamma), *lattice_shift(k2, p.gamma), 0.0]
    for b, _, arg in _factor_args_at(origin, k1, k2, p):
        stuck[b] |= abs(arg - round(arg)) <= NEAR_SINGULAR_TOL
    ends = np.hstack((D, np.zeros((len(D), 1))))
    slow = np.abs(ends[:, plus] - ends[:, minus]) < MIN_RATE
    generic = kept & ~slow[:, stuck].any(axis=1)

    # the directions every point tries: the generic candidates in draw order,
    # each found within DRAW_WINDOW draws of the one before
    tried = np.argsort(~generic, kind="stable")[:PROBE_TRIES]
    gaps = np.diff(tried, prepend=-1)
    found = np.logical_and.accumulate(generic[tried] & (gaps <= DRAW_WINDOW))

    def probes(rows, cand):
        """Probe coordinates (n, 3, K) along candidates ``cand`` at ``rows``."""
        return X[rows, None, :] + eps[None, :, None] * D[cand][:, None, :]

    def clean(rows, ranks):
        pr = probes(rows, tried[ranks]).reshape(-1, k1 + k2)
        ok = _probe_rows_ok(pr[:, :k1], pr[:, k1:], p, include_weight)
        return ok.reshape(-1, len(eps)).all(axis=1)

    is_clean = np.zeros((m, PROBE_TRIES), dtype=bool)
    first = np.flatnonzero(found[:2])
    rows, ranks = np.repeat(np.arange(m), first.size), np.tile(first, m)
    is_clean[rows, ranks] = clean(rows, ranks)
    # a point with an unclean direction goes on to its next ones
    for j in np.flatnonzero(found[2:]) + 2:
        rows = np.flatnonzero(is_clean.sum(axis=1) < 2)
        if not rows.size:
            break
        is_clean[rows, j] = clean(rows, np.full(rows.size, j))

    ok = is_clean.sum(axis=1) >= 2
    pairs = np.zeros((m, 2))
    if ok.any():
        rows = np.flatnonzero(ok)
        chosen = tried[np.argsort(~is_clean[rows], axis=1, kind="stable")[:, :2]]
        # probe rows in (point, direction, offset) order
        pr = probes(np.repeat(rows, 2), chosen.ravel()).reshape(-1, k1 + k2)
        vals = f_off_lattice(pr[:, :k1], pr[:, k1:], p, include_weight=include_weight)
        pairs[rows] = _neville_at_zero(eps, vals.reshape(-1, 2, len(eps)).T).T

    a, b = pairs[:, 0], pairs[:, 1]
    ref = np.maximum(np.abs(a), np.abs(b))
    bad = ~ok | ((np.abs(a - b) > AGREE_TOL * ref) & (ref > 1e-10))
    failures = {}
    for i in np.flatnonzero(bad).tolist():
        if not ok[i]:
            failures[i] = ("probe evaluations kept hitting singular hyperplanes" if found.all()
                           else "could not find a generic probe direction")
            continue
        pt = LatticePoint(tuple(int(x) for x in NU[i]), tuple(int(x) for x in NV[i]), p.gamma)
        failures[i] = f"directional limits disagree: {float(a[i])!r} vs {float(b[i])!r} at {pt!r}"
    return pairs, failures


def f_limit(pt: LatticePoint, p: ParamSet, *, seed: int = 7919,
            include_weight: bool = True) -> float:
    """Value of F at one lattice point: the one-row case of
    ``lattice.lattice_values``.  Regular points are a plain product;
    at singular points the value is the mean of the two directional
    limits of :func:`limit_pairs`.
    """
    from .lattice import lattice_values  # lattice is built on this module

    return float(lattice_values(np.array([pt.nu]), np.array([pt.nv]), p,
                                include_weight=include_weight, seed=seed)[0])


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
    is a black box: ``fn``
    maps coordinate rows (t, s) to values and replaces the power product
    and the weight; it is None for every other kind.
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
    if (which in ("exp3", "selb3") and k2) or which in ("J", "Jt"):
        _check_sym_cap(k1, k2)
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
