"""Lattice-cone enumeration and summation of the discrete series.

The summand carries z1**sum(u) * z2**sum(v), so its size at a cone point
is set by the point's weighted degree sum(nu)*log(1/z1) + sum(nv)*log(1/z2).
The series is summed by degree shell: shell s holds the points whose
degree, in units of the least column weight c = log(1/max z), has integer
part s.  A block of shells is enumerated directly as one integer array,
each column cut to the degree left for it (``degree_band``).  Summation
inside a shell and across shells is exact (``math.fsum``), in shell
order, over a fixed point set.

The sum stops on a tail bound from shell masses, the sums of |F| over a
shell (``window_tail``).  Shells are grouped in windows of G shells, G
the degree of the all-ones direction: no cone generator steps further, so
a window never misses the dominant ray the way a single shell can.  With
rho the largest ratio of consecutive masses among the last four windows,
the tail is rho * M0 / (1 - rho).  The first block reaches the stop that
c predicts, and a later block is a quarter of it.

Every gamma factor, reciprocal gamma factor and weight denominator of
the summand is a function of one base quantity of
``integrands.lattice_bases``, and at a lattice point a base is an integer
difference of two parts plus a constant of the base.  So
``FactorTables`` holds each factor's (sign, log) and singular flag once
per series, one table per base over the differences in use;
``sum_discrete`` builds them at the first block's largest part and
regrows them only when a later block passes it.  A block's regularity
mask and regular product are gathers from these tables, reduced by
``integrands.master_sign_log`` like every evaluation of the product;
they match ``phi_sign_log`` up to the last-bit rounding of each factor's
argument (``FactorTables``).  A block's singular points are exact
directional limits, taken in one batch after its regular points
(``integrands.limit_pairs``, which checks every point on its own).  A
point that fails the check raises only when the sum reaches its shell,
so one past the stopping shell is evaluated, dropped and never
reported.

The summand depends on z only through z1**sum(u) * z2**sum(v), so
``sum_discrete`` also returns the exact z-derivatives, from first moments
of the same shell values, and their tail bounds, from first-moment
masses; ``pde_residual`` needs that one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import sl3_discrete_rhs, sl3_exp_rhs
from .errors import LimitDisagreementError, NotConvergedError
from .integrands import (
    _VALUE_ROUNDING,
    _jet_limits,
    base_index,
    factor_args,
    factor_table,
    lattice_bases,
    lattice_shift,
    limit_pairs,
    master_sign_log,
    weight_w,
)
from .logreal import power_log
from .params import ParamSet

_DEGREE_ROOM = 1e-9  # rounding room, in shells, of the degree cuts of a band's columns
_CLOSED_FORM_STEP = 1e-4  # central-difference step of the closed-form residuals


@dataclass(frozen=True)
class SeriesResult:
    partial_sum: float
    # bound on |series - partial_sum|: the ``window_tail`` of the shells
    # past ``bound`` (inf if it gives none) plus the rounding of the values
    tail: float
    bound: int  # the last degree shell summed
    converged: bool
    dz1: float  # d(partial_sum)/dz1
    dz2: float  # d(partial_sum)/dz2
    dz1_tail: float  # the same bound for dz1
    dz2_tail: float  # the same bound for dz2


def _append_column(P: np.ndarray, lo, hi) -> np.ndarray:
    """Extend each row of ``P`` by every value in [lo, hi], in ascending order."""
    n = P.shape[0]
    count = np.maximum(np.broadcast_to(hi, n) - lo + 1, 0)
    rows = np.repeat(np.arange(n), count)
    offsets = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    return np.column_stack((P[rows], np.broadcast_to(lo, n)[rows] + offsets))


def cone_array(k1: int, k2: int, bound: int) -> np.ndarray:
    """Integer parts of the cone points with every part at most ``bound``.

    One row (nu_0..nu_{k1-1}, nv_0..nv_{k2-1}) per point, in lexicographic
    order.
    """
    kk = k1 - k2
    P = np.zeros((1, 0), dtype=np.int64)  # the empty point (k1 = 0) is the one row
    for i in range(k1):
        P = _append_column(P, 0, P[:, i - 1] if i else bound)
    for b in range(k2):
        P = _append_column(P, P[:, b + kk], P[:, k1 + b - 1] if b else bound)
    return P


class FactorTables:
    """The summand's factors at integer parts lo..hi, one table per base.

    At a lattice point, base quantity x = c[plus] - c[minus] of
    ``lattice_bases`` is the integer difference d = n[plus] - n[minus] of
    the parts n = (nu, nv, 0) plus a constant of the base, the difference
    of their ``lattice_shift`` entries.  So every factor on a base is one
    table over d in [-span, span], span = max(hi, 0) - min(lo, 0), at
    argument d + (s[plus] - s[minus]).  Per base the tables hold the
    product of its factors' signs (None where every sign is +1), the log
    of each factor in product order, and whether any factor is singular
    (None where none is).  Entries are ``factor_table`` values, reduced by
    ``master_sign_log``; ``phi_sign_log`` takes the same factors at
    (n[plus] + s[plus]) - (n[minus] + s[minus]), which may round the
    argument differently in its last bit.
    """

    def __init__(self, k1: int, k2: int, p: ParamSet, lo: int, hi: int):
        self.p, self.hi = p, hi
        self.span = max(hi, 0) - min(lo, 0)
        plus, minus, _ = base_index(k1, k2)
        self.pairs = list(zip(plus.tolist(), minus.tolist()))
        shifts = np.concatenate((lattice_shift(k1, p.gamma), lattice_shift(k2, p.gamma), [0.0]))
        d = np.arange(-self.span, self.span + 1, dtype=float)
        self.signs, self.logs, self.singular = [], [], []
        for (family, _, _), s in zip(lattice_bases(k1, k2), shifts[plus] - shifts[minus]):
            sign, logs, singular = np.ones(d.size), [], np.zeros(d.size, dtype=bool)
            for kind, arg in factor_args(family, d + s, p):
                fs, logm, bad = factor_table(kind, arg)
                singular |= bad
                if fs is not None:
                    sign = sign * fs
                    logs.append(logm)
            self.signs.append(None if np.all(sign == 1.0) else sign)
            self.logs.append(logs)
            self.singular.append(singular if singular.any() else None)

    def index(self, P: np.ndarray) -> list:
        """Table index n[plus] - n[minus] + span of every base at each row
        of integer parts, one contiguous array per base."""
        parts = np.ascontiguousarray(P.T)
        # a 'u' base's minus part is the trailing 0, which P does not hold
        raised = parts + self.span
        return [raised[plus] if minus == len(parts) else raised[plus] - parts[minus]
                for plus, minus in self.pairs]

    def regular(self, index: list, n: int) -> np.ndarray:
        """Which of the n rows have no singular factor."""
        bad = np.zeros(n, dtype=bool)
        for singular, ix in zip(self.singular, index):
            if singular is not None:
                bad |= singular.take(ix)
        return ~bad

    def sign_log(self, index: list, U: np.ndarray, V: np.ndarray):
        """Master product through ``integrands.master_sign_log``; rows with
        a singular factor get placeholder values."""
        return master_sign_log(
            self.p, U, V,
            (sign.take(ix) for sign, ix in zip(self.signs, index) if sign is not None),
            lambda b, f: self.logs[b][f].take(index[b]))


def lattice_values(NU: np.ndarray, NV: np.ndarray, p: ParamSet,
                   tables: FactorTables | None = None, index: list | None = None):
    """F at a batch of lattice points, and the rounding scale of each
    singular point's value.

    Regular points are gathered from ``tables``, which must span the
    batch's integer parts; without them, tables are built over that range.
    ``index`` is ``tables.index`` of the batch's integer parts, for a
    caller that already took it.  The weight applies when k2 > 0.
    Singular points are the mean of their two directional limits, all in
    one ``limit_pairs`` batch, with its rounding; a regular value is a
    product rounded to ``_VALUE_ROUNDING`` of its size, and its entry is 0.
    """
    n, k1 = NU.shape
    k2 = NV.shape[1]
    if index is None:
        P = np.hstack((NU, NV)).astype(np.int64)
        if tables is None:
            tables = FactorTables(k1, k2, p, *((int(P.min()), int(P.max())) if P.size else (0, 0)))
        index = tables.index(P)
    regular = tables.regular(index, n)
    U = NU + lattice_shift(k1, p.gamma)[None, :]
    V = NV + lattice_shift(k2, p.gamma)[None, :] if k2 else np.zeros((n, 0))
    # every row is reduced on its own, so singular rows (placeholders,
    # replaced below) leave the regular ones as phi_sign_log gives them
    sign, logm = tables.sign_log(index, U, V)
    vals = sign * np.exp(logm)
    if k2:
        nz = regular & (vals != 0.0)
        if np.any(nz):
            vals[nz] = vals[nz] * weight_w(U[nz], V[nz], p.gamma)
    rounding = np.zeros(n)
    sing = np.flatnonzero(~regular)
    if sing.size:
        pairs, rounding[sing] = limit_pairs(NU[sing], NV[sing], p)
        vals[sing] = 0.5 * (pairs[:, 0] + pairs[:, 1])
    return vals, rounding


def degree_band(k1: int, k2: int, weights, lo: int, hi: int):
    """Cone points of the degree shells lo..hi, in lexicographic order,
    and their shells.  A point's shell is the integer part of its degree
    a1 * sum(nu) + a2 * sum(nv), with ``weights`` = (a1, a2).

    Columns are built as in ``cone_array``, each cut to the degree left
    for it.  A row's least degree is that of its least extension in the
    cone, so u_{b+k1-k2} already counts once more for v_b >= u_{b+k1-k2},
    and v_b pays only its excess over it.  The last column also starts
    where shell lo can begin.  The cuts leave rounding room; each row is
    kept by its exact shell.
    """
    a1, a2 = weights
    kk, K = k1 - k2, k1 + k2
    P = np.zeros((1, 0), dtype=np.int64)
    for col in range(K):
        nv = max(0, col - k1)  # v columns already built
        least = a1 * P[:, :min(col, k1)].sum(axis=1) + a2 * (
            P[:, k1:col].sum(axis=1) + P[:, kk + nv:min(col, k1)].sum(axis=1))
        if col < k1:
            base, step = 0, a1 + (a2 if col >= kk else 0.0)
        else:
            base, step = P[:, col - k2], a2
        top = base + np.floor((hi + 1 - least) / step + _DEGREE_ROOM).astype(np.int64)
        if col not in (0, k1):
            top = np.minimum(top, P[:, col - 1])
        bottom = base
        if col == K - 1 and lo > 0:
            bottom = base + np.maximum(
                np.ceil((lo - least) / step - _DEGREE_ROOM), 0).astype(np.int64)
        P = _append_column(P, bottom, top)
    shell = np.floor(a1 * P[:, :k1].sum(axis=1) + a2 * P[:, k1:].sum(axis=1)).astype(np.int64)
    keep = (shell >= lo) & (shell <= hi)
    return P[keep], shell[keep]


def window_tail(masses: list, window: int) -> float:
    """Tail bound rho * M0 / (1 - rho) of a series from its shell masses.

    M0..M3 are the masses of the last four windows of ``window`` shells,
    newest first, and rho the largest of M0/M1, M1/M2 and M2/M3.  The bound
    is inf with fewer than four windows, at a zero window mass, or where
    rho >= 1.
    """
    n = len(masses)
    if n < 4 * window:
        return math.inf
    M = [math.fsum(masses[n - (i + 1) * window:n - i * window]) for i in range(4)]
    if min(M) <= 0.0:
        return math.inf
    rho = max(M[0] / M[1], M[1] / M[2], M[2] / M[3])
    return rho * M[0] / (1.0 - rho) if rho < 1.0 else math.inf


def _z_derivatives(k1: int, k2: int, p: ParamSet, total: float, moments: np.ndarray):
    """d/dz1 and d/dz2 of a sum whose summand carries z1**sum(u) * z2**sum(v),
    from the first moments of the integer parts: u is nu plus the shift."""
    shifts = np.concatenate((lattice_shift(k1, p.gamma), lattice_shift(k2, p.gamma)))
    m = moments + shifts * total
    return float(m[:k1].sum() / p.z1), float(m[k1:].sum() / p.z2) if k2 else 0.0


def sum_discrete(which: str, p: ParamSet, rel_tol: float = 1e-11,
                 max_bound: int | None = None) -> SeriesResult:
    """Sum the cone series by degree shell until its tail bound is negligible.

    ``which`` is 'dexp' (one-block summand, no rational weight) or
    'dexp3' (two-block summand times the symmetrized weight).  The sum
    stops at the first shell where ``window_tail`` of the shell masses,
    over windows of G shells, is at most ``rel_tol`` times |sum|.  G is
    the degree of the all-ones direction, which no cone generator (a 0/1
    vector) steps past.  ``max_bound`` is the last degree shell summed;
    by default 600 (k1 + k2 <= 2) or 180, and at least eight windows.
    The reported tails add the values' rounding, ``_VALUE_ROUNDING`` times
    the summed masses, to the window tails.

    The first block of shells reaches the predicted stop, log(1/rel_tol)
    over the least column weight plus two shells (and at least four
    windows); later blocks are a quarter of it, or one window.  Factor
    tables are built over the differences the first block's largest part
    reaches and regrown only when a later block passes it.  Each block's
    regular points are evaluated in one call and the limits at its
    singular points in one batch.  A singular point that fails the check
    raises :class:`LimitDisagreementError` when the sum reaches its shell,
    with the message of the shell's first failed point in row order, as
    that shell alone gives; failures past the stopping shell are dropped
    with their shells.
    """
    if which not in ("dexp", "dexp3"):
        raise ValueError(f"unknown series {which!r}")
    k1 = p.k1
    k2 = p.k2 if which == "dexp3" else 0
    zs = (p.z1, p.z2) if k2 else (p.z1,)
    if not all(0.0 < z < 1.0 for z in zs):
        raise ValueError(f"the series needs every z in (0, 1), got {zs}")
    # column weights log(1/z) in units of the least of them, c
    c1, c2 = -math.log(p.z1), -math.log(zs[-1])
    c = min(c1, c2)
    weights = (c1 / c, c2 / c)
    window = math.ceil(k1 * weights[0] + k2 * weights[1])
    if max_bound is None:
        # the least stop is four windows, which far-apart z push past 180; allow twice it
        max_bound = max(600 if k1 + k2 <= 2 else 180, 8 * window)
    if max_bound < 0:
        raise ValueError(f"max_bound must be >= 0, got {max_bound}")
    first = max(math.ceil(math.log(1.0 / rel_tol) / c) + 2 if rel_tol > 0.0 else max_bound + 1,
                4 * window)
    shift_u, shift_v = lattice_shift(k1, p.gamma).sum(), lattice_shift(k2, p.gamma).sum()
    # per shell: the sum, and the masses of |F|, |F| |sum(u)| and |F| |sum(v)|
    sums, masses, moments = [], ([], [], []), np.zeros(k1 + k2)
    tables, converged, lo, size = None, False, 0, first
    while lo <= max_bound and not converged:
        hi = min(max_bound, lo + size - 1)
        P, shell = degree_band(k1, k2, weights, lo, hi)
        order = np.argsort(shell, kind="stable")  # each shell keeps lexicographic order
        P = P[order]
        ends = np.searchsorted(shell[order], np.arange(lo, hi + 1), side="right").tolist()
        largest = int(P.max(initial=0))
        if tables is None or largest > tables.hi:
            tables = FactorTables(k1, k2, p, 0, largest)
        index = tables.index(P)
        regular = tables.regular(index, P.shape[0])
        if not regular.all():
            index = [ix[regular] for ix in index]
        P = P.astype(float)  # no view may keep the integer array alive
        scale = np.stack((np.ones(P.shape[0]), np.abs(P[:, :k1].sum(axis=1) + shift_u),
                          np.abs(P[:, k1:].sum(axis=1) + shift_v)))
        vals = np.empty(P.shape[0])
        if regular.any():
            vals[regular] = lattice_values(P[regular, :k1], P[regular, k1:], p,
                                           tables=tables, index=index)[0]
        # the block's singular rows in one batch; a failed row raises only
        # if the walk below reaches its shell
        sing = np.flatnonzero(~regular)
        failed, failure = P.shape[0], None
        if sing.size:
            pairs, _, failures = _jet_limits(P[sing, :k1], P[sing, k1:], p)
            vals[sing] = 0.5 * (pairs[:, 0] + pairs[:, 1])
            if failures:
                row, failure = next(iter(failures.items()))
                failed = int(sing[row])
        start = 0
        for bound, end in enumerate(ends, start=lo):
            if failed < end:
                raise LimitDisagreementError(failure)
            shell_vals = vals[start:end]
            sums.append(math.fsum(shell_vals.tolist()))
            for m, row in zip(masses, np.abs(shell_vals) * scale[:, start:end]):
                m.append(math.fsum(row.tolist()))
            moments += shell_vals @ P[start:end]
            start = end
            partial = math.fsum(sums)
            if partial != 0.0 and window_tail(masses[0], window) <= rel_tol * abs(partial):
                converged = True
                break
        lo, size = hi + 1, max(window, math.ceil(first / 4))

    def bar(mass):
        return window_tail(mass, window) + _VALUE_ROUNDING * math.fsum(mass)

    return SeriesResult(partial, bar(masses[0]), bound, converged,
                        *_z_derivatives(k1, k2, p, partial, moments),
                        bar(masses[1]) / p.z1, bar(masses[2]) / p.z2 if k2 else 0.0)


def pde_coefficients(p: ParamSet, second_eq_denominator: str = "z2"):
    """Logarithmic-derivative coefficients of the two first-order equations.

    The printed source text has z1 in the first denominator of the second
    equation where the closed form demands z2; both variants are exposed
    so the discrepancy can be resolved by measurement
    (``second_eq_denominator`` in {'z1', 'z2'}).
    """
    k1, k2, a, g, z1, z2 = p.k1, p.k2, p.alpha, p.gamma, p.z1, p.z2
    c = a - g + k1 * g
    coeff1 = (k1 * (k1 - 1) * g / (2 * z1)
              + (k1 - k2) * c / (1 - z1)
              + z2 * k2 * c / (1 - z1 * z2))
    den = z2 if second_eq_denominator == "z2" else z1
    coeff2 = (k2 * (k2 - 1) * g / (2 * den)
              - k2 * (k1 - k2 + 1) * g / (1 - z2)
              + z1 * k2 * c / (1 - z1 * z2))
    return coeff1, coeff2


def pde_residual(p: ParamSet, use_closed_form: bool = False,
                 second_eq_denominator: str = "z2", max_bound: int | None = None):
    """Residuals of the two dynamical equations, and a bound on their error.

    The series' derivatives are the exact ones ``sum_discrete`` returns
    with its sum, from one pass, and the tails of Psi, dPsi/dz1 and
    dPsi/dz2 it returns bound their truncation.  The closed form's
    derivatives are central differences at step 1e-4, and a third of
    their difference from step 2e-4 is their error (Richardson).
    Returns (residual_z1, residual_z2, err): each residual is
    |dPsi - c Psi| / |c Psi|, and err bounds the error of either.
    """
    if use_closed_form:
        def psi(z1, z2):
            return sl3_discrete_rhs(p.with_(z1=z1, z2=z2)).to_float()

        def central(h):
            return ((psi(z1 + h, z2) - psi(z1 - h, z2)) / (2 * h),
                    (psi(z1, z2 + h) - psi(z1, z2 - h)) / (2 * h))

        z1, z2, h = p.z1, p.z2, _CLOSED_FORM_STEP
        base = psi(z1, z2)
        (d1, d2), (w1, w2) = central(h), central(2 * h)
        e0, e1, e2 = 0.0, abs(d1 - w1) / 3, abs(d2 - w2) / 3
    else:
        res = sum_discrete("dexp3", p, max_bound=max_bound)
        if not res.converged:
            raise NotConvergedError(
                f"series not converged at bound {res.bound} (tail {res.tail!r})")
        base, d1, d2 = res.partial_sum, res.dz1, res.dz2
        e0, e1, e2 = res.tail, res.dz1_tail, res.dz2_tail
    c1, c2 = pde_coefficients(p, second_eq_denominator)

    def scale(c):
        # a vanishing coefficient (k2 = 0 second equation) leaves |Psi| as scale
        return abs(c * base) if c * base != 0.0 else abs(base)

    return (abs(d1 - c1 * base) / scale(c1), abs(d2 - c2 * base) / scale(c2),
            max((e1 + abs(c1) * e0) / scale(c1), (e2 + abs(c2) * e0) / scale(c2)))


def eps_limit_ratio(p: ParamSet, eps: float) -> float:
    """Ratio of the rescaled discrete closed form to the continuous one.

    With z_i = exp(-eps * beta_i), the discrete closed form divided by
    eps**E times the exponential closed form tends to 1 as eps -> 0,
    where E collects the exponents of the three prefactors.
    """
    k1, k2, a, g = p.k1, p.k2, p.alpha, p.gamma
    e = g - a - k1 * g
    E = (k1 - k2) * e + k2 * (k1 - k2 + 1) * g + k2 * e
    q = p.with_(z1=math.exp(-eps * p.beta1), z2=math.exp(-eps * p.beta2))
    num = sl3_discrete_rhs(q)
    den = power_log(eps, E) * sl3_exp_rhs(p)
    return (num / den).to_float()
