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

Every factor of the summand is a function of one base quantity of
``integrands.lattice_bases``, at a lattice point an integer difference of
two parts plus a constant of the base, so ``FactorTables`` holds each
factor's ``factor_table`` leading term once per batch, per base over the
differences in use.  One block evaluator, ``_block_values``, gathers a
batch's regularity mask and regular product from them (reduced by
``integrands.master_sign_log`` like every evaluation of the product) and
takes its singular points' exact limits from Phi's leading term at the
same entries (``integrands._jet_limits``).  ``lattice_values`` evaluates
each block of the series and raises the first point that fails;
``sum_discrete`` raises it only when the sum reaches its shell.

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

    Base x = c[plus] - c[minus] of ``lattice_bases`` is d = n[plus] -
    n[minus] plus s[plus] - s[minus], n = (nu, nv, 0) the parts and s the
    ``lattice_shift`` entries: each factor is one table of its
    ``factor_table`` leading term over d in [-span, span], span =
    max(hi, 0) - min(lo, 0).  Per base: the value-sign product where no
    factor is singular (0 at a zero; None if all +1), the leading-sign
    product, each factor's leading log in product order, the eps-order
    where a factor is singular or zero (else None), and the singular mask
    (None if clear).  ``phi_sign_log`` takes x as (n[plus] + s[plus]) -
    (n[minus] + s[minus]), which may round apart in the last bit.
    """

    def __init__(self, k1: int, k2: int, p: ParamSet, lo: int, hi: int):
        self.p, self.k1 = p, k1
        self.span = span = max(hi, 0) - min(lo, 0)
        plus, minus, families = base_index(k1, k2)
        self.pairs = list(zip(plus.tolist(), minus.tolist()))
        # the lattice_shift entries, and the trailing 0 of the 'u' bases
        s = [p.gamma * j for k in (k1, k2) for j in range(k - 1, -1, -1)] + [0.0]
        x = np.arange(-span, span + 1.0) + np.array([[s[i] - s[j]] for i, j in self.pairs])
        # one factor_table call per kind, over every base that has it; the
        # families with a kind are adjacent, so its bases are one slice
        kinds, calls = {}, {}
        for family, cols in families.items():
            factors = factor_args(family, x[cols[0]:cols[-1] + 1], p) if cols else ()
            kinds[family] = [kind for kind, _ in factors if kind != "den"]
            for kind, arg in factors:
                calls.setdefault(kind, []).append((cols, arg))
        lead, order = np.ones(x.shape), np.zeros(x.shape, dtype=np.int64)
        singular, logs = np.zeros(x.shape, dtype=bool), {}
        for kind, parts in calls.items():
            rows = [b for cols, _ in parts for b in cols]
            at = slice(rows[0], rows[-1] + 1)
            fs, logm, fo = factor_table(kind, np.concatenate([arg for _, arg in parts]))
            if kind != "recip":  # a pole or a vanishing form
                singular[at] |= fo != 0
            if fs is not None:
                lead[at] *= fs
                order[at] += fo
                logs.update(((kind, b), row) for b, row in zip(rows, logm))
        # where no factor is singular, a positive order is a zero
        sign = np.where(order > 0, 0.0, lead)
        ones, any_singular = (sign == 1.0).all(axis=1).tolist(), singular.any(axis=1)
        moved = (any_singular | order.any(axis=1)).tolist()
        self.signs = [None if one else row for one, row in zip(ones, sign)]
        self.leads = [row if m else value for m, row, value in zip(moved, lead, self.signs)]
        self.orders = [row if m else None for m, row in zip(moved, order)]
        self.singular = [row if bad else None for bad, row in zip(any_singular.tolist(), singular)]
        self.logs = [[logs[kind, b] for kind in kinds[family]]
                     for b, (family, _, _) in enumerate(lattice_bases(k1, k2))]

    def index(self, parts: np.ndarray) -> list:
        """Table index n[plus] - n[minus] + span of every base at each
        column of integer parts (one row per coordinate), one contiguous
        array per base."""
        # a 'u' base's minus part is the trailing 0, which the parts do not hold
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

    def sign_log(self, index: list, U: np.ndarray, V: np.ndarray, lead: bool = False):
        """Master product through ``integrands.master_sign_log``: each
        row's value sign, or with ``lead`` its leading sign, and its leading
        log."""
        return master_sign_log(
            self.p, U, V, (sign.take(ix) for sign, ix in zip(self.leads if lead else self.signs,
                                                             index) if sign is not None),
            lambda b, f: self.logs[b][f].take(index[b]))

    def limits(self, parts: np.ndarray, index: list):
        """``integrands._jet_limits`` at columns of integer parts, from
        Phi's leading term at their table entries ``index``."""
        NU, NV = parts[:self.k1].T, parts[self.k1:].T
        sign, logm = self.sign_log(index, *_coordinates(parts, self.k1, self.p.gamma), lead=True)
        order = np.zeros((parts.shape[1], len(index)), dtype=np.int64)
        for b, (orders, ix) in enumerate(zip(self.orders, index)):
            if orders is not None:
                order[:, b] = orders.take(ix)
        return _jet_limits(NU, NV, self.p, sign, logm, order)


def _coordinates(parts: np.ndarray, k1: int, gamma: float):
    """The real coordinates (u, v), one row per point, of columns of
    integer parts."""
    return (parts[:k1].T + lattice_shift(k1, gamma)[None, :],
            parts[k1:].T + lattice_shift(parts.shape[0] - k1, gamma)[None, :])


def _batch(NU: np.ndarray, NV: np.ndarray, p: ParamSet):
    """Factor tables that span a batch of points, and its integer parts,
    one row per coordinate."""
    parts = np.concatenate((NU.T, NV.T)).astype(np.int64, copy=False)
    lo, hi = (int(parts.min()), int(parts.max())) if parts.size else (0, 0)
    return FactorTables(NU.shape[1], NV.shape[1], p, lo, hi), parts


def _block_values(tables: FactorTables, parts: np.ndarray):
    """F at columns of integer parts (one row per coordinate) that
    ``tables`` span, each point's limit rounding (0 where regular), and
    {column: message} of the points whose limits fail, in order.  A regular
    point is the gathered product, times the weight when k2 > 0; a singular
    one is the mean of its two limits (``FactorTables.limits``)."""
    n = parts.shape[1]
    index = tables.index(parts)
    regular = tables.regular(index, n)
    U, V = _coordinates(parts, tables.k1, tables.p.gamma)
    # every row is reduced on its own, so singular rows (replaced below)
    # leave the regular ones as phi_sign_log gives them; an exact zero keeps
    # its sign, and its leading log is not exponentiated
    sign, logm = tables.sign_log(index, U, V)
    vals = sign * np.exp(np.where(sign == 0.0, 0.0, logm))
    if V.shape[1]:
        nz = regular & (vals != 0.0)
        if np.any(nz):
            vals[nz] = vals[nz] * weight_w(U[nz], V[nz], tables.p.gamma)
    rounding, failures = np.zeros(n), {}
    sing = np.flatnonzero(~regular)
    if sing.size:
        pairs, rounding[sing], failed = tables.limits(parts[:, sing], [ix[sing] for ix in index])
        vals[sing] = 0.5 * (pairs[:, 0] + pairs[:, 1])
        failures = {int(sing[row]): message for row, message in failed.items()}
    return vals, rounding, failures


def _raise_first(failures: dict):
    """Raise the first failed point of a batch, if any."""
    for row, message in failures.items():
        raise LimitDisagreementError(message, row)


def lattice_values(NU: np.ndarray, NV: np.ndarray, p: ParamSet):
    """F at a batch of lattice points and each point's limit rounding
    (``_block_values``); the first point whose limit fails raises
    :class:`LimitDisagreementError` with its ``row``."""
    vals, rounding, failures = _block_values(*_batch(NU, NV, p))
    _raise_first(failures)
    return vals, rounding


def limit_pairs(NU: np.ndarray, NV: np.ndarray, p: ParamSet):
    """Two directional limits (a, b) of F at each lattice point, regular
    ones too, (m, 2), and their rounding scales, (m,); the first point that
    fails (``_jet_limits``) raises :class:`LimitDisagreementError`."""
    tables, parts = _batch(NU, NV, p)
    pairs, rounding, failures = tables.limits(parts, tables.index(parts))
    _raise_first(failures)
    return pairs, rounding


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
    the summed masses, and the limits' own rounding at the singular points
    summed, to the window tails.

    The first block of shells reaches the predicted stop, log(1/rel_tol)
    over the least column weight plus two shells (and at least four
    windows); later blocks are a quarter of it, or one window.  Each block
    is one ``lattice_values`` call.  Its first failed point raises
    :class:`LimitDisagreementError` only when the sum reaches its shell,
    as that shell alone gives, and the rows before it are evaluated again.
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
    # per shell: the sum, and the masses of |F|, |F| |sum(u)| and |F| |sum(v)|;
    # per singular row summed: its limit's rounding, weighted as each mass
    sums, masses, jets, moments = [], ([], [], []), ([], [], []), np.zeros(k1 + k2)
    converged, lo, size = False, 0, first
    while lo <= max_bound and not converged:
        hi = min(max_bound, lo + size - 1)
        P, shell = degree_band(k1, k2, weights, lo, hi)
        order = np.argsort(shell, kind="stable")  # each shell keeps lexicographic order
        P = P[order]
        ends = np.searchsorted(shell[order], np.arange(lo, hi + 1), side="right").tolist()
        failed = None
        try:
            vals, rounding = lattice_values(P[:, :k1], P[:, k1:], p)
        except LimitDisagreementError as err:  # raised if the walk reaches its shell
            failed, P = err, P[:err.row]
            vals, rounding = lattice_values(P[:, :k1], P[:, k1:], p)
        P = P.astype(float)  # no view may keep the integer array alive
        scale = np.stack((np.ones(P.shape[0]), np.abs(P[:, :k1].sum(axis=1) + shift_u),
                          np.abs(P[:, k1:].sum(axis=1) + shift_v)))
        start = 0
        for bound, end in enumerate(ends, start=lo):
            if failed is not None and failed.row < end:
                raise failed
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
        limited = np.flatnonzero(rounding[:start])  # the singular rows summed
        for jet, row in zip(jets, rounding[limited] * scale[:, limited]):
            jet += row.tolist()
        lo, size = hi + 1, max(window, math.ceil(first / 4))

    def bar(i):
        return (window_tail(masses[i], window) + _VALUE_ROUNDING * math.fsum(masses[i])
                + math.fsum(jets[i]))

    return SeriesResult(partial, bar(0), bound, converged,
                        *_z_derivatives(k1, k2, p, partial, moments),
                        bar(1) / p.z1, bar(2) / p.z2 if k2 else 0.0)


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
