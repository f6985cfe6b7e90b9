"""Lattice-cone enumeration and summation of the discrete series.

Points are organized into shells indexed by the maximum integer part;
for |z| < 1 the shell contributions decay geometrically, so the series
is summed shell by shell until the outermost shell is negligible.
Small consecutive shells share a block of about ``ROW_BLOCK`` rows and a
large shell is a block alone; a block is enumerated directly as one
integer array, one row per point.  Summation inside a shell and across
shells is exact (``math.fsum``), in shell order, over a fixed point set.

Every gamma factor, reciprocal gamma factor and weight denominator of
the summand is a function of one or two integer parts (the base
quantities of ``integrands.lattice_bases``), so ``FactorTables`` holds
each factor's (sign, log) and singular flag once per series, over the
integer range in use; ``sum_discrete`` doubles that range when a block
passes it.  A block's regularity mask and regular product are gathers
from these tables, reduced by ``integrands.master_sign_log`` like every
evaluation of the product, so they are bit-identical to
``phi_sign_log``.  A shell's singular points are directional
limits, probed together in one batch (``integrands.limit_pairs``), and
only for the shells up to the stopping shell.

The summand depends on z only through z1**sum(u) * z2**sum(v), so
``sum_discrete`` also returns the exact z-derivatives, from first moments
of the same shell values; ``pde_residual`` needs that one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import sl3_discrete_rhs, sl3_exp_rhs
from .errors import NotConvergedError
from .integrands import (
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

TABLE_START = 8  # integer parts 0..7 in the first tables of a series
ROW_BLOCK = 512  # rows a block of small shells reaches for
_CLOSED_FORM_STEP = 1e-4  # central-difference step of the closed-form residuals


@dataclass(frozen=True)
class SeriesResult:
    partial_sum: float
    last_shell: float
    bound: int
    converged: bool
    dz1: float  # d(partial_sum)/dz1
    dz2: float  # d(partial_sum)/dz2


def _append_column(P: np.ndarray, lo, hi) -> np.ndarray:
    """Extend each row of ``P`` by every value in [lo, hi], in ascending order."""
    n = P.shape[0]
    count = np.maximum(np.broadcast_to(hi, n) - lo + 1, 0)
    rows = np.repeat(np.arange(n), count)
    offsets = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    return np.column_stack((P[rows], np.broadcast_to(lo, n)[rows] + offsets))


def cone_array(k1: int, k2: int, bound: int, least: int = 0) -> np.ndarray:
    """Integer parts of the cone points whose largest part lies in [least, bound].

    One row (nu_0..nu_{k1-1}, nv_0..nv_{k2-1}) per point, in lexicographic
    order.  The largest part is nu_0 or nv_0, since both blocks decrease;
    ``least=bound`` gives the shell of points whose largest part is ``bound``.
    """
    kk = k1 - k2
    # the empty point (k1 = 0) has largest part 0
    P = np.zeros((int(k1 > 0 or least == 0), 0), dtype=np.int64)
    for i in range(k1):
        lo = least if (i == 0 and k2 == 0) else 0
        P = _append_column(P, lo, P[:, i - 1] if i else bound)
    for b in range(k2):
        lo = P[:, b + kk]
        if b == 0 and least:
            lo = np.where(P[:, 0] < least, least, lo)
        P = _append_column(P, lo, P[:, k1 + b - 1] if b else bound)
    return P


def cone_integer_parts(k1: int, k2: int, bound: int):
    """Integer parts (nu, nv) of every cone point with all parts <= bound,
    in lexicographic order."""
    for row in cone_array(k1, k2, bound).tolist():
        yield tuple(row[:k1]), tuple(row[k1:])


@dataclass(frozen=True)
class _BaseTable:
    plus: int
    minus: int | None       # None for a one-part base
    sign: np.ndarray | None  # None where every sign is +1
    logs: list
    singular: np.ndarray | None  # None where no entry is singular


class FactorTables:
    """The summand's factors at integer parts lo..hi, one table per base.

    Each base quantity of ``lattice_bases`` depends on one integer part
    (a 'u' base) or two (the others), so every factor on it is a table
    over them: length W = hi - lo + 1, or W*W stored flat.  Per base the
    tables hold the product of its factors' signs, the log of each factor
    in product order, and whether any factor is singular.  Entries are
    ``factor_table`` values, as in ``phi_sign_log``, so a product gathered
    from them is bit-identical to it.
    """

    def __init__(self, k1: int, k2: int, p: ParamSet, lo: int, hi: int):
        self.p = p
        self.lo, self.hi, self.width = lo, hi, hi - lo + 1
        parts = np.arange(lo, hi + 1, dtype=float)
        shifts = np.concatenate((lattice_shift(k1, p.gamma), lattice_shift(k2, p.gamma)))
        coord = [parts + s for s in shifts]
        self.bases = []
        for family, plus, minus in lattice_bases(k1, k2):
            one_part = minus == k1 + k2
            x = coord[plus] if one_part else coord[plus][:, None] - coord[minus][None, :]
            sign, logs, singular = np.ones(x.shape), [], np.zeros(x.shape, dtype=bool)
            for kind, arg in factor_args(family, x, p):
                s, logm, bad = factor_table(kind, arg)
                singular |= bad
                if s is not None:
                    sign = sign * s
                    logs.append(logm.ravel())
            self.bases.append(_BaseTable(
                plus, None if one_part else minus,
                None if np.all(sign == 1.0) else sign.ravel(), logs,
                singular.ravel() if singular.any() else None))

    def index(self, P: np.ndarray) -> list:
        """Flat table index of every base at each row of integer parts."""
        cols = [P[:, c] - self.lo for c in range(P.shape[1])]
        return [cols[b.plus] if b.minus is None else cols[b.plus] * self.width + cols[b.minus]
                for b in self.bases]

    def regular(self, index: list, n: int) -> np.ndarray:
        """Which of the n rows have no singular factor."""
        bad = np.zeros(n, dtype=bool)
        for b, ix in zip(self.bases, index):
            if b.singular is not None:
                bad |= b.singular.take(ix)
        return ~bad

    def sign_log(self, index: list, U: np.ndarray, V: np.ndarray):
        """Master product through ``integrands.master_sign_log``; rows with
        a singular factor get placeholder values."""
        return master_sign_log(
            self.p, U, V,
            (b.sign.take(ix) for b, ix in zip(self.bases, index) if b.sign is not None),
            lambda b, f: self.bases[b].logs[f].take(index[b]))


def lattice_values(NU: np.ndarray, NV: np.ndarray, p: ParamSet,
                   include_weight: bool = True, seed: int = 7919,
                   tables: FactorTables | None = None) -> np.ndarray:
    """F at a batch of lattice points.

    Regular points are gathered from ``tables``, which must span the
    batch's integer parts; without them, tables are built over that range.
    Singular points are directional limits, probed in one batch.
    """
    n, k1 = NU.shape
    k2 = NV.shape[1]
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
    if include_weight and k2:
        nz = regular & (vals != 0.0)
        if np.any(nz):
            vals[nz] = vals[nz] * weight_w(U[nz], V[nz], p.gamma)
    sing = np.flatnonzero(~regular)
    if sing.size:
        pairs = limit_pairs(NU[sing], NV[sing], p, seed=seed, include_weight=include_weight)
        vals[sing] = 0.5 * (pairs[:, 0] + pairs[:, 1])
    return vals


def _block_shells(k1: int, k2: int, j: int, hi: int, p: ParamSet, include_weight: bool,
                  seed: int, tables: FactorTables):
    """Each shell of the block j..hi in order: its point count, its sum and
    its values' first moment in each integer part.  One ``lattice_values``
    call covers the block but the singular points of its later shells,
    which are probed one shell at a time, when that shell is asked for.
    """
    P = cone_array(k1, k2, hi, least=j)
    ends, keep = [P.shape[0]], np.ones(P.shape[0], dtype=bool)
    if hi > j:
        largest = P.max(axis=1, initial=0)
        # a stable sort keeps each shell's points in lexicographic order
        P = P[np.argsort(largest, kind="stable")]
        ends = np.cumsum(np.bincount(largest - j, minlength=hi - j + 1)).tolist()
        # the singular points of the later shells wait for their own shell
        keep[ends[0]:] = tables.regular(tables.index(P[ends[0]:]), P.shape[0] - ends[0])
    P = P.astype(float)  # no view may keep the integer array alive
    if keep.all():
        vals = lattice_values(P[:, :k1], P[:, k1:], p, include_weight=include_weight,
                              seed=seed, tables=tables)
    else:
        vals = np.empty(P.shape[0])
        vals[keep] = lattice_values(P[keep, :k1], P[keep, k1:], p,
                                    include_weight=include_weight, seed=seed, tables=tables)
    start = 0
    for end in ends:
        aside = start + np.flatnonzero(~keep[start:end])
        if aside.size:
            vals[aside] = lattice_values(P[aside, :k1], P[aside, k1:], p,
                                         include_weight=include_weight, seed=seed, tables=tables)
        yield end - start, math.fsum(vals[start:end].tolist()), vals[start:end] @ P[start:end]
        start = end


def _z_derivatives(k1: int, k2: int, p: ParamSet, total: float, moments: np.ndarray):
    """d/dz1 and d/dz2 of a sum whose summand carries z1**sum(u) * z2**sum(v),
    from the first moments of the integer parts: u is nu plus the shift."""
    shifts = np.concatenate((lattice_shift(k1, p.gamma), lattice_shift(k2, p.gamma)))
    m = moments + shifts * total
    return float(m[:k1].sum() / p.z1), float(m[k1:].sum() / p.z2) if k2 else 0.0


def sum_discrete(which: str, p: ParamSet, rel_tol: float = 1e-10,
                 max_bound: int | None = None, seed: int = 7919) -> SeriesResult:
    """Sum the cone series shell by shell until the tail is negligible.

    ``which`` is 'dexp' (one-block summand, no rational weight) or
    'dexp3' (two-block summand times the symmetrized weight).
    """
    if which not in ("dexp", "dexp3"):
        raise ValueError(f"unknown series {which!r}")
    include_weight = which == "dexp3"
    k1 = p.k1
    k2 = p.k2 if which == "dexp3" else 0
    if max_bound is None:
        max_bound = 200 if k1 + k2 <= 2 else 60
    if max_bound < 0:
        raise ValueError(f"max_bound must be >= 0, got {max_bound}")
    shells = []
    moments = np.zeros(k1 + k2)
    tables, converged, j, rows = None, False, 0, 1
    while j <= max_bound and not converged:
        # small shells double their block's length, up to about ROW_BLOCK rows
        hi = min(max_bound, j + min(j + 1, max(1, ROW_BLOCK // max(rows, 1))) - 1)
        if tables is None or hi > tables.hi:
            # regrow by doubling the span of integer parts until it holds the block
            width = TABLE_START << (hi // TABLE_START).bit_length()
            tables = FactorTables(k1, k2, p, 0, width - 1)
        for bound, (rows, last, shell_moments) in enumerate(
                _block_shells(k1, k2, j, hi, p, include_weight, seed, tables), start=j):
            shells.append(last)
            moments += shell_moments
            partial = math.fsum(shells)
            if bound >= 1 and partial != 0.0 and abs(last) <= rel_tol * abs(partial):
                converged = True
                break
        j = hi + 1
    return SeriesResult(partial, last, bound, converged,
                        *_z_derivatives(k1, k2, p, partial, moments))


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
                 second_eq_denominator: str = "z2", max_bound: int | None = None,
                 seed: int = 7919):
    """Residuals of the two dynamical equations.

    The series' derivatives are the exact ones ``sum_discrete`` returns
    with its sum, from one pass; the closed form's are central differences
    at step 1e-4.
    Returns (residual_z1, residual_z2), each |dPsi - c Psi| / |c Psi|.
    """
    if use_closed_form:
        def psi(z1, z2):
            return sl3_discrete_rhs(p.with_(z1=z1, z2=z2)).to_float()

        z1, z2, h = p.z1, p.z2, _CLOSED_FORM_STEP
        base = psi(z1, z2)
        d1 = (psi(z1 + h, z2) - psi(z1 - h, z2)) / (2 * h)
        d2 = (psi(z1, z2 + h) - psi(z1, z2 - h)) / (2 * h)
    else:
        res = sum_discrete("dexp3", p, max_bound=max_bound, seed=seed)
        if not res.converged:
            raise NotConvergedError(
                f"series not converged at bound {res.bound} (last shell {res.last_shell!r})")
        base, d1, d2 = res.partial_sum, res.dz1, res.dz2
    c1, c2 = pde_coefficients(p, second_eq_denominator)

    def rel(d, c):
        # a vanishing coefficient (k2 = 0 second equation) leaves |Psi| as scale
        denom = abs(c * base) if c * base != 0.0 else abs(base)
        return abs(d - c * base) / denom

    return rel(d1, c1), rel(d2, c2)


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
