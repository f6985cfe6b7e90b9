"""Lattice-cone enumeration and summation of the discrete series.

Points are organized into shells indexed by the maximum integer part;
for |z| < 1 the shell contributions decay geometrically, so the series
is summed shell by shell until the outermost shell is negligible.
Each shell is enumerated directly as an integer array, one row per
point.  Summation inside a shell and across shells is exact
(``math.fsum``) over a fixed point set, so results are bit-reproducible
whatever the order of the points within a shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import sl3_discrete_rhs, sl3_exp_rhs
from .errors import NotConvergedError
from .integrands import LatticePoint, f_limit, phi_sign_log, weight_w
from .logreal import power_log
from .params import ParamSet

NEAR_TOL = 1e-9


@dataclass(frozen=True)
class ConeSpec:
    k1: int
    k2: int
    gamma: float
    bound: int


@dataclass(frozen=True)
class SeriesResult:
    partial_sum: float
    last_shell: float
    bound: int
    converged: bool


def _append_column(P: np.ndarray, lo, hi) -> np.ndarray:
    """Extend each row of ``P`` by every value in [lo, hi], in ascending order."""
    n = P.shape[0]
    count = np.maximum(np.broadcast_to(hi, n) - lo + 1, 0)
    rows = np.repeat(np.arange(n), count)
    offsets = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    return np.column_stack((P[rows], np.broadcast_to(lo, n)[rows] + offsets))


def cone_array(k1: int, k2: int, bound: int, shell: bool = False) -> np.ndarray:
    """Integer parts of the cone points with every part <= bound.

    One row (nu_0..nu_{k1-1}, nv_0..nv_{k2-1}) per point, in lexicographic
    order.  With ``shell`` only the points whose largest part equals
    ``bound``; that part is nu_0 or nv_0, since both blocks decrease.
    """
    kk = k1 - k2
    # the empty point (k1 = 0) has largest part 0
    P = np.zeros((int(k1 > 0 or not shell or bound == 0), 0), dtype=np.int64)
    for i in range(k1):
        lo = bound if (i == 0 and shell and k2 == 0) else 0
        P = _append_column(P, lo, P[:, i - 1] if i else bound)
    for b in range(k2):
        lo = P[:, b + kk]
        if b == 0 and shell:
            lo = np.where(P[:, 0] < bound, bound, lo)
        P = _append_column(P, lo, P[:, k1 + b - 1] if b else bound)
    return P


def cone_integer_parts(k1: int, k2: int, bound: int):
    """Integer parts (nu, nv) of every cone point with all parts <= bound,
    in lexicographic order."""
    for row in cone_array(k1, k2, bound).tolist():
        yield tuple(row[:k1]), tuple(row[k1:])


def enumerate_cone(spec: ConeSpec):
    """Stream of lattice points of the cone, all integer parts <= bound."""
    for nu, nv in cone_integer_parts(spec.k1, spec.k2, spec.bound):
        yield LatticePoint(nu, nv, spec.gamma)


def _regular_mask(NU: np.ndarray, NV: np.ndarray, p: ParamSet, tol: float = NEAR_TOL):
    """Vectorized regularity test for batches of lattice points.

    A point is regular when no numerator gamma argument is at a
    nonpositive integer and no weight denominator vanishes.
    """
    n = NU.shape[0]
    k1, k2 = NU.shape[1], NV.shape[1]
    from .integrands import lattice_shift

    U = NU + lattice_shift(k1, p.gamma)[None, :]
    V = NV + lattice_shift(k2, p.gamma)[None, :] if k2 else np.zeros((n, 0))
    bad = np.zeros(n, dtype=bool)

    def near_nonpos_int(x):
        return (x < 0.5) & (np.abs(x - np.round(x)) <= tol)

    bad |= near_nonpos_int(U + p.alpha).any(axis=1)
    if k2:
        dvu = V[:, None, :] - U[:, :, None]
        bad |= near_nonpos_int(dvu - p.gamma + 1.0).reshape(n, -1).any(axis=1)
        bad |= (np.abs(dvu - p.gamma) <= tol).reshape(n, -1).any(axis=1)
    for block, kdim in ((U, k1), (V, k2)):
        for i in range(kdim):
            for j in range(i + 1, kdim):
                d = block[:, i] - block[:, j]
                bad |= near_nonpos_int(d + p.gamma)
                bad |= np.abs(d) <= tol
    return ~bad


def lattice_values(NU: np.ndarray, NV: np.ndarray, p: ParamSet,
                   include_weight: bool = True, seed: int = 7919) -> np.ndarray:
    """F at a batch of lattice points; regular points vectorized, the rest
    evaluated as directional limits."""
    n = NU.shape[0]
    k2 = NV.shape[1]
    from .integrands import lattice_shift

    vals = np.zeros(n)
    regular = _regular_mask(NU, NV, p)
    idx = np.where(regular)[0]
    if idx.size:
        U = NU[idx] + lattice_shift(NU.shape[1], p.gamma)[None, :]
        V = NV[idx] + lattice_shift(k2, p.gamma)[None, :] if k2 else np.zeros((idx.size, 0))
        sign, logm = phi_sign_log(U, V, p, zero_tol=NEAR_TOL)
        fv = sign * np.exp(logm)
        if include_weight and k2:
            nz = fv != 0.0
            if np.any(nz):
                fv[nz] = fv[nz] * weight_w(U[nz], V[nz], p.gamma)
        vals[idx] = fv
    for i in np.where(~regular)[0]:
        pt = LatticePoint(tuple(int(x) for x in NU[i]), tuple(int(x) for x in NV[i]), p.gamma)
        vals[i] = f_limit(pt, p, seed=seed, include_weight=include_weight)
    return vals


def _shell_sum(k1: int, k2: int, shell: int, p: ParamSet, include_weight: bool,
               seed: int) -> float:
    P = cone_array(k1, k2, shell, shell=True).astype(float)
    if not P.shape[0]:
        return 0.0
    vals = lattice_values(P[:, :k1], P[:, k1:], p, include_weight=include_weight, seed=seed)
    return math.fsum(vals.tolist())


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
    shells = []
    partial = 0.0
    last = math.inf
    converged = False
    bound = 0
    for j in range(max_bound + 1):
        last = _shell_sum(k1, k2, j, p, include_weight, seed)
        shells.append(last)
        partial = math.fsum(shells)
        bound = j
        if j >= 1 and partial != 0.0 and abs(last) <= rel_tol * abs(partial):
            converged = True
            break
    return SeriesResult(partial, last, bound, converged)


def sum_over_total_lattice(p: ParamSet, bound: int, seed: int = 7919) -> SeriesResult:
    """Sum F over the full shifted lattice box [-bound, bound]^(k1+k2).

    Off-cone points contribute exact zeros (or limit values ~ 0); this is
    the at-scale check of the support statement.
    """
    k1, k2 = p.k1, p.k2
    P = (np.indices((2 * bound + 1,) * (k1 + k2)).reshape(k1 + k2, -1).T - bound).astype(float)
    vals = lattice_values(P[:, :k1], P[:, k1:], p, include_weight=True, seed=seed)
    total = math.fsum(vals.tolist())
    return SeriesResult(total, 0.0, bound, True)


def series_value(p: ParamSet, rel_tol: float = 1e-10, max_bound: int | None = None,
                 seed: int = 7919) -> float:
    res = sum_discrete("dexp3", p, rel_tol=rel_tol, max_bound=max_bound, seed=seed)
    if not res.converged:
        raise NotConvergedError(
            f"series not converged at bound {res.bound} (last shell {res.last_shell!r})")
    return res.partial_sum


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


def pde_residual(p: ParamSet, step: float = 1e-4, use_closed_form: bool = False,
                 second_eq_denominator: str = "z2", rel_tol: float = 1e-10,
                 max_bound: int | None = None, seed: int = 7919):
    """Central-difference residuals of the two dynamical equations.

    Returns (residual_z1, residual_z2), each |dPsi - c Psi| / |c Psi|.
    """
    def psi(z1, z2):
        q = p.with_(z1=z1, z2=z2)
        if use_closed_form:
            return sl3_discrete_rhs(q).to_float()
        return series_value(q, rel_tol=rel_tol, max_bound=max_bound, seed=seed)

    z1, z2 = p.z1, p.z2
    base = psi(z1, z2)
    d1 = (psi(z1 + step, z2) - psi(z1 - step, z2)) / (2 * step)
    d2 = (psi(z1, z2 + step) - psi(z1, z2 - step)) / (2 * step)
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
