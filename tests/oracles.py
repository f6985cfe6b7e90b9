"""Independent oracles used by the test suite.

Everything here is deliberately naive: exact rational arithmetic where
possible, explicit loops over permutations, high-precision special
functions from mpmath.  None of it shares code with the package paths it
checks, except the references that the package must reproduce:

* the hand-written master products write the summand's gamma factors
  out family by family, with their own sign-log helpers, and add their
  logs in the order the package fixes: ``hand_phi_sign_log`` on raw
  coordinates, which ``phi_sign_log`` must match bit for bit, and
  ``hand_lattice_sign_log`` on integer parts, each base an integer
  difference plus a difference of shifts, which the factor tables must
  match bit for bit;
* the lattice-summand references run ``hand_lattice_sign_log`` and the
  package's ``weight_w`` at regular points and its ``limit_pairs`` one
  point at a time, the way the factor tables and the batched limits
  replaced; apart from them, ``mp_lattice_value`` writes F out factor by
  factor in mpmath at 60 digits, a hair off a lattice point along a
  direction, the reference for the limits themselves;
* the cone enumerations ``cone_integer_parts`` (the package's
  ``cone_array`` rows as tuples) and ``cone_array_from`` (its rows from a
  least largest part on, one shell at ``least=bound``) serve the tests
  and the references that walk the cone point by point or shell by shell;
* the series reference (``degree_shell_sum``) enumerates and evaluates
  one degree shell of the cone at a time, from per-block tuples crossed
  by their sums, the way the degree bands replaced, bit for bit; a
  largest-part order (``shell_by_shell_sum``) sums the same series apart
  from either;
* the per-record check references (``sequential_fval_support``,
  ``sequential_limit_direction``, ``per_l_jjl_shift``) evaluate one point
  at a time, draw off-cone points one at a time through the scalar cone
  test (``integer_parts_in_cone``), and solve both shifted tables once
  per l, the way the one-batch engines replaced, bit for bit;
* the exact recursion table (``exact_unit_table``) takes the package's
  relation coefficients, each float converted exactly, and walks the
  solver's columns in ``Fraction`` arithmetic at a unit seed;
* the per-member engine references (``per_member_aomoto``,
  ``per_member_chain_decomp``) integrate each moment or monomial as its
  own chain integral, the way the integrand-family engines replaced,
  bit for bit;
* the cone-membership tests (``domain_membership``,
  ``simplex_membership``, and their row forms ``domain_membership_rows``
  and ``simplex_membership_rows``, which must agree with them) and the
  iid box sampler of the interleaved cone (``box_cone_monomial``,
  through ``cone_mask``) test membership point by point and integrate by
  rejection, apart from the chain decomposition;
* the black-box chain-quadrature reference takes the package's per-axis
  rules (``_jacobi_rules``) and lays the frame out over the full node
  mesh, one integrand and one domain at a time, the way the broadcast
  tensor frame and the integrand families replaced; it sums the mesh
  axis by axis in the package's order, so it matches bit for bit;
* the one-sided Gauss-Jacobi reference (``one_sided_jacobi_rules``) is
  the rule builder as it was before it took a weight at y = 1, which
  the package must still reproduce bit for bit at A = 0;
* the sector-rule reference (``heap_trees``, ``brute_sector_values``,
  ``brute_domain_value``) loops over the sectors, found as the Cartesian
  trees of every ordering of the gaps, and over the nodes of scipy's
  Gauss-Jacobi rules, and evaluates each integrand from its formula on
  raw gaps (``raw_gap_integrand``), every coordinate and difference an
  fsum of consecutive gaps; it takes only the sector exponents from the
  package;
* the log-domain sector reference (``log_domain_sector_values``) is the
  sector frame as it was before it took runs in factored form: every
  run and every weight term a sum of logs through its own exp, and the
  model a full-grid log that cancels the top gaps' monomial; it takes
  the package's descriptions, trees and rules, and the factored frame
  must match it to rounding;
* the raw-coordinate integrands (``omega``, ``weight_g``, ``h_func``,
  ``h_tilde_func``, and ``raw_integrand``, which assembles them from an
  ``Integrand`` description) evaluate on coordinate rows by subtracting
  coordinates, and ``raw_ratio`` / ``raw_mc_value`` are the Monte Carlo
  path built on them, which the chain frame replaced; they agree with
  the frame to rounding away from coincidences.  On the half-line they
  take the closed-form scale integral, as the frame does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial, inf, log, sqrt

import mpmath as mp
import numpy as np
from scipy.special import gammaln, gammasgn

mp.mp.dps = 40


def mp_gamma(x) -> mp.mpf:
    return mp.gamma(mp.mpf(x))


def chain_monomial_integral(exponents) -> Fraction:
    """Exact integral of prod c_i**e_i over 1 >= c_1 >= ... >= c_K >= 0.

    Iterated integration from the innermost variable out: each step turns
    prod-so-far into a factor 1/(e_K + ... + e_i + (K - i + 1)).
    """
    out = Fraction(1)
    tail = 0
    K = len(exponents)
    for i in range(K - 1, -1, -1):
        tail += exponents[i]
        out /= Fraction(tail + (K - i))
    return out


def interleavings(k1: int, k2: int):
    """All merged descending orders of t_1..t_k1, s_1..s_k2 compatible with
    the interleaved-cone inequalities (s_b above t_{b+k1-k2})."""
    K = k1 + k2
    labels = [("t", a) for a in range(1, k1 + 1)] + [("s", b) for b in range(1, k2 + 1)]
    out = []
    for perm in permutations(labels):
        pos = {lab: i for i, lab in enumerate(perm)}
        ok = all(pos[("t", a)] < pos[("t", a + 1)] for a in range(1, k1)) and \
            all(pos[("s", b)] < pos[("s", b + 1)] for b in range(1, k2)) and \
            all(pos[("s", b)] < pos[("t", b + k1 - k2)] for b in range(1, k2 + 1))
        if ok:
            out.append(perm)
    return out


def simplex_monomial_integral(k1: int, k2: int, degs_t, degs_s) -> Fraction:
    """Exact integral of prod t^degs_t prod s^degs_s over the interleaved
    cone in [0,1], summed over its total orders."""
    total = Fraction(0)
    for order in interleavings(k1, k2):
        expo = []
        for kind, idx in order:
            expo.append(degs_t[idx - 1] if kind == "t" else degs_s[idx - 1])
        total += chain_monomial_integral(expo)
    return total


def domain_monomial_integral(order, degs_t, degs_s) -> Fraction:
    """Exact monomial integral over one interleaving domain given its
    merged descending order [('t', a) | ('s', b)]."""
    expo = []
    for kind, idx in order:
        expo.append(degs_t[idx - 1] if kind == "t" else degs_s[idx - 1])
    return chain_monomial_integral(expo)


def brute_weight_w(u, v, gamma):
    """Direct permutation-sum evaluation of the discrete weight."""
    k1, k2 = len(u), len(v)
    kk = k1 - k2
    total = 0.0
    for sigma in permutations(range(k1)):
        us = [u[i] for i in sigma]
        for tau in permutations(range(k2)):
            vs = [v[i] for i in tau]
            term = 1.0
            for b in range(k2):
                term /= vs[b] - us[b + kk] - gamma
            for b in range(k2):
                for a in range(b + 1, k2):
                    term *= (vs[b] - us[a + kk]) / (vs[b] - us[a + kk] - gamma)
            for i in range(k1):
                for j in range(i + 1, k1):
                    term *= (us[i] - us[j] - gamma) / (us[i] - us[j])
            for i in range(k2):
                for j in range(i + 1, k2):
                    term *= (vs[i] - vs[j] - gamma) / (vs[i] - vs[j])
            total += term
    import math
    return total / (math.factorial(k1) * math.factorial(k2))


def brute_weight_g(t, s, shifted=True):
    k1, k2 = len(t), len(s)
    kk = (k1 - k2) if shifted else 0
    total = 0.0
    for sigma in permutations(range(k1)):
        ts = [t[i] for i in sigma]
        for tau in permutations(range(k2)):
            ss = [s[i] for i in tau]
            term = 1.0
            for b in range(k2):
                term /= ss[b] - ts[b + kk]
            total += term
    import math
    return total / (math.factorial(k1) * math.factorial(k2))


def brute_h(l1, l2, m, t, s, k1, k2, twisted=False):
    kk = k1 - k2
    total = 0.0
    for sigma in permutations(range(k1)):
        ts = [t[i] for i in sigma]
        for tau in permutations(range(k2)):
            ss = [s[i] for i in tau]
            term = 1.0
            for a in range(l1):
                term *= ts[a]
            for a in range(l1, k1):
                term *= 1.0 - ts[a]
            for b in range(m):
                numer = (1.0 - ts[b]) if twisted else (1.0 - ss[b])
                term *= numer / (ss[b] - ts[b])
            for b in range(l2, k2):
                term *= (1.0 - ss[b]) / (ss[b] - ts[b + kk])
            total += term
    import math
    return total / (math.factorial(k1) * math.factorial(k2))


def integer_parts_in_cone(nu, nv, k1: int, k2: int) -> bool:
    """Cone membership of integer parts: both blocks weakly decreasing and
    nonnegative, with nv[b] >= nu[b + k1 - k2] interleaving.  The scalar
    test the support check's row test replaced."""
    nu = list(nu)
    nv = list(nv)
    if any(nu[i] < nu[i + 1] for i in range(k1 - 1)) or (k1 and nu[-1] < 0):
        return False
    if any(nv[i] < nv[i + 1] for i in range(k2 - 1)) or (k2 and nv[-1] < 0):
        return False
    return all(nv[b] >= nu[b + k1 - k2] for b in range(k2))


def cone_integer_parts(k1: int, k2: int, bound: int):
    """Integer parts (nu, nv) of every cone point with all parts <= bound,
    in lexicographic order: the rows of the package's ``cone_array`` as
    tuples."""
    from selberg3.lattice import cone_array

    for row in cone_array(k1, k2, bound).tolist():
        yield tuple(row[:k1]), tuple(row[k1:])


def cone_array_from(k1: int, k2: int, bound: int, least: int) -> np.ndarray:
    """The rows of the package's ``cone_array`` whose largest part is at
    least ``least``, in its order; ``least=bound`` gives the shell of
    points whose largest part is ``bound``."""
    from selberg3.lattice import cone_array

    P = cone_array(k1, k2, bound)
    return P[P.max(axis=1, initial=0) >= least]


def brute_cone_integer_parts(k1, k2, bound):
    """Filter the full integer box through the cone inequalities."""
    from itertools import product

    pts = set()
    for nu in product(range(bound + 1), repeat=k1):
        if any(nu[i] < nu[i + 1] for i in range(k1 - 1)):
            continue
        for nv in product(range(bound + 1), repeat=k2):
            if any(nv[i] < nv[i + 1] for i in range(k2 - 1)):
                continue
            if all(nv[b] >= nu[b + k1 - k2] for b in range(k2)):
                pts.add((nu, nv))
    return pts


def mp_selberg_rhs(k, a, b, g) -> mp.mpf:
    out = mp.mpf(1)
    for j in range(k):
        out *= (mp_gamma(a + j * g) * mp_gamma(b + j * g) * mp_gamma(g + j * g)
                / (mp_gamma(a + b + (2 * k - 2 - j) * g) * mp_gamma(g)))
    return out


# ---------------------------------------------------------------------------
# lattice summand: the point-by-point path the factor tables replace
# ---------------------------------------------------------------------------

def _sign_log_gamma(x, pole_tol=1e-12):
    """(sign, log|Gamma|) elementwise; raises when an argument is at a pole."""
    from selberg3.errors import PoleError

    x = np.asarray(x, dtype=float)
    near = (x < 0.5) & (np.abs(x - np.round(x)) <= pole_tol)
    if np.any(near):
        raise PoleError(f"gamma pole at argument {x[near].flat[0]!r}")
    return gammasgn(x), gammaln(x)


def _sign_log_recip_gamma(x, zero_tol):
    """(sign, log) of 1/Gamma(x); arguments within zero_tol of a nonpositive
    integer give an exact zero (sign 0)."""
    x = np.asarray(x, dtype=float)
    zero = (x < 0.5) & (np.abs(x - np.round(x)) <= zero_tol)
    safe = np.where(zero, 1.0, x)
    sign = np.where(zero, 0.0, gammasgn(safe))
    logm = np.where(zero, 0.0, -gammaln(safe))
    return sign, logm


def _sign_log_value(x):
    """(sign, log|x|) of a plain factor; log of 0 is guarded by the caller."""
    x = np.asarray(x, dtype=float)
    sign = np.sign(x)
    with np.errstate(divide="ignore"):
        logm = np.where(sign == 0.0, 0.0, np.log(np.abs(np.where(sign == 0.0, 1.0, x))))
    return sign, logm


def hand_phi_sign_log(u, v, p, zero_tol=1e-12):
    """The master product on real (u, v) batches as (sign, logmag) arrays,
    written out factor family by factor family on raw coordinates.

    Reciprocal gamma factors within ``zero_tol`` of a nonpositive integer
    contribute exact zeros; numerator gammas at poles raise PoleError.
    The package's ``phi_sign_log`` derives the same product from
    ``lattice_bases`` and must match this bit for bit.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    pairs = [block[:, i] - block[:, j] for block in (u, v)
             for i in range(block.shape[1]) for j in range(i + 1, block.shape[1])]
    return _hand_product(p, u, v, v[:, None, :] - u[:, :, None], pairs, zero_tol)


def hand_lattice_sign_log(NU, NV, p, zero_tol=1e-9):
    """The master product at lattice points from their integer parts, as
    (sign, logmag) arrays: ``hand_phi_sign_log`` with every base quantity
    written as the difference of two integer parts plus the difference of
    their shifts, (n_p - n_m) + (s_p - s_m), shift s_i = gamma*(k-1-i).

    The z powers take the real coordinates n + s.  The package's factor
    tables take the bases this way and must match this bit for bit
    (``zero_tol=1e-9`` is their tolerance).
    """
    NU = np.atleast_2d(np.asarray(NU, dtype=float))
    NV = np.atleast_2d(np.asarray(NV, dtype=float))
    su = p.gamma * np.arange(NU.shape[1] - 1, -1, -1, dtype=float)
    sv = p.gamma * np.arange(NV.shape[1] - 1, -1, -1, dtype=float)
    dvu = (NV[:, None, :] - NU[:, :, None]) + (sv[None, :] - su[:, None])[None]
    pairs = [(N[:, i] - N[:, j]) + (s[i] - s[j]) for N, s in ((NU, su), (NV, sv))
             for i in range(N.shape[1]) for j in range(i + 1, N.shape[1])]
    return _hand_product(p, NU + su, NV + sv, dvu, pairs, zero_tol)


def _hand_product(p, u, v, dvu, pairs, zero_tol):
    """(sign, logmag) of the master product from its base quantities: u
    (n, k1), which are also the u bases, and v for the z powers, dvu
    (n, k1, k2) the v_j - u_i bases and ``pairs`` the b_i - b_j bases, u
    pairs first."""
    n, k1, k2 = u.shape[0], u.shape[1], v.shape[1]
    a, g = p.alpha, p.gamma
    sign = np.ones(n)
    logm = np.zeros(n)

    def accumulate(s, l):
        nonlocal sign, logm
        sign = sign * s
        logm = logm + l

    if k1:
        logm = logm + log(p.z1) * u.sum(axis=1)
        s1, l1 = _sign_log_gamma(u + a)
        accumulate(s1.prod(axis=1), l1.sum(axis=1))
        s2, l2 = _sign_log_recip_gamma(u + 1.0, zero_tol)
        accumulate(s2.prod(axis=1), l2.sum(axis=1))
    if k2:
        logm = logm + log(p.z2) * v.sum(axis=1)
    if k1 and k2:
        s3, l3 = _sign_log_gamma(dvu - g + 1.0)
        accumulate(s3.reshape(n, -1).prod(axis=1), l3.reshape(n, -1).sum(axis=1))
        s4, l4 = _sign_log_recip_gamma(dvu + 1.0, zero_tol)
        accumulate(s4.reshape(n, -1).prod(axis=1), l4.reshape(n, -1).sum(axis=1))
    for d in pairs:
        s5, l5 = _sign_log_value(d)
        accumulate(s5, l5)
        s6, l6 = _sign_log_gamma(d + g)
        accumulate(s6, l6)
        s7, l7 = _sign_log_recip_gamma(d - g + 1.0, zero_tol)
        accumulate(s7, l7)
    return sign, logm


def regular_mask(NU, NV, p, tol=1e-9):
    """Regularity of each lattice point, from the raw gamma arguments: no
    numerator gamma at a nonpositive integer, no vanishing weight
    denominator."""
    from selberg3.integrands import lattice_shift

    n, k1, k2 = NU.shape[0], NU.shape[1], NV.shape[1]
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


def regular_values(NU, NV, p):
    """(mask, values) of the lattice summand: ``hand_lattice_sign_log`` and,
    when k2 > 0, ``weight_w`` on the regular points, 0 elsewhere."""
    from selberg3.integrands import lattice_shift, weight_w

    n, k1, k2 = NU.shape[0], NU.shape[1], NV.shape[1]
    regular = regular_mask(NU, NV, p)
    vals = np.zeros(n)
    idx = np.where(regular)[0]
    if idx.size:
        U = NU[idx] + lattice_shift(k1, p.gamma)[None, :]
        V = NV[idx] + lattice_shift(k2, p.gamma)[None, :] if k2 else np.zeros((idx.size, 0))
        sign, logm = hand_lattice_sign_log(NU[idx], NV[idx], p)
        fv = sign * np.exp(logm)
        if k2:
            nz = fv != 0.0
            if np.any(nz):
                fv[nz] = fv[nz] * weight_w(U[nz], V[nz], p.gamma)
        vals[idx] = fv
    return regular, vals


def mp_lattice_value(nu, nv, p, direction, eps="1e-25", dps=60):
    """F at the lattice point (nu, nv) moved by eps along ``direction``, in
    mpmath at ``dps`` digits, written out factor by factor.

    Every factor argument and weight form is taken at the point in mpmath
    from the float parameters, snapped onto the nearest integer when within
    1e-9 of it (the package's tolerance for a factor at a pole, a zero or
    a vanishing form), and then moved by its rate along ``direction``
    times eps.  The weight is the explicit permutation sum, present when
    k2 > 0.  Far inside the limit, at eps = 1e-25, the value is the
    directional limit to about 25 digits.
    """
    with mp.workdps(dps):
        eps = mp.mpf(eps)
        k1, k2 = len(nu), len(nv)
        a, g = mp.mpf(p.alpha), mp.mpf(p.gamma)
        u = [(mp.mpf(n) + (k1 - 1 - i) * g, mp.mpf(float(d)))
             for i, (n, d) in enumerate(zip(nu, direction[:k1]))]
        v = [(mp.mpf(n) + (k2 - 1 - i) * g, mp.mpf(float(d)))
             for i, (n, d) in enumerate(zip(nv, direction[k1:]))]

        def at(x, c=0):
            """The form x = (value, rate) plus c, snapped, then moved."""
            x0, rate = x[0] + c, x[1]
            if abs(x0 - mp.nint(x0)) <= 1e-9:
                x0 = mp.nint(x0)
            return x0 + rate * eps

        def diff(x, y):
            return (x[0] - y[0], x[1] - y[1])

        val = mp.mpf(1)
        for z, block in ((p.z1, u), (p.z2, v)):
            for x in block:
                val *= mp.power(mp.mpf(z), x[0] + x[1] * eps)
        for x in u:
            val *= mp.gamma(at(x, a)) * mp.rgamma(at(x, 1))
        for ui in u:
            for vj in v:
                x = diff(vj, ui)
                val *= mp.gamma(at(x, 1 - g)) * mp.rgamma(at(x, 1))
        for block in (u, v):
            for i in range(len(block)):
                for j in range(i + 1, len(block)):
                    x = diff(block[i], block[j])
                    val *= at(x) * mp.gamma(at(x, g)) * mp.rgamma(at(x, 1 - g))
        if not k2:
            return val
        kk, total = k1 - k2, mp.mpf(0)
        for sigma in permutations(range(k1)):
            us = [u[i] for i in sigma]
            for tau in permutations(range(k2)):
                vs = [v[i] for i in tau]
                term = mp.mpf(1)
                for b in range(k2):
                    term /= at(diff(vs[b], us[b + kk]), -g)
                    for c in range(b + 1, k2):
                        x = diff(vs[b], us[c + kk])
                        term *= at(x) / at(x, -g)
                for block in (us, vs):
                    for i in range(len(block)):
                        for j in range(i + 1, len(block)):
                            x = diff(block[i], block[j])
                            term *= at(x, -g) / at(x)
                total += term
        return val * total / (factorial(k1) * factorial(k2))


def sequential_limit_pairs(pts, p):
    """The package's ``limit_pairs`` one point at a time, in order, raising
    at the first point that fails.  Returns the (m, 2) pairs and the (m,)
    rounding scales."""
    from selberg3.integrands import limit_pairs

    out = [limit_pairs(np.array([pt.nu], dtype=float).reshape(1, -1),
                       np.array([pt.nv], dtype=float).reshape(1, -1), p) for pt in pts]
    return (np.array([pair[0] for pair, _ in out]).reshape(-1, 2),
            np.array([rounding[0] for _, rounding in out]))


def sequential_point_value(pt, p):
    """The lattice summand at one point and the rounding scale of a limit:
    ``regular_values`` and 0 where it is regular, the mean of its checked
    limit pair and its rounding elsewhere."""
    NU = np.array([pt.nu], dtype=float).reshape(1, -1)
    NV = np.array([pt.nv], dtype=float).reshape(1, -1)
    regular, vals = regular_values(NU, NV, p)
    if regular[0]:
        return float(vals[0]), 0.0
    pairs, rounding = sequential_limit_pairs([pt], p)
    a, b = pairs[0].tolist()
    return 0.5 * (a + b), float(rounding[0])


def sequential_fval_support(p, budget, seed, tol):
    """The support check one lattice point at a time: in-cone values in one
    batch, then each off-cone point on its own, in draw order."""
    from selberg3.integrands import LatticePoint
    from selberg3.lattice import cone_array, lattice_values

    rng = np.random.default_rng(seed)
    k1, k2 = p.k1, p.k2
    cone = cone_array(k1, k2, 6).astype(float)
    in_vals = lattice_values(cone[:, :k1], cone[:, k1:], p)[0]
    med = float(np.median(np.abs(in_vals[np.abs(in_vals) > 0])))
    npts = budget.points
    off = []
    while len(off) < npts:
        nu = tuple(int(x) for x in rng.integers(-4, 8, size=k1))
        nv = tuple(int(x) for x in rng.integers(-4, 8, size=k2))
        if not integer_parts_in_cone(nu, nv, k1, k2):
            off.append(LatticePoint(nu, nv, p.gamma))
    worst = err = 0.0
    for pt in off:
        value, rounding = sequential_point_value(pt, p)
        worst, err = max(worst, abs(value)), max(err, rounding)
    # a regular value is rounded to 1e-14 of its size
    err = max(err, 1e-14 * worst)
    return worst / med, err / med, 0.0, (tol if tol is not None else 1e-8), \
        f"max off-cone {worst:.2e} vs median in-cone {med:.2e}, {npts} points"


def sequential_limit_direction(p, budget, seed, tol):
    """The direction check one lattice point at a time, each evaluated on
    its own; a compared pair's error is twice its rounding over its scale,
    and a check that compared no point gets an infinite error."""
    from selberg3.integrands import LatticePoint

    rng = np.random.default_rng(seed)
    pts = [(nu, nv) for nu, nv in cone_integer_parts(p.k1, p.k2, 5)]
    rng.shuffle(pts)
    pts = pts[:min(budget.points, 20)]
    pairs, rounding = sequential_limit_pairs(
        [LatticePoint(nu, nv, p.gamma) for nu, nv in pts], p)
    worst = err = 0.0
    compared = 0
    for (a, b), r in zip(pairs.tolist(), rounding.tolist()):
        scale = max(abs(a), abs(b))
        if scale > 1e-12:
            worst = max(worst, abs(a - b) / scale)
            err = max(err, 2.0 * r / scale)
            compared += 1
    err = err if compared else float("inf")
    return worst, err, 0.0, (tol if tol is not None else 1e-6), \
        f"max two-direction disagreement, {compared} of {len(pts)} points compared"


def per_l_jjl_shift(p, l):
    """The parameter-shift residual at one l, solving both families of both
    shifted tables for it, the way the all-l residuals replaced."""
    from selberg3.recursions import solve_both

    left_tab, _ = solve_both(p.with_(alpha=p.alpha + 1.0))
    right_tab, _ = solve_both(p.with_(beta1=p.beta1 + 1.0))
    left = left_tab.value((0, l, 0))
    right = right_tab.value((p.k1, p.k2, p.k2 - l))
    return abs((left / right).to_float() - 1.0)


def exact_unit_table(p, twisted=False) -> dict:
    """The recursion table at a unit seed in exact rationals.

    The solver's column walk in ``Fraction`` arithmetic over the package's
    relation coefficients, each float converted exactly: the exact table
    for those coefficients, so a float table's distance from it is the
    rounding of the solve alone."""
    from selberg3.recursions import all_relations

    rels = {rel.rid: [(Fraction(c), t) for c, t in rel.terms]
            for rel in all_relations(p, twisted)}
    a, b = ("A~", "B~") if twisted else ("A", "B")
    J = {(0, 0, 0): Fraction(1)}

    def row(rid, targets):
        coeffs, rhs = [Fraction(0)] * len(targets), Fraction(0)
        for c, t in rels[rid]:
            if t in targets:
                coeffs[targets.index(t)] += c
            else:
                rhs -= c * J[t]
        return coeffs, rhs

    for l2 in range(p.k2 + 1):
        for l1 in range(p.k1 - p.k2 + l2 + 1):
            m = min(l1, l2)
            if l1 == l2 > 0:
                x, y = (l1, l2, m - 1), (l1, l2, m)
                (a11, a12), ra = row((a, l1 - 1, l2, m - 1), [x, y])
                (b11, b12), rb = row((b, l1, l2, m - 1), [x, y])
                det = a11 * b12 - a12 * b11
                J[x], J[y] = (b12 * ra - a12 * rb) / det, (a11 * rb - b11 * ra) / det
                m -= 1
            elif l1 != l2:
                (c,), r = row((a, l1 - 1, l2, m) if l1 > l2 else (b, l1, l2, m), [(l1, l2, m)])
                J[(l1, l2, m)] = r / c
            for m in range(m - 1, -1, -1):
                (c,), r = row((a, l1 - 1, l2, m), [(l1, l2, m)])
                J[(l1, l2, m)] = r / c
    return J


class ChainIntegrals:
    """``integrate_chain`` of each (integrand, chain, spec, parameters),
    computed once: a deterministic spec reads neither its sample count nor
    its seed, so specs that differ only there share one value."""

    def __init__(self):
        self._values = {}

    def __call__(self, ig, chain, q, p):
        from dataclasses import replace

        from selberg3.quadrature import integrate_chain

        key = (ig, chain, replace(q, sample_count=0, seed=0) if q.scheme == "deterministic"
               else q, p)
        if key not in self._values:
            self._values[key] = integrate_chain(ig, chain, q, p)
        return self._values[key]


def per_member_aomoto(p, budget, seed, tol, integrate=None):
    """The moment check one chain integral per moment, each through
    ``integrate`` (``integrate_chain`` unless given)."""
    from selberg3 import closed_forms as cf
    from selberg3.chains import gamma_chain
    from selberg3.identities import _quad_spec
    from selberg3.integrands import assembled_integrand
    from selberg3.quadrature import integrate_chain

    integrate = integrate or integrate_chain
    k = p.k
    spec = _quad_spec(budget, seed)
    chain = gamma_chain(k, 0, p.gamma)
    worst = None
    for ell in range(k + 1):
        ig = assembled_integrand("aomoto", p, indices=ell)
        lhs, err = integrate(ig, chain, spec, p)
        rhs = cf.aomoto_rhs(k, ell, p).to_float()
        dev = abs(lhs - rhs) / abs(rhs)
        if worst is None or dev >= worst[0]:
            worst = (dev, lhs, rhs, err)
    dev, lhs, rhs, err = worst
    return lhs, err, rhs, (tol if tol is not None else 1e-4), f"worst over l=0..{k}"


def per_member_chain_decomp(p, budget, seed, tol):
    """The decomposition check one chain integral per monomial, each
    against this module's exact cone integral."""
    from selberg3.chains import unit_chain
    from selberg3.identities import _quad_spec
    from selberg3.integrands import Integrand
    from selberg3.quadrature import integrate_chain

    rng = np.random.default_rng(seed)
    k1, k2 = p.k1, p.k2
    chain = unit_chain(k1, k2)
    spec = _quad_spec(budget, seed)
    degs = [(rng.integers(0, 4, size=k1), rng.integers(0, 4, size=k2)) for _ in range(20)]
    worst = None
    for degs_t, degs_s in degs:
        def poly(t, s, dt=degs_t, ds=degs_s):
            t = np.atleast_2d(t)
            s = np.atleast_2d(s)
            out = np.ones(t.shape[0])
            for i in range(t.shape[1]):
                out = out * t[:, i] ** dt[i]
            for i in range(s.shape[1]):
                out = out * s[:, i] ** ds[i]
            return out

        ig = Integrand(poly, k1, k2, "01", 0, 1.0, 0.0, 1.0, 1.0, kind="callable")
        det, err = integrate_chain(ig, chain, spec, p)
        exact = float(simplex_monomial_integral(k1, k2, [int(d) for d in degs_t],
                                                [int(d) for d in degs_s]))
        dev = abs(det - exact) / exact
        if worst is None or dev >= worst[0]:
            worst = (dev, det, err, exact)
    dev, det, err, exact = worst
    return det, err, exact, (tol if tol is not None else 1e-6), "worst of 20 random monomials"


def cone_mask(t, s):
    """Rows of (t, s) inside the interleaved cone: t and s each
    descending, s_b >= t_(b+k1-k2); the vectorized ``simplex_membership``
    on the unit box."""
    k1, k2 = t.shape[1], s.shape[1]
    inside = np.ones(len(t), dtype=bool)
    for i in range(k1 - 1):
        inside &= t[:, i] >= t[:, i + 1]
    for i in range(k2 - 1):
        inside &= s[:, i] >= s[:, i + 1]
    for b in range(k2):
        inside &= s[:, b] >= t[:, b + k1 - k2]
    return inside


def box_cone_monomial(k1, k2, degs_t, degs_s, n, seed):
    """(mean, standard error) of a monomial over the interleaved cone by
    iid uniform sampling of the unit box, masked to the cone."""
    box = np.random.default_rng(seed).uniform(size=(n, k1 + k2))
    t, s = box[:, :k1], box[:, k1:]
    vals = np.where(cone_mask(t, s), np.prod(t ** np.asarray(degs_t), axis=1)
                    * np.prod(s ** np.asarray(degs_s), axis=1), 0.0)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / sqrt(n))


def domain_membership(M, t, s, x: float, y: float) -> bool:
    """Direct inequality test for one interleaving domain on [x, y]."""
    k1, k2 = len(t), len(s)
    if k1 and not (x <= t[k1 - 1] and t[0] <= y):
        return False
    if any(t[i] < t[i + 1] for i in range(k1 - 1)):
        return False
    if k2 and not (x <= s[k2 - 1] and s[0] <= y):
        return False
    if any(s[i] < s[i + 1] for i in range(k2 - 1)):
        return False
    for b in range(1, k2 + 1):
        j = M.m[b - 1]
        upper = y if j == 1 else t[j - 2]
        if not (t[j - 1] <= s[b - 1] <= upper):
            return False
    return True


def domain_membership_rows(M, t, s, x: float, y: float) -> np.ndarray:
    """``domain_membership`` of every row of t (n, k1) and s (n, k2)."""
    k1, k2 = t.shape[1], s.shape[1]
    ok = np.ones(len(t), dtype=bool)
    if k1:
        ok &= (x <= t[:, k1 - 1]) & (t[:, 0] <= y)
    for i in range(k1 - 1):
        ok &= t[:, i] >= t[:, i + 1]
    if k2:
        ok &= (x <= s[:, k2 - 1]) & (s[:, 0] <= y)
    for i in range(k2 - 1):
        ok &= s[:, i] >= s[:, i + 1]
    for b in range(1, k2 + 1):
        j = M.m[b - 1]
        upper = y if j == 1 else t[:, j - 2]
        ok &= (t[:, j - 1] <= s[:, b - 1]) & (s[:, b - 1] <= upper)
    return ok


def simplex_membership(t, s, x: float, y: float, k1: int, k2: int) -> bool:
    """Membership in the full interleaved cone (union of all domains)."""
    if k1 and (any(t[i] < t[i + 1] for i in range(k1 - 1)) or not (x <= t[k1 - 1] and t[0] <= y)):
        return False
    if k2 and (any(s[i] < s[i + 1] for i in range(k2 - 1)) or not (x <= s[k2 - 1] and s[0] <= y)):
        return False
    return all(s[b] >= t[b + k1 - k2] for b in range(k2))


def simplex_membership_rows(t, s, x: float, y: float, k1: int, k2: int) -> np.ndarray:
    """``simplex_membership`` of every row of t (n, k1) and s (n, k2)."""
    ok = np.ones(len(t), dtype=bool)
    if k1:
        ok &= np.all(t[:, :-1] >= t[:, 1:], axis=1) & (x <= t[:, k1 - 1]) & (t[:, 0] <= y)
    if k2:
        ok &= np.all(s[:, :-1] >= s[:, 1:], axis=1) & (x <= s[:, k2 - 1]) & (s[:, 0] <= y)
    for b in range(k2):
        ok &= s[:, b] >= t[:, b + k1 - k2]
    return ok


# ---------------------------------------------------------------------------
# lattice series: one shell per evaluation, and the full lattice box
# ---------------------------------------------------------------------------

def shell_by_shell_sum(which, p, rel_tol=1e-10, max_bound=None):
    """The cone series in largest-part shells: shell j is every cone point
    whose largest integer part is j, evaluated in one ``lattice_values``
    call, and the sum stops at the first shell j >= 1 with
    |shell| <= rel_tol * |sum|.  An order of summation apart from the
    package's degree shells.  Returns the partial sum and the list of
    shell sums."""
    import math

    from selberg3.lattice import lattice_values

    k1, k2 = p.k1, (p.k2 if which == "dexp3" else 0)
    shells = []
    for j in range(max_bound + 1):
        P = cone_array_from(k1, k2, j, j).astype(float)
        vals = lattice_values(P[:, :k1], P[:, k1:], p)[0]
        shells.append(math.fsum(vals.tolist()))
        partial = math.fsum(shells)
        if j >= 1 and partial != 0.0 and abs(shells[-1]) <= rel_tol * abs(partial):
            break
    return partial, shells


def _oracle_window_tail(masses, window):
    """rho * M0 / (1 - rho) over the last four windows of shell masses,
    rho the largest ratio of consecutive windows; inf where it gives no
    bound."""
    import math

    if len(masses) < 4 * window:
        return inf
    wins = [masses[len(masses) - (i + 1) * window:][:window] for i in range(4)]
    M = [math.fsum(w) for w in wins]
    if min(M) <= 0.0:
        return inf
    rho = max(M[0] / M[1], M[1] / M[2], M[2] / M[3])
    return rho * M[0] / (1.0 - rho) if rho < 1.0 else inf


def _block_by_sum(k, a, top):
    """Decreasing k-tuples from ``cone_array`` grouped by their sum n,
    for every n with a * n < top: {n: rows}."""
    from selberg3.lattice import cone_array

    rows = cone_array(k, 0, max(0, int(top / a) + 1))
    sums = rows.sum(axis=1)
    return {int(n): rows[sums == n] for n in np.unique(sums) if a * n < top}


def degree_shell_sum(which, p, rel_tol=1e-11, max_bound=None):
    """``sum_discrete`` one degree shell at a time.

    Shell s is enumerated on its own, apart from ``degree_band``: the
    decreasing u-tuples and v-tuples of ``cone_array`` are grouped by
    their sums (m, n), every pair whose degree a1*m + a2*n has integer
    part s is crossed, the rows that interleave (v_b >= u_{b+k1-k2}) are
    kept, and the shell is sorted lexicographically.  Each shell is
    evaluated in one ``lattice_values`` call, and the sum stops at the
    first shell where the window tail of the shell masses is at most
    rel_tol * |sum|.  Each bar adds the package's value rounding over the
    summed masses.  Returns the ``SeriesResult``.
    """
    import math

    from selberg3.integrands import lattice_shift
    from selberg3.lattice import _VALUE_ROUNDING, SeriesResult, _z_derivatives, lattice_values

    k1, k2 = p.k1, (p.k2 if which == "dexp3" else 0)
    c1 = -log(p.z1)
    c2 = -log(p.z2) if k2 else c1
    c = min(c1, c2)
    a1, a2 = c1 / c, c2 / c
    window = math.ceil(k1 * a1 + k2 * a2)
    if max_bound is None:
        max_bound = max(600 if k1 + k2 <= 2 else 180, 8 * window)
    shift_u, shift_v = lattice_shift(k1, p.gamma).sum(), lattice_shift(k2, p.gamma).sum()
    sums, masses, mass_u, mass_v = [], [], [], []
    moments, converged = np.zeros(k1 + k2), False
    for s in range(max_bound + 1):
        us = _block_by_sum(k1, a1, s + 1)
        vs = _block_by_sum(k2, a2, s + 1)
        parts = []
        for m, U in us.items():
            for n, V in vs.items():
                if math.floor(a1 * m + a2 * n) != s:
                    continue
                rows = np.hstack((np.repeat(U, len(V), axis=0), np.tile(V, (len(U), 1))))
                ok = np.all(rows[:, k1:] >= rows[:, k1 - k2:k1], axis=1)
                parts.append(rows[ok])
        P = np.vstack(parts) if parts else np.zeros((0, k1 + k2), dtype=np.int64)
        P = P[np.lexsort(P.T[::-1])].astype(float)
        vals = lattice_values(P[:, :k1], P[:, k1:], p)[0]
        mag = np.abs(vals)
        sums.append(math.fsum(vals.tolist()))
        masses.append(math.fsum(mag.tolist()))
        mass_u.append(math.fsum((mag * np.abs(P[:, :k1].sum(axis=1) + shift_u)).tolist()))
        mass_v.append(math.fsum((mag * np.abs(P[:, k1:].sum(axis=1) + shift_v)).tolist()))
        moments += vals @ P
        partial = math.fsum(sums)
        if partial != 0.0 and _oracle_window_tail(masses, window) <= rel_tol * abs(partial):
            converged = True
            break
    def bar(masses):
        return _oracle_window_tail(masses, window) + _VALUE_ROUNDING * math.fsum(masses)

    return SeriesResult(partial, bar(masses), s, converged,
                        *_z_derivatives(k1, k2, p, partial, moments),
                        bar(mass_u) / p.z1, bar(mass_v) / p.z2 if k2 else 0.0)


def sum_over_total_lattice(p, bound):
    """Sum F over the full shifted lattice box [-bound, bound]^(k1+k2).

    Off-cone points contribute exact zeros (or limit values ~ 0); this is
    the at-scale check of the support statement.  Returns the sum.
    """
    import math

    from selberg3.lattice import lattice_values

    k1, k2 = p.k1, p.k2
    P = (np.indices((2 * bound + 1,) * (k1 + k2)).reshape(k1 + k2, -1).T - bound).astype(float)
    vals = lattice_values(P[:, :k1], P[:, k1:], p)[0]
    return math.fsum(vals.tolist())


# ---------------------------------------------------------------------------
# deterministic chain quadrature of black boxes: the full node mesh the
# broadcast frame replaces
# ---------------------------------------------------------------------------

def mesh(cols):
    grids = np.meshgrid(*cols, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


class MeshChainFrame:
    """Per-node chain geometry on the full (n**K, K) node mesh."""

    def __init__(self, LOGR, LOGX):
        self.n, self.K = LOGR.shape
        self.LS = np.cumsum(LOGR, axis=1)
        self.OM = -np.expm1(self.LS)
        self.C = np.exp(self.LS)
        self.LOM = np.log(self.OM)
        self.LOGR = LOGR
        self.LOGX = LOGX

    def lgap(self, i, j):
        inner = self.LOGR[:, i + 1:j + 1].sum(axis=1)
        return self.LS[:, i] + np.log(-np.expm1(inner))


def mesh_det_value(integrand, order, aw, n):
    """The tensor rule of a black box on one domain at n nodes per axis,
    every array laid out over the full node mesh.

    The per-axis rules come from the package's ``_jacobi_rules``, axis i
    at the weight r^w0[i] (1-r)^w1[i]; the frame, the coordinate rows and
    the values are the full-size path the broadcast frame replaced, which
    the package must reproduce bit for bit.
    """
    from selberg3.quadrature import _jacobi_rules

    K = len(order)
    rules = _jacobi_rules(n, list(zip(aw.w0, aw.w1)))
    axes = [rules[w] for w in zip(aw.w0, aw.w1)]
    LOGR = mesh([ly for ly, _ in axes])
    frame = MeshChainFrame(LOGR, np.log(-np.expm1(LOGR)))
    logf = np.zeros(frame.n)
    for i in range(1, K):
        logf += frame.LS[:, i - 1]
    for i in range(K):
        logf -= aw.w0[i] * LOGR[:, i] + aw.w1[i] * frame.LOGX[:, i]
    t = np.empty((frame.n, integrand.k1))
    s = np.empty((frame.n, integrand.k2))
    for i, (knd, idx) in enumerate(order):
        (t if knd == "t" else s)[:, idx - 1] = frame.C[:, i]
    vals = (np.exp(logf) * integrand.fn(t, s)).reshape((n,) * K)
    for _, w in reversed(axes):
        vals = vals @ w
    return float(vals)


def mesh_chain_value(integrand, chain, q):
    """The deterministic chain integral of a black box at the fixed pair
    (n-1, n), n = ``q.nodes_per_axis``, from ``mesh_det_value`` on each
    domain: the value at n and |v(n) - v(n-1)|, added linearly."""
    from selberg3.chains import merged_order
    from selberg3.quadrature import facet_exponents

    k1, k2, n = integrand.k1, integrand.k2, q.nodes_per_axis
    total = err = 0.0
    for M, coeff in chain.terms:
        order, aw = merged_order(M, k1, k2), facet_exponents(integrand, M)
        val = mesh_det_value(integrand, order, aw, n)
        total += coeff * val
        err += abs(coeff) * abs(val - mesh_det_value(integrand, order, aw, n - 1))
    return total, err


def one_sided_jacobi_rules(n, exponents):
    """{E: (log y, weight)} of the n-node Gauss-Jacobi rules for y^E on
    [0,1], built by one batched solve the way the package built them
    before its rules took a weight at y = 1."""
    missing = sorted(set(exponents))
    b = np.array(missing)[:, None]
    k = np.arange(1, n)[None, :]
    s = 2.0 * k + b
    diag = np.hstack([b / (b + 2.0), b * b / (s * (s + 2.0))])
    off = 2.0 * k * (k + b) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    J = np.zeros((len(missing), n, n))
    idx = np.arange(n)
    J[:, idx, idx] = diag
    J[:, idx[1:], idx[:-1]] = off
    x = np.linalg.eigvalsh(J)
    p_prev, p, total = 0.0, np.ones_like(x), np.ones_like(x)
    for j in range(n - 1):
        p_prev, p = p, ((x - diag[:, j:j + 1]) * p - p_prev * (off[:, j - 1:j] if j else 0.0)) \
            / off[:, j:j + 1]
        total += p * p
    logy = np.log1p(x) - np.log(2.0)
    w = 1.0 / (total * (b + 1.0))
    return {e: (logy[i], w[i]) for i, e in enumerate(missing)}


# ---------------------------------------------------------------------------
# raw-coordinate integrands and Monte Carlo: the path the chain frame
# replaces
# ---------------------------------------------------------------------------

def _check_sym_cap(k1, k2):
    from selberg3.errors import DomainError

    if factorial(k1) * factorial(k2) > 40320:
        raise DomainError(f"symmetrization over S_{k1} x S_{k2} exceeds the term cap")


def weight_g(t, s, form="shifted", near_tol=1e-9, magnitude=False):
    """Symmetrized rational weight with simple poles at t_a = s_b.

    ``form='shifted'`` uses partners t_{b+k1-k2}; ``form='plain'`` uses
    t_b.  The two agree identically; both are kept so the equality can be
    tested.  ``magnitude=True`` sums the terms' absolute values instead.
    """
    from selberg3.errors import NearSingularError

    t = np.atleast_2d(np.asarray(t, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    n, k1, k2 = t.shape[0], t.shape[1], s.shape[1]
    _check_sym_cap(k1, k2)
    if k2 == 0:
        return np.ones(n)
    offset = (k1 - k2) if form == "shifted" else 0
    if np.abs(t[:, None, :] - s[:, :, None]).min() < near_tol:
        raise NearSingularError("weight evaluated too close to t = s")
    total = np.zeros(n)
    for sigma in permutations(range(k1)):
        ts = t[:, sigma]
        for tau in permutations(range(k2)):
            ss = s[:, tau]
            term = np.ones(n)
            for b in range(k2):
                term = term / (ss[:, b] - ts[:, b + offset])
            total = total + (np.abs(term) if magnitude else term)
    return total / (factorial(k1) * factorial(k2))


def omega(t, s, p, near_tol=1e-9):
    """Power-product master density on the open unit box.

    Coincidence factors are taken on absolute values; inside any ordered
    domain the orderings fix all signs, so no branch ambiguity arises.
    """
    from selberg3.errors import DomainError, NearSingularError

    t = np.atleast_2d(np.asarray(t, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    n, k1, k2 = t.shape[0], t.shape[1], s.shape[1]
    if (k1 and (t.min() <= 0.0 or t.max() >= 1.0)) or (k2 and (s.min() <= 0.0 or s.max() >= 1.0)):
        raise DomainError("omega requires all coordinates strictly inside (0,1)")
    a, b1, b2, g = p.alpha, p.beta1, p.beta2, p.gamma
    logv = np.zeros(n)
    if k1:
        logv += (a - 1.0) * np.log(t).sum(axis=1) + (b1 - 1.0) * np.log1p(-t).sum(axis=1)
    if k2:
        logv += (b2 - 1.0) * np.log1p(-s).sum(axis=1)
    if k1 and k2:
        d = np.abs(t[:, :, None] - s[:, None, :])
        if d.min() < near_tol:
            raise NearSingularError("omega evaluated too close to t = s")
        logv += (-g) * np.log(d).reshape(n, -1).sum(axis=1)
    for block, kdim in ((t, k1), (s, k2)):
        for i in range(kdim):
            for j in range(i + 1, kdim):
                d = np.abs(block[:, i] - block[:, j])
                if d.min() < near_tol:
                    raise NearSingularError("omega evaluated too close to a coincidence")
                logv += (2.0 * g) * np.log(d)
    return np.exp(logv)


def _h_core(l1, l2, m, t, s, k1, k2, twisted, near_tol, magnitude=False):
    from selberg3.errors import InadmissibleTripleError, NearSingularError
    from selberg3.integrands import is_admissible

    t = np.atleast_2d(np.asarray(t, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    n = t.shape[0]
    _check_sym_cap(k1, k2)
    if not is_admissible(l1, l2, m, k1, k2):
        raise InadmissibleTripleError(f"triple ({l1},{l2},{m}) is not admissible for ({k1},{k2})")
    if k1 and k2 and np.abs(t[:, None, :] - s[:, :, None]).min() < near_tol:
        raise NearSingularError("h evaluated too close to t = s")
    kk = k1 - k2
    total = np.zeros(n)
    for sigma in permutations(range(k1)):
        ts = t[:, sigma]
        base = np.ones(n)
        for aa in range(l1):
            base = base * ts[:, aa]
        for aa in range(l1, k1):
            base = base * (1.0 - ts[:, aa])
        for tau in permutations(range(k2)):
            ss = s[:, tau]
            term = base.copy()
            for b in range(m):
                numer = (1.0 - ts[:, b]) if twisted else (1.0 - ss[:, b])
                term = term * numer / (ss[:, b] - ts[:, b])
            for b in range(l2, k2):
                term = term * (1.0 - ss[:, b]) / (ss[:, b] - ts[:, b + kk])
            total = total + (np.abs(term) if magnitude else term)
    return total / (factorial(k1) * factorial(k2))


def h_func(l1, l2, m, t, s, k1, k2, near_tol=1e-9):
    """Doubly symmetrized end-point weight."""
    return _h_core(l1, l2, m, t, s, k1, k2, twisted=False, near_tol=near_tol)


def h_tilde_func(l1, l2, m, t, s, k1, k2, near_tol=1e-9):
    """Twisted variant: the m-block numerators carry 1-t instead of 1-s."""
    return _h_core(l1, l2, m, t, s, k1, k2, twisted=True, near_tol=near_tol)


def _pair_powers(t, s, g):
    n, k1, k2 = t.shape[0], t.shape[1], s.shape[1]
    logv = np.zeros(n)
    if k1 and k2:
        d = np.abs(t[:, :, None] - s[:, None, :])
        logv += (-g) * np.log(d).reshape(n, -1).sum(axis=1)
    for block, kdim in ((t, k1), (s, k2)):
        for i in range(kdim):
            for j in range(i + 1, kdim):
                logv += (2.0 * g) * np.log(np.abs(block[:, i] - block[:, j]))
    return logv


def raw_integrand(ig, near_tol=0.0, magnitude=False):
    """The integrand an ``Integrand`` describes, as a function of raw
    coordinate rows (t, s) of shapes (n, k1) / (n, k2).

    On [0,1] it is ``omega`` times the rational weight the kind names; on
    the half-line the power product carries e^(-rate c) from
    ``exp_rates`` instead of the (1-c) powers.  A 'callable' integrand is
    its own ``fn``.  ``magnitude=True`` sums the absolute values of the
    weight's symmetrization terms, the scale against which the raw sum
    loses digits when they cancel.
    """
    if ig.kind == "callable":
        return ig.fn
    from types import SimpleNamespace

    k1, k2, a, g = ig.k1, ig.k2, ig.alpha, ig.gamma
    params = SimpleNamespace(alpha=a, beta1=ig.beta1, beta2=ig.beta2, gamma=g)

    def fn(t, s):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        s = np.asarray(s, dtype=float).reshape(t.shape[0], k2)
        if ig.interval == "01":
            vals = omega(t, s, params, near_tol=near_tol)
        else:
            rt, rs = ig.exp_rates
            logv = (a - 1.0) * np.log(t).sum(axis=1) - rt * t.sum(axis=1)
            if k2:
                logv = logv - rs * s.sum(axis=1)
            vals = np.exp(logv + _pair_powers(t, s, g))
        if ig.kind == "g":
            vals = vals * weight_g(t, s, near_tol=near_tol, magnitude=magnitude)
        elif ig.kind in ("h", "ht"):
            l1, l2, m = ig.indices
            vals = vals * _h_core(l1, l2, m, t, s, k1, k2, twisted=ig.kind == "ht",
                                  near_tol=near_tol, magnitude=magnitude)
        return vals

    return fn


def raw_ratio(ig, order, aw, R, magnitude=False):
    """integrand(c(R)) * Jacobian / per-axis weight models on sample rows,
    with the coordinates multiplied out and the integrand evaluated on
    them raw.  On the half-line column 0 of ``R`` is 1, the unit top
    coordinate, and the overall scale is integrated in closed form: the
    raw e^(-L) at c_0 = 1, L the sum of rate * c, is traded for
    Gamma(H) L^(-H), H = w0[0] + 1."""
    from scipy.special import gammaln

    from selberg3.errors import IntegrandSingularError, NearSingularError

    n, K = R.shape
    halfline = ig.interval == "0inf"
    C = np.cumprod(R, axis=1)
    t = np.empty((n, ig.k1))
    s = np.empty((n, ig.k2))
    for i, (kind, idx) in enumerate(order):
        (t if kind == "t" else s)[:, idx - 1] = C[:, i]
    try:
        vals = raw_integrand(ig, magnitude=magnitude)(t, s)
    except NearSingularError as exc:
        raise IntegrandSingularError(f"quadrature node hit a singular facet: {exc}") from exc
    logJ = np.zeros(n)
    for i in range(1, K):
        logJ += np.log(C[:, i - 1])
    if halfline:
        rt, rs = ig.exp_rates
        L = rt * t.sum(axis=1) + rs * s.sum(axis=1)
        H = aw.w0[0] + 1.0
        logJ += L + gammaln(H) - H * np.log(L)
    logw = np.zeros(n)
    for i in range(1 if halfline else 0, K):
        logw += aw.w0[i] * np.log(R[:, i]) + aw.w1[i] * np.log1p(-R[:, i])
    sign = np.sign(vals)
    with np.errstate(divide="ignore"):
        logabs = np.log(np.abs(np.where(sign == 0.0, 1.0, vals)))
    out = sign * np.exp(logabs + logJ - logw)
    if not np.all(np.isfinite(out)):
        raise IntegrandSingularError("non-finite Monte Carlo values; transform mismatch")
    return out


def raw_mc_value(ig, order, aw, q):
    """Monte Carlo estimate (mean, error) through ``raw_ratio``, with the
    samples ``quadrature._mc_value`` draws: the same generator calls in
    the same order, none for the half-line's top coordinate."""
    import math

    from scipy.special import betaln

    K = len(order)
    rng = np.random.default_rng(q.seed)
    n = q.sample_count
    logdens_const = 0.0
    clip = 1e-12
    R = np.ones((n, K))
    for i in range(1 if ig.interval == "0inf" else 0, K):
        ai, bi = aw.w0[i] + 1.0, aw.w1[i] + 1.0
        R[:, i] = np.clip(rng.beta(ai, bi, size=n), clip, 1.0 - clip)
        logdens_const -= betaln(ai, bi)
    vals = raw_ratio(ig, order, aw, R) * math.exp(-logdens_const)
    mean = float(np.mean(vals))
    err = float(np.std(vals, ddof=1) / math.sqrt(n))
    return mean, err


# ---------------------------------------------------------------------------
# sector rule: plain loops over trees and nodes on raw gaps
# ---------------------------------------------------------------------------

def cartesian_tree(g):
    """Parent tuple (-1 at the root) of the sector holding gap vector g:
    the largest gap is the root, and each side of it is split the same way."""
    parent = [None] * len(g)

    def split(lo, hi, up):
        if lo > hi:
            return
        top = max(range(lo, hi + 1), key=lambda j: g[j])
        parent[top] = up
        split(lo, top - 1, top)
        split(top + 1, hi, top)

    split(0, len(g) - 1, -1)
    return tuple(parent)


def heap_trees(N):
    """Every sector on N gaps, as the distinct Cartesian trees of the N!
    orderings of the gaps."""
    return sorted({cartesian_tree(perm) for perm in permutations(range(N))})


def raw_gap_integrand(ig, order, g):
    """The integrand an ``Integrand`` describes, at one unnormalized gap
    vector g of a domain (merged descending ``order``), in its projective
    form: homogeneous of degree -N in g.

    Every coordinate, complement and difference is an fsum of consecutive
    gaps.  On [0,1] the point is g / sum(g) and the value carries
    sum(g)^-N; on the half-line the coordinates are the gaps' tail sums
    and the scale integral Gamma(H) L^-H, H = degree + N, replaces e^-L.
    """
    import math

    K, N = len(order), len(g)
    halfline = ig.interval == "0inf"
    off = 0 if halfline else 1
    total = math.fsum(g)
    gg = list(g) if halfline else [x / total for x in g]
    c = [math.fsum(gg[i + off:]) for i in range(K)]
    om = [math.fsum(gg[:i + 1]) for i in range(K)]

    def diff(i, j):  # c_i - c_j
        if i < j:
            return math.fsum(gg[i + off:j + off])
        return -math.fsum(gg[j + off:i + off])

    a, gm, b1, b2 = ig.alpha, ig.gamma, ig.beta1, ig.beta2
    pos_t = {idx: i for i, (knd, idx) in enumerate(order) if knd == "t"}
    pos_s = {idx: i for i, (knd, idx) in enumerate(order) if knd == "s"}
    k1, k2 = ig.k1, ig.k2
    val, degree = 1.0, 0.0
    for i, (knd, _) in enumerate(order):
        if knd == "t":
            val *= c[i] ** (a - 1.0)
            degree += a - 1.0
        if not halfline:
            val *= om[i] ** ((b1 if knd == "t" else b2) - 1.0)
        for j in range(i + 1, K):
            e = 2.0 * gm if order[j][0] == knd else -gm
            val *= diff(i, j) ** e
            degree += e
    kk = k1 - k2
    if ig.kind != "plain":
        total_w = 0.0
        for sigma in permutations(range(k1)):
            for tau in permutations(range(k2)):
                ts = [pos_t[x + 1] for x in sigma]
                ss = [pos_s[x + 1] for x in tau]
                term = 1.0
                if ig.kind == "g":
                    for b in range(k2):
                        term /= diff(ss[b], ts[b + kk])
                    wdeg = -k2
                else:
                    l1, l2, m = ig.indices
                    for x in range(l1):
                        term *= c[ts[x]]
                    for x in range(l1, k1):
                        term *= om[ts[x]]
                    for b in range(m):
                        numer = om[ts[b]] if ig.kind == "ht" else om[ss[b]]
                        term *= numer / diff(ss[b], ts[b])
                    for b in range(l2, k2):
                        term *= om[ss[b]] / diff(ss[b], ts[b + kk])
                    wdeg = k1
                total_w += term
        val *= total_w / (factorial(k1) * factorial(k2))
        degree += wdeg
    if halfline:
        rates = [ig.exp_rates[0 if knd == "t" else 1] for knd, _ in order]
        L = math.fsum(r * x for r, x in zip(rates, c))
        H = degree + N
        return val * math.exp(math.lgamma(H) - H * math.log(L))
    return val * total ** (-N)


def brute_sector_values(ig, order, parent, E, ys):
    """integrand x Jacobian / model at sector points: ``ys`` holds one y
    tuple per point, over the non-root gaps in index order.  g_root = 1,
    g_v = g_parent * y_v, the Jacobian is the product of g_parent over
    the non-root gaps, and the model is prod y^E."""
    import math

    N = len(parent)
    axes = [v for v in range(N) if parent[v] != -1]
    out = []
    for y in ys:
        yv = dict(zip(axes, y))
        g = [None] * N

        def gap(v):
            if g[v] is None:
                g[v] = 1.0 if parent[v] == -1 else gap(parent[v]) * yv[v]
            return g[v]

        for v in range(N):
            gap(v)
        jac = math.prod(g[parent[v]] for v in axes)
        model = math.prod(yv[v] ** e for v, e in zip(axes, E))
        out.append(raw_gap_integrand(ig, order, g) * jac / model)
    return out


def brute_sector_sum(ig, order, parent, E, n):
    """One sector's n-node tensor Gauss-Jacobi sum, by plain loops: axis
    d integrates y^E[d] on [0,1] with scipy's rule mapped by y = (1+x)/2."""
    from itertools import product

    from scipy.special import roots_jacobi

    rules = []
    for e in E:
        x, w = roots_jacobi(n, 0.0, e)
        rules.append(list(zip((1.0 + x) / 2.0, w * 2.0 ** (-(e + 1.0)))))
    points = list(product(*rules))
    vals = brute_sector_values(ig, order, parent, E, [tuple(y for y, _ in pt) for pt in points])
    total = 0.0
    for pt, v in zip(points, vals):
        wt = 1.0
        for _, w in pt:
            wt *= w
        total += wt * v
    return total


def brute_domain_value(ig, order, n, members=()):
    """The sector rule's value on one domain at n nodes per axis: the sum
    of ``brute_sector_sum`` over ``heap_trees``, each sector at the rule
    exponents the package assigns it (those of the family ``ig`` +
    ``members``, when given)."""
    from selberg3.quadrature import _describe, _sector_exponents, _sector_table

    fam = (ig, *members)
    descs = [_describe(m, tuple(order)) for m in fam]
    table = _sector_table(descs[0].N)
    E = _sector_exponents(descs, table)
    rows = {tree.parent: E[s] for s, tree in enumerate(table.trees)}
    return sum(brute_sector_sum(ig, order, parent, [float(e) for e in rows[parent]], n)
               for parent in heap_trees(descs[0].N))


class LogSectorFrame:
    """One sector's points in the log domain, the way the factored sector
    frame replaced: log g_v is a path sum of log y, log S of a run is its
    top gap's log plus log1p of the other gaps' ratios to it, and the
    model is its own full-grid log, (descendants - E) . log y."""

    def __init__(self, tree, LY, E, desc):
        self.tree, self.LY, self.E, self.desc = tree, LY, E, desc
        self._rel = {}

    def log_ratio(self, top, j):
        """log(g_j / g_top) for j in the subtree of top (0 at j = top)."""
        if j == top:
            return 0.0
        if (top, j) not in self._rel:
            self._rel[top, j] = self.log_ratio(top, self.tree.parent[j]) + self.LY[j]
        return self._rel[top, j]

    def log_sum(self, lo, hi):
        top = self.tree.top[lo][hi]
        rest = None
        for j in range(lo, hi + 1):
            if j != top:
                r = np.exp(self.log_ratio(top, j))
                rest = r if rest is None else rest + r
        lsum = self.log_ratio(self.tree.root, top)
        return lsum if rest is None else lsum + np.log1p(rest)

    def log_model(self):
        return sum(((c - e) * self.LY[v] for v, c, e in zip(self.tree.axes, self.desc, self.E)),
                   0.0)


def log_domain_sector_values(descs, tree, LY, E, desc):
    """integrand x Jacobian / model of a described family on one sector,
    one array per member, every factor and every weight term a sum of
    logs taken through one exp each: ``LY`` maps each non-root node to its
    log y view, ``E`` and ``desc`` are the sector's exponents and
    descendant counts per axis."""
    frame = LogSectorFrame(tree, LY, E, desc)
    d = descs[0]
    logf = frame.log_model()
    for lo, hi, e in d.factors:
        logf = logf + e * frame.log_sum(lo, hi)
    if d.halfline:
        H = d.degree + d.wdegree + d.N
        L = sum(rate * np.exp(frame.log_sum(lo, hi)) for lo, hi, rate in d.scale)
        logf = logf + (gammaln(H) - H * np.log(L))
        proj = 0.0
    else:
        proj = frame.log_sum(0, d.N - 1)
        logf = logf - (d.degree + d.N) * proj
    base = np.exp(logf)
    out = []
    for member in descs:
        if not member.terms:
            out.append(base)
            continue
        weight = 0.0
        for coef, facs in member.terms:
            lt = -member.wdegree * proj
            for lo, hi, x in facs:
                lt = lt + x * frame.log_sum(lo, hi)
            weight = weight + coef * np.exp(lt)
        out.append(base * weight)
    return out


# ---------------------------------------------------------------------------
# paper content that no registered identity reaches
# ---------------------------------------------------------------------------

def nk_constant(k: int, alpha: float, gamma: float):
    """Complex normalization constant of the looping-contour comparison.

    Returned as (magnitude, phase), the magnitude a ``LogSigned``; the
    phase is reduced to (-pi, pi].
    """
    import cmath
    import math

    from selberg3.errors import DegenerateError
    from selberg3.logreal import LogSigned

    sg = math.sin(math.pi * gamma)
    if abs(sg) < 1e-12:
        raise DegenerateError(f"sin(pi*gamma) vanishes at gamma={gamma!r}")
    acc = complex(1.0, 0.0)
    mag = LogSigned.one()
    for j in range(k):
        val = (2j * cmath.exp(1j * math.pi * alpha)
               * math.sin(math.pi * (alpha + j * gamma))
               * math.sin(math.pi * (gamma + j * gamma)) / sg)
        r, phi = cmath.polar(val)
        if r == 0.0:
            return LogSigned.zero(), 0.0
        mag = mag * LogSigned(1, math.log(r))
        acc *= cmath.exp(1j * phi)
    return mag, cmath.phase(acc)


def aomoto_ratio_residuals(k: int, p) -> list[float]:
    """Residuals of (alpha+(k-l-1)g) I_l = (beta+lg) I_{l+1}, l = 0..k-1,
    between the package's moment closed forms, then of the two boundary
    moments against the plain product form."""
    from selberg3.closed_forms import aomoto_rhs, selberg_rhs

    a, b, g = p.alpha, p.beta, p.gamma
    out = []
    vals = [aomoto_rhs(k, l, p).to_float() for l in range(k + 1)]
    for l in range(k):
        lhs = (a + (k - l - 1) * g) * vals[l]
        rhs = (b + l * g) * vals[l + 1]
        out.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    s_b1 = selberg_rhs(p.with_(k1=k, k2=0, beta1=p.beta + 1.0)).to_float()
    s_a1 = selberg_rhs(p.with_(k1=k, k2=0, alpha=p.alpha + 1.0)).to_float()
    out.append(abs(vals[0] - s_b1) / abs(s_b1))
    out.append(abs(vals[k] - s_a1) / abs(s_a1))
    return out
