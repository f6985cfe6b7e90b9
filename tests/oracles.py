"""Independent oracles used by the test suite.

Everything here is deliberately naive: exact rational arithmetic where
possible, explicit loops over permutations, high-precision special
functions from mpmath.  None of it shares code with the package paths it
checks, except the references that the package must reproduce:

* the hand-written master product (``hand_phi_sign_log``) writes the
  summand's gamma factors out family by family on raw coordinates, with
  its own sign-log helpers, and adds their logs in the order the package
  fixes; the package derives the same product from one description of
  its factors, as ``phi_sign_log`` and through the factor tables, and
  must match it bit for bit;
* the lattice-summand references run ``hand_phi_sign_log`` and the
  package's ``weight_w`` and ``f_off_lattice`` point by point, and draw
  each point's probe directions one at a time with their own copy of the
  draw rule, the way the factor tables and the candidate block replaced;
* the series reference (``shell_by_shell_sum``) evaluates one shell of
  the cone at a time, the way the blocks of shells replaced, bit for bit;
* the per-record check references (``sequential_fval_support``,
  ``sequential_limit_direction``, ``per_l_jjl_shift``) evaluate one point
  at a time and solve both shifted tables once per l, the way the
  one-batch engines replaced, bit for bit;
* the exact recursion table (``exact_unit_table``) takes the package's
  relation coefficients, each float converted exactly, and walks the
  solver's columns in ``Fraction`` arithmetic at a unit seed;
* the per-member engine references (``per_member_aomoto``,
  ``per_member_chain_decomp``) integrate each moment or monomial as its
  own chain integral, the way the integrand-family engines replaced,
  bit for bit;
* the cone-membership tests (``domain_membership``,
  ``simplex_membership``) and the iid box sampler of the interleaved
  cone (``box_cone_monomial``, through ``cone_mask``) test membership
  point by point and integrate by rejection, apart from the chain
  decomposition;
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
    The package derives the same product from ``lattice_bases`` and must
    match this bit for bit (``zero_tol=1e-9`` is the factor tables'
    tolerance).
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    n = u.shape[0]
    k1, k2 = u.shape[1], v.shape[1]
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
        dvu = v[:, None, :] - u[:, :, None]  # (n, k1, k2)
        s3, l3 = _sign_log_gamma(dvu - g + 1.0)
        accumulate(s3.reshape(n, -1).prod(axis=1), l3.reshape(n, -1).sum(axis=1))
        s4, l4 = _sign_log_recip_gamma(dvu + 1.0, zero_tol)
        accumulate(s4.reshape(n, -1).prod(axis=1), l4.reshape(n, -1).sum(axis=1))
    for block, kk in ((u, k1), (v, k2)):
        for i in range(kk):
            for j in range(i + 1, kk):
                d = block[:, i] - block[:, j]
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


def regular_values(NU, NV, p, include_weight=True):
    """(mask, values) of the lattice summand: ``hand_phi_sign_log`` and
    ``weight_w`` on the regular points, 0 elsewhere."""
    from selberg3.integrands import lattice_shift, weight_w

    n, k1, k2 = NU.shape[0], NU.shape[1], NV.shape[1]
    regular = regular_mask(NU, NV, p)
    vals = np.zeros(n)
    idx = np.where(regular)[0]
    if idx.size:
        U = NU[idx] + lattice_shift(k1, p.gamma)[None, :]
        V = NV[idx] + lattice_shift(k2, p.gamma)[None, :] if k2 else np.zeros((idx.size, 0))
        sign, logm = hand_phi_sign_log(U, V, p, zero_tol=1e-9)
        fv = sign * np.exp(logm)
        if include_weight and k2:
            nz = fv != 0.0
            if np.any(nz):
                fv[nz] = fv[nz] * weight_w(U[nz], V[nz], p.gamma)
        vals[idx] = fv
    return regular, vals


def _stuck_forms(pt, p, tol=1e-9):
    """(plus, minus) coordinate indices of every linear form of the summand
    with a factor argument within tol of an integer at pt; index K is the
    constant 0."""
    a, g = p.alpha, p.gamma
    c = pt.u.tolist() + pt.v.tolist() + [0.0]
    k1, k2 = pt.k1, pt.k2
    K = k1 + k2
    forms = [(i, K, lambda x: (x + a, x + 1.0)) for i in range(k1)]
    forms += [(k1 + j, i, lambda x: (x - g + 1.0, x + 1.0, x - g))
              for i in range(k1) for j in range(k2)]
    for off, kdim in ((0, k1), (k1, k2)):
        forms += [(off + i, off + j, lambda x: (x, x + g, x - g + 1.0))
                  for i in range(kdim) for j in range(i + 1, kdim)]
    return [(plus, minus) for plus, minus, args in forms
            if any(abs(y - round(y)) <= tol or abs(y) <= tol for y in args(c[plus] - c[minus]))]


def sequential_limit_pair(pt, p, seed=7919, include_weight=True, draws=None):
    """Two directional limits at one lattice point, one direction at a time.

    Each direction takes up to 32 uniform draws in [-1, 1]^K, skips those
    of max-norm below 1e-3, scales to unit max-norm and is accepted when
    every form with a factor argument at an integer (``_stuck_forms``)
    moves at rate >= 0.05 along it.  Its three probes go through the
    package's ``f_off_lattice``; a direction on which that raises is
    dropped, and at most 10 directions are tried for two.  ``draws``, rows
    of raw draws, replaces ``default_rng(seed)``.  This is the per-point
    loop the package's candidate block replaced, with its messages.
    """
    from selberg3 import integrands
    from selberg3.errors import LimitDisagreementError, NearSingularError, PoleError

    scale = min(1.0, abs(p.gamma))
    eps_list = [1e-2 * scale, 1e-3 * scale, 1e-4 * scale]
    K = pt.k1 + pt.k2
    rng = np.random.default_rng(seed)
    rows = iter(draws) if draws is not None else None
    stuck = _stuck_forms(pt, p)

    def draw_direction():
        for _ in range(32):
            d = next(rows) if rows is not None else rng.uniform(-1.0, 1.0, size=K)
            norm = np.abs(d).max()
            if norm < 1e-3:
                continue
            d = d / norm
            dd = d.tolist() + [0.0]
            if all(abs(dd[plus] - dd[minus]) >= 0.05 for plus, minus in stuck):
                return d[:pt.k1], d[pt.k1:]
        raise LimitDisagreementError("could not find a generic probe direction")

    results = []
    for _ in range(10):
        if len(results) == 2:
            break
        du, dv = draw_direction()
        uu = np.stack([pt.u + e * du for e in eps_list])
        vv = np.stack([pt.v + e * dv for e in eps_list])
        try:
            ys = integrands.f_off_lattice(uu, vv, p, include_weight=include_weight)
        except (PoleError, NearSingularError):
            continue
        tab = [float(y) for y in ys]
        for level in range(1, 3):
            for i in range(3 - level):
                tab[i] = ((eps_list[i + level] * tab[i] - eps_list[i] * tab[i + 1])
                          / (eps_list[i + level] - eps_list[i]))
        results.append(tab[0])
    if len(results) < 2:
        raise LimitDisagreementError("probe evaluations kept hitting singular hyperplanes")
    return tuple(results)


def sequential_limit_pairs(pts, p, seed=7919, include_weight=True, draws=None):
    """``sequential_limit_pair`` at each point in order, each pair checked
    as soon as it is found: two limits above 1e-10 must agree to 1e-6
    relative.  Returns an (m, 2) array."""
    from selberg3.errors import LimitDisagreementError

    out = []
    for pt in pts:
        a, b = sequential_limit_pair(pt, p, seed, include_weight, draws)
        scale = max(abs(a), abs(b))
        if abs(a - b) > 1e-6 * scale and scale > 1e-10:
            raise LimitDisagreementError(f"directional limits disagree: {a!r} vs {b!r} at {pt!r}")
        out.append((a, b))
    return np.array(out).reshape(-1, 2)


def sequential_point_value(pt, p, seed=7919, include_weight=True):
    """The lattice summand at one point: ``regular_values`` where it is
    regular, the mean of its checked sequential limit pair elsewhere."""
    NU, NV = np.array([pt.nu], dtype=float), np.array([pt.nv], dtype=float)
    regular, vals = regular_values(NU, NV, p, include_weight)
    if regular[0]:
        return float(vals[0])
    a, b = sequential_limit_pairs([pt], p, seed, include_weight)[0].tolist()
    return 0.5 * (a + b)


def sequential_fval_support(p, budget, seed, tol):
    """The support check one lattice point at a time: in-cone values in one
    batch, then each off-cone point on its own, in draw order."""
    from selberg3.integrands import LatticePoint, integer_parts_in_cone
    from selberg3.lattice import cone_array, lattice_values

    rng = np.random.default_rng(seed)
    k1, k2 = p.k1, p.k2
    cone = cone_array(k1, k2, 6).astype(float)
    in_vals = lattice_values(cone[:, :k1], cone[:, k1:], p, seed=seed)
    med = float(np.median(np.abs(in_vals[np.abs(in_vals) > 0])))
    npts = budget.points
    off = []
    while len(off) < npts:
        nu = tuple(int(x) for x in rng.integers(-4, 8, size=k1))
        nv = tuple(int(x) for x in rng.integers(-4, 8, size=k2))
        if not integer_parts_in_cone(nu, nv, k1, k2):
            off.append(LatticePoint(nu, nv, p.gamma))
    worst = 0.0
    for pt in off:
        worst = max(worst, abs(sequential_point_value(pt, p, seed=seed)))
    return worst / med, 0.0, 0.0, (tol if tol is not None else 1e-8), \
        f"max off-cone {worst:.2e} vs median in-cone {med:.2e}, {npts} points"


def sequential_limit_direction(p, budget, seed, tol):
    """The direction check one lattice point at a time, each probed on its
    own; a check that compared no point gets an infinite error."""
    from selberg3.integrands import LatticePoint
    from selberg3.lattice import cone_integer_parts

    rng = np.random.default_rng(seed)
    pts = [(nu, nv) for nu, nv in cone_integer_parts(p.k1, p.k2, 5)]
    rng.shuffle(pts)
    pts = pts[:min(budget.points, 20)]
    pairs = sequential_limit_pairs([LatticePoint(nu, nv, p.gamma) for nu, nv in pts], p, seed)
    worst = 0.0
    compared = 0
    for a, b in pairs.tolist():
        scale = max(abs(a), abs(b))
        if scale > 1e-12:
            worst = max(worst, abs(a - b) / scale)
            compared += 1
    err = 0.0 if compared else float("inf")
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


def per_member_aomoto(p, budget, seed, tol):
    """The moment check one chain integral per moment."""
    from selberg3 import closed_forms as cf
    from selberg3.chains import gamma_chain
    from selberg3.identities import _quad_spec
    from selberg3.integrands import assembled_integrand
    from selberg3.quadrature import integrate_chain

    k = p.k
    spec = _quad_spec(budget, seed)
    chain = gamma_chain(k, 0, p.gamma)
    worst = None
    for ell in range(k + 1):
        ig = assembled_integrand("aomoto", p, indices=ell)
        lhs, err = integrate_chain(ig, chain, spec, p)
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


def simplex_membership(t, s, x: float, y: float, k1: int, k2: int) -> bool:
    """Membership in the full interleaved cone (union of all domains)."""
    if k1 and (any(t[i] < t[i + 1] for i in range(k1 - 1)) or not (x <= t[k1 - 1] and t[0] <= y)):
        return False
    if k2 and (any(s[i] < s[i + 1] for i in range(k2 - 1)) or not (x <= s[k2 - 1] and s[0] <= y)):
        return False
    return all(s[b] >= t[b + k1 - k2] for b in range(k2))


# ---------------------------------------------------------------------------
# lattice series: one shell per evaluation, and the full lattice box
# ---------------------------------------------------------------------------

def shell_by_shell_sum(which, p, rel_tol=1e-10, max_bound=None, seed=7919):
    """``sum_discrete`` one shell at a time: each shell enumerated on its
    own and evaluated in one ``lattice_values`` call, the way the blocks
    of shells replaced, bit for bit.  Returns the ``SeriesResult`` and
    the list of shell sums."""
    import math

    from selberg3.lattice import (
        TABLE_START,
        FactorTables,
        SeriesResult,
        _z_derivatives,
        cone_array,
        lattice_values,
    )

    include_weight = which == "dexp3"
    k1, k2 = p.k1, (p.k2 if include_weight else 0)
    if max_bound is None:
        max_bound = 200 if k1 + k2 <= 2 else 60
    shells, moments = [], np.zeros(k1 + k2)
    partial, last, converged, bound, tables = 0.0, inf, False, 0, None
    for j in range(max_bound + 1):
        if tables is None or j > tables.hi:
            tables = FactorTables(k1, k2, p, 0, 2 * tables.width - 1 if tables else TABLE_START - 1)
        P = cone_array(k1, k2, j, least=j).astype(float)
        vals = lattice_values(P[:, :k1], P[:, k1:], p, include_weight=include_weight, seed=seed,
                              tables=tables) if P.shape[0] else np.zeros(0)
        last = math.fsum(vals.tolist())
        shells.append(last)
        moments += vals @ P
        partial = math.fsum(shells)
        bound = j
        if j >= 1 and partial != 0.0 and abs(last) <= rel_tol * abs(partial):
            converged = True
            break
    return SeriesResult(partial, last, bound, converged,
                        *_z_derivatives(k1, k2, p, partial, moments)), shells


def sum_over_total_lattice(p, bound, seed=7919):
    """Sum F over the full shifted lattice box [-bound, bound]^(k1+k2).

    Off-cone points contribute exact zeros (or limit values ~ 0); this is
    the at-scale check of the support statement.  Returns the sum.
    """
    import math

    from selberg3.lattice import lattice_values

    k1, k2 = p.k1, p.k2
    P = (np.indices((2 * bound + 1,) * (k1 + k2)).reshape(k1 + k2, -1).T - bound).astype(float)
    vals = lattice_values(P[:, :k1], P[:, k1:], p, include_weight=True, seed=seed)
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
    (n-2, n), n = ``q.nodes_per_axis``, from ``mesh_det_value`` on each
    domain: the value at n and |v(n) - v(n-2)|, added linearly."""
    from selberg3.chains import merged_order
    from selberg3.quadrature import facet_exponents

    k1, k2, n = integrand.k1, integrand.k2, q.nodes_per_axis
    total = err = 0.0
    for M, coeff in chain.terms:
        order, aw = merged_order(M, k1, k2), facet_exponents(integrand, M)
        val = mesh_det_value(integrand, order, aw, n)
        total += coeff * val
        err += abs(coeff) * abs(val - mesh_det_value(integrand, order, aw, n - 2))
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
