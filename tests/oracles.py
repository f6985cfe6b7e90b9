"""Independent oracles used by the test suite.

Everything here is deliberately naive: exact rational arithmetic where
possible, explicit loops over permutations, high-precision special
functions from mpmath.  None of it shares code with the package paths it
checks, except two references at the end that the package must reproduce
bit for bit:

* the lattice-summand references run the package's point evaluators
  (``phi_sign_log``, ``weight_w``, ``f_off_lattice``, ``_draw_direction``)
  point by point, the way the batched table and probe paths replaced;
* the chain-quadrature reference takes the package's per-axis rules
  (``_axis_rule``) and lays the frame out over the full node mesh, the
  way the broadcast tensor frame replaced.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

import mpmath as mp
import numpy as np

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
    """(mask, values) of the lattice summand: ``phi_sign_log`` and
    ``weight_w`` on the regular points, 0 elsewhere."""
    from selberg3.integrands import lattice_shift, phi_sign_log, weight_w

    n, k1, k2 = NU.shape[0], NU.shape[1], NV.shape[1]
    regular = regular_mask(NU, NV, p)
    vals = np.zeros(n)
    idx = np.where(regular)[0]
    if idx.size:
        U = NU[idx] + lattice_shift(k1, p.gamma)[None, :]
        V = NV[idx] + lattice_shift(k2, p.gamma)[None, :] if k2 else np.zeros((idx.size, 0))
        sign, logm = phi_sign_log(U, V, p, zero_tol=1e-9)
        fv = sign * np.exp(logm)
        if include_weight and k2:
            nz = fv != 0.0
            if np.any(nz):
                fv[nz] = fv[nz] * weight_w(U[nz], V[nz], p.gamma)
        vals[idx] = fv
    return regular, vals


def sequential_limit_pair(pt, p, seed=7919, include_weight=True):
    """Two directional limits at one lattice point, one direction at a time.

    Directions come from the package's ``_draw_direction`` and probes from
    its ``f_off_lattice``: the batched path must reproduce this loop, not
    merely approximate the limit.
    """
    from selberg3 import integrands
    from selberg3.errors import NearSingularError, PoleError

    scale = min(1.0, abs(p.gamma))
    eps_list = [1e-2 * scale, 1e-3 * scale, 1e-4 * scale]
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(10):
        if len(results) == 2:
            break
        du, dv = integrands._draw_direction(rng, pt, p)
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
    assert len(results) == 2, "probes kept hitting singular hyperplanes"
    return tuple(results)


# ---------------------------------------------------------------------------
# deterministic chain quadrature: the full node mesh the broadcast frame
# replaces
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


def _mesh_rational_weight(integrand, order, frame):
    kind, n = integrand.kind, frame.n
    if kind == "plain":
        return np.ones(n)
    k1, k2 = integrand.k1, integrand.k2
    if kind == "callable":
        t = np.empty((n, k1))
        s = np.empty((n, k2))
        for i, (knd, idx) in enumerate(order):
            (t if knd == "t" else s)[:, idx - 1] = frame.C[:, i]
        return integrand.fn(t, s)
    pos_t = {idx: i for i, (knd, idx) in enumerate(order) if knd == "t"}
    pos_s = {idx: i for i, (knd, idx) in enumerate(order) if knd == "s"}
    tval = [frame.C[:, pos_t[a]] for a in range(1, k1 + 1)]
    omt = [frame.OM[:, pos_t[a]] for a in range(1, k1 + 1)]
    oms = [frame.OM[:, pos_s[b]] for b in range(1, k2 + 1)]

    def gap_st(b, a):
        pa, pb = pos_s[b + 1], pos_t[a + 1]
        if pa < pb:
            return np.exp(frame.lgap(pa, pb))
        return -1.0 * np.exp(frame.lgap(pb, pa))

    kk = k1 - k2
    total = np.zeros(n)
    if kind == "g":
        for sigma in permutations(range(k1)):
            for tau in permutations(range(k2)):
                term = np.ones(n)
                for b in range(k2):
                    term = term / gap_st(tau[b], sigma[b + kk])
                total += term
    elif kind in ("h", "ht"):
        l1, l2, m = integrand.indices
        for sigma in permutations(range(k1)):
            base = np.ones(n)
            for aa in range(l1):
                base = base * tval[sigma[aa]]
            for aa in range(l1, k1):
                base = base * omt[sigma[aa]]
            for tau in permutations(range(k2)):
                term = base.copy()
                for b in range(m):
                    numer = omt[sigma[b]] if kind == "ht" else oms[tau[b]]
                    term = term * numer / gap_st(tau[b], sigma[b])
                for b in range(l2, k2):
                    term = term * oms[tau[b]] / gap_st(tau[b], sigma[b + kk])
                total += term
    else:  # moment, moment_plain
        (ell,) = integrand.indices
        for sigma in permutations(range(k1)):
            term = np.ones(n)
            for aa in range(ell):
                term = term * tval[sigma[aa]]
            if kind == "moment":
                for aa in range(ell, k1):
                    term = term * omt[sigma[aa]]
            total += term
        return total / factorial(k1)
    return total / (factorial(k1) * factorial(k2))


def mesh_det_value(integrand, order, aw, n, q):
    """One tensor Gauss-Jacobi rule on one domain, every array laid out
    over the full node mesh.

    The per-axis rules come from the package's ``_axis_rule``; the frame,
    weight and sum are the full-size path the broadcast frame replaced,
    which the package must reproduce bit for bit.
    """
    from selberg3.quadrature import _axis_rule

    K = len(order)
    a, g, b1, b2 = integrand.alpha, integrand.gamma, integrand.beta1, integrand.beta2
    rules = [_axis_rule(n, aw.w0[i], aw.w1[i], q) for i in range(K)]
    LOGR = mesh([r[0] for r in rules])
    LOGX = mesh([r[1] for r in rules])
    W = np.prod(mesh([r[2] for r in rules]), axis=1)
    frame = MeshChainFrame(LOGR, LOGX)
    logf = np.zeros(frame.n)
    if integrand.kind != "callable":
        for i, (kndi, _) in enumerate(order):
            if kndi == "t":
                logf += (a - 1.0) * frame.LS[:, i] + (b1 - 1.0) * frame.LOM[:, i]
            else:
                logf += (b2 - 1.0) * frame.LOM[:, i]
        for i in range(K):
            for j in range(i + 1, K):
                expo = 2.0 * g if order[i][0] == order[j][0] else -g
                logf += expo * frame.lgap(i, j)
    for i in range(1, K):
        logf += frame.LS[:, i - 1]
    for i in range(K):
        logf -= aw.w0[i] * LOGR[:, i] + aw.w1[i] * LOGX[:, i]
    vals = np.exp(logf) * _mesh_rational_weight(integrand, order, frame)
    return float(np.dot(W, vals))
