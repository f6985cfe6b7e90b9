"""Quadrature over interleaving domains and chains.

Each domain is one descending chain of the k1+k2 coordinates, so the
nested-ratio substitution c_i = c_{i-1} * r_i maps it onto the unit cube
with every singular facet sent to a coordinate hyperplane.  The facet
behavior is captured per axis by a pair of endpoint exponents:

* at r_i = 0 the whole inner block collapses to the origin, and the
  exponent is the scaling degree of integrand times Jacobian there;
* at r_i = 1 two chain-adjacent coordinates collide, and the exponent is
  the coincidence power of that pair (including the -1 of a rational
  pole when the identity carries one).

The deterministic scheme integrates with a tensor product of Gauss-Jacobi
rules carrying exactly those endpoint weights, composed with a per-axis
polynomial smoothing map r = I_xi(q, q) (regularized incomplete beta).
The smoothing map multiplies the algebraic order of the remaining corner
singularities (coincidences of non-adjacent coordinates, which no
per-axis weight can absorb) and is what makes dimension-3 runs converge
to ~1e-8 instead of ~1e-3.  All integrand factors are rebuilt from
per-axis (r, 1-r) pairs in product form, never by subtracting nearly
equal coordinates, so nodes exponentially close to facets lose no
precision.

The tensor grid stays a broadcast product: each axis rule is one
length-n vector viewed along its own axis of an (n,)*K grid, and chain
position i depends on axes 0..i only, so its log-coordinate, coordinate
and complement arrays have shape (n,)*(i+1) padded with ones, and a gap
spans the axes between its two positions.  Only the weight product, the
log power product, the rational weight and the values fill the grid.
Each elementwise operation and reduction runs in the same order as over
a full (n**K, K) node mesh, so the values match that mesh bit for bit.

Integrands that differ only in their weight form a family, which shares
one frame per domain and rule: the axis rules, frame, weight product,
power product and coordinate rows are built once, and each member adds
its own weight and weighted sum, bit-identical to a run on its own.

On the half-line the integrand is homogeneous in the overall scale
apart from its exponential factors, so both schemes put the top
coordinate at c_0 = 1 and integrate the scale in closed form, to
Gamma(H) L^(-H) (the Laguerre limit of Selberg's integral).  Only the
K - 1 inner ratio axes carry a rule or samples.

The Monte Carlo scheme importance-samples the matching beta densities
and averages integrand/model, which is bounded by construction.  It
evaluates through the same chain frame, built from the sampled log r
columns in fixed blocks of rows, so both schemes derive every value
from the integrand's description by one code path; no raw-coordinate
evaluator exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import permutations

import numpy as np
from scipy.special import betainc, betaln, gammaln, roots_jacobi

from .chains import Chain, OrderMap, merged_order
from .errors import DomainError, IntegrandSingularError
from .integrands import Integrand
from .params import ParamSet


@dataclass(frozen=True)
class QuadSpec:
    """How to integrate: scheme, resolution, and reproducibility seed."""

    scheme: str = "deterministic"  # or "monte_carlo"
    nodes_per_axis: int = 0        # 0 = pick by dimension
    sample_count: int = 200_000
    seed: int = 20070920
    smooth_order: int = 4          # q of the per-axis smoothing map

    def nodes_for(self, dim: int) -> int:
        if self.nodes_per_axis:
            return self.nodes_per_axis
        return {0: 1, 1: 96, 2: 72, 3: 88, 4: 24}.get(dim, 12)


@dataclass(frozen=True)
class AxisWeights:
    """Endpoint exponents (w0 at r=0, w1 at r=1) for each chain axis."""

    w0: tuple
    w1: tuple  # w1[0] is None on the half-line


def facet_exponents(integrand: Integrand, M: OrderMap) -> AxisWeights:
    """Endpoint exponent table of one domain for one integrand.

    The r=0 exponent is pessimistic about rational poles: each
    symmetrization term carries ``pole_count`` pole factors, of which at
    most min(pole_count, #inner t, #inner s) can collapse with the inner
    block.  Overestimating a zero is harmless (the bounded ratio then
    vanishes at the facet); underestimating a pole is not.
    """
    k1, k2 = integrand.k1, integrand.k2
    order = merged_order(M, k1, k2)
    K = k1 + k2
    a, g = integrand.alpha, integrand.gamma
    P = integrand.pole_count

    w0 = []
    for i in range(K):
        inner = order[i:]
        nt = sum(1 for kind, _ in inner if kind == "t")
        ns = len(inner) - nt
        h = (nt * (a - 1.0)
             + 2.0 * g * (nt * (nt - 1) // 2 + ns * (ns - 1) // 2)
             - g * nt * ns
             - min(P, nt, ns))
        w0.append(h + (K - 1 - i))

    w1 = []
    for i in range(K):
        if i == 0:
            if integrand.interval == "01":
                kind = order[0][0]
                w1.append(integrand.beta1 - 1.0 if kind == "t" else integrand.beta2 - 1.0)
            else:
                w1.append(None)
        else:
            if order[i - 1][0] == order[i][0]:
                w1.append(2.0 * g)
            else:
                w1.append(-g - (1.0 if P > 0 else 0.0))
    return AxisWeights(tuple(w0), tuple(w1))


# ---------------------------------------------------------------------------
# deterministic engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _axis_rule(n: int, w0: float, w1: float, q: int):
    """Nodes of one smoothed Gauss-Jacobi axis.

    Returns read-only (logr, logx, weight) with x = 1-r; the weight folds
    the Jacobi weight of the lifted exponents together with the smooth
    parts of the substitution r = I_xi(q, q).  Memoized: domains and
    records at equal exponents share their rules.
    """
    a_lift = q * w1 + q - 1.0
    b_lift = q * w0 + q - 1.0
    xj, wj = roots_jacobi(n, a_lift, b_lift)
    xi = 0.5 * (xj + 1.0)
    omxi = 0.5 * (1.0 - xj)
    wj = wj * 2.0 ** (-(a_lift + b_lift + 1.0))
    r = betainc(q, q, xi)
    x = betainc(q, q, omxi)  # exact complement of r
    u0 = r / xi ** q
    u1 = x / omxi ** q
    logbeta_qq = betaln(q, q)
    with np.errstate(over="ignore", invalid="ignore"):
        weight = wj * np.exp(w0 * np.log(u0) + w1 * np.log(u1) - logbeta_qq)
    if not np.all(np.isfinite(weight)):  # large exponents overflow the rule
        raise IntegrandSingularError(f"non-finite quadrature rule weights at "
                                     f"exponents ({w0}, {w1})")
    logr = np.where(r > 0.5, np.log1p(-x), np.log(r))
    logx = np.log(x)
    for arr in (logr, logx, weight):
        arr.flags.writeable = False
    return logr, logx, weight


# the half-line's axis 0: c_0 = 1 (log r = 0), no 1 - r, weight 1
_SCALE_NODE = (np.zeros(1), None, np.ones(1))


def _on_axis(v: np.ndarray, i: int, K: int) -> np.ndarray:
    """View of a per-axis vector along axis i of a K-dimensional grid."""
    return v.reshape((1,) * i + (-1,) + (1,) * (K - 1 - i))


class _ChainFrame:
    """Stable geometry of the chain coordinates on a set of points.

    ``LOGR[i]``/``LOGX[i]`` hold log r_i and log(1 - r_i) of chain axis i,
    already placed: views along axis i of the deterministic (n,)*K grid,
    or sample columns for Monte Carlo.  ``shape`` is their broadcast
    shape, and each derived array keeps the smallest shape its inputs
    allow.  Cumulative logs give the coordinates, and all pairwise gaps
    c_i - c_j come out in product form c_i * (1 - exp(sum of inner log r)).
    ``C``, ``OM`` and ``LOM`` are built on first use, so a half-line
    frame, whose coordinates may exceed 1, never logs 1 - c.
    """

    def __init__(self, LOGR, LOGX):
        self.LOGR = list(LOGR)
        self.LOGX = list(LOGX)
        self.shape = np.broadcast_shapes(*(v.shape for v in self.LOGR))
        self.LS = [self.LOGR[0]]                # log c_i
        for i in range(1, len(self.LOGR)):
            self.LS.append(self.LS[i - 1] + self.LOGR[i])
        self._lgap = {}

    @cached_property
    def C(self):
        return [np.exp(ls) for ls in self.LS]

    @cached_property
    def OM(self):
        return [-np.expm1(ls) for ls in self.LS]   # 1 - c_i

    @cached_property
    def LOM(self):
        return [np.log(om) for om in self.OM]

    def lgap(self, i: int, j: int) -> np.ndarray:
        """log(c_i - c_j) for chain positions i < j.

        The inner log-sum is taken over the raw per-axis logs, left to
        right, not as a difference of cumulatives, which would cancel
        catastrophically when a node sits exponentially close to a facet.
        """
        key = (i, j)
        if key not in self._lgap:
            inner = self.LOGR[i + 1]
            for m in range(i + 2, j + 1):
                inner = inner + self.LOGR[m]
            self._lgap[key] = self.LS[i] + np.log(-np.expm1(inner))
        return self._lgap[key]


def _signed_gap(frame: _ChainFrame, pos_a: int, pos_b: int):
    """(sign, log|c_a - c_b|) with sign + when pos_a is the larger coordinate."""
    if pos_a < pos_b:
        return 1.0, frame.lgap(pos_a, pos_b)
    return -1.0, frame.lgap(pos_b, pos_a)


def _rational_weight(integrand: Integrand, order, frame: _ChainFrame, rows=None):
    """Symmetrized rational/polynomial weight evaluated from the frame,
    broadcastable to its grid (1.0 for a plain integrand).  A 'callable'
    integrand reads the coordinate rows (t, s) of the frame's points."""
    kind = integrand.kind
    if kind == "plain":
        return 1.0
    k1, k2 = integrand.k1, integrand.k2
    if kind == "callable":
        return integrand.fn(*rows).reshape(frame.shape)
    pos_t = {idx: i for i, (knd, idx) in enumerate(order) if knd == "t"}
    pos_s = {idx: i for i, (knd, idx) in enumerate(order) if knd == "s"}
    if kind != "g":  # a 'g' weight needs gaps only; 1 - c may be negative on the half-line
        tval = [frame.C[pos_t[a]] for a in range(1, k1 + 1)]
        omt = [frame.OM[pos_t[a]] for a in range(1, k1 + 1)]
        oms = [frame.OM[pos_s[b]] for b in range(1, k2 + 1)]

    def gap_st(b, a):
        """s_b - t_a as a signed value."""
        sign, lg = _signed_gap(frame, pos_s[b + 1], pos_t[a + 1])
        return sign * np.exp(lg)

    kk = k1 - k2
    total = np.zeros(frame.shape)
    if kind == "g":
        for sigma in permutations(range(k1)):
            for tau in permutations(range(k2)):
                term = 1.0
                for b in range(k2):
                    term = term / gap_st(tau[b], sigma[b + kk])
                total += term
    elif kind in ("h", "ht"):
        l1, l2, m = integrand.indices
        twisted = kind == "ht"
        for sigma in permutations(range(k1)):
            base = term = 1.0  # frees the last sigma's grid before the next is built
            for aa in range(l1):
                base = base * tval[sigma[aa]]
            for aa in range(l1, k1):
                base = base * omt[sigma[aa]]
            for tau in permutations(range(k2)):
                term = base
                for b in range(m):
                    numer = omt[sigma[b]] if twisted else oms[tau[b]]
                    term = term * numer / gap_st(tau[b], sigma[b])
                for b in range(l2, k2):
                    term = term * oms[tau[b]] / gap_st(tau[b], sigma[b + kk])
                total += term
    else:
        raise DomainError(f"unknown rational weight kind {kind!r}")
    return total / (math.factorial(k1) * math.factorial(k2))


def _frame_values(members, order, aw: AxisWeights, frame: _ChainFrame):
    """integrand * Jacobian / per-axis weight models on the frame's points,
    yielded one array per member of a family.

    The members share everything but the weight, so the power product,
    Jacobian and models (and a 'callable' family's coordinate rows) are
    built once and each member multiplies in only its own weight.  On
    the half-line the frame's top coordinate is c_0 = 1 and axis 0 has
    no model: the overall scale is integrated in closed form instead.
    Apart from e^(-rate c) the integrand times Jacobian is homogeneous of
    degree H - 1 in the scale, H = w0[0] + 1, so the scale axis gives
    Gamma(H) L^(-H) with L the sum of rate * c over the chain.
    """
    ig = members[0]
    K = len(order)
    a, g, b1, b2 = ig.alpha, ig.gamma, ig.beta1, ig.beta2
    halfline = ig.interval == "0inf"

    # log of the power-product part of integrand * Jacobian / axis models;
    # a 'callable' integrand is a black box, so only Jacobian and models
    # are handled structurally for it
    logf = np.zeros(frame.shape)
    if ig.kind != "callable":
        for i, (kndi, _) in enumerate(order):
            if halfline:
                if kndi == "t":
                    logf += (a - 1.0) * frame.LS[i]
            elif kndi == "t":
                logf += (a - 1.0) * frame.LS[i] + (b1 - 1.0) * frame.LOM[i]
            else:
                logf += (b2 - 1.0) * frame.LOM[i]
        for i in range(K):
            for j in range(i + 1, K):
                same = order[i][0] == order[j][0]
                expo = 2.0 * g if same else -g
                logf += expo * frame.lgap(i, j)
        if halfline:
            H = aw.w0[0] + 1.0
            L = sum(ig.exp_rates[0 if knd == "t" else 1] * frame.C[i]
                    for i, (knd, _) in enumerate(order))
            logf += gammaln(H) - H * np.log(L)
    for i in range(1, K):
        logf += frame.LS[i - 1]  # Jacobian
    for i in range(1 if halfline else 0, K):
        logf -= aw.w0[i] * frame.LOGR[i] + aw.w1[i] * frame.LOGX[i]
    base = np.exp(logf)
    del logf  # no grid-sized log lives on while the members are evaluated
    rows = None
    if ig.kind == "callable":  # read-only coordinate rows (t, s), shared by the members
        t = np.empty(frame.shape + (ig.k1,))
        s = np.empty(frame.shape + (ig.k2,))
        for i, (knd, idx) in enumerate(order):
            (t if knd == "t" else s)[..., idx - 1] = frame.C[i]
        n = math.prod(frame.shape)
        rows = t.reshape(n, ig.k1), s.reshape(n, ig.k2)
        for arr in rows:
            arr.flags.writeable = False
    for member in members:
        yield base * _rational_weight(member, order, frame, rows)


def _det_value(members, order, aw: AxisWeights, n: int, q: int) -> list[float]:
    """One tensor rule on one domain: one value per member, all on one
    frame and weight product.  On the half-line axis 0 is the unit top
    coordinate, one node of weight 1, so the grid has n**(K-1) nodes."""
    K = len(order)
    rules = [_SCALE_NODE if i == 0 and members[0].interval == "0inf"
             else _axis_rule(n, aw.w0[i], aw.w1[i], q) for i in range(K)]
    frame = _ChainFrame([_on_axis(r[0], i, K) for i, r in enumerate(rules)],
                        [None if r[1] is None else _on_axis(r[1], i, K)
                         for i, r in enumerate(rules)])
    W = _on_axis(rules[0][2], 0, K)
    for i in range(1, K):
        W = W * _on_axis(rules[i][2], i, K)
    W = W.ravel()
    out = []
    for vals in _frame_values(members, order, aw, frame):
        if not np.all(np.isfinite(vals)):
            raise IntegrandSingularError("non-finite deterministic quadrature values")
        out.append(float(np.dot(W, vals.ravel())))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

MC_BLOCK_ROWS = 65_536  # sample rows per frame; bounds the working set


def _mc_value(members, order, aw: AxisWeights, q: QuadSpec) -> list[tuple[float, float]]:
    """(mean, standard error) per member, every member on the same draws."""
    K = len(order)
    rng = np.random.default_rng(q.seed)
    n = q.sample_count
    halfline = members[0].interval == "0inf"
    logdens_const = 0.0
    clip = 1e-12
    R = np.ones((n, K))
    for i in range(1 if halfline else 0, K):
        ai, bi = aw.w0[i] + 1.0, aw.w1[i] + 1.0
        R[:, i] = np.clip(rng.beta(ai, bi, size=n), clip, 1.0 - clip)
        logdens_const -= betaln(ai, bi)

    # on the half-line column 0 is the unit top coordinate, with no 1 - r
    vals = [np.empty(n) for _ in members]
    for lo in range(0, n, MC_BLOCK_ROWS):
        block = R[lo:lo + MC_BLOCK_ROWS]
        logr = [np.log(block[:, i]) for i in range(K)]
        logx = [None if i == 0 and halfline else np.log1p(-block[:, i]) for i in range(K)]
        frame = _ChainFrame(logr, logx)
        for out, v in zip(vals, _frame_values(members, order, aw, frame)):
            out[lo:lo + len(block)] = v
    result = []
    for v in vals:
        if not np.all(np.isfinite(v)):
            raise IntegrandSingularError("non-finite Monte Carlo values")
        v = v * math.exp(-logdens_const)
        result.append((float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(n))))
    return result


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def integrate_domain(integrand: Integrand, M: OrderMap, q: QuadSpec, p: ParamSet,
                     *, more=()) -> list[tuple[float, float]]:
    """Integrals of a family over one interleaving domain.

    The family is ``integrand`` followed by the integrands in ``more``,
    which differ from it only in their weight; they share the domain's
    rules, frame and power product.  Returns one (value, error estimate)
    per member.  The deterministic tensor rule is available up to rule
    dimension 4: K = k1 + k2 axes on [0,1], and K - 1 on the half-line,
    whose overall scale is integrated in closed form.  Monte Carlo
    handles everything else.
    """
    members = (integrand, *more)
    for ig in more:  # the weight (kind, indices, fn) is all that may differ
        if (replace(ig, fn=integrand.fn, kind=integrand.kind, indices=integrand.indices)
                != integrand or (ig.kind == "callable") != (integrand.kind == "callable")):
            raise ValueError(f"family members differ in more than their weight: {ig}")
    k1, k2 = integrand.k1, integrand.k2
    K = k1 + k2
    if K == 0:
        return [(1.0, 0.0)] * len(members)
    order = merged_order(M, k1, k2)
    aw = facet_exponents(integrand, M)
    if any(w <= -1.0 for w in aw.w0) or any(w is not None and w <= -1.0 for w in aw.w1):
        raise DomainError(f"facet exponent at or below -1; integral diverges: {aw}")

    halfline = integrand.interval == "0inf"
    if halfline and integrand.kind == "callable":
        raise DomainError("a black-box integrand on the half-line has no closed-form scale")

    if q.scheme == "deterministic":
        dim = K - 1 if halfline else K
        if dim > 4:
            raise DomainError("deterministic scheme requires k1 + k2 <= 4 (5 on the half-line)")
        n = q.nodes_for(dim)
        vals = _det_value(members, order, aw, n, q.smooth_order)
        vals2 = _det_value(members, order, aw, max(6, (2 * n) // 3), q.smooth_order)
        return [(v, abs(v - v2)) for v, v2 in zip(vals, vals2)]
    if q.scheme != "monte_carlo":
        raise DomainError(f"unknown quadrature scheme {q.scheme!r}")
    return _mc_value(members, order, aw, q)


def integrate_family(members, chain: Chain, q: QuadSpec,
                     p: ParamSet) -> list[tuple[float, float]]:
    """``integrate_chain`` of each member of a family, in one pass over
    the chain's domains: one (value, error) per member."""
    first, *more = members
    totals = [0.0] * len(members)
    errsq = [0.0] * len(members)
    for i, (M, coeff) in enumerate(chain.terms):
        qi = q if q.scheme == "deterministic" else replace(q, seed=q.seed + 104729 * i)
        for j, (val, err) in enumerate(integrate_domain(first, M, qi, p, more=more)):
            totals[j] += coeff * val
            errsq[j] += (coeff * err) ** 2
    return [(total, math.sqrt(e)) for total, e in zip(totals, errsq)]


def integrate_chain(integrand: Integrand, chain: Chain, q: QuadSpec,
                    p: ParamSet) -> tuple[float, float]:
    """Weighted sum of domain integrals; errors combined in quadrature."""
    return integrate_family([integrand], chain, q, p)[0]
