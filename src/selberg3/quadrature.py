"""Quadrature over interleaving domains and chains.

Each domain is one descending chain of the k1+k2 coordinates.  Its K
points cut the interval into gaps: on [0,1] there are N = K+1 of them,
g_0 = 1 - c_0, g_i = c_{i-1} - c_i and g_K = c_{K-1}; on the half-line
there are N = K, whose sum is the top coordinate c_0.  Each of c_i,
1 - c_i and c_i - c_j is the sum S[lo..hi] of one run of consecutive
gaps, so ``_describe`` writes every described integrand on a domain as
a list of (lo, hi, exponent) power factors and a list of rational-weight
terms, each a coefficient times a product of S[lo..hi]^(+-1).  One
evaluator, ``_described_values``, turns that description into integrand
x Jacobian / model on any frame that gives each run S[lo..hi] as a run R
(``_Runs``): the chain and stacked frames give each gap as a positive
product and R = S as the running sum of its gaps, with their own model.

The deterministic scheme is a sector rule (Binoth & Heinrich, Nucl.
Phys. B 585 (2000) 741).  It splits the simplex of gaps into one sector
per binary tree whose in-order is the gap order: the root is the largest
gap and each node is at least every gap below it, so there are
Catalan(N) sectors (5, 14, 42 for N = 3, 4, 5).  In a sector g_root = 1
(Cheng-Wu) and g_v = g_parent y_v with y in [0,1]^(N-1), so every gap sum
is its shallowest gap times a factor R in [1, length].  The integrand is
then a monomial in y times a smooth function, and one Gauss-Jacobi rule
per axis, weighted by the monomial, converges geometrically.  The
exponent of axis v is v's count of proper descendants (the Jacobian)
plus every power factor whose shallowest gap lies at or below v, plus
the least pole count over the weight terms; the remaining weight powers
are non-negative integers; each exponent is summed exactly, so one that
is an integer comes out as one.  The projective factor is
(sum g)^(-(D+N)) for total degree D, which is 0 on the half-line.  The
rules integrate the monomial, so a sector's frame (``_SectorFrame``)
carries only the smooth part: one exp of the power factors' log R, which
also takes the (sum g)^poles of the weight's projection that every
member shares, times the weight's terms, each its coefficient times the
integer monomial in y that its numerators leave, times products and
quotients of R.  The log parts that span fewer axes than the grid are
summed among themselves before they meet the full-size sum
(``_sum_by_span``).  The levels (``_refine``) start at the pair
(n - 1, n), n = ``nodes_for(dim)``, take |v(n) - v(n-1)| as the
estimate, and add one node per axis until every member's relative
estimate is within ``SECTOR_RTOL``, within ``SECTOR_MAX_NODES`` per axis
and ``SECTOR_MAX_GRID`` nodes per domain; an explicit ``nodes_per_axis``
fixes the pair (n-1, n).  Where the levels converge geometrically the
estimate is about the deviation at n - 1, so it bounds the one at n by
the rate per node, about 6x at rule dimension 4 (a two-node difference
overstated it 40-50x).  Each level's axis rules come from one batched
eigenvalue solve (``_jacobi_rules``).
Up to rule dimension ``STACK_DIM`` all sectors of a level share one
stacked frame, where numpy's per-call cost would otherwise dominate;
beyond it each sector broadcasts its own per-axis vectors, and each of
its arrays spans only the axes it depends on.  Gap ratios are products
of y along the tree, and no gap sum is ever taken as a difference.

On the half-line the integrand is homogeneous in the overall scale apart
from its exponential factors, so the scale is integrated in closed form
to Gamma(H) L^(-H), L the sum of rate x coordinate (the Laguerre limit of
Selberg's integral), and only the gap simplex carries a rule or samples.

One convergence rule (``divergent_cluster``) guards both schemes and the
validity predicates before any work: a cluster of points meeting at 1,
at 0 or inside diverges exactly where the sector exponent of the axis
that collapses it, or on the half-line the scale's, is at or below -1.
The chain frame's endpoint exponents (``facet_exponents``) are read off
the same description; they miss clusters that meet inside.  The Monte
Carlo scheme importance-samples their beta densities r^w0 (1-r)^w1 and
averages integrand/model through the chain frame, in fixed blocks of
rows.

Black-box ('callable') integrands are the empty product: a power product
or pole count in their fields raises ``DomainError``, as a rule without
that endpoint singularity would integrate it silently.  Their model is
the chain Jacobian, so axis i takes the Gauss-Jacobi rule of r^(K-1-i)
on the nested ratios c_i = c_{i-1} r_i, through the same rule builder
and levels, and their values read only the frame's coordinates.  For a
polynomial this is a conical-product rule (Stroud, 1971), exact once
2n - 1 reaches its degree in every r_i.

Integrands that differ only in their weight form a family.  The family
shares each domain's rules, frames and power product, and each member
adds only its weight and weighted sum, bit-identical to a run on its
own: the sector exponents count the weight's poles, which every member
of a family shares, and a member that certifies stops at the level a
run on its own would stop at.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from itertools import permutations
from operator import or_

import numpy as np
from scipy.special import betaln, gammaln

from .chains import Chain, OrderMap, merged_order
from .errors import DomainError, IntegrandSingularError
from .integrands import Integrand, _check_sym_cap
from .params import DEFAULT_SEED, ParamSet

SECTOR_RTOL = 1e-8          # relative estimate a member certifies at
SECTOR_MAX_NODES = 64       # nodes per axis the levels stop at
SECTOR_MAX_GRID = 2 ** 22   # nodes on one domain no level may pass
# a domain integral below this has lost its digits to the double range
_TINY = sys.float_info.min / sys.float_info.epsilon


@dataclass(frozen=True)
class QuadSpec:
    """How to integrate: scheme, resolution, and reproducibility seed.
    ``smooth_order`` is read by the benchmark's tracer only; no rule uses it."""

    scheme: str = "deterministic"  # or "monte_carlo"
    nodes_per_axis: int = 0        # 0 = pick by dimension
    sample_count: int = 200_000
    seed: int = DEFAULT_SEED
    smooth_order: int = 4

    def nodes_for(self, dim: int) -> int:
        """Nodes per axis n of the first level that can certify, for rule
        dimension dim: the levels start at the pair (n - 1, n), which an
        explicit ``nodes_per_axis`` fixes.  At rule dimensions 1-2 a level
        costs per-call overhead, not nodes, so they start higher."""
        if self.nodes_per_axis:
            return self.nodes_per_axis
        return {0: 1, 1: 14, 2: 14, 3: 13, 4: 13}.get(dim, 13)


@dataclass(frozen=True)
class AxisWeights:
    """Endpoint exponents (w0 at r=0, w1 at r=1) for each chain axis."""

    w0: tuple
    w1: tuple  # w1[0] is None on the half-line


def facet_exponents(integrand: Integrand, M: OrderMap) -> AxisWeights:
    """Endpoint exponents of one domain's chain axes, read off the
    integrand's description (``_describe``).

    At r_i -> 0 the gaps from i + off on shrink together (off is 1 on
    [0,1] and 0 on the half-line), so axis i takes the Jacobian's
    K - 1 - i plus the exponent of every power factor on a run of those
    gaps, less the most poles any weight term has on them.  At r_i -> 1
    the one gap i - 1 + off closes: its own factor, less the most poles a
    term has on it.  The half-line's axis 0 has none.  Overstating a pole
    is harmless, the bounded ratio then vanishes at the facet; missing one
    is not.
    """
    order = tuple(merged_order(M, integrand.k1, integrand.k2))
    d = _describe(integrand, order)
    K, N = len(order), d.N
    off = N - K

    def exponent(lo: int, hi: int, jacobian: int = 0) -> float:
        """The factors on runs within gaps lo..hi, less the most poles a
        weight term has on them, summed exactly."""
        poles = max((sum(-x for a, b, x in facs if x < 0 and lo <= a and b <= hi)
                     for _, facs in d.terms), default=0)
        return math.fsum([jacobian, -poles, *(e for a, b, e in d.factors if lo <= a and b <= hi)])

    return AxisWeights(tuple(exponent(i + off, N - 1, K - 1 - i) for i in range(K)),
                       tuple(exponent(i - 1 + off, i - 1 + off) if i + off else None
                             for i in range(K)))


_CLUSTER_NEED = {
    "1": "m_t beta1 + m_s beta2 + X > 0 (beta1 + beta2 - gamma > 1 at k1 = k2 = 1)",
    "0": "m_t alpha + m_s + X > 0 (alpha + gamma > 0 where two t's meet)",
    "inside": "X + m_t + m_s - 1 > 0 (gamma > -1/3 where three t's meet)",
}


def divergent_cluster(ig: Integrand) -> str | None:
    """Why some cluster of points makes the integral of ``ig`` diverge,
    or None.

    m_t t's and m_s s's meeting at scale rho give rho^(2 gamma) per pair
    within a block, rho^(-gamma) per pair across, and up to
    min(poles, m_t, m_s) rational poles: rho^X in all.  Inside the
    interval their relative positions have volume rho^(m_t+m_s-2) d rho,
    so X + m_t + m_s - 1 > 0 is needed.  At 1 the cluster also carries
    (1-t)^(beta1-1), (1-s)^(beta2-1) and one more dimension, so
    m_t beta1 + m_s beta2 + X > 0; at 0 it carries t^(alpha-1), so
    m_t alpha + m_s + X > 0.  Nothing meets 1 on the half-line.

    A cluster is a run of consecutive coordinates in some domain's
    descending order, whose prefixes ending at t_j hold at least
    j - (k1 - k2) s's and which ends at a t.  So every run of two or more
    points can meet inside; a run from the top, which can meet 1, has
    m_s >= m_t - (k1 - k2); a run to the bottom, which can meet 0, has a
    t, and m_s <= m_t unless it holds every t.  A black box is the empty
    product, whose clusters all converge.
    """
    k1, k2, poles = ig.k1, ig.k2, ig.pole_count
    a, b1, b2, g = ig.alpha, ig.beta1, ig.beta2, ig.gamma
    for mt in range(k1 + 1):
        for ms in range(k2 + 1):
            X = g * (mt * (mt - 1) + ms * (ms - 1) - mt * ms) - min(poles, mt, ms)
            if (ig.interval != "0inf" and mt + ms and ms >= mt - (k1 - k2)
                    and mt * b1 + ms * b2 + X <= 0.0):
                place = "1"
            elif mt and (ms <= mt or mt == k1) and mt * a + ms + X <= 0.0:
                place = "0"
            elif mt + ms > 1 and X + mt + ms - 1 <= 0.0:
                place = "inside"
            else:
                continue
            return (f"the integral diverges where points meet {place}: every cluster of m_t "
                    f"t's and m_s s's needs {_CLUSTER_NEED[place]}, with X = gamma (m_t(m_t-1)"
                    f" + m_s(m_s-1) - m_t m_s) - min({poles}, m_t, m_s)")
    return None


# ---------------------------------------------------------------------------
# the gap-interval description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Description:
    """A described integrand on one domain, in sums S[lo..hi] of gaps.

    ``factors`` are the power product's (lo, hi, exponent); ``terms`` the
    rational weight's (coefficient, ((lo, hi, +-1), ...)), the domain
    order's signs folded into the coefficients (empty: no weight);
    ``scale`` the half-line's (lo, hi, rate) per coordinate.  ``degree``
    and ``wdegree`` are the homogeneity degrees of the power product and
    of the weight, ``poles`` the integrand's pole count per weight term,
    which every member of a family shares.
    """

    N: int
    halfline: bool
    factors: tuple
    terms: tuple
    scale: tuple
    degree: float
    wdegree: int
    poles: int


@lru_cache(maxsize=256)
def _describe(ig: Integrand, order: tuple) -> _Description:
    """The gap-interval description of a described integrand on the
    domain whose merged descending order is ``order``.  A weight whose
    symmetrization passes the term cap raises ``DomainError`` here, where
    its permutations are enumerated, so building an integrand stays cheap."""
    K = len(order)
    halfline = ig.interval == "0inf"
    off = 0 if halfline else 1
    N = K + off
    a, g, b1, b2 = ig.alpha, ig.gamma, ig.beta1, ig.beta2

    def coord(i):            # c_i
        return (i + off, N - 1)

    def comp(i):             # 1 - c_i, on [0,1] only
        return (0, i)

    def between(i, j):       # c_i - c_j for i < j
        return (i + off, j - 1 + off)

    expo = {}
    for i, (knd, _) in enumerate(order):
        if knd == "t":
            expo[coord(i)] = a - 1.0
        if not halfline:
            expo[comp(i)] = (b1 if knd == "t" else b2) - 1.0
        for j in range(i + 1, K):
            expo[between(i, j)] = 2.0 * g if order[j][0] == knd else -g
    factors = tuple((lo, hi, e) for (lo, hi), e in expo.items() if e != 0.0)

    terms = ()
    if ig.kind in ("g", "h", "ht"):
        k1, k2 = ig.k1, ig.k2
        _check_sym_cap(k1, k2)
        pos_t = {idx: i for i, (knd, idx) in enumerate(order) if knd == "t"}
        pos_s = {idx: i for i, (knd, idx) in enumerate(order) if knd == "s"}
        merged = {}

        def add(ups, poles):
            """One symmetrization term: numerator intervals and (s, t) poles."""
            sign, power = 1.0, {}
            for iv in ups:
                power[iv] = power.get(iv, 0) + 1
            for b, at in poles:  # 1 / (s_b - t_a), signed by the domain order
                ps, pt = pos_s[b + 1], pos_t[at + 1]
                iv = between(ps, pt) if ps < pt else between(pt, ps)
                sign *= 1.0 if ps < pt else -1.0
                power[iv] = power.get(iv, 0) - 1
            key = tuple(sorted((lo, hi, x) for (lo, hi), x in power.items() if x))
            merged[key] = merged.get(key, 0.0) + sign

        kk = k1 - k2
        for sigma in permutations(range(k1)):
            for tau in permutations(range(k2)):
                if ig.kind == "g":
                    add((), [(tau[b], sigma[b + kk]) for b in range(k2)])
                    continue
                l1, l2, m = ig.indices
                ups = [coord(pos_t[sigma[x] + 1]) for x in range(l1)]
                ups += [comp(pos_t[sigma[x] + 1]) for x in range(l1, k1)]
                ups += [comp(pos_t[sigma[b] + 1] if ig.kind == "ht" else pos_s[tau[b] + 1])
                        for b in range(m)]
                ups += [comp(pos_s[tau[b] + 1]) for b in range(l2, k2)]
                add(ups, [(tau[b], sigma[b]) for b in range(m)]
                    + [(tau[b], sigma[b + kk]) for b in range(l2, k2)])
        norm = math.factorial(k1) * math.factorial(k2)
        terms = tuple((c / norm, key) for key, c in merged.items())
    elif ig.kind not in ("plain", "callable"):  # a black box is the empty product
        raise DomainError(f"unknown rational weight kind {ig.kind!r}")

    scale = ()
    if halfline:
        scale = tuple((*coord(i), ig.exp_rates[0 if knd == "t" else 1])
                      for i, (knd, _) in enumerate(order))
    wdegree = sum(x for _, _, x in terms[0][1]) if terms else 0
    return _Description(N, halfline, factors, terms, scale,
                        sum(e for _, _, e in factors), wdegree, ig.pole_count)


def _frame_values(members, order, aw: AxisWeights, frame):
    """integrand * Jacobian / model on a chain frame's points, yielded one
    array per member of a family.

    ``aw`` is the chain frame's model.  A described family goes through
    ``_described_values``.  A 'callable' family is a black box, the empty
    product, whose model is the Jacobian, so each member's values are its
    ``fn`` of the frame's coordinate rows (t, s).
    """
    ig = members[0]
    if ig.kind == "callable":
        t = np.empty(frame.shape + (ig.k1,))
        s = np.empty(frame.shape + (ig.k2,))
        for i, (knd, idx) in enumerate(order):
            (t if knd == "t" else s)[..., idx - 1] = frame.C[i]
        n = math.prod(frame.shape)
        rows = t.reshape(n, ig.k1), s.reshape(n, ig.k2)
        for arr in rows:  # read-only rows, shared by the members
            arr.flags.writeable = False
        for member in members:
            yield member.fn(*rows).reshape(frame.shape)
        return
    yield from _described_values([_describe(m, tuple(order)) for m in members], frame,
                                 frame.log_model(aw))


def _described_values(descs, frame, model=None):
    """integrand * Jacobian / model of a described family on the frame's
    points, yielded one array per member.

    Every frame gives each gap run S[lo..hi] as a run R: ``log_run``,
    integer powers ``run`` and the sum itself ``gap_sum``, and a
    ``monomial`` per weight term.  The chain and stacked frames keep R = S,
    an empty monomial and their own log(Jacobian / model) as ``model``; a
    sector frame's R is S over its top gap, whose monomials its model
    cancels exactly, so it passes none (``_SectorFrame``).  The members
    share everything but the weight, so the power product is one exp,
    taken once, and each member multiplies in only its own weight.  On
    [0,1] the exp also carries the (sum g)^poles of the weight's
    projection, the part every member shares.
    """
    d = descs[0]
    logs = [(e, lo, hi) for lo, hi, e in d.factors]
    if not d.halfline:  # the projective factor of a degree-D integrand on N gaps
        logs.append((d.poles - (d.degree + d.N), 0, d.N - 1))
    by_shape = {}  # runs spanning the same axes add up before they broadcast
    for e, lo, hi in logs:
        lr = e * frame.log_run(lo, hi)
        key = getattr(lr, "shape", ())
        by_shape[key] = by_shape[key] + lr if key in by_shape else lr
    parts = list(by_shape.values())
    if d.halfline:  # members share their pole count, so their weight degree too
        H = d.degree + d.wdegree + d.N
        L = sum(rate * frame.gap_sum(lo, hi) for lo, hi, rate in d.scale)
        parts.append(gammaln(H) - H * np.log(L))
    if model is not None:
        parts.append(model)
    base = np.exp(_sum_by_span(parts))
    del parts, by_shape  # no grid-sized log lives on while the members are evaluated
    for desc in descs:
        yield base * _weight(desc, frame) if desc.terms or frame.monomial(()) else base


def _sum_by_span(parts):
    """The sum of arrays that broadcast together, the parts that span
    fewer axes than the sum added among themselves first, so that each
    group of them meets the full-size sum once (``_span_groups``)."""
    first, *rest = (sum((parts[i] for i in more), parts[i0])
                    for i0, *more in _span_groups(tuple(getattr(p, "shape", ()) for p in parts)))
    return sum(rest, first)


@lru_cache(maxsize=1024)
def _span_groups(shapes: tuple) -> tuple:
    """Indices of ``shapes`` in groups whose joint span of axes stays short
    of the sum's, the ones that span all of it in one group: widest first,
    each shape joins the first group it keeps short.  Within a group the
    narrowest come first, so they add up at their own size."""
    spans = [sum(1 << i for i, size in enumerate(reversed(shape)) if size != 1)
             for shape in shapes]
    full = reduce(or_, spans, 0)
    groups = []  # [axes spanned, indices]
    for i in sorted(range(len(spans)), key=lambda i: -spans[i].bit_count()):
        for group in groups:
            if group[0] | spans[i] != full or group[0] == spans[i] == full:
                group[0] |= spans[i]
                group[1].append(i)
                break
        else:
            groups.append([spans[i], [i]])
    return tuple(tuple(sorted(indices, key=lambda i: spans[i].bit_count()))
                 for _, indices in groups)


def _weight(desc: _Description, frame):
    """The described rational weight on the frame's points, over what the
    frame's runs leave out: each term is its coefficient times the frame's
    monomial of the term times its runs to their powers, multiplied from
    the smallest array up; no weight is one term of no runs.  On [0,1]
    the sum is taken at the projected point: times (sum g)^-wdegree, one
    power of the run of all gaps shared by the terms, of which the power
    product's exp already carries (sum g)^poles."""
    weight = 0.0
    for coef, facs in desc.terms or ((1.0, ()),):
        term = coef
        for arr in sorted([*frame.monomial(facs), *(frame.run(lo, hi, x) for lo, hi, x in facs)],
                          key=_size):
            term = term * arr
        weight = weight + term
    if not desc.halfline and desc.wdegree + desc.poles:
        weight = weight * frame.run(0, desc.N - 1, -(desc.wdegree + desc.poles))
    return weight


def _size(arr) -> int:
    return getattr(arr, "size", 1)


class _Runs:
    """What a frame gives ``_described_values``: each gap run S[lo..hi] as
    a run R, its log (``log_run``), R itself (``_base_run``) and S
    (``gap_sum``), and the monomial of a weight term (``monomial``), none
    on a frame whose runs are the gap sums themselves.  Such a frame gives
    its gaps ``G`` in product form, and a run is their cached running sum,
    a sum of positives that never cancels.  Integer powers of the runs are
    cached and taken by multiplication: a weight's powers are small
    integers, where numpy's general power costs an exp and a log per
    point."""

    def __init__(self):
        self._sums, self._logs, self._runs = {}, {}, {}

    def monomial(self, facs):
        return ()

    def gap_sum(self, lo: int, hi: int):
        key = (lo, hi)
        if key not in self._sums:
            self._sums[key] = self.G[lo] if lo == hi else self.gap_sum(lo, hi - 1) + self.G[hi]
        return self._sums[key]

    _base_run = gap_sum

    def log_run(self, lo: int, hi: int):
        key = (lo, hi)
        if key not in self._logs:
            self._logs[key] = np.log(self.gap_sum(lo, hi))
        return self._logs[key]

    def run(self, lo: int, hi: int, x: int):
        key = (lo, hi, x)
        if key not in self._runs:
            if x == 1:
                val = self._base_run(lo, hi)
            elif x < 0:
                val = 1.0 / self.run(lo, hi, -x)
            else:
                val = self.run(lo, hi, x - 1) * self.run(lo, hi, 1)
            self._runs[key] = val
        return self._runs[key]


# ---------------------------------------------------------------------------
# the chain frame: Monte Carlo and black-box integrands
# ---------------------------------------------------------------------------

def _on_axis(v: np.ndarray, i: int, K: int) -> np.ndarray:
    """View of a per-axis vector along axis i of a K-dimensional grid."""
    return v.reshape((1,) * i + (-1,) + (1,) * (K - 1 - i))


class _ChainFrame(_Runs):
    """Stable geometry of the chain coordinates on a set of points.

    ``LOGR[i]``/``LOGX[i]`` hold log r_i and log(1 - r_i) of chain axis i,
    already placed: views along axis i of a tensor grid, or sample
    columns for Monte Carlo; ``LOGX[0]`` is None on the half-line, whose
    top coordinate is c_0 = 1.  ``shape`` is their broadcast shape, and
    each derived array keeps the smallest shape its inputs allow.
    Cumulative logs ``LS`` give the coordinates ``C`` and the gaps ``G``
    in product form: c_(i-1) (1 - r_i) between c_(i-1) and c_i, c_(K-1)
    at the bottom and, on [0,1], 1 - c_0 at the top, so no gap is a
    difference of coordinates.  ``C`` and ``G`` are built on first use:
    the black boxes read only ``C``, the described integrands only ``G``.
    """

    def __init__(self, LOGR, LOGX):
        super().__init__()
        self.LOGR = list(LOGR)
        self.LOGX = list(LOGX)
        self.off = 0 if self.LOGX[0] is None else 1
        self.shape = np.broadcast_shapes(*(v.shape for v in self.LOGR))
        self.LS = [self.LOGR[0]]                # log c_i
        for i in range(1, len(self.LOGR)):
            self.LS.append(self.LS[i - 1] + self.LOGR[i])

    @cached_property
    def C(self):
        return [np.exp(ls) for ls in self.LS]

    @cached_property
    def G(self):
        LS, LOGX = self.LS, self.LOGX
        return ([-np.expm1(LS[0])] * self.off
                + [np.exp(LS[i - 1] + LOGX[i]) for i in range(1, len(LS))] + [np.exp(LS[-1])])

    def log_model(self, aw: AxisWeights) -> np.ndarray:
        """log(Jacobian / per-axis facet models); the half-line's axis 0
        has no model, its scale being integrated in closed form."""
        K = len(self.LOGR)
        logf = np.zeros(self.shape)
        for i in range(1, K):
            logf += self.LS[i - 1]  # Jacobian
        for i in range(1 - self.off, K):
            logf -= aw.w0[i] * self.LOGR[i] + aw.w1[i] * self.LOGX[i]
        return logf


# ---------------------------------------------------------------------------
# the sector rule, the black boxes' tensor rule, and the levels of both
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Tree:
    """One sector: a heap-ordered binary tree on the gaps.

    ``parent[v]`` is -1 at the root; the non-root nodes in order are the
    axes, axis d carrying y of the d-th of them; ``path[v]`` are the axes
    from the root down to v, whose y multiply to g_v; ``top[lo][hi]`` is
    the shallowest gap of S[lo..hi], the largest one in the sector.
    """

    parent: tuple
    path: tuple
    top: tuple


def _trees(lo: int, hi: int) -> list[tuple]:
    """(root, parent map) of every binary tree whose in-order is lo..hi."""
    if lo > hi:
        return [(None, {})]
    out = []
    for r in range(lo, hi + 1):
        for left, lpar in _trees(lo, r - 1):
            for right, rpar in _trees(r + 1, hi):
                par = {**lpar, **rpar, r: -1}
                for child in (left, right):
                    if child is not None:
                        par[child] = r
                out.append((r, par))
    return out


@dataclass(frozen=True)
class _SectorTable:
    """Every sector on N gaps: its tree, its descendant counts per axis
    (the Jacobian's exponents), and ``cover[s, lo, hi, d]``, 1 when axis d
    lies on the path from the root to the top gap of S[lo..hi]."""

    trees: tuple
    desc: np.ndarray
    cover: np.ndarray

    @property
    def dim(self) -> int:
        return self.desc.shape[1]


@lru_cache(maxsize=None)
def _sector_table(N: int) -> _SectorTable:
    trees, desc, cover = [], [], []
    for root, par in _trees(0, N - 1):
        parent = tuple(par[v] for v in range(N))

        def path(v):  # v and its ancestors below the root
            out = []
            while v != root:
                out.append(v)
                v = parent[v]
            return out

        axes = tuple(v for v in range(N) if v != root)
        depth = [len(path(v)) for v in range(N)]
        top = tuple(tuple(min(range(lo, hi + 1), key=depth.__getitem__) if hi >= lo else -1
                          for hi in range(N)) for lo in range(N))
        ax = {v: d for d, v in enumerate(axes)}
        paths = tuple(tuple(ax[u] for u in reversed(path(v))) for v in range(N))
        cnt = np.zeros(N - 1, dtype=int)
        for v in range(N):
            for u in path(v)[1:]:
                cnt[ax[u]] += 1
        cov = np.zeros((N, N, N - 1), dtype=int)
        for lo in range(N):
            for hi in range(lo, N):
                for u in path(top[lo][hi]):
                    cov[lo, hi, ax[u]] = 1
        trees.append(_Tree(parent, paths, top))
        desc.append(cnt)
        cover.append(cov)
    return _SectorTable(tuple(trees), np.array(desc), np.array(cover))


@lru_cache(maxsize=256)
def _power_exponents(desc: _Description) -> np.ndarray:
    """The sector exponents before the weight: descendant counts plus each
    power factor's exponent on the axes of its top gap's path, each sum
    taken exactly, so that exponents whose parameters cancel (2 gamma
    against two -gamma) come out as exact integers and share one rule."""
    table = _sector_table(desc.N)
    terms = [[count] for count in table.desc.ravel().tolist()]  # per (sector, axis)
    for lo, hi, e in desc.factors:
        for row, covered in zip(terms, table.cover[:, lo, hi].ravel().tolist()):
            if covered:
                row.append(e)
    E = np.array([math.fsum(row) for row in terms]).reshape(table.desc.shape)
    E.flags.writeable = False
    return E


def _sector_exponents(descs, table: _SectorTable) -> np.ndarray:
    """Jacobi exponent of every axis of every sector, shape (sectors, dim).

    Each power factor adds its exponent to the axes on its top gap's
    path; the weight adds the least pole count over its terms, which is
    the same for every member of a family, so the numerators leave
    non-negative integer powers.
    """
    E = _power_exponents(descs[0])
    poles = [sum((x * table.cover[:, lo, hi] for lo, hi, x in facs if x < 0),
                 np.zeros_like(table.desc))
             for desc in descs for _, facs in desc.terms]
    if poles:
        E = E + np.min(poles, axis=0)
    return E


_RULES: dict = {}   # (n, exponent) -> read-only (log y, weight); records at equal exponents share
_RULES_CAP = 4096


def _jacobi_rules(n: int, exponents) -> dict:
    """The n-node Gauss-Jacobi rules on [0,1] for y^E of each exponent E,
    as {E: (log y, weight)}.

    The rules a level lacks come from one batched solve: nodes y = (1+x)/2
    from the eigenvalues x of the Jacobi matrix of (1+x)^E, and as weights
    the mass 1/(E+1) times the Christoffel numbers 1 / sum_k p_k(x)^2,
    which keep full relative precision however small.
    """
    if len(_RULES) > _RULES_CAP:  # before the lookup, so every requested rule is rebuilt
        _RULES.clear()
    missing = list(dict.fromkeys(e for e in exponents if (n, e) not in _RULES))
    if missing:
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
        logy = np.log1p(x) - math.log(2.0)
        w = 1.0 / (total * (b + 1.0))
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(logy))):
            raise IntegrandSingularError(f"non-finite quadrature rule weights at exponents {missing}")
        for i, e in enumerate(missing):
            rule = (logy[i].copy(), w[i].copy())
            for arr in rule:
                arr.flags.writeable = False
            _RULES[(n, e)] = rule
    return {e: _RULES[(n, e)] for e in exponents}


def _tensor_sum(vals, weights) -> float:
    """The weighted sum of values on a tensor grid, one weight vector per axis."""
    vals = np.broadcast_to(vals, tuple(len(w) for w in weights))
    for w in reversed(weights):
        vals = vals @ w
    return float(vals)


class _SectorFrame(_Runs):
    """The points of one sector in factored form: g_root = 1 and
    g_v = g_parent y_v.

    ``Y[d]`` is y of axis d, a view along its own axis of the (n,)*dim
    grid.  A run S[lo..hi] is its top gap, the monomial of y over the
    top's path, times R = 1 + the other gaps' ratios to the top, each the
    product of y on the path below it, so R lies in [1, length] and no
    sum is ever a difference.  The axis rules already integrate the top
    gaps' monomials: ``_sector_exponents`` builds the exponents from the
    same paths, so log(Jacobian / model) and the power factors' top-gap
    logs add up to lift . log y identically, ``lift`` the weight's least
    pole count per axis.  The frame's runs are therefore R alone, and the
    monomial of a weight term is y^(lift + its runs' top-gap powers), of
    non-negative integer powers.  Each array spans only the axes it
    depends on.
    """

    def __init__(self, tree: _Tree, Y: list, lift: list):
        super().__init__()
        self.tree, self.Y, self.lift = tree, Y, lift
        self._ratios, self._rests, self._powers = {}, {}, {}

    def _ratio(self, top: int, j: int):
        """g_j / g_top for a gap j below top."""
        key = (top, j)
        if key not in self._ratios:
            up, y = self.tree.parent[j], self.Y[self.tree.path[j][-1]]
            self._ratios[key] = y if up == top else self._ratio(top, up) * y
        return self._ratios[key]

    def _rest(self, lo: int, hi: int):
        """R - 1 of S[lo..hi], the run one gap shorter at an end other
        than its top plus that gap's ratio; None for a single gap."""
        if lo == hi:
            return None
        key = (lo, hi)
        if key not in self._rests:
            top = self.tree.top[lo][hi]
            j, inner = (hi, self._rest(lo, hi - 1)) if top != hi else (lo, self._rest(lo + 1, hi))
            ratio = self._ratio(top, j)
            self._rests[key] = ratio if inner is None else inner + ratio
        return self._rests[key]

    def log_run(self, lo: int, hi: int):
        rest = self._rest(lo, hi)
        return 0.0 if rest is None else np.log1p(rest)

    def _base_run(self, lo: int, hi: int):
        rest = self._rest(lo, hi)
        return 1.0 if rest is None else 1.0 + rest

    def gap_sum(self, lo: int, hi: int):
        """S[lo..hi] itself: its top gap's monomial times R."""
        out = self.run(lo, hi, 1)
        for d in self.tree.path[self.tree.top[lo][hi]]:
            out = out * self.Y[d]
        return out

    def monomial(self, facs):
        """y^m of a weight term of runs ``facs``, one view per axis with
        m = lift + the powers of the runs whose top gap's path crosses it."""
        m = list(self.lift)
        for lo, hi, x in facs:
            for d in self.tree.path[self.tree.top[lo][hi]]:
                m[d] += x
        for d, k in enumerate(m):
            if k and (d, k) not in self._powers:
                self._powers[d, k] = self.Y[d] ** k
        return [self._powers[d, k] for d, k in enumerate(m) if k]


class _StackFrame(_Runs):
    """The points of every sector of a level at once, for rule dimensions
    low enough that numpy's per-call cost outweighs the grid: each array
    carries a leading sector axis.  log g_j sums log y over the axes on
    the path to gap j, and S of an interval is the plain sum of its gaps,
    each at most g_root = 1 and none near underflow, so the sum of
    positives is exact to rounding.  Its runs are the gap sums themselves,
    and ``log_model`` carries the whole model.
    """

    def __init__(self, table: _SectorTable, E: np.ndarray, rules: dict, n: int):
        super().__init__()
        S, dim = E.shape
        self.shape = (S,) + (n,) * dim
        self.E, self.desc = E, table.desc

        def place(arr, d):  # (S, n) along grid axis d
            return arr.reshape((S,) + (1,) * d + (n,) + (1,) * (dim - 1 - d))

        self.LY = [place(np.array([rules[e][0] for e in E[:, d]]), d) for d in range(dim)]
        self.W = [np.array([rules[e][1] for e in E[:, d]]) for d in range(dim)]
        self.G = []
        for j in range(dim + 1):
            lg = 0.0
            for d in range(dim):
                lg = lg + table.cover[:, j, j, d].reshape((S,) + (1,) * dim) * self.LY[d]
            self.G.append(np.exp(lg))

    def log_model(self):
        S = self.shape[0]
        return sum(((self.desc[:, d] - self.E[:, d]).reshape((S,) + (1,) * len(self.LY)) * ly
                    for d, ly in enumerate(self.LY)), np.zeros(self.shape))

    def weighted_sum(self, vals) -> float:
        v = np.broadcast_to(vals, self.shape)
        for d in reversed(range(len(self.W))):  # axis d is last once those after it are summed
            v = (v * self.W[d].reshape(self.shape[:1] + (1,) * d + self.shape[-1:])).sum(axis=-1)
        return float(v.sum())


# rule dimensions up to which all sectors of a level share one frame: at
# 1-2 numpy's per-call cost outweighs the grid, at 3-4 the stacked grids
# cost more time and memory than each sector's broadcast vectors
STACK_DIM = 2


def _sector_frames(desc: _Description, table: _SectorTable, E: np.ndarray, rules: dict):
    """(frame, axis weights) of each sector, from the rules of a level.
    ``desc`` is any member's: the members share the power factors, and
    the lift is what the exponents took off them for the weight."""
    ys = {e: np.exp(ly) for e, (ly, _) in rules.items()}
    lift = np.rint(_power_exponents(desc) - E).astype(int)
    for tree, Es, lf in zip(table.trees, E.tolist(), lift.tolist()):
        yield (_SectorFrame(tree, [_on_axis(ys[e], d, table.dim) for d, e in enumerate(Es)], lf),
               [rules[e][1] for e in Es])


def _sector_level(descs, table: _SectorTable, E: np.ndarray, n: int) -> list[float]:
    """The sector rule at n nodes per axis: one value per member."""
    rules = _jacobi_rules(n, E.ravel().tolist())
    if table.dim <= STACK_DIM:
        frame = _StackFrame(table, E, rules, n)
        totals = [frame.weighted_sum(v)
                  for v in _described_values(descs, frame, frame.log_model())]
    else:
        totals = [0.0] * len(descs)
        for frame, weights in _sector_frames(descs[0], table, E, rules):
            for j, vals in enumerate(_described_values(descs, frame)):
                totals[j] += _tensor_sum(vals, weights)
    for v in totals:
        if not math.isfinite(v):
            raise IntegrandSingularError("non-finite deterministic quadrature values")
        if abs(v) < _TINY:
            raise IntegrandSingularError("a domain integral underflows the double range")
    return totals


def _sector_rule(members, order, q: QuadSpec) -> list[tuple[float, float]]:
    """(value, estimate) per member of a described family on one domain."""
    descs = [_describe(m, tuple(order)) for m in members]
    table = _sector_table(descs[0].N)
    E = _sector_exponents(descs, table)
    if np.any(E <= -1.0):
        raise DomainError("sector exponent at or below -1; integral diverges")
    return _refine(lambda active, n: _sector_level([descs[j] for j in active], table, E, n),
                   len(members), table.dim, len(table.trees), q)


def _tensor_level(members, order, aw: AxisWeights, n: int) -> list[float]:
    """The chain frame's tensor rule at n nodes per axis, axis i the
    Gauss-Jacobi rule of r^w0[i]: one value per member."""
    K = len(order)
    rules = _jacobi_rules(n, aw.w0)
    axes = [rules[w] for w in aw.w0]
    frame = _ChainFrame([_on_axis(ly, i, K) for i, (ly, _) in enumerate(axes)],
                        [_on_axis(np.log(-np.expm1(ly)), i, K) for i, (ly, _) in enumerate(axes)])
    totals = [_tensor_sum(vals, [w for _, w in axes])
              for vals in _frame_values(members, order, aw, frame)]
    if not all(math.isfinite(v) for v in totals):
        raise IntegrandSingularError("non-finite deterministic quadrature values")
    return totals


def _refine(level, count: int, dim: int, grids: int, q: QuadSpec) -> list[tuple[float, float]]:
    """(value, estimate) per member of a family on one domain, from the
    active members' values ``level(active, n)`` on ``grids`` tensor grids
    of dimension ``dim``.  The levels step one node per axis from the
    pair (n - 1, n), n = ``q.nodes_for(dim)``, and each level's estimate
    is its difference from the level one node below; a member that
    certifies keeps its level."""
    n = q.nodes_for(dim)
    active = list(range(count))
    prev = level(active, max(1, n - 1))
    cur = level(active, n)
    out = [None] * count
    while True:
        grow = (not q.nodes_per_axis and n + 1 <= SECTOR_MAX_NODES
                and grids * (n + 1) ** dim <= SECTOR_MAX_GRID)
        still = []
        for j, v, v2 in zip(active, cur, prev):
            est = abs(v - v2)
            if grow and est > SECTOR_RTOL * abs(v):
                still.append((j, v))
            else:
                out[j] = (v, est)
        if not still:
            return out
        n += 1
        active = [j for j, _ in still]
        prev = [v for _, v in still]
        cur = level(active, n)


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
    rules, frames and power product.  Returns one (value, error estimate)
    per member.  The deterministic scheme is available up to rule
    dimension 4: k1 + k2 <= 4 on [0,1], and 5 on the half-line, whose
    overall scale is integrated in closed form: the sector rule for
    described integrands, the tensor rule for black boxes.  Monte Carlo
    handles everything else.  An unknown scheme, a rule dimension over
    the cap and a divergent cluster of points (``divergent_cluster``)
    raise ``DomainError`` before the integrand is described.
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
    halfline = integrand.interval == "0inf"
    if q.scheme not in ("deterministic", "monte_carlo"):
        raise DomainError(f"unknown quadrature scheme {q.scheme!r}")
    dim = K - 1 if halfline else K
    if q.scheme == "deterministic" and dim > 4:
        raise DomainError("deterministic scheme requires k1 + k2 <= 4 (5 on the half-line)")
    if integrand.kind == "callable":
        if halfline:
            raise DomainError("a black-box integrand on the half-line has no closed-form scale")
        fields = (integrand.alpha, integrand.beta1, integrand.beta2, integrand.gamma,
                  integrand.pole_count)
        if fields != (1.0, 1.0, 1.0, 0.0, 0):
            raise DomainError("a black-box integrand carries no power product or weight poles:"
                              f" (alpha, beta1, beta2, gamma, pole_count) = {fields}")
    diverges = divergent_cluster(integrand)
    if diverges:
        raise DomainError(diverges)
    order = merged_order(M, k1, k2)
    aw = facet_exponents(integrand, M)
    if q.scheme == "monte_carlo":
        return _mc_value(members, order, aw, q)
    if integrand.kind != "callable":
        return _sector_rule(members, order, q)
    return _refine(lambda active, n: _tensor_level([members[j] for j in active], order, aw, n),
                   len(members), dim, 1, q)


def integrate_family(members, chain: Chain, q: QuadSpec,
                     p: ParamSet) -> list[tuple[float, float]]:
    """``integrate_chain`` of each member of a family, in one pass over
    the chain's domains: one (value, error) per member.  Deterministic
    domain errors add linearly, as they need not be independent; Monte
    Carlo errors add in quadrature."""
    first, *more = members
    deterministic = q.scheme == "deterministic"
    totals = [0.0] * len(members)
    errs = [0.0] * len(members)
    for i, (M, coeff) in enumerate(chain.terms):
        qi = q if deterministic else replace(q, seed=q.seed + 104729 * i)
        for j, (val, err) in enumerate(integrate_domain(first, M, qi, p, more=more)):
            totals[j] += coeff * val
            errs[j] += abs(coeff) * err if deterministic else (coeff * err) ** 2
    return [(total, e if deterministic else math.sqrt(e)) for total, e in zip(totals, errs)]


def integrate_chain(integrand: Integrand, chain: Chain, q: QuadSpec,
                    p: ParamSet) -> tuple[float, float]:
    """Weighted sum of domain integrals with their combined error."""
    return integrate_family([integrand], chain, q, p)[0]
