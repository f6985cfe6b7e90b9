"""Verification registry: one entry per identity.

Each entry binds a validity predicate, a left-hand-side engine, a
right-hand-side closed form and a tolerance policy, and running it
produces a :class:`VerificationRecord`.  For single-valued identities
``lhs``/``rhs`` are the two sides; for aggregate checks (relation
residuals, support tests, ...) ``lhs`` is the measured quantity, ``rhs``
its reference, and ``rel_dev`` the normalized deviation the tolerance
applies to.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import closed_forms as cf
from .chains import gamma_chain, unit_chain
from .errors import InvalidParamsError, NotConvergedError, PoleError
from .integrands import _VALUE_ROUNDING, Integrand, assembled_integrand
from .lattice import (
    cone_array,
    eps_limit_ratio,
    lattice_values,
    limit_pairs,
    pde_residual,
    sum_discrete,
)
from .logreal import gamma_ratio
from .params import DEFAULT_SEED, ParamSet
from .quadrature import QuadSpec, divergent_cluster, integrate_chain, integrate_family
from .recursions import _plan, jjl_shift_residuals, solve_both, verify_relations

MC_FLOOR = 1e-3
MC_CEIL = 0.1  # a Monte Carlo check certifies at least one digit
EPS_LINK = 1e-3  # rescaling parameter of the limit link


@dataclass(frozen=True)
class Budget:
    """Resource knobs shared by all engines: the series' largest shell
    (None: the series' own default), Monte Carlo samples, and random
    points for the support and limit checks."""

    max_bound: int | None = None
    samples: int = 400_000
    points: int = 50


@dataclass(frozen=True)
class VerificationRecord:
    identity_id: str
    params: ParamSet
    lhs: float
    lhs_err: float
    rhs: float
    rel_dev: float
    tolerance: float
    passed: bool
    seed: int
    runtime_ms: int
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# validity predicates
# ---------------------------------------------------------------------------

def _need(cond: bool, msg: str):
    if not cond:
        raise InvalidParamsError(msg)


def _need_clusters(which: str, p: ParamSet):
    """Reject a point where some cluster of points makes the integral of
    ``which`` diverge (``quadrature.divergent_cluster``)."""
    diverges = divergent_cluster(assembled_integrand(which, p))
    _need(diverges is None, diverges)


def _v_selb(p: ParamSet):
    _need(p.k2 == 0, "k2 must be 0 (set k via --k)")
    _need(p.alpha > 0 and p.beta > 0, "need alpha > 0 and beta > 0")
    _need(abs(p.gamma) > 1e-9, "gamma = 0 hits the gamma-function pole in the value")
    _need_clusters("selb", p)


def _v_exp(p: ParamSet):
    _need(p.k2 == 0, "k2 must be 0 (set k via --k)")
    _need(p.alpha > 0, "need alpha > 0")
    _need(abs(p.gamma) > 1e-9, "gamma = 0 hits the gamma-function pole in the value")
    _need_clusters("exp", p)


def _need_closed_form(p: ParamSet):
    """Reject a Gamma pole of the series' closed form, where the series has
    a pole too: dexp3's k2 block has none for gamma in (-0.5, 0), k2 <= k1.
    A factor too large for a double is the record's to report."""
    try:
        cf._exp_product(p.k1, p.alpha, p.gamma)
    except PoleError as exc:
        raise InvalidParamsError(f"the closed form has a {exc}") from None
    except OverflowError:
        pass


def _v_dexp(p: ParamSet):
    _need(p.k2 == 0, "k2 must be 0 (set k via --k)")
    _need(0.0 < p.z < 1.0, "need z in (0,1)")
    _need(abs(p.gamma) > 1e-9 and p.alpha > 0, "need generic gamma and alpha > 0")
    _need_closed_form(p)


def _v_dexp3(p: ParamSet):
    _need(0.0 < p.z1 < 1.0 and 0.0 < p.z2 < 1.0, "need z1, z2 in (0,1)")
    _need(-0.5 < p.gamma < 0.0, "need gamma in (-0.5, 0)")
    _need(p.alpha > 0, "need alpha > 0")
    _need_closed_form(p)


def _v_sl3_cont(p: ParamSet):
    _need(p.alpha > 0 and p.beta1 > 0 and p.beta2 > 0, "need alpha, beta1, beta2 > 0")
    _need(-0.5 < p.gamma < 0.0, "need gamma in (-0.5, 0); working range is [-0.3, -0.02]")


def _v_selb3(p: ParamSet):
    _v_sl3_cont(p)
    _need_clusters("selb3", p)


def _v_selb30(p: ParamSet):
    _v_sl3_cont(p)
    _need_clusters("selb30", p)


def _v_exp3(p: ParamSet):
    _v_sl3_cont(p)
    _need_clusters("exp3", p)


def _v_aomoto(p: ParamSet):
    _v_selb(p)
    _need(p.k <= 6, "need k <= 6 for the symmetrized moment factor")


def _v_recursion(p: ParamSet):
    _v_sl3_cont(p)
    _need(p.k1 >= 1, "need k1 >= 1: at k1 = 0 the table is its seed alone")
    _need(p.k1 + p.k2 <= 8, "need k1 + k2 <= 8")


def _v_jjj(p: ParamSet):
    _v_recursion(p)
    _need(False in _plan(p.k1, p.k2, False).pivot,
          "need an over-determined relation: at k2 = 0 and at k1 = k2 = 1 every "
          "relation is a pivot, whose residual is 0 by construction")


def _v_open(p: ParamSet):
    return None


def _v_decomp(p: ParamSet):
    _need(p.k1 + p.k2 <= 4, "quadrature decomposition check needs k1 + k2 <= 4")


# ---------------------------------------------------------------------------
# engines: return (lhs, lhs_err, rhs, tolerance, note)
# ---------------------------------------------------------------------------

def _quad_spec(budget: Budget, seed: int, scheme: str = "deterministic") -> QuadSpec:
    """The budget's quadrature settings; the dimension picks the nodes."""
    return QuadSpec(scheme, 0, budget.samples, seed)


def _mc_tolerance(sigma: float, ref: float) -> float:
    """Default tolerance of a Monte Carlo check: three standard errors
    relative to the reference (infinite against a zero reference), within
    [MC_FLOOR, MC_CEIL].  Where 3 sigma passes MC_CEIL the record is
    insufficient precision, not a pass at any deviation."""
    rel = 3.0 * sigma / abs(ref) if ref != 0.0 else math.inf
    return min(max(rel, MC_FLOOR), MC_CEIL)


def _quad_engine(which: str, rhs_fn, scheme: str | None = None):
    def engine(p: ParamSet, budget: Budget, seed: int, tol: float | None):
        ig = assembled_integrand(which, p)
        spec = _quad_spec(budget, seed, scheme or (
            "deterministic" if p.k1 + p.k2 <= 4 else "monte_carlo"))
        chain = gamma_chain(p.k1, p.k2, p.gamma)
        lhs, err = integrate_chain(ig, chain, spec, p)
        rhs = rhs_fn(p).to_float()
        if spec.scheme == "monte_carlo":
            tolerance = tol if tol is not None else _mc_tolerance(err, rhs)
        else:
            tolerance = tol if tol is not None else 1e-6
        return lhs, err, rhs, tolerance, spec.scheme
    return engine


def _series_engine(which: str, rhs_fn):
    def engine(p: ParamSet, budget: Budget, seed: int, tol: float | None):
        res = sum_discrete(which, p, max_bound=budget.max_bound)
        if not res.converged:
            raise NotConvergedError(
                f"series truncation at bound {res.bound} missed the target tail")
        rhs = rhs_fn(p).to_float()
        return res.partial_sum, res.tail, rhs, (tol if tol is not None else 1e-8), \
            f"bound={res.bound}"
    return engine


def _worst(checks: list):
    """The value of the (deviation, value) pair of largest deviation, the
    last of equal ones; a NaN deviation counts as the largest."""
    return max(reversed(checks), key=lambda c: math.inf if math.isnan(c[0]) else c[0])[1]


def _aomoto_engine(p: ParamSet, budget: Budget, seed: int, tol: float | None):
    k = p.k
    spec = _quad_spec(budget, seed)
    # the k+1 moments differ only in their weight: one family shares each
    # domain's rules, frame and power product
    members = [assembled_integrand("aomoto", p, indices=ell) for ell in range(k + 1)]
    checks = []
    for ell, (lhs, err) in enumerate(integrate_family(members, gamma_chain(k, 0, p.gamma),
                                                      spec, p)):
        rhs = cf.aomoto_rhs(k, ell, p).to_float()
        dev = abs(lhs) if rhs == 0.0 else abs(lhs - rhs) / abs(rhs)
        checks.append((dev, (lhs, err, rhs)))
    lhs, err, rhs = _worst(checks)
    return lhs, err, rhs, (tol if tol is not None else 1e-4), f"worst over l=0..{k}"


def _jjj_engine(p: ParamSet, budget: Budget, seed: int, tol: float | None):
    tab, tabt = solve_both(p)
    res = verify_relations(tab) + verify_relations(tabt)
    checked = [r for _, r, pivot in res if not pivot]
    return max(checked), 0.0, 0.0, (tol if tol is not None else 1e-10), \
        f"{len(res)} relations, {len(checked)} over-determined"


def _jjl_engine(p: ParamSet, budget: Budget, seed: int, tol: float | None):
    # two shifted plain tables per record; every l is read from them
    worst = max(jjl_shift_residuals(p))
    return worst, 0.0, 0.0, (tol if tol is not None else 1e-8), \
        f"all l = 0..{p.k2}"


def _j0k_engine(p: ParamSet, budget: Budget, seed: int, tol: float | None):
    tab, tabt = solve_both(p)
    corners = cf.twisted_corners(p)  # corners[0] is the (k1, k2, 0) entry
    pairs = [(tab.value((0, p.k2, 0)), cf.j_closed_form("J0k20", p)),
             (tab.value((p.k1, p.k2, 0)), corners[0])]
    pairs += [(tabt.value((p.k1, p.k2, m)), want) for m, want in enumerate(corners)]
    devs = [abs((got / want).to_float() - 1.0) for got, want in pairs]
    return max(devs), 0.0, 0.0, (tol if tol is not None else 1e-8), \
        "table corners vs product forms"


def _monomial(degs_t, degs_s):
    """t^degs_t * s^degs_s on coordinate rows."""
    def poly(t, s):
        t = np.atleast_2d(t)
        s = np.atleast_2d(s)
        out = np.ones(t.shape[0])
        for i in range(t.shape[1]):
            out = out * t[:, i] ** degs_t[i]
        for i in range(s.shape[1]):
            out = out * s[:, i] ** degs_s[i]
        return out
    return poly


def _chain_decomp_engine(p: ParamSet, budget: Budget, seed: int, tol: float | None):
    rng = np.random.default_rng(seed)
    k1, k2 = p.k1, p.k2
    degs = [(rng.integers(0, 4, size=k1), rng.integers(0, 4, size=k2)) for _ in range(20)]
    # the 20 monomials are one family: each domain's frame and coordinate
    # rows are built once; each is checked against its exact cone integral
    members = [Integrand(_monomial(dt, ds), k1, k2, "01", 0, 1.0, 0.0, 1.0, 1.0,
                         kind="callable") for dt, ds in degs]
    spec = _quad_spec(budget, seed)
    checks = []
    for (dt, ds), (det, err) in zip(degs, integrate_family(members, unit_chain(k1, k2),
                                                           spec, p)):
        exact = float(cf.cone_monomial_integral(k1, k2, dt, ds))
        checks.append((abs(det - exact) / exact, (det, err, exact)))
    det, err, exact = _worst(checks)
    return det, err, exact, (tol if tol is not None else 1e-6), "worst of 20 random monomials"


def _in_cone(P: np.ndarray, k1: int, k2: int) -> np.ndarray:
    """Which rows (nu, nv) of integer parts lie in the cone: both blocks
    weakly decreasing and nonnegative, with nv[b] >= nu[b + k1 - k2]."""
    U, V = P[:, :k1], P[:, k1:]
    return (np.all(U[:, :-1] >= U[:, 1:], axis=1) & np.all(V[:, :-1] >= V[:, 1:], axis=1)
            & np.all(P >= 0, axis=1) & np.all(V >= U[:, k1 - k2:], axis=1))


def _fval_support_engine(p: ParamSet, budget: Budget, seed: int, tol: float | None):
    rng = np.random.default_rng(seed)
    k1, k2 = p.k1, p.k2
    cone = cone_array(k1, k2, 6)
    npts = budget.points
    # a row of k1 + k2 draws takes the same values from the stream as a
    # draw of nu then one of nv; keep the first npts off-cone rows
    off, found = [], 0
    while found < npts:
        rows = rng.integers(-4, 8, size=(2 * npts, k1 + k2))
        off.append(rows[~_in_cone(rows, k1, k2)])
        found += len(off[-1])
    # one batch: the in-cone rows, then the off-cone rows
    P = np.vstack([cone, *off])[:len(cone) + npts].astype(float)
    vals, rounding = lattice_values(P[:, :k1], P[:, k1:], p)
    in_vals, off_vals = vals[:len(cone)], vals[len(cone):]
    med = float(np.median(np.abs(in_vals[np.abs(in_vals) > 0])))
    worst = float(np.abs(off_vals).max(initial=0.0))
    err = max(float(rounding[len(cone):].max(initial=0.0)), _VALUE_ROUNDING * worst)
    return worst / med, err / med, 0.0, (tol if tol is not None else 1e-8), \
        f"max off-cone {worst:.2e} vs median in-cone {med:.2e}, {npts} points"


def _pde_engine(p: ParamSet, budget: Budget, seed: int, tol: float | None):
    r1, r2, err = pde_residual(p, use_closed_form=False, second_eq_denominator="z2",
                               max_bound=budget.max_bound)
    note = "second-equation denominator resolved to z2"
    if p.z1 == p.z2:  # both denominators read the same value here
        note = "second-equation denominator not discriminated at z1 == z2"
    elif p.k2 <= 1:  # the term over the disputed denominator has a factor k2 - 1
        note = "second-equation denominator not discriminated at k2 <= 1"
    else:
        _, alt, _ = pde_residual(p, use_closed_form=True, second_eq_denominator="z1")
        note += f" (closed-form check: z1 variant residual {alt:.1e})"
    return max(r1, r2), err, 0.0, (tol if tol is not None else 1e-6), note


def _stirling_engine(p: ParamSet, budget: Budget, seed: int, tol: float | None):
    x, c, d = 1000.0, 0.3, 0.0
    lhs = gamma_ratio(x, c, d).to_float()
    rhs = x ** (c - d)
    return lhs, 0.0, rhs, (tol if tol is not None else 1e-3), f"x={x}, c={c}, d={d}"


def _eps_link_engine(p: ParamSet, budget: Budget, seed: int, tol: float | None):
    ratio = eps_limit_ratio(p, EPS_LINK)
    return ratio, 0.0, 1.0, (tol if tol is not None else 5e-2), f"eps={EPS_LINK}"


def _limit_direction_engine(p: ParamSet, budget: Budget, seed: int, tol: float | None):
    P = cone_array(p.k1, p.k2, 5)
    np.random.default_rng(seed).shuffle(P)
    P = P[:min(budget.points, 20)]
    pairs, rounding = limit_pairs(P[:, :p.k1], P[:, p.k1:], p)
    scale = np.abs(pairs).max(axis=1)
    compared = scale > 1e-12
    dev = np.abs(pairs[:, 0] - pairs[:, 1])[compared] / scale[compared]
    worst = float(dev.max(initial=0.0))
    # each limit is within its rounding; a check that compared no point has
    # shown nothing
    err = float((2.0 * rounding[compared] / scale[compared]).max(initial=0.0))
    err = err if compared.any() else math.inf
    return worst, err, 0.0, (tol if tol is not None else 1e-6), \
        f"max two-direction disagreement, {int(compared.sum())} of {len(P)} points compared"


@dataclass(frozen=True)
class IdentityEntry:
    identity_id: str
    description: str
    predicate: str
    validate: object
    engine: object
    aggregate: bool  # rel_dev is the measured quantity itself


REGISTRY: dict[str, IdentityEntry] = {}


def _register(identity_id, description, predicate, validate, engine, aggregate=False):
    REGISTRY[identity_id] = IdentityEntry(identity_id, description, predicate,
                                          validate, engine, aggregate)


_register("selb", "k-dimensional beta-type integral over the ordered simplex "
          "vs gamma product", "alpha>0, beta>0, gamma above -min(1/k, alpha/(k-1), "
          "beta/(k-1)), gamma != 0", _v_selb,
          _quad_engine("selb", cf.selberg_rhs, "deterministic"))
_register("exp", "exponential-weight integral on the half-line vs gamma product",
          "alpha>0, gamma above convergence threshold, gamma != 0", _v_exp,
          _quad_engine("exp", cf.exp_selberg_rhs))
_register("dexp", "one-block lattice-cone series vs gamma product",
          "alpha>0, z in (0,1), gamma != 0, no Gamma pole in the closed form", _v_dexp,
          _series_engine("dexp", cf.discrete_exp_rhs))
_register("dexp3", "two-block lattice-cone series vs gamma product",
          "alpha>0, z1,z2 in (0,1), gamma in (-0.5,0), no Gamma pole in the closed form", _v_dexp3,
          _series_engine("dexp3", cf.sl3_discrete_rhs))
_register("exp3", "two-block half-line chain integral vs gamma product",
          "alpha,beta1,beta2>0, gamma in (-0.5,0), every cluster of points integrable", _v_exp3,
          _quad_engine("exp3", cf.sl3_exp_rhs))
_register("selb3", "two-block [0,1] chain integral with rational weight vs "
          "gamma product", "alpha,beta1,beta2>0, gamma in (-0.5,0), every cluster of points "
          "integrable (k1=k2=1: beta1+beta2-gamma>1)", _v_selb3,
          _quad_engine("selb3", cf.sl3_selberg_rhs))
_register("selb30", "two-block [0,1] chain integral without rational weight vs "
          "gamma product", "alpha,beta1,beta2>0, gamma in (-0.5,0), every cluster of points "
          "integrable", _v_selb30,
          _quad_engine("selb30", cf.sl3_selberg0_rhs))
_register("aomoto", "moment integrals of the beta-type density vs shifted "
          "product forms", "as selb, k <= 6", _v_aomoto, _aomoto_engine)
_register("jjj_relations", "recursion-relation residuals of the solved "
          "end-point integral tables", "as jjl_shift, and some relation over-determined "
          "(k2 >= 1, not k1 = k2 = 1)", _v_jjj, _jjj_engine, aggregate=True)
_register("jjl_shift", "parameter-shift identity between table corners",
          "alpha,beta1,beta2>0, gamma in (-0.5,0), 1 <= k1, k1+k2 <= 8", _v_recursion,
          _jjl_engine, aggregate=True)
_register("j0k", "boundary closed forms of the recursion tables",
          "as jjl_shift", _v_recursion, _j0k_engine, aggregate=True)
_register("chain_decomp", "domain decomposition of the interleaved cone on "
          "smooth test functions", "k1 >= k2 >= 0, k1+k2 <= 4", _v_decomp,
          _chain_decomp_engine)
_register("fval_support", "summand support: off-cone lattice values vanish",
          "as dexp3", _v_dexp3, _fval_support_engine, aggregate=True)
_register("pde_residual", "first-order system residuals of the truncated "
          "series in z1, z2", "as dexp3", _v_dexp3, _pde_engine, aggregate=True)
_register("stirling_ratio", "large-argument gamma ratio vs plain power",
          "none", _v_open, _stirling_engine)
_register("eps_limit_link", "rescaled discrete closed form approaches the "
          "continuous one", "as exp3", _v_sl3_cont, _eps_link_engine)
_register("limit_direction", "direction independence of lattice limit values",
          "as dexp3", _v_dexp3, _limit_direction_engine, aggregate=True)


def identity_ids() -> list[str]:
    return list(REGISTRY)


def run_identity(identity_id: str, p: ParamSet, budget: Budget | None = None,
                 seed: int = DEFAULT_SEED, tol: float | None = None) -> VerificationRecord:
    """Run one identity check and produce its record."""
    if identity_id not in REGISTRY:
        raise InvalidParamsError(f"unknown identity {identity_id!r}")
    entry = REGISTRY[identity_id]
    entry.validate(p)
    budget = budget or Budget()
    t0 = time.perf_counter()
    lhs, lhs_err, rhs, tolerance, note = entry.engine(p, budget, seed, tol)
    runtime_ms = int(1000 * (time.perf_counter() - t0))
    if entry.aggregate or rhs == 0.0:
        rel_dev = lhs if rhs == 0.0 else abs(lhs - rhs) / abs(rhs)
        err_rel = lhs_err
    else:
        rel_dev = abs(lhs - rhs) / abs(rhs)
        err_rel = lhs_err / abs(rhs)
    if 3.0 * err_rel <= tolerance * (1.0 + 1e-9):
        passed = rel_dev <= tolerance
    else:
        passed = False
        note = (note + "; " if note else "") + "insufficient precision"
    return VerificationRecord(identity_id, p, lhs, lhs_err, rhs, rel_dev,
                              tolerance, passed, seed, runtime_ms, note)


def run_grid(identity_id: str, grid, budget: Budget | None = None,
             seed: int = DEFAULT_SEED, tol: float | None = None) -> list[VerificationRecord]:
    """Run one identity over a list of parameter points."""
    records = []
    for i, p in enumerate(grid):
        records.append(run_identity(identity_id, p, budget=budget,
                                    seed=seed + i, tol=tol))
    return records
