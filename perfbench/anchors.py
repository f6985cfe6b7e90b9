"""Checks of the program's records against values computed apart from it.

* Selberg's product formula and its Laguerre limit, in mpmath, for the
  right-hand sides of ``selb`` and ``exp``, and Aomoto's moment formula
  for ``aomoto``.  The program writes these products in another form
  (Gamma(g + jg)/Gamma(g) factors, beta-shifted prefactors), so agreement
  is a real check.
* Gamma(alpha) (1 - z)^(-alpha) for ``dexp`` at k = 1.
* Exact ``Fraction`` integrals of monomials over the interleaved cone
  (the union of the ``unit_chain`` domains), for the deterministic
  engine's values that the worker reports.
* For every record, the deviation and the verdict are recomputed from
  ``lhs``, ``rhs``, ``lhs_err`` and ``tolerance``; ``passed`` is never
  taken on trust.

Nothing here imports ``selberg3``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

import mpmath as mp

mp.mp.dps = 30

ANCHOR_RTOL = 1e-9       # closed form vs mpmath product
MONOMIAL_RTOL = 1e-9     # deterministic engine vs exact rational integral
RECOMPUTE_RTOL = 1e-12   # reported vs recomputed deviation


def selberg_ordered(k: int, a: float, b: float, g: float) -> mp.mpf:
    """Selberg's integral over 1 > t_1 > ... > t_k > 0 (the cube value / k!)."""
    a, b, g = mp.mpf(a), mp.mpf(b), mp.mpf(g)
    val = mp.mpf(1)
    for j in range(k):
        val *= (mp.gamma(a + j * g) * mp.gamma(b + j * g) * mp.gamma(1 + (j + 1) * g)
                / (mp.gamma(a + b + (k + j - 1) * g) * mp.gamma(1 + g)))
    return val / mp.factorial(k)


def laguerre_ordered(k: int, a: float, g: float) -> mp.mpf:
    """Laguerre limit of Selberg's integral (weight t^(a-1) e^(-t) on the
    half-line), over the ordered chamber."""
    a, g = mp.mpf(a), mp.mpf(g)
    val = mp.mpf(1)
    for j in range(k):
        val *= mp.gamma(a + j * g) * mp.gamma(1 + (j + 1) * g) / mp.gamma(1 + g)
    return val / mp.factorial(k)


def aomoto_ordered(k: int, ell: int, a: float, b: float, g: float) -> mp.mpf:
    """Aomoto's moment: the mean of t_1..t_l (1-t_{l+1})..(1-t_k) against
    Selberg's density, times Selberg's integral."""
    am, bm, gm = mp.mpf(a), mp.mpf(b), mp.mpf(g)
    val = selberg_ordered(k, a, b, g)
    for j in range(1, ell + 1):
        val *= am + (k - j) * gm
    for j in range(1, k - ell + 1):
        val *= bm + (k - j) * gm
    for j in range(1, k + 1):
        val /= am + bm + (2 * k - j - 1) * gm
    return val


def dexp_k1(a: float, z: float) -> mp.mpf:
    """sum_n Gamma(a + n) z^n / n! = Gamma(a) (1 - z)^(-a)."""
    return mp.gamma(a) * (1 - mp.mpf(z)) ** (-mp.mpf(a))


def _close(x: float, ref, rtol: float) -> bool:
    return abs(mp.mpf(x) - ref) <= rtol * abs(ref)


def rhs_anchor_ok(rec: dict) -> bool | None:
    """Whether the record's right-hand side matches the independent product;
    None when no anchor covers the record."""
    which, p = rec["identity"], rec["params"]
    k = p.get("k1", 1)
    a, b, g = p.get("alpha", 1.0), p.get("beta1", 1.0), p.get("gamma", -0.1)
    if which == "selb":
        return _close(rec["rhs"], selberg_ordered(k, a, b, g), ANCHOR_RTOL)
    if which == "exp":
        return _close(rec["rhs"], laguerre_ordered(k, a, g), ANCHOR_RTOL)
    if which == "aomoto":
        # the record reports the moment with the worst deviation
        return any(_close(rec["rhs"], aomoto_ordered(k, ell, a, b, g), ANCHOR_RTOL)
                   for ell in range(k + 1))
    if which == "dexp" and k == 1:
        return _close(rec["rhs"], dexp_k1(a, p.get("z1", 0.5)), ANCHOR_RTOL)
    return None


def verdict(rec: dict) -> tuple[float, bool]:
    """(rel_dev, passed) recomputed from the record's numbers, by the rule
    the records document: a relative deviation within tolerance, with an
    error bar whose 3-sigma stays within tolerance too."""
    lhs, rhs, err, tol = rec["lhs"], rec["rhs"], rec["lhs_err"], rec["tolerance"]
    if rec["aggregate"] or rhs == 0.0:
        rel_dev = lhs if rhs == 0.0 else abs(lhs - rhs) / abs(rhs)
        err_rel = err
    else:
        rel_dev = abs(lhs - rhs) / abs(rhs)
        err_rel = err / abs(rhs)
    passed = 3.0 * err_rel <= tol * (1.0 + 1e-9) and rel_dev <= tol
    return rel_dev, passed


def chain_monomial(exponents) -> Fraction:
    """Exact integral of prod c_i^e_i over 1 >= c_1 >= ... >= c_K >= 0."""
    out, tail, K = Fraction(1), 0, len(exponents)
    for i in range(K - 1, -1, -1):
        tail += exponents[i]
        out /= tail + (K - i)
    return out


def cone_monomial(k1: int, k2: int, degs_t, degs_s) -> Fraction:
    """Exact integral of a monomial over the interleaved cone in [0,1]:
    t and s each descending, s_b >= t_(b+k1-k2), summed over total orders."""
    labels = [("t", a) for a in range(k1)] + [("s", b) for b in range(k2)]
    total = Fraction(0)
    for perm in permutations(labels):
        pos = {lab: i for i, lab in enumerate(perm)}
        if any(pos[("t", a)] > pos[("t", a + 1)] for a in range(k1 - 1)):
            continue
        if any(pos[("s", b)] > pos[("s", b + 1)] for b in range(k2 - 1)):
            continue
        if any(pos[("s", b)] > pos[("t", b + k1 - k2)] for b in range(k2)):
            continue
        total += chain_monomial([degs_t[i] if kind == "t" else degs_s[i]
                                 for kind, i in perm])
    return total


def check_pass(records: list[dict], is_known_failure) -> tuple[list[str], int]:
    """Problems found in one pass, and the number of failed records."""
    problems, failed = [], 0
    for rec in records:
        where = f"{rec['identity']} {rec['params']} seed {rec['seed']}"
        if rec["error"] is not None:
            failed += 1
            problems.append(f"{where}: raised {rec['error']}")
            continue
        rel_dev, passed = verdict(rec)
        if not math.isclose(rel_dev, rec["rel_dev"], rel_tol=RECOMPUTE_RTOL, abs_tol=1e-300):
            problems.append(f"{where}: reported rel_dev {rec['rel_dev']!r}, "
                            f"recomputed {rel_dev!r}")
        if passed != rec["passed"]:
            problems.append(f"{where}: reported passed={rec['passed']}, recomputed {passed}")
        if rhs_anchor_ok(rec) is False:
            problems.append(f"{where}: rhs {rec['rhs']!r} disagrees with the mpmath product")
        if not passed:
            failed += 1
            if not is_known_failure(rec["identity"], rec["params"]):
                problems.append(f"{where}: failed (rel_dev {rel_dev:.3e}, "
                                f"tolerance {rec['tolerance']:.1e}, {rec['note']})")
    return problems, failed


def check_monomials(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        exact = cone_monomial(row["k1"], row["k2"], row["degs_t"], row["degs_s"])
        if abs(row["value"] - float(exact)) > MONOMIAL_RTOL * float(exact):
            problems.append(f"monomial t^{row['degs_t']} s^{row['degs_s']} over "
                            f"unit_chain({row['k1']},{row['k2']}): {row['value']!r} "
                            f"vs exact {exact}")
    return problems
