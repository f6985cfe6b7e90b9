"""Linear recursion system for the end-point integral families.

Two families (plain and twisted) of integrals indexed by admissible
triples (l1, l2, m) satisfy two relation families each: one advancing l1
at fixed (l2, m), one advancing l2.  For generic parameters the whole
table follows from the single seed value at (0, 0, 0).

The solver walks columns (l2 ascending, l1 ascending) and fills each
column from the top of its m-chain downward.  Every pivot divides by a
beta-shifted coefficient; the only other division is the 2x2 column-top
solve needed when l1 = l2, whose determinant is gamma * (beta1 + beta2 +
(l1-2) gamma).  Relations not consumed as pivots are kept as an
over-determination check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .closed_forms import j_closed_form
from .errors import InconsistentSystemError, PivotZeroError
from .integrands import is_admissible
from .logreal import LogSigned
from .params import ParamSet

PIVOT_GUARD = 1e-6


def admissible_triples(k1: int, k2: int) -> list[tuple]:
    """All admissible (l1, l2, m), ordered l2, then l1, then m."""
    out = []
    for l2 in range(k2 + 1):
        for l1 in range(k1 - k2 + l2 + 1):
            for m in range(min(l1, l2) + 1):
                out.append((l1, l2, m))
    return out


@dataclass
class JTable:
    """Solved table of one family, with provenance per entry."""

    k1: int
    k2: int
    params: ParamSet
    twisted: bool
    entries: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    pivot_ids: set = field(default_factory=set)

    def value(self, triple) -> LogSigned:
        return self.entries[triple]

    def floats(self) -> dict:
        return {t: v.to_float() for t, v in self.entries.items()}


@dataclass(frozen=True)
class Relation:
    """One instantiated relation, sum(coeff * entry) = 0."""

    rid: tuple
    terms: tuple  # of (float coeff, triple)


def _relation_a(p: ParamSet, l1, l2, m, twisted: bool) -> Relation:
    a, b1, g = p.alpha, p.beta1, p.gamma
    k1, k2 = p.k1, p.k2
    pivot = b1 + (l1 - m) * g if twisted else b1 + (l1 - l2 + m) * g
    raw = [
        (a + (k1 - l1 - 1) * g, (l1, l2, m)),
        (-pivot, (l1 + 1, l2, m)),
        ((l2 - m) * g, (l1 + 1, l2, m + 1)),
    ]
    return _prune(("A~" if twisted else "A", l1, l2, m), raw, k1, k2)


def _relation_b(p: ParamSet, l1, l2, m, twisted: bool) -> Relation:
    b2, g = p.beta2, p.gamma
    k1, k2 = p.k1, p.k2
    pivot = b2 + (l2 - l1 + m - 1) * g if twisted else b2 + (l2 - m - 1) * g
    raw = [
        ((k2 - k1 + l1 - l2) * g, (l1, l2 - 1, m)),
        (-pivot, (l1, l2, m)),
        (-(l1 - m) * g, (l1, l2, m + 1)),
    ]
    return _prune(("B~" if twisted else "B", l1, l2, m), raw, k1, k2)


def _prune(rid, raw, k1, k2) -> Relation:
    terms = []
    for coeff, triple in raw:
        if is_admissible(*triple, k1, k2):
            terms.append((coeff, triple))
        elif abs(coeff) > 1e-12:
            raise InconsistentSystemError(
                f"inadmissible index {triple} enters {rid} with coefficient {coeff!r}")
    return Relation(rid, tuple(terms))


def all_relations(p: ParamSet, twisted: bool) -> list[Relation]:
    """Every valid relation instance for the given shape."""
    k1, k2 = p.k1, p.k2
    out = []
    for (l1, l2, m) in admissible_triples(k1, k2):
        if l1 < k1 - k2 + l2:
            out.append(_relation_a(p, l1, l2, m, twisted))
        if 0 <= m < l2:
            out.append(_relation_b(p, l1, l2, m, twisted))
    return out


def _guard(coeff: float, what: str) -> float:
    if abs(coeff) < PIVOT_GUARD:
        raise PivotZeroError(f"{what} pivot {coeff!r} below genericity guard")
    return coeff


def solve_j(p: ParamSet, seed_value: LogSigned, twisted: bool = False) -> JTable:
    """Fill the whole table from the seed entry at (0, 0, 0)."""
    k1, k2 = p.k1, p.k2
    a, b1, b2, g = p.alpha, p.beta1, p.beta2, p.gamma
    tab = JTable(k1, k2, p, twisted)
    tab.entries[(0, 0, 0)] = seed_value
    tab.provenance[(0, 0, 0)] = "seed"

    def set_entry(triple, value, how, rid=None):
        tab.entries[triple] = value
        tab.provenance[triple] = how
        if rid is not None:
            tab.pivot_ids.add(rid)

    def from_b(l1, l2, m):
        """Solve relation B at (l1, l2, m) for the (l1, l2, m) entry."""
        rel = _relation_b(p, l1, l2, m, twisted)
        target = (l1, l2, m)
        acc = LogSigned.zero()
        pivot = None
        for coeff, triple in rel.terms:
            if triple == target:
                pivot = _guard(coeff, "beta2-shifted")
                continue
            acc = acc + LogSigned.from_float(coeff) * tab.entries[triple]
        set_entry(target, acc / LogSigned.from_float(-pivot), "relation", rel.rid)

    def from_a(l1, l2, m):
        """Solve relation A at (l1, l2, m) for the (l1+1, l2, m) entry."""
        rel = _relation_a(p, l1, l2, m, twisted)
        target = (l1 + 1, l2, m)
        acc = LogSigned.zero()
        pivot = None
        for coeff, triple in rel.terms:
            if triple == target:
                pivot = _guard(coeff, "beta1-shifted")
                continue
            acc = acc + LogSigned.from_float(coeff) * tab.entries[triple]
        set_entry(target, acc / LogSigned.from_float(-pivot), "relation", rel.rid)

    for l2 in range(k2 + 1):
        for l1 in range(k1 - k2 + l2 + 1):
            if l1 == 0 and l2 == 0:
                continue
            if l1 == 0:
                from_b(0, l2, 0)
                continue
            mtop = min(l1, l2)
            if l1 > l2:
                from_a(l1 - 1, l2, l2)
                rest = range(mtop - 1, -1, -1)
            elif l1 < l2:
                from_b(l1, l2, l1)
                rest = range(mtop - 1, -1, -1)
            else:
                d = l1
                # column top needs two relations solved jointly
                rel_a = _relation_a(p, d - 1, d, d - 1, twisted)
                rel_b = _relation_b(p, d, d, d - 1, twisted)
                x_t, y_t = (d, d, d - 1), (d, d, d)

                def split(rel):
                    cx = cy = 0.0
                    rhs = LogSigned.zero()
                    for coeff, triple in rel.terms:
                        if triple == x_t:
                            cx = coeff
                        elif triple == y_t:
                            cy = coeff
                        else:
                            rhs = rhs + LogSigned.from_float(-coeff) * tab.entries[triple]
                    return cx, cy, rhs

                a11, a12, ra = split(rel_a)
                b11, b12, rb = split(rel_b)
                det = _guard(a11 * b12 - a12 * b11, "column-top determinant")
                det_ls = LogSigned.from_float(det)
                xval = (LogSigned.from_float(b12) * ra - LogSigned.from_float(a12) * rb) / det_ls
                yval = (LogSigned.from_float(a11) * rb - LogSigned.from_float(b11) * ra) / det_ls
                set_entry(y_t, yval, "relation", rel_a.rid)
                set_entry(x_t, xval, "relation", rel_b.rid)
                rest = range(d - 2, -1, -1)
            for m in rest:
                from_a(l1 - 1, l2, m)

    missing = [t for t in admissible_triples(k1, k2) if t not in tab.entries]
    if missing:
        raise InconsistentSystemError(f"solver left entries unfilled: {missing}")
    return tab


def verify_relations(table: JTable, p: ParamSet) -> list[tuple]:
    """Relative residual of every relation instance against the table.

    Returns [(relation id, residual, used_as_pivot)]; residuals are
    |sum(coeff * value)| / max |coeff * value|.
    """
    out = []
    for rel in all_relations(p, table.twisted):
        terms = [coeff * table.entries[triple].to_float() for coeff, triple in rel.terms]
        scale = max(abs(x) for x in terms) if terms else 0.0
        resid = abs(math.fsum(terms)) / scale if scale > 0 else 0.0
        out.append((rel.rid, resid, rel.rid in table.pivot_ids))
    return out


def solve_both(p: ParamSet, seed_value: LogSigned | None = None):
    """(plain, twisted) tables from the shared closed-form seed."""
    if seed_value is None:
        seed_value = j_closed_form("J000", p)
    return solve_j(p, seed_value, twisted=False), solve_j(p, seed_value, twisted=True)


def jjl_shift_residuals(p: ParamSet) -> list[float]:
    """Residuals of the parameter-shift identity between table corners,
    for l = 0..k2.

    The (0, l, 0) entry at (alpha+1, beta1, beta2) must equal the
    (k1, k2, k2-l) entry at (alpha, beta1+1, beta2).  Both sides are
    plain-table entries, so the two shifted plain tables are solved once
    and every l is read from them.
    """
    q_left = p.with_(alpha=p.alpha + 1.0)
    q_right = p.with_(beta1=p.beta1 + 1.0)
    left_tab = solve_j(q_left, j_closed_form("J000", q_left))
    right_tab = solve_j(q_right, j_closed_form("J000", q_right))
    out = []
    for l in range(p.k2 + 1):
        left = left_tab.value((0, l, 0))
        right = right_tab.value((p.k1, p.k2, p.k2 - l))
        out.append(abs((left / right).to_float() - 1.0))
    return out
