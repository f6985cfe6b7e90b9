"""Linear recursion system for the end-point integral families.

Two families (plain and twisted) of integrals indexed by admissible
triples (l1, l2, m) satisfy two relation families each: one advancing l1
at fixed (l2, m), one advancing l2.  For generic parameters the whole
table follows from the single seed value at (0, 0, 0).

The table is linear in its seed, so it is solved once in plain floats at
a unit seed; the seed's log-signed value scales an entry when it is read.
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
    """Solved table of one family: the entries solve ``relations`` at a
    unit seed, and ``seed`` scales them at read-out."""

    k1: int
    k2: int
    params: ParamSet
    twisted: bool
    seed: LogSigned
    entries: dict = field(default_factory=dict)  # triple -> float, at seed 1
    pivot_ids: set = field(default_factory=set)
    relations: list = field(default_factory=list)  # every relation instance

    def value(self, triple) -> LogSigned:
        return self.seed * LogSigned.from_float(self.entries[triple])


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


def _step(tab: JTable, rels: list[Relation], targets: list[tuple]) -> None:
    """Solve relations for as many entries, every other entry they touch
    being known: one relation for its beta-shifted pivot entry, or two
    for the column top at l1 = l2 by Cramer's rule."""
    rows = []
    for rel in rels:
        coeffs, rhs = [0.0] * len(targets), 0.0
        for coeff, triple in rel.terms:
            if triple in targets:
                coeffs[targets.index(triple)] = coeff
            else:
                rhs -= coeff * tab.entries[triple]
        rows.append((coeffs, rhs))
    if len(rows) == 1:
        [([pivot], rhs)] = rows
        values = [rhs / _guard(pivot, f"beta-shifted {rels[0].rid}")]
    else:
        ([a11, a12], ra), ([b11, b12], rb) = rows
        det = _guard(a11 * b12 - a12 * b11, "column-top determinant")
        values = [(b12 * ra - a12 * rb) / det, (a11 * rb - b11 * ra) / det]
    tab.entries.update(zip(targets, values))
    tab.pivot_ids.update(rel.rid for rel in rels)


def solve_j(p: ParamSet, seed_value: LogSigned, twisted: bool = False) -> JTable:
    """Fill the whole table from the seed entry at (0, 0, 0).

    The table is linear in its seed, so it is solved in plain floats at a
    unit seed, and ``seed_value`` is applied when an entry is read."""
    k1, k2 = p.k1, p.k2
    tab = JTable(k1, k2, p, twisted, seed_value, {(0, 0, 0): 1.0},
                 relations=all_relations(p, twisted))
    rels = {rel.rid: rel for rel in tab.relations}
    a, b = ("A~", "B~") if twisted else ("A", "B")
    for l2 in range(k2 + 1):
        for l1 in range(k1 - k2 + l2 + 1):
            top = min(l1, l2)
            if l1 == l2 > 0:
                # the column top needs two relations solved jointly
                _step(tab, [rels[(a, l1 - 1, l2, top - 1)], rels[(b, l1, l2, top - 1)]],
                      [(l1, l2, top - 1), (l1, l2, top)])
                top -= 1
            elif l1 > l2:
                _step(tab, [rels[(a, l1 - 1, l2, top)]], [(l1, l2, top)])
            elif l1 < l2:
                _step(tab, [rels[(b, l1, l2, top)]], [(l1, l2, top)])
            for m in range(top - 1, -1, -1):
                _step(tab, [rels[(a, l1 - 1, l2, m)]], [(l1, l2, m)])

    bad = [t for t in admissible_triples(k1, k2)
           if not math.isfinite(tab.entries.get(t, math.nan))]
    if bad:
        raise InconsistentSystemError(f"solver left entries unfilled or non-finite: {bad}")
    return tab


def verify_relations(table: JTable, p: ParamSet) -> list[tuple]:
    """Relative residual of every relation instance against the table.

    The relations are the ones the table was solved from, at its own
    parameters ``p``.  Returns [(relation id, residual, used_as_pivot)];
    residuals are |sum(coeff * value)| / max |coeff * value|.
    """
    out = []
    for rel in table.relations:
        terms = [coeff * table.entries[triple] for coeff, triple in rel.terms]
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
