"""Linear recursion system for the end-point integral families.

Two families (plain and twisted) of integrals indexed by admissible
triples (l1, l2, m) satisfy two relation families each: one advancing l1
at fixed (l2, m), one advancing l2.  For generic parameters the whole
table follows from the single seed value at (0, 0, 0).

Every relation has three terms, each coefficient affine in (1, alpha,
beta1, beta2, gamma) with integer multipliers, and which entries the
terms touch depends only on the shape.  So each (k1, k2, twisted) has
one plan: the relations' entry indices and multiplier rows, and the
solver's steps.  A term on an inadmissible triple has an all-zero row
and adds an exact 0.

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

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .closed_forms import j_closed_form
from .errors import InconsistentSystemError, PivotZeroError
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
    """Solved table of one family: the entries solve the shape's relations,
    whose coefficients are ``coeffs``, at a unit seed, and ``seed`` scales
    them at read-out."""

    k1: int
    k2: int
    params: ParamSet
    twisted: bool
    seed: LogSigned
    entries: dict = field(default_factory=dict)  # triple -> float, at seed 1
    coeffs: list = field(default_factory=list)  # three per relation of the plan

    def value(self, triple) -> LogSigned:
        return self.seed * LogSigned.from_float(self.entries[triple])


class _Plan(NamedTuple):
    triples: list  # the admissible triples, in table index order
    rids: list  # relation ids
    terms: list  # three entry indices per relation, flattened
    rows: np.ndarray  # (5, 3 * relations): multipliers of 1, alpha, beta1, beta2, gamma
    steps: list  # relation indices: one solves its middle term, two their last two
    pivot: list  # whether a step consumes each relation


@functools.lru_cache(maxsize=None)
def _plan(k1: int, k2: int, twisted: bool) -> _Plan:
    """The relations and solver steps of one shape."""
    triples = admissible_triples(k1, k2)
    at = {t: i for i, t in enumerate(triples)}
    rel, terms, rows = {}, [], []
    a, b = ("A~", "B~") if twisted else ("A", "B")

    def relation(rid, raw):
        for row, triple in raw:
            if triple not in at and any(row):
                raise InconsistentSystemError(f"inadmissible index {triple} enters {rid}")
            terms.append(at.get(triple, 0))  # a zero row reads the seed for an exact 0
            rows.append(row)
        rel[rid] = len(rel)

    for (l1, l2, m) in triples:
        if l1 < k1 - k2 + l2:
            shift = l1 - m if twisted else l1 - l2 + m
            relation((a, l1, l2, m), [((0, 1, 0, 0, k1 - l1 - 1), (l1, l2, m)),
                                      ((0, 0, -1, 0, -shift), (l1 + 1, l2, m)),
                                      ((0, 0, 0, 0, l2 - m), (l1 + 1, l2, m + 1))])
        if m < l2:
            shift = l2 - l1 + m - 1 if twisted else l2 - m - 1
            relation((b, l1, l2, m), [((0, 0, 0, 0, k2 - k1 + l1 - l2), (l1, l2 - 1, m)),
                                      ((0, 0, 0, -1, -shift), (l1, l2, m)),
                                      ((0, 0, 0, 0, m - l1), (l1, l2, m + 1))])
    steps = []
    for l2 in range(k2 + 1):
        for l1 in range(k1 - k2 + l2 + 1):
            top = min(l1, l2)
            if l1 == l2 > 0:  # the column top needs two relations solved jointly
                steps.append((rel[a, l1 - 1, l2, top - 1], rel[b, l1, l2, top - 1]))
                top -= 1
            elif l1 != l2:
                steps.append((rel[(a, l1 - 1, l2, top) if l1 > l2 else (b, l1, l2, top)],))
            steps += [(rel[a, l1 - 1, l2, m],) for m in range(top - 1, -1, -1)]
    used = {r for step in steps for r in step}
    return _Plan(triples, list(rel), terms, np.array(rows, dtype=float).reshape(-1, 5).T, steps,
                 [r in used for r in range(len(rel))])


def _guard(coeff: float, what: str) -> float:
    if abs(coeff) < PIVOT_GUARD:
        raise PivotZeroError(f"{what} pivot {coeff!r} below genericity guard")
    return coeff


def solve_j(p: ParamSet, seed_value: LogSigned, twisted: bool = False) -> JTable:
    """Fill the whole table from the seed entry at (0, 0, 0).

    The table is linear in its seed, so it is solved in plain floats at a
    unit seed, and ``seed_value`` is applied when an entry is read.  Every
    coefficient is its multiplier row evaluated term by term, left to
    right, which rounds as the relation's own expression does."""
    plan = _plan(p.k1, p.k2, twisted)
    M, t = plan.rows, plan.terms
    c = (M[0] + M[1] * p.alpha + M[2] * p.beta1 + M[3] * p.beta2 + M[4] * p.gamma).tolist()
    x = [1.0] + [math.nan] * (len(plan.triples) - 1)
    for step in plan.steps:
        i = 3 * step[0]
        if len(step) == 1:  # the relation's beta-shifted middle term
            x[t[i + 1]] = ((0.0 - c[i] * x[t[i]] - c[i + 2] * x[t[i + 2]])
                           / _guard(c[i + 1], f"beta-shifted {plan.rids[step[0]]}"))
        else:  # the last two terms of two relations, by Cramer's rule
            j = 3 * step[1]
            a11, a12, ra = c[i + 1], c[i + 2], 0.0 - c[i] * x[t[i]]
            b11, b12, rb = c[j + 1], c[j + 2], 0.0 - c[j] * x[t[j]]
            det = _guard(a11 * b12 - a12 * b11, "column-top determinant")
            x[t[i + 1]], x[t[i + 2]] = (b12 * ra - a12 * rb) / det, (a11 * rb - b11 * ra) / det
    bad = [tr for tr, v in zip(plan.triples, x) if not math.isfinite(v)]
    if bad:
        raise InconsistentSystemError(f"solver left entries unfilled or non-finite: {bad}")
    return JTable(p.k1, p.k2, p, twisted, seed_value, dict(zip(plan.triples, x)), c)


def verify_relations(table: JTable) -> list[tuple]:
    """Relative residual of every relation of the table's plan, at the
    coefficients the table was solved from.

    Returns [(relation id, residual, used_as_pivot)]; residuals are
    |sum(coeff * value)| / max |coeff * value|.
    """
    plan = _plan(table.k1, table.k2, table.twisted)
    x = [table.entries[t] for t in plan.triples]
    c, t = table.coeffs, plan.terms
    out = []
    for r, rid in enumerate(plan.rids):
        terms = [c[i] * x[t[i]] for i in range(3 * r, 3 * r + 3)]
        scale = max(map(abs, terms))
        resid = abs(math.fsum(terms)) / scale if scale > 0 else 0.0
        out.append((rid, resid, plan.pivot[r]))
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
