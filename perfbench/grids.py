"""The benchmark's workloads: fixed lists of (identity, parameters, seed).

A grid is a list of ``Case`` tuples.  ``series`` and ``quadrature`` are
fixed reference grids.  In ``series`` the run seed moves the
``run_identity`` seeds, which drive the random probe directions of the
lattice limits and the random off-cone points.  ``sweep`` draws its
parameter points and its record seeds from the run seed.  ``quadrature``
keeps fixed record seeds: its Monte Carlo records pass when the deviation
is within 3 sigma, which fails by chance on a small share of seeds even
when the error bar is right, and a benchmark needs the same failure
count on every seed.

Records left out because they fail on some seeds only (see CHANGES.md):
``exp`` at k = 3 (its Monte Carlo error bar under-covers) and ``selb3``
in ``sweep`` (the deterministic rule lacks precision at small beta and
small |gamma|).

This module imports nothing from the program, so ``run.py`` can
use it without loading ``selberg3``.
"""

from __future__ import annotations

import random
from typing import NamedTuple

WORKLOADS = ("series", "quadrature", "sweep")

# record seeds: RECORD_SEED_BASE * seed + index, so two run seeds never share
# a record seed while a grid stays below this many records
RECORD_SEED_BASE = 100_000
# quadrature record seeds: the program's default seed + index, on every run
FIXED_SEED_BASE = 20070920

SWEEP_POINTS = 150

# the one record that fails "insufficient precision" on every run at the
# default deterministic budget (ROADMAP 3a); it is counted as failed
KNOWN_FAILURE = ("selb", {"k1": 3, "k2": 0, "alpha": 1.2, "beta1": 2.2,
                          "gamma": -0.25})


class Case(NamedTuple):
    identity: str
    params: dict
    seed: int


def _series_cases() -> list[tuple[str, dict]]:
    a, g = 1.3, -0.15
    out = []
    for k in (1, 2, 3):
        for z in (0.3, 0.6):
            out.append(("dexp", dict(k1=k, k2=0, alpha=a, gamma=g, z1=z)))
    for k1, k2 in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)):
        for z1, z2 in ((0.2, 0.4), (0.4, 0.2)):
            out.append(("dexp3", dict(k1=k1, k2=k2, alpha=a, gamma=g, z1=z1, z2=z2)))
    for k1, k2 in ((2, 1), (2, 2)):
        out.append(("pde_residual", dict(k1=k1, k2=k2, alpha=a, gamma=g, z1=0.3, z2=0.5)))
    out.append(("limit_direction", dict(k1=2, k2=2, alpha=a, gamma=g, z1=0.3, z2=0.5)))
    out.append(("fval_support", dict(k1=2, k2=1, alpha=a, gamma=g, z1=0.3, z2=0.5)))
    return out


def _quadrature_cases() -> list[tuple[str, dict]]:
    out = []
    # the three reference points of acceptance criterion 1
    for a, b, g in ((2.5, 1.5, -0.1), (1.2, 2.2, -0.25), (1.0, 1.0, 1.0)):
        for k in (1, 2, 3):
            out.append(("selb", dict(k1=k, k2=0, alpha=a, beta1=b, gamma=g)))
    sl3 = dict(alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
    for which in ("selb3", "selb30"):
        for k1, k2 in ((1, 1), (2, 1), (2, 2)):  # (2, 2) goes to Monte Carlo
            out.append((which, dict(k1=k1, k2=k2, **sl3)))
    out.append(("aomoto", dict(k1=3, k2=0, alpha=1.5, beta1=1.2, gamma=-0.11)))
    for k in (1, 2):
        out.append(("exp", dict(k1=k, k2=0, alpha=1.5, gamma=-0.15)))
    for k1, k2 in ((1, 1), (2, 1)):
        out.append(("exp3", dict(k1=k1, k2=k2, alpha=1.5, beta1=1.0, beta2=1.3,
                                 gamma=-0.2)))
    for k1, k2 in ((2, 1), (2, 2)):
        out.append(("chain_decomp", dict(k1=k1, k2=k2)))
    return out


def _sweep_cases(seed: int) -> list[tuple[str, dict]]:
    """SWEEP_POINTS random points, 12 cheap checks at each.

    alpha, beta1, beta2 and gamma come from the ranges acceptance criterion
    12 draws from; z1, z2 from [0.2, 0.6].
    """
    rng = random.Random(f"sweep-{seed}")
    out = []
    for _ in range(SWEEP_POINTS):
        a, b1, b2 = (rng.uniform(0.7, 2.2) for _ in range(3))
        g = rng.uniform(-0.28, -0.05)
        z1, z2 = rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6)
        pt = dict(alpha=a, beta1=b1, beta2=b2, gamma=g, z1=z1, z2=z2)
        for which in ("jjj_relations", "jjl_shift", "j0k", "eps_limit_link"):
            out.append((which, dict(k1=3, k2=2, **pt)))
        for which in ("selb30", "dexp3", "fval_support", "limit_direction"):
            out.append((which, dict(k1=1, k2=1, **pt)))
        one_block = dict(pt, beta2=1.0, z2=0.5)
        for which in ("selb", "aomoto", "dexp", "stirling_ratio"):
            out.append((which, dict(k1=2, k2=0, **one_block)))
    return out


def grid(workload: str, seed: int) -> list[Case]:
    """Every record of one pass of ``workload`` at run seed ``seed``."""
    if workload == "series":
        cases = _series_cases()
    elif workload == "quadrature":
        cases = _quadrature_cases()
    elif workload == "sweep":
        cases = _sweep_cases(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    base = FIXED_SEED_BASE if workload == "quadrature" else RECORD_SEED_BASE * seed
    return [Case(which, params, base + i) for i, (which, params) in enumerate(cases)]


def is_known_failure(identity: str, params: dict) -> bool:
    which, fixed = KNOWN_FAILURE
    return identity == which and all(params.get(k) == v for k, v in fixed.items())
