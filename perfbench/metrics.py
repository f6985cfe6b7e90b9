"""Metric arithmetic shared by ``run.py`` and ``steady.py``."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spec() -> dict:
    """BENCHMARK.json: the workloads, and every metric's unit and bound."""
    return json.loads(SPEC_FILE.read_text())


def certified_digits(tolerances: list[float]) -> float:
    """Mean over records of -log10(tolerance the record was checked at)."""
    return statistics.fmean(-math.log10(t) for t in tolerances)


def end_to_end(setup_times: list[float], passes: list[dict]) -> dict:
    """The end-to-end figures of one run.

    ``passes`` are worker results of the same grid.  wall_s and
    peak_rss_mb are medians over passes; record_s_p50 is the median over
    records of each record's median time across passes.
    """
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "record_s_p50": statistics.median(
            statistics.median(times) for times in zip(*[[r["s"] for r in p["records"]]
                                                        for p in passes])),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "certified_digits": certified_digits(
            [r["tolerance"] for r in passes[0]["records"] if r["error"] is None]),
    }


def per_layer(passes: list[dict]) -> dict:
    """Median over traced passes of every per-layer figure."""
    names = passes[0]["layers"]
    return {n: statistics.median(p["layers"][n] for p in passes) for n in names}


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worse_by(before: float, after: float, better: str) -> float:
    """How much ``after`` is worse than ``before``, as a share of ``before``
    (negative when it is better)."""
    change = (after - before) / abs(before)
    return change if better == "lower" else -change
