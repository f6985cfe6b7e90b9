"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench -q

They import nothing from the program and run in well under a second.
"""

import math
import statistics
from fractions import Fraction

import mpmath as mp
import pytest

import anchors
import layers
import grids
import metrics


def _pass(wall, record_times, rss=100.0, tols=None):
    tols = tols or [1e-6] * len(record_times)
    return {"wall_s": wall, "peak_rss_mb": rss,
            "records": [{"s": s, "tolerance": t, "error": None}
                        for s, t in zip(record_times, tols)]}


def test_spread_is_quartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert metrics.spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert metrics.spread([2.0] * 10) == 0.0


def test_worse_by_follows_direction():
    assert metrics.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert metrics.worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert metrics.worse_by(4.0, 3.0, "higher") == pytest.approx(0.25)


def test_certified_digits_is_mean_of_negative_log10():
    assert metrics.certified_digits([1e-6, 1e-8]) == pytest.approx(7.0)
    assert metrics.certified_digits([1e-3]) == pytest.approx(3.0)


def test_end_to_end_takes_medians_over_passes():
    passes = [_pass(10.0, [1.0, 2.0, 30.0], rss=90.0),
              _pass(12.0, [1.0, 4.0, 30.0], rss=110.0),
              _pass(11.0, [1.0, 3.0, 30.0], rss=100.0, tols=[1e-6, 1e-8, 1e-3])]
    fig = metrics.end_to_end([0.5, 0.4, 0.6], passes)
    assert fig["setup_s"] == 0.5
    assert fig["wall_s"] == 11.0
    assert fig["record_s_p50"] == 3.0
    assert fig["peak_rss_mb"] == 100.0
    assert fig["certified_digits"] == pytest.approx(6.0)  # from the first pass
    assert all(v > 0 for v in fig.values())


def test_metric_names_match_benchmark_json():
    spec = metrics.spec()
    fig = metrics.end_to_end([0.5], [_pass(1.0, [1.0])])
    assert sorted(fig) == sorted(m["name"] for m in spec["end_to_end"])
    assert list(layers.METRICS) == [m["name"] for m in spec["per_layer"]]


def test_per_layer_takes_medians():
    passes = [{"layers": {"a.s": x, "a.calls": 3}} for x in (1.0, 5.0, 2.0)]
    assert metrics.per_layer(passes) == {"a.s": 2.0, "a.calls": 3}


def test_selberg_anchor_reduces_to_beta_function():
    a, b = 1.7, 2.3
    assert anchors.selberg_ordered(1, a, b, -0.2) == pytest.approx(float(mp.beta(a, b)), rel=1e-14)
    # k = 2 at gamma = 1: the ordered integral of (t1 - t2)^2 on the square / 2
    assert float(anchors.selberg_ordered(2, 1.0, 1.0, 1.0)) == pytest.approx(1.0 / 12.0)


def test_aomoto_anchor_moments():
    a, b, g = 1.5, 1.2, -0.11
    base = anchors.selberg_ordered(1, a + 1, b, g)
    assert anchors.aomoto_ordered(1, 1, a, b, g) == pytest.approx(float(base), rel=1e-14)
    # l = 0 at k = 1 is the beta-shifted integral
    assert anchors.aomoto_ordered(1, 0, a, b, g) == pytest.approx(float(mp.beta(a, b + 1)))


def test_laguerre_and_dexp_anchors():
    assert anchors.laguerre_ordered(1, 2.5, -0.1) == pytest.approx(math.gamma(2.5))
    z, a = 0.3, 1.3
    term, series = math.gamma(a), 0.0
    for n in range(1, 200):
        series += term
        term *= (a + n - 1) * z / n
    assert float(anchors.dexp_k1(a, z)) == pytest.approx(series, rel=1e-12)


def test_exact_monomial_integrals():
    assert anchors.chain_monomial([0]) == Fraction(1)
    assert anchors.chain_monomial([0, 0]) == Fraction(1, 2)
    assert anchors.chain_monomial([1, 0]) == Fraction(1, 3)
    # k1 = k2 = 1: s >= t on [0,1]; int t ds dt = 1/6
    assert anchors.cone_monomial(1, 1, [1], [0]) == Fraction(1, 6)
    # k2 = 0 is the ordered simplex
    assert anchors.cone_monomial(3, 0, [0, 0, 0], []) == Fraction(1, 6)


def _record(**kw):
    rec = {"identity": "selb", "params": {"k1": 1, "alpha": 2.0, "beta1": 2.0, "gamma": -0.1},
           "seed": 1, "error": None, "aggregate": False, "lhs": 1.0 / 6.0 * (1 + 1e-8),
           "lhs_err": 1e-12, "rhs": 1.0 / 6.0, "tolerance": 1e-6, "note": ""}
    rec.update(kw)
    rec["rel_dev"], rec["passed"] = anchors.verdict(rec)
    return rec


def test_verdict_and_check_pass():
    good = _record()
    assert good["passed"] and good["rel_dev"] == pytest.approx(1e-8)
    assert anchors.check_pass([good], grids.is_known_failure) == ([], 0)

    # an error bar too wide for the tolerance fails however close lhs is
    imprecise = _record(lhs_err=1e-6 / 6.0)
    assert not imprecise["passed"]
    problems, failed = anchors.check_pass([imprecise], grids.is_known_failure)
    assert failed == 1 and problems

    lying = dict(good, passed=False)
    assert anchors.check_pass([lying], grids.is_known_failure)[0]

    wrong_rhs = _record(rhs=0.17, lhs=0.17)
    assert "mpmath" in anchors.check_pass([wrong_rhs], grids.is_known_failure)[0][0]


def test_known_failure_is_counted_not_reported():
    params = {"k1": 3, "k2": 0, "alpha": 1.2, "beta1": 2.2, "beta2": 1.0, "gamma": -0.25}
    rhs = float(anchors.selberg_ordered(3, 1.2, 2.2, -0.25))
    imprecise = _record(params=params, lhs=rhs, rhs=rhs, lhs_err=5e-7 * rhs)
    assert anchors.check_pass([imprecise], grids.is_known_failure) == ([], 1)
    elsewhere = dict(imprecise, params=dict(params, beta1=2.3))
    elsewhere["rhs"] = elsewhere["lhs"] = float(anchors.selberg_ordered(3, 1.2, 2.3, -0.25))
    problems, failed = anchors.check_pass([elsewhere], grids.is_known_failure)
    assert failed == 1 and "failed" in problems[0]


def test_grids_are_fixed_and_seeded():
    assert [len(grids.grid(w, 1)) for w in grids.WORKLOADS] == [20, 22, 1800]
    assert grids.grid("sweep", 3) == grids.grid("sweep", 3)
    assert grids.grid("sweep", 3) != grids.grid("sweep", 4)
    series1, series2 = grids.grid("series", 1), grids.grid("series", 2)
    assert [c[:2] for c in series1] == [c[:2] for c in series2]
    assert len({c.seed for c in series1} | {c.seed for c in series2}) == 40
    assert grids.grid("quadrature", 1) == grids.grid("quadrature", 2)
    known = [c for c in grids.grid("quadrature", 1)
             if grids.is_known_failure(c.identity, c.params)]
    assert len(known) == 1


def test_tracer_counts_outermost_spans_once():
    tracer = layers.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer._span(inner, "closed_forms")

    def outer(x):
        return traced_inner(traced_inner(x))

    traced_outer = tracer._span(outer, "recursions.solve")
    recursive = tracer._span(lambda: traced_outer(0), "recursions.solve")
    assert recursive() == 2
    assert traced_inner(5) == 6
    s = tracer.sums
    assert s["recursions.solve.calls"] == 1  # the nested call is not outermost
    assert s["closed_forms.calls"] == 3
    # top-level spans: the recursion and the standalone inner call
    assert s["recursions.solve.s"] <= s["spans.top.s"]
    assert s["spans.top.s"] <= s["recursions.solve.s"] + s["closed_forms.s"]


def test_tracer_derived_metrics():
    tracer = layers.Tracer()
    tracer.sums.update({"lattice.sum_discrete.s": 3.0, "lattice.values_in_sum.s": 1.0,
                        "pde.series_sums": 10, "pde.series_calls": 2, "spans.top.s": 3.5})
    tracer.record_s = 4.0
    m = tracer.metrics()
    assert list(layers.METRICS) == list(m)
    assert m["lattice.enum.s"] == 2.0
    assert m["lattice.pde_residual.series"] == 5
    assert m["identities.self.s"] == 0.5
    assert m["quadrature.mc.samples"] == 0.0
