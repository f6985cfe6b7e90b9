"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts both the tolerance and the
wall-clock budget of its criterion.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    brute_cone_integer_parts,
    cone_integer_parts,
    domain_monomial_integral,
    simplex_monomial_integral,
    weight_g,
)
from selberg3 import closed_forms as cf
from selberg3.chains import enumerate_maps, gamma_chain, merged_order, unit_chain
from selberg3.cli import main as cli_main
from selberg3.identities import Budget, identity_ids, run_identity
from selberg3.integrands import assembled_integrand
from selberg3.lattice import (
    eps_limit_ratio,
    pde_residual,
    sum_discrete,
)
from selberg3.logreal import log_gamma_signed
from selberg3.params import ParamSet
from selberg3.quadrature import QuadSpec, _ChainFrame, _describe, _weight, integrate_chain
from selberg3.recursions import solve_both, verify_relations


def report(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_classic_selberg():
    t0 = time.time()
    worst = {}
    for a, b, g in [(2.5, 1.5, -0.1), (1.2, 2.2, -0.25), (1.0, 1.0, 1.0)]:
        for k in (1, 2, 3):
            run_start = time.time()
            p = ParamSet(k1=k, k2=0, alpha=a, beta1=b, gamma=g)
            tol = 1e-6
            rec = run_identity("selb", p, tol=tol, seed=101)
            assert time.time() - run_start <= 30.0
            worst[(a, b, g, k)] = (rec.rel_dev, tol, rec.passed)
    ok = all(v[2] for v in worst.values())
    wk = max(worst.items(), key=lambda kv: kv[1][0] / kv[1][1])
    report(1, ok, f"9 runs, worst rel_dev {wk[1][0]:.2e} (tol {wk[1][1]:.0e}) "
                  f"at {wk[0]}; elapsed {time.time()-t0:.1f}s")


def test_criterion_02_exponential_selberg():
    t0 = time.time()
    devs = []
    for k, samples in ((1, 200_000), (2, 1_200_000)):
        p = ParamSet(k1=k, k2=0, alpha=1.5, gamma=-0.15)
        rec = run_identity("exp", p, budget=Budget(samples=samples), seed=202)
        sigma_rel = rec.lhs_err / abs(rec.rhs)
        assert sigma_rel <= 1e-3, f"k={k} sigma_rel={sigma_rel:.2e}"
        assert rec.rel_dev <= 3.0 * sigma_rel + 1e-12
        devs.append((k, rec.rel_dev, sigma_rel))
    elapsed = time.time() - t0
    report(2, elapsed <= 60.0,
           "; ".join(f"k={k}: dev {d:.1e} <= 3*{s:.1e}" for k, d, s in devs)
           + f"; elapsed {elapsed:.1f}s")


def test_criterion_03_discrete_exponential():
    t0 = time.time()
    worst = 0.0
    budget = Budget(max_bound=150)
    for k in (1, 2, 3):
        for z in (0.3, 0.6):
            p = ParamSet(k1=k, k2=0, alpha=1.3, gamma=-0.2, z1=z)
            rec = run_identity("dexp", p, budget=budget, tol=1e-8, seed=303)
            assert rec.passed, f"k={k} z={z}: rel_dev {rec.rel_dev:.2e}"
            worst = max(worst, rec.rel_dev)
    elapsed = time.time() - t0
    report(3, elapsed <= 10.0, f"6 runs, worst rel_dev {worst:.2e} <= 1e-8; "
                               f"elapsed {elapsed:.1f}s")


def test_criterion_04_sl3_discrete():
    t0 = time.time()
    worst = 0.0
    budget = Budget(max_bound=80)
    for k1, k2 in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        for z1 in (0.2, 0.4):
            for z2 in (0.2, 0.4):
                p = ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=-0.15, z1=z1, z2=z2)
                rec = run_identity("dexp3", p, budget=budget, tol=1e-8, seed=404)
                assert rec.passed, f"({k1},{k2}) z=({z1},{z2}): {rec.rel_dev:.2e}"
                worst = max(worst, rec.rel_dev)
    elapsed = time.time() - t0
    report(4, elapsed <= 120.0, f"16 runs, worst rel_dev {worst:.2e} <= 1e-8; "
                                f"elapsed {elapsed:.1f}s")


def test_criterion_05_sl3_exponential():
    t0 = time.time()
    details = []
    for (k1, k2), samples in (((1, 1), 1_000_000), ((2, 1), 4_000_000)):
        p = ParamSet(k1=k1, k2=k2, alpha=1.5, beta1=1.0, beta2=1.3, gamma=-0.2)
        rec = run_identity("exp3", p, budget=Budget(samples=samples), seed=505)
        sigma_rel = rec.lhs_err / abs(rec.rhs)
        assert sigma_rel <= 2e-3, f"({k1},{k2}) sigma_rel={sigma_rel:.2e}"
        assert rec.rel_dev <= 3.0 * sigma_rel + 1e-12, \
            f"({k1},{k2}) dev {rec.rel_dev:.2e} vs 3 sigma {3*sigma_rel:.2e}"
        details.append(f"({k1},{k2}): dev {rec.rel_dev:.1e} <= 3*{sigma_rel:.1e}")
    elapsed = time.time() - t0
    report(5, elapsed <= 120.0, "; ".join(details) + f"; elapsed {elapsed:.1f}s")


def test_criterion_06_sl3_selberg_both():
    t0 = time.time()
    worst = 0.0
    for which in ("selb3", "selb30"):
        for k1, k2 in [(1, 1), (2, 1)]:
            p = ParamSet(k1=k1, k2=k2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
            rec = run_identity(which, p, tol=1e-5, seed=606)
            assert rec.passed, f"{which} ({k1},{k2}): {rec.rel_dev:.2e}"
            worst = max(worst, rec.rel_dev)
    elapsed = time.time() - t0
    report(6, elapsed <= 180.0, f"4 runs, worst rel_dev {worst:.2e} <= 1e-5; "
                                f"elapsed {elapsed:.1f}s")


def test_criterion_07_summand_support():
    t0 = time.time()
    p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
    rec = run_identity("fval_support", p, seed=707)
    elapsed = time.time() - t0
    report(7, rec.passed and elapsed <= 30.0,
           f"ratio {rec.rel_dev:.2e} <= 1e-8 ({rec.note}); elapsed {elapsed:.1f}s")


def test_criterion_08_limit_direction_independence():
    t0 = time.time()
    p = ParamSet(k1=2, k2=2, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
    rec = run_identity("limit_direction", p, budget=Budget(points=20), seed=808)
    elapsed = time.time() - t0
    report(8, rec.passed and elapsed <= 30.0,
           f"worst two-direction disagreement {rec.rel_dev:.2e} <= 1e-6; "
           f"elapsed {elapsed:.1f}s")


def test_criterion_09_dynamical_system_residuals():
    t0 = time.time()
    p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
    r1, r2, _ = pde_residual(p)
    ok = max(r1, r2) <= 1e-6
    # resolve the printed ambiguity of the second equation's denominator on
    # the closed form where k2 distinguishes them
    p22 = ParamSet(k1=2, k2=2, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.35)
    good = pde_residual(p22, use_closed_form=True,
                        second_eq_denominator="z2")
    bad = pde_residual(p22, use_closed_form=True,
                       second_eq_denominator="z1")
    ok = ok and max(good[:2]) < 1e-6 and bad[1] > 1e-3
    elapsed = time.time() - t0
    report(9, ok and elapsed <= 60.0,
           f"series residuals ({r1:.1e}, {r2:.1e}) <= 1e-6; denominator z2 "
           f"confirmed ({max(good[:2]):.1e} vs z1 variant {bad[1]:.1e}); "
           f"elapsed {elapsed:.1f}s")


def test_criterion_10_eps_limit_link():
    t0 = time.time()
    p = ParamSet(k1=2, k2=1, alpha=1.3, beta1=1.0, beta2=1.3, gamma=-0.15)
    dev = abs(eps_limit_ratio(p, 1e-3) - 1.0)
    elapsed = time.time() - t0
    report(10, dev <= 5e-2 and elapsed <= 10.0,
           f"|ratio - 1| = {dev:.2e} <= 5e-2 at eps=1e-3; elapsed {elapsed:.1f}s")


def test_criterion_11_moment_integrals():
    t0 = time.time()
    from oracles import aomoto_ratio_residuals

    worst_ratio = 0.0
    for k in range(1, 6):
        p = ParamSet(k1=k, k2=0, alpha=1.5, beta1=1.2, gamma=-0.11)
        worst_ratio = max(worst_ratio, max(aomoto_ratio_residuals(k, p)))
    assert worst_ratio <= 1e-12
    p = ParamSet(k1=2, k2=0, alpha=1.5, beta1=1.2, gamma=-0.1)
    rec = run_identity("aomoto", p, tol=1e-4, seed=111)
    elapsed = time.time() - t0
    report(11, rec.passed and elapsed <= 60.0,
           f"ratio residuals {worst_ratio:.1e} <= 1e-12 (k<=5); quadrature "
           f"worst {rec.rel_dev:.2e} <= 1e-4; elapsed {elapsed:.1f}s")


def test_criterion_12_recursion_system():
    t0 = time.time()
    rng = np.random.default_rng(1212)
    worst_res = 0.0
    for k1, k2 in [(2, 1), (2, 2), (3, 2)]:
        for _ in range(50):
            p = ParamSet(k1=k1, k2=k2,
                         alpha=float(rng.uniform(0.7, 2.2)),
                         beta1=float(rng.uniform(0.7, 2.2)),
                         beta2=float(rng.uniform(0.7, 2.2)),
                         gamma=float(rng.uniform(-0.28, -0.05)))
            tab, tabt = solve_both(p)
            res = verify_relations(tab, p) + verify_relations(tabt, p)
            worst_res = max(worst_res, max(r for _, r, pivot in res if not pivot))
    assert worst_res <= 1e-10, f"non-pivot residual {worst_res:.2e}"

    # closed-form corners and the parameter-shift identity
    worst_cf = 0.0
    for k1, k2 in [(2, 1), (2, 2), (3, 2)]:
        p = ParamSet(k1=k1, k2=k2, alpha=1.47, beta1=1.23, beta2=1.61, gamma=-0.17)
        rec = run_identity("j0k", p, tol=1e-8, seed=121)
        assert rec.passed
        rec2 = run_identity("jjl_shift", p, tol=1e-8, seed=122)
        assert rec2.passed
        worst_cf = max(worst_cf, rec.rel_dev, rec2.rel_dev)

    # quadrature grounding of the full table at (2,1) within 3 sigma
    p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
    tab, tabt = solve_both(p)
    chain = gamma_chain(p.k1, p.k2, p.gamma)
    worst_pull = 0.0
    for which, table in (("J", tab), ("Jt", tabt)):
        for triple in table.entries:
            ig = assembled_integrand(which, p, indices=triple)
            got, err = integrate_chain(
                ig, chain, QuadSpec("monte_carlo", sample_count=300_000,
                                    seed=5000 + hash(triple) % 1000), p)
            want = table.value(triple).to_float()
            pull = abs(got - want) / err
            worst_pull = max(worst_pull, pull)
            assert pull <= 3.0, f"{which}{triple}: {got} vs {want} ({pull:.1f} sigma)"
    elapsed = time.time() - t0
    report(12, elapsed <= 300.0,
           f"non-pivot residuals {worst_res:.1e} <= 1e-10 (150 draws); corner "
           f"forms/shift {worst_cf:.1e} <= 1e-8; grounding worst pull "
           f"{worst_pull:.2f} sigma <= 3; elapsed {elapsed:.1f}s")


def test_criterion_13_chain_decomposition():
    t0 = time.time()
    # quadrature vs the exact cone integral at the default tolerance
    for k1, k2 in [(2, 1), (2, 2)]:
        rec = run_identity("chain_decomp", ParamSet(k1=k1, k2=k2), seed=1313)
        assert rec.passed, f"({k1},{k2}): dev {rec.rel_dev:.2e} tol {rec.tolerance:.2e}"
    # deterministic side against the exact rational value, 20 monomials
    rng = np.random.default_rng(13)
    k1, k2 = 2, 1
    spec = QuadSpec(nodes_per_axis=24)
    p = ParamSet(k1=k1, k2=k2)
    from selberg3.integrands import Integrand

    worst_det = 0.0
    for _ in range(20):
        degs_t = [int(x) for x in rng.integers(0, 4, size=k1)]
        degs_s = [int(x) for x in rng.integers(0, 4, size=k2)]

        def poly(t, s, dt=degs_t, ds=degs_s):
            t, s = np.atleast_2d(t), np.atleast_2d(s)
            out = np.ones(t.shape[0])
            for i, d in enumerate(dt):
                out = out * t[:, i] ** d
            for i, d in enumerate(ds):
                out = out * s[:, i] ** d
            return out

        ig = Integrand(poly, k1, k2, "01", 0, 1.0, 0.0, 1.0, 1.0, kind="callable")
        got, _ = integrate_chain(ig, unit_chain(k1, k2), spec, p)
        want = float(simplex_monomial_integral(k1, k2, degs_t, degs_s))
        worst_det = max(worst_det, abs(got - want) / abs(want))
    assert worst_det <= 1e-6
    # exact tiling in rational arithmetic up to dimension five
    for k1, k2 in [(3, 2), (4, 1)]:
        degs_t = [1] * k1
        degs_s = [2] * k2
        total = Fraction(0)
        for M in enumerate_maps(k1, k2):
            total += domain_monomial_integral(merged_order(M, k1, k2), degs_t, degs_s)
        assert total == simplex_monomial_integral(k1, k2, degs_t, degs_s)
    elapsed = time.time() - t0
    report(13, elapsed <= 120.0,
           f"exact cone integrals at (2,1),(2,2); deterministic vs "
           f"exact {worst_det:.1e} <= 1e-6; exact tiling at dim 5; "
           f"elapsed {elapsed:.1f}s")


def test_criterion_14_structural_suites(capsys, tmp_path):
    t0 = time.time()
    # gamma recurrence and reflection
    for x in [0.35 + 0.4 * i for i in range(10)]:
        assert log_gamma_signed(x + 1.0).to_float() == \
            pytest.approx(x * log_gamma_signed(x).to_float(), rel=1e-12)
    for x in (-3.3, -1.4, 0.3, 2.7):
        prod = (log_gamma_signed(x) * log_gamma_signed(1 - x)).to_float()
        assert prod * math.sin(math.pi * x) == pytest.approx(math.pi, rel=1e-10)
    # symmetrization invariance and the two-form equality of the weight
    rng = np.random.default_rng(14)
    t = rng.uniform(0, 1, size=(1, 3))
    s = rng.uniform(0, 1, size=(1, 2))
    base = weight_g(t, s)[0]
    assert weight_g(t[:, rng.permutation(3)], s[:, rng.permutation(2)])[0] == \
        pytest.approx(base, rel=1e-12)
    assert weight_g(t, s, form="plain")[0] == pytest.approx(base, rel=1e-12)
    # the package's g weight, from the chain frame of the same point
    coords = sorted([(x, ("t", a + 1)) for a, x in enumerate(t[0])]
                    + [(x, ("s", b + 1)) for b, x in enumerate(s[0])], reverse=True)
    c = np.array([x for x, _ in coords])
    r = c / np.concatenate(([1.0], c[:-1]))
    frame = _ChainFrame([np.log(r[i:i + 1]) for i in range(5)],
                        [np.log1p(-r[i:i + 1]) for i in range(5)])
    ig = assembled_integrand("selb3", ParamSet(k1=3, k2=2, alpha=1.5, beta1=1.2,
                                               beta2=1.4, gamma=-0.15))
    got = _weight(_describe(ig, tuple(lab for _, lab in coords)), frame)[0]
    assert got == pytest.approx(base, rel=1e-12)
    # cone enumeration equals the brute-force filter
    assert set(cone_integer_parts(2, 1, 5)) == brute_cone_integer_parts(2, 1, 5)
    # registry completeness
    assert len(identity_ids()) == 17
    # report round-trip and exit codes through the real CLI
    out = tmp_path / "r.ndjson"
    code = cli_main(["verify", "--identity", "selb", "--k", "2", "--alpha",
                     "1.0", "--beta", "1.0", "--gamma", "1.0",
                     "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text().strip())
    assert rec["passed"] is True and rec["params"]["k1"] == 2
    code = cli_main(["verify", "--identity", "selb", "--k", "2", "--alpha",
                     "1.0", "--beta", "1.0", "--gamma", "1.0", "--tol", "1e-30",
                     "--out", str(out)])
    assert code == 1
    code = cli_main(["verify", "--identity", "selb", "--gamma", "0",
                     "--out", str(out)])
    assert code == 2
    capsys.readouterr()
    elapsed = time.time() - t0
    report(14, elapsed <= 60.0,
           f"recurrence, reflection, symmetrization, dual forms, enumeration, "
           f"registry, round-trip, exit codes all hold; elapsed {elapsed:.1f}s")
