"""Verification registry: completeness, reproducibility, dispatch."""

import dataclasses
import math

import numpy as np
import pytest

from oracles import (integer_parts_in_cone, per_l_jjl_shift, per_member_aomoto,
                     per_member_chain_decomp, sequential_fval_support, sequential_limit_direction)
from selberg3 import identities, lattice, quadrature, recursions
from selberg3.cli import main
from selberg3.chains import gamma_chain, unit_chain
from selberg3.errors import (IntegrandSingularError, InvalidParamsError, LimitDisagreementError,
                             Selberg3Error)
from selberg3.identities import (
    MC_CEIL,
    MC_FLOOR,
    REGISTRY,
    Budget,
    VerificationRecord,
    _mc_tolerance,
    identity_ids,
    run_grid,
    run_identity,
)
from selberg3.integrands import assembled_integrand
from selberg3.logreal import LogSigned
from selberg3.params import ParamSet
from selberg3.quadrature import QuadSpec, integrate_chain

EXPECTED_IDS = {"selb", "exp", "dexp", "dexp3", "exp3", "selb3", "selb30",
                "aomoto", "jjj_relations", "jjl_shift", "j0k", "chain_decomp",
                "fval_support", "pde_residual", "stirling_ratio",
                "eps_limit_link", "limit_direction"}


class TestRegistry:
    def test_completeness(self):
        assert set(identity_ids()) == EXPECTED_IDS
        for iid, entry in REGISTRY.items():
            assert entry.identity_id == iid
            assert callable(entry.validate)
            assert callable(entry.engine)
            assert entry.description and entry.predicate

    def test_unknown_identity(self):
        with pytest.raises(InvalidParamsError):
            run_identity("nope", ParamSet())

    def test_invalid_params_name_the_predicate(self):
        with pytest.raises(InvalidParamsError, match="gamma"):
            run_identity("selb", ParamSet(k1=2, k2=0, alpha=1.0, beta1=1.0, gamma=0.0))
        with pytest.raises(InvalidParamsError, match="z"):
            run_identity("dexp", ParamSet(k1=1, k2=0, z1=1.2))
        with pytest.raises(InvalidParamsError, match="k1 >= k2"):
            ParamSet(k1=1, k2=2)


class TestRecords:
    def test_record_fields_and_pass(self):
        rec = run_identity("stirling_ratio", ParamSet(), seed=5)
        assert isinstance(rec, VerificationRecord)
        assert rec.passed and rec.identity_id == "stirling_ratio"
        assert rec.rel_dev <= rec.tolerance
        d = rec.as_dict()
        assert set(d) == {"identity_id", "params", "lhs", "lhs_err", "rhs",
                          "rel_dev", "tolerance", "passed", "seed",
                          "runtime_ms", "note"}

    def test_as_dict_is_the_literal_record(self):
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15, z1=0.3, z2=0.4)
        rec = VerificationRecord("selb3", p, 1.25, 1e-9, 1.5, 0.2, 1e-6, False, 7, 12, "n=8")
        want = {"identity_id": "selb3",
                "params": {"k1": 2, "k2": 1, "alpha": 1.5, "beta1": 1.2, "beta2": 1.4,
                           "gamma": -0.15, "z1": 0.3, "z2": 0.4},
                "lhs": 1.25, "lhs_err": 1e-9, "rhs": 1.5, "rel_dev": 0.2, "tolerance": 1e-6,
                "passed": False, "seed": 7, "runtime_ms": 12, "note": "n=8"}
        d = rec.as_dict()
        assert d == want
        # key order fixes the CLI's JSON and CSV columns
        assert list(d) == list(want) and list(d["params"]) == list(want["params"])
        assert p.as_dict() == want["params"]

    def test_reproducible_up_to_runtime(self):
        p = ParamSet(k1=1, k2=1, alpha=1.5, beta1=1.0, beta2=1.3, gamma=-0.2)
        a = run_identity("exp3", p, budget=Budget(samples=50_000), seed=3)
        b = run_identity("exp3", p, budget=Budget(samples=50_000), seed=3)
        da = dataclasses.asdict(a)
        db = dataclasses.asdict(b)
        da.pop("runtime_ms")
        db.pop("runtime_ms")
        assert da == db

    def test_tolerance_override(self):
        p = ParamSet(k1=1, k2=0, alpha=2.5, beta1=1.5, gamma=-0.1)
        rec = run_identity("selb", p, tol=1e-3)
        assert rec.tolerance == 1e-3 and rec.passed

    def test_forced_failure_via_tiny_tolerance(self):
        # a sampled record (k1 + k2 = 5): no deterministic rounding can
        # meet 1e-12 by luck
        p = ParamSet(k1=3, k2=2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        rec = run_identity("selb3", p, budget=Budget(samples=20_000), tol=1e-12)
        assert rec.note.startswith("monte_carlo")
        assert not rec.passed


    def test_pde_note_at_equal_z_does_not_claim_a_resolution(self):
        p = ParamSet(k1=2, k2=2, alpha=1.0, gamma=-0.1, z1=0.4, z2=0.4)
        rec = run_identity("pde_residual", p)
        assert rec.passed
        assert "not discriminated" in rec.note and "resolved" not in rec.note

    def test_pde_note_at_k2_le_1_does_not_claim_a_resolution(self):
        from selberg3.lattice import pde_coefficients

        p = ParamSet(k1=2, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.5)
        rec = run_identity("pde_residual", p)
        assert rec.passed
        assert "not discriminated at k2 <= 1" in rec.note and "resolved" not in rec.note
        # the disputed term k2 (k2 - 1) gamma / (2 den) vanishes, so both readings agree
        assert pde_coefficients(p, "z1") == pde_coefficients(p, "z2")


class TestGrids:
    def test_empty_grid(self):
        assert run_grid("selb", []) == []

    def test_grid_runs_each_point(self):
        grid = [ParamSet(k1=1, k2=0, alpha=a, beta1=1.5, gamma=-0.1)
                for a in (1.0, 1.5, 2.0)]
        recs = run_grid("selb", grid, seed=9)
        assert len(recs) == 3
        assert all(r.passed for r in recs)
        assert [r.seed for r in recs] == [9, 10, 11]


BATCH_SHAPES = [(1, 1), (2, 1), (2, 2), (3, 2)]
BATCH_GAMMAS = [-0.15, -0.28]
BATCH_SEEDS = [1, 5, 808]


def _lattice_params(k1, k2, gamma):
    return ParamSet(k1=k1, k2=k2, alpha=1.3, gamma=gamma, z1=0.3, z2=0.5)


def _outcome(engine, p, seed, budget=Budget()):
    """An engine's returned fields, or the class and message it raised."""
    try:
        return engine(p, budget, seed, None)
    except Selberg3Error as exc:
        return type(exc).__name__, str(exc)


class TestBatchedEngines:
    """The one-batch engines against their point-by-point references."""

    # at (3, 2) and gamma = -0.15, where alpha + 2 gamma = 1, the default 50
    # off-cone points reach a point whose two limits disagree, so 3 points
    # also compare returned values there
    @pytest.mark.parametrize("points", [50, 3])
    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    @pytest.mark.parametrize("gamma", BATCH_GAMMAS)
    @pytest.mark.parametrize("k1,k2", BATCH_SHAPES)
    def test_fval_support_matches_sequential(self, k1, k2, gamma, seed, points):
        p = _lattice_params(k1, k2, gamma)
        budget = Budget(points=points)
        got = _outcome(REGISTRY["fval_support"].engine, p, seed, budget)
        assert got == _outcome(sequential_fval_support, p, seed, budget)

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    @pytest.mark.parametrize("gamma", BATCH_GAMMAS)
    @pytest.mark.parametrize("k1,k2", BATCH_SHAPES)
    def test_limit_direction_matches_sequential(self, k1, k2, gamma, seed):
        p = _lattice_params(k1, k2, gamma)
        got = _outcome(REGISTRY["limit_direction"].engine, p, seed)
        assert got == _outcome(sequential_limit_direction, p, seed)

    def test_fval_support_batch_probes_singular_rows_on_both_sides(self, monkeypatch):
        jet_limits = lattice._jet_limits
        probed = []

        def spy(NU, NV, *args, **kwargs):
            probed.extend(zip(NU.tolist(), NV.tolist()))
            return jet_limits(NU, NV, *args, **kwargs)

        monkeypatch.setattr(lattice, "_jet_limits", spy)
        p, budget = _lattice_params(2, 2, -0.15), Budget(points=3)
        got = REGISTRY["fval_support"].engine(p, budget, 5, None)
        assert any(integer_parts_in_cone(nu, nv, 2, 2) for nu, nv in probed)
        assert any(not integer_parts_in_cone(nu, nv, 2, 2) and min(nu + nv) < 0
                   for nu, nv in probed)
        # every off-cone value is an exact zero, limits included
        assert got[0] == 0.0 and got[1] == 0.0
        monkeypatch.undo()
        assert got == sequential_fval_support(p, budget, 5, None)

    @pytest.mark.parametrize("k1,k2", [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2), (3, 2), (4, 1)])
    def test_row_cone_test_matches_the_scalar_one(self, k1, k2):
        P = np.random.default_rng(3).integers(-1, 3, size=(2000, k1 + k2))
        want = [integer_parts_in_cone(row[:k1], row[k1:], k1, k2) for row in P.tolist()]
        assert any(want) and not all(want)
        assert identities._in_cone(P, k1, k2).tolist() == want

    def test_fval_support_disagreement_message_matches_sequential(self):
        p = ParamSet(k1=3, k2=1, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.5)
        with pytest.raises(LimitDisagreementError) as batched:
            run_identity("fval_support", p, seed=5)
        with pytest.raises(LimitDisagreementError) as sequential:
            sequential_fval_support(p, Budget(), 5, None)
        assert str(batched.value) == str(sequential.value)

    @pytest.mark.parametrize("p", [
        ParamSet(k1=3, k2=2, alpha=1.3, gamma=-0.15, z1=1e-6, z2=1e-6),
        ParamSet(k1=2, k2=2, alpha=1.3, gamma=-0.15, z1=1e-4, z2=1e-4),
    ])
    def test_limit_direction_comparing_no_point_does_not_pass(self, p):
        rec = run_identity("limit_direction", p, seed=3)
        assert not rec.passed
        assert rec.lhs_err == float("inf")
        assert rec.note.startswith("max two-direction disagreement, 0 of 20 points compared")
        assert "insufficient precision" in rec.note

    @pytest.mark.parametrize("k1,k2,gamma,seed", [(2, 2, -0.15, 1), (3, 2, -0.28, 808)])
    def test_fval_support_off_cone_limits_are_zero(self, k1, k2, gamma, seed):
        # extrapolated probes once read 1e-8 to 1e-7 here, where F is O(eps)
        rec = run_identity("fval_support", _lattice_params(k1, k2, gamma), seed=seed)
        assert rec.passed and rec.rel_dev == 0.0 and rec.lhs_err == 0.0

    def test_series_grid_records_do_not_depend_on_the_run_seed(self):
        # the benchmark's series grid: only limit_direction reads its seed, to
        # draw the points it compares, and with them the bar of their rounding
        import importlib.util
        from pathlib import Path

        path = Path(__file__).parent.parent / "perfbench" / "grids.py"
        spec = importlib.util.spec_from_file_location("grids", path)
        grids = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(grids)
        runs = []
        for run_seed in (0, 1):
            recs = []
            for case in grids.grid("series", run_seed):
                rec = run_identity(case.identity, ParamSet(**case.params), seed=case.seed)
                assert rec.passed, rec
                drop = ("seed", "runtime_ms") + (
                    ("lhs_err",) if case.identity == "limit_direction" else ())
                recs.append({k: v for k, v in dataclasses.asdict(rec).items() if k not in drop})
            runs.append(recs)
        assert runs[0] == runs[1]

    def test_limit_direction_note_counts_compared_points(self):
        p = ParamSet(k1=2, k2=2, alpha=1.3, gamma=-0.15, z1=0.3, z2=0.3)
        rec = run_identity("limit_direction", p, seed=808)
        # the bar is the limits' rounding, relative to each compared pair
        assert rec.passed and 0.0 < rec.lhs_err <= 1e-12
        assert rec.note == "max two-direction disagreement, 20 of 20 points compared"

    @pytest.mark.parametrize("k1,k2", [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (4, 1)])
    def test_jjl_shift_residuals_match_per_l(self, k1, k2):
        p = ParamSet(k1=k1, k2=k2, alpha=1.47, beta1=1.23, beta2=1.61, gamma=-0.17)
        assert recursions.jjl_shift_residuals(p) == [per_l_jjl_shift(p, l) for l in range(k2 + 1)]

    def test_jjl_shift_record_solves_two_tables(self, monkeypatch):
        solve_j = recursions.solve_j
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs.get("twisted", False))
            return solve_j(*args, **kwargs)

        monkeypatch.setattr(recursions, "solve_j", spy)
        p = ParamSet(k1=3, k2=2, alpha=1.3, beta1=1.2, beta2=1.4, gamma=-0.15)
        rec = run_identity("jjl_shift", p)
        assert rec.passed
        assert calls == [False, False]


class TestFamilyEngines:
    """The integrand-family engines against their per-member references."""

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("k,alpha,beta,gamma", [
        (1, 1.5, 1.2, -0.11), (2, 1.5, 1.2, -0.11), (3, 1.5, 1.2, -0.11),
        (3, 2.3, 0.8, 0.2), (4, 1.5, 1.2, -0.11)])
    def test_aomoto_matches_per_member(self, k, alpha, beta, gamma, seed, chain_integrals):
        p = ParamSet(k1=k, alpha=alpha, beta1=beta, gamma=gamma)
        got = REGISTRY["aomoto"].engine(p, Budget(), seed, None)
        assert got == per_member_aomoto(p, Budget(), seed, None, integrate=chain_integrals)

    @pytest.mark.parametrize("seed", [1, 1313])
    @pytest.mark.parametrize("k1,k2", [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2), (3, 1)])
    def test_chain_decomp_matches_per_member(self, k1, k2, seed):
        p, budget = ParamSet(k1=k1, k2=k2), Budget(samples=50_000)
        got = REGISTRY["chain_decomp"].engine(p, budget, seed, None)
        assert got == per_member_chain_decomp(p, budget, seed, None)

    def test_chain_decomp_builds_one_frame_per_domain_and_rule(self, monkeypatch):
        built = []

        class Spy(quadrature._ChainFrame):
            def __init__(self, LOGR, LOGX):
                built.append(1)
                super().__init__(LOGR, LOGX)

        monkeypatch.setattr(quadrature, "_ChainFrame", Spy)
        p = ParamSet(k1=2, k2=2)
        rec = run_identity("chain_decomp", p, seed=3)
        assert rec.passed
        assert len(built) == 2 * len(unit_chain(2, 2).terms) == 4

    def test_chain_decomp_ignores_the_sample_budget(self):
        # the reference is an exact rational integral, so nothing samples
        p = ParamSet(k1=2, k2=1)
        small = dataclasses.asdict(run_identity("chain_decomp", p, budget=Budget(samples=2),
                                                seed=3))
        default = dataclasses.asdict(run_identity("chain_decomp", p, seed=3))
        small.pop("runtime_ms")
        default.pop("runtime_ms")
        assert small == default
        assert default["tolerance"] == 1e-6 and default["passed"]
        assert default["rel_dev"] <= 1e-12 and default["lhs_err"] <= 1e-10

    def test_aomoto_picks_a_nan_moment_as_the_worst(self, monkeypatch):
        p = ParamSet(k1=2, alpha=1.5, beta1=1.2, gamma=-0.11)
        good = identities.integrate_family

        def one_nan(members, chain, q, p):
            out = good(members, chain, q, p)
            out[1] = (math.nan, 0.0)
            return out

        monkeypatch.setattr(identities, "integrate_family", one_nan)
        lhs, err, rhs, tol, note = REGISTRY["aomoto"].engine(p, Budget(), 1, None)
        assert math.isnan(lhs) and err == 0.0
        assert rhs == identities.cf.aomoto_rhs(2, 1, p).to_float()
        rec = run_identity("aomoto", p, seed=1)
        monkeypatch.undo()
        assert not rec.passed and math.isnan(rec.rel_dev)

    def test_chain_decomp_picks_a_nan_monomial_as_the_worst(self, monkeypatch):
        # the two family engines share one reduction, NaN the worst in both
        p = ParamSet(k1=2, k2=1)
        good = identities.integrate_family

        def one_nan(members, chain, q, p):
            out = good(members, chain, q, p)
            out[5] = (math.nan, 0.0)
            return out

        monkeypatch.setattr(identities, "integrate_family", one_nan)
        det, err, exact, tol, note = REGISTRY["chain_decomp"].engine(p, Budget(), 3, None)
        assert math.isnan(det) and err == 0.0 and exact > 0.0
        rec = run_identity("chain_decomp", p, seed=3)
        monkeypatch.undo()
        assert not rec.passed and math.isnan(rec.rel_dev)

    def test_aomoto_with_a_zero_reference_does_not_divide(self, monkeypatch):
        p = ParamSet(k1=2, alpha=1.5, beta1=1.2, gamma=-0.11)
        moment_0, _ = integrate_chain(assembled_integrand("aomoto", p, indices=0),
                                      gamma_chain(2, 0, p.gamma), QuadSpec(), p)
        real = identities.cf.aomoto_rhs

        def underflow_at_0(k, ell, p):
            return LogSigned.zero() if ell == 0 else real(k, ell, p)

        monkeypatch.setattr(identities.cf, "aomoto_rhs", underflow_at_0)
        lhs, err, rhs, _, _ = REGISTRY["aomoto"].engine(p, Budget(), 1, None)
        # against a zero reference the deviation is |lhs|, far above any
        # relative deviation, so that moment is the worst
        assert rhs == 0.0 and lhs == moment_0
        rec = run_identity("aomoto", p, seed=1)
        assert not rec.passed and rec.rel_dev == rec.lhs


class TestHalfLineRecords:
    """exp and exp3 integrate the overall scale in closed form, so up to
    three ratio axes they run the deterministic rule."""

    def test_exp_k3_is_deterministic_and_seed_free(self):
        p = ParamSet(k1=3, k2=0, alpha=1.5, gamma=-0.15)
        recs = []
        for seed in range(5):
            rec = dataclasses.asdict(run_identity("exp", p, seed=seed))
            rec.pop("runtime_ms")
            rec.pop("seed")
            recs.append(rec)
        assert all(rec == recs[0] for rec in recs)
        assert recs[0]["passed"] and recs[0]["tolerance"] == 1e-6
        assert recs[0]["note"] == "deterministic"
        assert recs[0]["rel_dev"] <= 1e-9

    @pytest.mark.parametrize("which,k1,k2,scheme", [
        ("exp", 1, 0, "deterministic"), ("exp", 4, 0, "deterministic"),
        ("exp", 5, 0, "monte_carlo"), ("exp3", 2, 2, "deterministic"),
        ("selb3", 2, 2, "deterministic"), ("selb3", 3, 2, "monte_carlo")])
    def test_scheme_follows_the_rule_dimension(self, monkeypatch, which, k1, k2, scheme):
        seen = []

        def spy(ig, chain, q, p):
            seen.append(q.scheme)
            return 1.0, 0.0

        monkeypatch.setattr(identities, "integrate_chain", spy)
        p = ParamSet(k1=k1, k2=k2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.1)
        run_identity(which, p)
        assert seen == [scheme]


# points inside the validity regions where the tensor rule failed: the
# coincidence corners of selb k = 3, 4 and exp k = 3, small beta in selb3
# (1,1), and large alpha = beta, where its Gauss-Jacobi weights underflowed
# (lhs 0.0) or overflowed
MENDED_BREACHES = [
    ("selb", dict(k1=3, alpha=1.2, beta1=2.2, gamma=-0.25)),
    ("selb", dict(k1=4, alpha=1.5, beta1=1.2, gamma=-0.15)),
    ("exp", dict(k1=3, alpha=1.14, gamma=-0.27)),
    ("exp", dict(k1=3, alpha=1.5, gamma=-0.3)),
    ("selb3", dict(k1=1, k2=1, alpha=1.91595, beta1=0.75889, beta2=0.74075, gamma=-0.05085)),
    ("selb", dict(k1=2, alpha=100.0, beta1=100.0, gamma=-0.1)),
    ("aomoto", dict(k1=2, alpha=100.0, beta1=100.0, gamma=-0.1)),
    ("selb", dict(k1=2, alpha=150.0, beta1=150.0, gamma=-0.1)),
    ("aomoto", dict(k1=2, alpha=150.0, beta1=150.0, gamma=-0.1)),
]


class TestMendedBreaches:
    @pytest.mark.parametrize("which,params", MENDED_BREACHES,
                             ids=[f"{w}-k{p['k1']}{p.get('k2', 0)}-a{p['alpha']:g}-g{p['gamma']:g}"
                                  for w, p in MENDED_BREACHES])
    def test_passes_at_the_default_tolerance(self, which, params):
        rec = run_identity(which, ParamSet(**params))
        assert rec.passed and rec.tolerance == (1e-4 if which == "aomoto" else 1e-6), rec
        assert rec.rel_dev <= 3.0 * rec.lhs_err / abs(rec.rhs) + 1e-13, rec

    @pytest.mark.parametrize("which", ["selb", "aomoto"])
    def test_integral_below_the_double_range_is_named(self, which):
        # at alpha = beta = 300 the integral is about 1e-360: the record
        # names the error rather than reading 0.0
        p = ParamSet(k1=2, alpha=300.0, beta1=300.0, gamma=-0.1)
        with pytest.raises(IntegrandSingularError, match="underflows the double range"):
            run_identity(which, p)


# points where a Gamma argument of the series' closed form is a nonpositive
# integer: (j+1) gamma = -1, or alpha + j gamma = 0; the series has an
# uncancelled pole there too
CLOSED_FORM_POLES = [
    ("dexp", dict(k1=2, alpha=1.3, gamma=-0.5, z1=0.3), "-1.0"),  # 2 gamma
    ("dexp", dict(k1=3, alpha=1.3, gamma=-1 / 3, z1=0.3), "-1.0"),  # 3 gamma
    ("dexp", dict(k1=3, alpha=0.3, gamma=-0.15, z1=0.3), "0.0"),  # alpha + 2 gamma
    ("dexp3", dict(k1=3, k2=1, alpha=1.3, gamma=-1 / 3, z1=0.3, z2=0.5), "-1.0"),
    ("limit_direction", dict(k1=3, k2=1, alpha=1.3, gamma=-1 / 3, z1=0.3, z2=0.5), "-1.0"),
]


class TestSeriesPredicates:
    """dexp and dexp3, and the checks that share dexp3's predicate, reject a
    point where the closed form has a Gamma pole."""

    @pytest.mark.parametrize("which,params,x", CLOSED_FORM_POLES,
                             ids=[f"{w}-k{p['k1']}{p.get('k2', 0)}-a{p['alpha']:g}"
                                  f"-g{p['gamma']:.3g}" for w, p, _ in CLOSED_FORM_POLES])
    def test_closed_form_pole_is_invalid(self, capsys, which, params, x):
        p = ParamSet(**params)
        with pytest.raises(InvalidParamsError, match=f"closed form has a gamma pole at x={x}$"):
            run_identity(which, p)
        argv = ["verify", "--identity", which]
        for key, value in params.items():
            argv += [f"--{'k' if key == 'k1' and which == 'dexp' else key}", repr(value)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "gamma pole" in err and "Traceback" not in err
        if which in ("dexp", "dexp3"):  # the series fails there, unchecked
            with pytest.raises(LimitDisagreementError, match="F has a pole"):
                REGISTRY[which].engine(p, Budget(), 0, None)

    def test_the_checks_sharing_dexp3s_predicate_reject_it(self):
        p = ParamSet(**CLOSED_FORM_POLES[3][1])
        for which in ("fval_support", "pde_residual", "limit_direction"):
            with pytest.raises(InvalidParamsError, match="gamma pole"):
                REGISTRY[which].validate(p)

    @pytest.mark.parametrize("which,shapes", [("dexp", [(1, 0), (2, 0), (3, 0)]),
                                              ("dexp3", [(2, 1), (3, 1), (2, 2)])])
    def test_rejected_exactly_where_the_series_fails(self, which, shapes):
        # rational gamma = -m/n and alphas that meet alpha + j gamma = 0
        gammas = [-1 / 3, -1 / 4, -2 / 5, -1 / 5] + ([-1 / 2, -2 / 3] if which == "dexp" else [])
        rejected = points = 0
        for (k1, k2) in shapes:
            for gamma in gammas:
                for alpha in (0.3, 0.4, 0.5, 2 / 3, 1.3):
                    p = ParamSet(k1=k1, k2=k2, alpha=alpha, gamma=gamma, z1=0.3, z2=0.5)
                    points += 1
                    try:
                        REGISTRY[which].validate(p)
                    except InvalidParamsError:
                        rejected += 1
                        with pytest.raises(LimitDisagreementError, match="F has a pole"):
                            REGISTRY[which].engine(p, Budget(), 0, None)
                    else:
                        REGISTRY[which].engine(p, Budget(), 0, None)
        assert 10 <= rejected < points

    def test_a_factor_too_large_for_a_double_is_no_pole(self):
        # lgamma(1e308) overflows; the check's record reports it, not the predicate
        REGISTRY["dexp"].validate(ParamSet(k1=2, alpha=1e308, gamma=-0.15, z1=0.3))
        REGISTRY["dexp3"].validate(ParamSet(k1=2, k2=1, alpha=1e308, gamma=-0.15, z1=0.3, z2=0.5))

    def test_pole_tolerance_is_the_closed_forms(self):
        # 2 gamma within 1e-12 of -1 is rejected, at 2e-9 from it accepted
        p = ParamSet(k1=2, alpha=1.3, gamma=-0.5 + 1e-13, z1=0.3)
        with pytest.raises(InvalidParamsError, match="gamma pole"):
            REGISTRY["dexp"].validate(p)
        REGISTRY["dexp"].validate(p.with_(gamma=-0.5 + 1e-9))


class TestSelb3Predicate:
    """selb3, selb30 and exp3 admit only points where every cluster of points
    converges: at 1, at 0 and inside the interval."""

    def test_divergent_cluster_at_one_is_rejected(self):
        # (1-s)^(beta2-1) (1-t)^(beta1-1) |s-t|^(-gamma-1): beta1+beta2-gamma <= 1
        for k1, k2 in ((1, 1), (2, 2)):
            p = ParamSet(k1=k1, k2=k2, alpha=1.0, beta1=0.3, beta2=0.4, gamma=-0.1)
            with pytest.raises(InvalidParamsError, match="diverges where points meet 1"):
                run_identity("selb3", p)
        # without the rational pole the same point converges
        p = ParamSet(k1=1, k2=1, alpha=1.0, beta1=0.3, beta2=0.4, gamma=-0.1)
        assert run_identity("selb30", p).passed

    def test_selb30_cluster_of_t_at_one(self):
        # two t's meeting 1 with no s between: 2 beta1 + 2 gamma <= 0
        p = ParamSet(k1=2, k2=0, alpha=1.0, beta1=0.15, beta2=1.0, gamma=-0.2)
        with pytest.raises(InvalidParamsError, match="diverges where points meet 1"):
            run_identity("selb30", p)
        assert run_identity("selb30", p.with_(beta1=0.25)).passed

    def test_three_t_meeting_inside_diverge(self, capsys):
        # three t's meeting inside with no s between: 6 gamma + 2 <= 0
        p = ParamSet(k1=3, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.4)
        for which in ("selb3", "selb30", "exp3"):
            with pytest.raises(InvalidParamsError, match="diverges where points meet inside"):
                run_identity(which, p)
        code = main(["verify", "--identity", "selb30", "--k1", "3", "--k2", "1", "--alpha", "1.5",
                     "--beta1", "1.2", "--beta2", "1.4", "--gamma", "-0.4"])
        out, err = capsys.readouterr()
        assert code == 2 and "meet inside" in err and "Traceback" not in err and out == ""

    def test_cluster_of_t_at_zero(self):
        # two t's meeting 0: t^(alpha-1) each, 2 alpha + 2 gamma <= 0
        p = ParamSet(k1=2, k2=0, alpha=0.15, beta1=1.2, beta2=1.4, gamma=-0.2)
        for which in ("selb3", "selb30", "exp3"):
            with pytest.raises(InvalidParamsError, match="diverges where points meet 0"):
                run_identity(which, p)
        assert run_identity("selb30", p.with_(alpha=0.25)).passed

    @pytest.mark.parametrize("which", ["selb3", "selb30", "exp3"])
    def test_predicate_is_the_sector_rule_divergence(self, which):
        # seeded points of the base region alpha, beta > 0, gamma in (-0.5, 0):
        # an accepted point integrates on every domain without the sector
        # rule's DomainError, and a rejected one raises it on some domain
        from selberg3.chains import enumerate_maps
        from selberg3.errors import DomainError
        from selberg3.quadrature import integrate_domain

        rng = np.random.default_rng(1800)
        places = set()
        for k1, k2 in ((1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1), (3, 1), (2, 2)):
            for _ in range(10):
                p = ParamSet(k1=k1, k2=k2, alpha=rng.uniform(0.02, 2.2),
                             beta1=rng.uniform(0.02, 2.2), beta2=rng.uniform(0.02, 2.2),
                             gamma=rng.uniform(-0.5, 0.0))
                try:
                    REGISTRY[which].validate(p)
                    place = None
                except InvalidParamsError as exc:
                    place = str(exc).split("meet ")[1].split(":")[0]
                ig = assembled_integrand(which, p)
                raised = []
                for M in enumerate_maps(k1, k2):
                    try:
                        integrate_domain(ig, M, QuadSpec(nodes_per_axis=2), p)
                    except DomainError:
                        raised.append(M)
                assert bool(raised) == (place is not None), (p, place)
                places.add(place)
        assert places == ({None, "0", "inside"} if which == "exp3" else {None, "0", "1", "inside"})


class TestMonteCarloTolerance:
    def test_default_tolerance_is_three_sigma_within_floor_and_ceiling(self):
        assert _mc_tolerance(1e-3, 1.0) == pytest.approx(3e-3)
        assert _mc_tolerance(1e-6, 1.0) == MC_FLOOR
        assert _mc_tolerance(0.3, 1.0) == MC_CEIL
        assert _mc_tolerance(1e-9, 0.0) == MC_CEIL  # a zero reference: infinite relative sigma

