"""Verification registry: completeness, reproducibility, dispatch."""

import dataclasses

import pytest

from selberg3.errors import InvalidParamsError
from selberg3.identities import (
    REGISTRY,
    Budget,
    VerificationRecord,
    identity_ids,
    run_grid,
    run_identity,
)
from selberg3.params import ParamSet

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
        p = ParamSet(k1=2, k2=0, alpha=1.5, gamma=-0.15)
        rec = run_identity("exp", p, budget=Budget(samples=20_000), tol=1e-12)
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
