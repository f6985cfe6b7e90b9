"""Command-line front end: flags, config files, reports, exit codes."""

import csv
import dataclasses
import io
import json
import os

import pytest

from selberg3.cli import _param_grid, main
from selberg3.errors import InvalidParamsError
from selberg3.identities import REGISTRY, identity_ids


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestList:
    def test_lists_every_identity(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for iid in identity_ids():
            assert iid in out
        assert "valid when" in out


class TestExitCodes:
    def test_all_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "selb",
                               "--k", "2", "--alpha", "1.0", "--beta", "1.0",
                               "--gamma", "1.0", "--format", "pretty")
        assert code == 0
        assert "1/1 checks passed" in out

    def test_failure_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "selb",
                               "--k", "2", "--alpha", "1.0", "--beta", "1.0",
                               "--gamma", "1.0", "--tol", "1e-30")
        assert code == 1

    def test_bad_config_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "selb",
                               "--k", "2", "--gamma", "0")
        assert code == 2
        assert "gamma" in err

    def test_unknown_identity_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "bogus")
        assert code == 2
        assert "bogus" in err

    def test_missing_identity_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--k", "2")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--identity", "selb", "--k", "1", "--gamma", "inf"),
        ("--identity", "dexp", "--k", "1", "--alpha", "inf"),
        ("--identity", "exp3", "--k1", "1", "--k2", "1", "--beta1", "inf"),
    ])
    def test_non_finite_param_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert "must be finite" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv,config,env_seed", [
        (("--identity", "selb", "--k", "1", "--tol", "inf"), None, None),
        (("--identity", "selb", "--k", "1"), "tol = inf\n", None),
        (("--identity", "selb", "--k", "1", "--tol", "nan"), None, None),
        (("--identity", "selb", "--k", "1", "--tol", "-1"), None, None),
        (("--identity", "exp", "--k", "1", "--budget", "-5"), None, None),
        (("--identity", "exp", "--k", "1", "--budget", "0"), None, None),
        (("--identity", "exp", "--k", "1", "--budget", "1"), None, None),
        (("--identity", "exp", "--k", "1", "--seed", "-3"), None, None),
        (("--identity", "exp", "--k", "1"), None, "-3"),
    ])
    def test_meaningless_tolerance_budget_or_seed_exit_two(self, capsys, tmp_path,
                                                           monkeypatch, argv, config,
                                                           env_seed):
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv += ("--config", str(cfg))
        if env_seed is not None:
            monkeypatch.setenv("SELBERG_SEED", env_seed)
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert "configuration error" in err
        assert "Traceback" not in err
        assert out == ""


class TestReports:
    def test_json_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "report.ndjson"
        code, _, _ = run_cli(capsys, "verify", "--identity", "selb",
                             "--k", "2", "--alpha", "2.5", "--beta", "1.5",
                             "--gamma", "-0.1", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        # re-running with the same seed reproduces every field exactly
        code2, out2, _ = run_cli(capsys, "verify", "--identity", "selb",
                                 "--k", "2", "--alpha", "2.5", "--beta", "1.5",
                                 "--gamma", "-0.1")
        rec2 = json.loads(out2.strip())
        rec.pop("runtime_ms")
        rec2.pop("runtime_ms")
        assert rec == rec2
        assert rec["identity_id"] == "selb"
        assert rec["params"]["k1"] == 2 and rec["params"]["k2"] == 0
        assert rec["passed"] is True

    def test_csv_fields(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "stirling_ratio",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        for field in ("identity_id", "k1", "alpha", "lhs", "rhs", "rel_dev",
                      "tolerance", "passed", "seed", "runtime_ms"):
            assert field in row
        assert row["passed"] == "True"

    def test_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"alpha": [1.0, 1.5, 2.0], "gamma": [-0.1]}))
        code, out, _ = run_cli(capsys, "verify", "--identity", "selb",
                               "--k", "1", "--beta", "1.5", "--grid", str(grid))
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_explicit_point_grid(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"k": 1, "alpha": 1.0}, {"k": 2, "alpha": 1.5}]))
        code, out, _ = run_cli(capsys, "verify", "--identity", "selb",
                               "--beta", "1.5", "--gamma", "-0.1",
                               "--grid", str(grid))
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["params"]["k1"] for r in recs] == [1, 2]


def _strict_json(line):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(line, parse_constant=reject)


class TestFailureRecords:
    def test_engine_error_becomes_strict_failed_record(self, capsys, monkeypatch,
                                                       tmp_path):
        entry = REGISTRY["stirling_ratio"]

        def engine(p, budget, seed, tol):
            if p.alpha == 2.0:
                raise ZeroDivisionError("float division by zero")
            return entry.engine(p, budget, seed, tol)

        monkeypatch.setitem(REGISTRY, "stirling_ratio",
                            dataclasses.replace(entry, engine=engine))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"alpha": [1.0, 2.0, 3.0]}))
        code, out, err = run_cli(capsys, "verify", "--identity", "stirling_ratio",
                                 "--grid", str(grid))
        assert code == 1 and "Traceback" not in err
        recs = [_strict_json(line) for line in out.strip().splitlines()]
        # the bad point is reported; the points after it still run
        assert [r["passed"] for r in recs] == [True, False, True]
        bad = recs[1]
        assert bad["note"] == "ZeroDivisionError: float division by zero"
        assert bad["lhs"] is None and bad["rel_dev"] is None
        assert bad["params"]["alpha"] == 2.0

    @pytest.mark.parametrize("identity", ["selb", "aomoto"])
    def test_large_exponents_pass(self, capsys, identity):
        # the sector rule's weights never scale by 2^-(E+1), so they neither
        # underflow nor overflow here
        code, out, err = run_cli(capsys, "verify", "--identity", identity, "--k", "2",
                                 "--alpha", "150", "--beta", "150", "--gamma", "-0.1")
        assert code == 0 and "Traceback" not in err
        [rec] = [_strict_json(line) for line in out.strip().splitlines()]
        assert rec["passed"]

    @pytest.mark.parametrize("identity", ["selb", "aomoto"])
    def test_integral_below_the_double_range_is_a_named_failure(self, capsys, identity):
        # inside the validity region, but the integral (about 1e-360) is not a double
        code, out, err = run_cli(capsys, "verify", "--identity", identity, "--k", "2",
                                 "--alpha", "300", "--beta", "300", "--gamma", "-0.1")
        assert code == 1 and "Traceback" not in err
        [rec] = [_strict_json(line) for line in out.strip().splitlines()]
        assert not rec["passed"] and rec["lhs"] is None
        assert rec["note"].startswith("IntegrandSingularError: a domain integral underflows")

    def test_divergent_selb3_point_is_a_configuration_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--identity", "selb3", "--k1", "1",
                                 "--k2", "1", "--alpha", "1.0", "--beta1", "0.3",
                                 "--beta2", "0.4", "--gamma", "-0.1")
        assert code == 2 and "Traceback" not in err and "diverges where points meet 1" in err


class TestConfig:
    def test_config_file_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("identity = selb\nk = 2\nalpha = 2.5\nbeta = 1.5\n"
                       "gamma = -0.1\nformat = pretty\n")
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 0 and "1/1 checks passed" in out
        # flag overrides the file value
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg),
                               "--gamma", "0")
        assert code == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("identity = selb\nfrobnicate = 1\n")
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2 and "frobnicate" in err

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SELBERG_SEED", "4242")
        code, out, _ = run_cli(capsys, "verify", "--identity", "stirling_ratio")
        assert code == 0
        assert json.loads(out.strip())["seed"] == 4242


class TestAliases:
    @pytest.mark.parametrize("alias,value,field", [("k", 3, "k1"), ("beta", 1.7, "beta1"),
                                                   ("z", 0.25, "z1")])
    def test_alias_sets_the_same_params_from_a_flag_and_a_grid_point(self, tmp_path, alias,
                                                                     value, field):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{alias: value}]))
        (from_flag,) = _param_grid({alias: value, "k2": None})
        (from_grid,) = _param_grid({"grid": str(grid)})
        assert from_flag == from_grid
        assert getattr(from_flag, field) == value
        if alias == "k":
            assert from_flag.k2 == 0

    def test_named_flag_overrides_its_alias(self):
        (p,) = _param_grid({"k": 3, "k1": 2, "beta": 1.7, "beta1": 1.2, "z": 0.3, "z1": 0.4})
        assert (p.k1, p.k2, p.beta1, p.z1) == (2, 0, 1.2, 0.4)

    def test_k_in_a_grid_point_resets_a_flag_k2(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"k": 3}, {"k1": 3}]))
        k_point, k1_point = _param_grid({"k2": 1, "grid": str(grid)})
        assert (k_point.k1, k_point.k2) == (3, 0)
        assert (k1_point.k1, k1_point.k2) == (3, 1)

    def test_unknown_grid_key(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"kappa": 1}]))
        with pytest.raises(InvalidParamsError, match="unknown grid key 'kappa'"):
            _param_grid({"grid": str(grid)})


class TestMonteCarloBudget:
    @pytest.mark.parametrize("argv", [
        ("--identity", "selb3", "--k1", "3", "--k2", "2", "--budget", "2"),
        ("--identity", "selb3", "--k1", "3", "--k2", "2", "--budget", "10"),
        ("--identity", "exp", "--k", "5", "--gamma", "-0.1", "--budget", "2")])
    def test_tiny_budget_is_insufficient_precision(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1
        rec = json.loads(out)
        assert rec["passed"] is False
        assert rec["note"].endswith("insufficient precision")
        assert "Traceback" not in err
