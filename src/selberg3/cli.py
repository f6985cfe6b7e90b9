"""Command-line front end: select identities, parameters, budgets.

``selberg3 verify`` runs identity checks and writes one report line per
check (NDJSON by default, CSV or a human-readable table on request);
``selberg3 list`` shows every registered identity with its validity
predicate.  Exit codes: 0 all checks passed, 1 at least one failed,
2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .errors import InvalidParamsError
from .identities import REGISTRY, Budget, VerificationRecord, run_identity
from .params import ParamSet

DEFAULT_SEED = 20070920

CONFIG_KEYS = {"identity", "k", "k1", "k2", "alpha", "beta", "beta1", "beta2",
               "gamma", "z", "z1", "z2", "grid", "tol", "budget", "seed",
               "format", "out"}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="selberg3",
                                 description="verify gamma-product identities "
                                             "of Selberg type numerically")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity checks")
    v.add_argument("--identity", action="append", default=None,
                   help="identity id (repeatable); see 'selberg3 list'")
    v.add_argument("--config", default=None, help="flat key=value config file")
    v.add_argument("--k", type=int, default=None, help="alias for --k1 with k2=0")
    v.add_argument("--k1", type=int, default=None)
    v.add_argument("--k2", type=int, default=None)
    v.add_argument("--alpha", type=float, default=None)
    v.add_argument("--beta", type=float, default=None, help="alias for --beta1")
    v.add_argument("--beta1", type=float, default=None)
    v.add_argument("--beta2", type=float, default=None)
    v.add_argument("--gamma", type=float, default=None)
    v.add_argument("--z", type=float, default=None, help="alias for --z1")
    v.add_argument("--z1", type=float, default=None)
    v.add_argument("--z2", type=float, default=None)
    v.add_argument("--grid", default=None,
                   help="JSON file: {param: [values...]} for a Cartesian grid "
                        "or [{param: value, ...}, ...] for explicit points")
    v.add_argument("--tol", type=float, default=None, help="tolerance override")
    v.add_argument("--budget", type=int, default=None,
                   help="Monte Carlo sample count (other budgets use defaults)")
    v.add_argument("--seed", type=int, default=None,
                   help="base seed (falls back to SELBERG_SEED, then default)")
    v.add_argument("--format", choices=["json", "csv", "pretty"], default=None)
    v.add_argument("--out", default=None, help="output path (default stdout)")

    sub.add_parser("list", help="list identities with validity predicates")
    return ap


def _read_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, val = line.split(sep, 1)
                    break
            else:
                raise InvalidParamsError(f"{path}:{lineno}: expected key=value")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise InvalidParamsError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = val.strip()
    return out


def _merged_options(args) -> dict:
    """Config-file values with command-line flags layered on top."""
    opts = {}
    if args.config:
        opts.update(_read_config(args.config))
    for key in CONFIG_KEYS - {"identity"}:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    if args.identity:
        opts["identity"] = args.identity
    elif "identity" in opts and isinstance(opts["identity"], str):
        opts["identity"] = [x.strip() for x in opts["identity"].split(",") if x.strip()]
    return opts


# each alias and the parameter it sets; 'k' also sets k2 = 0
ALIASES = {"k": "k1", "beta": "beta1", "z": "z1"}
PARAMS = ("k1", "k2", "alpha", "beta1", "beta2", "gamma", "z1", "z2")


def _param_values(items) -> dict:
    """ParamSet fields from (key, value) pairs, a later pair winning."""
    out = {}
    for key, v in items:
        dst = ALIASES.get(key, key)
        if dst not in PARAMS:
            raise InvalidParamsError(f"unknown grid key {key!r}")
        out[dst] = int(v) if dst in ("k1", "k2") else float(v)
        if key == "k":
            out["k2"] = 0
    return out


def _param_grid(opts) -> list[ParamSet]:
    # aliases first, so --k1 overrides --k and --beta1 overrides --beta
    base = _param_values((key, opts[key]) for key in (*ALIASES, *PARAMS)
                         if opts.get(key) is not None)
    if opts.get("grid"):
        with open(opts["grid"], "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        if isinstance(spec, list):
            points = spec
        elif isinstance(spec, dict):
            points = [{}]
            for key, values in spec.items():
                if not isinstance(values, list):
                    values = [values]
                points = [dict(pt, **{key: v}) for pt in points for v in values]
        else:
            raise InvalidParamsError("grid file must hold a JSON list or object")
        return [ParamSet(**{**base, **_param_values(pt.items())}) for pt in points]
    return [ParamSet(**base)]


def _failed_record(identity_id, p, seed, exc) -> VerificationRecord:
    return VerificationRecord(identity_id, p, float("nan"), float("nan"),
                              float("nan"), float("inf"), 0.0, False, seed, 0,
                              f"{type(exc).__name__}: {exc}")


def _finite_or_null(d: dict) -> dict:
    """Strict JSON has no NaN or infinity: write them as null."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in d.items()}


def _write_records(records: list[VerificationRecord], fmt: str, out_path):
    if fmt == "json":
        text = "\n".join(json.dumps(_finite_or_null(r.as_dict()), allow_nan=False)
                         for r in records) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        fields = ["identity_id", "k1", "k2", "alpha", "beta1", "beta2", "gamma",
                  "z1", "z2", "lhs", "lhs_err", "rhs", "rel_dev", "tolerance",
                  "passed", "seed", "runtime_ms", "note"]
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for r in records:
            row = {**{k: v for k, v in r.as_dict().items() if k != "params"},
                   **r.params.as_dict()}
            writer.writerow(row)
        text = buf.getvalue()
    else:
        lines = [f"{'identity':>15} {'k1':>3} {'k2':>3} {'rel_dev':>10} "
                 f"{'tolerance':>10} {'pass':>5}  note"]
        for r in records:
            lines.append(f"{r.identity_id:>15} {r.params.k1:>3} {r.params.k2:>3} "
                         f"{r.rel_dev:>10.2e} {r.tolerance:>10.2e} "
                         f"{'ok' if r.passed else 'FAIL':>5}  {r.note}")
        npass = sum(r.passed for r in records)
        lines.append(f"{npass}/{len(records)} checks passed")
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    try:
        opts = _merged_options(args)
        identities = opts.get("identity")
        if not identities:
            raise InvalidParamsError("no --identity given")
        for iid in identities:
            if iid not in REGISTRY:
                raise InvalidParamsError(f"unknown identity {iid!r}; see 'selberg3 list'")
        grid = _param_grid(opts)
        seed = int(opts.get("seed", os.environ.get("SELBERG_SEED", DEFAULT_SEED)))
        if seed < 0:
            raise InvalidParamsError(f"seed must be >= 0, got {seed}")
        tol = float(opts["tol"]) if opts.get("tol") is not None else None
        # an infinite tolerance passes every check, a NaN or negative one none
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise InvalidParamsError(f"tolerance must be finite and > 0, got {tol}")
        budget = Budget(samples=int(opts["budget"])) if "budget" in opts else Budget()
        if budget.samples < 2:  # one sample has no standard error
            raise InvalidParamsError(f"budget must be an integer >= 2, got {budget.samples}")
        fmt = opts.get("format", "json")
        # validate everything before running anything expensive
        for iid in identities:
            for p in grid:
                REGISTRY[iid].validate(p)
    except (InvalidParamsError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    records = []
    for iid in identities:
        for i, p in enumerate(grid):
            try:
                records.append(run_identity(iid, p, budget=budget,
                                            seed=seed + i, tol=tol))
            except Exception as exc:  # one bad grid point must not lose the run
                records.append(_failed_record(iid, p, seed + i, exc))
    _write_records(records, fmt, opts.get("out"))
    return 0 if all(r.passed for r in records) else 1


def cmd_list() -> int:
    width = max(len(i) for i in REGISTRY)
    for iid, entry in REGISTRY.items():
        print(f"{iid:>{width}}  {entry.description}")
        print(f"{'':>{width}}  valid when: {entry.predicate}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
