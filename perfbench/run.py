"""Reference-grid benchmark of selberg3: time to tolerance, end to end.

    python3 perfbench/run.py --workload series|quadrature|sweep \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from its
``src`` directory, nothing is installed.  The run

1. (untraced only) times SETUP_STARTS fresh interpreters that import
   ``selberg3`` and answer ``selberg3 list``;
2. runs whole passes over the workload's grid, each in a fresh
   interpreter, starting passes until S seconds have gone;
3. checks every record against independent anchors and recomputes every
   deviation (``anchors.py``), and checks that passes agree exactly;
4. prints a summary and, as its last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
   metrics untraced, the per-layer metrics with ``--trace 1``.

Every measured process runs with one BLAS/OpenMP thread (see README).
Exits 2 without a result when the checkout has no ``src/selberg3``, and
1 when a worker dies or the measured metrics are not the ones
BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import anchors
import grids
import metrics

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 5
PASS_TIMEOUT_S = 150
LIST_PROGRAM = "import sys; from selberg3.cli import main; sys.exit(main(['list']))"


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def time_setup(env: dict, root: Path) -> float:
    """Wall time of one fresh interpreter answering ``selberg3 list``."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", LIST_PROGRAM], env=env, cwd=root,
                         capture_output=True, text=True, timeout=60)
    dt = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"selberg3 list exited {out.returncode}: {out.stderr[-2000:]}")
    missing = {c.identity for w in grids.WORKLOADS for c in grids.grid(w, 0)} - \
        {line.split()[0] for line in out.stdout.splitlines() if line.strip()}
    if missing:
        raise RuntimeError(f"selberg3 list does not name {sorted(missing)}")
    return dt


def run_worker(env: dict, root: Path, workload: str, seed: int, trace: bool,
               check: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if trace else "0", "1" if check else "0"]
    out = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                         timeout=PASS_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"worker exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout)


def check_run(passes: list[dict], src: Path) -> tuple[list[str], int]:
    """Problems with the run's outputs, and the failed records per pass."""
    first = passes[0]
    problems, failed = anchors.check_pass(first["records"], grids.is_known_failure)
    problems += anchors.check_monomials(first["monomials"])
    fields = ("identity", "params", "seed", "error", "lhs", "lhs_err", "rhs", "rel_dev",
              "tolerance", "passed")
    reference = [{f: r.get(f) for f in fields} for r in first["records"]]
    for i, p in enumerate(passes):
        if not Path(p["selberg3_file"]).resolve().is_relative_to(src):
            problems.append(f"pass {i} imported selberg3 from {p['selberg3_file']}")
        if i and [{f: r.get(f) for f in fields} for r in p["records"]] != reference:
            problems.append(f"pass {i} records differ from pass 0 beyond timing")
    return problems, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=grids.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    root = Path.cwd()
    src = (root / "src").resolve()
    if not (src / "selberg3" / "__init__.py").is_file():
        print(f"error: no selberg3 sources under {src}; run from the root of a "
              "selberg3 checkout", file=sys.stderr)
        return 2
    env = child_env(src)
    trace = bool(args.trace)

    try:
        setup = [] if trace else [time_setup(env, root) for _ in range(SETUP_STARTS)]
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < args.seconds:
            passes.append(run_worker(env, root, args.workload, args.seed, trace,
                                     check=not passes))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems, failed_per_pass = check_run(passes, src)
    if trace:
        figures = metrics.per_layer(passes)
    else:
        figures = metrics.end_to_end(setup, passes)
    declared = metrics.spec()["per_layer" if trace else "end_to_end"]
    if sorted(figures) != sorted(m["name"] for m in declared):
        print(f"error: the run measured {sorted(figures)}, BENCHMARK.json declares "
              f"{sorted(m['name'] for m in declared)}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in declared}
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    n_records = len(passes[0]["records"])
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of {n_records} "
          f"records, {failed_per_pass} failed per pass, pass wall_s [{walls}]"
          f"{' (traced)' if trace else ''}")
    for name, unit in units.items():
        print(f"#   {name:34s} {figures[name]:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": n_records * len(passes),
        "failed": failed_per_pass * len(passes),
        "metrics": {name: {"value": figures[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
