"""Steadiness check: run workloads repeatedly and set the bounds from it.

    python3 perfbench/steady.py [--workload all|series|quadrature|sweep]
        [--runs 10] [--first-seed 1] [--sets 1]

Runs ``run.py`` ``--runs`` times per workload, each with the next seed,
``--seconds`` taken from BENCHMARK.json, and prints for every metric the
median, quartiles and quartile spread as a share of the median next to
the metric's bound.  A spread under a third of its bound is marked
``steady``.  With ``--sets 2`` a second set runs on the next seeds and is
compared with the first: each median may not be worse than the first
set's by more than the bound, and the share of failed records must match
exactly.  ``--runs 1`` is a quick one-shot of every workload.  Run from
the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0 or not out.stdout.strip():
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    if out.stderr.strip():
        print(out.stderr, file=sys.stderr)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bounds: dict) -> dict:
    """Median, quartiles and spread per metric of one set of runs."""
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        med = statistics.median(values)
        rows[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                      "q1": q1, "q3": q3,
                      "spread": metrics.spread(values) if len(values) > 1 and med else 0.0,
                      "bound": bounds[name]}
    return rows


def failed_shares(results: list[dict]) -> list[str]:
    return sorted({str(Fraction(r["failed"], r["attempted"])) for r in results})


def print_set(label: str, results: list[dict], rows: dict):
    print(f"{label}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
          f"attempted {[r['attempted'] for r in results]}, "
          f"failed {[r['failed'] for r in results]}, share {failed_shares(results)}")
    for name, row in rows.items():
        verdict = "steady" if row["spread"] < row["bound"] / 3 else (
            "within bound" if row["spread"] <= row["bound"] else "TOO WIDE")
        print(f"  {name:34s} {row['unit']:14s} median {row['median']:12.6g}  "
              f"q1 {row['q1']:12.6g}  q3 {row['q3']:12.6g}  spread {row['spread']:7.4f}  "
              f"bound {row['bound']:.2f}  {verdict}")


def compare(first: dict, later: dict, better: dict):
    same = failed_shares(first["results"]) == failed_shares(later["results"])
    print(f"  failed share {'the same as' if same else 'DIFFERENT FROM'} set 1")
    for name, row in later["summary"].items():
        worse = metrics.worse_by(first["summary"][name]["median"], row["median"],
                                 better[name])
        ok = worse <= row["bound"]
        print(f"  {name:34s} second median worse by {worse:+.4f} "
              f"(bound {row['bound']:.2f}) {'ok' if ok else 'REGRESSED'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args(argv)

    spec = metrics.spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" \
        else [args.workload]
    for workload in workloads:
        seed = args.first_seed
        sets = []
        for k in range(args.sets):
            results = []
            for _ in range(args.runs):
                results.append(one_run(workload, seed, spec["run_seconds"]))
                seed += 1
            rows = summarize(results, bounds)
            print_set(f"{workload} set {k + 1} (seeds {seed - args.runs}..{seed - 1})",
                      results, rows)
            sets.append({"results": results, "summary": rows})
            if k:
                compare(sets[0], sets[-1], better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
