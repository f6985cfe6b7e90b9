"""One pass of one workload in a fresh interpreter.

    python worker.py WORKLOAD SEED TRACE CHECK

runs every record of the workload's grid through ``run_identity``, in
grid order, and prints one JSON object: the records, each record's time,
the pass's wall time, the peak resident memory, and, with TRACE=1, the
per-layer metrics.  With CHECK=1 it then integrates monomials over unit
chains with the deterministic engine, outside the timed region and after
memory was read, for the exact-integral check in ``anchors.py``.

``selberg3`` must be importable (``run.py`` puts the checkout's ``src``
first on PYTHONPATH).
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time

import grids
import layers

# shapes of the exact monomial check and the highest degree per coordinate
MONOMIAL_SHAPES = ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (2, 2))
MONOMIAL_MAX_DEG = 3


def run_pass(workload: str, seed: int, tracer) -> dict:
    from selberg3.identities import REGISTRY, run_identity
    from selberg3.params import ParamSet

    out = []
    t_start = time.perf_counter()
    for case in grids.grid(workload, seed):
        t0 = time.perf_counter()
        try:
            rec = run_identity(case.identity, ParamSet(**case.params), seed=case.seed)
            error = None
        except Exception as exc:  # one bad record must not lose the pass
            rec, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        row = {"identity": case.identity, "params": case.params, "seed": case.seed,
               "aggregate": REGISTRY[case.identity].aggregate, "s": dt, "error": error}
        if rec is not None:
            row.update(lhs=rec.lhs, lhs_err=rec.lhs_err, rhs=rec.rhs, rel_dev=rec.rel_dev,
                       tolerance=rec.tolerance, passed=rec.passed, note=rec.note)
        out.append(row)
        if tracer:
            tracer.record_s += dt
    wall = time.perf_counter() - t_start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"records": out, "wall_s": wall, "peak_rss_mb": peak_mb}


def monomial_integrals(seed: int) -> list[dict]:
    """Deterministic-engine integrals of random monomials over unit chains."""
    import numpy as np

    from selberg3.chains import unit_chain
    from selberg3.integrands import Integrand
    from selberg3.params import ParamSet
    from selberg3.quadrature import QuadSpec, integrate_chain

    rng = random.Random(f"monomials-{seed}")
    out = []
    for k1, k2 in MONOMIAL_SHAPES:
        dt = [rng.randint(0, MONOMIAL_MAX_DEG) for _ in range(k1)]
        ds = [rng.randint(0, MONOMIAL_MAX_DEG) for _ in range(k2)]

        def poly(t, s, dt=dt, ds=ds):
            t, s = np.atleast_2d(t), np.atleast_2d(s)
            out = np.ones(t.shape[0])
            for i, d in enumerate(dt):
                out = out * t[:, i] ** d
            for i, d in enumerate(ds):
                out = out * s[:, i] ** d
            return out

        ig = Integrand(poly, k1, k2, "01", 0, 1.0, 0.0, 1.0, 1.0, kind="callable")
        p = ParamSet(k1=k1, k2=k2)
        value, err = integrate_chain(ig, unit_chain(k1, k2), QuadSpec(nodes_per_axis=24), p)
        out.append({"k1": k1, "k2": k2, "degs_t": dt, "degs_s": ds,
                    "value": value, "err": err})
    return out


def main(argv: list[str]) -> int:
    workload, seed, want_trace, want_check = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    import selberg3.identities  # noqa: F401  (import cost is setup_s, not pass time)

    tracer = layers.Tracer().install() if want_trace else None
    result = run_pass(workload, seed, tracer)
    if tracer:
        result["layers"] = tracer.metrics()
    if want_check:
        result["monomials"] = monomial_integrals(seed)
    result["selberg3_file"] = sys.modules["selberg3"].__file__
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
