"""Per-layer timers and counters, installed around the program's public
functions from outside the program.

``Tracer.install()`` replaces each traced function wherever ``selberg3``
holds a reference to it: module attributes (which covers every
``from .x import f`` binding) and the closure cells of the registry's
engines (which hold the closed forms each identity was registered with).
Every span records its time only when it is the outermost call of its
timer, so recursion and nesting never count twice.  A timer's time is
the sum of its outermost spans; ``identities.self.s`` is record time
minus every span that no other traced span encloses.

The repeat-geometry key is built from the endpoint exponents the
program's own ``facet_exponents`` call returned, which an untimed hook
keeps; the tracer recomputes nothing.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, function) -> timer; closed_forms and chains are traced as whole
# layers, every public function of the module under the module's name
NAMED = {
    ("lattice", "sum_discrete"): "lattice.sum_discrete",
    ("lattice", "lattice_values"): "lattice.values",
    ("lattice", "pde_residual"): "lattice.pde_residual",
    ("integrands", "f_limit"): "integrands.f_limit",
    ("integrands", "weight_w"): "integrands.weight_w",
    ("integrands", "phi_sign_log"): "integrands.phi_sign_log",
    ("quadrature", "integrate_chain"): "quadrature.integrate_chain",
    ("quadrature", "integrate_domain"): "quadrature.integrate_domain",
    ("recursions", "solve_both"): "recursions.solve",
    ("recursions", "solve_j"): "recursions.solve",
    ("recursions", "verify_relations"): "recursions.verify",
}
WHOLE_LAYERS = ("closed_forms", "chains")

# every per-layer metric the tracer measures, as BENCHMARK.json names them
METRICS = (
    "lattice.sum_discrete.s",
    "lattice.sum_discrete.calls",
    "lattice.shells",
    "lattice.points",
    "lattice.values.s",
    "lattice.enum.s",
    "lattice.pde_residual.s",
    "lattice.pde_residual.series",
    "integrands.f_limit.s",
    "integrands.f_limit.calls",
    "integrands.weight_w.s",
    "integrands.phi_sign_log.s",
    "quadrature.integrate_chain.s",
    "quadrature.integrate_chain.calls",
    "quadrature.det.s",
    "quadrature.det.domains",
    "quadrature.det.nodes",
    "quadrature.det.repeat_geometry",
    "quadrature.mc.s",
    "quadrature.mc.domains",
    "quadrature.mc.samples",
    "recursions.solve.s",
    "recursions.solve.tables",
    "recursions.verify.s",
    "recursions.relations",
    "closed_forms.s",
    "closed_forms.calls",
    "chains.s",
    "identities.self.s",
)


class Tracer:
    def __init__(self):
        self.sums = defaultdict(float)
        self.depth = defaultdict(int)
        self.open_spans = 0
        self.record_s = 0.0
        self._geometry = set()
        self._last_exponents = None

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever ``selberg3`` refers to it."""
        import selberg3.identities as identities

        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("selberg3.")}
        hooks = {
            "sum_discrete": self._after_sum_discrete,
            "lattice_values": self._after_lattice_values,
            "pde_residual": self._after_pde_residual,
            "integrate_domain": self._after_integrate_domain,
            "solve_j": self._after_solve_j,
            "verify_relations": self._after_verify,
        }
        wrappers = {}
        for (modname, fname), timer in NAMED.items():
            fn = getattr(mods[modname], fname)
            wrappers[fn] = self._span(fn, timer, hooks.get(fname))
        for modname in WHOLE_LAYERS:
            mod = mods[modname]
            for fname, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not fname.startswith("_")
                        and not inspect.isgeneratorfunction(fn)):
                    wrappers[fn] = self._span(fn, modname)
        fn = mods["quadrature"].facet_exponents
        wrappers[fn] = self._keep_exponents(fn)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
        for entry in identities.REGISTRY.values():
            for cell in entry.engine.__closure__ or ():
                if inspect.isfunction(cell.cell_contents) and cell.cell_contents in wrappers:
                    cell.cell_contents = wrappers[cell.cell_contents]
        return self

    def _span(self, fn, timer, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_timer = self.depth[timer] == 0
            outermost = self.open_spans == 0
            self.depth[timer] += 1
            self.open_spans += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.depth[timer] -= 1
                self.open_spans -= 1
            if outer_timer:
                self.sums[timer + ".s"] += dt
                self.sums[timer + ".calls"] += 1
            if after is not None:
                after(args, kwargs, result, dt)
            if outermost:
                self.sums["spans.top.s"] += dt
            return result

        return traced

    def _keep_exponents(self, fn):
        """Untimed: keep the result of the program's facet_exponents call,
        which integrate_domain makes once per domain before integrating."""
        @functools.wraps(fn)
        def kept(integrand, M):
            self._last_exponents = fn(integrand, M)
            return self._last_exponents

        return kept

    # -- counters -----------------------------------------------------------

    def _after_sum_discrete(self, args, kwargs, result, dt):
        self.sums["lattice.shells"] += result.bound + 1
        if self.depth["lattice.pde_residual"]:
            self.sums["pde.series_sums"] += 1

    def _after_lattice_values(self, args, kwargs, result, dt):
        self.sums["lattice.points"] += args[0].shape[0]
        if self.depth["lattice.sum_discrete"]:
            self.sums["lattice.values_in_sum.s"] += dt

    def _after_pde_residual(self, args, kwargs, result, dt):
        if not kwargs.get("use_closed_form", False):
            self.sums["pde.series_calls"] += 1

    def _after_integrate_domain(self, args, kwargs, result, dt):
        integrand, M, q, _ = args
        if q.scheme == "monte_carlo":
            self.sums["quadrature.mc.s"] += dt
            self.sums["quadrature.mc.domains"] += 1
            self.sums["quadrature.mc.samples"] += q.sample_count
            return
        K = integrand.k1 + integrand.k2
        n = q.nodes_for(K)
        # the two rules integrate_domain pairs for its error estimate
        m = max(6, (2 * n) // 3)
        aw = self._last_exponents
        # (k1, k2, M) fixes the merged coordinate order of the domain
        key = (integrand.k1, integrand.k2, M.m, aw.w0, aw.w1, n, q.smooth_order)
        self.sums["quadrature.det.s"] += dt
        self.sums["quadrature.det.domains"] += 1
        self.sums["quadrature.det.nodes"] += n ** K + m ** K
        if key in self._geometry:
            self.sums["quadrature.det.repeat_geometry"] += 1
        self._geometry.add(key)

    def _after_solve_j(self, args, kwargs, result, dt):
        self.sums["recursions.solve.tables"] += 1

    def _after_verify(self, args, kwargs, result, dt):
        self.sums["recursions.relations"] += len(result)

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric of the pass traced so far."""
        s = self.sums
        out = {name: s.get(name, 0.0) for name in METRICS}
        out["lattice.enum.s"] = s["lattice.sum_discrete.s"] - s["lattice.values_in_sum.s"]
        out["lattice.pde_residual.series"] = (
            s["pde.series_sums"] / s["pde.series_calls"] if s["pde.series_calls"] else 0.0)
        out["identities.self.s"] = self.record_s - s["spans.top.s"]
        return out
