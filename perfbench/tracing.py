"""Traced runs: spans around the calls into each module, from outside.

Every public function is wrapped at the name its caller looks up,
because ``splitting`` and ``physics`` import by name: wrapping
``physics.darcy_step`` would miss the call made through
``splitting.darcy_step``. scipy's ``splu`` is wrapped as ``linsolve``
reaches it, through a stand-in for ``linsolve.spla``.

A span is ``[name, start, end, parent index]``; spans stay in memory
and are aggregated per run. Work the tracer itself adds (reading L+U
fill, residual checks, file sizes) runs in ``trace.check`` spans, which
are taken out of every enclosing span's time.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from fracreact import linsolve, output, physics, scenarios, splitting

CHECK = "trace.check"
SETUP = "scenarios.setup"

# physics spans whose self time is per-call assembly, boundary and
# coefficient work
PHYSICS_SPANS = ("physics.darcy_step", "physics.heat_step",
                 "physics.solute_ad_step", "physics.transport_step")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, post=None):
        """``fn`` inside a span; ``post(result, args, kwargs)`` then runs
        in a check span."""
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if post is not None:
                check = self._open(CHECK)
                try:
                    post(result, args, kwargs)
                finally:
                    self._close(check)
            return result
        return traced

    def reset(self):
        self.spans = []
        self.counts = Counter()

    # -- bindings --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every binding; :meth:`uninstall` puts the originals back."""
        wrap = self.wrap
        for owner, attr, name, post in (
                (scenarios, "build_structured_2d", "mesh.build", None),
                (scenarios, "build_interval_mesh", "mesh.build", None),
                (scenarios, "build_topology", "discretize.build_topology", None),
                (splitting, "advance_step", "splitting.advance_step",
                 self._count_report),
                (splitting, "monolithic_linear_run",
                 "splitting.monolithic_linear_run", None),
                (splitting, "darcy_step", "physics.darcy_step", None),
                (splitting, "heat_step", "physics.heat_step", None),
                (splitting, "solute_ad_step", "physics.solute_ad_step", None),
                (splitting, "transport_step", "physics.transport_step", None),
                (splitting, "react_cell", "chemistry.react_cell", None),
                (physics, "transport_step", "physics.transport_step", None),
                (physics, "assemble_arrays", "linsolve.assemble_arrays", None),
                (physics, "solve", "linsolve.solve", self._count_fallback),
                (physics, "transmissibilities",
                 "discretize.transmissibilities", None),
                (physics, "boundary_transmissibilities",
                 "discretize.boundary_transmissibilities", None),
                (output, "write_vtk_snapshot", "output.write_vtk_snapshot",
                 self._count_vtk_bytes),
                (output.BalanceWriter, "write", "output.balance_write", None)):
            self._patch(owner, attr, wrap(name, getattr(owner, attr), post))
        self._patch(linsolve, "spla", _SplaProxy(linsolve.spla, self))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- counters taken from what the program returns ----------------------

    def _count_report(self, result, args, kwargs):
        report = result[1]
        self.counts["clamp_events"] += report.clamp_events
        self.counts["reaction_events"] += report.event_count

    def _count_fallback(self, x, args, kwargs):
        # solve() accepts a normwise residual above the caller's tol when
        # the componentwise backward error passes; count those returns
        system = args[0]
        tol = kwargs.get("tol", args[1] if len(args) > 1 else
                         linsolve.DEFAULT_TOL)
        b = system.rhs
        bnorm = np.linalg.norm(b)
        res = np.linalg.norm(system.matrix @ x - b) / (bnorm if bnorm > 0 else 1.0)
        if res > tol:
            self.counts["fallback_accepts"] += 1

    def _count_vtk_bytes(self, paths, args, kwargs):
        self.counts["vtk_bytes"] += sum(os.path.getsize(p) for p in paths)

    def factorized(self, matrix, lu):
        check = self._open(CHECK)
        try:
            self.counts["lu_nnz"] += lu.L.nnz + lu.U.nnz
            self.counts["matrix_nnz"] += matrix.nnz
        finally:
            self._close(check)
        return _TracedFactor(lu, self)

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """Per span name: inclusive seconds (nested checks taken out),
        self seconds and number of calls."""
        spans = self.spans
        child = [0.0] * len(spans)
        hidden = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
            if name == CHECK:
                p = parent
                while p >= 0:
                    hidden[p] += end - start
                    p = spans[p][3]
        incl, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _) in enumerate(spans):
            incl[name] += end - start - hidden[i]
            own[name] += end - start - child[i]
            calls[name] += 1
        return incl, own, calls


class _SplaProxy:
    """``scipy.sparse.linalg`` as ``linsolve`` sees it, with ``splu``
    traced."""

    def __init__(self, spla, tracer):
        self._spla = spla
        self._tracer = tracer
        self._splu = tracer.wrap("linsolve.splu", spla.splu)

    def splu(self, matrix, *args, **kwargs):
        return self._tracer.factorized(matrix, self._splu(matrix, *args, **kwargs))

    def __getattr__(self, attr):
        return getattr(self._spla, attr)


class _TracedFactor:
    """A SuperLU factor whose ``solve`` calls are traced; every call
    after the first is one round of iterative refinement."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer
        self._solve = tracer.wrap("linsolve.lu_solve", lu.solve)
        self._calls = 0

    def solve(self, rhs, *args, **kwargs):
        self._calls += 1
        if self._calls > 1:
            self._tracer.counts["refine_rounds"] += 1
        return self._solve(rhs, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def setup_layers(tracer: Tracer) -> dict:
    """Layer seconds of one traced set-up."""
    incl, own, _ = tracer.totals()
    return {"mesh.build_s": incl["mesh.build"],
            "discretize.topology_s": incl["discretize.build_topology"],
            "scenarios.setup_self_s": own[SETUP]}


def loop_layers(tracer: Tracer, steps: int) -> tuple:
    """Layer times and counts of one traced time loop of ``steps``
    operations, the counts that must repeat exactly between two such
    loops, and the self time of every span in ms per operation, largest
    first."""
    incl, own, calls = tracer.totals()
    counts = tracer.counts
    per_step = 1e3 / steps
    factorizations = calls["linsolve.splu"]
    snapshots = calls["output.write_vtk_snapshot"]
    times = {
        "linsolve.factor_ms": incl["linsolve.splu"] * per_step,
        "linsolve.trisolve_ms": incl["linsolve.lu_solve"] * per_step,
        "linsolve.assemble_ms": incl["linsolve.assemble_arrays"] * per_step,
        "linsolve.solve_self_ms": own["linsolve.solve"] * per_step,
        "physics.flow_ms": incl["physics.darcy_step"] * per_step,
        "physics.heat_ms": incl["physics.heat_step"] * per_step,
        "physics.solute_ms": incl["physics.solute_ad_step"] * per_step,
        "physics.assembly_self_ms":
            sum(own[name] for name in PHYSICS_SPANS) * per_step,
        "discretize.transmissibility_ms":
            (incl["discretize.transmissibilities"]
             + incl["discretize.boundary_transmissibilities"]) * per_step,
        "chemistry.react_ms": incl["chemistry.react_cell"] * per_step,
        "splitting.step_self_ms": own["splitting.advance_step"] * per_step,
        "splitting.reference_ms":
            incl["splitting.monolithic_linear_run"] * per_step,
        "output.vtk_ms":
            1e3 * incl["output.write_vtk_snapshot"] / max(snapshots, 1),
        "output.balance_ms": incl["output.balance_write"] * per_step,
    }
    repeat = {**calls, **counts}
    counted = {
        "linsolve.lu_nnz": counts["lu_nnz"] / max(factorizations, 1),
        "linsolve.matrix_nnz": counts["matrix_nnz"] / max(factorizations, 1),
        "linsolve.factorizations_per_step": factorizations / steps,
        "linsolve.solves_per_step": calls["linsolve.solve"] / steps,
        "linsolve.refine_rounds": counts["refine_rounds"],
        "linsolve.fallback_accepts": counts["fallback_accepts"],
        "chemistry.events": counts["reaction_events"],
        "constitutive.clamp_events": counts["clamp_events"],
        "output.vtk_mb": counts["vtk_bytes"] / 1e6 / max(snapshots, 1),
    }
    self_times = sorted(((name, t * per_step) for name, t in own.items()
                         if name != CHECK), key=lambda row: -row[1])
    return times, counted, repeat, self_times


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
