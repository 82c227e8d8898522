"""The benchmark's workloads and the per-operation checks.

A workload builds its case in ``setup`` (timed as ``setup_s``), runs its
whole time loop in ``loop`` (timed as ``run_s``) and checks the loop's
outputs in ``verify`` (untimed). One operation is one time step; the
:class:`OpRecorder` times every operation and checks the state it left.

The workloads have no random input: each is a fixed scenario of the
program, so two runs of the same code do the same arithmetic.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from time import perf_counter

import numpy as np

from fracreact import scenarios, splitting
from fracreact.chemistry import ReactionParams
from fracreact.cli import STUDY_DAMKOHLER
from fracreact.constitutive import PhysParams
from fracreact.output import OutputWriter, read_balance
from fracreact.physics import DIRICHLET, OUTFLOW, PRESSURE, SegmentBC

# |delta_m| of a step may not exceed this share of the largest total mass
# (mass_u + mass_w) seen so far in the run. The largest mass, not the
# final one: wash-out runs end near 1e-21 total mass.
AUDIT_REL = 1e-12

# Outputs must match the seed commit's to this relative tolerance. A
# change of LU ordering alone moves them by about 1e-13.
EXPECTED_REL = 1e-8

STUDY_STEPS = (50, 100, 200)     # `fracreact study splitting-error` default


def state_faults(state, report, layout, max_mass) -> list[str]:
    """Reasons why the state after one step is wrong (empty if none)."""
    faults = []
    for name in ("p", "theta", "u", "w", "pore"):
        if not np.all(np.isfinite(getattr(state, name))):
            faults.append(f"non-finite {name}")
    if abs(report.delta_m) > AUDIT_REL * max_mass:
        faults.append(f"mass audit |delta_m| = {abs(report.delta_m):.3e} "
                      f"> {AUDIT_REL:g} x {max_mass:.6e}")
    if np.any(state.w < 0):
        faults.append(f"w < 0 at dof {int(np.argmin(state.w))}")
    pore = state.pore
    bulk = layout.is_bulk
    if np.any((pore[bulk] <= 0) | (pore[bulk] > 1)):
        faults.append("bulk porosity outside (0, 1]")
    if np.any(pore[~bulk] <= 0):
        faults.append("fracture or intersection pore fraction <= 0")
    return faults


class OpRecorder:
    """Times operations and counts the attempted and failed ones.

    Time spent checking is summed in ``check_s`` so the caller can take
    it out of the loop time.
    """

    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.messages: list[str] = []
        self._max_mass = 0.0
        self._problem = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def _check(self, label, state, report, layout) -> None:
        self.attempted += 1
        self._max_mass = max(self._max_mass, report.mass_u + report.mass_w)
        faults = state_faults(state, report, layout, self._max_mass)
        if faults:
            self.fail(f"{label}: " + "; ".join(faults))

    def sink(self, problem):
        """Run sink, placed after the program's sinks: an operation is
        one ``advance_step`` plus the sinks before this one."""
        layout = problem.top.layout
        mark = perf_counter()

        def record(step, time, state, report):
            nonlocal mark
            t = perf_counter()
            if step == 0:
                self._max_mass = report.mass_u + report.mass_w
            else:
                self.times.append(t - mark)
                self._check(f"step {step}", state, report, layout)
            mark = perf_counter()
            self.check_s += mark - t
        return record

    def timed_step(self, advance_step):
        """``advance_step`` timed and checked as one operation."""
        def step(problem, state, dt, t_new):
            t0 = perf_counter()
            state_next, report = advance_step(problem, state, dt, t_new)
            t1 = perf_counter()
            self.times.append(t1 - t0)
            if problem is not self._problem:
                self._problem = problem
                first = splitting.initial_report(problem)
                self._max_mass = first.mass_u + first.mass_w
            self._check(f"split step t={t_new:g}", state_next, report,
                        problem.top.layout)
            self.check_s += perf_counter() - t1
            return state_next, report
        return step

    def timed_reference(self, transport_step):
        """One monolithic reference step (its transport solve) timed and
        checked as one operation."""
        def step(*args, **kwargs):
            t0 = perf_counter()
            x, bnd = transport_step(*args, **kwargs)
            t1 = perf_counter()
            self.times.append(t1 - t0)
            self.attempted += 1
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(bnd))):
                self.fail("reference step: non-finite solute field")
            self.check_s += perf_counter() - t1
            return x, bnd
        return step


def _state_signature(state, layout) -> tuple:
    """Final solute and precipitate mass, summed temperature, pore volume
    and bulk pressure. Fracture pressures are left out: clogged
    fractures decouple and their pressure is then ill-determined."""
    volume = state.pore * layout.measure
    return (float(np.sum(volume * state.u)), float(np.sum(volume * state.w)),
            float(np.sum(state.theta)), float(np.sum(volume)),
            float(np.sum(state.p[layout.is_bulk])))


def signature_faults(got, expected) -> list[str]:
    faults = []
    for i, (g, e) in enumerate(zip(got, expected)):
        if not abs(g - e) <= EXPECTED_REL * abs(e):
            faults.append(f"output {i} = {g!r}, expected {e!r}")
    if len(got) != len(expected):
        faults.append(f"{len(got)} outputs, expected {len(expected)}")
    return faults


class Workload:
    """A fixed scenario: ``setup`` builds it, ``loop`` runs it."""

    name = ""
    # outputs at the seed commit: the final state's _state_signature, or
    # the study's max-norm errors
    expected: tuple = ()

    def setup(self):
        raise NotImplementedError

    def loop(self, case, rec: OpRecorder):
        raise NotImplementedError

    def verify(self, case, outcome, rec: OpRecorder) -> tuple:
        """Check ``outcome`` beyond the per-step checks; return the
        values compared against ``expected``."""
        state, _ = outcome
        return _state_signature(state, case.problem.top.layout)

    def close(self) -> None:
        pass


class RunWorkload(Workload):
    """A scenario run with ``splitting.run``; the recorder is its last sink."""

    def loop(self, case, rec):
        return splitting.run(case.problem, sinks=[rec.sink(case.problem)])


class Fracture80(RunWorkload):
    """`single_fracture_injection` as shipped, written out as `fracreact
    run` does: balance CSV every step, VTK every 10 steps."""

    name = "fracture_80"
    expected = (0.07784456666401358, 0.3706331407966304, 8918.665485311825,
                0.051294779999820385, 1300.0827712589246)

    def __init__(self, scratch_dir):
        self.scratch_dir = scratch_dir
        self.out_dir = None

    def setup(self):
        return scenarios.get_scenario("single_fracture_injection")

    def loop(self, case, rec):
        self.out_dir = tempfile.mkdtemp(dir=self.scratch_dir)
        writer = OutputWriter(self.out_dir, case)
        try:
            return splitting.run(case.problem,
                                 sinks=[writer, rec.sink(case.problem)])
        finally:
            writer.close()

    def verify(self, case, outcome, rec):
        _, reports = outcome
        try:
            rows = read_balance(os.path.join(self.out_dir,
                                             f"{case.name}_balance.csv"))
            written = [tuple(row.values()) for row in rows]
            wanted = [(r.step, r.time, r.mass_u, r.mass_w, r.influx,
                       r.outflux, r.delta_m) for r in reports]
            if written != wanted:
                rec.fail("balance CSV does not round-trip the step reports")
            steps = case.problem.grid.num_steps
            snapshots = len(set(range(0, steps + 1, case.output_every))
                            | {steps})
            mesh = case.mesh
            per_snapshot = 1 + len(mesh.fractures) + bool(mesh.intersections)
            vtk = [f for f in os.listdir(self.out_dir) if f.endswith(".vtk")]
            if len(vtk) != snapshots * per_snapshot:
                rec.fail(f"{len(vtk)} VTK files, expected "
                         f"{snapshots * per_snapshot}")
        finally:
            self.close()
        return super().verify(case, outcome, rec)

    def close(self):
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)
            self.out_dir = None


class NetworkClogging(RunWorkload):
    """`multi_fracture_injection` at its shipped dt, continued to t = 25."""

    name = "network_clogging"
    expected = (0.0163212212330358, 0.5238897656708499, 777.4984546048195,
                0.016307850923008176, 55.2991913407804)

    def setup(self):
        scenario = scenarios.get_scenario("multi_fracture_injection")
        dt = scenario.problem.grid.dt
        return scenario.with_grid(splitting.TimeGrid(500 * dt, 500))


class Fracture320(RunWorkload):
    """The `single_fracture_injection` geometry and data on a 320 x 320
    grid, three steps at the shipped dt."""

    name = "fracture_320"
    n = 320
    num_steps = 3
    expected = (0.3098092171110745, 0.07453562727747434, 117283.40035543524,
                0.20973165922296488, 51449.57171298864)

    def setup(self):
        poly = scenarios.staircase_polyline((0.1, 0.0), (0.9, 0.8), 1.0 / self.n)
        mesh = scenarios.build_structured_2d(self.n, self.n, fractures=[poly])
        top = scenarios.build_topology(mesh)
        params = PhysParams()
        state = scenarios.make_state(top, params, w=0.3)
        dt = 3.0 / 60                  # the shipped scenario's step
        bc = {"bottom": SegmentBC(flow=(PRESSURE, 1.0), heat=(DIRICHLET, 1.5),
                                  solute=(DIRICHLET, 2.0)),
              "top": SegmentBC(flow=(PRESSURE, 0.0), heat=(OUTFLOW, 0.0),
                               solute=(OUTFLOW, 0.0)),
              "left": SegmentBC(), "right": SegmentBC()}
        problem = splitting.Problem(
            top=top, state0=state,
            grid=splitting.TimeGrid(self.num_steps * dt, self.num_steps),
            params=params, reaction=ReactionParams(), bc=bc,
            eta=scenarios.make_eta(top, params))
        return scenarios.Scenario(name="fracture_320", description="",
                                  mesh=mesh, problem=problem)


class SplittingStudy(Workload):
    """`fracreact study splitting-error` with its defaults."""

    name = "splitting_study"
    expected = (0.00431572662710893, 0.0021578633135543213,
                0.001078931656777128, 0.010112228073690721,
                0.00543748806933686, 0.0028315892324459746,
                0.003926036598531836, 0.001964333859624079,
                0.0009824914003827775, 0.003519253807323597,
                0.001761044399450809, 0.0008808718093192558)

    def setup(self):
        return [scenarios.splitting_problem_factory(da)
                for da in STUDY_DAMKOHLER]

    def loop(self, case, rec):
        advance_step = splitting.advance_step
        transport_step = splitting.transport_step
        splitting.advance_step = rec.timed_step(advance_step)
        splitting.transport_step = rec.timed_reference(transport_step)
        try:
            tables = []
            for factory in case:
                rows = splitting.splitting_error_study(factory, STUDY_STEPS)
                tables.append((rows, splitting.convergence_order(rows)))
            return tables
        finally:
            splitting.advance_step = advance_step
            splitting.transport_step = transport_step

    def verify(self, case, outcome, rec):
        errors = []
        for rows, order in outcome:
            for row in rows:
                if not math.isfinite(row["error"]):
                    rec.fail(f"study row N={row['num_steps']}: non-finite error")
                errors.append(row["error"])
            if not math.isfinite(order):
                rec.fail("study: non-finite convergence order")
        return tuple(errors)


def make(name: str, scratch_dir: str) -> Workload:
    if name == "fracture_80":
        return Fracture80(scratch_dir)
    return {"network_clogging": NetworkClogging,
            "splitting_study": SplittingStudy,
            "fracture_320": Fracture320}[name]()
