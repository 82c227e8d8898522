"""Time-loop orchestration: rescaling algebra, the
single-step update, mass audit, determinism and the splitting-error
machinery."""

import numpy as np
import pytest

from fracreact.chemistry import ReactionParams
from fracreact.constitutive import PhysParams
from fracreact.discretize import build_topology
from fracreact.errors import FracReactError
from fracreact.mesh import build_interval_mesh
from fracreact.physics import (DIRICHLET, OUTFLOW, PRESSURE, SegmentBC,
                               darcy_step, solute_ad_step)
from fracreact.scenarios import (get_scenario, make_eta, make_state,
                                 splitting_problem_factory)
from fracreact.splitting import (Problem, StepReport, TimeGrid, advance_step,
                                 convergence_order, monolithic_linear_run,
                                 rescale_for_pore_change, run,
                                 splitting_error_study, total_mass)


class TestTimeGrid:
    def test_dt_and_times(self):
        grid = TimeGrid(1.0, 4)
        assert grid.dt == pytest.approx(0.25)
        np.testing.assert_allclose(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)


class TestStepReport:
    def test_nonfinite_rejected(self):
        with pytest.raises(FracReactError):
            StepReport(step=1, time=0.1, mass_u=np.nan, mass_w=0.0,
                       influx=0.0, outflux=0.0, delta_m=0.0)


class TestAlgebra:
    def test_rescale_identity(self):
        assert rescale_for_pore_change(0.3, 0.2, 0.2) == pytest.approx(0.3)

    def test_rescale_known_value(self):
        assert rescale_for_pore_change(0.3, 0.2, 0.25) == pytest.approx(0.24)

    def test_rescale_preserves_inventory(self):
        old, new = 0.2, 0.17
        w = 0.45
        assert rescale_for_pore_change(w, old, new) * new == pytest.approx(
            w * old, rel=1e-15)

    def test_rescale_composition_telescopes(self):
        # forward to the predicted volume, back to the corrected one
        w = 0.31
        phi_n, phi_star, phi_new = 0.2, 0.23, 0.23
        half = rescale_for_pore_change(w, phi_n, phi_star)
        back = rescale_for_pore_change(half, phi_star, phi_new)
        assert back == pytest.approx(w * phi_n / phi_new, rel=1e-15)

    def test_rescale_rejects_nonpositive(self):
        with pytest.raises(FracReactError):
            rescale_for_pore_change(0.3, 0.0, 0.2)


def _simple_problem(lambda0=1.0, u0=None, w0=0.5, u_bc=0.0, num_steps=10):
    mesh = build_interval_mesh(1.0, 30)
    top = build_topology(mesh)
    params = PhysParams(d=0.02, eta_omega=1.0)
    reaction = ReactionParams(lambda0=lambda0, act=0.0, u_e=1.0,
                              rate_power=2.0)
    state = make_state(top, params, w=w0)
    x = mesh.cell_centroids[:, 0]
    if u0 is None:
        state.u[:] = np.where((x > 0.3) & (x < 0.7), 2.0, 0.0)
    else:
        state.u[:] = u0
    bc = {
        "left": SegmentBC(flow=(PRESSURE, 1.0), solute=(DIRICHLET, u_bc)),
        "right": SegmentBC(flow=(PRESSURE, 0.0), solute=(OUTFLOW, 0.0)),
    }
    return Problem(top=top, state0=state, grid=TimeGrid(0.05, num_steps),
                   params=params, reaction=reaction, bc=bc,
                   eta=make_eta(top, params), solve_heat=False)


class TestAdvanceStep:
    def test_zero_chemistry_reduces_to_transport(self):
        problem = _simple_problem(lambda0=0.0)
        state0 = problem.state0
        dt = problem.grid.dt
        new, report = advance_step(problem, state0.copy(), dt, dt)
        # precipitate and pore fractions untouched
        np.testing.assert_array_equal(new.w, state0.w)
        np.testing.assert_array_equal(new.pore, state0.pore)
        assert report.event_count == 0
        # the solute equals a direct advection-diffusion solve bit-for-bit
        p, conn, bnd = darcy_step(problem.top, state0.pore, state0.pore,
                                  problem.params, problem.bc, dt, dt)
        u_direct, _ = solute_ad_step(problem.top, state0, conn, bnd,
                                     state0.pore, state0.pore,
                                     problem.params, problem.bc, dt, dt)
        assert np.array_equal(new.u, u_direct)
        assert np.array_equal(new.p, p)

    def test_equilibrium_fixed_point(self):
        problem = _simple_problem(u0=1.0, w0=0.4, u_bc=1.0)
        dt = problem.grid.dt
        new, report = advance_step(problem, problem.state0.copy(), dt, dt)
        np.testing.assert_allclose(new.u, 1.0, atol=1e-10)
        np.testing.assert_allclose(new.w, 0.4, atol=1e-10)
        np.testing.assert_allclose(new.pore, problem.state0.pore, atol=1e-10)
        assert abs(report.delta_m) < 1e-12

    def test_mass_audit_machine_precision(self):
        problem = _simple_problem()
        _, reports = run(problem)
        m0 = reports[0].mass_u + reports[0].mass_w
        for rep in reports[1:]:
            assert abs(rep.delta_m) <= 1e-13 * m0

    def test_precipitation_consumes_solute(self):
        problem = _simple_problem(num_steps=5)
        state, reports = run(problem)
        assert reports[-1].mass_w > reports[0].mass_w
        assert np.all(state.w >= 0.0)
        # deposition closed the pores where precipitate accumulated,
        # dissolution opened them where it was consumed
        grew = state.w > problem.state0.w
        assert np.all(state.pore[grew] <= problem.state0.pore[grew] + 1e-15)
        assert np.all(state.pore[~grew] >= problem.state0.pore[~grew] - 1e-15)

    def test_annotated_subsolver_error(self):
        problem = _simple_problem()
        bad_bc = {"left": SegmentBC(flow=(PRESSURE, 1.0),
                                    solute=(DIRICHLET, 0.0))}
        problem = Problem(**{**problem.__dict__, "bc": bad_bc})
        with pytest.raises(FracReactError, match="scheme step"):
            advance_step(problem, problem.state0.copy(),
                         problem.grid.dt, problem.grid.dt)


class TestRun:
    def test_single_step_equals_advance(self):
        problem = _simple_problem(num_steps=1)
        state_run, reports = run(problem)
        state_one, _ = advance_step(problem, problem.state0.copy(),
                                    problem.grid.dt, problem.grid.dt)
        for field in ("p", "theta", "u", "w", "pore"):
            assert np.array_equal(getattr(state_run, field),
                                  getattr(state_one, field))
        assert [r.step for r in reports] == [0, 1]

    def test_sink_called_every_step(self):
        problem = _simple_problem(num_steps=4)
        seen = []
        run(problem, sinks=[lambda step, t, state, rep: seen.append(step)])
        assert seen == [0, 1, 2, 3, 4]

    def test_deterministic_rerun(self):
        a, _ = run(_simple_problem())
        b, _ = run(_simple_problem())
        for field in ("p", "u", "w", "pore"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_initial_report_masses(self):
        problem = _simple_problem()
        _, reports = run(problem)
        lay = problem.top.layout
        assert reports[0].delta_m == 0.0
        assert reports[0].mass_u == pytest.approx(
            total_mass(lay, problem.state0.pore, problem.state0.u))


class TestSplittingStudy:
    def test_monolithic_requires_linear_rate(self):
        problem = _simple_problem()
        with pytest.raises(FracReactError):
            monolithic_linear_run(problem)

    def test_monolithic_requires_prescribed_flux(self):
        factory = splitting_problem_factory(1.0)
        problem = factory(10)
        problem = Problem(**{**problem.__dict__, "prescribed": None,
                             "solve_flow": True})
        with pytest.raises(FracReactError):
            monolithic_linear_run(problem)

    def test_no_reaction_no_splitting_error(self):
        base = splitting_problem_factory(1.0)

        def factory(n):
            problem = base(n)
            return Problem(**{**problem.__dict__,
                              "reaction": ReactionParams(
                                  lambda0=0.0, act=0.0, u_e=1.0,
                                  rate_power=1.0)})

        rows = splitting_error_study(factory, [10, 20])
        for row in rows:
            assert row["error"] <= 1e-10

    def test_error_decays_linearly(self):
        rows = splitting_error_study(splitting_problem_factory(1.0),
                                     [50, 100, 200])
        errs = [r["error"] for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert convergence_order(rows) > 0.8

    def test_convergence_order_synthetic(self):
        rows = [{"dt": 0.1, "error": 0.02}, {"dt": 0.05, "error": 0.01},
                {"dt": 0.025, "error": 0.005}]
        assert convergence_order(rows) == pytest.approx(1.0, abs=1e-12)


def test_pulse_scenario_monotone_outflow_decline_then_washout():
    scenario = get_scenario("test1d_pulse")
    state, reports = run(scenario.problem)
    # all solute either left the domain or precipitated; none was created
    m0 = reports[0].mass_u + reports[0].mass_w
    mT = reports[-1].mass_u + reports[-1].mass_w
    lost = sum(r.outflux - r.influx for r in reports) * scenario.problem.grid.dt
    assert mT - m0 + lost == pytest.approx(0.0, abs=1e-12 * m0)
    assert np.all(state.w >= 0.0)
