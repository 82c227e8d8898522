"""Time-loop orchestration: rescaling algebra, the
single-step update, mass audit, determinism and the splitting-error
machinery."""

from dataclasses import replace

import numpy as np
import pytest

from fracreact.chemistry import ReactionParams, react_cell
from fracreact.constitutive import PhysParams
from fracreact.discretize import build_topology
from fracreact.errors import FracReactError
from fracreact.mesh import build_interval_mesh
from fracreact.physics import (DIRICHLET, OUTFLOW, PRESSURE, Operator,
                               SegmentBC, darcy_step, solute_ad_step,
                               solute_coefficients, transport_step)
from fracreact.scenarios import (get_scenario, list_scenarios, make_eta,
                                 make_state, splitting_problem_factory)
from fracreact.splitting import (Problem, StepReport, TimeGrid, _predict_pore,
                                 advance_step, convergence_order,
                                 monolithic_linear_run,
                                 rescale_for_pore_change, run,
                                 splitting_error_study, total_mass)


class TestTimeGrid:
    def test_dt_and_times(self):
        grid = TimeGrid(1.0, 4)
        assert grid.dt == pytest.approx(0.25)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize("t_end, num_steps", [
        (np.nan, 4), (np.inf, 4), (1.0, np.inf), (1.0, np.nan)])
    def test_non_finite_rejected(self, t_end, num_steps):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(t_end, num_steps)

    @pytest.mark.parametrize("num_steps", [2.5, 4.0, "4"])
    def test_non_integral_step_count_rejected(self, num_steps):
        # range() in run() would fail on it after the set-up
        with pytest.raises(ValueError, match="integer"):
            TimeGrid(1.0, num_steps)

    def test_numpy_integer_step_count(self):
        problem = _simple_problem(num_steps=np.int64(3))
        assert problem.grid.dt == pytest.approx(0.05 / 3)
        _, reports = run(problem)
        assert [r.step for r in reports] == [0, 1, 2, 3]


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

    @pytest.mark.parametrize("old, new", [([0.5, np.nan], [0.5, 0.4]),
                                          ([0.5, 0.4], [np.nan, 0.4])])
    def test_rescale_rejects_nan_fraction(self, old, new):
        with pytest.raises(FracReactError, match="must be positive"):
            rescale_for_pore_change([1.0, 2.0], old, new)

    def test_rescale_stacked_fields_match_one_by_one(self):
        rng = np.random.default_rng(2)
        u, w = rng.uniform(0.0, 1.0, (2, 6))
        old = rng.uniform(0.1, 0.3, 6)
        new = old.copy()
        new[::2] *= 1.1
        got = rescale_for_pore_change((u, w), old, new)
        for g, value in zip(got, (u, w)):
            assert np.array_equal(g, rescale_for_pore_change(value, old, new))


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
                   eta=make_eta(top, params))


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
        p, conn, bnd = darcy_step(Operator(problem.top, problem.bc, "flow"),
                                  state0.pore, state0.pore, problem.params, dt)
        u_direct, _ = solute_ad_step(
            Operator(problem.top, problem.bc, "solute"), state0, conn, bnd,
            state0.pore, state0.pore, problem.params, dt)
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

    def test_non_finite_solute_source_names_its_phase(self):
        problem = splitting_problem_factory(1.0)(10)
        source = np.zeros(problem.top.layout.ndof)
        source[20] = np.nan
        problem = replace(problem, solute_source=source)
        with pytest.raises(FracReactError) as info:
            advance_step(problem, problem.state0.copy(),
                         problem.grid.dt, problem.grid.dt)
        assert str(info.value) == ("scheme step 6 (solute): non-finite "
                                   "entries in linear system")


def _assert_untouched(args, call):
    """``call()`` leaves every array in ``args`` bit-equal."""
    before = [a.copy() for a in args]
    call()
    for i, (a, b) in enumerate(zip(args, before)):
        assert a.tobytes() == b.tobytes(), f"argument {i} was written"


class TestInputsLeftAlone:
    """The step functions read their array arguments and never write
    them: the caller's state and the Operator's kept inputs rely on it."""

    @pytest.fixture(scope="class")
    def case(self):
        problem = get_scenario("multi_fracture_injection").problem
        s = problem.state0
        n = len(s.u)
        rng = np.random.default_rng(7)
        # under- and supersaturated cells, some with little precipitate,
        # so that reactions, clips and w = 0 crossings all occur
        u = rng.uniform(0.0, 2.0, n)
        w = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1e-3, n),
                     rng.uniform(0.0, 2.0, n))
        w[::7] = 0.0
        pore = s.pore * rng.uniform(0.5, 1.5, n)
        return problem, u, w, pore, rng.uniform(-0.1, 0.1, n)

    @pytest.mark.parametrize("scheme", ["explicit-euler", "heun"])
    def test_react_cell(self, case, scheme):
        _, u, w, _, _ = case
        theta = np.linspace(0.5, 2.0, len(u))
        rp = ReactionParams(lambda0=50.0, act=0.5)
        _assert_untouched((u, w, theta), lambda: react_cell(
            u, w, theta, 0.1, rp, scheme=scheme))

    def test_rescale_total_mass_and_predict(self, case):
        problem, u, w, pore, dw = case
        lay = problem.top.layout
        eta = problem.eta
        _assert_untouched((u, w, pore, problem.state0.pore), lambda: (
            rescale_for_pore_change(w, problem.state0.pore, pore),
            rescale_for_pore_change((u, w), pore, problem.state0.pore)))
        _assert_untouched((pore, u, lay.measure),
                          lambda: total_mass(lay, pore, u))
        _assert_untouched((pore, dw, eta), lambda: _predict_pore(pore, dw, eta))

    def test_transport_step(self, case):
        problem, u, _, pore, dw = case
        params, dt = problem.params, problem.grid.dt
        op = Operator(problem.top, problem.bc, "solute")
        t_conn, t_bnd = op.transmissibilities_at(solute_coefficients, pore,
                                                 params)
        _, conn_flux, bnd_flux = darcy_step(
            Operator(problem.top, problem.bc, "flow"), pore, pore, params, dt)
        measure = problem.top.layout.measure
        args = (t_conn, t_bnd, pore * measure, problem.state0.pore * measure,
                u, conn_flux, bnd_flux, dw)
        # a new solve, its first repeat (factor kept) and a later repeat
        for _ in range(3):
            _assert_untouched(args, lambda: transport_step(
                op, *args[:7], 1.0, dt, source=args[7]))
        assert op.lu is not None


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
        problem = Problem(**{**problem.__dict__, "prescribed": None})
        with pytest.raises(FracReactError):
            monolithic_linear_run(problem)

    def test_monolithic_precipitate_exhausted(self):
        problem = splitting_problem_factory(1.0)(10)
        problem.state0.w[:] = 0.1     # dissolves 0.216 over the run
        with pytest.raises(FracReactError, match="precipitate hit zero"):
            monolithic_linear_run(problem)

    def test_monolithic_solute_source_matches_split_run(self):
        # with no reaction the split run and the reference solve the same
        # transport equation, so they agree only if both add the source
        base = splitting_problem_factory(1.0)
        source = np.zeros(base(10).top.layout.ndof)
        source[20] = 5.0

        def factory(n):
            problem = base(n)
            return Problem(**{**problem.__dict__, "solute_source": source,
                              "reaction": ReactionParams(
                                  lambda0=0.0, act=0.0, u_e=1.0,
                                  rate_power=1.0)})

        problem = factory(10)
        assert np.max(run(problem)[0].u - problem.state0.u) > 1.0
        for row in splitting_error_study(factory, [10, 20]):
            assert row["error"] <= 1e-10

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


@pytest.mark.parametrize("name", sorted(list_scenarios()))
def test_balance_fluxes_are_never_negative_zero(name):
    # a step without inflow reports +0.0, which the balance CSV prints as
    # "0", never "-0"
    scenario = get_scenario(name)
    dt = scenario.problem.grid.dt
    _, reports = run(scenario.with_grid(TimeGrid(2 * dt, 2)).problem)
    for report in reports:
        assert not np.signbit(report.influx), report
        assert not np.signbit(report.outflux), report
