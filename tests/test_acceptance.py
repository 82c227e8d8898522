"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Each test records a ``criterion N: PASS/FAIL - detail`` line; the
terminal-summary hook in conftest.py replays all recorded lines at the
end of the run so the verdicts are visible in any capture mode.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fracreact import splitting
from fracreact.chemistry import ReactionParams, lambda_minus, react_cell
from fracreact.constitutive import EPS_MIN, PhysParams
from fracreact.discretize import COUPLING, build_topology
from fracreact.mesh import build_structured_2d
from fracreact.physics import PRESSURE, Operator, SegmentBC, darcy_step
from fracreact.scenarios import (_point_source_problem, get_scenario,
                                 list_scenarios, make_state,
                                 splitting_problem_factory)
from fracreact.splitting import (TimeGrid, convergence_order, run,
                                 splitting_error_study)
from oracles import assemble_mixed_divergence, locate_crossing

VERDICTS: list[str] = []


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_mass_conservation_pulse():
    t0 = time.perf_counter()
    scenario = get_scenario("test1d_pulse")
    _, reports = run(scenario.problem)
    elapsed = time.perf_counter() - t0
    m0 = reports[0].mass_u + reports[0].mass_w
    worst = max(abs(r.delta_m) for r in reports)
    bound = 1e-10 * m0
    ok = len(reports) == 61 and worst <= bound and elapsed < 5.0
    _verdict(1, ok, f"max |mass defect| {worst:.2e} (bound {bound:.2e}) "
                    f"over 60 steps, {elapsed:.2f} s")


def test_criterion_2_splitting_error_order():
    """Lie splitting (implicit upwind transport, then the reaction step) is
    first order in dt against the monolithic reference, at low and at
    high Courant number.

    At Da = 10 and 100 the fitted order must be at least 0.8.

    At Da = 0.1 the flux is q = phi0/Da, so the pore-velocity Courant
    number is C = q*dt/(phi0*dx) = dt/(Da*dx), 4.32/2.16/1.08 for
    N = 50/100/200. Implicit upwind has no CFL limit, so the order does
    not drop there. The pulse has left the column by T, and the error is
    set by the Dirichlet inflow u = 0, where reaction and transport do not
    commute. With u_e = 1 and the linear rate, the inflow cell updates as
        split:      u <- lam*dt + (1 - lam*dt) * u / (1 + C)
        monolithic: u <- (u + lam*dt) / (1 + C + lam*dt)
    with fixed points lam*dt*(1 + C)/(C + lam*dt) and lam*dt/(C + lam*dt).
    Their difference is lam*dt*C/(C + lam*dt) = lam*dt/(1 + lam*Da*dx):
    first order at every C, and carried downstream through the column
    (Valocchi & Malmstead, Water Resour. Res., 1992). So for each N the
    max-norm error must match that closed form within 1%, and the fitted
    order must be at least 0.8.
    """
    t0 = time.perf_counter()
    n_list = [50, 100, 200]
    rows, orders = {}, {}
    for da in (0.1, 10.0, 100.0):
        rows[da] = splitting_error_study(splitting_problem_factory(da), n_list)
        orders[da] = convergence_order(rows[da])
    elapsed = time.perf_counter() - t0
    low_courant_ok = orders[10.0] >= 0.8 and orders[100.0] >= 0.8
    # high Courant number: inflow-boundary splitting error in closed form
    da = 0.1
    problem = splitting_problem_factory(da)(n_list[0])
    lam = float(np.max(lambda_minus(problem.state0.theta, problem.reaction)))
    dx = float(np.max(problem.top.layout.measure))
    q = float(np.max(np.abs(problem.prescribed[0])))
    courants = [q * r["dt"] / (problem.params.phi0 * dx) for r in rows[da]]
    ratios = [r["error"] * (1.0 + lam * da * dx) / (lam * r["dt"])
              for r in rows[da]]
    closed_form_ok = all(abs(x - 1.0) <= 0.01 for x in ratios)
    high_courant_ok = closed_form_ok and orders[da] >= 0.8
    ok = low_courant_ok and high_courant_ok and elapsed < 30.0
    _verdict(2, ok, f"orders: Da=10 {orders[10.0]:.2f}, "
                    f"Da=100 {orders[100.0]:.2f} (need >= 0.8); "
                    "Da=0.1 at Courant "
                    + "/".join(f"{c:.2f}" for c in courants)
                    + f": order {orders[da]:.2f} (need >= 0.8), "
                      "error*(1+lam*Da*dx)/(lam*dt) "
                    + "/".join(f"{x:.4f}" for x in ratios)
                    + f" (need 1 +- 0.01); {elapsed:.1f} s")


def test_criterion_3_damkohler_localisation():
    t0 = time.perf_counter()
    da_values = (0.006, 0.066, 0.662, 6.62)
    cvs, footprints = [], []
    for da in da_values:
        _, precip = _point_source_problem(da, u_in=2.0, w0=0.0,
                                          grid=TimeGrid(2.0, 50))
        state, _ = run(precip)
        cvs.append(float(state.w.std() / state.w.mean()))
        _, dissolve = _point_source_problem(da, u_in=0.0, w0=2.0,
                                            grid=TimeGrid(8.0, 64))
        state, _ = run(dissolve)
        footprints.append(float(np.mean(state.w < 1.0)))   # below half of w0=2
    elapsed = time.perf_counter() - t0
    cv_increasing = all(b > a for a, b in zip(cvs, cvs[1:]))
    foot_shrinking = (all(b <= a for a, b in zip(footprints, footprints[1:]))
                      and footprints[-1] < footprints[0])
    ok = cv_increasing and foot_shrinking and elapsed < 30.0
    _verdict(3, ok,
             "precipitate CV " + "/".join(f"{v:.3f}" for v in cvs)
             + " strictly increasing; dissolution footprint "
             + "/".join(f"{v:.3f}" for v in footprints)
             + f" shrinking; {elapsed:.1f} s")


def test_criterion_4_equilibrium_and_sliding():
    rp = ReactionParams(lambda0=1.0, act=0.0, u_e=1.0, rate_power=2.0)
    tol = 1e-14
    # (a) the equilibrium concentration is a fixed point for all w, theta
    fixed = True
    for scheme in ("explicit-euler", "heun"):
        for w in (0.0, 0.3, 2.0):
            for theta in (0.5, 1.0, 1.5):
                u2, w2, _ = react_cell(rp.u_e, w, theta, 0.25, rp,
                                       scheme=scheme)
                fixed &= abs(u2 - rp.u_e) <= tol and abs(w2 - w) <= tol
    # (b) linear dissolution of w0 at unit rate crosses w = 0 at xi = 0.5
    w0, rate = 0.25, -1.0          # u = 0 -> net rate is exactly -lambda
    dt = 2.0 * w0 / -rate
    xi = locate_crossing(w0, rate, dt)
    u_after, w_after, events = react_cell(0.0, w0, 1.0, dt, rp)
    crossing_ok = (abs(xi - 0.5) <= tol and w_after == 0.0
                   and events == 1 and abs(u_after - w0) <= tol)
    # (c) after the crossing the state slides on w = 0 while u < u_e
    sliding_ok = True
    u, w = u_after, w_after
    for _ in range(8):
        u, w, n = react_cell(u, w, 1.0, dt, rp)
        sliding_ok &= w == 0.0 and n == 0 and u < rp.u_e
    ok = fixed and crossing_ok and sliding_ok
    _verdict(4, ok, f"equilibrium fixed point {fixed}, "
                    f"crossing at xi={xi:.15f}, sliding stays at w=0: "
                    f"{sliding_ok}")


def test_criterion_5_single_fracture_clogging(monkeypatch):
    t0 = time.perf_counter()
    scenario = get_scenario("single_fracture_injection")
    top = scenario.problem.top
    lay = top.layout
    cpl = np.nonzero(top.kind == COUPLING)[0]
    pairs = {}
    for k in cpl:
        bulk = top.ci[k] if lay.is_bulk[top.ci[k]] else top.cj[k]
        pairs.setdefault(int(top.low_dof[k]), []).append(int(bulk))
    two_sided = [cells for cells in pairs.values() if len(cells) == 2]

    apertures, outflows, jumps = [], [], []

    def outflow_of(*args):
        p, conn_flux, bnd_flux = darcy_step(*args)
        outflows.append(float(np.sum(np.maximum(bnd_flux, 0.0))))
        return p, conn_flux, bnd_flux

    monkeypatch.setattr(splitting, "darcy_step", outflow_of)

    def sink(step, t, state, report):
        if step == 0:
            return
        apertures.append(state.pore[lay.is_frac].copy())
        jumps.append(max(abs(state.p[a] - state.p[b])
                         for a, b in two_sided))

    run(scenario.problem, sinks=[sink])
    elapsed = time.perf_counter() - t0

    # The initial fluid is undersaturated (u0 = 0 against w0 = 0.3), so
    # downstream fracture cells dissolve until the injected front has
    # swept the fracture; the sweep takes two steps (frozen regression).
    monotone = all(np.all(b <= a + 1e-14)
                   for a, b in zip(apertures[2:], apertures[3:]))
    net_clogged = bool(np.all(apertures[-1] < apertures[0]))
    outflow_ratio = outflows[-1] / outflows[0]
    jump_ratio = jumps[-1] / jumps[0]
    ok = (monotone and net_clogged and outflow_ratio < 0.5
          and jump_ratio > 5.0 and elapsed < 120.0)
    _verdict(5, ok, f"aperture non-increasing {monotone} (after 2-step "
                    f"inflow sweep), net clogging {net_clogged}; final/initial "
                    f"outflow {outflow_ratio:.3e} (< 0.5); pressure-jump "
                    f"growth {jump_ratio:.1f}x (> 5x); {elapsed:.1f} s")


def test_criterion_6_fracture_opening_plateau():
    t0 = time.perf_counter()
    scenario = get_scenario("multi_fracture_opening")
    lay = scenario.problem.top.layout
    apertures = []

    def sink(step, t, state, report):
        if step > 0:
            apertures.append(state.pore[lay.is_frac].copy())

    state, _ = run(scenario.problem, sinks=[sink])
    elapsed = time.perf_counter() - t0

    growing = all(np.all(b >= a - 1e-14)
                  for a, b in zip(apertures, apertures[1:]))
    last10 = apertures[-11:]
    rel_steps = [np.max(np.abs(b - a) / b)
                 for a, b in zip(last10, last10[1:])]
    plateaued = max(rel_steps) < 1e-6
    exhausted = bool(np.all(state.w[lay.is_frac] == 0.0))
    arm_means = [float(np.mean(apertures[-1][lay.frac_of_dof[lay.is_frac]
                                            == fid]))
                 for fid in range(len(scenario.mesh.fractures))]
    spread = (max(arm_means) - min(arm_means)) / np.mean(arm_means)
    ok = (growing and plateaued and exhausted and spread <= 0.05
          and elapsed < 180.0)
    _verdict(6, ok, f"apertures non-decreasing {growing}; plateau rel-change "
                    f"{max(rel_steps):.1e}/step (< 1e-6); precipitate "
                    f"exhausted {exhausted}; cross-fracture spread "
                    f"{100 * spread:.2f}% (<= 5%); {elapsed:.1f} s")


def test_criterion_7_discrete_conservation_all_scenarios():
    worst_sum = 0.0
    worst_cell = 0.0
    for name in list_scenarios():
        scenario = get_scenario(name)
        problem = scenario.problem
        top = problem.top
        if problem.prescribed is not None:
            conn, bnd = problem.prescribed
            div = assemble_mixed_divergence(top, conn, bnd)
        else:
            state = problem.state0
            _, conn, bnd = darcy_step(problem.flow, state.pore, state.pore,
                                      problem.params, problem.grid.dt)
            div = assemble_mixed_divergence(top, conn, bnd)
            # solved flow: each cell balances exactly (zero rhs here)
            worst_cell = max(worst_cell, float(np.max(np.abs(div))))
        # interior fluxes telescope: total divergence = boundary total
        worst_sum = max(worst_sum,
                        abs(float(np.sum(div)) - float(np.sum(bnd))))
    ok = worst_sum <= 1e-10 and worst_cell <= 1e-10
    _verdict(7, ok, f"divergence-sum identity defect {worst_sum:.1e}, "
                    f"worst per-cell flow residual {worst_cell:.1e} "
                    f"(both <= 1e-10) across all 8 built-ins")


def test_criterion_8_decoupling_limit():
    params = PhysParams()
    bc = {
        "bottom": SegmentBC(flow=(PRESSURE, 1.0)),
        "top": SegmentBC(flow=(PRESSURE, 0.0)),
        "left": SegmentBC(), "right": SegmentBC(),
    }
    # a fracture parallel to the flow, with its aperture at the clamp
    # floor, must not disturb the surrounding pressure field
    cut = build_structured_2d(20, 20, fractures=[[(0.5, 0.0), (0.5, 1.0)]])
    top_cut = build_topology(cut)
    state = make_state(top_cut, params, frac_aperture=EPS_MIN)
    p_cut, _, _ = darcy_step(Operator(top_cut, bc, "flow"), state.pore,
                             state.pore, params, dt=0.1)

    plain = build_structured_2d(20, 20)
    top_plain = build_topology(plain)
    pore = np.full(top_plain.layout.ndof, params.phi0)
    p_plain, _, _ = darcy_step(Operator(top_plain, bc, "flow"), pore, pore,
                               params, dt=0.1)
    diff = float(np.max(np.abs(p_cut[:plain.num_cells] - p_plain)))
    ok = diff <= 1e-8
    _verdict(8, ok, f"pressure deviation {diff:.2e} (<= 1e-8) with the "
                    f"fracture aperture at the {EPS_MIN:g} floor")


def test_criterion_9_temporal_self_convergence():
    t0 = time.perf_counter()
    base = get_scenario("test1d_pulse").problem
    x = np.linspace(0.005, 0.995, 100)

    def problem_with(num_steps):
        state = base.state0.copy()
        state.u[:] = 2.0 * np.exp(-((x - 0.5) / 0.08) ** 2)
        state.w[:] = 0.5           # stays positive: no switching events
        return replace(base, state0=state,
                       grid=TimeGrid(base.grid.t_end, num_steps))

    ref, _ = run(problem_with(3200))
    rows = []
    for n in (100, 200, 400):
        state, _ = run(problem_with(n))
        rows.append({"dt": base.grid.t_end / n,
                     "error": float(np.max(np.abs(state.u - ref.u)))})
    order = convergence_order(rows)
    elapsed = time.perf_counter() - t0
    ok = order >= 0.9
    _verdict(9, ok, "self-convergence errors "
             + "/".join(f"{r['error']:.2e}" for r in rows)
             + f", order {order:.2f} (>= 0.9); {elapsed:.1f} s")
