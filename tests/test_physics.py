"""Implicit sub-solvers: Darcy flow, heat and solute transport, boundary
condition handling and the discrete conservation identities."""

import numpy as np
import pytest

from fracreact.constitutive import PhysParams
from fracreact.discretize import (assemble_mixed_divergence,
                                  boundary_transmissibilities, build_topology,
                                  transmissibilities)
from fracreact.errors import WellPosednessError
from fracreact.linsolve import assemble_arrays, solve
from fracreact.mesh import build_interval_mesh, build_structured_2d
from fracreact.physics import (DIRICHLET, FLUX, OUTFLOW, PRESSURE, SegmentBC,
                               _resolve_bc, darcy_step, flow_coefficients,
                               heat_step, solute_ad_step, solute_coefficients,
                               transport_step)
from fracreact.scenarios import make_state


@pytest.fixture(scope="module")
def line():
    mesh = build_interval_mesh(1.0, 20)
    return mesh, build_topology(mesh)


def _interval_bc(p_left=1.0, p_right=0.0, u_in=0.0):
    return {
        "left": SegmentBC(flow=(PRESSURE, p_left), heat=(DIRICHLET, 1.0),
                          solute=(DIRICHLET, u_in)),
        "right": SegmentBC(flow=(PRESSURE, p_right), heat=(OUTFLOW, 0.0),
                           solute=(OUTFLOW, 0.0)),
    }


class TestDarcy:
    def test_linear_pressure_and_uniform_flux(self, line):
        mesh, top = line
        params = PhysParams()
        pore = np.full(top.layout.ndof, params.phi0)
        p, conn, bnd = darcy_step(top, pore, pore, params, _interval_bc(),
                                  dt=0.1)
        x = mesh.cell_centroids[:, 0]
        np.testing.assert_allclose(p, 1.0 - x, rtol=1e-10)
        # permeability at reference porosity is k0 = 1, so |q| = dp/dx = 1
        np.testing.assert_allclose(np.abs(conn), 1.0, rtol=1e-10)
        np.testing.assert_allclose(np.abs(bnd), 1.0, rtol=1e-10)
        # outward convention: inflow negative at the high-pressure end
        assert bnd[top.b_seg.tolist().index(top.seg_names.index("left"))] < 0

    def test_per_cell_conservation(self, line):
        _, top = line
        params = PhysParams()
        pore = np.full(top.layout.ndof, params.phi0)
        _, conn, bnd = darcy_step(top, pore, pore, params, _interval_bc(),
                                  dt=0.1)
        div = assemble_mixed_divergence(top, conn, bnd)
        np.testing.assert_allclose(div, 0.0, atol=1e-12)

    def test_pore_change_acts_as_source(self, line):
        _, top = line
        params = PhysParams()
        pore_n = np.full(top.layout.ndof, params.phi0)
        pore_star = pore_n.copy()
        pore_star[5] += 0.01     # growing pores withdraw fluid
        dt = 0.1
        _, conn, bnd = darcy_step(top, pore_star, pore_n, params,
                                  _interval_bc(), dt=dt)
        div = assemble_mixed_divergence(top, conn, bnd)
        expect = -(pore_star - pore_n) * top.layout.measure / dt
        np.testing.assert_allclose(div, expect, atol=1e-12)

    def test_prescribed_boundary_flux(self, line):
        _, top = line
        params = PhysParams()
        pore = np.full(top.layout.ndof, params.phi0)
        bc = {
            "left": SegmentBC(flow=(FLUX, -2.0)),    # inflow of 2 (outward -2)
            "right": SegmentBC(flow=(PRESSURE, 0.0)),
        }
        _, conn, bnd = darcy_step(top, pore, pore, params, bc, dt=0.1)
        assert np.sum(bnd) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(conn, 2.0, rtol=1e-10)

    def test_needs_a_pressure_segment(self, line):
        _, top = line
        params = PhysParams()
        pore = np.full(top.layout.ndof, params.phi0)
        bc = {"left": SegmentBC(flow=(FLUX, 1.0)),
              "right": SegmentBC(flow=(FLUX, -1.0))}
        with pytest.raises(WellPosednessError):
            darcy_step(top, pore, pore, params, bc, dt=0.1)

    def test_missing_boundary_tag(self, line):
        _, top = line
        params = PhysParams()
        pore = np.full(top.layout.ndof, params.phi0)
        with pytest.raises(WellPosednessError):
            darcy_step(top, pore, pore, params,
                       {"left": SegmentBC(flow=(PRESSURE, 1.0))}, dt=0.1)

    def test_rejects_transport_kind(self, line):
        _, top = line
        params = PhysParams()
        pore = np.full(top.layout.ndof, params.phi0)
        bc = _interval_bc()
        bc["right"] = SegmentBC(flow=(DIRICHLET, 0.0))
        with pytest.raises(WellPosednessError, match="dirichlet"):
            darcy_step(top, pore, pore, params, bc, dt=0.1)

    def test_conductive_fracture_increases_throughflow(self):
        params = PhysParams()
        bc = {
            "bottom": SegmentBC(flow=(PRESSURE, 1.0)),
            "top": SegmentBC(flow=(PRESSURE, 0.0)),
            "left": SegmentBC(), "right": SegmentBC(),
        }

        def total_inflow(mesh):
            top = build_topology(mesh)
            state = make_state(top, params)
            _, _, bnd = darcy_step(top, state.pore, state.pore, params, bc,
                                   dt=0.1)
            return -np.sum(np.minimum(bnd, 0.0))

        plain = total_inflow(build_structured_2d(10, 10))
        cut = total_inflow(build_structured_2d(
            10, 10, fractures=[[(0.5, 0.0), (0.5, 1.0)]]))
        assert cut > 1.05 * plain


class TestFlowCoefficients:
    def test_bulk_and_fracture_mobilities(self):
        mesh = build_structured_2d(4, 4, fractures=[[(0.5, 0.0), (0.5, 1.0)]])
        top = build_topology(mesh)
        params = PhysParams()
        state = make_state(top, params)
        coef, resist = flow_coefficients(top, state.pore, params)
        lay = top.layout
        np.testing.assert_allclose(coef[lay.is_bulk],
                                   params.k0 / params.mu)
        # eps * cubic-law permeability / mu at the reference aperture
        np.testing.assert_allclose(coef[lay.is_frac],
                                   params.epsgamma0 * params.kgamma0
                                   / params.mu)
        cpl = resist[resist > 0]
        np.testing.assert_allclose(
            cpl, params.mu * params.epsgamma0 / params.kappagamma0)


class TestTransport:
    def _flow(self, top, params, bc):
        pore = np.full(top.layout.ndof, params.phi0)
        _, conn, bnd = darcy_step(top, pore, pore, params, bc, dt=0.1)
        return pore, conn, bnd

    def test_uniform_temperature_is_steady(self, line):
        _, top = line
        params = PhysParams()
        bc = _interval_bc()
        pore, conn, bnd = self._flow(top, params, bc)
        state = make_state(top, params, theta=1.0)
        theta, _ = heat_step(top, state, conn, bnd, pore, pore, params, bc,
                             dt=0.1)
        np.testing.assert_allclose(theta, 1.0, rtol=1e-12)

    def test_heat_maximum_principle(self, line):
        _, top = line
        params = PhysParams()
        bc = {
            "left": SegmentBC(flow=(PRESSURE, 1.0), heat=(DIRICHLET, 1.5)),
            "right": SegmentBC(flow=(PRESSURE, 0.0), heat=(OUTFLOW, 0.0)),
        }
        pore, conn, bnd = self._flow(top, params, bc)
        state = make_state(top, params, theta=1.0)
        for _ in range(5):
            theta, _ = heat_step(top, state, conn, bnd, pore, pore, params,
                                 bc, dt=0.05)
            state = state.copy()
            state.theta[:] = theta
        assert np.all(theta >= 1.0 - 1e-12)
        assert np.all(theta <= 1.5 + 1e-12)
        assert theta[0] > theta[-1]      # warm front enters from the left

    def test_solute_mass_identity(self, line):
        """acc change + dt * (boundary totals) telescopes to zero."""
        _, top = line
        params = PhysParams(d=0.02)
        bc = _interval_bc(u_in=2.0)
        pore, conn, bnd = self._flow(top, params, bc)
        rng = np.random.default_rng(5)
        state = make_state(top, params)
        state.u[:] = rng.uniform(0.0, 1.0, top.layout.ndof)
        dt = 0.02
        u, bnd_total = solute_ad_step(top, state, conn, bnd, pore, pore,
                                      params, bc, dt=dt)
        lay = top.layout
        m_old = float(np.sum(pore * state.u * lay.measure))
        m_new = float(np.sum(pore * u * lay.measure))
        assert m_new - m_old + dt * np.sum(bnd_total) == pytest.approx(
            0.0, abs=1e-13 * max(m_old, 1.0))

    def test_no_flux_walls_conserve_mass(self, line):
        _, top = line
        params = PhysParams(d=0.5)
        bc = {"left": SegmentBC(), "right": SegmentBC()}   # all no-flux
        rng = np.random.default_rng(8)
        state = make_state(top, params)
        state.u[:] = rng.uniform(0.0, 1.0, top.layout.ndof)
        pore = state.pore
        zero_conn = np.zeros(top.n_conn)
        zero_bnd = np.zeros(len(top.b_dof))
        u, bnd_total = solute_ad_step(top, state, zero_conn, zero_bnd, pore,
                                      pore, params, bc, dt=0.1)
        lay = top.layout
        assert np.sum(pore * u * lay.measure) == pytest.approx(
            np.sum(pore * state.u * lay.measure), rel=1e-13)
        np.testing.assert_allclose(bnd_total, 0.0, atol=1e-15)
        # pure diffusion smooths towards the mean
        assert u.std() < state.u.std()

    def test_solute_rejects_flow_kind(self, line):
        _, top = line
        params = PhysParams()
        bc = _interval_bc()
        pore, conn, bnd = self._flow(top, params, bc)
        bc["left"] = SegmentBC(flow=(PRESSURE, 1.0), solute=(PRESSURE, 1.0))
        state = make_state(top, params)
        with pytest.raises(WellPosednessError, match="pressure"):
            solute_ad_step(top, state, conn, bnd, pore, pore, params, bc,
                           dt=0.1)

    def test_dirichlet_inflow_raises_concentration(self, line):
        _, top = line
        params = PhysParams(d=0.02)
        bc = _interval_bc(u_in=2.0)
        pore, conn, bnd = self._flow(top, params, bc)
        state = make_state(top, params, u=0.0)
        u, bnd_total = solute_ad_step(top, state, conn, bnd, pore, pore,
                                      params, bc, dt=0.05)
        assert u[0] > 0.1
        assert np.all(u <= 2.0 + 1e-12)
        # net boundary total is an influx (negative outward sum)
        assert np.sum(bnd_total) < 0.0


# ---------------------------------------------------------------------------
# reference: the per-boundary-face assembly the shared TPFA path replaced


def _reference_bc(top, bc, equation):
    kinds = []
    values = np.empty(len(top.b_dof))
    for i, tag in enumerate(top.seg_names[c] for c in top.b_seg):
        kind, val = getattr(bc[tag], equation)
        kinds.append(kind)
        values[i] = val
    return kinds, values


def _reference_darcy(top, pore_star, pore_n, params, bc, dt):
    lay = top.layout
    coef, resist = flow_coefficients(top, pore_star, params)
    t_conn = transmissibilities(top, coef, resist)
    t_bnd = boundary_transmissibilities(top, coef)
    kinds, values = _reference_bc(top, bc, "flow")

    rhs = -(np.asarray(pore_star) - np.asarray(pore_n)) * lay.measure / dt
    rows = [top.ci, top.ci, top.cj, top.cj]
    cols = [top.ci, top.cj, top.cj, top.ci]
    vals = [t_conn, -t_conn, t_conn, -t_conn]
    for i, kind in enumerate(kinds):
        d = top.b_dof[i]
        if kind == PRESSURE:
            rows.append([d]); cols.append([d]); vals.append([t_bnd[i]])
            rhs[d] += t_bnd[i] * values[i]
        else:
            rhs[d] -= values[i] * top.b_area[i]
    system = assemble_arrays(np.concatenate([np.atleast_1d(r) for r in rows]),
                             np.concatenate([np.atleast_1d(c) for c in cols]),
                             np.concatenate([np.atleast_1d(v) for v in vals]),
                             lay.ndof, rhs)
    p = solve(system, tol=1e-10)

    conn_flux = t_conn * (p[top.ci] - p[top.cj])
    bnd_flux = np.empty(len(top.b_dof))
    for i, kind in enumerate(kinds):
        if kind == PRESSURE:
            bnd_flux[i] = t_bnd[i] * (p[top.b_dof[i]] - values[i])
        else:
            bnd_flux[i] = values[i] * top.b_area[i]
    return p, conn_flux, bnd_flux


def _reference_transport(top, coef, resist, acc_new, acc_old, x_old,
                         conn_flux, bnd_flux, adv_scale, kinds, values, dt,
                         source=None, reaction_diag=None, reaction_rhs=None):
    lay = top.layout
    t_conn = transmissibilities(top, coef, resist)
    t_bnd = boundary_transmissibilities(top, coef)
    f = adv_scale * np.asarray(conn_flux, dtype=float)
    fb = adv_scale * np.asarray(bnd_flux, dtype=float)
    fp, fm = np.maximum(f, 0.0), np.minimum(f, 0.0)

    rhs = np.asarray(acc_old, dtype=float) * np.asarray(x_old, dtype=float)
    if source is not None:
        rhs = rhs + dt * np.asarray(source, dtype=float)
    diag = np.asarray(acc_new, dtype=float).copy()
    if reaction_diag is not None:
        diag = diag + dt * np.asarray(reaction_diag, dtype=float)
    if reaction_rhs is not None:
        rhs = rhs + dt * np.asarray(reaction_rhs, dtype=float)

    rows = [np.arange(lay.ndof), top.ci, top.ci, top.cj, top.cj,
            top.ci, top.ci, top.cj, top.cj]
    cols = [np.arange(lay.ndof), top.ci, top.cj, top.cj, top.ci,
            top.ci, top.cj, top.cj, top.ci]
    vals = [diag, dt * t_conn, -dt * t_conn, dt * t_conn, -dt * t_conn,
            dt * fp, dt * fm, -dt * fm, -dt * fp]
    brows, bvals = [], []
    for i, kind in enumerate(kinds):
        d = top.b_dof[i]
        g = values[i]
        if kind == DIRICHLET:
            brows.append(d); bvals.append(dt * t_bnd[i])
            rhs[d] += dt * t_bnd[i] * g
        if kind in (DIRICHLET, OUTFLOW):
            if fb[i] >= 0:
                brows.append(d); bvals.append(dt * fb[i])
            else:
                rhs[d] -= dt * fb[i] * g
        elif kind == FLUX:
            rhs[d] -= dt * g * top.b_area[i]
    brows = np.asarray(brows, dtype=int)
    system = assemble_arrays(np.concatenate(rows + [brows]),
                             np.concatenate(cols + [brows]),
                             np.concatenate(vals + [np.asarray(bvals)]),
                             lay.ndof, rhs)
    x = solve(system, tol=1e-10)

    bnd_total = np.zeros(len(top.b_dof))
    for i, kind in enumerate(kinds):
        d = top.b_dof[i]
        g = values[i]
        adv = fb[i] * x[d] if fb[i] >= 0 else fb[i] * g
        if kind == DIRICHLET:
            bnd_total[i] = t_bnd[i] * (x[d] - g) + adv
        elif kind == OUTFLOW:
            bnd_total[i] = adv
        else:
            bnd_total[i] = g * top.b_area[i]
    return x, bnd_total


class TestSharedAssembly:
    """The vectorised boundary closures reproduce the per-face assembly
    to the bit, on a grid whose four corner cells each carry two
    boundary faces of different kinds."""

    DT = 0.05

    # (left pressure, top pressure, right flux): the left faces flow out
    # in the first set and in in the second, so boundary data meets the
    # corner cells in both orders
    @pytest.fixture(scope="class", params=[(0.4, 0.75, -0.3), (1.2, 0.9, 0.3)])
    def case(self, request):
        p_left, p_top, q_right = request.param
        # one fracture ends on the bottom boundary, one crosses it
        mesh = build_structured_2d(6, 6, fractures=[
            [(0.5, 0.0), (0.5, 4 / 6)], [(1 / 6, 0.5), (5 / 6, 0.5)]])
        top = build_topology(mesh)
        params = PhysParams(d=0.02)
        bc = {
            "bottom": SegmentBC(flow=(PRESSURE, 1.0), heat=(DIRICHLET, 1.5),
                                solute=(DIRICHLET, 2.0)),
            "left": SegmentBC(flow=(PRESSURE, p_left), heat=(DIRICHLET, 1.0),
                              solute=(DIRICHLET, 1.3)),
            "top": SegmentBC(flow=(PRESSURE, p_top), heat=(OUTFLOW, 0.7),
                             solute=(OUTFLOW, 0.3)),
            "right": SegmentBC(flow=(FLUX, q_right), heat=(FLUX, 0.1),
                               solute=(FLUX, -0.2)),
        }
        rng = np.random.default_rng(17)
        state = make_state(top, params)
        state.u[:] = rng.uniform(0.0, 1.0, top.layout.ndof)
        pore_star = state.pore * rng.uniform(0.9, 1.1, top.layout.ndof)
        source = rng.normal(scale=0.1, size=top.layout.ndof)
        return top, params, bc, state, pore_star, source

    def test_case_exercises_every_closure(self, case):
        top, params, bc, state, pore_star, _ = case
        tags = np.asarray(top.seg_names)[top.b_seg]
        _, _, bnd = darcy_step(top, pore_star, state.pore, params, bc,
                               self.DT)
        for tag in ("bottom", "top"):       # inflow and outflow faces
            assert np.any(bnd[tags == tag] < 0) and np.any(bnd[tags == tag] > 0)
        assert np.any((top.b_face_id < 0) & (tags == "bottom"))   # tip
        _, counts = np.unique(top.b_dof, return_counts=True)
        assert np.count_nonzero(counts == 2) == 4                 # corners

    def test_darcy_matches_reference(self, case):
        top, params, bc, state, pore_star, source = case
        got = darcy_step(top, pore_star, state.pore, params, bc, self.DT)
        want = _reference_darcy(top, pore_star, state.pore, params, bc,
                                self.DT)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_transport_matches_reference(self, case):
        top, params, bc, state, pore_star, source = case
        _, conn, bnd = darcy_step(top, pore_star, state.pore, params, bc,
                                  self.DT)
        coef, resist = solute_coefficients(top, pore_star, params)
        acc_new = pore_star * top.layout.measure
        acc_old = state.pore * top.layout.measure
        kinds, values = _resolve_bc(top, bc, "solute")
        ref_kinds, ref_values = _reference_bc(top, bc, "solute")
        got = transport_step(top, transmissibilities(top, coef, resist),
                             boundary_transmissibilities(top, coef), acc_new,
                             acc_old, state.u, conn, bnd, 1.7, kinds, values,
                             self.DT, source=source)
        want = _reference_transport(top, coef, resist, acc_new, acc_old,
                                    state.u, conn, bnd, 1.7, ref_kinds,
                                    ref_values, self.DT, source=source)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_folded_reaction_matches_reference(self, case):
        # the monolithic reference passes its linear reaction as part of
        # the accumulation and the source
        top, params, bc, state, pore_star, _ = case
        _, conn, bnd = darcy_step(top, pore_star, state.pore, params, bc,
                                  self.DT)
        coef, resist = solute_coefficients(top, state.pore, params)
        acc = state.pore * top.layout.measure
        lam, u_e = 0.8, 1.3
        kinds, values = _resolve_bc(top, bc, "solute")
        ref_kinds, ref_values = _reference_bc(top, bc, "solute")
        got = transport_step(top, transmissibilities(top, coef, resist),
                             boundary_transmissibilities(top, coef),
                             acc + self.DT * (acc * lam / u_e), acc, state.u,
                             conn, bnd, 1.0, kinds, values, self.DT,
                             source=acc * lam)
        want = _reference_transport(top, coef, resist, acc, acc, state.u,
                                    conn, bnd, 1.0, ref_kinds, ref_values,
                                    self.DT, reaction_diag=acc * lam / u_e,
                                    reaction_rhs=acc * lam)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
