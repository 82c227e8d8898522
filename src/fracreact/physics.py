"""Implicit sub-solvers for the splitting scheme.

Flow, heat and solute share one assemble-and-solve path: one sparse
system over all subdomains (bulk, fractures, intersections) of

    diag*x + scale*(TPFA diffusion + upwind advection) = rhs,

closed on the boundary faces by per-face masks and solved with the
direct sparse path. Darcy flow uses it with scale 1 and neither
accumulation nor advection; heat, solute and the monolithic splitting
reference use it through the implicit Euler step ``transport_step``
with scale dt. It returns the outward boundary fluxes consistent with
the solve, which the mass audit uses.

Boundary values and sources are constants for the whole run: a number
per segment and equation, and an optional per-dof solute source array.

Boundary conventions follow the flow problem: segments with an essential
pressure condition also carry the essential temperature/solute data on
inflow, while walls are no-flux throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constitutive as cl
from .constitutive import PhysParams
from .discretize import (COUPLING, INTERSECT, Topology,
                         boundary_transmissibilities, transmissibilities)
from .errors import WellPosednessError
from .linsolve import assemble_arrays, solve

DIRICHLET = "dirichlet"
OUTFLOW = "outflow"
FLUX = "flux"
PRESSURE = "pressure"

# boundary kinds each equation accepts
FLOW_KINDS = (PRESSURE, FLUX)
TRANSPORT_KINDS = (DIRICHLET, OUTFLOW, FLUX)


@dataclass(frozen=True)
class SegmentBC:
    """Boundary data of one named segment, one entry per equation.

    Each entry is (kind, value) with a number fixed for the whole run.
    Flow kinds: ``pressure`` (essential) or ``flux`` (outward normal
    flux datum). Transport kinds (heat, solute): ``dirichlet``
    (essential value, also used for advective inflow), ``outflow``
    (advective upwind only) or ``flux`` (outward total flux datum).
    """

    flow: tuple = (FLUX, 0.0)
    heat: tuple = (FLUX, 0.0)
    solute: tuple = (FLUX, 0.0)


BoundarySpec = dict  # tag -> SegmentBC


@dataclass
class FieldState:
    """Primary fields as flat per-dof arrays (bulk, fractures,
    intersections concatenated); ``pore`` holds porosity on bulk dofs
    and aperture / cross-section on lower-dimensional dofs."""

    p: np.ndarray
    theta: np.ndarray
    u: np.ndarray
    w: np.ndarray
    pore: np.ndarray
    react_prev: np.ndarray | None = None   # last reaction increment of w
    bnd_flux: np.ndarray | None = None     # last outward Darcy boundary flux

    def copy(self) -> "FieldState":
        return FieldState(
            p=self.p.copy(), theta=self.theta.copy(), u=self.u.copy(),
            w=self.w.copy(), pore=self.pore.copy(),
            react_prev=None if self.react_prev is None else self.react_prev.copy(),
            bnd_flux=None if self.bnd_flux is None else self.bnd_flux.copy())


def _resolve_bc(top: Topology, bc: BoundarySpec, equation: str):
    """Per-boundary-face (kind, value) arrays for one equation; each
    segment is looked up once."""
    accepted = FLOW_KINDS if equation == "flow" else TRANSPORT_KINDS
    kinds, values = [], []
    for tag in top.seg_names:
        if tag not in bc:
            raise WellPosednessError(f"no boundary condition for segment {tag!r}")
        kind, val = getattr(bc[tag], equation)
        if kind not in accepted:
            raise WellPosednessError(
                f"unknown {equation} boundary kind {kind!r} on segment {tag!r}")
        kinds.append(kind)
        values.append(float(val))
    return (np.array(kinds, dtype=str)[top.b_seg],
            np.array(values, dtype=float)[top.b_seg])


def _tpfa_solve(top: Topology, t_conn, t_bnd, kinds, values, rhs, scale,
                diag=None, flux=None, bnd_flux=None):
    """Assemble and solve

        diag*x + scale*(TPFA diffusion + upwind advection) = rhs

    with the boundary closures of ``kinds``: essential (``pressure`` or
    ``dirichlet``; the datum also feeds advective inflow), ``outflow``
    (advective upwind only) and ``flux`` (outward total flux datum).
    ``flux`` and ``bnd_flux`` are the advective connection and boundary
    fluxes; without them the operator is pure diffusion. ``rhs`` is
    updated in place with the boundary data. Returns (x, outward
    boundary fluxes consistent with the solve).

    Entries are listed diagonal, diffusion, advection, then face by face
    (essential before advective outflow), and boundary data is added
    face by face: duplicates are summed in this order, which keeps the
    result reproducible to the bit.
    """
    ci, cj, bd = top.ci, top.cj, top.b_dof
    kinds, g = np.asarray(kinds), np.asarray(values, dtype=float)
    ess = (kinds == PRESSURE) | (kinds == DIRICHLET)
    out = kinds == OUTFLOW
    st = scale * t_conn
    rows, cols, vals = [ci, ci, cj, cj], [ci, cj, cj, ci], [st, -st, st, -st]
    if diag is not None:
        idx = np.arange(top.layout.ndof)
        rows, cols, vals = [idx] + rows, [idx] + cols, [diag] + vals
    if flux is None:
        fb = np.zeros(len(bd))
        adv_out = adv_in = np.zeros(len(bd), dtype=bool)
    else:
        fp, fm = np.maximum(flux, 0.0), np.minimum(flux, 0.0)
        rows += [ci, ci, cj, cj]
        cols += [ci, cj, cj, ci]
        vals += [scale * fp, scale * fm, -scale * fm, -scale * fp]
        fb = bnd_flux
        leaving, upwind = fb >= 0, ess | out
        adv_out, adv_in = upwind & leaving, upwind & ~leaving

    # one (essential, advective) pair of slots per face; boolean masks
    # select from the transposed pairs face by face
    bd2 = np.array([bd, bd]).T
    sel = np.array([ess, adv_out]).T
    st_b, sfb = scale * t_bnd, scale * fb
    rows.append(bd2[sel])
    cols.append(rows[-1])
    vals.append(np.array([st_b, sfb]).T[sel])
    sel = np.array([ess | (kinds == FLUX), adv_in]).T
    term = np.array([np.where(ess, st_b * g, (-scale * g) * top.b_area),
                     -sfb * g]).T
    np.add.at(rhs, bd2[sel], term[sel])

    system = assemble_arrays(np.concatenate(rows), np.concatenate(cols),
                             np.concatenate(vals), top.layout.ndof, rhs)
    x = solve(system, tol=1e-10)

    xb = x[bd]
    bnd_total = np.where(ess, t_bnd * (xb - g), g * top.b_area)
    if flux is not None:
        adv = fb * np.where(leaving, xb, g)
        bnd_total = np.where(ess, bnd_total + adv, np.where(out, adv, bnd_total))
    return x, bnd_total


# ---------------------------------------------------------------------------
# flow


def flow_coefficients(top: Topology, pore_star, params: PhysParams):
    """Per-dof mobility and per-connection interface resistance for the
    Darcy solve, evaluated at the extrapolated pore fractions."""
    lay = top.layout
    coef = np.ones(lay.ndof)
    coef[lay.is_bulk] = cl.kozeny_permeability(
        pore_star[lay.is_bulk], params) / params.mu
    eps_f = pore_star[lay.is_frac]
    coef[lay.is_frac] = eps_f * cl.cubic_law(
        eps_f, params.kgamma0, params.epsgamma0) / params.mu

    resist = np.zeros(top.n_conn)
    for kind, kappa0, eps0 in ((COUPLING, params.kappagamma0, params.epsgamma0),
                               (INTERSECT, params.kappaiota0, params.epsiota0)):
        m = top.kind == kind
        eps = pore_star[top.low_dof[m]]
        resist[m] = _interface_resistance(eps, cl.cubic_law(eps, kappa0, eps0),
                                          params.mu)
    return coef, resist


def _interface_resistance(eps, kappa, scale):
    """scale*eps/kappa with a blocked (infinite) interface at zero
    permeability; the transmissibility then collapses to zero and the
    lower-dimensional object decouples."""
    eps = np.asarray(eps, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    out = np.full(eps.shape, np.inf)
    ok = kappa > 0
    out[ok] = scale * eps[ok] / kappa[ok]
    return out


def darcy_step(top: Topology, pore_star, pore_n, params: PhysParams,
               bc: BoundarySpec, dt: float):
    """Implicit Euler Darcy solve over all subdomains.

    The pore-fraction change acts as an additional source. Returns
    (pressure, connection fluxes, boundary fluxes); fluxes are positive
    from ci to cj / outward.
    """
    lay = top.layout
    coef, resist = flow_coefficients(top, pore_star, params)
    t_conn = transmissibilities(top, coef, resist)

    kinds, values = _resolve_bc(top, bc, "flow")
    if not np.any(kinds == PRESSURE):
        raise WellPosednessError(
            "flow problem needs at least one essential pressure segment")

    rhs = -(np.asarray(pore_star) - np.asarray(pore_n)) * lay.measure / dt
    p, bnd_flux = _tpfa_solve(top, t_conn, boundary_transmissibilities(top, coef),
                              kinds, values, rhs, 1.0)
    return p, t_conn * (p[top.ci] - p[top.cj]), bnd_flux


# ---------------------------------------------------------------------------
# generic implicit upwind/TPFA transport


def transport_step(top: Topology, t_conn, t_bnd, acc_new, acc_old, x_old,
                   conn_flux, bnd_flux, adv_scale, kinds, values, dt,
                   source=None):
    """One implicit Euler step of

        acc_new*x - acc_old*x_old + dt*(div of advective+diffusive flux)
            = dt*source

    with upstream advective face values and TPFA diffusion through the
    connection and boundary transmissibilities ``t_conn`` and ``t_bnd``.
    Returns (x_new, boundary total fluxes) where the boundary fluxes are
    the outward advective+diffusive fluxes consistent with the solve,
    for mass audits.
    """
    rhs = np.asarray(acc_old, dtype=float) * np.asarray(x_old, dtype=float)
    if source is not None:
        rhs = rhs + dt * np.asarray(source, dtype=float)
    return _tpfa_solve(
        top, t_conn, t_bnd, kinds, values, rhs, dt,
        diag=np.asarray(acc_new, dtype=float),
        flux=adv_scale * np.asarray(conn_flux, dtype=float),
        bnd_flux=adv_scale * np.asarray(bnd_flux, dtype=float))


# ---------------------------------------------------------------------------
# heat and solute wrappers


def heat_step(top: Topology, state: FieldState, conn_flux, bnd_flux,
              pore_star, pore_n, params: PhysParams, bc: BoundarySpec,
              dt: float):
    """Implicit Euler heat solve with effective properties evaluated at
    the extrapolated pore fractions."""
    lay = top.layout
    coef = np.ones(lay.ndof)
    coef[lay.is_bulk] = cl.effective_conductivity(pore_star[lay.is_bulk], params)
    coef[lay.is_frac] = pore_star[lay.is_frac] * params.lambdaw

    resist = _transport_resistances(top, pore_star, params.lambdaw)

    acc_new = np.empty(lay.ndof)
    acc_old = np.empty(lay.ndof)
    acc_new[lay.is_bulk] = cl.effective_heat_capacity(
        pore_star[lay.is_bulk], params) * lay.measure[lay.is_bulk]
    acc_old[lay.is_bulk] = cl.effective_heat_capacity(
        pore_n[lay.is_bulk], params) * lay.measure[lay.is_bulk]
    low = ~lay.is_bulk
    acc_new[low] = params.rhow_cw * pore_star[low] * lay.measure[low]
    acc_old[low] = params.rhow_cw * pore_n[low] * lay.measure[low]

    kinds, values = _resolve_bc(top, bc, "heat")
    return transport_step(
        top, transmissibilities(top, coef, resist),
        boundary_transmissibilities(top, coef), acc_new, acc_old, state.theta,
        conn_flux, bnd_flux, params.rhow_cw, kinds, values, dt)


def solute_coefficients(top: Topology, pore_star, params: PhysParams):
    """Per-dof diffusivity and per-connection interface resistance for
    the solute solve, evaluated at the given pore fractions."""
    lay = top.layout
    coef = np.ones(lay.ndof)
    coef[lay.is_bulk] = pore_star[lay.is_bulk] * params.d
    coef[lay.is_frac] = pore_star[lay.is_frac] * params.dgamma
    return coef, _transport_resistances(top, pore_star, params.deltagamma)


def solute_ad_step(top: Topology, state: FieldState, conn_flux, bnd_flux,
                   pore_star, pore_n, params: PhysParams, bc: BoundarySpec,
                   dt: float, source=None):
    """Implicit Euler advection-diffusion solve for the solute with the
    reaction term set to zero."""
    coef, resist = solute_coefficients(top, pore_star, params)
    acc_new = pore_star * top.layout.measure
    acc_old = pore_n * top.layout.measure

    kinds, values = _resolve_bc(top, bc, "solute")
    return transport_step(
        top, transmissibilities(top, coef, resist),
        boundary_transmissibilities(top, coef), acc_new, acc_old, state.u,
        conn_flux, bnd_flux, 1.0, kinds, values, dt, source=source)


def _transport_resistances(top: Topology, pore_star, normal_coef):
    """Interface resistance eps/coef on couplings and intersections."""
    resist = np.zeros(top.n_conn)
    low = top.low_dof >= 0
    resist[low] = _interface_resistance(
        pore_star[top.low_dof[low]], np.full(np.count_nonzero(low), normal_coef),
        1.0)
    return resist
