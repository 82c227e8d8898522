"""Implicit sub-solvers for the splitting scheme.

Flow, heat and solute share one assemble-and-solve path: one sparse
system over all subdomains (bulk, fractures, intersections) of

    diag*x + scale*(TPFA diffusion + upwind advection) = rhs,

closed on the boundary faces by per-face masks and solved with the
direct sparse path. Darcy flow uses it with scale 1, a zero diagonal
and zero advective fluxes; heat, solute and the monolithic splitting
reference use it through the implicit Euler step ``transport_step``
with scale dt. It returns the outward boundary fluxes consistent with
the solve, which the mass audit uses.

Each equation solves through one ``Operator``, which resolves its
boundary closure once and reuses work while its inputs repeat bit for bit.

Boundary values and sources are constants for the whole run: a number
per segment and equation, and a solute source that is a number or a
per-dof array.

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
from .linsolve import SparseSystem, assemble_arrays, factor, solve

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
    react_prev: np.ndarray   # last reaction increment of w, 0 at t = 0

    def copy(self) -> "FieldState":
        return FieldState(**{name: value.copy()
                             for name, value in vars(self).items()})


class Operator:
    """One equation's boundary closure on a topology, resolved once per
    run: per-face kind masks, values and (essential, advective) slot
    pairs. It keeps references to the last inputs of its work, and
    reuses the work while they repeat (``np.array_equal``: a NaN never
    repeats). ``transmissibilities_at`` keys on ``pore_star``;
    ``_tpfa_solve`` keys on the arrays that set its matrix and boundary
    terms, and on their first repeat keeps the factor (``lu``) and, in
    ``kept``, the matrix, boundary rhs terms and ``leaving`` mask. A solve
    that does not repeat keeps no matrix and no factor. Nothing is
    copied: callers make these arrays fresh and never write them
    afterwards, and one run uses the same parameters throughout.
    """

    def __init__(self, top: Topology, bc: BoundarySpec, equation: str):
        accepted = FLOW_KINDS if equation == "flow" else TRANSPORT_KINDS
        kinds, values = [], []
        for tag in top.seg_names:
            if tag not in bc:
                raise WellPosednessError(f"no boundary condition for segment {tag!r}")
            kind, val = getattr(bc[tag], equation)
            if kind not in accepted:
                raise WellPosednessError(f"unknown {equation} boundary kind "
                                         f"{kind!r} on segment {tag!r}")
            kinds.append(kind)
            values.append(float(val))
        kinds = np.array(kinds, dtype=str)[top.b_seg]
        self.values = np.array(values, dtype=float)[top.b_seg]
        self.ess = (kinds == PRESSURE) | (kinds == DIRICHLET)
        if equation == "flow" and not np.any(self.ess):
            raise WellPosednessError(
                "flow problem needs at least one essential pressure segment")
        self.out = kinds == OUTFLOW
        self.upwind = self.ess | self.out
        self.datum = self.ess | (kinds == FLUX)
        self.datum_flux = self.values * top.b_area   # outward, on flux faces
        self.top = top
        self.bd2 = np.array([top.b_dof, top.b_dof]).T
        self.b_slots = top.plan.diag[self.bd2]
        self.pore = self.trans = self.inputs = self.lu = self.kept = None

    def transmissibilities_at(self, coefficients, pore_star, params):
        """Connection and boundary transmissibilities of the (coef,
        resist) pair ``coefficients(top, pore_star, params)``, evaluated
        again only when ``pore_star`` differs from the last one used."""
        if not np.array_equal(pore_star, self.pore):
            coef, resist = coefficients(self.top, pore_star, params)
            self.pore = pore_star
            self.trans = (transmissibilities(self.top, coef, resist),
                          boundary_transmissibilities(self.top, coef))
        return self.trans


def _tpfa_solve(op: Operator, t_conn, t_bnd, rhs, scale, diag, flux,
                bnd_flux):
    """Assemble and solve

        diag*x + scale*(TPFA diffusion + upwind advection) = rhs

    with the boundary closures of ``op``: essential (``pressure`` or
    ``dirichlet``; the datum also feeds advective inflow), ``outflow``
    (advective upwind only) and ``flux`` (outward total flux datum).
    ``flux`` and ``bnd_flux`` are the advective connection and boundary
    fluxes. ``rhs`` is updated in place with the boundary data. Returns
    (x, outward boundary fluxes consistent with the solve).

    Entries are listed diagonal, diffusion, advection, then face by face
    (essential before advective outflow), each by its slot in the
    topology's solve plan, and boundary data is added face by face.
    ``assemble_arrays`` sums duplicates with ``np.bincount`` in this
    listed order, which keeps the result reproducible to the bit.
    """
    top, plan, g, ess = op.top, op.top.plan, op.values, op.ess
    inputs = (scale, t_bnd, bnd_flux, diag, t_conn, flux)  # cheapest first
    repeat = op.inputs is not None and all(map(np.array_equal, inputs,
                                               op.inputs))
    if not repeat:
        op.inputs, op.lu, op.kept = inputs, None, None
    if op.lu is None:
        leaving = bnd_flux >= 0
        adv_out, adv_in = op.upwind & leaving, op.upwind & ~leaving
        st = scale * t_conn
        fp, fm = np.maximum(flux, 0.0), np.minimum(flux, 0.0)
        conn = [plan.diag[top.ci], plan.ij, plan.diag[top.cj], plan.ji]
        slots = [plan.diag] + conn + conn
        vals = [diag, st, -st, st, -st,
                scale * fp, scale * fm, -scale * fm, -scale * fp]

        # boolean masks select from the transposed face pairs face by face
        sel = np.array([ess, adv_out]).T
        st_b, sfb = scale * t_bnd, scale * bnd_flux
        slots.append(op.b_slots[sel])
        vals.append(np.array([st_b, sfb]).T[sel])
        sel = np.array([op.datum, adv_in]).T
        term = np.array([np.where(ess, st_b * g, (-scale * g) * top.b_area),
                         -sfb * g]).T
        b_terms = op.bd2[sel], term[sel]
        np.add.at(rhs, *b_terms)
        system = assemble_arrays(plan, np.concatenate(slots),
                                 np.concatenate(vals), rhs)
        if repeat:
            op.lu = factor(system.matrix)
            op.kept = system.matrix, b_terms, leaving
    else:
        matrix, b_terms, leaving = op.kept
        np.add.at(rhs, *b_terms)
        system = SparseSystem(matrix=matrix, rhs=plan.permute(rhs))
    x = solve(system, lu=op.lu)[plan.perm]

    xb = x[top.b_dof]
    adv = bnd_flux * np.where(leaving, xb, g)
    bnd_total = np.where(ess, t_bnd * (xb - g) + adv,
                         np.where(op.out, adv, op.datum_flux))
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
        conn, dof = top.low_links[kind]
        eps = pore_star[dof]
        resist[conn] = _interface_resistance(
            eps, cl.cubic_law(eps, kappa0, eps0), params.mu)
    return coef, resist


def _interface_resistance(eps, kappa, scale):
    """scale*eps/kappa with a blocked (infinite) interface at zero
    permeability; the transmissibility then collapses to zero and the
    lower-dimensional object decouples. A NaN permeability gives NaN,
    so the linear solve rejects it."""
    eps = np.asarray(eps, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    out = np.full(eps.shape, np.inf)
    ok = ~(kappa <= 0)
    out[ok] = scale * eps[ok] / kappa[ok]
    return out


def darcy_step(op: Operator, pore_star, pore_n, params: PhysParams,
               dt: float):
    """Implicit Euler Darcy solve over all subdomains.

    The pore-fraction change acts as an additional source. Returns
    (pressure, connection fluxes, boundary fluxes); fluxes are positive
    from ci to cj / outward.
    """
    top = op.top
    lay = top.layout
    t_conn, t_bnd = op.transmissibilities_at(flow_coefficients, pore_star,
                                             params)

    # no accumulation and no advection: zero diagonal and fluxes
    rhs = -(np.asarray(pore_star) - np.asarray(pore_n)) * lay.measure / dt
    p, bnd_flux = _tpfa_solve(op, t_conn, t_bnd, rhs, 1.0, np.zeros(lay.ndof),
                              np.zeros(top.n_conn), np.zeros(len(top.b_dof)))
    return p, t_conn * (p[top.ci] - p[top.cj]), bnd_flux


# ---------------------------------------------------------------------------
# generic implicit upwind/TPFA transport


def transport_step(op: Operator, t_conn, t_bnd, acc_new, acc_old, x_old,
                   conn_flux, bnd_flux, adv_scale, dt, source=0.0):
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
    rhs += dt * np.asarray(source, dtype=float)
    return _tpfa_solve(
        op, t_conn, t_bnd, rhs, dt,
        diag=np.asarray(acc_new, dtype=float),
        flux=adv_scale * np.asarray(conn_flux, dtype=float),
        bnd_flux=adv_scale * np.asarray(bnd_flux, dtype=float))


# ---------------------------------------------------------------------------
# heat and solute wrappers


def heat_coefficients(top: Topology, pore_star, params: PhysParams):
    """Per-dof conductivity and per-connection interface resistance for
    the heat solve, evaluated at the given pore fractions."""
    lay = top.layout
    coef = np.ones(lay.ndof)
    coef[lay.is_bulk] = cl.effective_conductivity(pore_star[lay.is_bulk],
                                                  params)
    coef[lay.is_frac] = pore_star[lay.is_frac] * params.lambdaw
    return coef, _transport_resistances(top, pore_star, params.lambdaw)


def heat_step(op: Operator, state: FieldState, conn_flux, bnd_flux,
              pore_star, pore_n, params: PhysParams, dt: float):
    """Implicit Euler heat solve with effective properties evaluated at
    the extrapolated pore fractions."""
    lay = op.top.layout
    bulk, low = lay.is_bulk, ~lay.is_bulk

    def capacity(pore):
        acc = np.empty(lay.ndof)
        acc[bulk] = cl.effective_heat_capacity(pore[bulk], params) * lay.measure[bulk]
        acc[low] = params.rhow_cw * pore[low] * lay.measure[low]
        return acc

    return transport_step(
        op, *op.transmissibilities_at(heat_coefficients, pore_star, params),
        capacity(pore_star), capacity(pore_n), state.theta, conn_flux,
        bnd_flux, params.rhow_cw, dt)


def solute_coefficients(top: Topology, pore_star, params: PhysParams):
    """Per-dof diffusivity and per-connection interface resistance for
    the solute solve, evaluated at the given pore fractions."""
    lay = top.layout
    coef = np.ones(lay.ndof)
    coef[lay.is_bulk] = pore_star[lay.is_bulk] * params.d
    coef[lay.is_frac] = pore_star[lay.is_frac] * params.dgamma
    return coef, _transport_resistances(top, pore_star, params.deltagamma)


def solute_ad_step(op: Operator, state: FieldState, conn_flux, bnd_flux,
                   pore_star, pore_n, params: PhysParams, dt: float,
                   source=0.0):
    """Implicit Euler advection-diffusion solve for the solute with the
    reaction term set to zero."""
    measure = op.top.layout.measure
    return transport_step(
        op, *op.transmissibilities_at(solute_coefficients, pore_star, params),
        pore_star * measure, pore_n * measure, state.u, conn_flux, bnd_flux,
        1.0, dt, source=source)


def _transport_resistances(top: Topology, pore_star, normal_coef):
    """Interface resistance eps/coef on couplings and intersections;
    ``PhysParams`` keeps the coefficient positive."""
    resist = np.zeros(top.n_conn)
    conn, dof = top.low_links[None]
    resist[conn] = pore_star[dof] / normal_coef
    return resist
